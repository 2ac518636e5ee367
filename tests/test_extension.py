import numpy as np
import pytest

from anharm.groups import law, s_mul
from anharm.testfuncs import TestFunction, gaussian
from anharm.extension import tilde_eval_coords, gamma, gamma_inv
from matrix_oracle import coords_to_matrix, matrix_to_coords


def rand_fun(rng, dim):
    center = rng.uniform(-1.0, 1.0, dim)
    return gaussian(center, rng.uniform(0.6, 1.6, dim))


def invariance_residual(f, case, m, base, shift, s):
    """|f̃(ι(s)∘base, shift − s) − f̃(base, shift)| for acting-factor s."""
    twisted = law(case, m).compose(np.asarray(s, dtype=float), base)
    a = tilde_eval_coords(f, case, m, twisted, shift - s)
    b = tilde_eval_coords(f, case, m, base, shift)
    return float(abs(a - b))


def test_tilde_shift_zero_is_section():
    rng = np.random.default_rng(0)
    f = rand_fun(rng, 5)
    for _ in range(25):
        n = rng.uniform(-1, 1, 3)
        t = rng.uniform(-1, 1, 2)
        base = np.concatenate([n, t])
        got = complex(tilde_eval_coords(f, "H", 3, base, np.zeros(2)))
        assert got == pytest.approx(complex(f(base)), rel=1e-14)


def test_tilde_h_m2_example():
    f = TestFunction(2, ((1.0, [1, 1], [0.0, 0.0], [0.3, 0.3]),))
    got = complex(tilde_eval_coords(f, "H", 2, [1.0, 0.0], [np.log(2.0)]))
    want = complex(f(np.array([4.0, np.log(2.0)])))
    assert got == pytest.approx(want, rel=1e-13)


def test_tilde_k1_matches_matrix_oracle():
    rng = np.random.default_rng(1)
    f = rand_fun(rng, 3)
    for _ in range(25):
        g = rng.uniform(-1, 1, 3)
        u = rng.uniform(-1, 1, 1)
        emb = coords_to_matrix(3, law("K1", 3).iota(u))
        arg = matrix_to_coords(3, emb @ coords_to_matrix(3, g))
        got = complex(tilde_eval_coords(f, "K1", 3, g, u))
        assert got == pytest.approx(complex(f(arg)), rel=1e-13)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_tilde_h_equals_the_s_product_with_iota(m):
    # f̃ on H composes ι(u)∘(n, t) = (ρ(u)n, u + t) with no S product; it
    # must give f(ι(u)·base) as the S law computes it
    rng = np.random.default_rng(70 + m)
    d = m * (m - 1) // 2 + m - 1
    f = rand_fun(rng, d)
    base = rng.uniform(-1, 1, (40, 3, d))
    shifts = [rng.uniform(-1, 1, (40, 3, m - 1)),
              rng.uniform(-1, 1, (40, 1, m - 1)),  # broadcast by the law
              np.broadcast_to(rng.uniform(-1, 1, (1, 3, m - 1)), (40, 3, m - 1))]
    for u in shifts:
        got = tilde_eval_coords(f, "H", m, base, u)
        want = f(s_mul(m, law("H", m).iota(u), base))
        assert got.shape == (40, 3)
        if m <= 3:
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_invariance_residual_identity_shift():
    rng = np.random.default_rng(2)
    f = rand_fun(rng, 3)
    base, shift = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 1)
    assert invariance_residual(f, "K1", 3, base, shift, np.zeros(1)) == 0.0


@pytest.mark.parametrize("case,m", [("K1", 3), ("H", 2), ("H", 3)])
def test_invariance_residual_random(case, m):
    rng = np.random.default_rng(3)
    L = law(case, m)
    d_n, k = law("N", m).dim, L.shift_dim
    for _ in range(50):
        # the base draws come in the order n, then t
        f = rand_fun(rng, L.base.dim)
        base = np.concatenate([rng.uniform(-1, 1, d_n),
                               rng.uniform(-1, 1, L.base.dim - d_n)])
        shift = rng.uniform(-1, 1, k)
        s = rng.uniform(-1, 1, k)
        assert invariance_residual(f, case, m, base, shift, s) < 1e-10


def test_restrict_h_m2_example():
    # Γ⁻¹ is the restriction to M
    f = TestFunction(2, ((1.0, [2, 0], [0.0, 0.0], [0.2, 0.5]),))
    h = gamma_inv(f, "H", 2)
    got = h(np.array([1.0, np.log(2.0)]))
    assert got == pytest.approx(complex(f(np.array([4.0, np.log(2.0)]))), rel=1e-13)


def test_restrict_k1_matches_tilde_at_zero_acting():
    rng = np.random.default_rng(4)
    f = rand_fun(rng, 3)
    h = gamma_inv(f, "K1", 3)
    for _ in range(20):
        v = rng.uniform(-1, 1, 2)
        u = rng.uniform(-1, 1, 1)
        base = np.array([0.0, v[0], v[1]])
        want = tilde_eval_coords(f, "K1", 3, base, u)
        assert complex(h(np.concatenate([v, u]))) == pytest.approx(complex(want), rel=1e-13)


@pytest.mark.parametrize("case,m", [("K1", 3), ("H", 2), ("H", 3)])
def test_gamma_inverts_restriction(case, m):
    """Γ(Γ⁻¹(f)) = f on the group, pointwise."""
    rng = np.random.default_rng(5)
    dim = law(case, m).base.dim
    f = rand_fun(rng, dim)
    g = gamma(gamma_inv(f, case, m), case, m)
    pts = rng.uniform(-1.5, 1.5, (200, dim))
    assert np.max(np.abs(g(pts) - f(pts))) < 1e-12


def _restrict_formula(f, case, m):
    """The restriction to M as tilde_eval_coords after m_split."""
    L = law(case, m)

    def h(points):
        base, u = L.m_split(np.asarray(points, dtype=float))
        return tilde_eval_coords(f, case, m, base, u)

    return h


@pytest.mark.parametrize("case,m", [("K1", 3), ("K1", 4), ("H", 2), ("H", 3)])
def test_gamma_inv_equals_the_restriction_formula(case, m):
    rng = np.random.default_rng(9)
    dim = law(case, m).base.dim
    f = rand_fun(rng, dim)
    pts = rng.uniform(-1.5, 1.5, (7, 5, dim))
    got = gamma_inv(f, case, m)(pts)
    assert got.shape == (7, 5)
    assert np.array_equal(got, _restrict_formula(f, case, m)(pts))


@pytest.mark.parametrize("case,m", [("K1", 3), ("H", 2), ("H", 3)])
def test_gamma_round_trip(case, m):
    rng = np.random.default_rng(6)
    dmm = law(case, m).base.dim
    h = rand_fun(rng, dmm)
    back = gamma_inv(gamma(h, case, m), case, m)
    pts = rng.uniform(-1.5, 1.5, (200, dmm))
    assert np.max(np.abs(back(pts) - h(pts))) < 1e-12


def test_gamma_heisenberg_closed_form():
    # Γ(h)(x, z, y) = h(z - x·y, y, x)
    rng = np.random.default_rng(7)
    h = rand_fun(rng, 3)
    g = gamma(h, "K1", 3)
    for _ in range(20):
        x, z, y = rng.uniform(-1, 1, 3)
        got = g(np.array([x, z, y]))
        want = h(np.array([z - x * y, y, x]))
        assert complex(got) == pytest.approx(complex(want), rel=1e-13)


def test_gamma_twist_is_measure_preserving():
    # the top-slot twist is linear with determinant 1, so L² inner products
    # transport exactly; check det and the inner product numerically
    from anharm.testfuncs import Axis, quadrature
    rng = np.random.default_rng(8)
    m = 3
    # det of the per-point twist on the top slot: conjugation block has det 1
    for _ in range(10):
        x = rng.uniform(-1, 1, 1)
        emb = coords_to_matrix(m, law("K1", m).iota(x))
        block = emb[: m - 1, : m - 1]
        assert abs(np.linalg.det(block) - 1.0) < 1e-12
    h1, h2 = rand_fun(rng, 3), rand_fun(rng, 3)
    axes = [Axis(0.0, 9.0, 64)] * 3
    ip_m = quadrature(lambda p: h1(p) * np.conj(h2(p)), axes)
    g1, g2 = gamma(h1, "K1", 3), gamma(h2, "K1", 3)
    ip_n = quadrature(lambda p: g1(p) * np.conj(g2(p)), axes)
    assert abs(ip_n - ip_m) / abs(ip_m) < 1e-6
