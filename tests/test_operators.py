import tracemalloc

import numpy as np
import pytest

from anharm.groups import law, n_mul
from anharm.testfuncs import (
    Axis, dual_axis, gaussian, grid_mesh, grid_nodes,
)
from anharm.operators import (
    EnvelopingElement, ZeroOperatorError, apply_P, apply_Q, apply_P_grid,
    fundamental_solution_abelian, fundamental_solution_group,
    operator_identity_residual, q_remap, symbol, transpose, weak_residuals,
)
from symbolic_oracle import derivative


def E(dim, *words, coefs=None):
    coefs = coefs if coefs is not None else [1.0] * len(words)
    return EnvelopingElement(dim, list(zip(coefs, words)))


# ── generator fields: apply_P on a one-letter word ───────────────────────────

def test_generator_abelian_is_minus_derivative():
    df = apply_P(E(1, (0,)),
                 lambda x: np.asarray(x[..., 0] ** 2, dtype=complex),
                 "M", None, np.array([1.0]), h_fd=1e-4)
    assert complex(df[0]) == pytest.approx(-2.0, abs=1e-8)


def test_generator_heisenberg_x_direction():
    # (exp(-tE_x))·(x,z,y) = (x-t, z-ty, y), so D f = -(∂_x + y ∂_z) f;
    # on f = z at (0, 0, 2) this gives -2
    df = apply_P(E(3, (0,)), lambda p: np.asarray(p[..., 1], dtype=complex),
                 "N", 3, np.array([0.0, 0.0, 2.0]), h_fd=1e-5)
    assert complex(df[0]) == pytest.approx(-2.0, abs=1e-8)


def test_generator_on_constant_is_zero():
    for group, m, dim in (("M", None, 2), ("N", 3, 3), ("S", 2, 2)):
        df = apply_P(E(dim, (0,)),
                     lambda p: np.ones(p.shape[:-1], dtype=complex),
                     group, m, np.zeros(dim))
        assert abs(complex(df[0])) < 1e-10


def test_generator_index_out_of_range():
    # E4 is a letter of the element but no generator of N, m = 3
    with pytest.raises(IndexError):
        apply_P(E(4, (3,)), lambda p: p[..., 0], "N", 3, np.zeros(3))


# ── apply_P / apply_Q ────────────────────────────────────────────────────────

def test_apply_scalar_term():
    f = gaussian([0.0, 0.0], [1.0, 1.0])
    pts = np.array([[0.1, 0.2], [0.5, -0.5]])
    got = apply_Q(E(2, (), coefs=[2.5]), f, pts)
    assert np.max(np.abs(got - 2.5 * f(pts))) < 1e-12


def test_apply_q_laplacian_matches_symbolic():
    f = gaussian([0.1, -0.2], [1.0, 1.5])
    lap = E(2, (0, 0), (1, 1))
    oracle_fn = [derivative(derivative(f, i), i) for i in range(2)]
    pts = np.random.default_rng(0).uniform(-1, 1, (10, 2))
    want = oracle_fn[0](pts) + oracle_fn[1](pts)
    got = apply_Q(lap, f, pts, h_fd=1e-4)
    assert np.max(np.abs(got - want)) < 1e-6


def test_apply_p_sublaplacian_matches_symbolic():
    # D_x = -(∂_x + y ∂_z), D_y = -∂_y; sublaplacian = D_x² + D_y²
    f = gaussian([0.1, 0.0, -0.2], [1.0, 1.2, 0.9])
    # coordinate order is (x, z, y)
    fx, fz, fy = (derivative(f, i) for i in range(3))
    fxx = derivative(fx, 0)
    fxz = derivative(fx, 1)
    fzz = derivative(fz, 1)
    fyy = derivative(fy, 2)

    def oracle(p):
        y = p[..., 2]
        return fxx(p) + 2 * y * fxz(p) + y * y * fzz(p) + fyy(p)

    pts = np.random.default_rng(1).uniform(-1, 1, (10, 3))
    got = apply_P(E(3, (0, 0), (2, 2)), f, "N", 3, pts, h_fd=1e-4)
    assert np.max(np.abs(got - oracle(pts))) < 1e-5


def test_apply_q_plane_wave_gives_symbol():
    rng = np.random.default_rng(2)
    u = E(3, (0, 1), (2,), (), coefs=[1.0, 2.0, -0.5])
    sym = symbol(u)
    for _ in range(20):
        lam = rng.uniform(-2, 2, 3)
        wave = lambda x: np.exp(1j * x @ lam)
        pts = rng.uniform(-1, 1, (1, 3))
        got = apply_Q(u, wave, pts, h_fd=1e-4)
        want = sym(lam) * wave(pts)
        assert np.max(np.abs(got - want)) < 1e-6 * max(1.0, abs(sym(lam)))


def test_apply_rejects_overlong_word():
    f = gaussian([0.0], [1.0])
    with pytest.raises(ValueError):
        apply_Q(E(1, (0,) * 5), f, np.array([[0.0]]))


def test_stencil_second_order_convergence():
    f = gaussian([0.2], [1.3])
    want = derivative(derivative(f, 0), 0)(np.array([0.4]))
    errs = []
    for h in (0.1, 0.05):
        got = apply_Q(E(1, (0, 0)), f, np.array([[0.4]]), h_fd=h)
        errs.append(abs(got[0] - want))
    assert errs[1] < 0.3 * errs[0]


def test_right_translation_commutation():
    # the defining invariance: P_u (f ∘ R_g) = (P_u f) ∘ R_g on N
    rng = np.random.default_rng(3)
    f = gaussian(rng.uniform(-0.3, 0.3, 3), [1.0, 1.2, 0.8])
    u = E(3, (0, 0), (2, 2), (1,))
    for _ in range(10):
        g = rng.uniform(-0.5, 0.5, 3)
        pts = rng.uniform(-0.8, 0.8, (5, 3))
        lhs = apply_P(u, lambda x: f(n_mul(3, x, g)), "N", 3, pts, h_fd=1e-3)
        rhs = apply_P(u, f, "N", 3, n_mul(3, pts, g), h_fd=1e-3)
        scale = max(np.max(np.abs(rhs)), 1e-300)
        assert np.max(np.abs(lhs - rhs)) < 1e-5 * scale


# ── symbols ──────────────────────────────────────────────────────────────────

def test_symbol_scalar():
    sym = symbol(E(1, (), coefs=[3.0 - 1.0j]))
    assert sym(np.array([2.0])) == pytest.approx(3.0 - 1.0j)


def test_symbol_second_derivative():
    sym = symbol(E(1, (0, 0)))
    for lam in (0.0, 1.0, 2.5):
        assert sym(np.array([lam])) == pytest.approx(-lam * lam)


def test_symbol_linearity():
    sym = symbol(E(1, (0, 0), (), coefs=[1.0, -1.0]))
    assert sym(np.array([2.0])) == pytest.approx(-5.0)


@pytest.mark.parametrize("u", [
    E(1, (0, 0), (), coefs=[1.0, -1.0]),
    E(2, (0, 1), (1, 1, 1), (0,), coefs=[2.0 - 1.0j, 0.5, -3.0]),
    E(3, (0, 1, 2), (1, 1), (2, 0, 2, 0), (), coefs=[1.0, -0.25j, 2.0, 1.5]),
], ids=["1d", "2d", "3d"])
def test_symbol_on_grid_equals_symbol_on_the_mesh(u):
    # per-axis factors broadcast in __call__'s order: the same bits, the
    # signs of zeros included, with no mesh
    sym = symbol(u)
    axes = [dual_axis(Axis(0.0, 3.0, p)) for p in (8, 16, 4)[:u.dim]]
    got = sym.on_grid([grid_nodes(a) for a in axes])
    assert got.tobytes() == sym(grid_mesh(axes)).tobytes()


def test_transpose_reverses_and_signs():
    u = E(2, (0, 1), (0,), coefs=[2.0, 1.0])
    t = transpose(u)
    assert t.terms == ((2.0 + 0j, (1, 0)), (-1.0 + 0j, (0,)))


def test_q_remap_heisenberg():
    # group (x, z, y) directions pair with M slots (u, v1, v2)
    u = E(3, (0,), (1,), (2,))
    got = q_remap(u, "K1", 3)
    assert tuple(w for _, w in got.terms) == ((2,), (0,), (1,))


# ── the operator identity ────────────────────────────────────────────────────

def _ext_points(rng, case, m, n):
    d_n = m * (m - 1) // 2
    dim = d_n if case == "K1" else d_n + m - 1
    k = d_n - (m - 1) if case == "K1" else m - 1
    return [(rng.uniform(-0.4, 0.4, dim), rng.uniform(-0.4, 0.4, k))
            for _ in range(n)]


def test_operator_identity_scalar_is_zero():
    rng = np.random.default_rng(4)
    f = gaussian(rng.uniform(-0.3, 0.3, 3), [1.0] * 3)
    r, s = operator_identity_residual(E(3, (), coefs=[2.0]), f, "K1", 3,
                                      _ext_points(rng, "K1", 3, 5))
    assert r < 1e-12 * s


@pytest.mark.parametrize("word", [(0,), (1,), (2,), (0, 0), (0, 1)])
def test_operator_identity_k1_words(word):
    rng = np.random.default_rng(5)
    f = gaussian(rng.uniform(-0.3, 0.3, 3), [1.0] * 3)
    r, s = operator_identity_residual(E(3, word), f, "K1", 3,
                                      _ext_points(rng, "K1", 3, 10))
    assert r < 1e-4 * s


def test_operator_identity_k1_sublaplacian():
    rng = np.random.default_rng(6)
    f = gaussian(rng.uniform(-0.3, 0.3, 3), [1.0] * 3)
    r, s = operator_identity_residual(E(3, (0, 0), (2, 2)), f, "K1", 3,
                                      _ext_points(rng, "K1", 3, 10))
    assert r < 1e-3 * s


@pytest.mark.parametrize("word", [(0,), (1,), (0, 1), (1, 1)])
def test_operator_identity_h_m2(word):
    rng = np.random.default_rng(7)
    f = gaussian(rng.uniform(-0.3, 0.3, 2), [1.0, 3.0])
    r, s = operator_identity_residual(E(2, word), f, "H", 2,
                                      _ext_points(rng, "H", 2, 10))
    assert r < 1e-4 * s


@pytest.mark.parametrize("case, m, u, f", [
    ("K1", 3, E(3, (0,), (0, 1), (2, 2)),
     gaussian([0.1, 0.0, -0.2], [1.0, 1.2, 0.9])),
    ("H", 2, E(2, (0, 0), (0, 1), coefs=[1.0, 0.5]),
     gaussian([0.1, -0.1], [1.0, 1.3])),
])
def test_operator_identity_batch_equals_one_point_calls(case, m, u, f):
    # P and Q each run once over all the points; no point may see another
    # point's shift or acting slots under broadcasting
    rng = np.random.default_rng(10)
    pts = _ext_points(rng, case, m, 10)
    r, s = operator_identity_residual(u, f, case, m, pts)
    one = [operator_identity_residual(u, f, case, m, [p]) for p in pts]
    assert r > 0
    assert r == max(ri for ri, _ in one)
    assert s == max(si for _, si in one)


def test_operator_identity_h_m3_a_direction():
    rng = np.random.default_rng(8)
    f = gaussian(rng.uniform(-0.3, 0.3, 5), [1.0] * 3 + [3.0] * 2)
    r, s = operator_identity_residual(E(5, (3,), (4, 4)), f, "H", 3,
                                      _ext_points(rng, "H", 3, 10))
    assert r < 1e-4 * s


def test_operator_identity_h_m3_n_direction_fails():
    # for m ≥ 3 the N-direction flows on S pick up ρ(shift)-dependent
    # coefficients, so no constant-coefficient Q matches; the residual is
    # genuinely large, which shows the check is not vacuous
    rng = np.random.default_rng(9)
    f = gaussian(rng.uniform(-0.3, 0.3, 5), [1.0] * 3 + [3.0] * 2)
    r, s = operator_identity_residual(E(5, (0,)), f, "H", 3,
                                      _ext_points(rng, "H", 3, 10))
    assert r > 1e-2 * s


# ── fundamental solutions ────────────────────────────────────────────────────

def test_abelian_solution_1d_closed_form_fine_grid():
    # (∂² − 1)E = δ has E = -½e^{-|x|}; the pointwise error is the dual-box
    # truncation tail 1/(πΛ), so a fine grid is needed for 1e-3
    u = E(1, (0, 0), (), coefs=[1.0, -1.0])
    sol = fundamental_solution_abelian(u, [Axis(0.0, 20.0, 4096)], 1e-8)
    x = grid_nodes(sol.values.axes[0])
    err = np.max(np.abs(sol.values.samples + 0.5 * np.exp(-np.abs(x))))
    assert err < 1e-3


def test_abelian_solution_identity_operator_is_delta():
    u = E(1, (), coefs=[1.0])
    sol = fundamental_solution_abelian(u, [Axis(0.0, 10.0, 256)], 1e-8)
    phi = gaussian([0.3], [1.4])
    r = weak_residuals(sol, u, "M", None, [phi])[0]
    assert r < 1e-6


def test_abelian_solution_epsilon_study_monotone():
    # symbol -λ²+1 vanishes on |λ| = 1; weak residual is monotone
    # non-increasing over the prescribed ε ladder on this grid
    u = E(1, (0, 0), (), coefs=[1.0, 1.0])
    phi = gaussian([0.2], [1.5])
    res = []
    for eps in (1e-2, 1e-4, 1e-6):
        sol = fundamental_solution_abelian(u, [Axis(0.0, 20.0, 1024)], eps)
        res.append(weak_residuals(sol, u, "M", None, [phi])[0])
    assert res[0] >= res[1] >= res[2]


def test_zero_operator_rejected():
    with pytest.raises(ZeroOperatorError):
        fundamental_solution_abelian(E(1, (), coefs=[0.0]),
                                     [Axis(0.0, 10.0, 64)])
    with pytest.raises(ZeroOperatorError):
        fundamental_solution_group(E(3, (), coefs=[0.0]), "N", 3,
                                   [Axis(0.0, 6.0, 16)] * 3)


def test_group_solution_1d_weak_residual():
    rng = np.random.default_rng(10)
    u = E(1, (0, 0), (), coefs=[1.0, -1.0])
    sol = fundamental_solution_group(u, "N", 2, [Axis(0.0, 20.0, 1024)], 1e-8)
    phis = [gaussian(rng.uniform(-0.5, 0.5, 1), rng.uniform(0.8, 2.0, 1))
            for _ in range(5)]
    assert max(weak_residuals(sol, u, "N", 2, phis)) < 1e-3


def test_group_solution_heisenberg_weak_residual():
    rng = np.random.default_rng(11)
    u = E(3, (0, 0), (2, 2), (), coefs=[1.0, 1.0, -1.0])
    phis = [gaussian(rng.uniform(-0.3, 0.3, 3), rng.uniform(1.0, 2.0, 3))
            for _ in range(5)]
    res = []
    for P in (16, 32):
        sol = fundamental_solution_group(u, "N", 3, [Axis(0.0, 6.0, P)] * 3, 1e-8)
        res.append(max(weak_residuals(sol, u, "N", 3, phis)))
    assert res[1] <= 5e-2
    assert res[1] <= res[0]


def test_group_solution_s_m2_weak_residual():
    rng = np.random.default_rng(12)
    u = E(2, (0, 0), (), coefs=[1.0, -1.0])
    sol = fundamental_solution_group(
        u, "S", 2, [Axis(0.0, 10.0, 32), Axis(0.0, 3.0, 32)], 1e-8)
    phis = [gaussian(rng.uniform(-0.2, 0.2, 2), [1.0, 3.0]) for _ in range(3)]
    assert max(weak_residuals(sol, u, "S", 2, phis)) < 1e-3


# the Γ twists written out again: w = z − x·y on N (m = 3), e^{−2t}·n on S
_TWIST_ORACLE = {
    ("N", 3): lambda g: g[..., 1] - g[..., 0] * g[..., 2],
    ("S", 2): lambda g: np.exp(-2.0 * g[..., 1]) * g[..., 0],
}


def _twisted_solution_oracle(u, group, m, axes, epsilon):
    """The semidiscrete inverse, summed directly: conj(P)/(|P|²+ε²) on the
    dual M grid, its tail axes inverted by dense DFT matrices into
    C[l, tail], then Σ_l C[l, tail(x)] e^{iλ_l w(x)} Δλ/(2π) per point."""
    ext = law(group, m).extension()
    perm = ext.m_order
    m_axes = [axes[p] for p in perm]
    dual = [dual_axis(a) for a in m_axes]
    P = symbol(q_remap(u, ext.name, m))(grid_mesh(dual))
    C = np.conj(P) / (np.abs(P) ** 2 + epsilon**2)
    for ax in range(1, len(axes)):
        dft = (np.exp(1j * np.outer(grid_nodes(m_axes[ax]),
                                    grid_nodes(dual[ax])))
               * dual[ax].step / (2 * np.pi))
        C = np.moveaxis(np.tensordot(C, dft, axes=([ax], [1])), -1, ax)
    w = _TWIST_ORACLE[group, m](grid_mesh(axes))
    tail = tuple(np.indices(w.shape)[p] for p in perm[1:])
    out = np.zeros(w.shape, dtype=complex)
    for l, lam in enumerate(grid_nodes(dual[0])):
        out += C[(l,) + tail] * np.exp(1j * lam * w)
    return out * dual[0].step / (2 * np.pi)


_SUBLAPLACIAN = E(3, (0, 0), (2, 2), (), coefs=[1.0, 1.0, -1.0])


@pytest.mark.parametrize("u, group, m, axes", [
    (_SUBLAPLACIAN, "N", 3, [Axis(0.0, 6.0, 16)] * 3),
    (_SUBLAPLACIAN, "N", 3, [Axis(0.0, 6.0, 32)] * 3),
    (E(3, (0, 1), (2,), (), coefs=[1.0, 0.5j, -1.0]), "N", 3,
     [Axis(0.3, 6.0, 16), Axis(-0.2, 5.0, 32), Axis(0.1, 4.0, 8)]),
    (E(2, (0, 0), (1,), (), coefs=[1.0, 0.5j, -1.0]), "S", 2,
     [Axis(0.0, 10.0, 32), Axis(0.0, 3.0, 32)]),
    (E(2, (0, 0), (), coefs=[1.0, -1.0]), "S", 2,
     [Axis(0.0, 10.0, 256), Axis(0.0, 3.0, 64)]),
], ids=["N3-16", "N3-32", "N3-off-center", "S2-32", "S2-256x64"])
def test_group_solution_twist_matches_direct_trig_sum(u, group, m, axes):
    want = _twisted_solution_oracle(u, group, m, axes, 1e-8)
    got = fundamental_solution_group(u, group, m, axes, 1e-8).values.samples
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_group_solution_s_m2_peak_memory():
    # the twist keeps O(grid) arrays; a grid × frequency phase array
    # (256 × 64 × 256 complex, 64 MB) made the peak about 490× the solution
    u = E(2, (0, 0), (), coefs=[1.0, -1.0])
    axes = [Axis(0.0, 10.0, 256), Axis(0.0, 3.0, 64)]
    tracemalloc.start()
    try:
        sol = fundamental_solution_group(u, "S", 2, axes, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * sol.values.samples.nbytes


def test_apply_p_grid_matches_pointwise():
    f = gaussian([0.1, 0.0, -0.1], [1.0, 1.2, 0.9])
    u = E(3, (0,), (2, 2))
    axes = [Axis(0.0, 2.0, 4)] * 3
    grid = apply_P_grid(u, f, "N", 3, axes, h_fd=1e-3)
    mesh = grid_mesh(axes).reshape(-1, 3)
    direct = apply_P(u, f, "N", 3, mesh, h_fd=1e-3)
    assert np.max(np.abs(grid.samples.ravel() - direct)) < 1e-12
