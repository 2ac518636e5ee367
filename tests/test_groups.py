"""Group arithmetic: oracles are dense matrix products/inverses."""

import numpy as np
import pytest

from anharm.groups import (
    GroupSpec, UnipotentElement, DiagonalElement, SolvableElement, LayerVector,
    ExtendedPoint, coords_to_matrix, matrix_to_coords, upper_indices,
    unipotent_mul, unipotent_inv, layer_decompose, layer_compose, conjugate,
    solvable_mul, solvable_inv, extended_mul, unipotent_identity,
    diagonal_identity, solvable_identity, extended_identity, n_mul, n_inv,
    s_mul, s_inv, rho_scale, rho_apply, diag_entries, element_to_json, element_from_json,
)


def rand_n(spec, rng):
    return UnipotentElement(spec, rng.uniform(-2, 2, spec.dim_n))


def rand_a(spec, rng):
    return DiagonalElement(spec, rng.uniform(-1, 1, spec.dim_a))


def rand_s(spec, rng):
    return SolvableElement(rand_n(spec, rng), rand_a(spec, rng))


def s_matrix(p):
    """Dense oracle: the actual upper-triangular matrix n·a in SL(m)."""
    return p.n_part.matrix() @ np.diag(p.a_part.entries())


def test_unipotent_mul_heisenberg_example():
    spec = GroupSpec(3)
    g = UnipotentElement(spec, [1.0, 0.0, 0.0])   # x=1 (n12)
    h = UnipotentElement(spec, [0.0, 0.0, 1.0])   # y=1 (n23)
    out = unipotent_mul(g, h)
    assert np.allclose(out.entries, [1.0, 1.0, 1.0], atol=1e-15)


def test_unipotent_mul_identity():
    spec = GroupSpec(4)
    rng = np.random.default_rng(0)
    g = rand_n(spec, rng)
    out = unipotent_mul(unipotent_identity(spec), g)
    assert np.array_equal(out.entries, g.entries)


def test_unipotent_mul_matches_dense_product():
    spec = GroupSpec(4)
    rng = np.random.default_rng(1)
    g, h = rand_n(spec, rng), rand_n(spec, rng)
    want = matrix_to_coords(4, g.matrix() @ h.matrix())
    assert np.allclose(unipotent_mul(g, h).entries, want, atol=1e-14)


def test_unipotent_inv_closed_form_m3():
    spec = GroupSpec(3)
    g = UnipotentElement(spec, [1.0, 3.0, 2.0])   # x=1, z=3, y=2
    out = unipotent_inv(g)
    assert np.allclose(out.entries, [-1.0, -1.0, -2.0], atol=1e-15)


def test_unipotent_inv_round_trip_m5():
    spec = GroupSpec(5)
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = rand_n(spec, rng)
        prod = unipotent_mul(g, unipotent_inv(g))
        assert np.max(np.abs(prod.entries)) < 1e-12
        # oracle: numpy linear inverse
        assert np.allclose(unipotent_inv(g).matrix(), np.linalg.inv(g.matrix()), atol=1e-12)


def test_layer_decompose_example():
    spec = GroupSpec(3)
    g = UnipotentElement(spec, [1.5, -2.0, 0.5])  # x, z, y
    v = layer_decompose(g)
    assert np.array_equal(v.layers[0], [1.5])
    assert np.array_equal(v.layers[1], [-2.0, 0.5])


def test_layer_compose_is_left_ordered_product():
    # ι₂(z,y)·ι₁(x) oracle
    spec = GroupSpec(3)
    x, z, y = 0.3, -1.2, 0.7
    i2 = coords_to_matrix(3, [0.0, z, y])
    i1 = coords_to_matrix(3, [x, 0.0, 0.0])
    want = matrix_to_coords(3, i2 @ i1)
    got = layer_compose(LayerVector(spec, (np.array([x]), np.array([z, y]))))
    assert np.allclose(got.entries, want, atol=1e-15)


def test_layer_round_trip_exact():
    spec = GroupSpec(4)
    rng = np.random.default_rng(3)
    g = rand_n(spec, rng)
    assert np.array_equal(layer_compose(layer_decompose(g)).entries, g.entries)


def test_layer_compose_rejects_bad_lengths():
    spec = GroupSpec(3)
    with pytest.raises(ValueError):
        LayerVector(spec, (np.array([1.0, 2.0]), np.array([0.0])))


def test_conjugate_diagonal_m2_example():
    spec = GroupSpec(2)
    a = DiagonalElement(spec, [np.log(2.0)])
    h = UnipotentElement(spec, [1.0])
    assert np.allclose(conjugate(a, h).entries, [4.0], atol=1e-12)


def test_conjugate_identity_leaves_fixed():
    spec = GroupSpec(3)
    rng = np.random.default_rng(4)
    h = rand_n(spec, rng)
    out = conjugate(unipotent_identity(spec), h)
    assert np.allclose(out.entries, h.entries, atol=1e-14)


def test_conjugate_diagonal_matches_dense_oracle():
    spec = GroupSpec(3)
    rng = np.random.default_rng(5)
    a, h = rand_a(spec, rng), rand_n(spec, rng)
    am = np.diag(a.entries())
    want = matrix_to_coords(3, am @ h.matrix() @ np.linalg.inv(am))
    assert np.allclose(conjugate(a, h).entries, want, atol=1e-12)


def test_diagonal_det_one():
    spec = GroupSpec(5)
    rng = np.random.default_rng(6)
    a = rand_a(spec, rng)
    assert abs(np.prod(a.entries()) - 1.0) < 1e-12


def test_solvable_mul_m2_example():
    spec = GroupSpec(2)
    p = SolvableElement(UnipotentElement(spec, [1.0]), DiagonalElement(spec, [np.log(2.0)]))
    q = SolvableElement(UnipotentElement(spec, [1.0]), DiagonalElement(spec, [0.0]))
    out = solvable_mul(p, q)
    assert np.allclose(out.n_part.entries, [5.0], atol=1e-12)
    assert np.allclose(out.a_part.log_coords, [np.log(2.0)], atol=1e-15)


def test_solvable_mul_matches_matrix_oracle():
    spec = GroupSpec(3)
    rng = np.random.default_rng(7)
    p, q = rand_s(spec, rng), rand_s(spec, rng)
    out = solvable_mul(p, q)
    assert np.allclose(s_matrix(out), s_matrix(p) @ s_matrix(q), atol=1e-12)


def test_solvable_inv_m2_example():
    spec = GroupSpec(2)
    p = SolvableElement(UnipotentElement(spec, [1.0]), DiagonalElement(spec, [np.log(2.0)]))
    out = solvable_inv(p)
    assert np.allclose(out.n_part.entries, [-0.25], atol=1e-12)
    assert np.allclose(np.exp(out.a_part.log_coords), [0.5], atol=1e-12)


def test_solvable_inv_round_trip():
    spec = GroupSpec(3)
    rng = np.random.default_rng(8)
    p = rand_s(spec, rng)
    e = solvable_mul(p, solvable_inv(p))
    assert np.max(np.abs(e.n_part.entries)) < 1e-12
    assert np.max(np.abs(e.a_part.log_coords)) < 1e-12


def test_extended_mul_h_m2_example():
    spec = GroupSpec(2)
    p = ExtendedPoint("H", SolvableElement(
        UnipotentElement(spec, [1.0]), DiagonalElement(spec, [np.log(2.0)])), [0.5])
    q = ExtendedPoint("H", solvable_identity(spec), [0.0])
    q = ExtendedPoint("H", SolvableElement(
        UnipotentElement(spec, [1.0]), DiagonalElement(spec, [0.0])), [0.0])
    out = extended_mul(p, q)
    assert np.allclose(out.base.n_part.entries, [5.0], atol=1e-12)
    assert np.allclose(out.base.a_part.log_coords, [np.log(2.0)], atol=1e-15)
    assert np.allclose(out.shift, [0.5], atol=1e-15)


def test_extended_mul_identity_and_case_checks():
    spec = GroupSpec(3)
    e = extended_mul(extended_identity("K1", spec), extended_identity("K1", spec))
    assert np.max(np.abs(e.base.entries)) == 0.0 and np.max(np.abs(e.shift)) == 0.0
    with pytest.raises(ValueError):
        extended_mul(extended_identity("K1", spec), extended_identity("H", spec))


def test_extended_mul_k1_associative():
    spec = GroupSpec(3)
    rng = np.random.default_rng(9)
    pts = [ExtendedPoint("K1", rand_n(spec, rng), rng.uniform(-1, 1, 1)) for _ in range(3)]
    p, q, r = pts
    lhs = extended_mul(extended_mul(p, q), r)
    rhs = extended_mul(p, extended_mul(q, r))
    assert np.allclose(lhs.base.entries, rhs.base.entries, atol=1e-12)
    assert np.allclose(lhs.shift, rhs.shift, atol=1e-15)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_batched_laws_associative_and_invertible(m):
    rng = np.random.default_rng(10 + m)
    k = 200
    x, y, z = (rng.uniform(-1, 1, (k, m * (m - 1) // 2)) for _ in range(3))
    lhs = n_mul(m, n_mul(m, x, y), z)
    rhs = n_mul(m, x, n_mul(m, y, z))
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))
    assert np.max(np.abs(n_mul(m, x, n_inv(m, x)))) < 1e-12

    d = m * (m - 1) // 2 + m - 1
    p, q, r = (rng.uniform(-1, 1, (k, d)) for _ in range(3))
    lhs = s_mul(m, s_mul(m, p, q), r)
    rhs = s_mul(m, p, s_mul(m, q, r))
    assert np.max(np.abs(lhs - rhs)) < 1e-11 * max(1.0, np.max(np.abs(lhs)))
    assert np.max(np.abs(s_mul(m, p, s_inv(m, p)))) < 1e-12


def test_rho_scale_matches_entry_ratios():
    m = 4
    rng = np.random.default_rng(20)
    t = rng.uniform(-1, 1, m - 1)
    a = diag_entries(t)
    want = np.array([a[i] / a[j] for (i, j) in upper_indices(m)])
    assert np.allclose(rho_scale(m, t), want, atol=1e-14)


# ── kernel oracles: the S law written as matrices ───────────────────────────

def _diag(m, t):
    """diag(e^{t_1}, …, e^{t_{m-1}}, e^{-Σt}) from its definition."""
    t = np.asarray(t, dtype=float)
    return np.diag(np.exp(np.append(t, -t.sum())))


def _s_matrix(m, p):
    """Stacked S coordinates (n, t) → the matrix n·a."""
    d = m * (m - 1) // 2
    return coords_to_matrix(m, p[:d]) @ _diag(m, p[d:])


def _s_coords(m, mat):
    """The matrix n·a → stacked S coordinates (n, t)."""
    a = np.diag(mat)
    return np.concatenate([matrix_to_coords(m, mat / a), np.log(a[:-1])])


def _max_rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_rho_matches_diagonal_conjugation(m):
    rng = np.random.default_rng(30 + m)
    d = m * (m - 1) // 2
    t = rng.uniform(-1, 1, (40, m - 1))
    x = rng.uniform(-2, 2, (40, d))
    want_x, want_scale = [], []
    for ti, xi in zip(t, x):
        D = _diag(m, ti)
        Dinv = np.linalg.inv(D)
        want_x.append(matrix_to_coords(m, D @ coords_to_matrix(m, xi) @ Dinv))
        # conjugating the all-ones unipotent reads off every a_i/a_j
        want_scale.append(matrix_to_coords(m, D @ coords_to_matrix(m, np.ones(d)) @ Dinv))
    assert _max_rel(rho_apply(m, t, x), np.array(want_x)) <= 1e-14
    assert _max_rel(rho_scale(m, t), np.array(want_scale)) <= 1e-14
    # one point of shape (m-1,), and a batch broadcast against it
    assert rho_scale(m, t[0]).shape == (d,)
    assert np.array_equal(rho_apply(m, t[0], x[:3]),
                          rho_scale(m, t[0]) * x[:3])


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_s_law_matches_matrix_products(m):
    rng = np.random.default_rng(40 + m)
    d = m * (m - 1) // 2
    p = np.concatenate([rng.uniform(-1, 1, (30, d)),
                        rng.uniform(-0.5, 0.5, (30, m - 1))], axis=-1)
    q = np.concatenate([rng.uniform(-1, 1, (30, d)),
                        rng.uniform(-0.5, 0.5, (30, m - 1))], axis=-1)
    want_mul = np.array([_s_coords(m, _s_matrix(m, a) @ _s_matrix(m, b))
                         for a, b in zip(p, q)])
    want_inv = np.array([_s_coords(m, np.linalg.inv(_s_matrix(m, a)))
                         for a in p])
    assert _max_rel(s_mul(m, p, q), want_mul) <= 1e-13
    assert _max_rel(s_inv(m, p), want_inv) <= 1e-13
    # broadcasting: one element against a stack, and a single pair
    assert _max_rel(s_mul(m, p[0], q[:, None, :])[:, 0], np.array(
        [_s_coords(m, _s_matrix(m, p[0]) @ _s_matrix(m, b)) for b in q])) <= 1e-13
    assert s_mul(m, p[0], q[0]).shape == (d + m - 1,)
    assert s_inv(m, p[:0]).shape == (0, d + m - 1)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_polynomial_n_law_matches_matrix_oracle(m):
    rng = np.random.default_rng(50 + m)
    d = m * (m - 1) // 2
    x, y = rng.uniform(-2, 2, (2, 60, d))
    X, Y = coords_to_matrix(m, x), coords_to_matrix(m, y)
    assert _max_rel(n_mul(m, x, y), matrix_to_coords(m, X @ Y)) <= 1e-13
    assert _max_rel(n_inv(m, x), matrix_to_coords(m, np.linalg.inv(X))) <= 1e-13


def _strided_view(rng, width, dim, k=4096):
    """A (k, dim) view of a (k, width) array, rows width·8 bytes apart; the
    array has width + dim columns when dim does not fit in width."""
    cols = width if dim < width else width + dim
    return rng.normal(scale=0.5, size=(k, cols))[:, :dim]


@pytest.mark.parametrize("width", [8, 12])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_laws_on_strided_views_equal_contiguous_copies(m, width):
    # numpy 2.4.6 under AVX-512 negates a 64-byte-strided input wrongly into
    # a non-contiguous output; width 8 gives such strides
    rng = np.random.default_rng(60 + m)
    d = m * (m - 1) // 2
    x, y = (_strided_view(rng, width, d) for _ in range(2))
    p, q = (_strided_view(rng, width, d + m - 1) for _ in range(2))
    t = _strided_view(rng, width, m - 1)
    runs = {
        "n_mul": (lambda a, b: n_mul(m, a, b), (x, y)),
        "n_inv": (lambda a: n_inv(m, a), (x,)),
        "s_mul": (lambda a, b: s_mul(m, a, b), (p, q)),
        "s_inv": (lambda a: s_inv(m, a), (p,)),
        "rho_scale": (lambda a: rho_scale(m, a), (t,)),
        # a broadcast t: the exponentials are taken once per distinct row
        "rho_scale_broadcast": (lambda a: rho_scale(m, a),
                                (np.broadcast_to(t[:1], t.shape),)),
    }
    for name, (law, args) in runs.items():
        assert not all(a.flags.c_contiguous for a in args)
        want = law(*(np.ascontiguousarray(a) for a in args))
        assert np.array_equal(law(*args), want), name
    out = _strided_view(rng, width, d)
    n_mul(m, x, y, out=out)
    assert np.array_equal(out, n_mul(m, x.copy(), y.copy()))
    assert np.max(np.abs(n_mul(m, x, n_inv(m, x)))) <= 1e-13
    assert np.max(np.abs(s_mul(m, p, s_inv(m, p)))) <= 1e-13


def test_json_round_trip():
    spec = GroupSpec(4)
    rng = np.random.default_rng(21)
    g = rand_n(spec, rng)
    back = element_from_json(element_to_json(g))
    assert np.allclose(back.entries, g.entries, atol=0)
    p = rand_s(spec, rng)
    back = element_from_json(element_to_json(p))
    assert np.allclose(back.n_part.entries, p.n_part.entries, atol=0)
    assert np.allclose(back.a_part.log_coords, p.a_part.log_coords, atol=0)


def test_json_entries_are_row_major():
    spec = GroupSpec(4)
    # column-major (layer) order: n12, n13, n23, n14, n24, n34
    g = UnipotentElement(spec, [12.0, 13.0, 23.0, 14.0, 24.0, 34.0])
    obj = element_to_json(g)
    assert obj["entries"] == [12.0, 13.0, 14.0, 23.0, 24.0, 34.0]


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(1)
    with pytest.raises(ValueError):
        unipotent_mul(unipotent_identity(GroupSpec(2)), unipotent_identity(GroupSpec(3)))
