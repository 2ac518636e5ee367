"""Group arithmetic: oracles are dense matrix products/inverses."""

import numpy as np
import pytest

from anharm import groups
from anharm.groups import (
    empty_columns, law, n_inv, n_mul, rho_apply, rho_scale, s_inv, s_mul,
    upper_indices,
)
from matrix_oracle import coords_to_matrix, diag_entries, matrix_to_coords


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


def _rand_s(m, rng):
    d = m * (m - 1) // 2
    return np.concatenate([rng.uniform(-2, 2, d), rng.uniform(-1, 1, m - 1)])


def test_unipotent_mul_heisenberg_example():
    # x=1 (n12) times y=1 (n23)
    assert np.allclose(n_mul(3, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]),
                       [1.0, 1.0, 1.0], atol=1e-15)


def test_unipotent_mul_identity():
    g = np.random.default_rng(0).uniform(-2, 2, 6)
    assert np.array_equal(n_mul(4, np.zeros(6), g), g)


def test_unipotent_mul_matches_dense_product():
    rng = np.random.default_rng(1)
    g, h = rng.uniform(-2, 2, (2, 6))
    want = matrix_to_coords(4, coords_to_matrix(4, g) @ coords_to_matrix(4, h))
    assert np.allclose(n_mul(4, g, h), want, atol=1e-14)


def test_unipotent_inv_closed_form_m3():
    # x=1, z=3, y=2
    assert np.allclose(n_inv(3, [1.0, 3.0, 2.0]), [-1.0, -1.0, -2.0],
                       atol=1e-15)


def test_unipotent_inv_round_trip_m5():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = rng.uniform(-2, 2, 10)
        assert np.max(np.abs(n_mul(5, g, n_inv(5, g)))) < 1e-12
        # oracle: numpy linear inverse
        assert np.allclose(coords_to_matrix(5, n_inv(5, g)),
                           np.linalg.inv(coords_to_matrix(5, g)), atol=1e-12)


def test_layer_decompose_example():
    # layer order: layer 1 is (n12), layer 2 is (n13, n23)
    assert upper_indices(3) == [(0, 1), (0, 2), (1, 2)]
    mat = coords_to_matrix(3, [1.5, -2.0, 0.5])
    assert (mat[0, 1], mat[0, 2], mat[1, 2]) == (1.5, -2.0, 0.5)


def test_layer_compose_is_left_ordered_product():
    # ι₂(z,y)·ι₁(x) carries each layer verbatim in layer coordinates
    x, z, y = 0.3, -1.2, 0.7
    want = matrix_to_coords(3, coords_to_matrix(3, [0.0, z, y])
                            @ coords_to_matrix(3, [x, 0.0, 0.0]))
    got = n_mul(3, [0.0, z, y], [x, 0.0, 0.0])
    assert np.allclose(got, want, atol=1e-15)
    assert np.array_equal(got, [x, z, y])


def test_layer_round_trip_exact():
    g = np.random.default_rng(3).uniform(-2, 2, 6)
    assert np.array_equal(matrix_to_coords(4, coords_to_matrix(4, g)), g)


def test_conjugate_diagonal_m2_example():
    # diag(2, 1/2) conjugates n12 = 1 to a1/a2 = 4
    assert np.allclose(rho_apply(2, [np.log(2.0)], [1.0]), [4.0], atol=1e-12)


def test_conjugate_identity_leaves_fixed():
    h = np.random.default_rng(4).uniform(-2, 2, 3)
    e = np.zeros(3)
    assert np.allclose(n_mul(3, n_mul(3, e, h), n_inv(3, e)), h, atol=1e-14)
    assert np.allclose(rho_apply(3, np.zeros(2), h), h, atol=1e-14)


def test_diagonal_det_one():
    t = np.random.default_rng(6).uniform(-1, 1, 4)
    assert abs(np.prod(diag_entries(t)) - 1.0) < 1e-12


def test_solvable_mul_m2_example():
    out = s_mul(2, [1.0, np.log(2.0)], [1.0, 0.0])
    assert np.allclose(out, [5.0, np.log(2.0)], atol=1e-12)


def test_solvable_mul_matches_matrix_oracle():
    rng = np.random.default_rng(7)
    p, q = _rand_s(3, rng), _rand_s(3, rng)
    assert np.allclose(_s_matrix(3, s_mul(3, p, q)),
                       _s_matrix(3, p) @ _s_matrix(3, q), atol=1e-12)


def test_solvable_inv_m2_example():
    out = s_inv(2, [1.0, np.log(2.0)])
    assert np.allclose(out[:1], [-0.25], atol=1e-12)
    assert np.allclose(np.exp(out[1:]), [0.5], atol=1e-12)


def test_solvable_inv_round_trip():
    p = _rand_s(3, np.random.default_rng(8))
    assert np.max(np.abs(s_mul(3, p, s_inv(3, p)))) < 1e-12


def test_extended_mul_h_m2_example():
    # ((1, log 2), 0.5)·((1, 0), 0) on H = S × R
    out = law("H", 2).mul([1.0, np.log(2.0), 0.5], [1.0, 0.0, 0.0])
    assert np.allclose(out, [5.0, np.log(2.0), 0.5], atol=1e-12)


def test_extended_mul_identity_and_case_checks():
    K1 = law("K1", 3)
    e = np.zeros(K1.dim)
    assert np.array_equal(K1.mul(e, e), e)
    assert np.array_equal(K1.inv(e), e)
    with pytest.raises(ValueError):
        law("K2", 3)


def test_extended_mul_k1_associative():
    K1 = law("K1", 3)
    p, q, r = np.random.default_rng(9).uniform(-1, 1, (3, K1.dim))
    lhs = K1.mul(K1.mul(p, q), r)
    rhs = K1.mul(p, K1.mul(q, r))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_law_slots_and_dimensions():
    # K1: acting layers 1..m-2 of N; H: the A part of S; M order puts the
    # top slots first and the acting slots, paired with the shift, last
    K1, H = law("K1", 4), law("H", 3)
    assert (K1.base.dim, K1.shift_dim, K1.m_order) == (6, 3, (3, 4, 5, 0, 1, 2))
    assert (H.base.dim, H.shift_dim, H.m_order) == (5, 2, (0, 1, 2, 3, 4))
    assert law("N", 3).extension() is law("K1", 3)
    assert law("S", 3).extension() is law("H", 3)
    assert np.array_equal(K1.iota([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0, 0, 0, 0])
    assert np.array_equal(H.iota([1.0, 2.0]), [0, 0, 0, 1.0, 2.0])
    assert law("N", 3).unimodular and law("K1", 3).unimodular
    assert not law("S", 3).unimodular and not law("H", 3).unimodular
    assert law("M", 3).unimodular


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_batched_laws_associative_and_invertible(m):
    rng = np.random.default_rng(10 + m)
    k = 200
    # ρ factors inflate S and H products, hence their looser tolerance
    for name, tol in [("N", 1e-12), ("S", 1e-11), ("K1", 1e-12),
                      ("H", 1e-11), ("M", 0.0)]:
        L = law(name, m)
        x, y, z = (rng.uniform(-1, 1, (k, L.dim)) for _ in range(3))
        lhs = L.mul(L.mul(x, y), z)
        rhs = L.mul(x, L.mul(y, z))
        assert np.max(np.abs(lhs - rhs)) <= tol * max(1.0, np.max(np.abs(lhs)))
        assert np.max(np.abs(L.mul(x, L.inv(x)))) < 1e-12


def test_rho_scale_matches_entry_ratios():
    m = 4
    rng = np.random.default_rng(20)
    t = rng.uniform(-1, 1, m - 1)
    a = diag_entries(t)
    want = np.array([a[i] / a[j] for (i, j) in upper_indices(m)])
    assert np.allclose(rho_scale(m, t), want, atol=1e-14)


# ── kernel oracles: the S law written as matrices ───────────────────────────

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


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_rho_on_row_major_t_equals_rho_on_columns(m):
    # a row-major t is read into contiguous columns first; the values are
    # those of the term-by-term sums on a column-laid-out t, bit for bit
    rng = np.random.default_rng(90 + m)
    d = m * (m - 1) // 2
    t = rng.uniform(-1, 1, (500, 1, m + 1))[..., :m - 1]
    x = rng.uniform(-2, 2, (500, 3, d))
    cols = empty_columns(t.shape)
    cols[...] = t
    assert rho_scale(m, t).tobytes() == rho_scale(m, cols).tobytes()
    assert np.array_equal(rho_apply(m, t, x), rho_apply(m, cols, x))


# ── quotients ────────────────────────────────────────────────────────────────

@pytest.mark.parametrize("width", [8, 12])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("name", ["N", "S", "M", "K1.c_law", "H.c_law"])
def test_quotients_equal_products_with_inverses(name, m, width):
    # "K1.c_law": the law of K1's commutative picture (M), "H.c_law" H's (T)
    rng = np.random.default_rng(70 + m)
    case, _, attr = name.partition(".")
    L = getattr(law(case, m), attr) if attr else law(case, m)
    pairs = [  # (y, x): broadcast stacks, one element, strided views
        (rng.uniform(-1, 1, (6, 1, L.dim)), rng.uniform(-1, 1, (1, 5, L.dim))),
        (rng.uniform(-1, 1, L.dim), rng.uniform(-1, 1, (7, L.dim))),
        (_strided_view(rng, width, L.dim), _strided_view(rng, width, L.dim)),
    ]
    for y, x in pairs:
        quotients = [(L.ldiv(y, x), L.mul(L.inv(y), x))]
        if L.rdiv is not None:  # S has no x·y⁻¹
            quotients.append((L.rdiv(x, y), L.mul(x, L.inv(y))))
        for got, want in quotients:
            assert got.shape == want.shape
            assert _max_rel(got, want) <= 1e-13
    if L.split is None:
        return
    # S and T also divide by a node block, the N-block's columns on the
    # left and the A-block's on the right: np.asarray of the quotient is
    # the dense quotient by the block's dense values, bit for bit, with an
    # A-block of one node and of many, fresh and again from the block kept
    # on the node block; T's x·y⁻¹ is also (n_x·n_y⁻¹, t_x − t_y) of the N
    # law and M's subtraction, bit for bit
    k = L.split
    x = rng.uniform(-1, 1, (1, 1, 5, L.dim))
    yn = rng.uniform(-1, 1, (6, 1, 1, k))
    divs = {"ldiv": L.ldiv}
    if L.rdiv is not None:
        divs["rdiv"] = lambda y, x: L.rdiv(x, y)
    for b_a in (1, 4):
        ya = rng.uniform(-1, 1, (1, b_a, 1, L.dim - k))
        y = _node_block(yn, ya)
        dense = np.asarray(y).copy()
        for name, div in divs.items():
            want = div(dense, x)
            if name == "rdiv":
                formula = np.concatenate(
                    [n_mul(m, x[..., :k], n_inv(m, dense[..., :k])),
                     x[..., k:] - dense[..., k:]], axis=-1)
                assert want.tobytes() == formula.tobytes()
            block = div(y, x)
            assert isinstance(block, groups._Bilinear)
            for got in (block, div(y, x)):
                assert got is block and got.shape == want.shape
                assert np.asarray(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["N", "S"])
def test_quotients_apply_the_law_through_n_mul(monkeypatch, name):
    # a wrapper on groups.n_mul, as perfbench installs, sees each quotient
    calls, real = [], groups.n_mul

    def spy(m, x, y, out=None):
        calls.append(np.broadcast_shapes(np.shape(x), np.shape(y)))
        return real(m, x, y, out)

    monkeypatch.setattr(groups, "n_mul", spy)
    rng = np.random.default_rng(75)
    L = law(name, 3)
    y, x = rng.uniform(-1, 1, (6, 1, L.dim)), rng.uniform(-1, 1, (1, 5, L.dim))
    L.ldiv(y, x)
    if name == "N":  # S divides on the left only
        L.rdiv(x, y)
    assert calls == [(6, 5, 3)] * (2 if name == "N" else 1)


def _node_block(yn, ya):
    """The node block of an N-block (b_N, 1, 1, d) and an A-block
    (1, b_A, 1, m − 1), as the direct engines walk S and T."""
    return groups._Bilinear.of_columns((False, True, False), yn, ya)


def _dense_node_block(nodes):
    """The node block of nodes (b, 1, dim), as the direct engines walk N
    and M: the nodes on the left, the points on the right."""
    return groups._Bilinear.of_columns((False, True), nodes)


def _random_node_block(rng, m, b_n, b_a):
    """A node block of uniform values, its buffers laid out as the direct
    engines' are."""
    L = law("S", m)
    yn = empty_columns((b_n, 1, 1, L.split))
    ya = empty_columns((1, b_a, 1, L.dim - L.split))
    yn[...] = rng.uniform(-2, 2, yn.shape)
    ya[...] = rng.uniform(-1, 1, ya.shape)
    return _node_block(yn, ya)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_product_quotient_materializes_the_dense_quotient(m):
    # the ldiv of S and of T (H's c_law) by a node block gives y⁻¹x in
    # product form; np.asarray makes it dense with the arithmetic of the
    # dense quotient, bit for bit, when fresh and when the node block's
    # buffers are refilled and the block kept on it with them
    rng = np.random.default_rng(90 + m)
    for L in (law("S", m), law("H", m).c_law):
        x = rng.uniform(-1, 1, (1, 5, L.dim))
        y, block = _random_node_block(rng, m, 6, 4), None
        for _ in range(2):
            want = L.ldiv(np.asarray(y).copy(), x)
            kept = L.ldiv(y, x)
            assert block is None or kept is block
            block = kept
            assert isinstance(block, groups._Bilinear)
            assert block.shape == want.shape
            assert np.asarray(block).tobytes() == want.tobytes()
            assert L.ldiv(y, x).shape == want.shape
            _refill(rng, y.arrays)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_product_quotient_exponent_and_columns(m):
    # what a TestFunction reads from the block, and from H's ι-composition
    # of it, against the same sums on the dense values; the exponent is
    # bounded below at _EXP_FLOOR
    rng = np.random.default_rng(95 + m)
    L = law("S", m)
    x = rng.uniform(-1, 1, (1, 3, L.dim))
    u = rng.uniform(-0.5, 0.5, (1, 3, m - 1))
    block = L.ldiv(_random_node_block(rng, m, 4, 8), x)
    for q, dense in ((block, np.asarray(block).copy()),
                     (groups._h_compose(m, u, block),
                      groups._h_compose(m, u, np.asarray(block)))):
        mu = rng.uniform(-0.5, 0.5, L.dim)
        hw = -0.5 * rng.uniform(0.5, 2.0, L.dim)
        sq = np.sum(hw * (dense - mu) ** 2, axis=-1)
        # the second scale floors about half the values
        for hw in (hw, hw * (groups._EXP_FLOOR / np.median(sq))):
            want = np.sum(hw * (dense - mu) ** 2, axis=-1)
            got = q.exponent(hw, mu)
            assert got.shape == want.shape
            assert np.all(got >= groups._EXP_FLOOR)
            above = want > groups._EXP_FLOOR + 1.0
            assert above.any()
            assert np.all(got[~above] <= groups._EXP_FLOOR + 1.0)
            scale = np.max(np.abs(hw)) * np.max((np.abs(dense) + 1.0) ** 2)
            assert np.max(np.abs(got - want)[above]) <= 1e-14 * scale
            first = got.copy()  # the next call refills the same buffer
            again = q.exponent(hw, mu)
            assert np.shares_memory(again, got)
            assert np.array_equal(again, first)
        for i in range(L.dim):
            col = np.broadcast_to(q.centered(i, mu[i]), want.shape)
            assert _max_rel(col, dense[..., i] - mu[i]) <= 1e-15


def _filled(rng, shape):
    """A buffer laid out by empty_columns, filled with uniform values."""
    out = empty_columns(shape)
    out[...] = rng.uniform(-1, 1, shape)
    return out


def _refill(rng, arrays):
    """New values written into the arrays, which stay the same objects."""
    for a in arrays:
        a[...] = rng.uniform(-1, 1, a.shape)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("name", ["N.rdiv", "M.ldiv", "M.rdiv", "T.ldiv",
                                  "T.rdiv"])
def test_bilinear_quotients_materialize_the_dense_quotient(name, m):
    # by a node block the quotients of N (rdiv), M (K1's c_law) and T (H's
    # c_law) come as a block kept on it, whose np.asarray is the dense
    # quotient's bytes, fresh and when the engines' node buffers are
    # refilled and the kept block with them
    rng = np.random.default_rng(100 + m)
    case, div = name.split(".")
    L = {"N": law("N", m), "M": law("K1", m).c_law,
         "T": law("H", m).c_law}[case]
    if L.split is None:
        x, nodes = _filled(rng, (1, 5, L.dim)), (_filled(rng, (6, 1, L.dim)),)
        y = _dense_node_block(*nodes)
    else:
        x = _filled(rng, (1, 1, 5, L.dim))
        nodes = (_filled(rng, (6, 1, 1, L.split)),
                 _filled(rng, (1, 4, 1, L.dim - L.split)))
        y = _node_block(*nodes)
    block = None
    for _ in range(2):
        dense_y = np.asarray(y).copy()
        dense = (L.ldiv(dense_y, x) if div == "ldiv" else L.rdiv(x, dense_y))
        got = L.ldiv(y, x) if div == "ldiv" else L.rdiv(x, y)
        assert block is None or got is block
        block = got
        assert isinstance(block, groups._Bilinear)
        assert block.shape == dense.shape
        assert np.asarray(block).tobytes() == np.ascontiguousarray(
            dense).tobytes()
        _refill(rng, nodes)
    # N divides on the left densely, through n_mul, into one kept buffer
    if case == "N":
        q = L.ldiv(y, x)
        assert isinstance(q, np.ndarray) and L.ldiv(y, x) is q
        assert np.array_equal(q, L.ldiv(nodes[0], x))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("name", ["N.ldiv", "N.rdiv", "M.ldiv", "M.rdiv",
                                  "S.ldiv", "T.ldiv", "T.rdiv"])
def test_node_block_quotients_are_kept_on_the_block(name, m):
    # a node block in, a block kept on it out: a second quotient by the
    # same node block is the kept object (on N's ldiv the same dense
    # buffer), and once the node buffers are refilled np.asarray of it is
    # the dense quotient of the new values, bit for bit; arrays in, a new
    # array out
    rng = np.random.default_rng(120 + m)
    case, div = name.split(".")
    L = {"N": law("N", m), "M": law("K1", m).c_law, "S": law("S", m),
         "T": law("H", m).c_law}[case]
    if L.split is None:
        x, nodes = _filled(rng, (1, 5, L.dim)), (_filled(rng, (6, 1, L.dim)),)
        y = _dense_node_block(*nodes)
    else:
        x = _filled(rng, (1, 1, 5, L.dim))
        nodes = (_filled(rng, (6, 1, 1, L.split)),
                 _filled(rng, (1, 4, 1, L.dim - L.split)))
        y = _node_block(*nodes)

    def quotient(y):
        return L.ldiv(y, x) if div == "ldiv" else L.rdiv(x, y)

    q = quotient(y)
    assert isinstance(q, np.ndarray) == (name == "N.ldiv")
    for _ in range(2):
        _refill(rng, nodes)
        dense = quotient(np.asarray(y).copy())
        assert isinstance(dense, np.ndarray) and dense is not q
        assert quotient(y) is q
        assert np.asarray(q).tobytes() == np.ascontiguousarray(
            dense).tobytes()


def _assert_exponent_and_columns(rng, q, dense):
    """q.exponent against Σ hw (x − μ)² on the dense values x, at a scale
    that floors about half of them at _EXP_FLOOR, and q.centered against
    x_i − μ_i."""
    mu = rng.uniform(-0.5, 0.5, dense.shape[-1])
    hw = -0.5 * rng.uniform(0.5, 2.0, dense.shape[-1])
    sq = np.sum(hw * (dense - mu) ** 2, axis=-1)
    for hw in (hw, hw * (groups._EXP_FLOOR / np.median(sq))):
        want = np.sum(hw * (dense - mu) ** 2, axis=-1)
        got = q.exponent(hw, mu)
        assert got.shape == want.shape
        assert np.all(got >= groups._EXP_FLOOR)
        above = want > groups._EXP_FLOOR + 1.0
        assert above.any()
        assert np.all(got[~above] <= groups._EXP_FLOOR + 1.0)
        scale = np.max(np.abs(hw)) * np.max((np.abs(dense) + 1.0) ** 2)
        assert np.max(np.abs(got - want)[above]) <= 1e-14 * scale
    for i in range(dense.shape[-1]):
        col = np.broadcast_to(q.centered(i, mu[i]), want.shape)
        assert _max_rel(col, dense[..., i] - mu[i]) <= 1e-14


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_bilinear_blocks_exponent_and_columns(m):
    # the blocks the ∗_c and K1 group sides read, and their compositions
    # on K1 and H (an array shift, and a shift taken from the block), against
    # the same sums on the dense values
    rng = np.random.default_rng(110 + m)
    K1, H = law("K1", m), law("H", m)
    x = _filled(rng, (1, 5, K1.base.dim))
    y = _dense_node_block(_filled(rng, (6, 1, K1.base.dim)))
    s = rng.uniform(-0.5, 0.5, (1, 5, K1.shift_dim))
    n = K1.base.rdiv(x, y)
    c = K1.c_law.ldiv(y, x)
    u = c.take(K1.acting)
    xt = _filled(rng, (1, 1, 5, H.base.dim))
    w = _node_block(_filled(rng, (6, 1, 1, H.base.split)),
                    _filled(rng, (1, 4, 1, m - 1)))
    t = H.c_law.rdiv(xt, w)
    shift = w.take(H.acting)
    # H's ∗_c side with the nodes on φ: T's ldiv, whose acting slots are
    # the shift, a block of one term on each side
    tl = H.c_law.ldiv(w, xt)
    tu, tb = tl.take(H.acting), tl.replaced(H.acting, xt[..., H.acting])
    cases = [(n, np.asarray(n).copy()), (c, np.asarray(c).copy()),
             (t, np.asarray(t).copy()), (tl, np.asarray(tl).copy()),
             (K1.compose(s, n), K1.compose(s, np.asarray(n))),
             (K1.compose(u, c), K1.compose(np.asarray(u), np.asarray(c))),
             (H.compose(shift, w),
              H.compose(np.asarray(shift), np.asarray(w))),
             (H.compose(tu, tb), H.compose(np.asarray(tu), np.asarray(tb)))]
    for q, dense in cases:
        _assert_exponent_and_columns(rng, q, dense)


def _inv_formula(m, x):
    """n_inv as the polynomial inverse is written: (x⁻¹)_ij = −x_ij −
    Σ_{i<l<j} x_il (x⁻¹)_lj, each column's rows from j−1 down to 0."""
    idx = {ij: k for k, ij in enumerate(upper_indices(m))}
    out = np.empty(x.shape)
    for k in range(len(idx) - 1, -1, -1):
        i, j = upper_indices(m)[k]
        col = np.multiply(x[..., k], -1.0)
        for l in range(i + 1, j):
            col -= x[..., idx[i, l]] * out[..., idx[l, j]]
        out[..., k] = col
    return out


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_inverses_equal_their_formulas_bit_for_bit(m):
    # the quotient kernels share n_inv's code; n_inv and s_inv keep every
    # bit, the sign of a zero included
    rng = np.random.default_rng(80 + m)
    d = m * (m - 1) // 2
    p = rng.uniform(-1, 1, (300, d + m - 1))
    p[::3] = 0.0
    p[1::3, ::2] = -0.0
    n, t = p[:, :d], p[:, d:]
    assert n_inv(m, n).tobytes() == _inv_formula(m, n).tobytes()
    neg_t = np.multiply(t, -1.0)
    want = np.concatenate([rho_apply(m, neg_t, _inv_formula(m, n)), neg_t],
                          axis=-1)
    assert np.ascontiguousarray(s_inv(m, p)).tobytes() == want.tobytes()


def test_spec_validation():
    with pytest.raises(ValueError):
        law("N", 1)
