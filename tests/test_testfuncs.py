import math
import tracemalloc

import numpy as np
import pytest

from anharm import testfuncs
from anharm.groups import _Bilinear
from anharm.testfuncs import (
    TestFunction, Axis, GridFunction, gaussian, grid_nodes, grid_mesh,
    sample, quadrature, dual_axis, export_csv,
)
from symbolic_oracle import derivative


def test_evaluate_unit_gaussian():
    f = gaussian([0.0], 1.0)
    assert f(np.array([0.0])) == pytest.approx(1.0)
    assert f(np.array([1.0])) == pytest.approx(math.exp(-0.5))


def test_evaluate_empty_is_zero():
    f = TestFunction(2, ())
    assert f(np.array([0.3, -1.0])) == 0.0


def test_evaluate_dimension_mismatch():
    f = gaussian([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        f(np.array([1.0]))


def test_poly_gaussian_and_derivative_oracle():
    f = TestFunction(2, ((2.0, [1, 0], [0.5, -0.5], [1.0, 2.0]),))
    x = np.array([0.9, 0.1])
    want = 2.0 * (x[0] - 0.5) * math.exp(-0.5 * ((x[0] - 0.5) ** 2 + 2 * (x[1] + 0.5) ** 2))
    assert f(x) == pytest.approx(want, rel=1e-14)
    # derivative matches central differences
    h = 1e-5
    for ax in range(2):
        e = np.zeros(2)
        e[ax] = h
        fd = (f(x + e) - f(x - e)) / (2 * h)
        assert derivative(f, ax)(x) == pytest.approx(fd, rel=1e-8, abs=1e-10)


def _naive(f, x):
    """Term-by-term evaluation, one point at a time, in Python floats."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1], dtype=complex)
    for idx in np.ndindex(*x.shape[:-1]):
        pt = [float(v) for v in x[idx]]
        total = 0j
        for c, alpha, mu, w in f.terms:
            d = [p - float(u) for p, u in zip(pt, mu)]
            q = sum(float(wi) * di * di for wi, di in zip(w, d))
            mono = math.prod(di ** int(a) for di, a in zip(d, alpha))
            total += c * mono * math.exp(-0.5 * q)
        out[idx] = total
    return out


def _multi_term(rng, dim, nterms=3):
    return TestFunction(dim, tuple(
        (complex(*rng.normal(size=2)), rng.integers(0, 4, dim),
         rng.uniform(-0.5, 0.5, dim), rng.uniform(0.4, 2.0, dim))
        for _ in range(nterms)))


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_evaluate_matches_naive_terms(dim):
    rng = np.random.default_rng(50 + dim)
    f = _multi_term(rng, dim)
    assert any(np.any(a) for _, a, _, _ in f.terms)
    for shape in [(60,), (4, 3), ()]:
        x = rng.uniform(-2.5, 2.5, shape + (dim,))
        got, want = f(x), _naive(f, x)
        assert isinstance(got, np.ndarray) and got.shape == shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    empty = f(np.empty((0, dim)))
    assert empty.shape == (0,) and empty.dtype == complex


@pytest.mark.parametrize("dim", [1, 3, 5])
def test_real_function_evaluates_to_float(dim):
    # real coefficients give float values, as on_grid does
    rng = np.random.default_rng(60 + dim)
    f = TestFunction(dim, tuple((c.real, a, mu, w) for c, a, mu, w in
                                _multi_term(rng, dim).terms))
    assert f.is_real
    x = rng.uniform(-2.5, 2.5, (40, dim))
    got, want = f(x), _naive(f, x)
    assert got.dtype == float and f(np.empty((0, dim))).dtype == float
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("shapes", [
    [(40, 5)],
    [(8, 1, 3), (1, 6, 2)],
    [(1, 1, 2), (5, 1, 1), (1, 4, 2)],
    [(3, 1, 1, 3), (1, 1, 4, 2)],
    [(3,), (2,)],
], ids=["one-block", "N-by-A", "three-blocks", "size-1-axes", "one-point"])
def test_on_blocks_equals_call_on_the_concatenation(shapes):
    # coordinate blocks whose leading axes broadcast, side by side as one
    # node block (the last block's axes on the right, as the A-block of a
    # direct engine's walk): a TestFunction reads the block through its
    # exponent, and its values are those at np.asarray of the block
    rng = np.random.default_rng(90)
    g = gaussian(rng.uniform(-0.5, 0.5, 5), rng.uniform(0.5, 2.0, 5))
    fs = [g, derivative(derivative(derivative(g, 1), 1), 3),
          _multi_term(rng, 5)]
    assert len(fs[1].terms) > 1 and any(np.any(a) for _, a, _, _ in fs[1].terms)
    assert not fs[2].is_real
    blocks = [rng.uniform(-2.5, 2.5, s) for s in shapes]
    lead = np.broadcast_shapes(*(b.shape[:-1] for b in blocks))
    last = (1,) * len(lead) + blocks[-1].shape[:-1]
    right = tuple(n > 1 for n in last[len(last) - len(lead):])
    for f in fs:
        block = _Bilinear.of_columns(right, *blocks)
        got, want = f(block), f(np.asarray(block))
        assert got.dtype == want.dtype and got.shape == want.shape == lead
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_evaluate_single_point_gives_zero_dim_array():
    f = _multi_term(np.random.default_rng(3), 3)
    x = np.array([0.2, -0.4, 0.7])
    out = f(x)
    assert out.shape == () and complex(out) == pytest.approx(complex(_naive(f, x)), rel=1e-14)


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis(0.0, 1.0, 48)       # not a power of two
    with pytest.raises(ValueError):
        Axis(0.0, -1.0, 64)


def test_dual_axis_relation():
    a = Axis(0.7, 5.0, 64)
    d = dual_axis(a)
    # P · h · Δλ = 2π exactly
    assert a.points * a.step * d.step == pytest.approx(2 * np.pi, rel=1e-15)
    lam = grid_nodes(d)
    assert lam[0] == pytest.approx(-np.pi / a.step)


def test_sample_peak_at_center():
    f = gaussian([0.0], 1.0)
    gf = sample(f, [Axis(0.0, 10.0, 256)])
    nodes = grid_nodes(gf.axes[0])
    assert abs(nodes[np.argmax(np.abs(gf.samples))]) < gf.axes[0].step


def test_gaussian_mass():
    f = gaussian([0.0], 1.0)
    ax = Axis(0.0, 10.0, 256)
    total = quadrature(sample(f, [ax]), [ax])
    assert total.real == pytest.approx(math.sqrt(2 * math.pi), abs=1e-10)
    assert total.imag == 0.0


def test_quadrature_closed_forms():
    # ∫ e^{-x²} dx = √π  (width w = 2)
    ax = Axis(0.0, 10.0, 256)
    got = quadrature(gaussian([0.0], 2.0), [ax])
    assert got.real == pytest.approx(math.sqrt(math.pi), abs=1e-10)
    # 3-D product: π^{3/2}
    axes = [Axis(0.0, 8.0, 64)] * 3
    got = quadrature(gaussian([0.0, 0.0, 0.0], 2.0), axes)
    assert got.real == pytest.approx(math.pi ** 1.5, abs=1e-8)
    assert quadrature(TestFunction(3, ()), axes) == 0.0


def test_quadrature_translation_invariance():
    axes = [Axis(0.0, 10.0, 128)] * 2
    f = gaussian([0.0, 0.0], 1.0)
    base = quadrature(f, axes)
    moved = quadrature(gaussian([2.5, -3.0], 1.0), axes)
    assert abs(moved - base) / abs(base) < 1e-8


def test_sample_then_sum_equals_quadrature():
    axes = (Axis(0.3, 6.0, 32), Axis(-0.2, 5.0, 16))
    f = gaussian([0.3, -0.2], [1.0, 1.3])
    gf = sample(f, axes)
    direct = quadrature(f, axes)
    summed = complex(np.sum(gf.samples.ravel(order="C"))) * gf.cell
    assert summed == direct


def test_quadrature_of_a_test_function_builds_no_mesh(monkeypatch):
    # a TestFunction is summed from on_grid: its float samples, half a
    # complex sample array, set the peak (through the mesh it was 4.03)
    axes = [Axis(0.0, 8.0, 64)] * 3
    f = gaussian([0.1, -0.2, 0.0], [2.0, 1.5, 1.0])
    cell = float(np.prod([a.step for a in axes]))
    want = complex(np.sum(f(grid_mesh(axes)))) * cell

    def no_mesh(axes):
        raise AssertionError("quadrature built a mesh")

    monkeypatch.setattr(testfuncs, "grid_mesh", no_mesh)
    tracemalloc.start()
    try:
        got = quadrature(f, axes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * 16 * 64 ** 3, peak / (16 * 64 ** 3)
    assert abs(got - want) <= 1e-14 * abs(want)


def test_csv_export(tmp_path):
    axes = (Axis(0.0, 1.0, 4),)
    gf = sample(gaussian([0.0], 1.0), axes)
    p = tmp_path / "dump.csv"
    export_csv(gf, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "x0,re,im"
    assert len(lines) == 5
    x0, re, im = map(float, lines[1].split(","))
    assert x0 == pytest.approx(-1.0)
    assert re == pytest.approx(math.exp(-0.5))
    assert im == 0.0


# ── the column mesh and the CSV writer against their old formulas ───────────

@pytest.mark.parametrize("axes", [
    (Axis(0.3, 2.0, 8),),
    (Axis(0.0, 1.0, 4), Axis(-0.7, 3.0, 16)),
    (Axis(0.1, 2.0, 4), Axis(0.0, 1.0, 2), Axis(5.0, 0.5, 8), Axis(0.0, 6.0, 4)),
], ids=["1d", "2d", "4d"])
def test_grid_mesh_equals_stacked_meshgrid_with_contiguous_columns(axes):
    mesh = grid_mesh(axes)
    want = np.stack(np.meshgrid(*[grid_nodes(a) for a in axes],
                                indexing="ij"), axis=-1)
    assert mesh.shape == want.shape
    assert mesh.tobytes() == want.tobytes()
    for i in range(len(axes)):
        assert mesh[..., i].flags.c_contiguous
    flat = mesh.reshape(-1, len(axes))
    assert np.shares_memory(flat, mesh)
    assert np.array_equal(flat, want.reshape(-1, len(axes)))


def _grid_axes(rng, dim):
    """Axes of 2 to 16 points with their own centers and half-widths."""
    return [Axis(rng.uniform(-0.5, 0.5), rng.uniform(2.0, 4.0),
                 int(2 ** rng.integers(1, 5 if dim < 4 else 4)))
            for _ in range(dim)]


@pytest.mark.parametrize("coefs, dtype", [
    ([1.5, -0.7, 0.3], float),
    ([1.5, -0.7 + 0.2j, 0.3], complex),
], ids=["real", "one-complex"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_on_grid_matches_call_on_the_mesh(dim, coefs, dtype):
    rng = np.random.default_rng(70 + dim)
    f = TestFunction(dim, tuple(
        (c, rng.integers(0, 4, dim), rng.uniform(-0.5, 0.5, dim),
         rng.uniform(0.4, 2.0, dim)) for c in coefs))
    assert any(np.any(a) for _, a, _, _ in f.terms)
    assert f.is_real == (dtype is float)
    axes = _grid_axes(rng, dim)
    got, want = f.on_grid(axes), f(grid_mesh(axes))
    assert got.dtype == dtype and got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert sample(f, axes).samples.tobytes() == got.astype(complex).tobytes()


def test_on_grid_of_one_term_and_of_none():
    axes = [Axis(0.0, 3.0, 8), Axis(0.2, 2.0, 4)]
    f = gaussian([0.1, -0.2], [1.0, 1.5], coef=2.0)
    got = f.on_grid(axes)
    assert got.dtype == float
    want = f(grid_mesh(axes))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    empty = TestFunction(2, ()).on_grid(axes)
    assert empty.shape == (8, 4) and not np.any(empty)
    with pytest.raises(ValueError):
        f.on_grid(axes[:1])


def _per_row_repr_csv(gf, path):
    """The CSV as one repr per coordinate of each mesh row."""
    mesh = np.stack(np.meshgrid(*[grid_nodes(a) for a in gf.axes],
                                indexing="ij"), axis=-1)
    mesh = mesh.reshape(-1, len(gf.axes))
    with open(path, "w") as fh:
        cols = [f"x{i}" for i in range(len(gf.axes))] + ["re", "im"]
        fh.write(",".join(cols) + "\n")
        for row, v in zip(mesh, gf.samples.ravel(order="C")):
            coords = ",".join(repr(float(c)) for c in row)
            fh.write(f"{coords},{float(v.real)!r},{float(v.imag)!r}\n")


@pytest.mark.parametrize("axes", [
    (Axis(0.0, 1.0, 8),),
    (Axis(0.3, 2.0, 4), Axis(-1.7, 0.25, 8)),
    (Axis(1e-3, 3.0, 4), Axis(0.0, 6.0, 8), Axis(-2.5, 1.0, 2)),
], ids=["1d", "2d", "3d"])
def test_export_csv_equals_per_row_repr(tmp_path, axes):
    rng = np.random.default_rng(4)
    shape = tuple(a.points for a in axes)
    vals = rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, shape)
    vals = vals + 1j * rng.normal(size=shape)
    flat = vals.reshape(-1)
    flat[0] = complex(-0.0, 0.0)
    flat[-1] = complex(5e-324, -0.0)
    flat[len(flat) // 2] = complex(-2.2250738585072014e-308 / 3, 1e300)
    gf = GridFunction(axes, vals)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    export_csv(gf, got)
    _per_row_repr_csv(gf, want)
    assert got.read_bytes() == want.read_bytes()
    assert "-0.0," in got.read_text() and "5e-324," in got.read_text()
