import importlib
import importlib.util
import pathlib
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest

from anharm.groups import law, n_inv, n_mul, rho_scale, s_mul
from anharm.testfuncs import (
    Axis, GridFunction, TestFunction, gaussian, grid_mesh, grid_nodes,
    quadrature, sample,
)
from anharm import groups, harmonic, ideals, testfuncs
from anharm.harmonic import (
    convolve_extended_c, convolve_extended_c_lattice,
    convolve_extended_c_substituted, convolve_extended_group, convolve_group,
    convolve_group_lattice, convolve_group_pullback_lattice, fourier_forward,
    fourier_inverse, plancherel_check, projected_convolution_check,
    theorem31_residual,
)
from anharm.extension import gamma_inv, tilde_eval_coords
from symbolic_oracle import derivative


# ── Fourier transform ────────────────────────────────────────────────────────

def test_forward_gaussian_closed_form():
    # 𝓕[e^{-x²/2}](λ) = √(2π) e^{-λ²/2}
    axes = [Axis(0.0, 12.0, 128)]
    F = fourier_forward(sample(gaussian([0.0], [1.0]), axes))
    lam = grid_nodes(F.axes[0])
    want = np.sqrt(2 * np.pi) * np.exp(-0.5 * lam**2)
    assert np.max(np.abs(F.samples - want)) < 1e-12


def test_forward_matches_direct_sum():
    # independent oracle: the literal Σ f(x_k) e^{-iλx_k} h at every dual node
    rng = np.random.default_rng(0)
    axes = [Axis(0.7, 5.0, 32)]
    vals = rng.normal(size=32) + 1j * rng.normal(size=32)
    gf = GridFunction(tuple(axes), vals)
    F = fourier_forward(gf)
    x = grid_nodes(axes[0])
    for j, lam in enumerate(grid_nodes(F.axes[0])):
        direct = np.sum(vals * np.exp(-1j * lam * x)) * axes[0].step
        assert abs(F.samples[j] - direct) < 1e-10


def test_shift_theorem():
    # 𝓕[f(·-d)](λ) = e^{-iλd} 𝓕f(λ), exact on the shared dual grid
    axes = [Axis(0.0, 14.0, 128)]
    f = gaussian([0.3], [1.2])
    F = fourier_forward(sample(f, axes))
    G = fourier_forward(sample(gaussian([0.3 + 0.9], [1.2]), axes))
    lam = grid_nodes(F.axes[0])
    assert np.max(np.abs(G.samples - np.exp(-1j * lam * 0.9) * F.samples)) < 1e-11


def test_round_trip_exact():
    rng = np.random.default_rng(1)
    axes = (Axis(0.2, 3.0, 16), Axis(-0.5, 4.0, 8))
    vals = rng.normal(size=(16, 8)) + 1j * rng.normal(size=(16, 8))
    gf = GridFunction(axes, vals)
    back = fourier_inverse(fourier_forward(gf), axes)
    assert np.max(np.abs(back.samples - vals)) < 1e-12


def _shifted_formula_forward(gf):
    """The transform as fftn → per-axis factors → fftshift, each step a new
    array (the formula the in-place fourier_forward must reproduce)."""
    vals = np.fft.fftn(gf.samples)
    for ax, a in enumerate(gf.axes):
        lam = 2.0 * np.pi * np.fft.fftfreq(a.points, a.step)
        fac = np.exp(-1j * lam * (a.center - a.half_width)) * a.step
        shape = [1] * vals.ndim
        shape[ax] = -1
        vals = vals * fac.reshape(shape)
    return np.fft.fftshift(vals)


def _shifted_formula_inverse(F, axes):
    vals = np.fft.ifftshift(F.samples)
    for ax, (da, a) in enumerate(zip(F.axes, axes)):
        lam = 2.0 * np.pi * np.fft.fftfreq(a.points, a.step)
        fac = (np.exp(1j * lam * (a.center - a.half_width))
               * da.step * a.points / (2.0 * np.pi))
        shape = [1] * vals.ndim
        shape[ax] = -1
        vals = vals * fac.reshape(shape)
    return np.fft.ifftn(vals)


@pytest.mark.parametrize("axes", [
    (Axis(0.7, 5.0, 64),),
    (Axis(0.0, 1.0, 2),),
    (Axis(0.2, 3.0, 16), Axis(-0.5, 4.0, 8), Axis(0.0, 2.0, 32)),
    (Axis(0.0, 6.0, 8), Axis(0.1, 6.0, 4), Axis(0.0, 3.0, 8),
     Axis(-0.3, 6.0, 2), Axis(0.0, 6.0, 16)),
], ids=["1d", "1d-P2", "3d", "5d"])
def test_in_place_transforms_equal_shifted_formula(axes):
    # bit for bit, signed zeros included, and the caller's samples untouched
    rng = np.random.default_rng(3)
    shape = tuple(a.points for a in axes)
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    vals.real[vals.real > 1.0] = 0.0
    vals.imag[vals.imag > 1.0] = -0.0
    for data in (vals, vals.real + 0j):
        gf = GridFunction(axes, data.copy())
        F = fourier_forward(gf)
        assert F.samples.tobytes() == _shifted_formula_forward(gf).tobytes()
        assert gf.samples.tobytes() == data.tobytes()
        back = fourier_inverse(F, axes)
        want = _shifted_formula_inverse(F, axes)
        assert back.samples.tobytes() == want.tobytes()
        assert F.samples.tobytes() == _shifted_formula_forward(gf).tobytes()


def test_transforms_take_samples_in_any_memory_order():
    # a transposed GridFunction, as a lattice walk's reordered rows make,
    # transforms bit for bit as its C-ordered copy
    rng = np.random.default_rng(4)
    axes = (Axis(0.2, 3.0, 8), Axis(-0.5, 4.0, 16))
    vals = rng.normal(size=(16, 8)) + 1j * rng.normal(size=(16, 8))
    for data in (vals.T, vals.real.T):
        gf, gf_c = (GridFunction(axes, d) for d in (data, data.copy()))
        assert not gf.samples.flags.c_contiguous
        assert plancherel_check(gf, axes) == plancherel_check(gf_c, axes)
        F, F_c = fourier_forward(gf), fourier_forward(gf_c)
        assert F.samples.tobytes() == F_c.samples.tobytes()
        F_t = GridFunction(F.axes, F.samples.T.copy().T)
        assert not F_t.samples.flags.c_contiguous
        assert (fourier_inverse(F_t, axes).samples.tobytes()
                == fourier_inverse(F_c, axes).samples.tobytes())


def test_inverse_in_place_refuses_a_strided_array():
    vals = np.zeros((8, 8), dtype=complex)[:, ::2]
    with pytest.raises(ValueError):
        harmonic.inverse_in_place(vals, (Axis(0.0, 1.0, 4),),
                                  (Axis(0.0, 1.0, 4),), (1,))


def test_discrete_parseval_machine_exact():
    rng = np.random.default_rng(2)
    axes = (Axis(1.0, 2.5, 16), Axis(0.0, 3.0, 8), Axis(-0.3, 4.0, 8))
    vals = rng.normal(size=(16, 8, 8)) + 1j * rng.normal(size=(16, 8, 8))
    rep = plancherel_check(GridFunction(axes, vals), axes)
    assert rep.rel_err < 1e-12


def test_plancherel_gaussian_1d():
    # ∫ |e^{-x²}|² dx = √(π/2) on both sides once the box captures the tails
    rep = plancherel_check(gaussian([0.0], [2.0]), [Axis(0.0, 10.0, 64)])
    assert rep.rel_err < 1e-12
    assert rep.time_norm_sq == pytest.approx(np.sqrt(np.pi / 2), rel=1e-10)


@pytest.mark.parametrize("axes", [
    [Axis(0.0, 10.0, 64)],
    [Axis(0.3, 6.0, 16), Axis(-0.2, 5.0, 8), Axis(0.0, 4.0, 2)],
    [Axis(0.0, 5.0, 8), Axis(0.1, 4.0, 2)],
    [Axis(0.0, 6.0, 8)] * 4 + [Axis(0.2, 6.0, 16)],
], ids=["1d", "3d-last-P2", "2d-last-P2", "5d"])
def test_real_plancherel_equals_the_complex_path(axes):
    # the real path (slab walk, half spectrum) against fourier_forward
    # on the same samples; with P = 2 on the last axis, planes 0 and P/2
    # are the whole half spectrum
    rng = np.random.default_rng(len(axes))
    dim = len(axes)
    f = TestFunction(dim, tuple(
        (c, rng.integers(0, 3, dim), rng.uniform(-0.3, 0.3, dim),
         rng.uniform(0.5, 1.5, dim)) for c in (1.0, -0.4, 0.25)))
    rep = plancherel_check(f, axes)
    ref = plancherel_check(GridFunction(axes, f.on_grid(axes)), axes)
    assert abs(rep.time_norm_sq - ref.time_norm_sq) <= 1e-14 * ref.time_norm_sq
    assert abs(rep.freq_norm_sq - ref.freq_norm_sq) <= 1e-14 * ref.freq_norm_sq
    assert rep.rel_err <= 1e-14


def _whole_grid_norms(f, axes):
    """_real_norms' two norms from the whole grid at once: on_grid's
    samples summed by _norm_sq, and rfftn's half spectrum squared, its
    planes 0 and P/2 of the last axis once and the rest twice."""
    vals = f.on_grid(axes)
    sq = np.abs(np.fft.rfftn(vals))
    np.square(sq, out=sq)
    sq[..., 1:-1] *= 2.0
    cell = float(np.prod([a.step for a in axes]))
    dual = float(np.prod([testfuncs.dual_axis(a).step for a in axes]))
    return (harmonic._norm_sq(vals) * cell,
            float(np.sum(sq)) * (cell * cell * dual
                                 / (2.0 * np.pi) ** len(axes)))


@pytest.mark.parametrize("terms", [1, 3])
@pytest.mark.parametrize("shape, slabbed", [
    ((1 << 16,), False), ((16, 2), False), ((8, 16), False),
    ((2, 64), False), ((4,) * 4, False), ((64,) * 3, True),
    ((8,) * 4 + (16,), True), ((16,) * 5, True),
], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else None)
def test_slab_walk_is_bit_identical_to_the_whole_grid(shape, slabbed, terms):
    # a slab of one first-axis index keeps numpy's pairwise tree only when
    # it holds a multiple of 8 and more than 64 values; walked slab by
    # slab, (8, 16), (2, 64) and 4⁴ move in their last bits, so they walk
    # as one slab
    assert harmonic._slab_rows(shape) == (1 if slabbed else shape[0])
    rng = np.random.default_rng(len(shape) * terms)
    dim = len(shape)
    axes = tuple(Axis(rng.uniform(-0.3, 0.3), rng.uniform(3.0, 7.0), p)
                 for p in shape)
    f = TestFunction(dim, tuple(
        (c, rng.integers(1, 3, dim) if terms > 1 else np.zeros(dim, int),
         rng.uniform(-0.3, 0.3, dim), rng.uniform(0.5, 1.5, dim))
        for c in (1.0, -0.4, 0.25)[:terms]))
    assert harmonic._real_norms(f, axes) == _whole_grid_norms(f, axes)


def test_real_plancherel_peaks_at_the_half_spectrum():
    # on the 16⁵ S grid the half spectrum is the one grid-sized array; the
    # whole float samples beside it, as a whole-grid rfftn keeps them, come
    # to 17.8 MB of peak
    axes = [Axis(0.0, 6.0, 16)] * 5
    f = gaussian([0.1, 0.0, -0.1, 0.05, 0.0], [1.0, 1.1, 0.9, 1.2, 1.0])
    half, slab = 16 * 16 ** 4 * 9, 8 * 16 ** 4
    assert _peak_bytes(lambda: plancherel_check(f, axes)) < half + 4 * slab


def test_plancherel_heisenberg_grid():
    f = gaussian([0.2, -0.1, 0.3], [1.0, 1.3, 0.8])
    rep = plancherel_check(f, [Axis(0.0, 10.0, 64)] * 3)
    assert rep.rel_err < 1e-8


# ── convolutions ─────────────────────────────────────────────────────────────

def test_abelian_convolution_closed_form():
    # Gaussians convolve to a Gaussian: widths add in variance; the group
    # convolution on M is the abelian one
    g = gaussian([0.2], [1.0])
    f = gaussian([-0.3], [2.0])
    pts = np.linspace(-1.0, 1.0, 7)[:, None]
    got = convolve_group(g, f, "M", 1, pts, [Axis(0.0, 10.0, 128)])
    w1, w2 = 1.0, 2.0
    sig2 = 1.0 / w1 + 1.0 / w2
    norm = np.sqrt(2.0 * np.pi / (w1 * w2 * sig2))
    d = pts[:, 0] - (0.2 - 0.3)
    want = norm * np.exp(-0.5 * d * d / sig2)
    assert np.max(np.abs(got - want)) < 1e-10


def test_abelian_convolution_commutes():
    rng = np.random.default_rng(3)
    g = gaussian(rng.uniform(-0.5, 0.5, 2), [1.0, 1.4])
    f = gaussian(rng.uniform(-0.5, 0.5, 2), [0.8, 1.1])
    pts = rng.uniform(-1, 1, (5, 2))
    axes = [Axis(0.0, 8.0, 64)] * 2
    a = convolve_group(g, f, "M", 2, pts, axes)
    b = convolve_group(f, g, "M", 2, pts, axes)
    assert np.max(np.abs(a - b)) < 1e-10


def test_group_convolution_m2_reduces_to_abelian():
    # N for m=2 is the real line
    g = gaussian([0.1], [1.0])
    f = gaussian([-0.2], [1.5])
    pts = np.linspace(-0.8, 0.8, 5)[:, None]
    axes = [Axis(0.0, 9.0, 128)]
    a = convolve_group(g, f, "N", 2, pts, axes)
    b = convolve_group(g, f, "M", 1, pts, axes)
    assert np.max(np.abs(a - b)) < 1e-12


def test_group_convolution_mollifier_heisenberg():
    # φ_ε ∗ f → f as the mollifier sharpens; Richardson check on two widths
    f = gaussian([0.1, -0.2, 0.3], [1.0, 1.2, 0.9])
    pts = np.array([[0.2, 0.1, -0.3], [0.0, 0.4, 0.2]])
    want = np.asarray(f(pts))
    errs = []
    for w in (16.0, 64.0):
        norm = (w / (2 * np.pi)) ** 1.5
        phi = gaussian([0.0, 0.0, 0.0], [w, w, w], coef=norm)
        got = convolve_group(phi, f, "N", 3, pts, [Axis(0.0, 6.0, 128)] * 3)
        errs.append(np.max(np.abs(got - want)))
    assert errs[0] < 0.1
    assert errs[1] < 0.3 * errs[0]


def test_group_convolution_not_commutative_on_n():
    # the group convolution genuinely sees the noncommutative law
    g = gaussian([0.5, 0.0, 0.0], [2.0, 2.0, 2.0])
    f = gaussian([0.0, 0.0, 0.5], [2.0, 2.0, 2.0])
    pts = np.array([[0.3, 0.2, -0.4]])
    axes = [Axis(0.0, 5.0, 32)] * 3
    a = convolve_group(g, f, "N", 3, pts, axes)
    b = convolve_group(f, g, "N", 3, pts, axes)
    assert abs(a[0] - b[0]) > 1e-4


# ── Haar measure diagnostics ─────────────────────────────────────────────────

def test_haar_n_bi_invariance():
    rng = np.random.default_rng(4)
    f = gaussian([0.0, 0.1, -0.1], [1.0, 1.2, 0.8])
    axes = [Axis(0.0, 10.0, 64)] * 3
    total = quadrature(f, axes)
    for _ in range(5):
        g = rng.uniform(-0.5, 0.5, 3)
        left = quadrature(lambda x: f(n_mul(3, g, x)), axes)
        right = quadrature(lambda x: f(n_mul(3, x, g)), axes)
        assert abs(left - total) / abs(total) < 1e-6
        assert abs(right - total) / abs(total) < 1e-6


def test_haar_s_right_invariance():
    rng = np.random.default_rng(5)
    # t-narrow f: the right translate shifts the n-slot by e^{2t} n_g, so the
    # integrand must die in t before that shift outruns the n-box
    f = gaussian([0.0, 0.1], [1.0, 6.0])
    axes = [Axis(0.0, 10.0, 64), Axis(0.0, 3.0, 64)]
    total = quadrature(f, axes)
    for _ in range(5):
        g = rng.uniform(-0.1, 0.1, 2)
        right = quadrature(lambda x: f(s_mul(2, x, g)), axes)
        assert abs(right - total) / abs(total) < 1e-6


def test_haar_s_left_translation_modular_factor():
    # left translation is NOT invariant: it scales by Π a_j/a_i at t_g,
    # the reciprocal of the ρ scale product
    f = gaussian([0.0, 0.0], [1.0, 3.0])
    axes = [Axis(0.0, 12.0, 128), Axis(0.0, 4.0, 64)]
    total = quadrature(f, axes)
    g = np.array([0.2, 0.15])
    left = quadrature(lambda x: f(s_mul(2, g, x)), axes)
    predicted = 1.0 / float(np.prod(rho_scale(2, g[1:])))
    assert abs(left / total - predicted) / predicted < 1e-6


# ── reduction identity ───────────────────────────────────────────────────────

def _pair(rng, dim, widths, k, pt_scale, npts=10):
    phi = gaussian(rng.uniform(-0.3, 0.3, dim), widths)
    f = gaussian(rng.uniform(-0.3, 0.3, dim), widths)
    pts = [(rng.uniform(-pt_scale, pt_scale, dim),
            rng.uniform(-pt_scale, pt_scale, k)) for _ in range(npts)]
    return phi, f, pts


def test_theorem31_k1_m3():
    rng = np.random.default_rng(7)
    phi, f, pts = _pair(rng, 3, [1.0] * 3, 1, 0.4)
    coarse = [Axis(0.0, 6.4, 16)] * 3
    fine = [Axis(0.0, 6.4, 32)] * 3
    r0, s0 = theorem31_residual(phi, f, "K1", 3, pts, coarse, coarse)
    r1, s1 = theorem31_residual(phi, f, "K1", 3, pts, fine, fine)
    assert r0 <= 1e-3 * s0
    assert r1 <= 0.25 * r0


def test_theorem31_h_m2():
    rng = np.random.default_rng(7)
    phi, f, pts = _pair(rng, 2, [1.0, 3.0], 1, 0.4)
    coarse = [Axis(0.0, 6.4, 32), Axis(0.0, 3.2, 16)]
    fine = [Axis(0.0, 6.4, 64), Axis(0.0, 3.2, 32)]
    r0, s0 = theorem31_residual(phi, f, "H", 2, pts, coarse, coarse)
    r1, s1 = theorem31_residual(phi, f, "H", 2, pts, fine, fine)
    assert r0 <= 1e-3 * s0
    assert r1 <= 0.25 * r0


def test_theorem31_sides_match_direct_oracle():
    # both engines agree with a brute-force quadrature of the defining
    # integral on an unrelated grid
    rng = np.random.default_rng(8)
    phi, f, pts = _pair(rng, 2, [1.0, 3.0], 1, 0.3)
    base = np.atleast_2d(np.asarray([p[0] for p in pts[:3]]))
    shift = np.atleast_2d(np.asarray([p[1] for p in pts[:3]]))

    def F_ext(b, s):
        return tilde_eval_coords(f, "H", 2, b, s)

    axes = [Axis(0.0, 7.0, 64), Axis(0.0, 3.5, 32)]
    lhs = convolve_extended_group(phi, F_ext, "H", 2, base, shift, axes)
    rhs = convolve_extended_c_substituted(phi, F_ext, "H", 2, base, shift, axes)
    plain = convolve_extended_c(phi, F_ext, "H", 2, base, shift, axes)
    scale = np.max(np.abs(lhs))
    assert np.max(np.abs(lhs - rhs)) < 1e-3 * scale
    assert np.max(np.abs(plain - rhs)) < 1e-3 * scale
    assert np.max(np.abs(plain - lhs)) < 1e-3 * scale


def _perfbench_tracing():
    """perfbench's tracer module, loaded read-only from its file."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_residual(monkeypatch, case, phi, f, pts, axes):
    """theorem31_residual traced by perfbench's tracer, which wraps
    TestFunction.__call__ and the engines and counts each call's points
    from its arguments' shapes, against the untraced value.  Every
    evaluation, the node weights' included, reaches __call__ with one
    array or one block, so the counts of TestFunction and tilde
    evaluations must be those of the dense shapes, which materialize every
    block (recorded untraced)."""
    tracing = _perfbench_tracing()
    for _, module, *_ in tracing.TARGETS:  # install() looks each one up
        importlib.import_module(module)
    want = theorem31_residual(phi, f, case, 3, pts, axes, axes)
    counts = {"testfuncs.eval_points": 0, "extension.tilde_eval_points": 0}
    call, tilde = TestFunction.__call__, harmonic.tilde_eval_coords

    def dense_points(*arrays):
        return int(np.prod(np.broadcast_shapes(
            *(np.asarray(a).shape[:-1] for a in arrays))))

    def counted_call(self, x):
        counts["testfuncs.eval_points"] += dense_points(x)
        return call(self, x)

    def counted_tilde(f, case, m, base, shift):
        counts["extension.tilde_eval_points"] += dense_points(base, shift)
        return tilde(f, case, m, base, shift)

    with monkeypatch.context() as patch:
        patch.setattr(TestFunction, "__call__", counted_call)
        patch.setattr(harmonic, "tilde_eval_coords", counted_tilde)
        assert theorem31_residual(phi, f, case, 3, pts, axes, axes) == want
    tracer = tracing.Tracer()
    tracer.install()
    t0 = time.perf_counter_ns()
    try:
        got = harmonic.theorem31_residual(phi, f, case, 3, pts, axes, axes)
    finally:
        wall = time.perf_counter_ns() - t0
        tracer.uninstall()
    assert got == want
    rounds = [{"wall_ns": wall, "traced": True, "pinv_fallbacks": 0},
              {"wall_ns": wall, "traced": False, "pinv_fallbacks": 0}]
    metrics, additive = tracing.summarize(tracer.spans, tracer.counts, rounds)
    assert additive
    assert metrics["harmonic.convolve_extended_group_pairs"]["value"] > 0
    for name, count in counts.items():
        assert count > 0 and metrics[name]["value"] == count, name


def test_traced_h_m3_residual_equals_untraced_with_additive_spans(
        monkeypatch):
    rng = np.random.default_rng(9)
    phi, f, pts = _pair(rng, 5, [1.0] * 3 + [5.0] * 2, 2, 0.3)
    axes = [Axis(0.0, 4.0, 8)] * 3 + [Axis(0.0, 1.6, 4)] * 2
    _traced_residual(monkeypatch, "H", phi, f, pts[:2], axes)


def test_traced_k1_m3_residual_equals_untraced_with_additive_spans(
        monkeypatch):
    rng = np.random.default_rng(9)
    phi, f, pts = _pair(rng, 3, [1.0] * 3, 1, 0.3)
    _traced_residual(monkeypatch, "K1", phi, f, pts[:5],
                     [Axis(0.0, 4.0, 8)] * 3)


def test_theorem31_h_m2_margin_over_seeds():
    # the benchmark's drawn-seed H m=2 case: its 128×64 grid, 20 points
    # drawn by the _pair rule from the second stream spawned from the seed
    axes = [Axis(0.0, 6.4, 128), Axis(0.0, 3.2, 64)]
    margins = {}
    for seed in range(12):
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
        phi, f, pts = _pair(rng, 2, [1.0, 3.0], 1, 0.4, npts=20)
        r, s = theorem31_residual(phi, f, "H", 2, pts, axes, axes)
        margins[seed] = 1e-3 * s / r
    assert min(margins.values()) >= 3.0, margins


# ── bilinear blocks in the direct engines ───────────────────────────────────

def _two_terms(rng, dim, widths, coef):
    """A sum of two Gaussians, the second with coefficient coef."""
    a, b = (gaussian(rng.uniform(-0.3, 0.3, dim), widths, c)
            for c in (1.0, coef))
    return TestFunction(dim, a.terms + b.terms)


def _block_engine_runs(rng, case, m, npoints):
    """(TestFunction run, materialized run) of each engine call on case's
    base at m: the blocks a TestFunction takes, and the same calls with
    callables that make every block dense.  f has α ≠ 0 on its first and
    last slot (derivative) and a complex coefficient, f and φ two terms
    each."""
    L = law(case, m)
    B = L.base
    split = B.split or B.dim
    widths = [1.0] * split + [3.0] * (B.dim - split)
    phi = _two_terms(rng, B.dim, widths, -0.5)
    f = derivative(_two_terms(rng, B.dim, widths, 0.7 + 0.4j), B.dim - 1)
    f = derivative(f, 0)
    axes = ([Axis(0.0, 3.2, 4 if B.dim <= 3 else 2)] * split
            + [Axis(0.0, 1.6, 4 if m < 4 else 2)] * (B.dim - split))
    base = rng.uniform(-0.4, 0.4, (npoints, B.dim))
    shift = rng.uniform(-0.4, 0.4, (npoints, L.shift_dim))

    def F(b, s):
        return tilde_eval_coords(f, case, m, b, s)

    def dense_F(b, s):
        return tilde_eval_coords(f, case, m, np.asarray(b), np.asarray(s))

    def dense_phi(q):
        return phi(np.asarray(q))

    def dense_f(q):
        return f(np.asarray(q))

    engines = [convolve_extended_group, convolve_extended_c_substituted,
               convolve_extended_c]
    runs = {e.__name__: (
        lambda e=e: e(phi, F, case, m, base, shift, axes),
        lambda e=e: e(dense_phi, dense_F, case, m, base, shift, axes))
        for e in engines}
    runs["convolve_group"] = (
        lambda: convolve_group(phi, f, B.name, m, base, axes),
        lambda: convolve_group(phi, dense_f, B.name, m, base, axes))
    return runs


# (m, npoints, _CHUNK): at m = 5 H has 14 axes, so at least 2¹⁴ nodes,
# which one-node blocks would walk in about 10 s per call
@pytest.mark.parametrize("m, npoints, chunk", [
    (m, n, c) for m in (2, 3, 4, 5) for n in (1, 5)
    for c in (1, harmonic._CHUNK) if (m, c) != (5, 1)])
def test_product_path_equals_the_materialized_quotient(monkeypatch, m,
                                                       npoints, chunk):
    # every engine call a TestFunction takes blocks in (the group sides,
    # the ∗_c sides of K1 and H's substituted one, convolve_group on the
    # base) against the same call on the dense path, to 1e-12 of max|value|
    monkeypatch.setattr(harmonic, "_CHUNK", chunk)
    rng = np.random.default_rng(40 + m)
    for case in ("K1", "H"):
        for name, (run, dense) in _block_engine_runs(rng, case, m,
                                                     npoints).items():
            got, want = run(), dense()
            scale = np.max(np.abs(want))
            assert scale > 0 and got.shape == want.shape, (case, name)
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, (case, name)


# the rule's floats per node (harmonic._block_size) of each engine's walk at
# 5 points: a group core holds one value per pair and a weight per node, a
# substituted core F̃'s and φ's values per pair
_GROUP_CORE, _SUBSTITUTED_CORE = 5 + 1, 2 * 5


def _assert_no_dense_quotient(monkeypatch, case, engine, scalars):
    """theorem31_residual at m = 3 and 5 points with engine's call on case
    watched: no block is materialized, and no (nodes, points) array is
    made through empty_columns.  The engine's walk must use the rule's
    block at its inputs, `scalars` floats per node."""
    shapes, real = [], groups.empty_columns
    sizes, block_size = [], harmonic._block_size
    call, active = getattr(harmonic, engine), []

    def spy(shape):
        if active:
            shapes.append(tuple(shape))
        return real(shape)

    def sized(*args):
        n = block_size(*args)
        if active:
            sizes.append(n)
        return n

    def side(*args):
        active.append(True)
        try:
            return call(*args)
        finally:
            active.clear()

    def materialize(*args, **kwargs):
        raise AssertionError(f"{engine} on {case} formed a dense quotient")

    for module in (groups, harmonic, testfuncs):
        monkeypatch.setattr(module, "empty_columns", spy)
    monkeypatch.setattr(harmonic, "_CHUNK", 1 << 14)
    monkeypatch.setattr(harmonic, "_block_size", sized)
    monkeypatch.setattr(harmonic, engine, side)
    monkeypatch.setattr(groups._Bilinear, "__array__", materialize)
    rng = np.random.default_rng(9)
    if case == "K1":
        phi, f, pts = _pair(rng, 3, [1.0] * 3, 1, 0.3)
        axes = [Axis(0.0, 4.0, 8)] * 3  # 512 nodes: one block of them all
    else:
        phi, f, pts = _pair(rng, 5, [1.0] * 3 + [5.0] * 2, 2, 0.3)
        axes = [Axis(0.0, 4.0, 8)] * 3 + [Axis(0.0, 1.6, 4)] * 2
    r, s = theorem31_residual(phi, f, case, 3, pts[:5], axes, axes)
    assert s > 0 and shapes
    pairs = block_size(axes, 5, scalars) * 5
    assert set(sizes) == {pairs // 5}, sizes
    # the dense quotient would be (nodes, 5, dim): every column buffer is
    # below one of its columns in size
    assert max(int(np.prod(sh)) for sh in shapes) < pairs, shapes


def test_theorem31_h_group_side_forms_no_dense_quotient(monkeypatch):
    _assert_no_dense_quotient(monkeypatch, "H", "convolve_extended_group",
                              _GROUP_CORE)


# the other direct engine calls theorem31_residual makes: each takes its
# quotients and F̃ as bilinear blocks
@pytest.mark.parametrize("case, engine", [
    ("K1", "convolve_extended_group"), ("K1", "convolve_extended_c"),
    ("H", "convolve_extended_c_substituted")])
def test_theorem31_sides_form_no_dense_quotient(monkeypatch, case, engine):
    scalars = {"convolve_extended_c": _GROUP_CORE}.get(engine,
                                                        _SUBSTITUTED_CORE)
    _assert_no_dense_quotient(monkeypatch, case, engine, scalars)


# ── block size ───────────────────────────────────────────────────────────────

def _engine_runs(extend=None, refine=1, cast=None):
    """One small call of every engine and branch, keyed by name.
    extend(f, case, m) gives F_ext, by default the tilde extension; refine
    multiplies every axis's point count; cast, given, wraps each test
    function (φ and f)."""
    rng = np.random.default_rng(13)
    phi3, f3 = (gaussian(rng.uniform(-0.3, 0.3, 3), [1.0, 1.2, 0.9])
                for _ in range(2))
    phi2, f2 = (gaussian(rng.uniform(-0.3, 0.3, 2), [1.0, 3.0])
                for _ in range(2))
    if cast is not None:
        phi3, f3, phi2, f2 = map(cast, (phi3, f3, phi2, f2))
    pts3, pts2 = rng.uniform(-0.4, 0.4, (5, 3)), rng.uniform(-0.4, 0.4, (5, 2))
    shift = rng.uniform(-0.4, 0.4, (5, 1))
    axes3 = [Axis(0.0, 5.0, 8 * refine), Axis(0.0, 6.0, 4 * refine),
             Axis(0.0, 5.0, 16 * refine)]
    axes2 = [Axis(0.0, 6.4, 16 * refine), Axis(0.0, 3.2, 8 * refine)]

    def F(f, case, m):
        if extend is not None:
            return extend(f, case, m)
        return lambda b, s: tilde_eval_coords(f, case, m, b, s)

    K1, H = F(f3, "K1", 3), F(f2, "H", 2)
    return {
        "group_N": lambda: convolve_group(phi3, f3, "N", 3, pts3, axes3),
        "group_S": lambda: convolve_group(phi2, f2, "S", 2, pts2, axes2),
        "abelian": lambda: convolve_group(phi3, f3, "M", 3, pts3, axes3),
        "c_K1": lambda: convolve_extended_c(phi3, K1, "K1", 3, pts3, shift,
                                            axes3),
        "c_H": lambda: convolve_extended_c(phi2, H, "H", 2, pts2, shift, axes2),
        "c_substituted_K1": lambda: convolve_extended_c_substituted(
            phi3, K1, "K1", 3, pts3, shift, axes3),
        "c_substituted_H": lambda: convolve_extended_c_substituted(
            phi2, H, "H", 2, pts2, shift, axes2),
        "group_K1": lambda: convolve_extended_group(phi3, K1, "K1", 3, pts3,
                                                    shift, axes3),
        "group_H": lambda: convolve_extended_group(phi2, H, "H", 2, pts2,
                                                   shift, axes2),
        # on the unimodular N under K1 the group engine is the substituted
        # form Z = Y⁻¹∘base; its cases keep their own IDs
        "group_substituted_K1": lambda: convolve_extended_group(
            phi3, K1, "K1", 3, pts3, shift, axes3),
    }


# at 5 points a dense walk's blocks are 1, 1, 8 and 32 nodes, a group
# core's (6 floats per node) 1, 4, 16 and 128, a substituted core's (10)
# 1, 2, 16 and 64: at _CHUNK = 8 the split walks of H m=2 cover its 8 A
# nodes only in part (test_block_size_rule_gives_bilinear_walks_more_pairs)
@pytest.mark.parametrize("chunk", [1, 8, 40, 200])
@pytest.mark.parametrize("engine", sorted(_engine_runs()))
def test_engines_do_not_depend_on_block_size(monkeypatch, engine, chunk):
    # each block size against one block of all nodes
    run = _engine_runs()[engine]
    monkeypatch.setattr(harmonic, "_CHUNK", 1 << 40)
    whole = run()
    monkeypatch.setattr(harmonic, "_CHUNK", chunk)
    split = run()
    assert np.max(np.abs(whole)) > 0
    assert np.max(np.abs(split - whole)) <= 1e-12 * np.max(np.abs(whole))


@pytest.mark.parametrize("engine", sorted(_engine_runs()))
def test_real_engines_equal_complex_casts(engine):
    # real test functions run the engines in float arithmetic; the same
    # functions cast to complex, as every engine did before, run them in
    # complex arithmetic, and the sums agree to rounding
    def complex_cast(f):
        return lambda x: np.asarray(f(x), dtype=complex)

    real = _engine_runs()[engine]()
    cplx = _engine_runs(cast=complex_cast)[engine]()
    assert real.dtype == float and cplx.dtype == complex
    assert np.max(np.abs(real - cplx)) <= 1e-12 * np.max(np.abs(cplx))


@pytest.mark.parametrize("scalars", [None, 1, 2, 6, 10, 21, 40, 1 << 17])
@pytest.mark.parametrize("npoints", [1, 3, 5, 20, 1 << 15])
@pytest.mark.parametrize("sizes", [(2,), (8, 4, 16), (32,) * 3 + (8,) * 2,
                                   (2,) * 24])
def test_block_size_rule(sizes, npoints, scalars):
    # a power of two, at least one node and at most all of them; a walk
    # whose quotients are dense gets no more pairs than the 2¹⁴ BENCH_3
    # chose, a bilinear one no more than 4·_CHUNK floats of scalars (one
    # node aside); either gets the largest such block
    axes = [Axis(0.0, 1.0, p) for p in sizes]
    total = int(np.prod(sizes))
    n = harmonic._block_size(axes, npoints, scalars)
    assert 1 <= n <= total and n & (n - 1) == 0
    if scalars is None:
        assert n * npoints <= (1 << 14) or n == 1
        fits = 2 * n * npoints <= harmonic._CHUNK
    else:
        assert n * scalars <= 4 * harmonic._CHUNK or n == 1
        fits = 2 * n * scalars <= 4 * harmonic._CHUNK
    assert n == total or not fits


def test_block_size_rule_gives_bilinear_walks_more_pairs(monkeypatch):
    # at the same points a bilinear walk's block is at least the dense one;
    # at 20 points the group core gets 4× the pairs and the substituted core
    # 2×; at _CHUNK = 8 and 5 points H m=2's split walks (its axes in
    # _engine_runs) cover its 8 A nodes in part, in blocks of more than one
    big = [Axis(0.0, 1.0, 64)] * 3
    for npoints in (1, 5, 20):
        dense = harmonic._block_size(big, npoints)
        for scalars in (npoints + 1, 2 * npoints):
            assert harmonic._block_size(big, npoints, scalars) >= dense
    dense = harmonic._block_size(big, 20)
    assert [harmonic._block_size(big, 20, s) for s in (21, 40)] == [
        4 * dense, 2 * dense]
    monkeypatch.setattr(harmonic, "_CHUNK", 8)
    axes2 = [Axis(0.0, 6.4, 16), Axis(0.0, 3.2, 8)]
    assert [harmonic._block_size(axes2, 5, s) for s in (6, 10)] == [4, 2]


def _peak_bytes(run):
    """tracemalloc's peak over a second call of run, the first having made
    what a process keeps across calls (the law table, lru caches)."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _guard_runs():
    """(name, run, dense block bytes) for one call of each direct engine at
    pinned_H_m3's axes (32³×8² nodes, 1 point) and at the intertwine's 16³
    N walk (20 points).  The bytes are those of a dense quotient block at
    the rule's size for a dense walk: 8·dim·npoints·_block_size."""
    rng = np.random.default_rng(7)
    runs = []
    for case, m, widths, k, axes, npts in [
            ("H", 3, [1.0] * 3 + [5.0] * 2, 2,
             [Axis(0.0, 4.0, 32)] * 3 + [Axis(0.0, 1.6, 8)] * 2, 1),
            ("K1", 3, [1.3, 0.5, 1.1], 1,
             [Axis(0.0, 8.0, 16), Axis(0.0, 9.6, 16), Axis(0.0, 8.0, 16)],
             20)]:
        B = law(case, m).base
        phi, f = (gaussian(rng.uniform(-0.3, 0.3, B.dim), widths)
                  for _ in range(2))
        base = rng.uniform(-0.3, 0.3, (npts, B.dim))
        shift = rng.uniform(-0.3, 0.3, (npts, k))
        F = partial(tilde_eval_coords, f, case, m)
        dense = 8 * B.dim * npts * harmonic._block_size(axes, npts)
        args = (phi, F, case, m, base, shift, axes)
        runs += [(f"{case} {e.__name__}", partial(e, *args), dense)
                 for e in (convolve_extended_group, convolve_extended_c,
                           convolve_extended_c_substituted)]
        runs.append((f"{B.name} convolve_group",
                     partial(convolve_group, phi, f, B.name, m, base, axes),
                     dense))
    return runs


@pytest.mark.parametrize("name, run, dense", [
    pytest.param(*r, id=r[0]) for r in _guard_runs()])
def test_engine_memory_stays_within_the_block_budget(name, run, dense):
    # one engine call peaks below five dense quotient blocks at the rule's
    # dense size: 1.1 on every walk of S and T, whose quotients, node
    # blocks and F̃ are bilinear, and 2.1 to 3.0 on the walks of N and M;
    # a dense walk sized as a bilinear one peaked at 8.4 (N) of them
    peak = _peak_bytes(run)
    assert peak < 5 * dense, (name, peak / dense)


def _count_empty_columns(monkeypatch):
    """Record the shape of every groups.empty_columns call, under each name
    the engines and the laws call it by."""
    calls, real = [], groups.empty_columns

    def spy(shape):
        calls.append(tuple(shape))
        return real(shape)

    for module in (groups, harmonic, testfuncs):
        monkeypatch.setattr(module, "empty_columns", spy)
    return calls


@pytest.mark.parametrize("engine", sorted(_engine_runs()))
def test_engines_allocate_once_per_call(monkeypatch, engine):
    # the node block, the quotient and the translates are kept buffers, so
    # the engines' allocations do not grow with the number of blocks; F_ext
    # here calls no group law, whose own allocations are not the engine's
    def extend(f, case, m):
        g = gaussian([0.1] * law(case, m).shift_dim, [2.0])
        return lambda b, s: f(b) * g(s)

    run = _engine_runs(extend, refine=4)[engine]
    node_blocks = harmonic._node_blocks
    counts, blocks = [], []

    def counted_blocks(*args, **kwargs):
        for block in node_blocks(*args, **kwargs):
            blocks[-1] += 1
            yield block

    for chunk in (harmonic._CHUNK, harmonic._CHUNK // 16):
        monkeypatch.setattr(harmonic, "_CHUNK", chunk)
        monkeypatch.setattr(harmonic, "_node_blocks", counted_blocks)
        calls = _count_empty_columns(monkeypatch)
        blocks.append(0)
        assert np.max(np.abs(run())) > 0
        counts.append(len(calls))
        monkeypatch.undo()
    assert blocks[1] >= 2 * blocks[0], blocks
    assert counts[0] == counts[1], counts


def test_no_tuple_crosses_an_engine_boundary(monkeypatch):
    # every engine hands the quotient kernels and the test functions one
    # array or one block, and gets one back: no (N-block, A-block) pair,
    # no pair of scratch buffers and no pair return
    calls = {}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            pairs = [a for a in (*args, *kwargs.values(), out)
                     if isinstance(a, tuple)]
            assert not pairs, (name, pairs)
            calls[name] = calls.get(name, 0) + 1
            return out

        return wrapped

    kernels = ("_an_ldiv", "_t_rdiv", "_n_rdiv", "_m_quotient")
    for name in kernels:
        monkeypatch.setattr(groups, name, spy(name, getattr(groups, name)))
    monkeypatch.setattr(TestFunction, "__call__",
                        spy("__call__", TestFunction.__call__))
    for engine, run in _engine_runs().items():
        assert np.max(np.abs(run())) > 0, engine
    assert set(calls) == {*kernels, "__call__"}, calls


@pytest.mark.parametrize("chunk", [1, 3, 40, 200, 1 << 40])
def test_node_blocks_tile_the_mesh_in_order(monkeypatch, chunk):
    axes = [Axis(0.3, 5.0, 8), Axis(0.0, 6.0, 4), Axis(-1.0, 5.0, 16)]
    monkeypatch.setattr(harmonic, "_CHUNK", chunk)
    copies, cells = zip(*((b.copy(), cell)
                          for (b,), cell in harmonic._node_blocks(axes, 5)))
    want = grid_mesh(axes).reshape(-1, 1, 3)
    assert np.array_equal(np.concatenate(copies), want)
    assert max(len(b) for b in copies) * 5 <= max(chunk, 5)
    assert set(cells) == {1.25 * 3.0 * 0.625}


@pytest.mark.parametrize("chunk", [1, 3, 40, 200, 1 << 40])
def test_kept_node_blocks_equal_fresh_ones(monkeypatch, chunk):
    # one buffer refilled block by block, the columns of whole axes once;
    # each block, read when it is yielded, is the fresh slice of the mesh
    # with an axis for the points
    axes = [Axis(0.3, 5.0, 8), Axis(0.0, 6.0, 4), Axis(-1.0, 5.0, 16)]
    monkeypatch.setattr(harmonic, "_CHUNK", chunk)
    fresh = grid_mesh(axes).reshape(-1, 3)
    first, start = None, 0
    for (b,), cell in harmonic._node_blocks(axes, 5):
        first = b if first is None else first
        assert b is first and b.shape[1:] == (1, 3)
        assert np.array_equal(b[:, 0], fresh[start:start + len(b)])
        assert cell == 1.25 * 3.0 * 0.625
        start += len(b)
    assert start == len(fresh)


# ── engines against the formulas they replaced ──────────────────────────────

def _concatenated_c_translate(case, m, base, shift, y):
    """The ∗_c translate built with broadcast_to + concatenate."""
    d_n = m * (m - 1) // 2
    if case == "K1":
        k = d_n - (m - 1)
        top = base[..., k:] - y[..., k:]
        act = np.broadcast_to(base[..., :k], top.shape[:-1] + (k,))
        return np.concatenate([act, top], axis=-1), shift - y[..., :k]
    n_new = n_mul(m, n_inv(m, y[..., :d_n]), base[..., :d_n])
    b = np.broadcast_to(base[..., d_n:], n_new.shape[:-1] + (m - 1,))
    return np.concatenate([n_new, b], axis=-1), shift - y[..., d_n:]


def _concatenated_c(phi, F_ext, case, m, base_points, shift_points, axes):
    out = np.zeros(len(base_points))
    for (block,), cell in harmonic._node_blocks(axes, len(base_points)):
        y = block[:, 0]
        weights = np.asarray(phi(y)) * cell
        nb, ns = _concatenated_c_translate(case, m, base_points[None],
                                           shift_points[None], y[:, None])
        out += np.tensordot(weights, F_ext(nb, ns), axes=(0, 0))
    return out


def _concatenated_c_substituted(phi, F_ext, case, m, base_points,
                                shift_points, axes):
    d_n = m * (m - 1) // 2
    x, s = base_points[None], shift_points[None]
    out = np.zeros(len(base_points), dtype=complex)
    for (block,), cell in harmonic._node_blocks(axes, len(base_points)):
        w = block
        lead = (len(block), len(base_points))
        if case == "K1":  # W in base order: the shift slots, then the top
            k = d_n - (m - 1)
            base = np.concatenate(
                [np.broadcast_to(x[..., :k], lead + (k,)),
                 np.broadcast_to(w[..., k:], lead + (m - 1,))], axis=-1)
            fv = F_ext(base, np.broadcast_to(w[..., :k], lead + (k,)))
            y = np.concatenate([s - w[..., :k], x[..., k:] - w[..., k:]],
                               axis=-1)
        else:
            base = np.concatenate(
                [np.broadcast_to(w[..., :d_n], lead + (d_n,)),
                 np.broadcast_to(x[..., d_n:], lead + (m - 1,))], axis=-1)
            fv = F_ext(base, np.broadcast_to(w[..., d_n:], lead + (m - 1,)))
            y_n = n_mul(m, x[..., :d_n], n_inv(m, w[..., :d_n]))
            y = np.concatenate(
                [y_n, np.broadcast_to(s - w[..., d_n:], lead + (m - 1,))], axis=-1)
        out += (fv * phi(y)).sum(axis=0) * cell
    return out


def _filled_engine_cases():
    rng = np.random.default_rng(24)
    k1 = gaussian(rng.uniform(-0.3, 0.3, 3), [1.0, 1.2, 0.9])
    h2 = gaussian(rng.uniform(-0.3, 0.3, 2), [1.0, 3.0])
    h3 = gaussian(rng.uniform(-0.3, 0.3, 5), [1.0] * 3 + [5.0] * 2)
    # (case, m, shift dim, f, axes)
    return [
        ("K1", 3, 1, k1,
         [Axis(0.0, 5.0, 8), Axis(0.0, 6.0, 4), Axis(0.0, 5.0, 8)]),
        ("H", 2, 1, h2, [Axis(0.0, 6.4, 16), Axis(0.0, 3.2, 8)]),
        ("H", 3, 2, h3, [Axis(0.0, 4.0, 4)] * 3 + [Axis(0.0, 1.6, 4)] * 2),
    ]


@pytest.mark.parametrize("chunk", [1, harmonic._CHUNK])
@pytest.mark.parametrize("case, m, k, f, axes", _filled_engine_cases())
def test_filled_engines_equal_concatenated_formulas(monkeypatch, chunk,
                                                    case, m, k, f, axes):
    # the engines fill one (nodes, points, dim) buffer per argument; the
    # values must be those of the broadcast_to + concatenate formulas, bit
    # for bit, with single-node blocks and with full ones.  φ and F_ext
    # materialize every block they get, so the engines run their dense
    # path (test_product_path_equals_the_materialized_quotient compares
    # the blocks a TestFunction reads with it)
    monkeypatch.setattr(harmonic, "_CHUNK", chunk)
    rng = np.random.default_rng(25 + m)
    d_b = len(axes)
    (_, _, mu, w), = f.terms
    g = gaussian(mu + rng.uniform(-0.2, 0.2, d_b), w)
    base = rng.uniform(-0.4, 0.4, (3, d_b))
    shift = rng.uniform(-0.4, 0.4, (3, k))
    y = rng.uniform(-0.4, 0.4, (5, 1, d_b))

    def phi(q):
        return g(np.asarray(q))

    def F_ext(b, s):
        return tilde_eval_coords(f, case, m, np.asarray(b), np.asarray(s))

    for engine, formula in [(convolve_extended_c, _concatenated_c),
                            (convolve_extended_c_substituted,
                             _concatenated_c_substituted)]:
        got = engine(phi, F_ext, case, m, base, shift, axes)
        assert np.max(np.abs(got)) > 0
        assert np.array_equal(got, formula(phi, F_ext, case, m, base, shift,
                                           axes))


def _subtracted_abelian(g, f, points, axes):
    """g ∗_c f with X − Y formed by np.subtract over the same node blocks."""
    x = np.atleast_2d(np.asarray(points, dtype=float))[None, :, :]
    out = np.zeros(x.shape[1])
    for (y,), cell in harmonic._node_blocks(axes, x.shape[1]):
        w = np.asarray(g(y[:, 0])) * cell
        vals = np.asarray(f(np.subtract(x, y)))
        out += np.tensordot(w, vals, axes=(0, 0))
    return out


@pytest.mark.parametrize("chunk", [1, harmonic._CHUNK])
@pytest.mark.parametrize("d", [1, 3])
def test_group_convolution_on_m_equals_subtracted_formula(monkeypatch, chunk,
                                                          d):
    # f materializes the quotient block, so the engine runs its dense path
    monkeypatch.setattr(harmonic, "_CHUNK", chunk)
    rng = np.random.default_rng(26 + d)
    g = gaussian(rng.uniform(-0.3, 0.3, d), [1.0, 1.4, 0.8][:d])
    h = gaussian(rng.uniform(-0.3, 0.3, d), [0.9, 1.2, 1.1][:d])
    pts = rng.uniform(-1.0, 1.0, (5, d))
    axes = [Axis(0.0, 5.0, 8), Axis(0.2, 6.0, 4), Axis(0.0, 5.0, 16)][:d]

    def f(q):
        return h(np.asarray(q))

    got = convolve_group(g, f, "M", d, pts, axes)
    assert np.max(np.abs(got)) > 0
    assert np.array_equal(got, _subtracted_abelian(g, f, pts, axes))


def _inline_group_lattice(g, f, out_axes, axes):
    """convolve_group_lattice's samples with f's arguments
    (x−a, σ−a·s, s) written out by hand, summed by the lattice core as
    one block of every a node."""
    sigma = harmonic._difference_nodes(out_axes[1], axes[1])
    s = harmonic._difference_nodes(out_axes[2], axes[2])
    a = grid_nodes(axes[0])[:, None, None, None]
    pts = np.empty((axes[0].points, out_axes[0].points, sigma.size, s.size, 3))
    pts[..., 0] = grid_nodes(out_axes[0])[:, None, None] - a
    pts[..., 1] = sigma[:, None] - a * s
    pts[..., 2] = s

    def samples(block):
        assert np.array_equal(block.ravel(), grid_nodes(axes[0]))
        return f(pts)

    out = harmonic._lattice_sum([g], axes, (0, 1, 2), out_axes[1:],
                                (out_axes[0].points,), samples)
    return out.ravel()


@pytest.mark.parametrize("out_axes, axes", [
    ([Axis(0.0, 4.0, 4), Axis(0.0, 4.8, 8), Axis(0.0, 4.0, 4)],
     [Axis(0.0, 4.0, 4), Axis(0.0, 4.8, 8), Axis(0.0, 4.0, 4)]),
    ([Axis(0.7, 4.0, 4), Axis(0.0, 2.4, 4), Axis(0.0, 8.0, 8)],
     [Axis(0.3, 8.0, 8), Axis(-0.6, 4.8, 8), Axis(1.5, 4.0, 4)]),
])
def test_group_lattice_engine_equals_inline_formula(out_axes, axes):
    # the engine forms f's arguments with the N law's ldiv of ι(a)
    rng = np.random.default_rng(27)
    g = gaussian(rng.uniform(-0.3, 0.3, 3), [4.0, 4.0, 4.0])
    f = gaussian(rng.uniform(-0.3, 0.3, 3), [1.0, 0.4, 0.9])
    got = convolve_group_lattice([g], f, out_axes, axes)[0]
    assert np.max(np.abs(got)) > 0
    assert np.array_equal(got, _inline_group_lattice(g, f, out_axes, axes))


# ── lattice engines against the direct ones ─────────────────────────────────

def _rel_dev(lattice, direct):
    return np.max(np.abs(lattice - direct)) / np.max(np.abs(direct))


@pytest.mark.parametrize("out_axes, axes, kind", [
    # the ideals benchmark's dictionary grid, F̃(·, u) as f
    ([Axis(0.0, 8.0, 8), Axis(0.0, 9.6, 16), Axis(0.0, 8.0, 8)],
     [Axis(0.0, 8.0, 8), Axis(0.0, 9.6, 16), Axis(0.0, 8.0, 8)], "tilde"),
    # 16³ with a nonzero center on every node axis, a TestFunction as f
    ([Axis(0.0, 8.0, 16), Axis(0.0, 9.6, 16), Axis(0.0, 8.0, 16)],
     [Axis(0.3, 8.0, 16), Axis(-0.6, 9.6, 16), Axis(1.5, 8.0, 16)], "test"),
    # fewer outputs than nodes on x and z, more on y; another center on x
    ([Axis(0.7, 4.0, 8), Axis(0.0, 4.8, 8), Axis(0.0, 8.0, 16)],
     [Axis(0.0, 8.0, 16), Axis(0.0, 9.6, 16), Axis(0.0, 4.0, 8)], "test"),
])
def test_group_lattice_engine_matches_direct(out_axes, axes, kind):
    rng = np.random.default_rng(21)
    g = gaussian(rng.uniform(-0.3, 0.3, 3), [4.0, 4.0, 4.0])
    f = gaussian(rng.uniform(-0.3, 0.3, 3), [1.0, 0.4, 0.9])
    if kind == "tilde":
        u = np.array([0.35])
        f_n = lambda b: tilde_eval_coords(f, "K1", 3, b, u)  # noqa: E731
    else:
        f_n = f
    got = convolve_group_lattice([g], f_n, out_axes, axes)
    want = convolve_group(g, f_n, "N", 3, grid_mesh(out_axes).reshape(-1, 3),
                          axes)
    assert got.shape == (1, want.size)
    assert _rel_dev(got[0], want) <= 1e-12


@pytest.mark.parametrize("m, out_axes, axes", [
    # M order (z, y, x) against N order (x, z, y); P_out ≠ P_node on y
    (3, [Axis(0.0, 4.8, 8), Axis(0.5, 2.0, 4), Axis(0.0, 8.0, 8)],
     [Axis(0.0, 8.0, 8), Axis(0.3, 4.8, 8), Axis(0.0, 4.0, 8)]),
    # M order is N's slots (3, 4, 5, 0, 1, 2); P_out = 2 on three axes
    (4, [Axis(0.0, 3.0, 4), Axis(0.0, 1.5, 2), Axis(0.0, 1.5, 2),
         Axis(0.0, 3.0, 4), Axis(0.0, 1.5, 2), Axis(0.2, 3.0, 4)],
     [Axis(0.0, 3.0, 4)] * 6),
])
def test_extended_c_lattice_engine_matches_direct(m, out_axes, axes):
    d_n = m * (m - 1) // 2
    k = d_n - (m - 1)
    rng = np.random.default_rng(22)
    phi = gaussian(rng.uniform(-0.3, 0.3, d_n), [2.0] * d_n)
    f = gaussian(rng.uniform(-0.3, 0.3, d_n), [1.0] * d_n)

    def F_ext(base, shift):
        return tilde_eval_coords(f, "K1", m, base, shift)

    got = convolve_extended_c_lattice([phi], F_ext, m, out_axes, axes)
    pts = grid_mesh(out_axes).reshape(-1, d_n)
    base = np.concatenate([np.zeros((len(pts), k)), pts[:, : m - 1]], axis=1)
    want = convolve_extended_c(phi, F_ext, "K1", m, base, pts[:, m - 1:],
                               axes)
    assert _rel_dev(got[0], want) <= 1e-12


_BENCH_N = [Axis(0.0, 8.0, 8), Axis(0.0, 9.6, 16), Axis(0.0, 8.0, 8)]


@pytest.mark.parametrize("out_axes, axes, coef", [
    # the ideals benchmark's grid: N (x, z, y) 8×16×8, M (z, y, x)
    ([Axis(0.0, 9.6, 16), Axis(0.0, 8.0, 8), Axis(0.0, 8.0, 8)], _BENCH_N,
     1.0),
    # 16³ with a nonzero center on every node axis
    ([Axis(0.0, 9.6, 16), Axis(0.0, 8.0, 16), Axis(0.0, 8.0, 16)],
     [Axis(0.3, 8.0, 16), Axis(-0.6, 9.6, 16), Axis(1.5, 8.0, 16)], 1.0),
    # 32 z outputs against 16 z nodes at the same step
    ([Axis(0.0, 19.2, 32), Axis(0.0, 8.0, 8), Axis(0.0, 8.0, 8)], _BENCH_N,
     1.0),
    # a probe with a complex coefficient
    ([Axis(0.0, 9.6, 16), Axis(0.0, 8.0, 8), Axis(0.0, 8.0, 8)], _BENCH_N,
     0.5 - 1.5j),
], ids=["bench", "16-off-centre", "z32-vs-z16", "complex-probe"])
def test_pullback_lattice_engine_matches_direct(out_axes, axes, coef):
    # (p∗g)∘Γ⁻¹ on the M lattice: the direct engine at Γ⁻¹ of the M mesh
    rng = np.random.default_rng(24)
    probes = [gaussian(rng.uniform(-0.3, 0.3, 3), [4.0] * 3, coef=coef),
              gaussian(rng.uniform(-0.3, 0.3, 3), [4.0] * 3)]
    g = gaussian(rng.uniform(-0.3, 0.3, 3), [1.0, 0.4, 0.9])
    got = convolve_group_pullback_lattice(probes, g, out_axes, axes)
    pts = law("K1", 3).gamma_inv(grid_mesh(out_axes)).reshape(-1, 3)
    want = np.stack([convolve_group(p, g, "N", 3, pts, axes) for p in probes])
    assert got.shape == want.shape
    assert np.iscomplexobj(got) == (coef != 1.0)
    assert _rel_dev(got, want) <= 1e-12


def test_pullback_lattice_engine_evaluates_g_on_p4_points(monkeypatch):
    # P_u·P_a·P_b·P_vy·(P_z,out + P_z,node − 1) points of g, once for all
    # the probes: a fall-back to P⁶ node·point pairs would count P_u·P_vy·
    # P_z,out·P_a·P_z,node·P_b.  Every axis has its own size.
    out_axes = [Axis(0.0, 19.2, 32), Axis(0.0, 8.0, 64), Axis(0.0, 4.0, 4)]
    axes = [Axis(0.0, 8.0, 8), Axis(0.0, 9.6, 16), Axis(0.0, 4.0, 2)]
    g = gaussian([0.2, 0.0, -0.1], [1.0, 0.4, 0.9])
    probes = [gaussian([0.1, -0.2, 0.0], [4.0] * 3),
              gaussian([0.0, 0.3, -0.1], [4.0] * 3)]
    call, points = TestFunction.__call__, [0]

    def spy(self, x):
        if self is g:
            points[0] += np.asarray(x)[..., 0].size
        return call(self, x)

    monkeypatch.setattr(TestFunction, "__call__", spy)
    convolve_group_pullback_lattice(probes, g, out_axes, axes)
    assert points[0] == 4 * 8 * 2 * 64 * (32 + 16 - 1)


_AXES_16 = [Axis(0.0, 8.0, 16), Axis(0.0, 9.6, 16), Axis(0.0, 8.0, 16)]
_AXES_16_M = [_AXES_16[i] for i in law("K1", 3).m_order]

# probes, f → rows: one case per lattice engine on 16³ node and output axes
_LATTICE_RUNS = {
    "convolve_group_lattice": lambda probes, f: convolve_group_lattice(
        probes, f, _AXES_16, _AXES_16),
    "convolve_extended_c_lattice": lambda probes, f: (
        convolve_extended_c_lattice(
            probes, lambda b, s: tilde_eval_coords(f, "K1", 3, b, s), 3,
            _AXES_16_M, _AXES_16)),
    "convolve_group_pullback_lattice": lambda probes, f: (
        convolve_group_pullback_lattice(probes, f, _AXES_16_M, _AXES_16)),
}


@pytest.mark.parametrize("coef", [1.0, 0.5 - 1.5j],
                         ids=["real", "complex-probe"])
@pytest.mark.parametrize("name", [n for n in harmonic.__all__
                                  if n.endswith("_lattice")])
def test_lattice_engines_return_one_row_per_probe(name, coef):
    # every lattice engine takes a sequence of probes and returns a
    # (k, npoints) array in the C order of its output mesh, float for real
    # inputs; a row is the one-probe call's bit for bit when the batch and
    # the call share their arithmetic, and to rounding otherwise
    rng = np.random.default_rng(28)
    f = gaussian(rng.uniform(-0.3, 0.3, 3), [1.0, 0.4, 0.9])
    probes = [gaussian(rng.uniform(-0.3, 0.3, 3), [4.0] * 3, coef=c)
              for c in (1.0, coef, 1.0)]
    run = _LATTICE_RUNS[name]
    rows = run(probes, f)
    assert rows.shape == (3, 16 ** 3)
    assert np.iscomplexobj(rows) == (coef != 1.0)
    for p, row in zip(probes, rows):
        one = run([p], f)
        assert one.shape == (1, 16 ** 3) and np.max(np.abs(one)) > 0
        if one.dtype == rows.dtype:
            assert np.array_equal(row, one[0])
        else:
            assert _rel_dev(row, one[0]) <= 1e-13


def test_group_lattice_peak_grows_slower_than_its_lattice():
    # the a nodes are walked in blocks, so no (x, a, σ, s) lattice is
    # formed: from 16³ to 32³ the peak grew 8.1× (1.5 → 12.1 MiB), where
    # the whole lattice at once grew 16.3× (11.6 → 189 MiB)
    f = gaussian([0.2, 0.0, -0.1], [1.0, 0.4, 0.9])
    p = gaussian([0.1, -0.2, 0.0], [4.0] * 3)
    peaks = []
    for n in (16, 32):
        axes = [Axis(0.0, 8.0, n), Axis(0.0, 9.6, n), Axis(0.0, 8.0, n)]
        peaks.append(_peak_bytes(partial(convolve_group_lattice, [p], f,
                                         axes, axes)))
    assert peaks[1] <= 10 * peaks[0], [b / 2 ** 20 for b in peaks]


def test_lattice_engines_reject_mismatched_steps():
    f = gaussian([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    axes = [Axis(0.0, 8.0, 8), Axis(0.0, 9.6, 16), Axis(0.0, 8.0, 8)]
    with pytest.raises(ValueError, match="steps"):
        convolve_group_lattice([f], f, [axes[0], Axis(0.0, 9.6, 8), axes[2]],
                               axes)
    with pytest.raises(ValueError, match="steps"):
        convolve_group_lattice([f], f, axes[:2] + [Axis(0.0, 8.0, 16)], axes)

    def F_ext(base, shift):
        return tilde_eval_coords(f, "K1", 3, base, shift)

    # M order is (z, y, x): pairing the N axes unpermuted mismatches z and x
    with pytest.raises(ValueError, match="steps"):
        convolve_extended_c_lattice([f], F_ext, 3, axes, axes)
    # the pullback pairs M's z (its first axis) with N's z only
    with pytest.raises(ValueError, match="steps"):
        convolve_group_pullback_lattice(
            [f], f, [Axis(0.0, 9.6, 8), axes[2], axes[0]], axes)


def test_off_lattice_checks_never_call_a_lattice_engine(monkeypatch):
    def spy(*args, **kwargs):
        raise AssertionError("a lattice engine ran off the lattice")

    for module in (harmonic, ideals):
        monkeypatch.setattr(module, "convolve_group_lattice", spy)
        monkeypatch.setattr(module, "convolve_extended_c_lattice", spy)
        monkeypatch.setattr(module, "convolve_group_pullback_lattice", spy)
    monkeypatch.setattr(harmonic, "_lattice_sum", spy)
    rng = np.random.default_rng(23)
    phi, f, pts = _pair(rng, 3, [1.0] * 3, 1, 0.4)
    axes = [Axis(0.0, 6.4, 8)] * 3
    r, s = theorem31_residual(phi, f, "K1", 3, pts[:2], axes, axes)
    assert np.isfinite(r) and s > 0
    psi = gaussian([0.1, -0.2, 0.0], [1.3, 0.5, 1.1])
    r, s = ideals.gamma_intertwine_residual(
        psi, f, 3, rng.uniform(-1.0, 1.0, (2, 3)), axes, axes)
    assert np.isfinite(r) and s > 0


# ── projected convolution ────────────────────────────────────────────────────

def test_projected_convolution_zero_function():
    zero = gaussian([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], coef=0.0)
    f = gaussian([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    axes = [Axis(0.0, 4.8, 8)] * 4
    r, s = projected_convolution_check(zero, f, "K1", 3, axes, [(4, 4, 4)])
    assert r == 0.0


def test_projected_convolution_k1():
    rng = np.random.default_rng(11)
    phi = gaussian(rng.uniform(-0.3, 0.3, 3), [1.0] * 3)
    f = gaussian(rng.uniform(-0.3, 0.3, 3), [1.0] * 3)
    axes = [Axis(0.0, 4.8, 8)] * 4
    fi = [tuple(idx) for idx in rng.integers(2, 6, (10, 3))]
    r, s = projected_convolution_check(phi, f, "K1", 3, axes, fi)
    assert r <= 1e-2 * s


def test_projected_convolution_h():
    rng = np.random.default_rng(12)
    phi = gaussian(rng.uniform(-0.2, 0.2, 2), [1.0, 4.0])
    f = gaussian(rng.uniform(-0.2, 0.2, 2), [3.0, 6.0])
    axes = [Axis(0.0, 10.0, 32), Axis(0.0, 2.4, 16), Axis(0.0, 2.4, 16)]
    fi = [(int(i), int(j)) for i, j in
          zip(rng.integers(13, 19, 10), rng.integers(5, 11, 10))]
    r, s = projected_convolution_check(phi, f, "H", 2, axes, fi)
    assert r <= 1e-2 * s


def _projected_convolution_on_the_extended_grid(phi, f, case, m, axes_ext,
                                               freq_indices):
    """projected_convolution_check's (residual, scale) with its left side
    taken the long way: φ∗f̃ on the whole extended grid, its transform
    along every axis, and the sum over the acting frequencies times
    Δλ/(2π).  φ̂ is read by pairing its acting slots with the shift slots
    one point at a time."""
    L = law(case, m)
    d_base, n_ext = L.base.dim, len(axes_ext)
    act = list(range(d_base))[L.acting]
    rest = [i for i in range(n_ext) if i not in act]

    def F_ext(base, shift):
        return tilde_eval_coords(f, case, m, base, shift)

    if L.base is law("N", 3):
        base_axes = axes_ext[:d_base]
        conv = np.stack(
            [convolve_group_lattice([phi], lambda b: F_ext(b, np.array([u])),
                                    base_axes, base_axes)[0]
             for u in grid_nodes(axes_ext[d_base])], axis=-1)
    else:
        mesh = grid_mesh(axes_ext).reshape(-1, n_ext)
        conv = convolve_extended_group(phi, F_ext, case, m, mesh[:, :d_base],
                                       mesh[:, d_base:], axes_ext[:d_base])
    Ghat = fourier_forward(GridFunction(
        axes_ext, conv.reshape([a.points for a in axes_ext])))
    proj = Ghat.samples
    for i in sorted(act, reverse=True):
        proj = proj.sum(axis=i) * Ghat.axes[i].step / (2.0 * np.pi)
    Fhat0 = fourier_forward(sample(gamma_inv(f, case, m),
                                   [axes_ext[i] for i in rest])).samples
    phihat = fourier_forward(sample(phi, axes_ext[:d_base])).samples
    pair = dict(zip(act, range(d_base, n_ext)))
    rest_pos = {i: k for k, i in enumerate(rest)}
    lhs, rhs = [], []
    for idx in map(tuple, freq_indices):
        phi_idx = tuple(idx[rest_pos[pair.get(i, i)]] for i in range(d_base))
        lhs.append(proj[idx])
        rhs.append(Fhat0[idx] * phihat[phi_idx])
    lhs, rhs = np.array(lhs), np.array(rhs)
    scale = float(max(np.max(np.abs(lhs)), np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs))), scale


@pytest.mark.parametrize("case, m, widths_phi, widths_f, axes, fi", [
    ("K1", 3, [1.0] * 3, [1.0] * 3, [Axis(0.0, 4.8, 8)] * 4,
     [(2, 3, 4), (5, 2, 2), (4, 4, 5)]),
    ("H", 2, [1.0, 4.0], [3.0, 6.0],
     [Axis(0.0, 10.0, 32), Axis(0.0, 2.4, 16), Axis(0.0, 2.4, 16)],
     [(13, 5), (16, 8), (18, 10)]),
], ids=["K1-lattice", "H-direct"])
def test_projected_convolution_equals_the_extended_grid_computation(
        case, m, widths_phi, widths_f, axes, fi):
    rng = np.random.default_rng(5)
    phi = gaussian(rng.uniform(-0.3, 0.3, len(widths_phi)), widths_phi)
    f = gaussian(rng.uniform(-0.3, 0.3, len(widths_f)), widths_f)
    r, s = projected_convolution_check(phi, f, case, m, axes, fi)
    r0, s0 = _projected_convolution_on_the_extended_grid(phi, f, case, m,
                                                         axes, fi)
    assert 0 < r <= 1e-2 * s
    assert abs(r - r0) <= 1e-12 * s and abs(s - s0) <= 1e-12 * s


def test_projected_convolution_rejects_mismatched_axes():
    phi = gaussian([0.0, 0.0], [1.0, 1.0])
    f = gaussian([0.0, 0.0], [1.0, 1.0])
    axes = [Axis(0.0, 5.0, 16), Axis(0.0, 2.4, 16), Axis(0.0, 3.0, 16)]
    with pytest.raises(ValueError):
        projected_convolution_check(phi, f, "H", 2, axes, [(0, 0)])
