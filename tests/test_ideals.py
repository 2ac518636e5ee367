"""Tests for the finite-dimensional ideal-correspondence module.

Grid calibration notes: the Γ pullback shears the middle (z) coordinate of
the Heisenberg group by u·y, so the quadrature aliasing error of the z axis
does not cancel between the N-side and M-side grids.  The z test functions
are therefore wide (width ≤ 0.4) and the M axes are the N axes permuted
into (top, shift) order so the untwisted axes share their lattices.
"""

import time

import numpy as np
import pytest

from anharm.ideals import (
    CorrespondenceLine, closure_residual, correspondence_check,
    gamma_intertwine_residual, ideal_model, transport_gram_deviation,
)
from anharm.extension import gamma_inv, tilde_eval_coords
from anharm.harmonic import (
    convolve_extended_c_lattice, convolve_group, convolve_group_lattice,
)
from anharm.testfuncs import Axis, TestFunction, gaussian, grid_mesh

AX_X = Axis(0.0, 8.0, 16)
AX_Z = Axis(0.0, 9.6, 16)
AX_Y = Axis(0.0, 8.0, 16)
AXES_N = (AX_X, AX_Z, AX_Y)
AXES_M = (AX_Z, AX_Y, AX_X)

GENS = [gaussian([0.2, 0.0, -0.1], [1.0, 0.4, 0.9])]
PROBES = [gaussian([0.1, -0.2, 0.0], [4.0, 4.0, 4.0]),
          gaussian([0.0, 0.3, -0.1], [4.0, 4.0, 4.0])]
GATING = gaussian([0.05, 0.1, -0.05], [3.5, 3.5, 3.5])

_model_cache = {}


def heisenberg_model(nprobes=2):
    if nprobes not in _model_cache:
        _model_cache[nprobes] = ideal_model(
            GENS, PROBES[:nprobes], 3, AXES_N, AXES_M)
    return _model_cache[nprobes]


def test_model_shapes_and_gram_psd():
    model = heisenberg_model()
    k = len(GENS) * (1 + len(PROBES))
    assert len(model.samples("N")) == k and len(model.samples("M")) == k
    assert model.gram.shape == (k, k)
    assert np.allclose(model.gram, model.gram.conj().T)
    assert np.min(np.linalg.eigvalsh(model.gram)) > -1e-10


def test_transport_evaluates_the_generator_once_for_all_probes(monkeypatch):
    # every p∗g pulled back through Γ⁻¹ evaluates g at the same quotients;
    # one engine call per generator evaluates them once for all the probes
    axes_n = (Axis(0.0, 8.0, 8), Axis(0.0, 9.6, 8), Axis(0.0, 8.0, 8))
    axes_m = (axes_n[1], axes_n[2], axes_n[0])
    g = GENS[0]
    probes = PROBES + [gaussian([-0.1, 0.1, 0.2], [4.0, 4.0, 4.0])]
    call, points = TestFunction.__call__, []

    def spy(self, x):
        if self is g:
            points[-1] += np.asarray(x)[..., 0].size
        return call(self, x)

    for k in (1, 3):
        model = ideal_model([g], probes[:k], 3, axes_n, axes_m)
        monkeypatch.setattr(TestFunction, "__call__", spy)
        points.append(0)
        transport_gram_deviation(model)
        monkeypatch.undo()
        # the rows keep the dictionary's order: generators, then p∗g
        mesh = grid_mesh(axes_m)

        def conv(p):
            return lambda x: convolve_group(
                p, g, "N", 3, x.reshape(-1, 3), axes_n).reshape(x.shape[:-1])

        want = np.stack([gamma_inv(f, "K1", 3)(mesh).ravel()
                         for f in [g] + [conv(p) for p in probes[:k]]])
        got = model.samples("T")
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert points[0] == points[1] > 0


def test_samples_are_the_lattice_engines_rows_in_dictionary_order():
    # generators, then p∗g with p outer: with one generator, perfbench's
    # mass check reads p_i∗g at row 1 + i
    axes_n = (Axis(0.0, 8.0, 8), Axis(0.0, 9.6, 8), Axis(0.0, 8.0, 8))
    axes_m = (axes_n[1], axes_n[2], axes_n[0])
    gens = GENS + [gaussian([-0.1, 0.1, 0.2], [1.0, 0.4, 0.9])]
    model = ideal_model(gens, PROBES, 3, axes_n, axes_m)

    def tilde(g):
        return lambda base, shift: tilde_eval_coords(g, "K1", 3, base, shift)

    lattice = {
        "N": lambda p, g: convolve_group_lattice([p], g, axes_n, axes_n),
        "M": lambda p, g: convolve_extended_c_lattice(
            [p], tilde(g), 3, axes_m, axes_n),
    }
    for side, axes in (("N", axes_n), ("M", axes_m)):
        mesh = grid_mesh(axes)
        sampled = gens if side == "N" else [gamma_inv(g, "K1", 3)
                                            for g in gens]
        want = np.stack(
            [g(mesh).ravel() for g in sampled]
            + [lattice[side](p, g)[0] for p in PROBES for g in gens])
        assert np.array_equal(model.samples(side), want)


def test_ideal_model_evaluates_each_generator_once_per_side(monkeypatch):
    # one lattice engine call per generator and side evaluates g once for
    # all the probes, so g's point count does not grow with the probes
    axes_n = (Axis(0.0, 8.0, 8), Axis(0.0, 9.6, 8), Axis(0.0, 8.0, 8))
    axes_m = (axes_n[1], axes_n[2], axes_n[0])
    g = GENS[0]
    probes = PROBES + [gaussian([-0.1, 0.1, 0.2], [4.0, 4.0, 4.0])]
    call, points = TestFunction.__call__, []

    def spy(self, x):
        if self is g:
            points[-1] += np.asarray(x)[..., 0].size
        return call(self, x)

    monkeypatch.setattr(TestFunction, "__call__", spy)
    for k in (1, 3):
        points.append(0)
        ideal_model([g], probes[:k], 3, axes_n, axes_m)
    assert points[0] == points[1] > 0


@pytest.mark.parametrize("side", ["N", "M"])
def test_probes_are_members(side):
    # closure_residual's one-probe rows lie in the span of the batched ones
    model = heisenberg_model()
    for p in model.probes:
        assert closure_residual(model, p, side) <= 1e-12


def test_model_validation():
    with pytest.raises(ValueError):
        ideal_model([], PROBES, 3, AXES_N, AXES_M)
    with pytest.raises(ValueError):
        ideal_model(GENS, PROBES, 3, AXES_N[:2], AXES_M)
    # the count is checked before the default M axes are built from N's
    with pytest.raises(ValueError, match="axis count"):
        ideal_model(GENS, PROBES, 3, AXES_N[:2])
    model = heisenberg_model()
    for side in ("X", "n"):
        with pytest.raises(ValueError, match="side"):
            model.samples(side)
        with pytest.raises(ValueError, match="side"):
            model.cell(side)
    # the lattice engines serve m = 3 only: refused on N's six axes at m = 4
    with pytest.raises(ValueError, match="m = 3"):
        ideal_model(GENS, PROBES, 4, AXES_N * 2)


def test_gram_transport_preserved():
    model = heisenberg_model()
    assert transport_gram_deviation(model) < 1e-6


def test_correspondence_gating_probe():
    model = heisenberg_model()
    lines = correspondence_check(model, [GATING])
    assert isinstance(lines[0], CorrespondenceLine)
    assert lines[0].difference < 1e-3
    assert lines[0].n_residual > 1e-3  # genuinely resolvable, not span-exact


def test_correspondence_empty_probes():
    assert correspondence_check(heisenberg_model(), []) == []


def test_correspondence_difference_tracks_residual():
    # The N/M residual difference does not vanish under refinement (the
    # transport is not a pointwise algebra map); it stays a small fraction
    # of the residual itself.  Documented as the honest stable statement.
    model = heisenberg_model()
    psi = gaussian([-0.1, 0.0, 0.15], [1.2, 0.4, 1.0])
    rn = closure_residual(model, psi, "N")
    rm = closure_residual(model, psi, "M")
    assert abs(rn - rm) < 0.05 * max(rn, rm)


def test_closure_zero_probe():
    zero = TestFunction(3, ((0.0, (0, 0, 0), (0.0,) * 3, (1.0,) * 3),))
    assert closure_residual(heisenberg_model(), zero, "N") == 0.0


def test_closure_mollifier_probe():
    # ψ concentrated near the identity: ψ∗g ≈ g up to the mollifier scale
    model = heisenberg_model()
    psi = gaussian([0.0, 0.0, 0.0], [16.0, 16.0, 16.0])
    assert closure_residual(model, psi, "N") < 5e-2


def test_closure_monotone_in_dictionary():
    psi = gaussian([0.3, 0.1, -0.2], [1.1, 0.45, 1.0])
    r1 = closure_residual(heisenberg_model(1), psi, "N")
    r2 = closure_residual(heisenberg_model(2), psi, "N")
    assert r2 <= r1 + 1e-12


def test_closure_side_validation():
    with pytest.raises(ValueError):
        closure_residual(heisenberg_model(), GATING, "T")


def test_rank_deficient_gram_warns():
    g = GENS[0]
    with pytest.warns(UserWarning, match="rank-deficient"):
        model = ideal_model([g, g], [], 3, AXES_N, AXES_M)
        r = closure_residual(model, GATING, "N")
    assert np.isfinite(r)


def test_intertwine_zero_psi():
    zero = TestFunction(3, ((0.0, (0, 0, 0), (0.0,) * 3, (1.0,) * 3),))
    pts = np.zeros((1, 3))
    res, _ = gamma_intertwine_residual(zero, GENS[0], 3, pts, AXES_N, AXES_M)
    assert res == 0.0


def test_intertwine_m2_abelian_exact():
    axes = (Axis(0.0, 8.0, 32),)
    psi = gaussian([0.2], [1.0])
    phi = gaussian([-0.1], [1.3])
    pts = np.linspace(-1.0, 1.0, 7)[:, None]
    res, scale = gamma_intertwine_residual(psi, phi, 2, pts, axes, axes)
    assert res < 1e-10 * scale


def test_intertwine_heisenberg():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, (20, 3))
    psi = gaussian([0.1, -0.2, 0.0], [1.3, 0.5, 1.1])
    phi = gaussian([0.2, 0.0, -0.1], [1.0, 0.5, 0.9])
    res, scale = gamma_intertwine_residual(psi, phi, 3, pts, AXES_N, AXES_M)
    assert res < 1e-3 * scale


def test_criterion_budget_smoke():
    # the acceptance configuration must fit its time budget with headroom
    t0 = time.time()
    model = ideal_model(GENS, PROBES, 3, AXES_N, AXES_M)
    transport_gram_deviation(model)
    correspondence_check(model, [GATING])
    assert time.time() - t0 < 30.0
