"""Finite-dimensional ideal correspondence between L¹(N) and L¹(M).

A true L¹-ideal is infinite-dimensional; the computational stand-in is a
finite dictionary: a list of generators on N together with their left
convolutions against a fixed probe set.  Ideal membership of ψ∗g is proxied
by the least-squares distance of its grid samples from the span of the
dictionary, solved through the normal equations on the cached Gram matrix.
One function samples the dictionary's convolutions on N, on M, and pulled
back through Γ⁻¹ onto the M lattice ("T"; Γ⁻¹ shears N's z by x·y) by the
exact lattice engines of ``harmonic``, one call per generator for all the
probes.  The intertwining, off the lattice, goes through the direct engines.

The correspondence under Γ is tested two ways:

* ``gamma_intertwine_residual`` checks that the commutative ∗_c convolution
  against the invariant extension, restricted back to N, reproduces the
  noncommutative group convolution ψ∗φ.  The two sides use independent
  quadratures (nodes on f's abelian-slot mass vs nodes on ψ's mass), so a
  shared-integrand machine zero cannot mask a wrong law.
* ``correspondence_check`` compares the N-side membership residual with the
  M-side residual computed from the transported dictionary; the transport
  is volume-preserving, so the two residuals must agree.

Coordinates on M are ordered (top layer, shift) throughout.
"""

import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .extension import gamma_inv, tilde_eval_coords
from .groups import law
from .harmonic import (
    convolve_extended_c_lattice, convolve_extended_c_substituted,
    convolve_group, convolve_group_lattice, convolve_group_pullback_lattice,
)
from .testfuncs import grid_mesh

__all__ = [
    "IdealModel", "ideal_model", "gamma_intertwine_residual",
    "closure_residual", "correspondence_check",
    "transport_gram_deviation", "CorrespondenceLine", "TransportGramError",
]

# correspondence_check's bound on transport_gram_deviation
_GRAM_TOL = 1e-6


def _convolution_rows(model, side, probes):
    """p∗g on N ("N"), (p ∗_c g̃)|_M ("M") or (p∗g)∘Γ⁻¹ on M ("T") for the
    probes p, outer, and the model's generators g: one row each, by one
    call of the side's lattice engine per generator for all the probes."""
    m, axes, out_axes = model.m, model.axes, model._side_axes(side)
    if side == "N":
        rows = [convolve_group_lattice(probes, g, out_axes, axes)
                for g in model.generators]
    elif side == "M":
        rows = [convolve_extended_c_lattice(
                    probes, partial(tilde_eval_coords, g, "K1", m), m,
                    out_axes, axes)
                for g in model.generators]
    else:
        rows = [convolve_group_pullback_lattice(probes, g, out_axes, axes)
                for g in model.generators]
    return np.stack(rows, axis=1).reshape(-1, rows[0].shape[1])


def _gram(model, side):
    V = model.samples(side)
    return (V.conj() @ V.T) * model.cell(side)


@dataclass
class IdealModel:
    """Finite proxy for an ideal of L¹(N): generators, probes, and the grid
    samples of the dictionary on each side with their Grams."""

    m: int
    generators: list
    probes: list
    axes: tuple
    axes_m: tuple
    gram: np.ndarray = None
    gram_m: np.ndarray = None
    _cache: dict = field(default_factory=dict, repr=False)

    def _side_axes(self, side):
        if side not in ("N", "M", "T"):
            raise ValueError(f"side must be 'N', 'M' or 'T', got {side!r}")
        return self.axes if side == "N" else self.axes_m

    def samples(self, side):
        """Grid samples of the dictionary on a side, rows = members: the
        generators, then _convolution_rows of the probes.  "M" is the ∗_c-
        rebuilt dictionary, "T" the N one pulled back; built on first use."""
        if side not in self._cache:
            mesh = grid_mesh(self._side_axes(side))
            gens = self.generators if side == "N" else [
                gamma_inv(g, "K1", self.m) for g in self.generators]
            rows = [np.asarray(g(mesh)).reshape(1, -1) for g in gens]
            if self.probes:
                rows.append(_convolution_rows(self, side, self.probes))
            self._cache[side] = np.concatenate(rows)
        return self._cache[side]

    def cell(self, side):
        return float(np.prod([a.step for a in self._side_axes(side)]))


def ideal_model(generators, probes, m, axes, axes_m=None):
    """Sample the dictionary (generators + probe convolutions) and its Gram.

    The N-side dictionary holds each generator g and then each p∗g (group
    law), p outer; the M-side dictionary is rebuilt on M by the same rule
    from the transported generators, with ∗ replaced by the commutative
    ∗_c.  The convolutions are sampled by the lattice engines, which serve
    the Heisenberg group, so m must be 3, and each M axis must share its
    step with the N axis of the same coordinate (the default axes_m is the
    N axes in M order).
    """
    if m != 3:
        raise ValueError(f"the ideal model needs m = 3, got {m}")
    if not generators:
        raise ValueError("at least one generator is required")
    L = law("K1", m)
    if len(axes) != L.base.dim or (axes_m is not None
                                   and len(axes_m) != L.base.dim):
        raise ValueError("axis count does not match the group dimension")
    if axes_m is None:  # the N axes in M order (top, shift)
        axes_m = tuple(axes[i] for i in L.m_order)
    model = IdealModel(m=m, generators=list(generators), probes=list(probes),
                       axes=tuple(axes), axes_m=tuple(axes_m))
    model.gram, model.gram_m = _gram(model, "N"), _gram(model, "M")
    return model


def _span_residual(V, gram, cell, w):
    """Relative distance of w from the row span of V (normal equations)."""
    norm_w = np.sqrt(float(np.sum(np.abs(w) ** 2).real) * cell)
    if norm_w == 0.0:
        return 0.0
    b = (V.conj() @ w) * cell
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        warnings.warn("rank-deficient dictionary Gram; using pseudo-inverse")
        c = np.linalg.pinv(gram, rcond=1e-10) @ b
    else:
        c = np.linalg.solve(gram, b)
    r = w - V.T @ c
    return float(np.sqrt(np.sum(np.abs(r) ** 2).real * cell) / norm_w)


def closure_residual(model, psi, side):
    """Membership residual of ψ∗g (side N) or (ψ∗_c g̃)|_M (side M).

    Maximized over the model's generators g; 0 for the zero probe.
    """
    if side not in ("N", "M"):
        raise ValueError(f"side must be 'N' or 'M', got {side!r}")
    V = model.samples(side)
    gram = model.gram if side == "N" else model.gram_m
    cell = model.cell(side)
    return max(_span_residual(V, gram, cell, w)
               for w in _convolution_rows(model, side, [psi]))


def transport_gram_deviation(model):
    """Max relative deviation of the Gram under the exact Γ pullback.

    Pulls each N-side dictionary member back through Γ⁻¹ (a volume-
    preserving coordinate twist), recomputes the Gram on the M grid, and
    compares with the N-side Gram.  The ∗_c-rebuilt M dictionary is *not*
    used here: it is a different (commutative-picture) object.  The pulled-
    back members are model.samples("T"), whose rows stay float when every
    member is real, so their Gram is a real matrix product.
    """
    gram_t = _gram(model, "T")
    scale = float(np.max(np.abs(model.gram)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(model.gram - gram_t)) / scale)


class TransportGramError(ValueError):
    """The transported Gram deviates beyond correspondence_check's guard."""


@dataclass(frozen=True)
class CorrespondenceLine:
    n_residual: float
    m_residual: float
    difference: float


def correspondence_check(model, probes):
    """Per-probe (N-side, M-side) residual pairs and their differences.

    The volume-preservation of the transport is asserted first: if the two
    Gram matrices disagree beyond _GRAM_TOL the comparison is meaningless,
    and TransportGramError (a ValueError) is raised.
    """
    dev = transport_gram_deviation(model)
    if dev > _GRAM_TOL:
        raise TransportGramError(
            f"transported Gram deviates by {dev:.3e} > {_GRAM_TOL:.3e}")
    lines = []
    for psi in probes:
        rn = closure_residual(model, psi, "N")
        rm = closure_residual(model, psi, "M")
        lines.append(CorrespondenceLine(rn, rm, abs(rn - rm)))
    return lines


def gamma_intertwine_residual(psi, phi, m, points, axes_psi, axes_f):
    """Max deviation, and the scale, of the ∗_c/∗ intertwining on N.

    The commutative side (ψ ∗_c φ̃) restricted to N is quadratured with
    nodes on φ̃'s abelian-slot mass (axes_f, in M order); the group side ψ∗φ
    with nodes on ψ's mass.  Returns (residual, scale), scale = max |ψ∗φ|.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    L = law("K1", m)
    F = partial(tilde_eval_coords, phi, "K1", m)
    shift0 = np.zeros((pts.shape[0], L.shift_dim))
    axes_w = [axes_f[i] for i in np.argsort(L.m_order)]  # in base order
    lhs = convolve_extended_c_substituted(psi, F, "K1", m, pts, shift0, axes_w)
    rhs = convolve_group(psi, phi, "N", m, pts, axes_psi)
    scale = float(np.max(np.abs(rhs)))
    return float(np.max(np.abs(lhs - rhs))), scale

