"""Finite-dimensional ideal correspondence between L¹(N) and L¹(M).

A true L¹-ideal is infinite-dimensional; the computational stand-in is a
finite dictionary: a list of generators on N together with their left
convolutions against a fixed probe set.  Ideal membership of ψ∗g is proxied
by the least-squares distance of its grid samples from the span of the
dictionary, solved through the normal equations on the cached Gram matrix.
Grid samples of the dictionary's convolutions come from the exact lattice
engines of ``harmonic``; every point off the lattice (the Γ⁻¹ pullback, the
intertwining) goes through the direct engines.

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

import numpy as np

from .extension import gamma_inv, tilde_eval_coords
from .groups import law
from .harmonic import (
    convolve_extended_c, convolve_extended_c_lattice,
    convolve_extended_c_substituted, convolve_group, convolve_group_lattice,
)
from .testfuncs import grid_mesh

__all__ = [
    "IdealModel", "ideal_model", "gamma_intertwine_residual",
    "gamma_literal_residual", "closure_residual", "correspondence_check",
    "transport_gram_deviation", "CorrespondenceLine",
]


def _tilde(f, m):
    return lambda base, shift: tilde_eval_coords(f, "K1", m, base, shift)


@dataclass(frozen=True)
class _Convolution:
    """Dictionary member ψ∗g on N (side "N") or (ψ ∗_c g̃)|_M on M (side
    "M"), with ψ's quadrature nodes on the N axes.

    Called at points it runs the direct engine, which any point needs (the
    Γ⁻¹ pullback lands off the lattice); on_grid samples it with the exact
    lattice engine, the same Riemann sums.
    """

    psi: object
    g: object
    m: int
    axes: tuple
    side: str

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        flat = pts.reshape(-1, pts.shape[-1])
        if self.side == "N":
            out = convolve_group(self.psi, self.g, "N", self.m, flat,
                                 self.axes)
        else:
            base, u = law("K1", self.m).m_split(flat)
            out = convolve_extended_c(self.psi, _tilde(self.g, self.m), "K1",
                                      self.m, base, u, self.axes)
        return out.reshape(pts.shape[:-1])

    def on_grid(self, out_axes):
        """Samples at every node of out_axes, flattened in C order."""
        if self.side == "M":
            gf = convolve_extended_c_lattice(
                self.psi, _tilde(self.g, self.m), self.m, out_axes, self.axes)
        elif self.m == 3:
            gf = convolve_group_lattice(self.psi, self.g, out_axes, self.axes)
        else:
            return self(grid_mesh(out_axes)).ravel()
        return gf.samples.ravel()


def _grid_samples(f, axes):
    """f at every node of the axes, flattened in C order."""
    if isinstance(f, _Convolution):
        return f.on_grid(axes)
    return np.asarray(f(grid_mesh(axes)), dtype=complex).ravel()


@dataclass
class IdealModel:
    """Finite proxy for an ideal of L¹(N): generators, dictionary, Gram."""

    m: int
    generators: list
    probes: list
    axes: tuple
    axes_m: tuple
    dictionary: list = field(default_factory=list)
    dictionary_m: list = field(default_factory=list)
    gram: np.ndarray = None
    gram_m: np.ndarray = None
    _cache: dict = field(default_factory=dict, repr=False)

    def samples(self, side):
        """Grid samples of the dictionary, rows = members (cached)."""
        if side not in self._cache:
            axes = self.axes if side == "N" else self.axes_m
            fns = self.dictionary if side == "N" else self.dictionary_m
            self._cache[side] = np.stack([_grid_samples(f, axes) for f in fns])
        return self._cache[side]

    def cell(self, side):
        axes = self.axes if side == "N" else self.axes_m
        return float(np.prod([a.step for a in axes]))


def ideal_model(generators, probes, m, axes, axes_m=None):
    """Build the dictionary (generators + probe convolutions) and its Gram.

    The N-side dictionary holds each generator g and each p∗g (group law);
    the M-side dictionary is rebuilt on M by the same rule from the
    transported generators, with ∗ replaced by the commutative ∗_c.  The
    convolutions are sampled by the lattice engines, so each M axis must
    share its step with the N axis of the same coordinate (the default
    axes_m is the N axes in M order).
    """
    if not generators:
        raise ValueError("at least one generator is required")
    L = law("K1", m)
    if axes_m is None:  # the N axes in M order (top, shift)
        axes_m = tuple(axes[i] for i in L.m_order)
    if len(axes) != L.base.dim or len(axes_m) != L.base.dim:
        raise ValueError("axis count does not match the group dimension")
    model = IdealModel(m=m, generators=list(generators), probes=list(probes),
                       axes=tuple(axes), axes_m=tuple(axes_m))
    for g in generators:
        model.dictionary.append(g)
        model.dictionary_m.append(gamma_inv(g, "K1", m))
    for p in probes:
        for g in generators:
            model.dictionary.append(_Convolution(p, g, m, axes, "N"))
            model.dictionary_m.append(_Convolution(p, g, m, axes, "M"))
    for side in ("N", "M"):
        V = model.samples(side)
        G = (V.conj() @ V.T) * model.cell(side)
        if side == "N":
            model.gram = G
        else:
            model.gram_m = G
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
    axes = model.axes if side == "N" else model.axes_m
    V = model.samples(side)
    gram = model.gram if side == "N" else model.gram_m
    cell = model.cell(side)
    worst = 0.0
    for g in model.generators:
        w = _Convolution(psi, g, model.m, model.axes, side).on_grid(axes)
        worst = max(worst, _span_residual(V, gram, cell, w))
    return worst


def transport_gram_deviation(model):
    """Max relative deviation of the Gram under the exact Γ pullback.

    Pulls each N-side dictionary member back through Γ⁻¹ (a volume-
    preserving coordinate twist), recomputes the Gram on the M grid, and
    compares with the N-side Gram.  The ∗_c-rebuilt M dictionary is *not*
    used here: it is a different (commutative-picture) object.
    """
    if "T" not in model._cache:
        mesh = grid_mesh(model.axes_m)
        model._cache["T"] = np.stack(
            [np.asarray(gamma_inv(f, "K1", model.m)(mesh),
                        dtype=complex).ravel() for f in model.dictionary])
    T = model._cache["T"]
    gram_t = (T.conj() @ T.T) * model.cell("M")
    scale = float(np.max(np.abs(model.gram)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(model.gram - gram_t)) / scale)


@dataclass(frozen=True)
class CorrespondenceLine:
    n_residual: float
    m_residual: float
    difference: float


def correspondence_check(model, probes, gram_tol=1e-6):
    """Per-probe (N-side, M-side) residual pairs and their differences.

    The volume-preservation of the transport is asserted first: if the two
    Gram matrices disagree beyond gram_tol the comparison is meaningless.
    """
    dev = transport_gram_deviation(model)
    if dev > gram_tol:
        raise ValueError(
            f"transported Gram deviates by {dev:.3e} > {gram_tol:.3e}")
    lines = []
    for psi in probes:
        rn = closure_residual(model, psi, "N")
        rm = closure_residual(model, psi, "M")
        lines.append(CorrespondenceLine(rn, rm, abs(rn - rm)))
    return lines


def gamma_intertwine_residual(psi, phi, m, points, axes_psi, axes_f):
    """Max deviation, and the scale, of the ∗_c/∗ intertwining on N.

    The commutative side (ψ ∗_c φ̃) restricted to N is quadratured with
    nodes on φ̃'s abelian-slot mass; the group side ψ∗φ with nodes on ψ's
    mass.  Returns (residual, scale) with scale = max |ψ∗φ| over the points.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    F = _tilde(phi, m)
    shift0 = np.zeros((pts.shape[0], law("K1", m).shift_dim))
    lhs = convolve_extended_c_substituted(psi, F, "K1", m, pts, shift0, axes_f)
    rhs = convolve_group(psi, phi, "N", m, pts, axes_psi)
    scale = float(np.max(np.abs(rhs)))
    return float(np.max(np.abs(lhs - rhs))), scale


def gamma_literal_residual(psi, phi, m, points, axes_n, axes_m):
    """Diagnostic: Γ applied after a genuine M-convolution of restrictions.

    Rearranges ψ into M order, convolves abelianly with φ's M-restriction,
    pulls back through the coordinate twist of Γ, and compares with ψ∗φ.
    This reading is *not* an identity for nonabelian N (the convolution
    leaves the invariant locus); the returned value documents the gap.
    """
    L = law("K1", m)
    h = gamma_inv(phi, "K1", m)
    n_order = np.argsort(L.m_order)  # M slots → ψ's N order

    def psi_m(pts):
        return psi(np.asarray(pts, dtype=float)[..., n_order])

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lhs = convolve_group(psi_m, h, "M", L.base.dim, L.gamma(pts), axes_m)
    rhs = convolve_group(psi, phi, "N", m, pts, axes_n)
    scale = float(np.max(np.abs(rhs)))
    return float(np.max(np.abs(lhs - rhs))), scale
