"""Invariant extension of functions on N (resp. S) to K1 (resp. H).

The operational rule is f̃(base, u) = f(ι(u) ∘ base), where ι embeds the
abelian shift into the base group: for K1 it fills the acting layers
(layers 1..m-2) of N, for H it is (identity of N, u) ∈ S.  Restricting
u = 0 recovers f; restricting the base's acting coordinates to zero gives
the abelian picture M (resp. T).  Γ is the twist identifying the two
restrictions: Γ(h)(g) = h(top of ι(x)^{-1}g, x) with x the acting
coordinates of g; it inverts restrict_to_M pointwise.

M coordinates are ordered (top layer, shift) for K1 and (N coords, shift)
for H; in both cases dim M = dim of the base group's N part (K1) or of S
itself (H), which is what lets constant-coefficient operators on M stand in
for invariant operators on the group.
"""

import numpy as np

from .groups import (
    ExtendedPoint, SolvableElement, UnipotentElement, empty_columns, n_mul,
    n_inv, rho_apply,
)

__all__ = [
    "iota_coords", "acting_part", "top_part", "tilde_eval_coords",
    "tilde_eval", "invariance_residual", "restrict_to_M", "gamma",
    "gamma_inv", "m_dim",
]


def _shift_dim(case, m):
    if case == "K1":
        return m * (m - 1) // 2 - (m - 1)
    return m - 1


def m_dim(case, m):
    """Dimension of the abelian picture M (K1) or T (H)."""
    if case == "K1":
        return m * (m - 1) // 2
    return m * (m - 1) // 2 + (m - 1)


def acting_part(case, m, coords):
    """Acting slots of base coordinates: lower layers (K1) or A part (H)."""
    coords = np.asarray(coords)
    k = _shift_dim(case, m)
    if case == "K1":
        return coords[..., :k]
    return coords[..., -k:]


def top_part(m, ncoords):
    """Top layer (column m) of N coordinates."""
    ncoords = np.asarray(ncoords)
    return ncoords[..., m * (m - 1) // 2 - (m - 1):]


def iota_coords(case, m, shift):
    """Embed a shift vector into base-group coordinates."""
    shift = np.asarray(shift, dtype=float)
    d_n = m * (m - 1) // 2
    if case == "K1":
        out = empty_columns(shift.shape[:-1] + (d_n,))
        out.fill(0.0)
        out[..., : d_n - (m - 1)] = shift
        return out
    out = empty_columns(shift.shape[:-1] + (d_n + m - 1,))
    out.fill(0.0)
    out[..., d_n:] = shift
    return out


def _iota_compose(case, m, shift, base):
    """Coordinates of ι(shift) ∘ base.  For H, ι(u) ∘ (n, t) = (ρ(u)n, u + t):
    no S product and no zero-padded ι(u) are formed."""
    if case == "K1":
        return n_mul(m, iota_coords(case, m, shift), base)
    d_n = m * (m - 1) // 2
    out = empty_columns(np.broadcast_shapes(shift.shape[:-1], base.shape[:-1])
                        + base.shape[-1:])
    rho_apply(m, shift, base[..., :d_n], out=out[..., :d_n])
    for i in range(m - 1):
        np.add(shift[..., i], base[..., d_n + i], out=out[..., d_n + i])
    return out


def tilde_eval_coords(f, case, m, base, shift):
    """Batched f̃(base, shift) = f(ι(shift) ∘ base) on coordinate arrays."""
    base = np.asarray(base, dtype=float)
    shift = np.asarray(shift, dtype=float)
    return f(_iota_compose(case, m, shift, base))


def tilde_eval(f, p):
    """f̃ at an ExtendedPoint."""
    m = p.spec.m
    if p.case == "K1":
        base = p.base.entries
    else:
        base = p.base.coords()
    return complex(tilde_eval_coords(f, p.case, m, base, p.shift))


def invariance_residual(f, p, s):
    """|f̃(ι(s)∘base, shift-s) - f̃(base, shift)| for acting-factor s."""
    s = np.asarray(s, dtype=float)
    m = p.spec.m
    base = p.base.entries if p.case == "K1" else p.base.coords()
    twisted = _iota_compose(p.case, m, s, base)
    a = tilde_eval_coords(f, p.case, m, twisted, p.shift - s)
    b = tilde_eval_coords(f, p.case, m, base, p.shift)
    return float(abs(a - b))


def restrict_to_M(f, case, m):
    """f̃ on the abelian locus: (v, u) ↦ f̃(base(top=v, acting=0), u)."""
    d_n = m * (m - 1) // 2
    k = _shift_dim(case, m)

    def h(points):
        points = np.asarray(points, dtype=float)
        if case == "K1":
            v, u = points[..., : m - 1], points[..., m - 1:]
            base = np.zeros(points.shape[:-1] + (d_n,))
            base[..., d_n - (m - 1):] = v
        else:
            n, u = points[..., :d_n], points[..., d_n:]
            base = np.concatenate([n, np.zeros(points.shape[:-1] + (k,))], axis=-1)
        return tilde_eval_coords(f, case, m, base, u)

    return h


def gamma(h, case, m):
    """Γ: functions on M → functions on the group (ρ-twist of the top slot)."""
    d_n = m * (m - 1) // 2

    def g(points):
        points = np.asarray(points, dtype=float)
        if case == "K1":
            x = points[..., : d_n - (m - 1)]
            unwound = n_mul(m, n_inv(m, iota_coords("K1", m, x)), points)
            v = unwound[..., d_n - (m - 1):]
            return h(np.concatenate([v, x], axis=-1))
        n, t = points[..., :d_n], points[..., d_n:]
        return h(np.concatenate([rho_apply(m, -t, n), t], axis=-1))

    return g


def gamma_inv(F, case, m):
    """Γ^{-1}: functions on the group → functions on M."""
    d_n = m * (m - 1) // 2

    def h(points):
        points = np.asarray(points, dtype=float)
        if case == "K1":
            v, u = points[..., : m - 1], points[..., m - 1:]
            top = np.zeros(points.shape[:-1] + (d_n,))
            top[..., d_n - (m - 1):] = v
            return F(n_mul(m, iota_coords("K1", m, u), top))
        n, u = points[..., :d_n], points[..., d_n:]
        return F(np.concatenate([rho_apply(m, u, n), u], axis=-1))

    return h
