"""Invariant extension of functions on N (resp. S) to K1 (resp. H).

The operational rule is f̃(base, u) = f(ι(u) ∘ base), where ι embeds the
abelian shift into the base group: for K1 it fills the acting layers
(layers 1..m-2) of N, for H it is (identity of N, u) ∈ S.  Restricting
u = 0 recovers f; restricting the base's acting coordinates to zero gives
the abelian picture M (resp. T).  Γ is the twist identifying the two
restrictions: Γ(h)(g) = h(top of ι(x)^{-1}g, x) with x the acting
coordinates of g.  Its inverse Γ⁻¹ is the restriction to M:
Γ⁻¹(f)(v, u) = f̃(base(top=v, acting=0), u).

M coordinates are ordered (top layer, shift) for K1 and (N coords, shift)
for H; in both cases dim M = dim of the base group's N part (K1) or of S
itself (H), which is what lets constant-coefficient operators on M stand in
for invariant operators on the group.  The slots, ι and the Γ coordinate
maps are those of ``groups.law(case, m)``.
"""

import numpy as np

from .groups import _Bilinear, law
from .testfuncs import TestFunction

__all__ = ["tilde_eval_coords", "gamma", "gamma_inv"]


def tilde_eval_coords(f, case, m, base, shift):
    """Batched f̃(base, shift) = f(ι(shift) ∘ base) on coordinate arrays.
    A bilinear block base (groups), and a block shift with it, stay blocks
    for a TestFunction f; any other f gets ι(shift) ∘ their dense
    values."""
    if not (isinstance(f, TestFunction) and isinstance(base, _Bilinear)):
        base = np.asarray(base, dtype=float)
    if not isinstance(base, _Bilinear) or not isinstance(shift, _Bilinear):
        shift = np.asarray(shift, dtype=float)
    return f(law(case, m).compose(shift, base))


def gamma(h, case, m):
    """Γ: functions on M → functions on the group (ρ-twist of the top slot)."""
    L = law(case, m)
    return lambda points: h(L.gamma(np.asarray(points, dtype=float)))


def gamma_inv(F, case, m):
    """Γ^{-1}: functions on the group → functions on M, the restriction
    of F̃ to the abelian locus: (v, u) ↦ F̃(base(top=v, acting=0), u)."""
    L = law(case, m)
    return lambda points: F(L.gamma_inv(np.asarray(points, dtype=float)))
