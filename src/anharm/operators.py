"""Enveloping-algebra elements as differential operators and their
fundamental solutions.

An EnvelopingElement is a complex combination of ordered words in the
generators E_i of the base group.  On the group it acts as
P_u f(x) = Σ c_w D_{w_1}···D_{w_k} f(x) with
D_i f(x) = d/dt f(exp(-tE_i)·x)|_0, realized by nested central differences
on the analytic evaluation of f (the one-parameter subgroups are exact in
coordinates).  On the abelian picture every generator acts as -∂_i, so Q_u
is constant-coefficient and has the polynomial symbol
symbol(u)(λ) = Σ c_w Π (-iλ_{w_j}).

Fundamental solutions are built by Tikhonov-regularized Fourier division on
the abelian picture, E = 𝓕⁻¹[conj(P)/(|P|²+ε²)], and pulled back to the
group along Γ; the twisted coordinate is evaluated by a semidiscrete
inverse transform (exact trigonometric sum), never by interpolation.
Candidate solutions are graded by weak residuals |⟨E, Pᵤᵗφ⟩ - φ(e)|.
"""

from dataclasses import dataclass

import numpy as np

from .extension import tilde_eval_coords
from .groups import law
from .harmonic import fourier_inverse, inverse_in_place
from .testfuncs import GridFunction, dual_axis, grid_mesh, grid_nodes

__all__ = [
    "EnvelopingElement", "SymbolPolynomial", "ZeroOperatorError",
    "generator_flow", "apply_P", "apply_Q", "symbol",
    "transpose", "operator_identity_residual", "FundamentalSolution",
    "fundamental_solution_abelian", "fundamental_solution_group",
    "weak_residuals", "apply_P_grid",
]

MAX_WORD = 4

_DEFAULT_H = {0: 1e-4, 1: 1e-4, 2: 3e-3, 3: 1e-2, 4: 3e-2}


class ZeroOperatorError(ValueError):
    """Raised when an operator with identically-zero symbol is inverted."""


@dataclass(frozen=True)
class EnvelopingElement:
    """Σ c_w · E_{w_1}···E_{w_k}; terms = (coefficient, word)."""

    dim: int
    terms: tuple

    def __post_init__(self):
        norm = []
        for c, word in self.terms:
            word = tuple(int(i) for i in word)
            if any(i < 0 or i >= self.dim for i in word):
                raise IndexError(f"generator index out of range in word {word}")
            norm.append((complex(c), word))
        object.__setattr__(self, "terms", tuple(norm))

    @property
    def max_word(self):
        return max((len(w) for _, w in self.terms), default=0)


def transpose(u):
    """Formal transpose: words reversed, coefficient × (-1)^{|word|}."""
    return EnvelopingElement(
        u.dim, tuple((c * (-1.0) ** len(w), w[::-1]) for c, w in u.terms))


# ── generator flows and stencils ─────────────────────────────────────────────

def generator_flow(group, m, i):
    """x ↦ exp(tE_i)·x in coordinates (exact); returns flow(t, x).  On "M"
    (m may be None there) the flow is a translation."""
    L = law(group, m)
    if L.dim is not None and i >= L.dim:
        raise IndexError(f"generator {i} out of range for {group}, m={m}")

    def flow(t, x):
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape[-1])
        g[i] = t
        return L.mul(g, x)

    return flow


def _apply_word(f, word, flows, x, h):
    if not word:
        return np.asarray(f(x), dtype=complex)
    flow = flows[word[0]]
    lo = _apply_word(f, word[1:], flows, flow(-h, x), h)
    hi = _apply_word(f, word[1:], flows, flow(h, x), h)
    return (lo - hi) / (2 * h)


def apply_P(u, f, group, m, points, h_fd=None):
    """P_u f at points: nested group-flow stencils per word.  A single
    generator D_i f(x) = d/dt f(exp(-tE_i)·x)|_0 is the one-letter word
    ((1, (i,)),)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if u.max_word > MAX_WORD:
        raise ValueError(f"word length {u.max_word} exceeds supported {MAX_WORD}")
    flows = {i: generator_flow(group, m, i) for i in range(u.dim)}
    out = np.zeros(points.shape[0], dtype=complex)
    for c, word in u.terms:
        h = h_fd if h_fd is not None else _DEFAULT_H[len(word)]
        out += c * _apply_word(f, word, flows, points, h)
    return out


def apply_Q(u, f, points, h_fd=None):
    """Q_u f at points: every generator acts as -∂_i."""
    return apply_P(u, f, "M", None, points, h_fd)


# ── symbols ──────────────────────────────────────────────────────────────────

@dataclass(frozen=True)
class SymbolPolynomial:
    """Polynomial in λ: terms map exponent tuples → complex coefficients."""

    dim: int
    terms: tuple  # ((exponents, coefficient), ...)

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        out = np.zeros(lam.shape[:-1], dtype=complex)
        for exps, c in self.terms:
            val = np.full(lam.shape[:-1], c, dtype=complex)
            for i, e in enumerate(exps):
                if e:
                    val *= lam[..., i] ** e
            out += val
        return out

    def on_grid(self, nodes):
        """The symbol on the product grid of 1-D node arrays, shape
        (P1, ..., Pk), with no mesh: each factor λ_i^e is taken on axis i's
        nodes and broadcast, in the order __call__ multiplies them, so the
        values are __call__'s on the mesh, bit for bit."""
        nodes = [np.asarray(g, dtype=float) for g in nodes]
        shape = tuple(g.size for g in nodes)
        out = np.zeros(shape, dtype=complex)
        val = np.empty(shape, dtype=complex)
        for exps, c in self.terms:
            val.fill(c)
            for i, e in enumerate(exps):
                if e:
                    val *= (nodes[i] ** e).reshape(
                        (-1,) + (1,) * (len(shape) - 1 - i))
            out += val
        return out

    @property
    def is_zero(self):
        return all(abs(c) == 0 for _, c in self.terms)


def symbol(u):
    """The Fourier multiplier of Q_u: word (i_1..i_k) ↦ Π (-iλ_{i_j})."""
    acc = {}
    for c, word in u.terms:
        exps = [0] * u.dim
        for i in word:
            exps[i] += 1
        key = tuple(exps)
        acc[key] = acc.get(key, 0j) + c * (-1j) ** len(word)
    return SymbolPolynomial(u.dim, tuple(sorted(acc.items())))


# ── the operator identity on invariant extensions ────────────────────────────

def q_remap(u, case, m):
    """Map group generator indices to the M slots they act on.

    Differentiating the invariance relation f̃(ι(s)∘base, shift−s) = f̃
    pairs each acting-layer generator with −∂ on its shift slot and each
    top-layer generator with −∂ on its top slot.  In M coordinates
    (top, shift) for K1 this sends acting index i ↦ (m−1)+i and top index
    i ↦ i−k; for H the (n, shift) order keeps every index in place.
    """
    slot = {b: j for j, b in enumerate(law(case, m).m_order)}
    return EnvelopingElement(
        u.dim, tuple((c, tuple(slot[i] for i in w)) for c, w in u.terms))


def operator_identity_residual(u, f, case, m, points, h_fd=None):
    """max |P_u f̃(p) − Q_u f̃(p)| over extended points; returns (res, scale).

    P_u differentiates the base-group slots (group N for K1, S for H) at
    fixed shift; Q_u differentiates the abelian (top, shift) slots at fixed
    acting coordinates.  Both run once over all the points, row by row.
    """
    L = law(case, m)
    base, shift = (np.array(c, dtype=float) for c in zip(*points))

    def F(b):
        return tilde_eval_coords(f, case, m, b, shift)

    def h(y):
        return tilde_eval_coords(f, case, m,
                                 *L.m_split(y, base[:, L.acting]))

    p_vals = apply_P(u, F, L.base.name, m, base, h_fd)
    y0 = np.concatenate([base[:, L.top], shift], axis=1)
    uq = q_remap(EnvelopingElement(y0.shape[1], u.terms), case, m)
    q_vals = apply_Q(uq, h, y0, h_fd)
    scale = float(max(np.max(np.abs(p_vals)), np.max(np.abs(q_vals)), 1e-300))
    return float(np.max(np.abs(p_vals - q_vals))), scale


# ── fundamental solutions ────────────────────────────────────────────────────

@dataclass(frozen=True)
class FundamentalSolution:
    values: GridFunction
    epsilon: float


def _divided_symbol(u, axes, epsilon):
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    sym = symbol(u)
    if sym.is_zero:
        raise ZeroOperatorError("operator symbol is identically zero")
    dual = tuple(dual_axis(a) for a in axes)
    P = sym.on_grid([grid_nodes(a) for a in dual])
    den = np.abs(P)
    np.square(den, out=den)
    den += epsilon**2
    np.conjugate(P, out=P)
    P /= den  # conj(P)/(|P|²+ε²), one grid array besides P
    return dual, P


def fundamental_solution_abelian(u, axes, epsilon=1e-8):
    """E = 𝓕⁻¹[conj(P)/(|P|²+ε²)] on the given spatial axes."""
    axes = tuple(axes)
    dual, Ehat = _divided_symbol(u, axes, epsilon)
    E = fourier_inverse(GridFunction(dual, Ehat), axes)
    return FundamentalSolution(E, float(epsilon))


# The Γ pullback's one off-grid M coordinate, in closed form, for the
# (group, m) whose other M coordinates land on the grid: Γ(h)(x, z, y) =
# h(z − x·y, y, x) on N, m = 3, and Γ(h)(n, t) = h(e^{−2t}·n, t) on S, m = 2.
_TWISTS = {
    ("N", 3): lambda g: g[..., 1] - g[..., 0] * g[..., 2],
    ("S", 2): lambda g: np.exp(-2.0 * g[..., 1]) * g[..., 0],
}


def fundamental_solution_group(u, group, m, axes, epsilon=1e-8):
    """Γ-pullback of the abelian fundamental solution onto group coordinates.

    Supported: abelian N (m=2), Heisenberg N (m=3), S (m=2).  The abelian
    solution is computed on the axes permuted into M order, which makes
    every untwisted coordinate land on-grid; the single twisted coordinate
    is evaluated by the semidiscrete inverse transform along its frequency
    axis.
    """
    ext = law(group, m).extension()
    if ext.shift_dim and (group, m) not in _TWISTS:  # before any mesh
        raise ValueError(f"group solution not supported for {group!r}, m={m}")
    axes = tuple(axes)
    uq = q_remap(u, ext.name, m)
    if not ext.shift_dim:  # abelian N: Γ is the identity
        return fundamental_solution_abelian(uq, axes, epsilon)

    perm = ext.m_order
    m_axes = tuple(axes[p] for p in perm)
    dual, C = _divided_symbol(uq, m_axes, epsilon)  # refuses ε ≤ 0, P ≡ 0
    w = _TWISTS[group, m](grid_mesh(axes))

    # invert the on-grid tail axes (all but the first M axis) in place,
    # keeping the first axis in frequency: C[λ_1, tail spatial indices]
    inverse_in_place(C, dual[1:], m_axes[1:], range(1, len(m_axes)))

    # E(x) = Σ_l C[l, tail(x)] e^{iλ_l w(x)} Δλ/(2π) with λ_l = (l − P/2)Δλ,
    # by Horner in z = e^{iΔλ w} over l ≥ P/2 and in z̄ = z⁻¹ over l < P/2,
    # so no power exceeds P/2; C[l] is laid on the group axes each M axis
    # came from, with size 1 on the twisted one
    C = np.ascontiguousarray(np.expand_dims(C, 1).transpose(
        [0] + [1 + perm.index(g) for g in range(len(axes))]))
    half = C.shape[0] // 2
    z = np.exp(1j * dual[0].step * w)
    E, lo = np.empty(w.shape, dtype=complex), np.empty(w.shape, dtype=complex)
    E[...], lo[...] = C[-1], C[0]
    for c in C[-2:half - 1:-1]:
        E *= z
        E += c
    np.conjugate(z, out=z)
    for c in C[1:half]:
        lo *= z
        lo += c
    lo *= z
    E += lo
    E *= dual[0].step / (2 * np.pi)
    return FundamentalSolution(GridFunction(axes, E), float(epsilon))


def apply_P_grid(u, f, group, m, axes, h_fd=None):
    """P_u f sampled on the product grid (stencils on analytic f)."""
    mesh = grid_mesh(axes)
    flat = mesh.reshape(-1, mesh.shape[-1])
    vals = apply_P(u, f, group, m, flat, h_fd)
    return GridFunction(tuple(axes), vals.reshape(mesh.shape[:-1]))


def weak_residuals(sol, u, group, m, phis, h_fd=None):
    """|⟨E, P_uᵗ φ⟩ − φ(e)| per test function φ, by grid quadrature."""
    E = sol.values
    ut = transpose(u)
    out = []
    dim = len(E.axes)
    e = np.zeros(dim)
    for phi in phis:
        tphi = apply_P_grid(ut, phi, group, m, E.axes, h_fd)
        pairing = np.sum((E.samples * tphi.samples).ravel(order="C")) * E.cell
        out.append(float(abs(pairing - complex(phi(e)))))
    return out
