"""Exact arithmetic for the groups N, A, S = AN and their extensions.

N is the group of unit upper-triangular m×m real matrices, coordinatized by
its strict upper entries in column-major ("layer") order: layer i is column
i+1, rows 1..i, so for m=3 the order is (n12, n13, n23).  A is the positive
diagonal subgroup of SL(m,R), stored in log coordinates t ∈ R^{m-1} with
a_m = exp(-Σt).  S = N⋊A carries the law (x,a)(y,b) = (x·ρ(a)y, ab) with
ρ(a) = conjugation.  The extended groups K1 (base N) and H (base S) pair a
base element with an abelian shift vector; their product is componentwise.

law(name, m) gives each of N, S, K1, H and the abelian picture M as one
Law object: its dimension, product and inverse, on N, S and M the quotient
y⁻¹x, on N and M also x·y⁻¹, and for K1 and H the embedding ι, the slots it
fills, the Γ coordinate maps and c_law.  All operations are pure and act on
numpy arrays whose last axis holds coordinates.
"""

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Law", "law", "upper_indices", "empty_columns", "n_mul", "n_inv",
    "s_mul", "s_inv", "rho_scale", "rho_apply",
]


def upper_indices(m):
    """Strict upper (i, j) pairs in layer (column-major) order."""
    return [(i, j) for j in range(1, m) for i in range(j)]


# ── batched coordinate-level laws ────────────────────────────────────────────
#
# Every law below fills one preallocated output one coordinate column at a
# time.  Operands are often [..., :d] slices of wider arrays; a ufunc over
# such a (..., d) slice runs its inner loop along the short last axis, while
# a column op runs it along the points.  Outputs are laid out by
# empty_columns, so each column is contiguous for the next law or test
# function that reads it.  None of the laws uses np.negative or a complex
# np.square with out=: on numpy 2.4.6 under AVX-512, np.negative gives wrong
# values when the input's rows are 64 bytes apart and the output is not
# contiguous (complex np.square is reported to share the fault), so a
# negation is np.multiply(x, -1.0), which keeps −0.0.

def empty_columns(shape):
    """An uninitialised float array of shape (..., dim) whose coordinate
    columns [..., k] are each contiguous."""
    shape = tuple(shape)
    return np.empty(shape[-1:] + shape[:-1]).transpose(*range(1, len(shape)), 0)


@lru_cache(maxsize=None)
def _n_terms(m):
    """Per N coordinate (i, j), in layer order, the indices of the
    coordinate pairs ((i, l), (l, j)), i < l < j, whose products the law
    adds to it."""
    idx = {ij: k for k, ij in enumerate(upper_indices(m))}
    return tuple(tuple((idx[i, l], idx[l, j]) for l in range(i + 1, j))
                 for i, j in upper_indices(m))


def _operands(out, *args):
    """args as float arrays, and out, or a fresh output of their broadcast
    shape laid out by empty_columns."""
    args = [np.asarray(a, dtype=float) for a in args]
    if out is None:
        out = empty_columns(np.broadcast_shapes(*(a.shape for a in args)))
    return (*args, out)


def _n_mul_into(m, x, y, out):
    """(xy)_ij = x_ij + y_ij + Σ_{i<l<j} x_il y_lj into out.

    out may be y itself: in layer order column (i, j) reads y only at rows
    l > i of its own column, which come after it.
    """
    tmp = None
    terms = _n_terms(m)
    for k in range(len(terms)):
        col = out[..., k]
        np.add(x[..., k], y[..., k], out=col)
        for a, b in terms[k]:
            if tmp is None:
                tmp = np.empty(out.shape[:-1])
            col += np.multiply(x[..., a], y[..., b], out=tmp)
    return out


def n_mul(m, x, y, out=None):
    """Coordinates of the product in N; broadcasts over leading axes.  The
    exact polynomial law, written into out when given."""
    return _n_mul_into(m, *_operands(out, x, y))


def _n_inv_into(m, x, out):
    """(x⁻¹)_ij = −x_ij − Σ_{i<l<j} x_il (x⁻¹)_lj into out, each column's
    rows from j−1 down to 0, so every (x⁻¹)_lj it reads is already written.
    out may be x itself: column (i, j) reads x only at (i, l) with l < j,
    in earlier layers, which come after it."""
    tmp = None
    terms = _n_terms(m)
    for k in range(len(terms) - 1, -1, -1):
        col = np.multiply(x[..., k], -1.0, out=out[..., k])
        for a, b in terms[k]:
            if tmp is None:
                tmp = np.empty(out.shape[:-1])
            col -= np.multiply(x[..., a], out[..., b], out=tmp)
    return out


def n_inv(m, x):
    """Inverse in N: the exact polynomial of the law, column by column."""
    x = np.asarray(x, dtype=float)
    return _n_inv_into(m, x, empty_columns(x.shape))


def _n_inverse(m, y, scratch):
    """y⁻¹ in scratch's first columns, which have y's shape (a buffer the
    caller keeps across calls), or in a fresh one when scratch is None."""
    if scratch is None:
        return _n_inv_into(m, y, empty_columns(y.shape))
    return _n_inv_into(m, y, scratch[..., :y.shape[-1]])


def _n_ldiv(m, y, x, out=None, scratch=None):
    """y⁻¹x in N, written into out when given: y⁻¹ into scratch
    (_n_inverse), then the law through n_mul.  Every value is
    n_mul(n_inv(y), x)'s, bit for bit."""
    y, x, out = _operands(out, y, x)
    return n_mul(m, _n_inverse(m, y, scratch), x, out)


def _n_rdiv(m, x, y, out=None, scratch=None):
    """x·y⁻¹ in N, written into out when given: y⁻¹ into scratch
    (_n_inverse), then the law through n_mul.  Every value is
    n_mul(x, n_inv(y))'s, bit for bit."""
    x, y, out = _operands(out, x, y)
    return n_mul(m, x, _n_inverse(m, y, scratch), out)


@lru_cache(maxsize=None)
def _rho_terms(m, sign=1.0):
    """Per N coordinate (i, j), the nonzero (l, sign·C_lj) of the
    integer-valued exponent sign·log(a_i/a_j) = Σ_l t_l sign·C_lj, in
    increasing l."""
    log_a = np.hstack([np.eye(m - 1), -np.ones((m - 1, 1))])  # log a = t @ log_a
    return tuple(
        tuple((l, sign * float(c))
              for l, c in enumerate(log_a[:, i] - log_a[:, j]) if c)
        for i, j in upper_indices(m))


def _columns_of(a):
    """A copy of a laid out by empty_columns, one column at a time."""
    out = empty_columns(a.shape)
    for k in range(a.shape[-1]):
        np.copyto(out[..., k], a[..., k])
    return out


def _rho_into(m, t, x, out, sign=1.0):
    """Column (i, j) of out gets (a_i/a_j)^sign · x_ij = exp(Σ_l t_l
    sign·C_lj) · x_ij; out may be x itself.  The exponential is taken only
    along the leading axes t varies on: a broadcast t repeats one value
    along each axis of stride 0.  The products are exact, so for m ≤ 3 (two
    terms at most) each exponent is rounded once, as a matrix product
    rounds it.  A t of many rows whose columns are strided is first copied
    to contiguous columns, so the terms read it once per column, not once
    per term."""
    t = t[tuple(slice(None) if st else slice(0, 1) for st in t.strides[:-1])]
    if t.size > t.shape[-1] and not t[..., 0].flags.contiguous:
        t = _columns_of(t)
    e = np.empty(t.shape[:-1])
    tmp = None
    for k, ((l0, c0), *rest) in enumerate(_rho_terms(m, sign)):
        np.multiply(t[..., l0], c0, out=e)
        for l, c in rest:
            if c == 1.0:
                e += t[..., l]
            elif c == -1.0:
                e -= t[..., l]
            else:
                if tmp is None:
                    tmp = np.empty(e.shape)
                e += np.multiply(t[..., l], c, out=tmp)
        np.multiply(np.exp(e, out=e), x[..., k], out=out[..., k])
    return out


def rho_scale(m, t):
    """Per-coordinate scale a_i/a_j of conjugation by diag(exp-coords t):
    ρ applied to ones."""
    return rho_apply(m, t, np.ones(len(_rho_terms(m))))


def rho_apply(m, t, x, out=None):
    """ρ(a) x: conjugation of N-coordinates by the diagonal with log coords
    t, written into out when given."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if out is None:
        out = empty_columns(np.broadcast_shapes(t.shape[:-1], x.shape[:-1])
                            + x.shape[-1:])
    return _rho_into(m, t, x, out)


def s_mul(m, p, q):
    """Product in S on stacked coordinates (..., dim_n + m-1):
    (x, s)(y, t) = (x · ρ(s)y, s + t), ρ(s)y written first and the N law
    then applied in place."""
    d = len(_n_terms(m))
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    out = empty_columns(np.broadcast_shapes(p.shape, q.shape))
    yn = _rho_into(m, p[..., d:], q[..., :d], out[..., :d])
    _n_mul_into(m, p[..., :d], yn, yn)
    for k in range(d, d + m - 1):
        np.add(p[..., k], q[..., k], out=out[..., k])
    return out


def s_inv(m, p):
    """(x, s)⁻¹ = (ρ(−s) x⁻¹, −s)."""
    d = len(_n_terms(m))
    p = np.asarray(p, dtype=float)
    out = empty_columns(p.shape)
    for k in range(d, d + m - 1):
        np.multiply(p[..., k], -1.0, out=out[..., k])
    xinv = _n_inv_into(m, p[..., :d], out[..., :d])
    _rho_into(m, out[..., d:], xinv, xinv)
    return out


# The least Gaussian exponent a product-form quotient gives (exponent):
# exp(-300) ≈ 5e-131, so neither np.exp nor the products that follow it
# (polynomials, coefficients, node weights down to 1e-177) meet an
# underflowing or subnormal value, on which each runs many times slower.
_EXP_FLOOR = -300.0


class _ProductQuotient:
    """y⁻¹x on S for y an N-block times an A-block, in product form: N slot
    k is G_k·P_k, with G = ρ(−t_y)'s scale on the A-block and P = n_y⁻¹n_x
    on the N-block, and A slot l is v_l − t_l, with v = t_x at the points
    and t = t_y on the A-block.  The leading axes are (N-block, A-block,
    points): P's are (b_N, 1, points), G's and t's (1, b_A, 1), and v's
    (1, points).  H's ι-composition keeps the form (composed).

    np.asarray gives the dense quotient in one buffer the block keeps, with
    _an_ldiv's dense arithmetic, bit for bit.  A TestFunction reads the
    block through exponent and centered instead, at no (b_N, b_A, points,
    dim) size."""

    def __init__(self, g, p, t, v):
        self.g, self.p, self.t, self.v = g, p, t, v
        self.shape = np.broadcast_shapes(
            g.shape[:-1], p.shape[:-1], t.shape[:-1], v.shape[:-1]) + (
            g.shape[-1] + t.shape[-1],)
        self.features = self.gs = self.weights = self.values = None
        self.dense = self.x = self.child = None
        self.stale = True  # whether the features predate the last fill

    def __array__(self, dtype=None, copy=None):
        if self.dense is None:
            self.dense = empty_columns(self.shape)
        d = self.p.shape[-1]
        for k in range(d):
            np.multiply(self.g[..., k], self.p[..., k], out=self.dense[..., k])
        for k in range(self.t.shape[-1]):
            np.subtract(self.v[..., k], self.t[..., k],
                        out=self.dense[..., d + k])
        return self.dense.astype(dtype or float, copy=False)

    def exponent(self, hw, mu):
        """Σ_i hw_i (x_i − μ_i)² over the block's coordinates x, bounded
        below at _EXP_FLOOR, in one buffer the block keeps, its memory laid
        out (N-block, points, A-block).

        With s = t + μ_A, it is one matrix product of the features (P², P,
        v², v, 1) at the N-block and the points, P's formed once per fill
        and v's once per block, with the A-block's (hw_N·G², −2·hw_N·μ_N·G,
        hw_A, −2·hw_A·s, Σ hw_A·s² + Σ hw_N·μ_N²)."""
        b_n, b_a, n = self.shape[:-1]
        d, a = self.p.shape[-1], self.t.shape[-1]
        if self.features is None:
            f = self.features = empty_columns((b_n * n, 2 * (d + a) + 1))
            v, fv = self.v.reshape(n, a), f[:, 2 * d:-1].reshape(b_n, n, 2 * a)
            np.multiply(v, v, out=fv[..., :a])
            np.copyto(fv[..., a:], v)
            f[:, -1] = 1.0
            self.gs = np.empty((2 * d, b_a))
            self.weights = np.empty((2 * (d + a) + 1, b_a))
            self.values = np.empty((b_n, n, b_a))
        if self.stale:
            f, gs = self.features, self.gs
            p = self.p.reshape(b_n * n, d)
            np.multiply(p, p, out=f[:, :d])
            np.copyto(f[:, d:2 * d], p)
            g = self.g.reshape(b_a, d).T
            np.multiply(g, g, out=gs[:d])
            np.copyto(gs[d:], g)
            self.stale = False
        w, hn, ha = self.weights, hw[:d, None], hw[d:, None]
        np.multiply(self.gs, np.vstack([hn, -2.0 * hn * mu[:d, None]]),
                    out=w[:2 * d])
        s = self.t.reshape(b_a, a).T + mu[d:, None]
        w[2 * d:2 * d + a] = ha
        np.multiply(s, -2.0 * ha, out=w[2 * d + a:-1])
        np.dot(hw[d:], s * s, out=w[-1])
        w[-1] += np.dot(hw[:d], mu[:d] * mu[:d])
        np.matmul(self.features, w, out=self.values.reshape(b_n * n, b_a))
        np.maximum(self.values, _EXP_FLOOR, out=self.values)
        return self.values.transpose(0, 2, 1)

    def composed(self, m, u):
        """ι(u)∘ the block on H, in product form: ρ(u) scales P and u is
        added to v.  The composition is kept with ρ(u)'s scales, and
        refilled from the block while u is the same array."""
        c = self.child
        if c is None or c.u is not u:
            scale = rho_apply(m, u, np.ones(self.p.shape[-1]))
            c = self.child = _ProductQuotient(
                self.g, np.multiply(scale, self.p), self.t, _m_add(u, self.v))
            c.u, c.scale = u, scale
        else:
            np.multiply(c.scale, self.p, out=c.p)
            c.g, c.t, c.stale = self.g, self.t, True
        return c

    def centered(self, i, mu):
        """x_i − μ for coordinate i, fresh, in exponent's layout."""
        b_n, b_a, n = self.shape[:-1]
        d = self.p.shape[-1]
        if i >= d:
            col = np.subtract.outer(self.v.reshape(n, -1)[:, i - d],
                                    self.t.reshape(b_a, -1)[:, i - d])
            col -= mu
            return col.T
        col = np.multiply.outer(self.p.reshape(b_n, n, d)[..., i],
                                self.g.reshape(b_a, d)[:, i])
        col -= mu
        return col.transpose(0, 2, 1)


def _an_ldiv(m, y, x, out, scratch, rho):
    """y⁻¹x = (P, t_x − t_y) with P = n_y⁻¹n_x in T = N × ℝ^{m−1}, and
    (ρ(−t_y)P, t_x − t_y) in S when rho, written into out when given.

    y is one array, or an (N part, A part) pair whose leading axes
    broadcast against each other and x's: a node block's N-block and
    A-block.  Given one array, P is formed in out's N slots, n_y⁻¹ in
    scratch (y's shape), and ρ taken in place.  Given a pair, the N law
    runs at the N part's broadcast with x only, n_y⁻¹ into scratch[0] (the
    N part's shape) and P into scratch[1]; ρ's exponentials are taken at
    the A part's shape, and each N slot of out gets one broadcast product
    (on T, one copy) of P's.  The values are the one-array form's on the
    broadcast concatenation, bit for bit.

    On S, a pair with out None, or a _ProductQuotient it made for the same
    x, which it refills, gives the quotient in product form: G, the scales
    ρ(−t_y) applies, in place of their products with P, and t_y and t_x
    in place of their difference.  Its blocks must then be an N-block
    (b_N, 1, 1, ·) and an A-block (1, b_A, 1, ·)."""
    d = len(_n_terms(m))
    x = np.asarray(x, dtype=float)
    pair = isinstance(y, tuple)
    if pair:
        yn, ya = (np.asarray(b, dtype=float) for b in y)
        yinv, p = (None, None) if scratch is None else scratch
    else:
        y = np.asarray(y, dtype=float)
        yn, ya, yinv = y[..., :d], y[..., d:], scratch
    if rho and pair and not isinstance(out, np.ndarray):
        p = _n_ldiv(m, yn, x[..., :d], p, yinv)
        if out is None or out.x is not x:
            out = _ProductQuotient(empty_columns(ya.shape[:-1] + (d,)), p,
                                   ya, x[..., d:])
            out.x = x
        out.p, out.t, out.stale = p, ya, True
        _rho_into(m, ya, np.ones(d), out.g, sign=-1.0)
        return out
    if out is None:
        out = empty_columns(np.broadcast_shapes(
            yn.shape[:-1], ya.shape[:-1], x.shape[:-1]) + x.shape[-1:])
    _m_sub(x[..., d:], ya, out[..., d:])
    p = _n_ldiv(m, yn, x[..., :d], p if pair else out[..., :d], yinv)
    if rho:
        _rho_into(m, ya, p, out[..., :d], sign=-1.0)
    elif pair:
        for k in range(d):
            np.copyto(out[..., k], p[..., k])
    return out


def _t_rdiv(m, x, y, out=None, scratch=None):
    """x·y⁻¹ = (n_x·n_y⁻¹, t_x − t_y) on T = N × ℝ^{m−1}, as its (N part,
    A part) pair, into out (a pair of buffers) when given.  y is such a
    pair, or one array split where its N part ends; n_y⁻¹ goes into
    scratch (_n_inverse)."""
    d = len(_n_terms(m))
    x = np.asarray(x, dtype=float)
    if not isinstance(y, tuple):
        y = np.asarray(y, dtype=float)
        y = y[..., :d], y[..., d:]
    out = out or (None, None)
    return (_n_rdiv(m, x[..., :d], y[0], out[0], scratch),
            _m_sub(x[..., d:], y[1], out[1]))


# ── the law table ────────────────────────────────────────────────────────────

@dataclass(frozen=True, eq=False)
class Law:
    """One group law in coordinates; law(name, m) builds and caches it.

    mul(x, y) and inv(x) act on coordinate arrays (..., dim) and broadcast
    over leading axes; on N and M, mul(x, y, out) writes into out.  They
    look n_mul, s_mul, ... up when called, so a wrapper installed on those
    module functions sees every call made through a Law.

    On N, S, M and T = N × ℝ^{m−1}, the groups the engines divide by,
    ldiv(y, x, out, scratch) = y⁻¹x forms a quotient into out when given;
    on N, M and T so does rdiv(x, y, out, scratch) = x·y⁻¹, which T, a
    direct product, returns as its (N part, A part) pair.  On N, S and T
    y⁻¹'s N part goes into scratch, a buffer of y's shape the caller keeps
    (a fresh one when None), the N law is applied through n_mul, so a
    wrapper on n_mul sees it, and on S ρ is taken once.  They call no
    n_inv, s_mul or s_inv, so wrappers on those no longer see the
    quotients' work.

    split is the slot where the N part ends on S and T, whose elements
    factor as n·a (on T as (n, 0)·(0, t)), and None on the groups that do
    not factor so.  Where it is set, ldiv and rdiv also take y as an
    (N part, A part) pair of broadcastable blocks, ldiv with scratch a
    pair of buffers (_an_ldiv): the direct engines walk such a group's
    node blocks as an N-block times an A-block.  On S such an ldiv gives
    the quotient in product form (_ProductQuotient), unless out is a
    dense array.

    K1 (base N) and H (base S) have the coordinates (base, shift) and the
    componentwise law.  compose(u, b) = ι(u)∘b, where ι puts the shift u
    into the base's acting slots.  The abelian picture M keeps the base's
    top slots and then the shift; m_order lists the base slots in that
    order.  c_law is the law of the commutative picture on the base's
    coordinates, the top slots composing as in M (ℝ^{m−1} for K1, N for H)
    and the acting slots by addition: M for K1, T for H.
    unimodular says whether the Haar measure is bi-invariant: False on S
    and H, True on N, K1 and M.
    """

    name: str
    m: int
    dim: int
    mul: Callable
    inv: Callable
    ldiv: Callable = None
    rdiv: Callable = None
    unimodular: bool = True
    split: int = None
    base: "Law" = None
    acting: slice = None
    top: slice = None
    c_law: "Law" = None
    compose: Callable = None

    @property
    def shift_dim(self):
        return self.dim - self.base.dim

    @property
    def m_order(self):
        """The base slots in M order: the top slots, then the acting ones,
        which M pairs with the shift."""
        slots = range(self.base.dim)
        return tuple(slots[self.top]) + tuple(slots[self.acting])

    def extension(self):
        """The extension of a base group: K1 over N, H over S."""
        name = {"N": "K1", "S": "H"}.get(self.name)
        if name is None:
            raise ValueError(f"{self.name} is not a base group")
        return law(name, self.m)

    def iota(self, shift):
        """ι(shift): base coordinates holding the shift in the acting
        slots and 0 elsewhere."""
        shift = np.asarray(shift, dtype=float)
        out = empty_columns(shift.shape[:-1] + (self.base.dim,))
        out.fill(0.0)
        out[..., self.acting] = shift
        return out

    def m_split(self, points, acting=0.0):
        """M points (top, shift) → (base coordinates with `acting` in the
        acting slots, shift)."""
        nt = len(range(self.base.dim)[self.top])
        base = np.empty(points.shape[:-1] + (self.base.dim,))
        base[..., self.acting] = acting
        base[..., self.top] = points[..., :nt]
        return base, points[..., nt:]

    def gamma(self, points):
        """Γ's coordinate map, group → M: g ↦ (top slots of ι(x)⁻¹∘g, x)
        with x the acting slots of g."""
        x = points[..., self.acting]
        b = self.base
        unwound = b.ldiv(self.iota(x), points)
        return np.concatenate([unwound[..., self.top], x], axis=-1)

    def gamma_inv(self, points):
        """Γ⁻¹'s coordinate map, M → group: (v, u) ↦ ι(u)∘(top v, acting 0)."""
        base, u = self.m_split(points)
        return self.compose(u, base)


def _m_add(x, y, out=None):
    """x + y on ℝ^d, one coordinate column at a time."""
    x, y, out = _operands(out, x, y)
    for i in range(out.shape[-1]):
        np.add(x[..., i], y[..., i], out=out[..., i])
    return out


def _m_sub(x, y, out=None):
    """x − y on ℝ^d, one coordinate column at a time: both quotients of M."""
    x, y, out = _operands(out, x, y)
    for i in range(out.shape[-1]):
        np.subtract(x[..., i], y[..., i], out=out[..., i])
    return out


def _m_neg(x):
    return np.multiply(np.asarray(x, dtype=float), -1.0)


def _product(base, k):
    """mul and inv of base × ℝ^k, componentwise."""
    d = base.dim

    def mul(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return np.concatenate([base.mul(x[..., :d], y[..., :d]),
                               x[..., d:] + y[..., d:]], axis=-1)

    def inv(x):
        x = np.asarray(x, dtype=float)
        return np.concatenate([base.inv(x[..., :d]), _m_neg(x[..., d:])],
                              axis=-1)

    return mul, inv


def _h_compose(m, u, b):
    """ι(u)∘(n, t) = (ρ(u)n, u + t) on H: no S product and no zero-padded
    ι(u) are formed.  A _ProductQuotient b keeps its form
    (_ProductQuotient.composed)."""
    if isinstance(b, _ProductQuotient):
        return b.composed(m, u)
    d = law("N", m).dim
    out = empty_columns(np.broadcast_shapes(u.shape[:-1], b.shape[:-1])
                        + b.shape[-1:])
    rho_apply(m, u, b[..., :d], out=out[..., :d])
    for i in range(m - 1):
        np.add(u[..., i], b[..., d + i], out=out[..., d + i])
    return out


@lru_cache(maxsize=None)
def law(name, m):
    """The Law of "N", "S", "K1" or "H" at matrix size m ≥ 2, or of "M",
    the abelian ℝ^m (m None: any dimension)."""
    if name == "M":
        if m is not None and m < 1:
            raise ValueError(f"dimension must be >= 1, got {m}")
        return Law("M", m, m, _m_add, _m_neg,
                   ldiv=lambda y, x, out=None, scratch=None: _m_sub(x, y, out),
                   rdiv=lambda x, y, out=None, scratch=None: _m_sub(x, y, out))
    if m < 2:
        raise ValueError(f"matrix size must be >= 2, got {m}")
    d_n = m * (m - 1) // 2
    if name == "N":
        return Law("N", m, d_n, lambda x, y, out=None: n_mul(m, x, y, out),
                   lambda x: n_inv(m, x),
                   ldiv=lambda y, x, out=None, scratch=None:
                   _n_ldiv(m, y, x, out, scratch),
                   rdiv=lambda x, y, out=None, scratch=None:
                   _n_rdiv(m, x, y, out, scratch))
    if name == "S":
        return Law("S", m, d_n + m - 1, lambda x, y: s_mul(m, x, y),
                   lambda x: s_inv(m, x),
                   ldiv=lambda y, x, out=None, scratch=None:
                   _an_ldiv(m, y, x, out, scratch, rho=True),
                   unimodular=False, split=d_n)
    if name == "K1":  # shift: the acting layers 1..m-2 of N
        base, k = law("N", m), d_n - (m - 1)
        return Law("K1", m, d_n + k, *_product(base, k), base=base,
                   acting=slice(0, k), top=slice(k, d_n), c_law=law("M", d_n),
                   compose=lambda u, b: n_mul(m, law("K1", m).iota(u), b))
    if name == "H":  # shift: A
        base = law("S", m)
        c_law = Law("T", m, base.dim, *_product(law("N", m), m - 1),
                    ldiv=lambda y, x, out=None, scratch=None:
                    _an_ldiv(m, y, x, out, scratch, rho=False),
                    rdiv=lambda x, y, out=None, scratch=None:
                    _t_rdiv(m, x, y, out, scratch), split=d_n)
        return Law("H", m, base.dim + m - 1, *_product(base, m - 1),
                   unimodular=False, base=base, acting=slice(d_n, base.dim),
                   top=slice(0, d_n), c_law=c_law,
                   compose=lambda u, b: _h_compose(m, u, b))
    raise ValueError(f"unknown group {name!r}")

