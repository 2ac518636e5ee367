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


def _n_ldiv(m, y, x):
    """y⁻¹x in N: y⁻¹ (n_inv), then the law through n_mul, so every value
    is n_mul(n_inv(y), x)'s, bit for bit.  A node block y gives the dense
    quotient too, into an output and a y⁻¹ buffer kept on it for x."""
    if not isinstance(y, _Bilinear):
        return n_mul(m, n_inv(m, y), x)
    nodes, x = y.take(slice(None)), np.asarray(x, dtype=float)
    out, yinv = y._kept("N.ldiv", x, lambda: (
        empty_columns(np.broadcast_shapes(nodes.shape, x.shape)),
        empty_columns(nodes.shape)))
    return n_mul(m, _n_inv_into(m, nodes, yinv), x, out)


def _n_rdiv(m, x, y):
    """x·y⁻¹ in N: y⁻¹ (n_inv), then the law through n_mul, so every value
    is n_mul(x, n_inv(y))'s, bit for bit.  A node block y gives a bilinear
    block kept on it for x, the law's terms x_k, y⁻¹_k and x_a·y⁻¹_b kept
    apart, x on the points' side and y⁻¹, in a buffer the block keeps, on
    the nodes', so that np.asarray has n_mul's values bit for bit."""
    if not isinstance(y, _Bilinear):
        return n_mul(m, x, n_inv(m, y))
    nodes, x, right = y.take(slice(None)), np.asarray(x, dtype=float), y.right

    def make():  # n_mul's terms, in its order
        yinv = empty_columns(nodes.shape)
        q = _Bilinear(right, [
            (_term(right, x[..., k]), _term(right, yinv[..., k]))
            + tuple(_times((_term(right, x[..., a]),),
                           (_term(right, yinv[..., b]),))[0]
                    for a, b in pairs)
            for k, pairs in enumerate(_n_terms(m))])
        q.yinv = yinv
        return q

    q = y._kept("N.rdiv", x, make)
    _n_inv_into(m, nodes, q.yinv)
    return q


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
    ρ applied to ones.  Nothing in the package calls it, but it stays:
    perfbench's Tracer.install looks it up by name in TARGETS, so deleting
    it breaks every traced run until that tracer moves into the package."""
    return rho_apply(m, t, np.ones(len(_rho_terms(m))))


def rho_apply(m, t, x):
    """ρ(a) x: conjugation of N-coordinates by the diagonal with log coords
    t; broadcasts over leading axes."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    return _rho_into(m, t, x, empty_columns(
        np.broadcast_shapes(t.shape[:-1], x.shape[:-1]) + x.shape[-1:]))


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


# ── bilinear blocks ──────────────────────────────────────────────────────────
#
# The direct engines pair a block of nodes with a row of points, and every
# quotient they form is bilinear in (node features, point features): on N
# (y⁻¹x)_k = y⁻¹_k + x_k + Σ y⁻¹_a·x_b, on M x − y, on S and T the N slots
# are products of an N-block-and-points factor with an A-block factor.  A
# _Bilinear block keeps each coordinate as such a short sum of rank-one
# terms, so a Gaussian exponent Σ hw_i (x_i − μ_i)² over the block is one
# matrix product of left features with right weights.

# The least Gaussian exponent a block gives (exponent): exp(-300) ≈ 5e-131,
# so neither np.exp nor the products that follow it (polynomials,
# coefficients, node weights down to 1e-177) meet an underflowing or
# subnormal value, on which each runs many times slower.
_EXP_FLOOR = -300.0


def _on_right(right, shape):
    """Whether an array of leading shape `shape`, aligned with the last
    axes of a block whose right factor spans the axes where `right` is
    True, is a right factor: it varies along right axes only.  An array
    that varies along no axis is a left one."""
    own = right[len(right) - len(shape):]
    spans = [r for r, n in zip(own, shape) if n > 1]
    if spans and all(spans):
        return True
    if any(spans):
        raise ValueError("an array varies along both factors of a block")
    return False


def _term(right, col, sign=1.0):
    """The one-factor term sign·col, on the side col varies along."""
    if _on_right(right, col.shape):
        return sign, (), (col,)
    return sign, (col,), ()


def _times(a, b):
    """The terms of the product of two coordinates given as terms."""
    return tuple((s * t, ls + ms, rs + qs)
                 for s, ls, rs in a for t, ms, qs in b)


def _product_into(factors, out):
    """out = the product of the factors, in their order (1 for none)."""
    if not factors:
        out.fill(1.0)
    elif len(factors) == 1:
        np.copyto(out, factors[0])
    else:
        np.multiply(factors[0], factors[1], out=out)
        for f in factors[2:]:
            out *= f
    return out


class _Bilinear:
    """Coordinates on a block of (node, point) pairs, each a short sum of
    rank-one terms ±L·R: L a product of arrays along the left factor's
    leading axes, R one along the right factor's.

    right says per leading axis whether the right factor spans it; coords
    holds per coordinate its terms (sign, left factors, right factors).
    The right factor is the smaller one: the points on a dense walk, the
    A-block on a factored one.  shape is the dense block's.

    np.asarray gives the dense coordinates term by term, in one buffer the
    block keeps: for a quotient the law's dense arithmetic, bit for bit.
    A TestFunction reads the block through prepare, exponent and centered
    instead, at no (block, dim) size.  A node block (of_columns, whose
    buffers the engines refill in place) keeps what is made of it: each
    quotient kernel's result for the x it was last given, refilled at every
    call, and what is derived from a block (compose) is kept on it too
    (_kept)."""

    def __init__(self, right, coords):
        self.right = tuple(right)
        self.coords = [tuple(c) for c in coords]
        shapes = [f.shape for c in self.coords for _, ls, rs in c
                  for f in ls + rs]
        lead = np.broadcast_shapes(*shapes)
        self.shape = ((1,) * (len(self.right) - len(lead)) + lead
                      + (len(self.coords),))
        self.plan = self.dense = self.tmp = None
        self.kept, self.arrays = {}, ()

    def _kept(self, name, operand, make):
        """make()'s value, kept on this block under name while operand is
        the same object."""
        hit = self.kept.get(name)
        if hit is None or hit[0] is not operand:
            hit = self.kept[name] = (operand, make())
        return hit[1]

    def __array__(self, dtype=None, copy=None):
        lead = self.shape[:-1]
        if self.dense is None:
            self.dense = empty_columns(self.shape)
        for k, terms in enumerate(self.coords):
            col = self.dense[..., k]
            for n, (s, ls, rs) in enumerate(terms):
                fs = ls + rs
                if n == 0:
                    _product_into(fs, col)
                    if s < 0:
                        np.multiply(col, -1.0, out=col)
                    continue
                if len(fs) != 1:
                    if self.tmp is None:
                        self.tmp = np.empty(lead)
                    fs = (_product_into(fs, self.tmp),)
                (np.add if s > 0 else np.subtract)(col, fs[0], out=col)
        out = self.dense.astype(dtype or float, copy=False)
        return out.copy() if copy else out

    def _make_plan(self):
        """The exponent's layout: Σ_k hw_k (Σ_r s_r L_r R_r − μ_k)², with
        every product L_r·L_s a left feature and R_r·R_s a right row, as
        the cells (feature, row) of one matrix whose entries are hw_k·(a +
        b·μ_k + c·μ_k²).  Each term's own L_r (R_r) is a feature (row),
        the products of its factors, and each product of two is one
        multiplication of theirs."""
        lead = self.shape[:-1]
        lo = tuple(1 if r else n for n, r in zip(lead, self.right))
        hi = tuple(n if r else 1 for n, r in zip(lead, self.right))
        sides = [({}, []), ({}, [])]  # (index by factor ids, pairs of rows)

        def index(side, factors, pair=None):
            table, pairs = sides[side]
            key = tuple(sorted(map(id, factors)))
            if key not in table:
                table[key] = (len(table), factors)
                if pair is not None:
                    pairs.append(pair)
            return table[key][0]

        own = []
        for terms in self.coords:
            own.append([(index(0, ls), index(1, rs), s)
                        for s, ls, rs in terms])
        one = index(0, ()), index(1, ())
        entries = []
        for k, (terms, mine) in enumerate(zip(self.coords, own)):
            for i, (s, ls, rs) in enumerate(terms):
                entries.append((k, *mine[i][:2], 0.0, -2.0 * s, 0.0))
                for j in range(i, len(terms)):
                    t, ms, qs = terms[j]
                    entries.append((
                        k, index(0, ls + ms, (mine[i][0], mine[j][0])),
                        index(1, rs + qs, (mine[i][1], mine[j][1])),
                        s * t * (1.0 if i == j else 2.0), 0.0, 0.0))
            entries.append((k, *one, 0.0, 0.0, 1.0))
        own = [tuple(np.array(v) for v in zip(*mine)) if mine else None
               for mine in own]
        k, f, r, a, b, c = (np.array(v) for v in zip(*entries))
        (feats, f_pairs), (rows, r_pairs) = sides
        n_l, n_r = int(np.prod(lo)), int(np.prod(hi))
        right_factors = list({id(g): g for _, qs in rows.values()
                              for g in qs}.values())
        vals = np.empty((n_l, n_r))
        nd = len(lead)
        perm = [i for pair in zip(range(nd), range(nd, 2 * nd)) for i in pair]

        def recipes(table, pairs):
            singles = [fs for _, fs in sorted(table.values(),
                                              key=lambda e: e[0])]
            return (singles[:len(table) - len(pairs)],
                    tuple(np.array(v, dtype=int).reshape(-1)
                          for v in zip(*pairs)) if pairs else None)

        self.plan = dict(
            k=k, a=a, b=b, c=c, cell=f * len(rows) + r,
            n_f=len(feats), n_r=len(rows), lo=lo, hi=hi, own=own,
            lefts=recipes(feats, f_pairs), rights=recipes(rows, r_pairs),
            factors=right_factors, phi=np.empty((len(feats), n_l)),
            R=np.empty((len(rows), n_r)), vals=vals,
            seen=np.empty((len(right_factors), n_r)),
            now=np.empty((len(right_factors), n_r)), rows_ready=False,
            weights={}, view=self._lead_view(vals, lo, hi, perm), perm=perm)

    def _lead_view(self, vals, lo, hi, perm):
        """vals, (left, right) laid out, viewed in the block's axis order."""
        return vals.reshape(lo + hi).transpose(perm).reshape(self.shape[:-1])

    @staticmethod
    def _fill(out, lead, recipe):
        """out's rows from a recipe: the products of the single rows'
        factors, then the products of pairs of rows, one row at a time
        (gathering the pairs' rows would copy them)."""
        singles, pairs = recipe
        for row, fs in zip(out, singles):
            _product_into(fs, row.reshape(lead))
        if pairs is not None:
            for row, i, j in zip(out[len(singles):], *pairs):
                np.multiply(out[i], out[j], out=row)

    def prepare(self):
        """Take the left features at the block's current values, and the
        right rows when the right factors changed since they were taken:
        on a walk whose every block covers the right factor's axes whole,
        once per engine call."""
        if self.plan is None:
            self._make_plan()
        p = self.plan
        self._fill(p["phi"], p["lo"], p["lefts"])
        for out, g in zip(p["now"], p["factors"]):
            np.copyto(out.reshape(p["hi"]), g)
        if p["rows_ready"] and _equal(p["now"], p["seen"]):
            return
        p["seen"], p["now"] = p["now"], p["seen"]
        self._fill(p["R"], p["hi"], p["rights"])
        p["rows_ready"], p["weights"] = True, {}

    def exponent(self, hw, mu):
        """Σ_i hw_i (x_i − μ_i)² over the block's coordinates x, bounded
        below at _EXP_FLOOR, in one buffer the block keeps: one matrix
        product of the left features with the right rows' weights for hw
        and μ, which are kept until the rows are taken again.  A block
        never prepared is prepared first."""
        if self.plan is None:
            self.prepare()
        p = self.plan
        key = hw.tobytes() + mu.tobytes()
        weights = p["weights"].get(key)
        if weights is None:
            mk = mu[p["k"]]
            coef = hw[p["k"]] * (p["a"] + mk * (p["b"] + p["c"] * mk))
            cells = np.bincount(p["cell"], coef, p["n_f"] * p["n_r"])
            weights = p["weights"][key] = (
                cells.reshape(p["n_f"], p["n_r"]) @ p["R"])
        np.matmul(p["phi"].T, weights, out=p["vals"])
        np.maximum(p["vals"], _EXP_FLOOR, out=p["vals"])
        return p["view"]

    def centered(self, i, mu):
        """x_i − μ for coordinate i, fresh, in exponent's layout."""
        if self.plan is None:
            self.prepare()
        p = self.plan
        f, r, s = p["own"][i]
        col = p["phi"][f].T @ (s[:, None] * p["R"][r])
        col -= mu
        return self._lead_view(col, p["lo"], p["hi"], p["perm"])

    @classmethod
    def of_columns(cls, right, *arrays):
        """The arrays side by side as a block with the sides right, one
        term per column; take gives their slices back."""
        block = cls(right, [(_term(right, a[..., i]),) for a in arrays
                            for i in range(a.shape[-1])])
        block.arrays = arrays
        return block

    def replaced(self, slots, values):
        """This block with the coordinates in slots (a slice) replaced by
        the columns of the array values."""
        coords = list(self.coords)
        coords[slots] = [(_term(self.right, values[..., i]),)
                         for i in range(values.shape[-1])]
        return _Bilinear(self.right, coords)

    def take(self, slots):
        """The coordinates in slots (a slice) as a block, or, when they are
        the columns of one of the arrays the block was made of (of_columns),
        as that array's slice."""
        want = range(len(self.coords))[slots]
        start = 0
        for a in self.arrays:
            if start <= want.start and want.stop <= start + a.shape[-1]:
                return a[..., want.start - start:want.stop - start]
            start += a.shape[-1]
        return _Bilinear(self.right, self.coords[slots])


def _equal(a, b):
    """Whether two arrays hold the same values, bit for bit."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _rho_kept(m, t, scale, seen, sign=1.0):
    """scale = ρ(sign·t)'s scales, taken again only when t differs from
    seen, the t they were last taken at (bit for bit); returns the t they
    are now taken at."""
    if seen is not None and _equal(seen, t):
        return seen
    _rho_into(m, t, np.ones(scale.shape[-1]), scale, sign)
    return t.copy()


def _an_block(m, y, x, left, rho=False):
    """The quotient of x by a node block y of S or T (the N-block's columns
    on the left and the A-block's on the right) as a bilinear block kept
    on y for x: N slot k is column k of the N law's y⁻¹x when left, else
    x·y⁻¹, formed on the N-block and the points with y⁻¹ in a second
    buffer, both kept on the block and refilled at every call, times
    ρ(−t_y)'s scales on the A-block when rho (taken again only when the
    A-block's values change); A slot l is t_x − t_y, t_x on the points
    and t_y on the A-block."""
    d = len(_n_terms(m))
    yn, ya, xn = y.take(slice(0, d)), y.take(slice(d, None)), x[..., :d]

    def make():
        p = empty_columns(np.broadcast_shapes(yn.shape, xn.shape))
        g, v = empty_columns(ya.shape[:-1] + (d,)), x[..., d:]
        q = _Bilinear(y.right, [
            ((1.0, (p[..., k],), (g[..., k],) if rho else ()),)
            for k in range(d)] + [
            ((1.0, (v[..., l],), ()), (-1.0, (), (ya[..., l],)))
            for l in range(m - 1)])
        q.p, q.g, q.yinv, q.seen = p, g, empty_columns(yn.shape), None
        return q

    q = y._kept(("AN", left, rho), x, make)
    yinv = _n_inv_into(m, yn, q.yinv)
    if left:
        n_mul(m, yinv, xn, q.p)
    else:
        n_mul(m, xn, yinv, q.p)
    if rho:
        q.seen = _rho_kept(m, ya, q.g, q.seen, sign=-1.0)
    return q


def _an_ldiv(m, y, x, rho):
    """y⁻¹x = (P, t_x − t_y) with P = n_y⁻¹n_x in T = N × ℝ^{m−1}, and
    (ρ(−t_y)P, t_x − t_y) in S when rho: P formed through n_mul in the N
    slots of a fresh array, and ρ taken in place.  A node block y gives a
    bilinear block (_an_block)."""
    d = len(_n_terms(m))
    x = np.asarray(x, dtype=float)
    if isinstance(y, _Bilinear):
        return _an_block(m, y, x, True, rho)
    y = np.asarray(y, dtype=float)
    out = empty_columns(np.broadcast_shapes(y.shape, x.shape))
    _m_sub(x[..., d:], y[..., d:], out[..., d:])
    p = n_mul(m, n_inv(m, y[..., :d]), x[..., :d], out[..., :d])
    if rho:
        _rho_into(m, y[..., d:], p, p, sign=-1.0)
    return out


def _t_rdiv(m, x, y):
    """x·y⁻¹ = (n_x·n_y⁻¹, t_x − t_y) on T = N × ℝ^{m−1}.  A node block y
    gives a bilinear block (_an_block)."""
    if isinstance(y, _Bilinear):
        return _an_block(m, y, np.asarray(x, dtype=float), False)
    d = len(_n_terms(m))
    x, y, out = _operands(None, x, y)
    n_mul(m, x[..., :d], n_inv(m, y[..., :d]), out[..., :d])
    _m_sub(x[..., d:], y[..., d:], out[..., d:])
    return out


# ── the law table ────────────────────────────────────────────────────────────

@dataclass(frozen=True, eq=False)
class Law:
    """One group law in coordinates; law(name, m) builds and caches it.

    mul(x, y) and inv(x) act on coordinate arrays (..., dim) and broadcast
    over leading axes.  They look n_mul, s_mul, ... up when called, so a
    wrapper installed on those module functions sees every call made
    through a Law.

    On N, S, M and T = N × ℝ^{m−1}, the groups the engines divide by,
    ldiv(y, x) = y⁻¹x, and on N, M and T rdiv(x, y) = x·y⁻¹.  A quotient's
    form follows its divisor y: arrays in, a fresh array out; a node block
    in, a block kept on it out.  A node block y (_Bilinear.of_columns, the
    nodes a direct engine walks, whose buffers it refills in place) keeps
    the quotient for x (_Bilinear._kept), refilled at every call.  M's
    quotients, N's rdiv and the quotients of S and T by a node block are
    bilinear blocks, each coordinate a short sum of rank-one terms in (y's
    side, x's side), whose np.asarray is the dense quotient bit for bit.
    N's ldiv of a node block is a dense array, through n_mul, whose wrapper
    counts one call per node·point pair of convolve_group on N.
    bilinear_ldiv says whether ldiv of a node block is a bilinear block:
    True on M, S and T.  The N law is applied through n_mul, so a wrapper
    on n_mul sees it, and on S ρ is taken once.  The quotients call no
    s_mul or s_inv, so wrappers on those do not see their work.

    split is the slot where the N part ends on S and T, whose elements
    factor as n·a (on T as (n, 0)·(0, t)), and None on the groups that do
    not factor so.  Where it is set, a node block's columns are the
    N-block's on the left and the A-block's on the right; where it is not,
    the nodes are on the left and the points on the right.

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
    bilinear_ldiv: bool = False
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


def _m_add(x, y):
    """x + y on ℝ^d, one coordinate column at a time."""
    x, y, out = _operands(None, x, y)
    for i in range(out.shape[-1]):
        np.add(x[..., i], y[..., i], out=out[..., i])
    return out


def _m_sub(x, y, out=None):
    """x − y on ℝ^d, one coordinate column at a time: both quotients of M."""
    x, y, out = _operands(out, x, y)
    for i in range(out.shape[-1]):
        np.subtract(x[..., i], y[..., i], out=out[..., i])
    return out


def _m_quotient(x, y):
    """x − y, both quotients of M; by a node block y the block whose
    coordinate i is the terms x_i and −y_i, each on its own side, kept on
    y for x."""
    if not isinstance(y, _Bilinear):
        return _m_sub(x, y)
    nodes, x, right = y.take(slice(None)), np.asarray(x, dtype=float), y.right
    return y._kept("M", x, lambda: _Bilinear(right, [
        (_term(right, x[..., i]), _term(right, nodes[..., i], -1.0))
        for i in range(x.shape[-1])]))


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


def _coords_of(u, right):
    """u's coordinates as terms on a block with the sides right: a block's
    own, or one term per column of an array."""
    if isinstance(u, _Bilinear):
        return u.coords
    return [(_term(right, u[..., i]),) for i in range(u.shape[-1])]


def _k1_compose(m, u, b):
    """ι(u)∘b = n_mul(ι(u), b) on K1.  On a bilinear b it is the block of
    the law's terms, u an array or a block with b's sides: ι(u)_k (u's
    slot k where it acts), b_k and each product u_p·b_q, u_p acting; it is
    kept on b while u is the same."""
    if not isinstance(b, _Bilinear):
        return n_mul(m, law("K1", m).iota(u), b)

    def make():
        k = law("K1", m).shift_dim
        us = _coords_of(u, b.right)
        coords = []
        for c, pairs in enumerate(_n_terms(m)):
            terms = (us[c] if c < k else ()) + b.coords[c]
            for p, q in pairs:
                if p < k:
                    terms += _times(us[p], b.coords[q])
            coords.append(terms)
        return _Bilinear(b.right, coords)

    return b._kept("compose", u, make)


def _h_compose(m, u, b):
    """ι(u)∘(n, t) = (ρ(u)n, u + t) on H: no S product and no zero-padded
    ι(u) are formed.  On a bilinear b it is a block, u an array or a block
    with b's sides whose terms are each one factor.  ρ(u)'s scales are the
    exponential of a linear form in u, so they are a product of one factor
    per side of the block, the scales at the sum of u's terms on that side
    (on T's quotient t_x − t_y, ρ(t_x) on the points and ρ(−t_y) on the
    A-block); each joins the N slots' terms on its side, and u's terms
    come before t's.  It is kept on b while u is the same, and each side's
    ρ taken again when its sum's values change."""
    d = law("N", m).dim
    if not isinstance(b, _Bilinear):
        u, b = np.asarray(u, dtype=float), np.asarray(b, dtype=float)
        out = empty_columns(np.broadcast_shapes(u.shape[:-1], b.shape[:-1])
                            + b.shape[-1:])
        _rho_into(m, u, b[..., :d], out[..., :d])
        for i in range(m - 1):
            np.add(u[..., i], b[..., d + i], out=out[..., d + i])
        return out

    def make():
        us, parts = _coords_of(u, b.right), {}
        for i, terms in enumerate(us):
            for s, ls, rs in terms:
                (f,) = ls + rs
                parts.setdefault(bool(rs), []).append((i, s, f))
        sides = []
        for right, fs in sorted(parts.items()):
            lead = np.broadcast_shapes(*(f.shape for _, _, f in fs))
            sides.append((right, fs, empty_columns(lead + (m - 1,)),
                          empty_columns(lead + (d,))))

        def scaled(k, s, ls, rs):
            for right, _, _, scale in sides:
                if right:
                    rs += (scale[..., k],)
                else:
                    ls += (scale[..., k],)
            return s, ls, rs

        c = _Bilinear(b.right, [
            tuple(scaled(k, *term) for term in terms)
            for k, terms in enumerate(b.coords[:d])] + [
            us[i] + b.coords[d + i] for i in range(m - 1)])
        c.sides, c.seen = sides, [None] * len(sides)
        return c

    c = b._kept("compose", u, make)
    for j, (_, fs, t, scale) in enumerate(c.sides):
        t.fill(0.0)
        for i, s, f in fs:
            t[..., i] += s * f
        c.seen[j] = _rho_kept(m, t, scale, c.seen[j])
    return c


@lru_cache(maxsize=None)
def law(name, m):
    """The Law of "N", "S", "K1" or "H" at matrix size m ≥ 2, or of "M",
    the abelian ℝ^m (m None: any dimension)."""
    if name == "M":
        if m is not None and m < 1:
            raise ValueError(f"dimension must be >= 1, got {m}")
        return Law("M", m, m, _m_add, _m_neg,
                   ldiv=lambda y, x: _m_quotient(x, y), rdiv=_m_quotient,
                   bilinear_ldiv=True)
    if m < 2:
        raise ValueError(f"matrix size must be >= 2, got {m}")
    d_n = m * (m - 1) // 2
    if name == "N":
        return Law("N", m, d_n, lambda x, y: n_mul(m, x, y),
                   lambda x: n_inv(m, x),
                   ldiv=lambda y, x: _n_ldiv(m, y, x),
                   rdiv=lambda x, y: _n_rdiv(m, x, y))
    if name == "S":
        return Law("S", m, d_n + m - 1, lambda x, y: s_mul(m, x, y),
                   lambda x: s_inv(m, x),
                   ldiv=lambda y, x: _an_ldiv(m, y, x, rho=True),
                   unimodular=False, split=d_n, bilinear_ldiv=True)
    if name == "K1":  # shift: the acting layers 1..m-2 of N
        base, k = law("N", m), d_n - (m - 1)
        return Law("K1", m, d_n + k, *_product(base, k), base=base,
                   acting=slice(0, k), top=slice(k, d_n), c_law=law("M", d_n),
                   compose=lambda u, b: _k1_compose(m, u, b))
    if name == "H":  # shift: A
        base = law("S", m)
        c_law = Law("T", m, base.dim, *_product(law("N", m), m - 1),
                    ldiv=lambda y, x: _an_ldiv(m, y, x, rho=False),
                    rdiv=lambda x, y: _t_rdiv(m, x, y), split=d_n,
                    bilinear_ldiv=True)
        return Law("H", m, base.dim + m - 1, *_product(base, m - 1),
                   unimodular=False, base=base, acting=slice(d_n, base.dim),
                   top=slice(0, d_n), c_law=c_law,
                   compose=lambda u, b: _h_compose(m, u, b))
    raise ValueError(f"unknown group {name!r}")

