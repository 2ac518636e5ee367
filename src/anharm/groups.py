"""Exact arithmetic for the groups N, A, S = AN and their extensions.

N is the group of unit upper-triangular m×m real matrices, coordinatized by
its strict upper entries in column-major ("layer") order: layer i is column
i+1, rows 1..i, so for m=3 the order is (n12, n13, n23).  A is the positive
diagonal subgroup of SL(m,R), stored in log coordinates t ∈ R^{m-1} with
a_m = exp(-Σt).  S = N⋊A carries the law (x,a)(y,b) = (x·ρ(a)y, ab) with
ρ(a) = conjugation.  The extended groups K1 (base N) and H (base S) pair a
base element with an abelian shift vector; their product is componentwise.

law(name, m) gives each of N, S, K1, H and the abelian picture M as one
Law object: its dimension, product and inverse, on N, S and M the two
quotients y⁻¹x and x·y⁻¹, and for K1 and H the embedding ι, the slots it
fills and the Γ coordinate maps.  All operations are pure and act on numpy
arrays whose last axis holds coordinates.  Element is a single point of N
or S, for the JSON round-trip.
"""

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Law", "law", "Element", "upper_indices", "coords_to_matrix",
    "matrix_to_coords", "empty_columns", "n_mul", "n_inv", "s_mul", "s_inv",
    "rho_scale", "rho_apply", "element_to_json", "element_from_json",
]


def upper_indices(m):
    """Strict upper (i, j) pairs in layer (column-major) order."""
    return [(i, j) for j in range(1, m) for i in range(j)]


def coords_to_matrix(m, coords):
    """Unit upper-triangular matrices from coordinates (..., dim_n)."""
    coords = np.asarray(coords, dtype=float)
    mats = np.zeros(coords.shape[:-1] + (m, m))
    mats[..., np.arange(m), np.arange(m)] = 1.0
    for k, (i, j) in enumerate(upper_indices(m)):
        mats[..., i, j] = coords[..., k]
    return mats


def matrix_to_coords(m, mats):
    mats = np.asarray(mats, dtype=float)
    idx = upper_indices(m)
    out = np.empty(mats.shape[:-2] + (len(idx),))
    for k, (i, j) in enumerate(idx):
        out[..., k] = mats[..., i, j]
    return out


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


def diag_entries(t):
    """Diagonal entries (a_1 .. a_m) from log coordinates (..., m-1)."""
    t = np.asarray(t, dtype=float)
    last = -t.sum(axis=-1, keepdims=True)
    return np.exp(np.concatenate([t, last], axis=-1))


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


def _s_ldiv(m, y, x, out=None, scratch=None):
    """y⁻¹x = (ρ(−t_y)(n_y⁻¹n_x), t_x − t_y) in S, written into out when
    given: the N quotient into out, n_y⁻¹ held in scratch, then one ρ in
    place, its exponentials taken along the axes t_y varies on."""
    d = len(_n_terms(m))
    y, x, out = _operands(out, y, x)
    for k in range(d, d + m - 1):
        np.subtract(x[..., k], y[..., k], out=out[..., k])
    n = _n_ldiv(m, y[..., :d], x[..., :d], out[..., :d], scratch)
    _rho_into(m, y[..., d:], n, n, sign=-1.0)
    return out


def _s_rdiv(m, x, z, out=None, scratch=None):
    """x·z⁻¹ = (n_x·w⁻¹, t_x − t_z) with w = ρ(t_x − t_z)n_z in S, written
    into out when given: t_x − t_z, then w, w⁻¹ and the law through n_mul,
    each in place in out, so scratch goes unused."""
    d = len(_n_terms(m))
    x, z, out = _operands(out, x, z)
    for k in range(d, d + m - 1):
        np.subtract(x[..., k], z[..., k], out=out[..., k])
    w = _rho_into(m, out[..., d:], z[..., :d], out[..., :d])
    n_mul(m, x[..., :d], _n_inv_into(m, w, w), w)
    return out


def _s_modular(m, p):
    """Δ(p) = Π_{i<j} a_i/a_j at p's A coordinates t: the exponent
    Σ_{i<j} (log a_i − log a_j) is Σ_l 2(m−1−l)·t_l."""
    d = len(_n_terms(m))
    p = np.asarray(p, dtype=float)
    e = np.multiply(p[..., d], 2.0 * (m - 1))
    for l in range(1, m - 1):
        e += p[..., d + l] * (2.0 * (m - 1 - l))
    return np.exp(e, out=e)


# ── the law table ────────────────────────────────────────────────────────────

@dataclass(frozen=True, eq=False)
class Law:
    """One group law in coordinates; law(name, m) builds and caches it.

    mul(x, y) and inv(x) act on coordinate arrays (..., dim) and broadcast
    over leading axes; on N and M, mul(x, y, out) writes into out.  They
    look n_mul, s_mul, ... up when called, so a wrapper installed on those
    module functions sees every call made through a Law.

    On N, S and M, the groups the engines divide by, ldiv(y, x, out,
    scratch) = y⁻¹x and rdiv(x, y, out, scratch) = x·y⁻¹ form a quotient
    into out when given.  On N, and in S's ldiv, y⁻¹'s N part goes into
    scratch, a buffer of y's shape the caller keeps (a fresh one when
    None); S's rdiv works in out alone.  On N and S the N law is applied
    through n_mul, so a wrapper on n_mul sees it, and on S ρ is taken
    once.  They call no n_inv, s_mul or s_inv, so wrappers on those no
    longer see the quotients' work.

    K1 (base N) and H (base S) have the coordinates (base, shift) and the
    componentwise law.  compose(u, b) = ι(u)∘b, where ι puts the shift u
    into the base's acting slots.  The abelian picture M keeps the base's
    top slots and then the shift; m_order lists the base slots in that
    order, and the top slots compose by top_law (ℝ^{m−1} for K1, N for H).
    On S, modular(p) = Π_{i<j} a_i/a_j at p's A coordinates, the modular
    function; at p = x∘Z⁻¹ it is the Jacobian of the substitution Z = Y⁻¹∘x.
    It is None on the unimodular N.
    """

    name: str
    m: int
    dim: int
    mul: Callable
    inv: Callable
    ldiv: Callable = None
    rdiv: Callable = None
    modular: Callable = None
    base: "Law" = None
    acting: slice = None
    top: slice = None
    top_law: "Law" = None
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
        nt = self.top_law.dim
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
    ι(u) are formed."""
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
                   _s_ldiv(m, y, x, out, scratch),
                   rdiv=lambda x, y, out=None, scratch=None:
                   _s_rdiv(m, x, y, out, scratch),
                   modular=lambda p: _s_modular(m, p))
    if name == "K1":  # shift: the acting layers 1..m-2 of N
        base, k = law("N", m), d_n - (m - 1)
        return Law("K1", m, d_n + k, *_product(base, k), base=base,
                   acting=slice(0, k), top=slice(k, d_n),
                   top_law=law("M", m - 1),
                   compose=lambda u, b: n_mul(m, law("K1", m).iota(u), b))
    if name == "H":  # shift: A
        base = law("S", m)
        return Law("H", m, base.dim + m - 1, *_product(base, m - 1),
                   base=base, acting=slice(d_n, base.dim), top=slice(0, d_n),
                   top_law=law("N", m),
                   compose=lambda u, b: _h_compose(m, u, b))
    raise ValueError(f"unknown group {name!r}")


# ── elements and their JSON form ─────────────────────────────────────────────

@dataclass(frozen=True)
class Element:
    """A point of N, or of S = AN when log_a is given: N coordinates in
    layer order and the A log-coordinates t (a_m = exp(−Σt))."""

    m: int
    entries: np.ndarray
    log_a: np.ndarray = ()

    def __post_init__(self):
        want = law("N", self.m).dim
        e = np.asarray(self.entries, dtype=float)
        t = np.asarray(self.log_a, dtype=float)
        if e.shape != (want,):
            raise ValueError(f"expected {want} coordinates, got {e.shape}")
        if t.shape not in ((0,), (self.m - 1,)):
            raise ValueError(
                f"expected {self.m - 1} log coordinates, got {t.shape}")
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "log_a", t)


def _row_major_order(m):
    return [(i, j) for i in range(m) for j in range(i + 1, m)]


def element_to_json(g):
    """Serialize to {"m", "entries" (row-major strict upper), "log_a"}."""
    col = {ij: k for k, ij in enumerate(upper_indices(g.m))}
    entries = [float(g.entries[col[ij]]) for ij in _row_major_order(g.m)]
    return {"m": g.m, "entries": entries, "log_a": list(map(float, g.log_a))}


def element_from_json(obj):
    m = int(obj["m"])
    row = list(map(float, obj["entries"]))
    want = law("N", m).dim
    if len(row) != want:
        raise ValueError(f"expected {want} entries, got {len(row)}")
    pos = {ij: k for k, ij in enumerate(_row_major_order(m))}
    return Element(m, [row[pos[ij]] for ij in upper_indices(m)],
                   list(map(float, obj.get("log_a", []))))
