"""Exact arithmetic for the groups N, A, S = AN and their extensions.

N is the group of unit upper-triangular m×m real matrices, coordinatized by
its strict upper entries in column-major ("layer") order: layer i is column
i+1, rows 1..i, so for m=3 the order is (n12, n13, n23).  A is the positive
diagonal subgroup of SL(m,R), stored in log coordinates t ∈ R^{m-1} with
a_m = exp(-Σt).  S = N⋊A carries the law (x,a)(y,b) = (x·ρ(a)y, ab) with
ρ(a) = conjugation.  The extended groups K1 (base N) and H (base S) pair a
base element with an abelian shift vector; their product is componentwise.

All operations are pure; batched variants act on numpy arrays whose last
axis holds coordinates.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GroupSpec", "UnipotentElement", "DiagonalElement", "SolvableElement",
    "LayerVector", "ExtendedPoint",
    "upper_indices", "layer_slices", "coords_to_matrix", "matrix_to_coords",
    "empty_columns", "n_mul", "n_inv", "s_mul", "s_inv", "rho_scale",
    "rho_apply",
    "unipotent_mul", "unipotent_inv", "layer_decompose", "layer_compose",
    "conjugate", "solvable_mul", "solvable_inv", "extended_mul",
    "unipotent_identity", "diagonal_identity", "solvable_identity",
    "extended_identity", "element_to_json", "element_from_json",
]


@dataclass(frozen=True)
class GroupSpec:
    """Matrix size m and the derived dimensions of N and A."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"matrix size must be >= 2, got {self.m}")

    @property
    def dim_n(self):
        return self.m * (self.m - 1) // 2

    @property
    def dim_a(self):
        return self.m - 1

    @property
    def dim_s(self):
        return self.dim_n + self.dim_a

    @property
    def k1_shift_dim(self):
        # abelian copy of the acting layers 1..m-2
        return self.dim_n - (self.m - 1)


def upper_indices(m):
    """Strict upper (i, j) pairs in layer (column-major) order."""
    return [(i, j) for j in range(1, m) for i in range(j)]


def layer_slices(m):
    """Slices of the coordinate vector for layers 1..m-1."""
    out, start = [], 0
    for l in range(1, m):
        out.append(slice(start, start + l))
        start += l
    return out


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


def _n_mul_into(m, x, y, out):
    """(xy)_ij = x_ij + y_ij + Σ_{i<l<j} x_il y_lj into out.

    out may be y itself: in layer order column (i, j) reads y only at rows
    l > i of its own column, which come after it.
    """
    tmp = None
    for k, terms in enumerate(_n_terms(m)):
        col = out[..., k]
        np.add(x[..., k], y[..., k], out=col)
        for a, b in terms:
            if tmp is None:
                tmp = np.empty(out.shape[:-1])
            col += np.multiply(x[..., a], y[..., b], out=tmp)
    return out


def n_mul(m, x, y, out=None):
    """Coordinates of the product in N; broadcasts over leading axes.  The
    exact polynomial law, written into out when given."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if out is None:
        out = empty_columns(np.broadcast_shapes(x.shape, y.shape))
    return _n_mul_into(m, x, y, out)


def _n_inv_into(m, x, out):
    """(x⁻¹)_ij = −x_ij − Σ_{i<l<j} x_il (x⁻¹)_lj into out, each column's
    rows from j−1 down to 0, so every (x⁻¹)_lj it reads is already written."""
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


def diag_entries(t):
    """Diagonal entries (a_1 .. a_m) from log coordinates (..., m-1)."""
    t = np.asarray(t, dtype=float)
    last = -t.sum(axis=-1, keepdims=True)
    return np.exp(np.concatenate([t, last], axis=-1))


@lru_cache(maxsize=None)
def _rho_terms(m):
    """Per N coordinate (i, j), the nonzero (l, C_lj) of the integer-valued
    exponent log(a_i/a_j) = Σ_l t_l C_lj, in increasing l."""
    log_a = np.hstack([np.eye(m - 1), -np.ones((m - 1, 1))])  # log a = t @ log_a
    return tuple(
        tuple((l, float(c)) for l, c in enumerate(log_a[:, i] - log_a[:, j])
              if c)
        for i, j in upper_indices(m))


def _rho_into(m, t, x, out):
    """Column (i, j) of out gets exp(Σ_l t_l C_lj) · x_ij, or the scale
    alone when x is None.  The exponential is taken only along the leading
    axes t varies on: a broadcast t repeats one value along each axis of
    stride 0.  The products are exact, so for m ≤ 3 (two terms at most)
    each exponent is rounded once, as a matrix product rounds it."""
    t = t[tuple(slice(None) if st else slice(0, 1) for st in t.strides[:-1])]
    e = np.empty(t.shape[:-1])
    tmp = None
    for k, ((l0, c0), *rest) in enumerate(_rho_terms(m)):
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
        if x is None:
            np.exp(e, out=out[..., k])
        else:
            np.multiply(np.exp(e, out=e), x[..., k], out=out[..., k])
    return out


def rho_scale(m, t):
    """Per-coordinate scale a_i/a_j of conjugation by diag(exp-coords t)."""
    t = np.asarray(t, dtype=float)
    return _rho_into(m, t, None,
                     empty_columns(t.shape[:-1] + (m * (m - 1) // 2,)))


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
    d = m * (m - 1) // 2
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    out = empty_columns(np.broadcast_shapes(p.shape, q.shape))
    yn = _rho_into(m, p[..., d:], q[..., :d], out[..., :d])
    _n_mul_into(m, p[..., :d], yn, yn)
    for k in range(d, d + m - 1):
        np.add(p[..., k], q[..., k], out=out[..., k])
    return out


def s_inv(m, p):
    """(x, s)⁻¹ = (ρ(−s) x⁻¹, −s)."""
    d = m * (m - 1) // 2
    p = np.asarray(p, dtype=float)
    out = empty_columns(p.shape)
    for k in range(d, d + m - 1):
        np.multiply(p[..., k], -1.0, out=out[..., k])
    xinv = _n_inv_into(m, p[..., :d], out[..., :d])
    _rho_into(m, out[..., d:], xinv, xinv)
    return out


# ── element types ────────────────────────────────────────────────────────────

@dataclass(frozen=True)
class UnipotentElement:
    spec: GroupSpec
    entries: np.ndarray  # (dim_n,) in layer order

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (self.spec.dim_n,):
            raise ValueError(f"expected {self.spec.dim_n} coordinates, got {e.shape}")
        object.__setattr__(self, "entries", e)

    def matrix(self):
        return coords_to_matrix(self.spec.m, self.entries)


@dataclass(frozen=True)
class DiagonalElement:
    spec: GroupSpec
    log_coords: np.ndarray  # (m-1,)

    def __post_init__(self):
        t = np.asarray(self.log_coords, dtype=float)
        if t.shape != (self.spec.dim_a,):
            raise ValueError(f"expected {self.spec.dim_a} log coordinates, got {t.shape}")
        object.__setattr__(self, "log_coords", t)

    def entries(self):
        return diag_entries(self.log_coords)


@dataclass(frozen=True)
class SolvableElement:
    n_part: UnipotentElement
    a_part: DiagonalElement

    def __post_init__(self):
        if self.n_part.spec != self.a_part.spec:
            raise ValueError("n_part and a_part specs differ")

    @property
    def spec(self):
        return self.n_part.spec

    def coords(self):
        return np.concatenate([self.n_part.entries, self.a_part.log_coords])


@dataclass(frozen=True)
class LayerVector:
    spec: GroupSpec
    layers: tuple  # layer i has length i, i = 1..m-1

    def __post_init__(self):
        layers = tuple(np.asarray(v, dtype=float) for v in self.layers)
        if len(layers) != self.spec.m - 1 or any(
            v.shape != (i + 1,) for i, v in enumerate(layers)
        ):
            raise ValueError("layer lengths must be 1, 2, ..., m-1")
        object.__setattr__(self, "layers", layers)


@dataclass(frozen=True)
class ExtendedPoint:
    """A point of K1 (base in N) or H (base in S) with an abelian shift."""

    case: str  # "K1" or "H"
    base: object
    shift: np.ndarray

    def __post_init__(self):
        if self.case not in ("K1", "H"):
            raise ValueError(f"unknown case {self.case!r}")
        s = np.asarray(self.shift, dtype=float)
        spec = self.base.spec
        want = spec.k1_shift_dim if self.case == "K1" else spec.dim_a
        if s.shape != (want,):
            raise ValueError(f"shift length {s.shape} does not match case {self.case}")
        if self.case == "K1" and not isinstance(self.base, UnipotentElement):
            raise ValueError("K1 base must be a UnipotentElement")
        if self.case == "H" and not isinstance(self.base, SolvableElement):
            raise ValueError("H base must be a SolvableElement")
        object.__setattr__(self, "shift", s)

    @property
    def spec(self):
        return self.base.spec


# ── identities ───────────────────────────────────────────────────────────────

def unipotent_identity(spec):
    return UnipotentElement(spec, np.zeros(spec.dim_n))


def diagonal_identity(spec):
    return DiagonalElement(spec, np.zeros(spec.dim_a))


def solvable_identity(spec):
    return SolvableElement(unipotent_identity(spec), diagonal_identity(spec))


def extended_identity(case, spec):
    if case == "K1":
        return ExtendedPoint("K1", unipotent_identity(spec), np.zeros(spec.k1_shift_dim))
    return ExtendedPoint("H", solvable_identity(spec), np.zeros(spec.dim_a))


# ── element-level operations ─────────────────────────────────────────────────

def _check_same_spec(g, h):
    if g.spec != h.spec:
        raise ValueError("group specs differ")


def unipotent_mul(g, h):
    _check_same_spec(g, h)
    return UnipotentElement(g.spec, n_mul(g.spec.m, g.entries, h.entries))


def unipotent_inv(g):
    return UnipotentElement(g.spec, n_inv(g.spec.m, g.entries))


def layer_decompose(g):
    return LayerVector(g.spec, tuple(g.entries[s] for s in layer_slices(g.spec.m)))


def layer_compose(v):
    # ι_{m-1}(layer m-1) · ... · ι_1(layer 1): with column-major coordinates
    # the product matrix carries each layer verbatim, so this is a copy.
    return UnipotentElement(v.spec, np.concatenate(v.layers))


def conjugate(g, h):
    """g h g^{-1} for g unipotent or diagonal, h unipotent."""
    _check_same_spec(g, h)
    m = g.spec.m
    if isinstance(g, DiagonalElement):
        return UnipotentElement(g.spec, rho_apply(m, g.log_coords, h.entries))
    gm = g.matrix()
    inv = coords_to_matrix(m, n_inv(m, g.entries))
    return UnipotentElement(g.spec, matrix_to_coords(m, gm @ h.matrix() @ inv))


def solvable_mul(p, q):
    _check_same_spec(p, q)
    spec = p.spec
    out = s_mul(spec.m, p.coords(), q.coords())
    return SolvableElement(
        UnipotentElement(spec, out[: spec.dim_n]),
        DiagonalElement(spec, out[spec.dim_n:]),
    )


def solvable_inv(p):
    spec = p.spec
    out = s_inv(spec.m, p.coords())
    return SolvableElement(
        UnipotentElement(spec, out[: spec.dim_n]),
        DiagonalElement(spec, out[spec.dim_n:]),
    )


def extended_mul(p, q):
    if p.case != q.case:
        raise ValueError("extended-point cases differ")
    _check_same_spec(p.base, q.base)
    if p.case == "K1":
        base = unipotent_mul(p.base, q.base)
    else:
        base = solvable_mul(p.base, q.base)
    return ExtendedPoint(p.case, base, p.shift + q.shift)


# ── JSON round-trips ─────────────────────────────────────────────────────────

def _row_major_order(m):
    return [(i, j) for i in range(m) for j in range(i + 1, m)]


def element_to_json(g):
    """Serialize to {"m", "entries" (row-major strict upper), "log_a"}."""
    if isinstance(g, SolvableElement):
        n, log_a = g.n_part, list(map(float, g.a_part.log_coords))
    elif isinstance(g, UnipotentElement):
        n, log_a = g, []
    else:
        raise ValueError(f"cannot serialize {type(g).__name__}")
    m = n.spec.m
    col = {ij: k for k, ij in enumerate(upper_indices(m))}
    entries = [float(n.entries[col[ij]]) for ij in _row_major_order(m)]
    return {"m": m, "entries": entries, "log_a": log_a}


def element_from_json(obj):
    m = int(obj["m"])
    spec = GroupSpec(m)
    row = list(map(float, obj["entries"]))
    if len(row) != spec.dim_n:
        raise ValueError(f"expected {spec.dim_n} entries, got {len(row)}")
    pos = {ij: k for k, ij in enumerate(_row_major_order(m))}
    entries = np.array([row[pos[ij]] for ij in upper_indices(m)])
    n = UnipotentElement(spec, entries)
    log_a = list(map(float, obj.get("log_a", [])))
    if not log_a:
        return n
    return SolvableElement(n, DiagonalElement(spec, np.array(log_a)))
