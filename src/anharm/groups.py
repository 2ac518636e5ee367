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
    "n_mul", "n_inv", "s_mul", "s_inv", "rho_scale", "rho_apply",
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

def n_mul(m, x, y):
    """Coordinates of the product in N; broadcasts over leading axes."""
    if m <= 3:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if m == 2:
            return x + y
        out = x + y
        out[..., 1] += x[..., 0] * y[..., 2]
        return out
    return matrix_to_coords(m, coords_to_matrix(m, x) @ coords_to_matrix(m, y))


def n_inv(m, x):
    """Inverse in N via the finite Neumann series (exact polynomial)."""
    if m <= 3:
        x = np.asarray(x, dtype=float)
        out = -x
        if m == 3:
            out[..., 1] += x[..., 0] * x[..., 2]
        return out
    mats = coords_to_matrix(m, x)
    eye = np.zeros_like(mats)
    eye[..., np.arange(m), np.arange(m)] = 1.0
    u = mats - eye
    inv = eye.copy()
    term = eye
    for _ in range(m - 1):
        term = -term @ u
        inv = inv + term
    return matrix_to_coords(m, inv)


def diag_entries(t):
    """Diagonal entries (a_1 .. a_m) from log coordinates (..., m-1)."""
    t = np.asarray(t, dtype=float)
    last = -t.sum(axis=-1, keepdims=True)
    return np.exp(np.concatenate([t, last], axis=-1))


@lru_cache(maxsize=None)
def _rho_exponents(m):
    """The integer-valued (m-1)×dim_n matrix C with log(a_i/a_j) = t @ C."""
    i, j = np.array(upper_indices(m)).T
    log_a = np.hstack([np.eye(m - 1), -np.ones((m - 1, 1))])  # log a = t @ log_a
    C = log_a[:, i] - log_a[:, j]
    C.flags.writeable = False  # the cache hands the same array to every call
    return C


def rho_scale(m, t):
    """Per-coordinate scale a_i/a_j of conjugation by diag(exp-coords t)."""
    t = np.asarray(t, dtype=float)
    C = _rho_exponents(m)
    # one flat (points, m-1) @ C product: a stack of tiny ones is slow
    out = (t.reshape(-1, m - 1) @ C).reshape(t.shape[:-1] + C.shape[1:])
    return np.exp(out, out=out)


def rho_apply(m, t, x):
    """ρ(a) x: conjugation of N-coordinates by the diagonal with log coords t."""
    return rho_scale(m, t) * np.asarray(x, dtype=float)


def s_mul(m, p, q):
    """Product in S on stacked coordinates (..., dim_n + m-1)."""
    d = m * (m - 1) // 2
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    out = np.empty(np.broadcast_shapes(p.shape, q.shape))
    out[..., :d] = n_mul(m, p[..., :d], rho_apply(m, p[..., d:], q[..., :d]))
    np.add(p[..., d:], q[..., d:], out=out[..., d:])
    return out


def s_inv(m, p):
    d = m * (m - 1) // 2
    p = np.asarray(p, dtype=float)
    out = np.empty(p.shape)
    mt = np.negative(p[..., d:], out=out[..., d:])
    np.multiply(rho_scale(m, mt), n_inv(m, p[..., :d]), out=out[..., :d])
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
