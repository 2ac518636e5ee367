"""Analytic test functions (polynomial × Gaussian) and uniform grids.

TestFunction is the finite stand-in for a Schwartz function: a sum of terms
c · Π (x_i - μ_i)^{α_i} · exp(-½ Σ w_i (x_i - μ_i)²), evaluable at arbitrary
real points — integrands in this toolkit are always evaluated analytically,
never interpolated.

Axis is a per-coordinate uniform grid: center c, half-width L, P points
(P a power of two), step h = 2L/P, nodes c - L + k h.  The dual grid
λ_j = 2πj/(Ph), j = -P/2 .. P/2-1, is again an Axis (center 0, half-width
π/h), so GridFunction carries both sides of the Fourier transform.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .groups import _Bilinear, empty_columns

__all__ = [
    "TestFunction", "Axis", "GridFunction", "gaussian", "derivative",
    "grid_nodes", "node_mesh", "grid_mesh", "sample",
    "quadrature", "dual_axis", "export_csv",
]


@dataclass(frozen=True)
class TestFunction:
    """Σ c·(x-μ)^α·exp(-½ Σ w_i (x_i-μ_i)²); terms = (c, α, μ, w)."""

    dim: int
    terms: tuple

    def __post_init__(self):
        norm = []
        for c, alpha, mu, w in self.terms:
            alpha = np.asarray(alpha, dtype=int)
            mu = np.asarray(mu, dtype=float)
            w = np.asarray(w, dtype=float)
            if alpha.shape != (self.dim,) or mu.shape != (self.dim,) or w.shape != (self.dim,):
                raise ValueError("term vectors must have length dim")
            if np.any(w <= 0):
                raise ValueError("widths must be positive")
            if np.any(alpha < 0):
                raise ValueError("exponents must be nonnegative")
            norm.append((complex(c), alpha, mu, w))
        object.__setattr__(self, "terms", tuple(norm))

    def __call__(self, x):
        """Evaluate at points, shape (..., dim) → (...), float when is_real,
        as on_grid, and complex otherwise.  x is one array, whose leading
        axes give the number of points, taken one coordinate column at a
        time with no (..., dim) temporaries, or a bilinear block
        (groups._Bilinear), prepared once, whose Gaussian exponents it
        takes term by term as one matrix product each (_terms_at).  On a
        block, a function of one real term returns its values in the
        exponent's buffer, which the block keeps and its next evaluation
        overwrites."""
        if isinstance(x, _Bilinear):
            x.prepare()
            return self._terms_at(x.shape[:-1], x.exponent, x.centered)
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"expected last axis {self.dim}, "
                             f"got {x.shape[-1]}")
        lead = x.shape[:-1]
        val, d, sq = np.empty(lead), np.empty(lead), np.empty(lead)

        def exponent(hw, mu):
            for i in range(self.dim):
                np.subtract(x[..., i], mu[i], out=d)
                acc = np.multiply(d, hw[i], out=sq if i else val)
                acc *= d
                if i:
                    np.add(val, sq, out=val)
            return val

        def centered(i, mu):
            return np.subtract(x[..., i], mu, out=d)

        return self._terms_at(lead, exponent, centered)

    def _terms_at(self, shape, exponent, centered):
        """Σ over the terms of c·Π (x_i-μ_i)^{α_i}·exp(exponent(hw, μ)),
        hw = -½w: exponent gives Σ hw_i (x_i-μ_i)² in a buffer the term's
        value is formed in, and centered(i, μ_i) gives x_i-μ_i, read only
        where α_i > 0.  With real coefficients each term is scaled in that
        buffer, so a one-term function's values are returned in it; the sum
        of more terms is a copy of the first, and a complex one a complex
        array.  Either way the caller may overwrite what it gets."""
        real = self.is_real
        if not self.terms:
            return np.zeros(shape, float if real else complex)
        out = None
        for c, alpha, mu, w in self.terms:
            val = exponent(-0.5 * w, mu)  # a power-of-two scale is exact
            np.exp(val, out=val)
            for i in np.flatnonzero(alpha):
                val *= centered(i, mu[i]) ** alpha[i]
            if real:
                if c.real != 1.0:  # x·1 = x: no pass needed
                    val *= c.real
                term = val
            else:
                term = np.multiply(val, c, out=np.empty_like(val, complex))
            if out is not None:
                out += term
            elif term is val and len(self.terms) > 1:
                out = val.copy()  # the next term's exponent reuses val
            else:
                out = term
        return out

    @property
    def is_real(self):
        """Whether every coefficient is real, and so every value."""
        return all(c.imag == 0 for c, _, _, _ in self.terms)

    def on_grid(self, axes):
        """Values at every node of the axes' product grid, shape
        (P1, ..., Pk), with no mesh: each term is the outer product of one
        P-vector per axis, (x_i-μ_i)^{α_i}·exp(-½ w_i (x_i-μ_i)²), the
        first carrying c, written straight into one output array.  Float
        when is_real, complex otherwise.  Equal to __call__ on
        grid_mesh(axes) to rounding, not bit for bit: a product of exps is
        not the exp of the sum."""
        axes = tuple(axes)
        if len(axes) != self.dim:
            raise ValueError(f"expected {self.dim} axes, got {len(axes)}")
        real = self.is_real
        shape = tuple(a.points for a in axes)
        out = np.zeros(shape, float if real else complex)
        term = None  # the buffer of the second and later terms
        for n, (c, alpha, mu, w) in enumerate(self.terms):
            vecs = [_axis_factor(grid_nodes(a), alpha[i], mu[i], w[i])
                    for i, a in enumerate(axes)]
            vecs[0] = vecs[0] * (c.real if real else c)
            if n == 0:
                _outer(vecs, out)
            else:
                if term is None:
                    term = np.empty_like(out)
                out += _outer(vecs, term)
        return out


def _axis_factor(x, alpha, mu, w):
    """(x-μ)^α·exp(-½ w (x-μ)²) on one axis's nodes, in the order of
    TestFunction.__call__'s arithmetic."""
    d = x - mu
    val = d * (-0.5 * w)
    val *= d
    np.exp(val, out=val)
    if alpha:
        val *= d ** alpha
    return val


def _outer(vecs, out):
    """out[i_1, ..., i_k] = Π_j vecs[j][i_j]; the last factor is multiplied
    straight into out.  Returns out."""
    head = vecs[0]
    for v in vecs[1:-1]:
        head = np.multiply.outer(head, v)
    if len(vecs) == 1:
        out[...] = head
    else:
        np.multiply(head[..., None], vecs[-1], out=out)
    return out


def gaussian(center, widths, coef=1.0):
    center = np.atleast_1d(np.asarray(center, dtype=float))
    widths = np.broadcast_to(np.asarray(widths, dtype=float), center.shape)
    dim = center.shape[0]
    return TestFunction(dim, ((coef, np.zeros(dim, dtype=int), center, widths),))


def derivative(f, axis):
    """∂f/∂x_axis, term by term (exact); used as a symbolic oracle."""
    terms = []
    for c, a, mu, w in f.terms:
        if a[axis] > 0:
            a1 = a.copy()
            a1[axis] -= 1
            terms.append((c * a[axis], a1, mu, w))
        a2 = a.copy()
        a2[axis] += 1
        terms.append((-c * w[axis], a2, mu, w))
    return TestFunction(f.dim, tuple(terms))


# ── grids ────────────────────────────────────────────────────────────────────

@dataclass(frozen=True)
class Axis:
    center: float
    half_width: float
    points: int

    def __post_init__(self):
        if self.half_width <= 0:
            raise ValueError("half-width must be positive")
        p = self.points
        if p < 2 or (p & (p - 1)) != 0:
            raise ValueError(f"points must be a power of two >= 2, got {p}")

    @property
    def step(self):
        return 2.0 * self.half_width / self.points


def grid_nodes(axis):
    return axis.center - axis.half_width + axis.step * np.arange(axis.points)


def dual_axis(axis):
    """The dual frequency grid λ_j = 2πj/(Ph) as an Axis."""
    return Axis(0.0, np.pi / axis.step, axis.points)


def node_mesh(nodes, out=None):
    """The product mesh of 1-D node arrays, shape (P1, ..., Pk, k), in the
    layout of groups.empty_columns: each coordinate column [..., i] is
    contiguous, so mesh.reshape(-1, k) is a view.  The one mesh builder.
    Given out, an array of the mesh's shape, it refills out, and a None in
    place of a node array leaves that column of out as it is."""
    nodes = [None if g is None else np.asarray(g, dtype=float) for g in nodes]
    if out is None:
        out = empty_columns(tuple(g.size for g in nodes) + (len(nodes),))
    for i, g in enumerate(nodes):
        if g is not None:
            out[..., i] = g.reshape((-1,) + (1,) * (len(nodes) - 1 - i))
    return out


def grid_mesh(axes):
    """Nodes of the product grid, shape (P1, ..., Pk, k), column-contiguous."""
    return node_mesh([grid_nodes(a) for a in axes])


@dataclass(frozen=True)
class GridFunction:
    axes: tuple
    samples: np.ndarray

    def __post_init__(self):
        axes = tuple(self.axes)
        s = np.asarray(self.samples, dtype=complex)
        if s.shape != tuple(a.points for a in axes):
            raise ValueError(f"sample shape {s.shape} does not match axes")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "samples", s)

    @property
    def cell(self):
        return float(np.prod([a.step for a in self.axes]))


def sample(f, axes):
    """f at every node of the axes' product grid: a TestFunction through
    on_grid, with no mesh, and any other callable on grid_mesh(axes)."""
    axes = tuple(axes)
    if isinstance(f, TestFunction):
        return GridFunction(axes, f.on_grid(axes))
    return GridFunction(axes, f(grid_mesh(axes)))


def quadrature(f, axes):
    """Riemann sum over the product grid; fixed (C-order) summation order.
    A TestFunction is summed from on_grid, with no mesh; any other callable
    is evaluated on grid_mesh(axes)."""
    axes = tuple(axes)
    if isinstance(f, GridFunction):
        vals = f.samples
    elif isinstance(f, TestFunction):
        vals = f.on_grid(axes)
    else:
        vals = np.asarray(f(grid_mesh(axes)), dtype=complex)
    cell = float(np.prod([a.step for a in axes]))
    return complex(np.sum(vals.ravel(order="C"))) * cell


# ── exports ──────────────────────────────────────────────────────────────────

def export_csv(gf, path):
    """CSV rows in C order: node coordinates, re, im, each the repr of the
    float.  Each axis's node strings are formatted once; a row formats
    only its value."""
    *lead, last = [[repr(x) for x in grid_nodes(a).tolist()]
                   for a in gf.axes]
    rows = gf.samples.reshape(-1, len(last))
    with open(path, "w") as fh:
        cols = [f"x{i}" for i in range(len(gf.axes))] + ["re", "im"]
        fh.write(",".join(cols) + "\n")
        for prefix, row in zip(itertools.product(*lead), rows):
            head = "".join(c + "," for c in prefix)
            fh.writelines(f"{head}{x},{re!r},{im!r}\n" for x, re, im in
                          zip(last, row.real.tolist(), row.imag.tolist()))

