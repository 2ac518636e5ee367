"""Fourier transforms, group and abelian convolutions, and the reduction
identities that trade the noncommutative convolution on N (resp. S) for the
commutative one on the abelian picture.

Conventions: forward kernel e^{-i<λ,x>}, frequency-side measure Πdλ/(2π);
with the grid transform realized as FFT × Πh × center phase, the discrete
Parseval identity is machine-exact.  The dual of a uniform axis is again a
uniform axis (center 0, half-width π/h), so transforms stay inside
GridFunction.

Haar measure is Lebesgue in coordinates: dn on N (bi-invariant) and dn·dt
on S (right-invariant; left invariance fails by the modular function, which
is reported as a diagnostic, never assumed).

The two sides of the reduction identity have pointwise-equal integrands
under the natural parameterization, so computing them on a shared grid
would compare nothing.  On N the group side is therefore evaluated after
the substitution Z = Y^{-1}∘base (nodes on f's mass) while the abelian side
integrates against φ directly (nodes on φ's mass); on S the roles swap, the
abelian side substituted: two independent discretizations whose difference
is a genuine quadrature residual.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .extension import gamma_inv, tilde_eval_coords
from .groups import _Bilinear, empty_columns, law
from .testfuncs import (
    GridFunction, TestFunction, dual_axis, grid_mesh, grid_nodes, node_mesh,
    sample,
)

__all__ = [
    "PlancherelReport", "fourier_forward", "fourier_inverse",
    "inverse_in_place", "plancherel_check", "convolve_group",
    "convolve_extended_c", "convolve_extended_c_substituted",
    "convolve_extended_group", "convolve_group_lattice",
    "convolve_group_pullback_lattice", "convolve_extended_c_lattice",
    "theorem31_residual", "projected_convolution_check",
]


# ── Fourier transforms ───────────────────────────────────────────────────────

def _axis_phases(axes, sign):
    """Per-axis phase e^{sign·i·λ·x0}, λ in centered order."""
    out = []
    for a in axes:
        lam = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(a.points, a.step))
        out.append(np.exp(sign * 1j * lam * (a.center - a.half_width)))
    return out


def _scale_axes(vals, factors, dims):
    """vals *= factor along each of dims in place, the axes in turn."""
    for ax, fac in zip(dims, factors):
        shape = [1] * vals.ndim
        shape[ax] = -1
        vals *= fac.reshape(shape)


def _alternate_signs(vals, dims):
    """Negate the odd indices along each of dims in place, as 0 − x on a
    float view (exact, and a zero comes out +0 as the shifted transform's
    x − x gives it).  For even P this (−1)ⁿ modulation is the centering
    shift: fftn(mod(v)) = fftshift(fftn(v)) and mod(ifftn(v)) =
    ifftn(ifftshift(v)), bit for bit (tests/test_harmonic.py)."""
    parts = vals.view(float).reshape(vals.shape + (2,))
    for ax in dims:
        odd = parts[(slice(None),) * ax + (slice(1, None, 2),)]
        np.subtract(0.0, odd, out=odd)


def fourier_forward(gf):
    """(𝓕f)(λ_j) = Σ_k f(x_k) e^{-i λ_j x_k} Πh on the dual grid.

    One copy of the samples is transformed in place; gf is not changed."""
    vals = np.array(gf.samples, dtype=complex, order="C")
    dims = range(vals.ndim)
    _alternate_signs(vals, dims)
    np.fft.fftn(vals, out=vals)
    _scale_axes(vals, [p * a.step for p, a in
                       zip(_axis_phases(gf.axes, -1), gf.axes)], dims)
    return GridFunction(tuple(dual_axis(a) for a in gf.axes), vals)


def inverse_in_place(vals, freq_axes, axes, dims):
    """The inverse transform of fourier_inverse along the array axes dims
    only, in place: freq_axes and axes are the dual and spatial Axis of each
    of dims.  vals must be a C-contiguous complex array the caller owns;
    returns it."""
    if vals.dtype != complex or not vals.flags.c_contiguous:
        raise ValueError("inverse_in_place needs a C-contiguous complex array")
    dims = tuple(dims)
    # e^{+iλx0} Δλ/(2π); ifftn divides by ΠP, so multiply it back
    _scale_axes(vals, [p * da.step * a.points / (2.0 * np.pi) for p, da, a
                       in zip(_axis_phases(axes, +1), freq_axes, axes)], dims)
    np.fft.ifftn(vals, axes=dims, out=vals)
    _alternate_signs(vals, dims)
    return vals


def fourier_inverse(F, axes):
    """Σ_j F(λ_j) e^{+i λ_j x_k} ΠΔλ/(2π) on the given spatial axes.

    Pass the axes F was transformed from to undo fourier_forward exactly.
    One copy of F's samples is transformed in place; F is not changed.
    """
    axes = tuple(axes)
    if tuple(a.points for a in axes) != tuple(a.points for a in F.axes):
        raise ValueError("axis point counts do not match")
    vals = np.array(F.samples, dtype=complex, order="C")
    return GridFunction(axes, inverse_in_place(vals, F.axes, axes,
                                               range(vals.ndim)))


@dataclass(frozen=True)
class PlancherelReport:
    time_norm_sq: float
    freq_norm_sq: float
    rel_err: float


def _norm_sq(samples):
    """Σ|v|² in C order, squaring one float array in place."""
    sq = np.abs(samples.ravel(order="C"))
    return float(np.sum(np.square(sq, out=sq)))


def plancherel_check(f, axes):
    """Compare ∫|f|² dx with ∫|𝓕f|² Πdλ/(2π).

    A TestFunction with real coefficients is sampled slab by slab into
    real samples, which go through a real-input FFT (_real_norms); any
    other f is sampled as a complex GridFunction and goes through
    fourier_forward, the reference transform."""
    if isinstance(f, TestFunction) and f.is_real:
        time_sq, freq_sq = _real_norms(f, tuple(axes))
    else:
        gf = f if isinstance(f, GridFunction) else sample(f, axes)
        time_sq = _norm_sq(gf.samples) * gf.cell
        F = fourier_forward(gf)
        freq_sq = _norm_sq(F.samples) * (F.cell / (2.0 * np.pi) ** len(F.axes))
    rel = abs(time_sq - freq_sq) / max(time_sq, 1e-300)
    return PlancherelReport(time_sq, freq_sq, rel)


def _real_norms(f, axes):
    """(∫|f|² dx, ∫|𝓕f|² Πdλ/(2π)) of a real-valued TestFunction, in one
    walk over slabs of the first axis (TestFunction.on_slabs): each slab
    adds its Σ|f|² and is rfft'd along the last axis straight into its
    rows of the one half-spectrum buffer, the only grid-sized array; fft
    then finishes the leading axes in place, in the reverse order rfftn
    takes them, and Σ|𝓕f|² is summed slab by slab.

    The phase factors and the (−1)ⁿ modulation of fourier_forward have
    modulus 1, so Σ|𝓕f|² is Πh² times Σ|fftn(f)|².  For real samples
    fftn is Hermitian, so that sum is rfftn's half spectrum counted twice,
    except the planes 0 and P/2 of the last axis, which are their own
    conjugates and count once.

    Both sums are bit for bit np.sum over the whole grid: numpy sums a
    contiguous array pairwise, halving it at a multiple of 8 down to
    blocks of at most 128, so when a slab holds a multiple of 8 and more
    than 64 values, on both sides, the slab sums combined in adjacent
    pairs, level by level, are that tree (_pairwise).  Any other grid,
    and every 1-D one, walks as a single slab (_slab_rows)."""
    shape = tuple(a.points for a in axes)
    half = np.empty(shape[:-1] + (shape[-1] // 2 + 1,), dtype=complex)
    rows = _slab_rows(shape)
    time_parts = []
    for i, vals in zip(range(0, shape[0], rows), f.on_slabs(axes, rows)):
        np.fft.rfft(vals, out=half[i:i + rows])
        # v·v is |v|² exactly for real v, as _norm_sq squares it
        time_parts.append(np.sum(np.square(vals, out=vals)))
    del vals
    for ax in range(len(axes) - 2, -1, -1):
        np.fft.fft(half, axis=ax, out=half)
    sq = np.empty(half[:rows].shape)
    freq_parts = []
    for i in range(0, shape[0], rows):
        np.abs(half[i:i + rows], out=sq)
        np.square(sq, out=sq)
        sq[..., 1:-1] *= 2.0
        freq_parts.append(np.sum(sq))
    cell = float(np.prod([a.step for a in axes]))
    dual = float(np.prod([dual_axis(a).step for a in axes]))
    return (float(_pairwise(time_parts)) * cell,
            float(_pairwise(freq_parts)) * (cell * cell * dual
                                             / (2.0 * np.pi) ** len(axes)))


def _slab_rows(shape):
    """First-axis indices per slab of _real_norms' walk on a grid of this
    shape: 1 when a slab of one index holds a multiple of 8 and more than
    64 values, both of the samples and of the half spectrum, so that
    numpy's pairwise sums halve at slab boundaries; else all of them."""
    inner = math.prod(shape[1:])
    freq = inner // shape[-1] * (shape[-1] // 2 + 1)
    return 1 if all(n % 8 == 0 and n > 64 for n in (inner, freq)) else shape[0]


def _pairwise(parts):
    """Σ parts in adjacent pairs, level by level; len(parts) a power of 2."""
    while len(parts) > 1:
        parts = [a + b for a, b in zip(parts[::2], parts[1::2])]
    return parts[0]


# ── convolution engines ──────────────────────────────────────────────────────

# node·point pairs per block of a walk whose quotients are dense, and a
# quarter of the floats a bilinear walk's block holds: BENCH_26.json
_CHUNK = 1 << 14


def _block_size(axes, npoints, scalars=None):
    """Nodes per block: the largest power of two within the walk's budget
    (at least one), or every node of the grid when it has fewer.  The budget
    follows what a block builds.  A walk whose quotients are dense holds
    them as (block, points, dim) columns and gets _CHUNK node·point pairs,
    the size BENCH_3's sweep of such blocks chose.  A bilinear walk
    (groups._Bilinear) holds only scalar buffers, `scalars` floats per node
    (its values at the points and its node weight), and gets 4·_CHUNK floats
    in all: the bytes of a dense block's quotient of dim 4."""
    total = int(np.prod([a.points for a in axes]))
    if scalars is None:
        nodes = _CHUNK // max(npoints, 1)
    else:
        nodes = (_CHUNK << 2) // scalars
    return min(total, 1 << (max(1, nodes).bit_length() - 1))


def _node_blocks(axes, npoints, split=None, scalars=None):
    """Yield (buffers, cell volume): the product grid's nodes in C order, in
    blocks of _block_size nodes: for a bilinear walk of `scalars` floats
    per node, or else one whose quotients are dense.  Axis sizes are powers
    of two too, so a block is a product of index ranges, one per axis, of
    the same lengths in every block; the full mesh is never built.  Every
    block is written into the same buffers, allocated here, each coordinate
    column contiguous, as the group laws lay out theirs, and the columns of
    axes that every block covers whole are written once: the consumer must
    not change them.

    The buffers have an axis for the points before the coordinates: one,
    the block (b, 1, k), or given split two, the nodes of the first split
    axes (b_1, 1, 1, split) and those of the rest (1, b_2, 1, k − split),
    whose broadcast concatenation is the block in the same C order."""
    shape = [a.points for a in axes]
    grids = [grid_nodes(a) for a in axes]
    cell = float(np.prod([a.step for a in axes]))
    total = int(np.prod(shape))
    size, stride, lengths = _block_size(axes, npoints, scalars), 1, []
    for p in reversed(shape):
        lengths.insert(0, min(p, max(1, size // stride)))
        stride *= p
    k = len(axes)
    if split is None:
        spans, leads = [(0, k)], [(-1, 1)]
    else:
        spans, leads = [(0, split), (split, k)], [(-1, 1, 1), (1, -1, 1)]
    meshes = [empty_columns(tuple(lengths[i:j]) + (j - i,)) for i, j in spans]
    buffers = tuple(b.reshape(lead + b.shape[-1:], copy=False)
                    for lead, b in zip(leads, meshes))
    for lo in range(0, total, size):
        ranges, stride = [], total
        for p, g, n in zip(shape, grids, lengths):
            stride //= p
            start = lo // stride % p
            ranges.append(None if lo > 0 and n == p else g[start:start + n])
        for (i, j), mesh in zip(spans, meshes):
            node_mesh(ranges[i:j], mesh)
        yield buffers, cell


def _at(f, y):
    """f at y, a dense block or a bilinear block (groups._Bilinear), in an
    array the caller may overwrite: a TestFunction takes either as it is,
    and its values are its own (TestFunction._terms_at); any other callable
    gets the dense values, as testfuncs.sample dispatches, and its values
    are copied."""
    if isinstance(f, TestFunction):
        return f(y)
    vals = np.asarray(f(np.asarray(y)))
    return vals.astype(np.result_type(vals, 1.0))


def _quadrature(axes, npoints, integrand, weight=None, split=None,
                values=None):
    """Σ over the nodes y of the axes' product grid, block by block, of
    F(y)·cell, or with a weight w, of w(y)·cell·F(y), one matrix product
    of each block's node weights with F: npoints sums.  F is integrand,
    which gets y and returns a row of npoints values per node, in the
    block's C order.  The sums are float when w and F are.  values is the
    number of (block, points) value buffers F holds per block when its
    quotients are bilinear blocks, and None when they are dense:
    _block_size sizes the blocks from it and the weight.

    y is one node block (groups._Bilinear.of_columns) of _node_blocks'
    buffers, made at the first block: every block refills the same
    buffers, so y, and what the laws keep on it, is the same object at
    every block.  Its leading shape has an axis for the points: (b, 1),
    the nodes on the left and the points on the right, or given split
    (b_1, b_2, 1), the N-block (b_1, 1, 1, split) on the left with the
    points and the A-block (1, b_2, 1, k − split) on the right.  w is
    taken by _at at y on a walk that splits and at the dense node buffer
    otherwise, and is scaled by the cell in place."""
    right = (False, True) if split is None else (False, True, False)
    y = total = None
    scalars = (None if values is None
               else values * npoints + (weight is not None))
    for nodes, cell in _node_blocks(axes, npoints, split, scalars):
        if y is None:
            y = _Bilinear.of_columns(right, *nodes)
        vals = np.asarray(integrand(y)).reshape(-1, npoints)
        if weight is None:
            part = vals.sum(axis=0) * cell
        else:
            w = _at(weight, y if split else nodes[0])
            part = np.multiply(w, cell, out=w).ravel() @ vals
            del w
        del vals  # so the next block's buffers are not formed beside them
        total = part if total is None else total + part
    return total


def _group_convolution(L, g, f, x, axes):
    """Σ over the nodes y of the axes of g(y)·cell·f(y⁻¹x).  x is
    (1, npoints, L.dim); y is the walk's node block (_quadrature), and
    y⁻¹x is L's ldiv of it, kept on y and refilled at every block.  On a
    law that splits (Law.split) ldiv forms the N law on the N-block and
    ρ's exponentials on the A-block.  f gets the quotient as a bilinear
    block (groups._Bilinear) on M, S and T, and dense on N."""
    return _quadrature(axes, x.shape[1], lambda y: f(L.ldiv(y, x)),
                       weight=g, split=L.split,
                       values=1 if L.bilinear_ldiv else None)


def _substituted_convolution(L, F, phi, x, axes):
    """Σ over the nodes w of the axes of F(w)·cell·φ(x·w⁻¹), the mirror of
    _group_convolution with the nodes on F: w is the walk's node block, the
    quotient x·w⁻¹ is L's rdiv of it, a bilinear block (groups._Bilinear)
    kept on w and refilled block by block, and φ is taken by _at at it.
    F gets w."""

    def integrand(w):
        q = L.rdiv(x, w)
        f = np.asarray(F(w))
        vals = _at(phi, q)
        if np.result_type(f, vals) != vals.dtype:
            return f * vals
        return np.multiply(vals, f, out=vals)  # φ's values, in place

    return _quadrature(axes, x.shape[1], integrand, split=L.split, values=2)


def _rows(points):
    """points as one (1, npoints, dim) float row, the layout the direct
    engines divide by."""
    return np.atleast_2d(np.asarray(points, dtype=float))[None, :, :]


def convolve_group(g, f, group, m, points, axes):
    """(g∗f)(X) = ∫ f(Y^{-1}X) g(Y) dY by Haar quadrature over the axes.
    On "M" with m its dimension, Y^{-1}X = X − Y: the abelian convolution
    g ∗_c f.  A TestFunction f takes the quotients of M and S as bilinear
    blocks (groups._Bilinear); any other f gets their dense values."""
    take = f if isinstance(f, TestFunction) else lambda q: f(np.asarray(q))
    return _group_convolution(law(group, m), g, take, _rows(points), axes)


def _c_picture(F_ext, case, m, base_points, shift_points):
    """What both ∗_c engines integrate on: c_law; X, the base points with
    the shifts in their acting slots, as (1, npoints, dim) rows; and F̃ at
    a bilinear block w of c_law (the engines give no other): F_ext at w's
    top slots and the base points' acting slots, with w's acting slots as
    the shift, as blocks with w's sides, kept on w (_Bilinear._kept)."""
    L = law(case, m)
    x, a = _rows(base_points), L.acting
    X = x.copy()
    X[..., a] = _rows(shift_points)
    return L.c_law, X, lambda w: F_ext(*w._kept(
        "c_picture", x, lambda: (w.replaced(a, x[..., a]), w.take(a))))


def convolve_extended_c(phi, F_ext, case, m, base_points, shift_points, axes):
    """(φ ∗_c F)(base, u): quadrature over the base group's coordinates.

    φ lives on the base group (N for K1, S for H); F_ext(base, shift) is an
    extended-group function (typically a tilde extension).  The ∗_c
    translate by Y is the quotient Y⁻¹X on the commutative picture's law
    (c_law), X the base with the shift u in its acting slots, at which F
    is taken as F̃ (_c_picture).
    """
    C, X, F = _c_picture(F_ext, case, m, base_points, shift_points)
    return _group_convolution(C, phi, F, X, axes)


def convolve_extended_c_substituted(phi, F_ext, case, m, base_points,
                                    shift_points, axes):
    """Same integral as convolve_extended_c after substituting W = Y⁻¹X on
    c_law, so the quadrature nodes sit on F's abelian-slot mass instead of
    φ's: Σ_W F̃(W)·φ(X·W⁻¹)·cell.  The substitution has Jacobian 1; `axes`
    parameterize W in the base's coordinates, as convolve_extended_c's
    parameterize Y.  On H the walk is factored, as T splits; on K1, whose
    c_law M does not, it is dense.  F̃ and φ get bilinear blocks
    (_substituted_convolution).
    """
    C, X, F = _c_picture(F_ext, case, m, base_points, shift_points)
    return _substituted_convolution(C, F, phi, X, axes)


def convolve_extended_group(phi, F_ext, case, m, base_points, shift_points,
                            axes):
    """(φ ∗ F)(base, u) = ∫ φ(Y) F(Y^{-1}∘base, u) dY over the base group.

    On the unimodular N the substitution Z = Y^{-1}∘base, of Jacobian 1,
    places the nodes on F's mass: ∫ φ(base∘Z^{-1}) F(Z, u) dZ, the axes
    parameterizing Z.  On S the axes parameterize Y, so the nodes sit on
    φ's mass: there the substitution's Jacobian would shear the integrand
    exponentially.  F_ext gets Z, or Y^{-1}∘base, as a bilinear block
    (groups._Bilinear), which np.asarray makes dense and
    tilde_eval_coords passes on to a TestFunction.  F_ext must broadcast
    the leading axes of its two arguments, as tilde extensions do.
    """
    B = law(case, m).base
    x, s = _rows(base_points), _rows(shift_points)
    if B.unimodular:
        return _substituted_convolution(B, lambda z: F_ext(z, s), phi, x, axes)
    return _group_convolution(B, phi, lambda b: F_ext(b, s), x, axes)


# ── exact lattice engines ────────────────────────────────────────────────────
# Each takes a sequence of k probes p in place of one weight and evaluates f
# (or F̃) once for all of them: a (k, npoints) array, row j for the j-th
# probe, in the C order of the output lattice, float when every input is.

def _difference_nodes(out_axis, node_axis):
    """The P_node + P_out − 1 values of out − node, ascending; the two axes
    must share their step."""
    h = node_axis.step
    if abs(out_axis.step - h) > 1e-12 * h:
        raise ValueError(f"paired axes have steps {out_axis.step!r} and {h!r}; "
                         "a lattice engine needs equal steps")
    lo = (grid_nodes(out_axis)[0] - grid_nodes(node_axis)[0]
          - (node_axis.points - 1) * h)
    return lo + h * np.arange(node_axis.points + out_axis.points - 1)


def _lattice_sum(probes, axes, slots, out_axes, outer, samples):
    """Σ over the probes' nodes (y, l) of p(y, l)·cell·D_y[o, j − l] for
    each probe p, outer index o and output node j: (k, *outer, *out points).
    slots orders the node axes: first those walked, which do not commute,
    in _node_blocks' blocks of y, then one paired with each of out_axes.
    samples gets a block's (b, 1, walked) node buffer (None, one block,
    when none is walked) and returns D on it, (b, *outer, *difference
    lattice of each pair, _difference_nodes).  Each paired axis is
    zero-padded to the next power of two ≥ P_node + P_out − 1, so the
    circular wraparound lands only on outputs thrown away.  The probes'
    spectrum is taken once; the products with D's spectrum are summed in
    frequency space node by node, in the walk's order, and transformed back
    once, by real-input transforms when the probes and D are float."""
    n = len(slots) - len(out_axes)
    p_node = [axes[i].points for i in slots[n:]]
    p_out = [a.points for a in out_axes]
    lattice = [pn + po - 1 for pn, po in zip(p_node, p_out)]
    shape = [1 << (d - 1).bit_length() for d in lattice]
    ax = range(-len(shape), 0)
    mesh = grid_mesh(axes)
    weights = np.stack([np.asarray(p(mesh)) for p in probes]).transpose(
        (0,) + tuple(1 + i for i in slots)).reshape(
        (len(probes), -1) + (1,) * len(outer) + tuple(p_node))
    del mesh
    walked = [axes[i] for i in slots[:n]]
    blocks = (_node_blocks(walked, math.prod(outer) * math.prod(lattice))
              if walked else [((None,), 1.0)])
    spec = w_hat = None
    lo = 0
    for nodes, _ in blocks:
        vals = samples(nodes[0])
        if w_hat is None:
            fft, ifft = ((np.fft.rfftn, np.fft.irfftn)
                         if np.isrealobj(weights) and np.isrealobj(vals)
                         else (np.fft.fftn, np.fft.ifftn))
            w_hat = fft(weights, shape, axes=ax)
        part = w_hat[:, lo:lo + len(vals)] * fft(vals, shape, axes=ax)
        lo += len(vals)
        del vals  # so the next block's samples are not formed beside them
        if spec is not None:
            part[:, 0] += spec
        spec = part.sum(axis=1)
    crop = tuple(slice(pn - 1, pn - 1 + po) for pn, po in zip(p_node, p_out))
    return (ifft(spec, shape, axes=ax)[(Ellipsis,) + crop]
            * float(np.prod([a.step for a in axes])))


def _iota_quotients(x, out_axes, axes):
    """ι(a)⁻¹(x, σ, s) = (x − a, σ − a·s, s) on N with m = 3, by the N law's
    ldiv, for a block of a nodes (b, 1, 1): (b, P_x, P_σ, P_s, 3), (σ, s)
    the difference lattices of out_axes' z and y against axes'."""
    mesh = node_mesh([x, _difference_nodes(out_axes[1], axes[1]),
                      _difference_nodes(out_axes[2], axes[2])])
    K1 = law("K1", 3)
    return lambda a: K1.base.ldiv(K1.iota(a)[:, :, None, None], mesh)


def convolve_group_lattice(probes, f, out_axes, axes):
    """(p∗f)(X) on N with m = 3 for each of the probes p, at every node of
    out_axes: the same Riemann sum as convolve_group over the nodes of
    axes, exact up to rounding in O(P⁴ log P).  For X = (x, z, y) and
    Y = (a, c, b), Y⁻¹X = (x−a, z−c−a(y−b), y−b): for each a the (z, y)
    sum is a 2-D linear convolution of p(a, ·, ·) with f(ι(a)⁻¹(x, σ, s))
    on the difference lattice (σ, s), x the outer axis, a the walked one.
    f is any callable on N coordinates.  The z and y axes of out_axes must
    share their steps with those of axes."""
    out_axes, axes = tuple(out_axes), tuple(axes)
    quotients = _iota_quotients(grid_nodes(out_axes[0]), out_axes, axes)
    return _lattice_sum(probes, axes, (0, 1, 2), out_axes[1:],
                        (out_axes[0].points,),
                        lambda a: f(quotients(a))).reshape(len(probes), -1)


def convolve_group_pullback_lattice(probes, g, out_axes, axes):
    """(p∗g)∘Γ⁻¹ on K1 with m = 3 for each of the probes p, at every node of
    the M lattice out_axes, in M order (z, y, x): the same Riemann sum over
    the nodes of axes as convolve_group at Γ⁻¹ of the M mesh, exact up to
    rounding in O(P⁴ log P).  For Y = (a, c, b) and X = Γ⁻¹(v_z, v_y, u), c
    is central, so Y⁻¹X = (a, 0, b)⁻¹Γ⁻¹(σ, v_y, u) with σ = v_z − c: the c
    sum is a 1-D linear convolution along z of p(a, ·, b) with g on the
    difference lattice σ, (u, v_y) the outer axes, (a, b) the walked ones.
    g is evaluated on P_u·P_a·P_b·P_vy·(P_z,out + P_z,node − 1) points.  M's
    z axis must share its step with that of axes."""
    out_axes, axes = tuple(out_axes), tuple(axes)
    K1 = law("K1", 3)
    # the M points (σ, v_y, u) laid out (u, v_y, σ), each column contiguous
    planes = K1.gamma_inv(node_mesh(
        [grid_nodes(out_axes[2]), grid_nodes(out_axes[1]),
         _difference_nodes(out_axes[0], axes[1])])[..., ::-1])

    def at(ab):  # g at (a, 0, b)⁻¹ of the planes, for a block of (a, b)
        y = np.insert(ab, 1, 0.0, axis=-1)[:, :, None, None]
        return g(K1.base.ldiv(y, planes))

    rows = _lattice_sum(probes, axes, (0, 2, 1), out_axes[:1],
                        (out_axes[2].points, out_axes[1].points), at)
    return rows.transpose(0, 3, 2, 1).reshape(len(probes), -1)


def convolve_extended_c_lattice(probes, F_ext, m, out_axes, axes):
    """(p ∗_c F) on K1 at base acting slots 0 for each of the probes p, at
    every node of the M lattice out_axes, in (top, shift) order, axes the
    probes' node axes on N in (acting, top) order.  With the acting slots 0
    the ∗_c translate of (v, u) by Y is F((0, v − y_top), u − y_act), so
    convolve_extended_c's Riemann sum is one linear convolution of p's node
    samples in M order with F on the difference lattice, no axis walked.
    Each M axis must share its step with its node axis."""
    out_axes, axes = tuple(out_axes), tuple(axes)
    L = law("K1", m)
    diff = [_difference_nodes(o, axes[i]) for o, i in zip(out_axes, L.m_order)]
    vals = F_ext(*L.m_split(node_mesh(diff)))[None]
    return _lattice_sum(probes, axes, L.m_order, out_axes, (),
                        lambda _: vals).reshape(len(probes), -1)


# ── reduction identities ─────────────────────────────────────────────────────

def theorem31_residual(phi, f, case, m, points, axes_phi, axes_f):
    """max |(φ∗f̃)(p) − (φ∗_c f̃)(p)| over extended points p.

    points: iterable of (base coords, shift coords) pairs.  The two sides
    are discretized independently: one with nodes on φ's mass (axes_phi),
    the other with substituted variables placing the nodes on f's mass
    (axes_f), both axes in the base's coordinates.  For K1 the substitution
    is applied on the group side (Z = Y^{-1}∘base, convolve_extended_group
    on N); for H it is applied on the abelian side (W = Y⁻¹X on c_law),
    because the group-side substitution on the non-unimodular S shears the
    integrand exponentially and is numerically useless.  Returns
    (residual, scale), scale = max |lhs|.
    """
    base_points = np.atleast_2d(np.asarray([p[0] for p in points], dtype=float))
    shift_points = np.atleast_2d(np.asarray([p[1] for p in points], dtype=float))

    F_ext = partial(tilde_eval_coords, f, case, m)
    if law(case, m).base.unimodular:
        lhs = convolve_extended_group(phi, F_ext, case, m, base_points,
                                      shift_points, axes_f)
        rhs = convolve_extended_c(phi, F_ext, case, m, base_points,
                                  shift_points, axes_phi)
    else:
        lhs = convolve_extended_group(phi, F_ext, case, m, base_points,
                                      shift_points, axes_phi)
        rhs = convolve_extended_c_substituted(phi, F_ext, case, m, base_points,
                                              shift_points, axes_f)
    scale = float(np.max(np.abs(lhs)))
    return float(np.max(np.abs(lhs - rhs))), scale


def projected_convolution_check(phi, f, case, m, axes_ext, freq_indices):
    """Projected convolution theorem at dual-grid frequency points.

    LHS: the transform of φ∗f̃ integrated over the acting-slot frequencies
    with measure ΠΔλ/(2π).  On acting axes centred at 0 with even P that
    integral is the inverse transform at the node 0, so the LHS is the M
    transform of φ∗f̃ at acting = 0 (group-law quadrature; for K1 with
    m = 3 one lattice walk).  RHS: the transform of Γ⁻¹f times that of φ,
    whose acting frequencies are paired with the shift's.  freq_indices
    index the M dual axes, (top slots, shift).  Returns (residual, scale).
    """
    axes_ext = tuple(axes_ext)
    L = law(case, m)
    d_base = L.base.dim
    base_axes = axes_ext[:d_base]
    for i, j in zip(range(d_base)[L.acting], range(d_base, len(axes_ext))):
        if abs(axes_ext[i].center) > 1e-15:
            raise ValueError("acting axes must be centered at 0")
        if (axes_ext[i].points, axes_ext[i].step) != (axes_ext[j].points, axes_ext[j].step):
            raise ValueError("acting and shift axes must share P and h")
    m_axes = base_axes[L.top] + axes_ext[d_base:]
    F_ext = partial(tilde_eval_coords, f, case, m)

    # LHS: φ∗f̃ on the M grid ------------------------------------------------
    if L.base is law("N", 3):
        # the Heisenberg group has an exact lattice walk: one for every
        # shift u, its outer axis, at the one x node 0
        quotients = _iota_quotients([0.0], base_axes, base_axes)
        u = grid_nodes(axes_ext[d_base])[:, None, None, None]
        conv = _lattice_sum([phi], base_axes, (0, 1, 2), base_axes[1:],
                            (len(u),), lambda a: F_ext(quotients(a), u))
        conv = conv[0].transpose(1, 2, 0)  # (u, z, y) → M order (z, y, u)
    else:
        base, shift = L.m_split(grid_mesh(m_axes).reshape(-1, d_base))
        conv = convolve_extended_group(phi, F_ext, case, m, base, shift,
                                       base_axes)
    lhs = fourier_forward(GridFunction(
        m_axes, conv.reshape([a.points for a in m_axes]))).samples

    # RHS: φ's axes in M order put its acting frequencies on the shift's ----
    Fhat0 = fourier_forward(sample(gamma_inv(f, case, m), m_axes)).samples
    phihat = fourier_forward(sample(phi, base_axes)).samples
    rhs = Fhat0 * phihat.transpose(L.m_order)

    idx = tuple(np.asarray(freq_indices, dtype=int).T)
    lhs_vals, rhs_vals = lhs[idx], rhs[idx]
    scale = float(max(np.max(np.abs(lhs_vals)), np.max(np.abs(rhs_vals))))
    return float(np.max(np.abs(lhs_vals - rhs_vals))), scale
