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

from dataclasses import dataclass
from functools import partial

import numpy as np

from .extension import gamma_inv, tilde_eval_coords
from .groups import empty_columns, law
from .testfuncs import (
    Axis, GridFunction, TestFunction, dual_axis, grid_mesh, grid_nodes,
    node_mesh, sample,
)

__all__ = [
    "PlancherelReport", "fourier_forward", "fourier_inverse",
    "inverse_in_place", "plancherel_check", "convolve_group",
    "convolve_extended_c", "convolve_extended_c_substituted",
    "convolve_extended_group", "convolve_group_lattice",
    "convolve_extended_c_lattice", "theorem31_residual",
    "projected_convolution_check",
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
    vals = np.array(gf.samples, dtype=complex)
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


def fourier_inverse(F, axes=None):
    """Σ_j F(λ_j) e^{+i λ_j x_k} ΠΔλ/(2π) on the given spatial axes.

    The default axes are the centered duals of F's axes; pass the original
    axes to undo fourier_forward exactly.  One copy of F's samples is
    transformed in place; F is not changed.
    """
    if axes is None:
        axes = tuple(dual_axis(a) for a in F.axes)
    axes = tuple(axes)
    if tuple(a.points for a in axes) != tuple(a.points for a in F.axes):
        raise ValueError("axis point counts do not match")
    vals = np.array(F.samples, dtype=complex)
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

    A TestFunction with real coefficients is sampled by on_grid into real
    samples, which go through a real-input FFT (_real_norms); any other f
    is sampled as a complex GridFunction and goes through fourier_forward,
    the reference transform."""
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
    """(∫|f|² dx, ∫|𝓕f|² Πdλ/(2π)) of a real-valued TestFunction.  At the
    peak the float samples and one half-spectrum buffer are alive, about
    one complex grid; the samples go before the spectrum is squared.

    The phase factors and the (−1)ⁿ modulation of fourier_forward have
    modulus 1, so Σ|𝓕f|² is Πh² times Σ|fftn(f)|².  For real samples
    fftn is Hermitian, so that sum is rfftn's half spectrum counted twice,
    except the planes 0 and P/2 of the last axis, which are their own
    conjugates and count once."""
    vals = f.on_grid(axes)
    cell = float(np.prod([a.step for a in axes]))
    time_sq = _norm_sq(vals) * cell
    half = np.empty(vals.shape[:-1] + (vals.shape[-1] // 2 + 1,),
                    dtype=complex)
    np.fft.rfftn(vals, out=half)
    del vals
    sq = np.abs(half)
    del half
    np.square(sq, out=sq)
    sq[..., 1:-1] *= 2.0
    dual = float(np.prod([dual_axis(a).step for a in axes]))
    freq_sq = float(np.sum(sq)) * (cell * cell * dual
                                   / (2.0 * np.pi) ** len(axes))
    return time_sq, freq_sq


# ── convolution engines ──────────────────────────────────────────────────────

_CHUNK = 1 << 14  # node·point pairs per block; BENCH_3.json has the sweep


def _block_size(axes, npoints):
    """Nodes per block: the largest power of two within _CHUNK // npoints
    (at least one), or every node of the grid when it has fewer."""
    total = int(np.prod([a.points for a in axes]))
    return min(total, 1 << (max(1, _CHUNK // max(npoints, 1)).bit_length() - 1))


def _node_blocks(axes, npoints, out=None):
    """Yield (nodes, cell volume): the product grid's nodes in C order, in
    blocks of _block_size nodes.  Axis sizes are powers of two too, so a
    block is a product of index ranges, one per axis, of the same lengths
    in every block; the full mesh is never built.  Each block's coordinate
    columns are contiguous, as the group laws lay out theirs.  Given out, a
    (block size, k) array in that layout, every block is written into it,
    and the columns of axes that every block covers whole are written once;
    the consumer must not change it."""
    shape = [a.points for a in axes]
    grids = [grid_nodes(a) for a in axes]
    cell = float(np.prod([a.step for a in axes]))
    total = int(np.prod(shape))
    size = _block_size(axes, npoints)
    for lo in range(0, total, size):
        ranges, lengths, stride = [], [], total
        for p, g in zip(shape, grids):
            stride //= p
            start, n = lo // stride % p, min(p, max(1, size // stride))
            whole = out is not None and lo > 0 and n == p
            ranges.append(None if whole else g[start:start + n])
            lengths.append(n)
        if out is None:
            yield node_mesh(ranges).reshape(-1, len(axes)), cell
        else:
            node_mesh(ranges, out.reshape(tuple(lengths) + (len(axes),),
                                          copy=False))
            yield out, cell


def _quadrature(axes, npoints, integrand, weights=None):
    """Σ over the nodes y of the axes' product grid, block by block, of
    F(y)·cell, or with weights, a sequence of k functions, of
    w_j(y)·cell·F(y) for each: a (k, npoints) array, row j for w_j, from
    one tensordot of each block's (k, nodes) weights with F.  F(y) holds
    one row of npoints values per node and is evaluated once per block
    for all the weights; one weight is the case k = 1.  The sums are float
    when the weights and F are.

    Every block has the same n nodes, so integrand(n) is called once: it
    allocates the buffers every block refills and returns F.  The block's
    nodes are refilled in place too."""
    n = _block_size(axes, npoints)
    block_integrand = integrand(n)
    total = None
    for y, cell in _node_blocks(axes, npoints,
                                out=empty_columns((n, len(axes)))):
        vals = np.asarray(block_integrand(y))
        if weights is None:
            part = vals.sum(axis=0) * cell
        else:
            w = np.stack([wt(y) for wt in weights])
            w *= cell
            part = np.tensordot(w, vals, axes=(1, 0))
        total = part if total is None else total + part
    return total


def _group_convolution(L, weights, f, x, axes):
    """Σ over the nodes y of the axes of w_j(y)·cell·f(y⁻¹x) for each
    weight w_j: a (k, npoints) array.  x is (1, npoints, L.dim); the
    quotient y⁻¹x is L's ldiv into a kept buffer, y⁻¹ into kept scratch."""
    def integrand(n):
        q = empty_columns((n,) + x.shape[1:])
        yinv = empty_columns((n, 1, L.dim))
        return lambda y: f(L.ldiv(y[:, None, :], x, out=q, scratch=yinv))

    return _quadrature(axes, x.shape[1], integrand, weights=weights)


def convolve_group(g, f, group, m, points, axes):
    """(g∗f)(X) = ∫ f(Y^{-1}X) g(Y) dY by Haar quadrature over the axes.
    On "M" with m its dimension, Y^{-1}X = X − Y: the abelian convolution
    g ∗_c f.  Given a sequence of weights g_1..g_k in place of g, the k
    convolutions g_j∗f share each block's values of f: a (k, npoints)
    array, row j for g_j."""
    x = np.atleast_2d(np.asarray(points, dtype=float))[None, :, :]
    if callable(g):
        return _group_convolution(law(group, m), [g], f, x, axes)[0]
    return _group_convolution(law(group, m), g, f, x, axes)


def _put(out, a):
    """out = a, one coordinate column at a time, a broadcasting against
    out."""
    for i in range(out.shape[-1]):
        np.copyto(out[..., i], a[..., i])


def _c_translate(L, base, shift, y, out, scratch):
    """The ∗_c translate: y's top slots divide the base's on the left by
    the top law, y's acting slots are subtracted from the shift, and the
    acting slots stay fixed.

    For H the top law is N's (the T picture is the direct product
    N × R^{m-1}); the b-slot of the base is untouched.  Both parts are
    views of out, one (nodes, points, dim) buffer; scratch, of y's top
    slots' shape, holds their inverse (a fresh one when None).
    """
    d_b, a, t, top = L.base.dim, L.acting, L.top, L.top_law
    nb, ns = out[..., :d_b], out[..., d_b:]
    _put(nb[..., a], base[..., a])
    top.ldiv(y[..., t], base[..., t], out=nb[..., t], scratch=scratch)
    law("M", None).ldiv(y[..., a], shift, out=ns)
    return nb, ns


def convolve_extended_c(phi, F_ext, case, m, base_points, shift_points, axes):
    """(φ ∗_c F)(base, u): quadrature over the base group's coordinates.

    φ lives on the base group (N for K1, S for H); F_ext(base, shift) is an
    extended-group function (typically a tilde extension).
    """
    L = law(case, m)
    x = np.atleast_2d(np.asarray(base_points, dtype=float))[None, :, :]
    s = np.atleast_2d(np.asarray(shift_points, dtype=float))[None, :, :]

    def integrand(n):
        buf = empty_columns((n, x.shape[1], L.dim))
        yinv = empty_columns((n, 1, L.top_law.dim))
        return lambda y: F_ext(*_c_translate(L, x, s, y[:, None, :], buf,
                                             yinv))

    return _quadrature(axes, x.shape[1], integrand, weights=[phi])[0]


def convolve_extended_c_substituted(phi, F_ext, case, m, base_points,
                                    shift_points, axes):
    """Same integral as convolve_extended_c after substituting W = p ⊖ Y,
    so the quadrature nodes sit on F's abelian-slot mass instead of φ's.
    The substitution has Jacobian 1; `axes` parameterize W in M-order
    (top, shift) for K1 and (n, shift) for H.
    """
    L = law(case, m)
    x = np.atleast_2d(np.asarray(base_points, dtype=float))[None, :, :]
    s = np.atleast_2d(np.asarray(shift_points, dtype=float))[None, :, :]
    d_b, a, t, top = L.base.dim, L.acting, L.top, L.top_law

    def integrand(n):
        # w = (top, shift): F at (x_act, w_top; w_shift), φ at
        # (x_top ⊘ w_top, s − w_shift); F's (base, shift) share one buffer,
        # whose x_act slots every block shares
        lead = (n, x.shape[1])
        fa, y = empty_columns(lead + (L.dim,)), empty_columns(lead + (d_b,))
        winv = empty_columns((n, 1, top.dim))
        fb, fs = fa[..., :d_b], fa[..., d_b:]
        _put(fb[..., a], x[..., a])

        def block_integrand(block):
            w = block[:, None, :]
            wt, ws = w[..., :top.dim], w[..., top.dim:]
            _put(fb[..., t], wt)
            _put(fs, ws)
            law("M", None).ldiv(ws, s, out=y[..., a])
            top.rdiv(x[..., t], wt, out=y[..., t], scratch=winv)
            return F_ext(fb, fs) * phi(y)

        return block_integrand

    return _quadrature(axes, x.shape[1], integrand)


def convolve_extended_group(phi, F_ext, case, m, base_points, shift_points,
                            axes):
    """(φ ∗ F)(base, u) = ∫ φ(Y) F(Y^{-1}∘base, u) dY over the base group.

    On the unimodular N the substitution Z = Y^{-1}∘base, of Jacobian 1,
    places the nodes on F's mass: ∫ φ(base∘Z^{-1}) F(Z, u) dZ, the axes
    parameterizing Z.  On S the axes parameterize Y, so the nodes sit on
    φ's mass: there the substitution's Jacobian would shear the integrand
    exponentially.  F_ext must broadcast the leading axes of its two
    arguments, as tilde extensions do.
    """
    B = law(case, m).base
    x = np.atleast_2d(np.asarray(base_points, dtype=float))[None, :, :]
    s = np.atleast_2d(np.asarray(shift_points, dtype=float))[None, :, :]
    if not B.unimodular:
        return _group_convolution(B, [phi], lambda b: F_ext(b, s), x, axes)[0]

    def integrand(n):
        q = empty_columns((n, x.shape[1], B.dim))
        zinv = empty_columns((n, 1, B.dim))

        def block_integrand(block):
            z = block[:, None, :]
            y = B.rdiv(x, z, out=q, scratch=zinv)  # Y = base∘Z⁻¹
            return F_ext(z, s) * phi(y)

        return block_integrand

    return _quadrature(axes, x.shape[1], integrand)


# ── exact lattice engines ────────────────────────────────────────────────────

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


def _lattice_convolve(nodes, diffs, p_node, p_out, sum_axis=None):
    """Linear convolution over the trailing len(p_node) axes, keeping only
    the wanted outputs: out[j] = Σ_l nodes[l] · diffs[j − l + P_node − 1].

    diffs are samples on _difference_nodes, leading axes broadcast, and
    sum_axis (of the broadcast product) is summed in frequency space.  Each
    axis is zero-padded to the next power of two ≥ P_node + P_out − 1, so the
    circular wraparound lands only on outputs that are thrown away.
    """
    ax = tuple(range(-len(p_node), 0))
    shape = [1 << (pn + po - 2).bit_length() for pn, po in zip(p_node, p_out)]
    spec = np.fft.fftn(nodes, shape, axes=ax) * np.fft.fftn(diffs, shape, axes=ax)
    if sum_axis is not None:
        spec = spec.sum(axis=sum_axis)
    full = np.fft.ifftn(spec, axes=ax)
    return full[(Ellipsis,) + tuple(slice(pn - 1, pn - 1 + po)
                                    for pn, po in zip(p_node, p_out))]


def convolve_group_lattice(g, f, out_axes, axes):
    """(g∗f)(X) on N with m = 3 at every node of out_axes, as GridFunction.

    The same Riemann sum as convolve_group over the nodes of axes, exact up
    to rounding in O(P⁴ log P).  For X = (x, z, y) and Y = (a, c, b),
    Y^{-1}X = (x−a, z−c−a(y−b), y−b): for each pair (x, a) the (z, y) sum is
    a 2-D linear convolution of g(a, ·, ·) with f(ι(a)⁻¹(x, σ, s)) =
    f(x−a, σ−a·s, s) on the difference lattice (σ, s), the quotient taken by
    the N law's ldiv.  f is any callable on N coordinates.  The z
    and y axes of out_axes must share their steps with those of axes.
    """
    out_axes, axes = tuple(out_axes), tuple(axes)
    sigma = _difference_nodes(out_axes[1], axes[1])
    s = _difference_nodes(out_axes[2], axes[2])
    iota_a = law("K1", 3).iota(grid_nodes(axes[0])[:, None])
    x = node_mesh([grid_nodes(out_axes[0]), sigma, s])
    pts = law("N", 3).ldiv(iota_a[:, None, None, :], x[:, None])
    diffs = np.asarray(f(pts), dtype=complex)
    weights = np.asarray(g(grid_mesh(axes)), dtype=complex)
    out = _lattice_convolve(weights, diffs, [ax.points for ax in axes[1:]],
                            [ax.points for ax in out_axes[1:]], sum_axis=1)
    cell = float(np.prod([ax.step for ax in axes]))
    return GridFunction(out_axes, out * cell)


def convolve_extended_c_lattice(phi, F_ext, m, out_axes, axes):
    """(φ ∗_c F) on K1 at base acting slots 0, at every node of the M
    lattice out_axes, as GridFunction.

    out_axes are M axes in (top, shift) order, axes φ's node axes on N in
    (acting, top) order.  With the acting slots 0 the ∗_c translate of
    (v, u) by Y is F((0, v − y_top), u − y_act), so the sum is one linear
    convolution of φ's node samples, taken in M order, with F sampled once
    on the difference lattice: the same Riemann sum as convolve_extended_c,
    exact up to rounding.  Each M axis must share its step with its node axis.
    """
    out_axes, axes = tuple(out_axes), tuple(axes)
    L = law("K1", m)
    order = L.m_order
    nodes_m = [axes[i] for i in order]
    diff = [_difference_nodes(o, n) for o, n in zip(out_axes, nodes_m)]
    diffs = np.asarray(F_ext(*L.m_split(node_mesh(diff))), dtype=complex)
    weights = np.asarray(phi(grid_mesh(axes)), dtype=complex).transpose(order)
    out = _lattice_convolve(weights, diffs, [ax.points for ax in nodes_m],
                            [ax.points for ax in out_axes])
    cell = float(np.prod([ax.step for ax in axes]))
    return GridFunction(out_axes, out * cell)


# ── reduction identities ─────────────────────────────────────────────────────

def theorem31_residual(phi, f, case, m, points, axes_phi, axes_f):
    """max |(φ∗f̃)(p) − (φ∗_c f̃)(p)| over extended points p.

    points: iterable of (base coords, shift coords) pairs.  The two sides
    are discretized independently: one with nodes on φ's mass (axes_phi),
    the other with substituted variables placing the nodes on f's mass
    (axes_f).  For K1 the substitution is applied on the group side
    (Z = Y^{-1}∘base, convolve_extended_group on N); for H it is applied on
    the abelian side (W = p ⊖ Y), because the group-side substitution on
    the non-unimodular S shears the integrand exponentially and is
    numerically useless.  Returns (residual, scale), scale = max |lhs|.
    """
    base_points = np.atleast_2d(np.asarray([p[0] for p in points], dtype=float))
    shift_points = np.atleast_2d(np.asarray([p[1] for p in points], dtype=float))

    def F_ext(base, shift):
        return tilde_eval_coords(f, case, m, base, shift)

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
    m = 3 the lattice engine).  RHS: the transform of Γ⁻¹f times that of φ,
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
        # the Heisenberg group has an exact lattice engine: one group
        # convolution per shift value u, on the x nodes (−h, 0)
        out_axes = (Axis(0.0, base_axes[0].step, 2),) + base_axes[1:]
        conv = np.stack(
            [convolve_group_lattice(phi, lambda b: F_ext(b, np.array([u])),
                                    out_axes, base_axes).samples[1]
             for u in grid_nodes(axes_ext[d_base])], axis=-1)
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
