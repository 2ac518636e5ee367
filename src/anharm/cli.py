"""Batch verification driver.

Subcommands::

    anharm verify {group-axioms,plancherel,convolution-identity,
                   projected-convolution,operator-identity,ideals,
                   scalar-groups,all} [flags]
    anharm solve fundamental-solution --operator EXPR [flags]

Reports are JSON-lines (one object per report line, ``"schema": 1``) or a
CSV summary.  Exit codes: 0 all gating checks pass, 1 check failure, 2
usage/configuration error, 3 I/O error.  Reports contain no clock data
unless --timings is given, so identical seed and configuration produce
byte-identical output.  --timings gives each line its own ``wall_time``: a
field of its JSON object, or the last column of the CSV.
"""

import argparse
import copy
import csv
import io
import json
import math
import sys
import time
from collections import namedtuple

import numpy as np

from .groups import law
from .harmonic import (
    _slab_rows, plancherel_check, projected_convolution_check,
    theorem31_residual,
)
from .ideals import (
    TransportGramError, correspondence_check, gamma_intertwine_residual,
    ideal_model, transport_gram_deviation,
)
from .operators import (
    EnvelopingElement, check_supported, fundamental_solution_group,
    operator_identity_residual,
)
from .scalars import (
    NegReal, iso_Phi, iso_Psi, iso_Psi_inv, iso_psi, neg_identity, neg_inv,
    neg_mul, pair_mul,
)
from .testfuncs import Axis, GridFunction, export_csv, gaussian

__all__ = ["main", "parse_operator", "OperatorSyntaxError"]

# The cap on a command's estimated peak memory (plancherel_peak_bytes,
# solve_peak_bytes, identity_peak_bytes, group_axioms_peak_bytes); the 32⁵
# plancherel grid is estimated at 0.281 GiB.
MAX_GRID_BYTES = 2 << 30

# The random points x, y and z that check_group_axioms draws on each law.
AXIOM_POINTS = 10_000


# ── operator expression parser ───────────────────────────────────────────────

# The deepest nesting of parentheses and unary minus signs parse_operator
# accepts.  Each level costs the recursive parser up to three frames, so the
# deepest expression stays well inside Python's default recursion limit of
# 1000, also when called from a deep stack such as a test runner's.
_MAX_NESTING = 200

class OperatorSyntaxError(ValueError):
    """Malformed operator expression; carries the offending position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _tokenize(expr):
    tokens = []
    i, n = 0, len(expr)
    while i < n:
        c = expr[i]
        if c.isspace():
            i += 1
        elif c in "+-*()":
            tokens.append((c, c, i))
            i += 1
        elif c in "Ee" and i + 1 < n and expr[i + 1].isdigit():
            j = i + 1
            while j < n and expr[j].isdigit():
                j += 1
            tokens.append(("gen", int(expr[i + 1:j]), i))
            i = j
        elif c.isdigit() or c == ".":
            j = i
            while j < n and (expr[j].isdigit() or expr[j] in ".eE"):
                if expr[j] in "eE" and j + 1 < n and expr[j + 1] in "+-":
                    j += 1
                j += 1
            try:
                val = float(expr[i:j])
            except ValueError:
                raise OperatorSyntaxError(f"bad literal {expr[i:j]!r}", i)
            if not math.isfinite(val):
                raise OperatorSyntaxError(
                    f"literal {expr[i:j]!r} is not finite", i)
            tokens.append(("num", val, i))
            i = j
        else:
            raise OperatorSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


def parse_operator(expr, dim):
    """Parse sums of products of E<k> tokens and literals into an element.

    Generators are written E1..E<dim>; ``*`` composes (order-sensitive),
    ``+``/``-`` add, parentheses group.  Parentheses and unary minus signs
    nest at most _MAX_NESTING deep.
    """
    tokens = _tokenize(expr)
    pos = [0]
    depth = [0]

    def peek():
        return tokens[pos[0]]

    def advance():
        tok = tokens[pos[0]]
        pos[0] += 1
        return tok

    def parse_factor():
        kind, val, at = advance()
        if kind == "num":
            return ((complex(val), ()),)
        if kind == "gen":
            if not 1 <= val <= dim:
                raise OperatorSyntaxError(
                    f"generator E{val} out of range 1..{dim}", at)
            return (((1 + 0j), (val - 1,)),)
        if kind not in ("-", "("):
            raise OperatorSyntaxError(f"unexpected token {kind!r}", at)
        depth[0] += 1
        if depth[0] > _MAX_NESTING:
            raise OperatorSyntaxError(
                f"nesting deeper than {_MAX_NESTING} levels", at)
        if kind == "-":
            inner = tuple((-c, w) for c, w in parse_factor())
        else:
            inner = parse_expr()
            kind2, _, at2 = advance()
            if kind2 != ")":
                raise OperatorSyntaxError("expected ')'", at2)
        depth[0] -= 1
        return inner

    def parse_term():
        terms = parse_factor()
        while peek()[0] == "*":
            advance()
            rhs = parse_factor()
            terms = tuple((c1 * c2, w1 + w2)
                          for c1, w1 in terms for c2, w2 in rhs)
        return terms

    def parse_expr():
        terms = parse_term()
        while peek()[0] in "+-":
            op, _, _ = advance()
            rhs = parse_term()
            if op == "-":
                rhs = tuple((-c, w) for c, w in rhs)
            terms = terms + rhs
        return terms

    terms = parse_expr()
    kind, _, at = peek()
    if kind != "end":
        raise OperatorSyntaxError(f"trailing input {kind!r}", at)
    merged = {}
    for c, w in terms:
        merged[w] = merged.get(w, 0j) + c
    out = tuple((c, w) for w, c in merged.items() if c != 0)
    if not out:
        out = ((0j, ()),)
    return EnvelopingElement(dim, out)


# ── report plumbing ──────────────────────────────────────────────────────────

def _line(check, params, metric, value, tolerance):
    """One report line.  A value of None, one the check could not compute,
    and a NaN or infinite one are written as null and fail."""
    if value is not None and not math.isfinite(value):
        value = None
    return {
        "schema": 1,
        "check": check,
        "params": params,
        "metric": metric,
        "value": None if value is None else float(value),
        "tolerance": float(tolerance),
        "pass": value is not None and bool(value <= tolerance),
        "gating": True,
    }


# ── checks ───────────────────────────────────────────────────────────────────
# Each check is a generator of report lines (params, metric, value,
# tolerance); the CHECKS table below gives its name and the flags it reads.

def _axiom_laws(cfg):
    """The (group, m) pairs of check_group_axioms, in its order."""
    return [(group, m) for group in ([cfg.group] if cfg.group else ["N", "S"])
            for m in ([cfg.m] if cfg.m else [2, 3, 4, 5])]


def check_group_axioms(cfg):
    rng = np.random.default_rng(cfg.seed)
    for group, m in _axiom_laws(cfg):
        L = law(group, m)
        mul, inv = L.mul, L.inv
        x, y, z = (rng.uniform(-2.0, 2.0, (AXIOM_POINTS, L.dim))
                   for _ in range(3))
        lhs = mul(mul(x, y), z)
        assoc = lhs - mul(x, mul(y, z))
        unit = mul(x, np.zeros(L.dim)) - x
        invv = mul(x, inv(x))
        # ρ factors inflate S intermediates; compare against their size
        scale = max(1.0, float(np.max(np.abs(lhs))))
        worst = max(np.max(np.abs(assoc)), np.max(np.abs(unit)),
                    np.max(np.abs(invv))) / scale
        yield ({"group": group, "m": m}, "max_rel_coord_err", worst,
               cfg.tol(1e-12))


def grid_bytes(axes):
    """Bytes of one complex sample array on the product grid of the axes."""
    return 16 * math.prod(a.points for a in axes)


def plancherel_peak_bytes(axes):
    """Estimated peak bytes of plancherel_check of a one-term real
    TestFunction, as check_plancherel samples, on the axes' grid (an upper
    bound): the half spectrum of the real-input FFT, its one grid-sized
    array, plus two float slab buffers (harmonic._slab_rows; the whole
    grid when it walks as one slab), the samples and the one a second term
    is written into, which for one term covers numpy's ufunc buffers and
    the FFT's scratch; plus four floats per node of each axis, which
    sampling keeps while it builds the per-axis factors (in 1-D these
    weigh as much as the samples; each further term keeps one more), and
    64 KiB for the small objects.

    tests/test_cli.py checks the estimate against tracemalloc peaks."""
    shape = [a.points for a in axes]
    n = math.prod(shape)
    half = n // shape[-1] * (shape[-1] // 2 + 1)
    slab = n // shape[0] * _slab_rows(shape)
    return 16 * half + 16 * slab + 32 * sum(shape) + (1 << 16)


def solve_peak_bytes(axes):
    """Estimated peak bytes of fundamental_solution_group on the axes' grid
    (an upper bound): 4.5 sample arrays, the twisted coordinate w, the
    frequency array, z and the two Horner sums alive at the Horner stage,
    plus 32 bytes per node of each axis for the per-axis vectors (dual
    nodes and phases), and 320 KiB for numpy's ufunc buffers, the caches a
    first call fills and the small objects.  tracemalloc measures 4.5
    arrays plus at most 257 KiB, from 2^10 to 2^20 points and on grids
    with one long axis; tests/test_cli.py checks the estimate."""
    return (9 * grid_bytes(axes) // 2 + 32 * sum(a.points for a in axes)
            + (5 << 16))


def identity_peak_bytes(axes):
    """Estimated peak bytes of check_convolution_identity's engines on the
    axes (an upper bound): each axis's nodes, two arrays of the longest's
    while they are built, and 1.5 MiB for one node block's buffers
    (harmonic._block_size) and the small objects.  tracemalloc measures
    about 0.96 MiB from P = 16 to 128; tests/test_cli.py checks the
    estimate."""
    n = [a.points for a in axes]
    return 8 * (sum(n) + 2 * max(n)) + (3 << 19)


def group_axioms_peak_bytes(dim):
    """Estimated peak bytes of check_group_axioms on a law of dimension dim
    (an upper bound): 9 arrays of AXIOM_POINTS × dim floats, the points
    x, y, z and the products and differences alive beside them, plus 1 MiB
    for the small objects and the caches a first call fills.  tracemalloc
    measures 8.0 to 8.3 arrays plus at most 2.2 MiB on N and S, m = 8 to
    24, the most on S, whose ρ factors add AXIOM_POINTS × (m - 1) floats;
    tests/test_cli.py checks the estimate."""
    return 9 * 8 * AXIOM_POINTS * dim + (1 << 20)


def _check_cap(command, shape, nbytes, peak):
    """Refuses, with a ValueError, a run whose estimated peak exceeds the
    cap; shape and nbytes are those of its sample array."""
    if peak > MAX_GRID_BYTES:
        raise ValueError(f"{command}: a {'×'.join(map(str, shape))} sample "
                         f"array needs {_gib(nbytes)} and about "
                         f"{_gib(peak)} at peak, above the "
                         f"{_gib(MAX_GRID_BYTES)} cap")


def _gib(nbytes):
    """nbytes in GiB, whole from 10 GiB up and to three decimals below,
    ties to even as float formatting rounds.  The arithmetic is exact on
    integers, as an estimate may exceed any float."""
    digits = 0 if nbytes >= 10 << 30 else 3
    q, r = divmod(nbytes * 10 ** digits, 1 << 30)
    q += r > 1 << 29 or (r == 1 << 29 and q % 2)
    return (f"{q // 1000}.{q % 1000:03d}" if digits else str(q)) + " GiB"


def _plancherel_axes(cfg):
    """The sampled grids of check_plancherel, by group."""
    grids = {"N": [Axis(0.0, cfg.halfwidth or 10.0, cfg.grid or 64)] * 3,
             "S": [Axis(0.0, 6.0, cfg.grid or 16)] * 5}
    return {g: axes for g, axes in grids.items() if cfg.group in (None, g)}


def check_plancherel(cfg):
    grids = _plancherel_axes(cfg)
    if "N" in grids:
        axes = grids["N"]
        rep = plancherel_check(gaussian([0.1, -0.2, 0.0], [1.0, 1.2, 0.9]),
                               axes)
        yield ({"group": "N", "m": 3, "grid": axes[0].points}, "rel_err",
               rep.rel_err, cfg.tol(1e-8))
    rng = np.random.default_rng(cfg.seed)
    data = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    gf = GridFunction((Axis(0.0, 3.0, 16),) * 2, data)
    rep = plancherel_check(gf, gf.axes)
    yield {"kind": "discrete-parseval"}, "rel_err", rep.rel_err, cfg.tol(1e-12)
    if "S" in grids:
        axes = grids["S"]
        rep = plancherel_check(
            gaussian([0.1, 0.0, -0.1, 0.05, 0.0], [1.0, 1.1, 0.9, 1.2, 1.0]),
            axes)
        yield ({"group": "S", "m": 3, "grid": axes[0].points}, "rel_err",
               rep.rel_err, cfg.tol(1e-6))


def _gauss_pair(rng, dim, widths, k, pt_scale):
    phi = gaussian(rng.uniform(-0.3, 0.3, dim), widths)
    f = gaussian(rng.uniform(-0.3, 0.3, dim), widths)
    pts = [(rng.uniform(-pt_scale, pt_scale, dim),
            rng.uniform(-pt_scale, pt_scale, k)) for _ in range(10)]
    return phi, f, pts


def _identity_axes(cfg):
    """The node axes of check_convolution_identity, by case: K1's 3 × P and
    H's 8P × 4P (at 4P × 2P seeds 11, 16 and 19 fail the gate)."""
    p = cfg.grid or 16
    return {"K1": [Axis(0.0, 6.4, p)] * 3,
            "H": [Axis(0.0, 6.4, 8 * p), Axis(0.0, 3.2, 4 * p)]}


def check_convolution_identity(cfg):
    rng = np.random.default_rng(cfg.seed)
    axes = _identity_axes(cfg)
    phi, f, pts = _gauss_pair(rng, 3, [1.0] * 3, 1, 0.4)
    r, s = theorem31_residual(phi, f, "K1", 3, pts, axes["K1"], axes["K1"])
    yield ({"case": "K1", "m": 3}, "rel_residual", r / max(s, 1e-300),
           cfg.tol(1e-3))
    phi, f, pts = _gauss_pair(rng, 2, [1.0, 3.0], 1, 0.4)
    r, s = theorem31_residual(phi, f, "H", 2, pts, axes["H"], axes["H"])
    yield ({"case": "H", "m": 2}, "rel_residual", r / max(s, 1e-300),
           cfg.tol(1e-3))


def check_projected_convolution(cfg):
    rng = np.random.default_rng(cfg.seed)
    phi = gaussian(rng.uniform(-0.3, 0.3, 3), [1.0] * 3)
    f = gaussian(rng.uniform(-0.3, 0.3, 3), [1.0] * 3)
    # P=16 at the step of P=8: index 2j on the finer dual grid is the
    # frequency of index j on the coarser one
    axes = [Axis(0.0, 9.6, 16)] * 4
    fi = [tuple(2 * int(v) for v in idx) for idx in rng.integers(2, 6, (10, 3))]
    r, s = projected_convolution_check(phi, f, "K1", 3, axes, fi)
    yield ({"case": "K1", "m": 3}, "rel_residual", r / max(s, 1e-300),
           cfg.tol(1e-2))
    phi = gaussian(rng.uniform(-0.2, 0.2, 2), [1.0, 4.0])
    f = gaussian(rng.uniform(-0.2, 0.2, 2), [3.0, 6.0])
    axes = [Axis(0.0, 10.0, 32), Axis(0.0, 2.4, 16), Axis(0.0, 2.4, 16)]
    fi = [(int(i), int(j)) for i, j in
          zip(rng.integers(13, 19, 10), rng.integers(5, 11, 10))]
    r, s = projected_convolution_check(phi, f, "H", 2, axes, fi)
    yield ({"case": "H", "m": 2}, "rel_residual", r / max(s, 1e-300),
           cfg.tol(1e-2))


def check_operator_identity(cfg):
    rng = np.random.default_rng(cfg.seed)
    f3 = gaussian([0.1, 0.0, -0.2], [1.0, 1.2, 0.9])
    pts3 = [(rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 1))
            for _ in range(10)]
    for name, u in [
        ("E1", EnvelopingElement(3, ((1.0, (0,)),))),
        ("E1*E2+E2*E2", EnvelopingElement(3, ((1.0, (0, 1)), (1.0, (1, 1))))),
        ("sublaplacian", EnvelopingElement(3, ((1.0, (0, 0)), (1.0, (2, 2))))),
    ]:
        r, s = operator_identity_residual(u, f3, "K1", 3, pts3)
        yield ({"case": "K1", "m": 3, "operator": name}, "rel_residual",
               r / max(s, 1e-300), cfg.tol(1e-3))
    f2 = gaussian([0.1, -0.1], [1.0, 1.3])
    pts2 = [(rng.uniform(-0.5, 0.5, 2), rng.uniform(-0.5, 0.5, 1))
            for _ in range(10)]
    u = EnvelopingElement(2, ((1.0, (0, 0)), (0.5, (0, 1))))
    r, s = operator_identity_residual(u, f2, "H", 2, pts2)
    yield ({"case": "H", "m": 2, "operator": "E1*E1+0.5*E1*E2"},
           "rel_residual", r / max(s, 1e-300), cfg.tol(1e-3))


def check_ideals(cfg):
    rng = np.random.default_rng(cfg.seed)
    n_probe = 2 if cfg.probes is None else cfg.probes
    size = 3 if cfg.dictionary_size is None else cfg.dictionary_size
    n_gen = max(1, size - n_probe)
    # calibrated base functions; extra members drawn near them if requested
    gens = [gaussian([0.2, 0.0, -0.1], [1.0, 0.4, 0.9])]
    gens += [gaussian(rng.uniform(-0.2, 0.2, 3), [1.0, 0.4, 0.9])
             for _ in range(n_gen - 1)]
    fixed = [gaussian([0.1, -0.2, 0.0], [4.0, 4.0, 4.0]),
             gaussian([0.0, 0.3, -0.1], [4.0, 4.0, 4.0])]
    probes = fixed[:n_probe] + [
        gaussian(rng.uniform(-0.3, 0.3, 3), [4.0, 4.0, 4.0])
        for _ in range(max(0, n_probe - len(fixed)))]
    gating = gaussian([0.05, 0.1, -0.05], [3.5, 3.5, 3.5])
    ax_x, ax_z, ax_y = Axis(0, 8.0, 16), Axis(0, 9.6, 16), Axis(0, 8.0, 16)
    # Γ⁻¹ shears z by x·y, so the M side's z axis is twice as wide at the
    # same step: the pulled-back members fit in its window
    model = ideal_model(gens, probes, 3, (ax_x, ax_z, ax_y),
                        (Axis(0, 19.2, 32), ax_y, ax_x))
    yield ({"m": 3}, "gram_transport_deviation",
           transport_gram_deviation(model), cfg.tol(1e-6))
    try:
        difference = correspondence_check(model, [gating])[0].difference
    except TransportGramError:
        difference = None
    yield ({"m": 3}, "closure_residual_difference", difference,
           cfg.tol(1e-3))
    pts = rng.uniform(-1.0, 1.0, (20, 3))
    psi = gaussian([0.1, -0.2, 0.0], [1.3, 0.5, 1.1])
    r, s = gamma_intertwine_residual(psi, gens[0], 3, pts,
                                     (ax_x, ax_z, ax_y), (ax_z, ax_y, ax_x))
    yield ({"m": 3}, "intertwine_rel_residual", r / max(s, 1e-300),
           cfg.tol(1e-3))


def check_scalar_groups(cfg):
    rng = np.random.default_rng(cfg.seed)
    xs, ys, zs = (-np.exp(rng.uniform(-3, 3, 10_000)) for _ in range(3))
    one = neg_identity()
    worst = hom = 0.0
    for x, y, z, ex, ey in zip(xs.tolist(), ys.tolist(), zs.tolist(),
                               np.exp(0.1 * xs).tolist(),
                               np.exp(0.1 * ys).tolist()):
        a, b, c = NegReal(x), NegReal(y), NegReal(z)
        ab = neg_mul(a, b)
        lhs, val = neg_mul(ab, c).value, iso_psi(ab)
        worst = max(worst,
                    abs(lhs - neg_mul(a, neg_mul(b, c)).value) / abs(lhs),
                    abs(neg_mul(one, a).value - x) / abs(x),
                    abs(neg_mul(a, neg_inv(a)).value + 1.0))
        p, q = (ex, x), (ey, y)
        pq = pair_mul(p, q)
        (pa, pb), (qa, qb), (la, lb) = iso_Psi(*p), iso_Psi(*q), iso_Psi(*pq)
        fp, fq = iso_Phi(*p), iso_Phi(*q)
        xr, yr = iso_Psi_inv(pa, pb)
        hom = max(hom, abs(val - iso_psi(a) * iso_psi(b)) / abs(val),
                  max(abs(la - (pa + qa)), abs(lb - (pb + qb)))
                  / max(1.0, abs(la), abs(lb)),
                  abs(iso_Phi(*pq) - fp - fq) / max(1.0, abs(fp + fq)),
                  abs(xr - ex) / ex, abs(yr - x) / abs(x))
    yield {"samples": 10_000}, "max_axiom_err", worst, cfg.tol(1e-12)
    yield {"samples": 10_000}, "max_homomorphism_err", hom, cfg.tol(1e-12)


Check = namedtuple("Check", "run flags")

# Each check and the configuration flags it reads.  A named check rejects any
# other of them; ``verify all`` hands each check only its own.
CHECKS = {
    "group-axioms": Check(check_group_axioms, {"group", "m"}),
    "plancherel": Check(check_plancherel, {"group", "grid", "halfwidth"}),
    "convolution-identity": Check(check_convolution_identity, {"grid"}),
    "projected-convolution": Check(check_projected_convolution, set()),
    "operator-identity": Check(check_operator_identity, set()),
    "ideals": Check(check_ideals, {"dictionary_size", "probes"}),
    "scalar-groups": Check(check_scalar_groups, set()),
}
_FLAGS = sorted(set().union(*(c.flags for c in CHECKS.values())))


# ── configuration and output ─────────────────────────────────────────────────

def _check_grid_flags(args, default_grid):
    """Refuses, with a ValueError, a bad --m, --halfwidth or --grid.  On the
    points it is paired with, --grid or default_grid, a halfwidth L must
    give a step h = 2L/P and a dual half-width π/h that are both positive
    and finite."""
    if args.m is not None and args.m < 2:
        raise ValueError(f"m must be >= 2, got {args.m}")
    if args.grid is not None and (args.grid < 2 or args.grid & (args.grid - 1)):
        raise ValueError("grid must be a power of two >= 2")
    if args.halfwidth is not None:
        if not 0 < args.halfwidth < math.inf:
            raise ValueError("halfwidth must be positive and finite, got "
                             f"{args.halfwidth}")
        points = args.grid or default_grid
        step = 2.0 * args.halfwidth / points
        dual = math.pi / step if step > 0 else math.inf
        if not (0 < step < math.inf and 0 < dual < math.inf):
            raise ValueError(
                f"halfwidth {args.halfwidth} on {points} points: step and "
                f"dual half-width must be positive and finite, got {step} "
                f"and {dual}")


class RunConfig(argparse.Namespace):
    """The verify flags, as the checks read them."""

    def tol(self, default):
        return default if self.tolerance is None else self.tolerance

    def for_check(self, name, strict):
        """A copy holding only the flags the check reads; with strict, a
        flag it does not read is a ValueError."""
        cfg = copy.copy(self)
        for flag in _FLAGS:
            if flag in CHECKS[name].flags or getattr(self, flag) is None:
                continue
            if strict:
                raise ValueError(f"{name} does not read "
                                 f"--{flag.replace('_', '-')}")
            setattr(cfg, flag, None)
        return cfg


def _check_configs(args):
    """Each check's configuration by name, validated before any check runs
    or any grid is allocated; raises ValueError."""
    if args.tolerance is not None and not 0 <= args.tolerance < math.inf:
        raise ValueError("tolerance must be nonnegative and finite, got "
                         f"{args.tolerance}")
    if args.seed < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    if args.probes is not None and args.probes < 0:
        raise ValueError(f"probes must be >= 0, got {args.probes}")
    if args.dictionary_size is not None and args.dictionary_size < 1:
        raise ValueError(f"dictionary-size must be >= 1, got "
                         f"{args.dictionary_size}")
    _check_grid_flags(args, default_grid=64)  # plancherel's N grid
    cfg = RunConfig(**vars(args))
    names = CHECKS if args.check == "all" else [args.check]
    cfgs = {name: cfg.for_check(name, strict=args.check != "all")
            for name in names}
    grids = _plancherel_axes(cfgs["plancherel"]) if "plancherel" in cfgs else {}
    for axes in grids.values():
        _check_cap("plancherel", [a.points for a in axes], grid_bytes(axes),
                   plancherel_peak_bytes(axes))
    for case, axes in (_identity_axes(cfgs["convolution-identity"]).items()
                       if "convolution-identity" in cfgs else ()):
        top = max(a.points for a in axes)
        _check_cap(f"convolution-identity on {case}", (top,), 8 * top,
                   identity_peak_bytes(axes))
    laws = _axiom_laws(cfgs["group-axioms"]) if "group-axioms" in cfgs else []
    for group, m in laws:
        dim = law(group, m).dim
        _check_cap(f"group-axioms on {group}, m = {m}", (AXIOM_POINTS, dim),
                   8 * AXIOM_POINTS * dim, group_axioms_peak_bytes(dim))
    return cfgs


def _emit(lines, args):
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        timed = ["wall_time"] if args.timings else []
        writer.writerow(["check", "metric", "value", "tolerance", "pass",
                         "gating", "params", *timed])
        for ln in lines:
            value = "" if ln["value"] is None else repr(ln["value"])
            writer.writerow([ln["check"], ln["metric"], value,
                             repr(ln["tolerance"]), ln["pass"], ln["gating"],
                             json.dumps(ln["params"], sort_keys=True),
                             *(repr(ln[k]) for k in timed)])
        text = buf.getvalue()
    else:
        text = "".join(json.dumps(ln, sort_keys=True) + "\n" for ln in lines)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 3
    else:
        sys.stdout.write(text)
    return 0


def _run_verify(args):
    try:
        cfgs = _check_configs(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines = []
    for name, cfg in cfgs.items():
        start = time.perf_counter()
        for yielded in CHECKS[name].run(cfg):
            lines.append(_line(name, *yielded))
            if args.timings:  # since the previous line or the check's start
                now = time.perf_counter()
                lines[-1]["wall_time"], start = now - start, now
    code = _emit(lines, args)
    if code:
        return code
    return 0 if all(ln["pass"] for ln in lines) else 1


def _solve_config(args):
    """The group, m, operator and axes of a solve, validated before any
    work; raises ValueError."""
    _check_grid_flags(args, default_grid=32)
    if not args.output:
        raise ValueError("solve requires --output")
    group, m = args.group or "N", args.m or 3
    check_supported(group, m)  # before the axes, whose number grows as m²
    dim = law(group, m).dim
    u = parse_operator(args.operator, dim)
    axes = [Axis(0.0, args.halfwidth or 8.0, args.grid or 32)] * dim
    _check_cap("solve", [a.points for a in axes], grid_bytes(axes),
               solve_peak_bytes(axes))
    return group, m, u, axes


def _run_solve(args):
    try:
        group, m, u, axes = _solve_config(args)
        sol = fundamental_solution_group(u, group, m, axes,
                                         epsilon=args.epsilon)
    except ValueError as exc:  # OperatorSyntaxError, ZeroOperatorError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        export_csv(sol.values, args.output)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return 3
    summary = {"schema": 1, "operator": args.operator, "group": group,
               "m": m, "grid": axes[0].points, "halfwidth": axes[0].half_width,
               "epsilon": args.epsilon, "output": args.output}
    print(json.dumps(summary, sort_keys=True))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="anharm",
        description="verification suite for group harmonic-analysis identities")
    sub = parser.add_subparsers(dest="command", required=True)

    def grid_flags(p):
        p.add_argument("--group", choices=["N", "S"])
        p.add_argument("--m", type=int)
        p.add_argument("--grid", type=int)
        p.add_argument("--halfwidth", type=float)
        p.add_argument("--output")

    verify = sub.add_parser("verify", help="run identity checks")
    verify.add_argument("check", choices=[*CHECKS, "all"])
    grid_flags(verify)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tolerance", type=float)
    verify.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    verify.add_argument("--timings", action="store_true")
    verify.add_argument("--dictionary-size", type=int, dest="dictionary_size")
    verify.add_argument("--probes", type=int)

    solve = sub.add_parser("solve", help="numerical solves")
    solve.add_argument("what", choices=["fundamental-solution"])
    grid_flags(solve)
    solve.add_argument("--operator", required=True)
    solve.add_argument("--epsilon", type=float, default=1e-8)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return _run_verify(args)
    return _run_solve(args)


if __name__ == "__main__":
    sys.exit(main())
