"""Spans around the calls into anharm's public functions, from outside src/.

A Tracer replaces each traced function by a wrapper in every anharm module
that binds it (and ``TestFunction.__call__`` on its class), records one span
per call and puts the originals back on ``uninstall``.  The workloads call
anharm through its module attributes, so the wrappers see those calls too.

A span is ``(layer, start_ns, end_ns, parent, count, round)``; ``parent`` is
the index of the enclosing span or -1, ``count`` the units of work computed
from the call's inputs (node×point pairs, points, rows).

A layer's self time is its span's duration minus the part of that interval
covered by its child spans; the self times of all spans in a round plus the
round's time outside any span add up to the round's wall time.
"""

import statistics
import sys
import time

import numpy as np

# ── counts computed from a call's inputs ────────────────────────────────────


def _size(shape):
    return int(np.prod(shape, dtype=np.int64))


def _lead(*arrays):
    """Number of points: broadcast size of the arrays' leading axes."""
    return _size(np.broadcast_shapes(*(np.shape(a)[:-1] for a in arrays)))


def _npoints(points):
    return int(np.atleast_2d(np.asarray(points, dtype=float)).shape[0])


def _nodes(axes):
    return _size([a.points for a in axes])


def _grid_size(gf):
    return int(np.size(gf.samples))


# (layer, module, attribute, count function of the positional arguments,
# timed).  The layer names the metric prefix; several functions may feed one
# layer.  Untimed entries only count.
TARGETS = (
    # convolve_group(g, f, group, m, points, axes): nodes × points
    ("harmonic.convolve_group", "anharm.harmonic", "convolve_group",
     lambda a: _nodes(a[5]) * _npoints(a[4]), True),
    # convolve_extended_*(phi, F, case, m, base, shift, axes, ...)
    ("harmonic.convolve_extended_c", "anharm.harmonic",
     "convolve_extended_c", lambda a: _nodes(a[6]) * _npoints(a[4]), True),
    ("harmonic.convolve_extended_c_substituted", "anharm.harmonic",
     "convolve_extended_c_substituted",
     lambda a: _nodes(a[6]) * _npoints(a[4]), True),
    ("harmonic.convolve_extended_group", "anharm.harmonic",
     "convolve_extended_group",
     lambda a: _nodes(a[6]) * _npoints(a[4]), True),
    ("harmonic.fft", "anharm.harmonic", "fourier_forward",
     lambda a: _grid_size(a[0]), True),
    ("harmonic.fft", "anharm.harmonic", "fourier_inverse",
     lambda a: _grid_size(a[0]), True),
    ("groups.n_mul", "anharm.groups", "n_mul",
     lambda a: _lead(a[1], a[2]), True),
    ("groups.s_mul", "anharm.groups", "s_mul",
     lambda a: _lead(a[1], a[2]), True),
    ("groups.s_inv", "anharm.groups", "s_inv",
     lambda a: _lead(a[1]), True),
    ("groups.rho_scale", "anharm.groups", "rho_scale",
     lambda a: _lead(a[1]), True),
    ("testfuncs.sample", "anharm.testfuncs", "sample",
     lambda a: _nodes(a[1]), True),
    ("testfuncs.export_csv", "anharm.testfuncs", "export_csv",
     lambda a: _grid_size(a[0]), True),
    ("extension.tilde_eval", "anharm.extension", "tilde_eval_coords",
     lambda a: _lead(a[3], a[4]), True),
    ("operators.fundamental_solution", "anharm.operators",
     "fundamental_solution_abelian", lambda a: _nodes(a[1]), True),
    ("operators.fundamental_solution", "anharm.operators",
     "fundamental_solution_group", lambda a: _nodes(a[3]), True),
    ("operators.weak_residuals", "anharm.operators", "weak_residuals",
     lambda a: len(a[4]), True),
    ("operators.stencil", "anharm.operators", "apply_P_grid",
     lambda a: _nodes(a[4]), False),
    ("ideals.ideal_model", "anharm.ideals", "ideal_model",
     lambda a: 1, True),
    ("ideals.transport_gram", "anharm.ideals", "transport_gram_deviation",
     lambda a: 1, True),
    ("ideals.closure_residual", "anharm.ideals", "closure_residual",
     lambda a: 1, True),
    ("ideals.intertwine", "anharm.ideals", "gamma_intertwine_residual",
     lambda a: 1, True),
)

# gamma_inv returns the pullback as a closure; the span times that closure
EVAL_LAYER = "testfuncs.eval"
GAMMA_LAYER = "extension.gamma_inv"

# The per-layer metrics, in the order BENCHMARK.json lists them:
# (metric, unit, how it is derived from the per-layer sums).
_ENGINES = ("convolve_group", "convolve_extended_c",
            "convolve_extended_c_substituted", "convolve_extended_group")
LAYER_METRICS = [
    m for e in _ENGINES for m in (
        (f"harmonic.{e}_s", "s", ("self", f"harmonic.{e}")),
        (f"harmonic.{e}_pairs", "count", ("count", f"harmonic.{e}")),
        (f"harmonic.{e}_ns_per_pair", "ns", ("rate", f"harmonic.{e}")))
] + [
    ("harmonic.fft_s", "s", ("self", "harmonic.fft")),
    ("harmonic.fft_points", "count", ("count", "harmonic.fft")),
    ("groups.s_mul_s", "s", ("self", "groups.s_mul")),
    ("groups.s_mul_pairs", "count", ("count", "groups.s_mul")),
    ("groups.rho_scale_s", "s", ("self", "groups.rho_scale")),
    ("groups.s_inv_s", "s", ("self", "groups.s_inv")),
    ("groups.n_mul_s", "s", ("self", "groups.n_mul")),
    ("groups.n_mul_pairs", "count", ("count", "groups.n_mul")),
    ("testfuncs.eval_s", "s", ("self", EVAL_LAYER)),
    ("testfuncs.eval_points", "count", ("count", EVAL_LAYER)),
    ("testfuncs.eval_ns_per_point", "ns", ("rate", EVAL_LAYER)),
    ("testfuncs.sample_s", "s", ("self", "testfuncs.sample")),
    ("testfuncs.export_csv_s", "s", ("self", "testfuncs.export_csv")),
    ("testfuncs.export_csv_rows", "count", ("count", "testfuncs.export_csv")),
    ("extension.tilde_eval_s", "s", ("self", "extension.tilde_eval")),
    ("extension.tilde_eval_points", "count",
     ("count", "extension.tilde_eval")),
    ("extension.gamma_inv_s", "s", ("self", GAMMA_LAYER)),
    ("operators.fundamental_solution_s", "s",
     ("self", "operators.fundamental_solution")),
    ("operators.weak_residuals_s", "s", ("self", "operators.weak_residuals")),
    ("operators.stencil_points", "count", ("count", "operators.stencil")),
    ("ideals.ideal_model_s", "s", ("self", "ideals.ideal_model")),
    ("ideals.transport_gram_s", "s", ("self", "ideals.transport_gram")),
    ("ideals.closure_residual_s", "s", ("self", "ideals.closure_residual")),
    ("ideals.intertwine_s", "s", ("self", "ideals.intertwine")),
]


# ── span arithmetic ─────────────────────────────────────────────────────────

def covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0, lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= reach:
            continue
        a = max(a, reach)
        total += b - a
        reach = b
    return total


def self_times(spans):
    """Per-span self time: duration minus the part its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    return [s[2] - s[1] - covered(s[1], s[2], kids)
            for s, kids in zip(spans, children)]


def round_totals(spans, self_ns, round_id):
    """Per-layer [self ns, count, inclusive ns] of one round's spans, and
    the nanoseconds the round's top-level spans cover."""
    layers, top = {}, []
    for s, own in zip(spans, self_ns):
        if s[5] != round_id:
            continue
        acc = layers.setdefault(s[0], [0, 0, 0])
        acc[0] += own
        acc[1] += s[4]
        acc[2] += s[2] - s[1]
        if s[3] < 0:
            top.append((s[1], s[2]))
    lo = min((a for a, _ in top), default=0)
    hi = max((b for _, b in top), default=0)
    return layers, covered(lo, hi, top)


def layer_metrics(layers, counts_only):
    """Metric values from per-layer [self ns, count, inclusive ns] sums and
    the counts of untimed layers.  Rates are inclusive time per unit."""
    out = {}
    for name, unit, (kind, layer) in LAYER_METRICS:
        self_ns, count, incl_ns = layers.get(layer, (0, 0, 0))
        count += counts_only.get(layer, 0)
        if kind == "self":
            val = self_ns * 1e-9
        elif kind == "count":
            val = count
        else:
            val = incl_ns / count if count else 0.0
        out[name] = {"value": val, "unit": unit}
    return out


def summarize(spans, counts, rounds):
    """Per-layer metrics, averaged over the traced rounds.

    ``rounds`` are the worker's round records (``wall_ns``, ``traced``,
    ``pinv_fallbacks``).  Returns the metrics and whether, in every traced
    round, the spans' self times plus the time outside any span add up to
    the round's wall time.
    """
    self_ns = self_times(spans)
    traced = [i for i, r in enumerate(rounds) if r["traced"]]
    totals, outside, additive = {}, 0, True
    for i in traced:
        layers, in_spans = round_totals(spans, self_ns, i)
        wall = rounds[i]["wall_ns"]
        # self times + time outside spans = wall  ⇔  Σ self = span cover
        additive &= abs(sum(v[0] for v in layers.values()) - in_spans) <= 1000
        outside += wall - in_spans
        for layer, vals in layers.items():
            acc = totals.setdefault(layer, [0, 0, 0])
            for k in range(3):
                acc[k] += vals[k]
    n = len(traced)
    totals = {k: [v / n for v in vals] for k, vals in totals.items()}
    only = {}
    for i in traced:
        for layer, c in counts.get(i, {}).items():
            only[layer] = only.get(layer, 0) + c / n
    out = layer_metrics(totals, only)
    out["ideals.pinv_fallbacks"] = {
        "value": sum(rounds[i]["pinv_fallbacks"] for i in traced) / n,
        "unit": "count"}
    walls = [rounds[i]["wall_ns"] for i in traced]
    plain = [r["wall_ns"] for r in rounds if not r["traced"]]
    out["bench.traced_wall_s"] = {"value": sum(walls) / n * 1e-9,
                                  "unit": "s"}
    out["bench.outside_span_s"] = {"value": outside / n * 1e-9, "unit": "s"}
    out["bench.trace_overhead_ratio"] = {
        "value": statistics.median(walls) / statistics.median(plain),
        "unit": "ratio"}
    return out, additive


# ── recording ───────────────────────────────────────────────────────────────

class Tracer:
    """Records spans around anharm's public functions while installed."""

    def __init__(self):
        self.spans = []
        self.counts = {}  # untimed layers: round id -> {layer: count}
        self.round = 0
        self._stack = []
        self._undo = []

    def _span(self, layer, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapped(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            n = count(args)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (layer, t0, t1, parent, n, self.round)

        return wrapped

    def _counter(self, layer, fn, count):
        def wrapped(*args, **kwargs):
            per = self.counts.setdefault(self.round, {})
            per[layer] = per.get(layer, 0) + count(args)
            return fn(*args, **kwargs)

        return wrapped

    def _rebind(self, original, replacement):
        mods = [m for n, m in sys.modules.items()
                if n == "anharm" or n.startswith("anharm.")]
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, replacement)
                    self._undo.append((mod, key, original))

    def install(self):
        from anharm import extension, testfuncs

        for layer, modname, attr, count, timed in TARGETS:
            original = getattr(sys.modules[modname], attr)
            make = self._span if timed else self._counter
            self._rebind(original, make(layer, original, count))

        cls = testfuncs.TestFunction
        call = cls.__call__
        cls.__call__ = self._span(EVAL_LAYER, call,
                                  lambda a: _lead(a[1]))
        self._undo.append((cls, "__call__", call))

        gamma_inv = extension.gamma_inv
        span = self._span

        def traced_gamma_inv(F, case, m):
            return span(GAMMA_LAYER, gamma_inv(F, case, m),
                        lambda a: _lead(a[0]))

        self._rebind(gamma_inv, traced_gamma_inv)

    def uninstall(self):
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()
