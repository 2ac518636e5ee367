"""Tests of the benchmark harness itself (not of anharm).

    python3 -m pytest perfbench/test_harness.py
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import tracing  # noqa: E402
from worker import run_rounds  # noqa: E402
from workloads import Check, Op  # noqa: E402


def span(layer, start, end, parent, count=1, round_id=0):
    return (layer, start, end, parent, count, round_id)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        span("a", 0, 100, -1),
        span("b", 10, 30, 0),
        span("c", 20, 50, 0),    # overlaps b: the union counts once
        span("d", 90, 120, 0),   # reaches past its parent: clipped at 100
        span("e", 12, 18, 1),    # grandchild: b's time, not a's
    ]
    assert tracing.self_times(spans) == [100 - 40 - 10, 20 - 6, 30, 30, 6]


def test_self_times_and_outside_time_add_up_to_the_round_wall():
    spans = [span("a", 5, 45, -1, 3), span("b", 10, 20, 0, 7),
             span("a", 60, 70, -1, 2), span("b", 0, 9, -1, 1, round_id=1)]
    rounds = [{"wall_ns": 100, "traced": True, "pinv_fallbacks": 0},
              {"wall_ns": 10, "traced": True, "pinv_fallbacks": 0},
              {"wall_ns": 50, "traced": False, "pinv_fallbacks": 0}]
    layers, in_spans = tracing.round_totals(
        spans, tracing.self_times(spans), 0)
    assert layers == {"a": [40, 5, 50], "b": [10, 7, 10]}
    assert in_spans == 50
    metrics, additive = tracing.summarize(spans, {}, rounds)
    assert additive
    # outside time averaged over the two traced rounds: (100-50 + 10-9)/2
    assert metrics["bench.outside_span_s"]["value"] == pytest.approx(25.5e-9)
    assert metrics["bench.traced_wall_s"]["value"] == pytest.approx(55e-9)


def test_a_failed_output_check_counts_as_a_failed_operation():
    def fine(out, ctx):
        return [Check("ok", 0.5, 1.0, "discretization")]

    def over_gate(out, ctx):
        return [Check("ok", 0.5, 1.0, "discretization"),
                Check("bad", 2.0, 1.0, "discretization")]

    def raises(ctx):
        raise ValueError("boom")

    ops = [Op("good", lambda ctx: 1.0, fine),
           Op("wrong", lambda ctx: 2.0, over_gate),
           Op("error", raises, fine)]
    rounds, attempted, failed, deterministic = run_rounds(ops, 0.0)
    assert (len(rounds), attempted, failed) == (1, 3, 2)
    assert rounds[0]["failed"] == ["wrong", "error"]
    assert rounds[0]["gate_margin"] == pytest.approx(0.5)
    assert deterministic


def test_tracer_counts_pairs_and_restores_the_originals():
    from anharm import harmonic, ideals, testfuncs
    from anharm.testfuncs import Axis, gaussian

    original, call = harmonic.convolve_group, testfuncs.TestFunction.__call__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ideals.convolve_group is not original
        g = gaussian([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        harmonic.convolve_group(g, g, "N", 3, [[0.0] * 3] * 5,
                                [Axis(0.0, 2.0, 4)] * 3)
    finally:
        tracer.uninstall()
    assert ideals.convolve_group is original
    assert testfuncs.TestFunction.__call__ is call
    layers, _ = tracing.round_totals(
        tracer.spans, tracing.self_times(tracer.spans), 0)
    assert layers["harmonic.convolve_group"][1] == 64 * 5
    assert layers["groups.n_mul"][1] == 64 * 5
