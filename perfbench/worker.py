"""One workload in a fresh process; started by run.py, not by hand.

    worker.py --workload W --seed N --mode setup|run --seconds T --trace 0|1
              --out DIR

The worker imports numpy and anharm (from ``src/`` of the checkout), builds
the workload's inputs and prints ``ready``.  In ``setup`` mode it then exits.
In ``run`` mode it runs whole rounds of the workload's operations until T
seconds have passed, checks every output, and prints one line
``result {json}``.  With ``--trace 1`` odd-numbered rounds run traced, even
ones untraced, so one run gives both the per-layer spans and the tracing
overhead.  run.py sets the BLAS and OpenMP pools to one thread.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
import warnings

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fingerprint(obj):
    """Digest of an operation's output, to see that rounds repeat it."""
    h = hashlib.blake2b(digest_size=16)

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(repr((x.dtype.str, x.shape)).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (tuple, list)):
            h.update(b"(")
            for item in x:
                feed(item)
            h.update(b")")
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


def run_rounds(ops, seconds, tracer=None):
    """Run whole rounds of ``ops`` until ``seconds`` have passed.

    Returns per-round records and the operations attempted and failed.  An
    operation fails when it raises or when one of its checks is above its
    gate; its failure is counted and the round goes on.
    """
    rounds, attempted, failed = [], 0, 0
    first, reported = {}, set()
    deterministic = True
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline or (
            tracer is not None and len(rounds) < 2):
        traced = tracer is not None and len(rounds) % 2 == 1
        ctx, op_ns, cpu_ns, pinv, margins, bad = {}, [], 0, 0, [], []
        for op in ops:
            attempted += 1
            if traced:
                tracer.round = len(rounds)
                tracer.install()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0, c0 = time.perf_counter_ns(), time.process_time_ns()
                try:
                    out, err = op.run(ctx), None
                except Exception:  # a failed operation is counted, not fatal
                    out, err = None, traceback.format_exc()
                op_ns.append(time.perf_counter_ns() - t0)
                cpu_ns += time.process_time_ns() - c0
            if traced:
                tracer.uninstall()
            pinv += sum("pseudo-inverse" in str(w.message) for w in caught)
            if err is None:
                try:
                    checks = op.check(out, ctx)
                except Exception:
                    err = traceback.format_exc()
            if err is None:
                over = [c for c in checks if not c.value <= c.gate]
                if over:
                    err = "; ".join(f"{c.name}={c.value:.3e} > {c.gate:.1e}"
                                    for c in over)
                margins += [c.gate / c.value for c in checks
                            if c.kind == "discretization" and c.value > 0]
                digest = fingerprint(out)
                if first.setdefault(op.name, digest) != digest:
                    deterministic = False
            if err is not None:
                failed += 1
                bad.append(op.name)
                if op.name not in reported:  # once per operation, not round
                    reported.add(op.name)
                    print(f"operation {op.name} failed: {err}",
                          file=sys.stderr)
        rounds.append({"wall_ns": sum(op_ns), "cpu_ns": cpu_ns,
                       "op_ns": op_ns, "traced": traced,
                       "pinv_fallbacks": pinv, "failed": bad,
                       "gate_margin": min(margins) if margins else None})
    return rounds, attempted, failed, deterministic


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["setup", "run"], required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import tracing
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed, args.out)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
    rounds, attempted, failed, deterministic = run_rounds(
        ops, args.seconds, tracer)
    result = {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "deterministic": deterministic,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        result["layers"], result["additive"] = tracing.summarize(
            tracer.spans, tracer.counts, rounds)
        dump = os.path.join(
            args.out, f"{args.workload}-seed{args.seed}-spans.json")
        with open(dump, "w") as fh:
            json.dump({"fields": ["layer", "start_ns", "end_ns", "parent",
                                  "count", "round"],
                       "spans": tracer.spans}, fh)
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
