"""Run one workload of the anharm benchmark and print its metrics.

    python3 perfbench/run.py --workload {ideals,reduction,spectral}
                             --seed N --seconds T --trace {0,1}

Run from the root of a checkout.  Each workload runs in fresh worker
processes (worker.py) with the BLAS and OpenMP pools at one thread:
``SETUP_PROBES`` processes that only start up and build the inputs, timing
set-up, then one that also runs whole rounds of the workload for T seconds.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Result files and
span dumps go to perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKLOADS = ("ideals", "reduction", "spectral")
SETUP_PROBES = 6
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class WorkerError(RuntimeError):
    pass


def start_worker(args, mode, timeout):
    """Start a worker and wait until it is ready.

    Returns the process, the seconds from its start to ready, and the timer
    that kills it after ``timeout`` seconds.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", OUT]
    env = dict(os.environ, **SINGLE_THREAD)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line.strip() != "ready":
            proc.wait()
            raise WorkerError(f"{mode} worker exited with {proc.returncode} "
                              "before it was ready")
        return proc, ready, timer
    except BaseException:
        timer.cancel()
        proc.kill()
        proc.wait()
        raise


def finish_worker(proc, timer):
    """Wait for a worker; return its ``result`` object, if it printed one."""
    try:
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    for line in rest.splitlines():
        if line.startswith("result "):
            return json.loads(line[len("result "):])
    return None


def measure(args):
    setup = []
    for _ in range(SETUP_PROBES):
        proc, ready, timer = start_worker(args, "setup", 60)
        finish_worker(proc, timer)
        setup.append(ready)
    proc, ready, timer = start_worker(args, "run", args.seconds + 120)
    setup.append(ready)
    res = finish_worker(proc, timer)
    if res is None:
        raise WorkerError("run worker printed no result")
    res["setup_s"] = setup
    return res


def end_to_end(res):
    walls = [r["wall_ns"] * 1e-9 for r in res["rounds"] if not r["traced"]]
    margins = [r["gate_margin"] for r in res["rounds"]
               if r["gate_margin"] is not None]
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(res["setup_s"]), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        "gate_margin": {"value": min(margins, default=0.0), "unit": "ratio"},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    try:
        res = measure(args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = res["deterministic"] and res.get("additive", True)
    metrics = res["layers"] if args.trace else end_to_end(res)
    summary = {"correct": bool(correct), "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(dict(res, summary=summary), fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
