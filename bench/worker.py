"""One workload in a fresh process: import, warm up, time the job, check it.

``run.py`` starts this script once per workload so that the process's set-up
time and peak RSS belong to that workload alone.  The last line of stdout is
one JSON object for ``run.py`` to read.

    PYTHONPATH=src python3 bench/worker.py --setup-only --out-dir bench/out
    PYTHONPATH=src python3 bench/worker.py --workload curve --seed 1 \\
        --seconds 30 --trace 0 --out-dir bench/out
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS


def warm_up(work_dir: str) -> None:
    """Run every probed layer once at N = 8 through the CLI entry point."""
    from kitaevchain import cli

    out = os.path.join(work_dir, "warmup.csv")
    common = ["--n-sites", "8", "--h-field", "0.5", "--output", out]
    for argv in (["scan", "--axis", "block-len", "--from", "2", "--to", "4", "--step", "2", *common],
                 ["spectrum", "--block-size", "4", "--top-k", "4", *common]):
        if cli.main(argv) != 0:
            raise RuntimeError(f"warm-up call {argv} failed")


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as stream:
            paths = sorted({line.split()[-1] for line in stream
                            if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def metadata() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
    }


def timed_loop(wl, inp, seconds: float) -> dict:
    """Repeat the job; stop before an iteration that would end past the budget."""
    walls, cpus, runs = [], [], []
    start = time.perf_counter()
    while True:
        c0, w0 = time.process_time(), time.perf_counter()
        raw = wl.run(inp)
        w1, c1 = time.perf_counter(), time.process_time()
        walls.append(w1 - w0)
        cpus.append(c1 - c0)
        runs.append(wl.collect(inp, raw))
        if time.perf_counter() - start + walls[-1] > seconds:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"walls": walls, "cpus": cpus, "peak_rss_mb": peak, "runs": runs}


def traced_pair(wl, inp, trace_path: str, run_id: str) -> dict:
    """The job traced once, between two untraced runs.

    Later iterations of a job run faster than the first, so the untraced
    time is the mean of the runs before and after the traced one.
    """
    tracer = Tracer(run_id)
    runs, untraced = [], []
    for traced in (False, True, False):
        if traced:
            tracer.install()
            try:
                with tracer.span("job") as job:
                    raw = wl.run(inp)
            finally:
                tracer.remove()
        else:
            w0 = time.perf_counter()
            raw = wl.run(inp)
            untraced.append(time.perf_counter() - w0)
        runs.append(wl.collect(inp, raw))
    tracer.write(trace_path)
    layers = layer_metrics(tracer, job)
    layers["trace.untraced_wall_s"] = sum(untraced) / len(untraced)
    layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
    return {"layers": layers, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--run-id", default="")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work_dir = tempfile.mkdtemp(prefix="work-", dir=args.out_dir)
    try:
        import kitaevchain  # noqa: F401  (the import is part of set-up)

        warm_up(work_dir)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0

        wl = WORKLOADS[args.workload]
        inp = wl.inputs(args.seed, work_dir)
        result = {"describe": wl.describe(inp), "meta": metadata()}
        try:
            if args.trace:
                trace_path = os.path.join(
                    args.out_dir, f"trace-{args.workload}-{args.seed}.json")
                result.update(traced_pair(wl, inp, trace_path, args.run_id))
            else:
                result.update(timed_loop(wl, inp, args.seconds))
            outcome = wl.check(inp, result.pop("runs"))
        except Exception:  # report any library failure as a failed run
            traceback.print_exc()
            result["error"] = traceback.format_exc(limit=1).strip().splitlines()[-1]
            print(json.dumps(result))
            return 1
        result.update(attempted=outcome.attempted, failed=len(outcome.failed),
                      max_err_bits=outcome.max_err_bits, problems=outcome.problems)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
