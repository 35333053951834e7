"""Benchmark for kitaevchain: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload curve --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload runs in its own fresh worker process (``bench/worker.py``) with
``src`` on ``PYTHONPATH``.  ``--trace 0`` reports the end-to-end metrics:
set-up time (median of several fresh processes that import the package and
make a tiny warm-up call), median job wall and CPU time, and the worker's
peak RSS.  ``--trace 1`` runs the job once untraced and once with every
layer's public functions wrapped, and reports per-layer calls, self time and
computed operation counts.  Outputs are checked outside the timed region;
the exit code is 1 if any check fails.  The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full result, with machine metadata and every sample, goes to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

from tracing import layer_units
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = BENCH / "out"

SETUP_SAMPLES = 24

# Whole-run limit, kept under the 180 s a run may take.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _child(args: list, env: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(WORKER), *args, "--out-dir", str(OUT)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker exited {proc.returncode} with no result:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if proc.returncode != 0 and "error" not in result:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return result


def run_workload(name: str, seed: int, seconds: float, trace: int, env: dict,
                 deadline: float) -> dict:
    run_id = uuid.uuid4().hex
    meta = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "run_id": run_id, "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg_1m": os.getloadavg()[0]}

    def time_setups(count: int) -> list:
        samples = []
        for _ in range(0 if trace else count):
            t0 = time.monotonic()
            samples.append(_child(["--setup-only"], env, deadline - t0)["ready"] - t0)
        return samples

    # Half the set-up samples come before the job and half after it, so a
    # shift in machine speed during the run weighs on both halves.
    setup = time_setups(SETUP_SAMPLES // 2)
    result = _child(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace), "--run-id", run_id],
                    env, deadline - time.monotonic())
    setup += time_setups(SETUP_SAMPLES - len(setup))
    result["meta"] = {**meta, **result.get("meta", {})}
    result["setup_samples"] = setup
    if "error" in result:
        return result
    if trace:
        units = layer_units()
        result["metrics"] = {k: {"value": result["layers"][k], "unit": u}
                             for k, u in units.items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(result["walls"]),
            "cpu_s": statistics.median(result["cpus"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        result["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                             for k, v in values.items()}
    return result


def report(name: str, r: dict) -> None:
    print(f"== {name}: {r.get('describe', '')}")
    print("   meta " + json.dumps(r["meta"], sort_keys=True))
    if "error" in r:
        print(f"   ERROR {r['error']}")
        return
    notes = {"setup_s": f"median of {len(r['setup_samples'])} fresh processes",
             "wall_s": f"median of {len(r.get('walls', []))} samples",
             "cpu_s": "user + sys, median per sample",
             "peak_rss_mb": "ru_maxrss of the worker process"}
    for key, m in r["metrics"].items():
        print(f"   {key:<40} {m['value']:>16.6g} {m['unit']:<6} {notes.get(key, '')}")
    frac = r["failed"] / r["attempted"] if r["attempted"] else 1.0
    print(f"   {'max_err_bits':<40} {r['max_err_bits']:>16.6g} bits")
    print(f"   {'failed_frac':<40} {frac:>16.6g} {'1':<6} "
          f"{r['failed']} of {r['attempted']} entropies")
    for problem in r.get("problems", []):
        print(f"   FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    if not (ROOT / "src" / "kitaevchain" / "__init__.py").is_file():
        print(f"run.py: no package sources at {ROOT / 'src' / 'kitaevchain'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            budget = start + DEADLINE_S * (names.index(name) + 1)
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, env, budget)
            report(name, results[name])
            path = OUT / f"result-{name}-{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(results[name], indent=1, sort_keys=True))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    ok = all("error" not in r and r["failed"] == 0 for r in results.values())
    summary = {
        "correct": ok,
        "attempted": sum(r.get("attempted", 1) for r in results.values()),
        "failed": sum(r.get("failed", 1) for r in results.values()),
        "metrics": {(f"{n}.{k}" if len(names) > 1 else k): m
                    for n, r in results.items() for k, m in r.get("metrics", {}).items()},
    }
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
