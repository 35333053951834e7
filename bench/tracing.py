"""Per-layer tracing of kitaevchain from outside the package.

Modules bind each other's functions with ``from .pairing import ...``, so a
function is looked up in whichever module namespace its caller imported it
into.  ``Tracer.install`` therefore replaces the function object in every
``kitaevchain`` module that holds it, and ``Tracer.remove`` puts the original
objects back.  Each wrapped call records a span (name, start, end, parent)
and the counts its probe derives from argument and result shapes.  Spans
stay in memory until ``write`` dumps them at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float


# A probe's count hook receives (bound arguments, result, a dict the tracer
# keeps for that probe across calls) and returns {counter name: increment}.
CountHook = Callable[[dict, object, dict], dict]


@dataclass(frozen=True)
class Probe:
    module: str
    attr: str
    name: str
    count: Optional[CountHook] = None


def _correlation_counts(a: dict, result, last: dict) -> dict:
    """Count a call as computed unless it returned the same arrays as last time.

    This reads no private state: a cached call hands back the very arrays it
    returned before, a computed one new arrays.  ``last`` maps the id of each
    live PairingMatrix to weak references to the arrays it last got.
    """
    g = a["g"]
    refs = last.get(id(g))
    cached = (refs is not None and len(refs) == len(result)
              and all(ref() is arr for ref, arr in zip(refs, result)))
    if refs is None:
        weakref.finalize(g, last.pop, id(g), None)
    last[id(g)] = [weakref.ref(arr) for arr in result]
    if cached:
        return {}
    n = g.n_sites
    # Nominal cost of the seed algorithm: Z^T Z, Z Z^T and two products with
    # Z (2 n^3 each), two LU solves with n right-hand sides (2/3 n^3 + 2 n^3
    # each).  It depends on n only.
    return {"pairing.pair_correlations.computed": 1,
            "pairing.pair_correlations.flops": 34 * n**3 // 3}


def _occupation_counts(a: dict, result, _) -> dict:
    m = 2 * int(a["block_len"])
    return {"pairing.block_occupations.flops": 4 * m**3 // 3}


def _singular_value_counts(a: dict, result, _) -> dict:
    import numpy as np

    m = np.asarray(a["m"])
    k, n = sorted(m.shape)
    if np.iscomplexobj(m):
        flops = 8 * k * k * n + 16 * k**3 // 3
    else:
        flops = 2 * k * k * n + 4 * k**3 // 3
    return {"linalg.singular_values.flops": flops}


def _gamma_counts(a: dict, result, _) -> dict:
    return {"pairing.real_space_gamma.nxn_bytes": int(result.gamma.nbytes)}


def _csv_counts(a: dict, result, _) -> dict:
    argv = list(a.get("argv") or [])
    if "--output" in argv:
        path = argv[argv.index("--output") + 1]
        if path != "-" and os.path.exists(path):
            return {"cli.csv_bytes": os.path.getsize(path)}
    return {}


PROBES = (
    Probe("kitaevchain.model", "momentum_grid", "model.momentum_grid"),
    Probe("kitaevchain.model", "dispersion", "model.dispersion"),
    Probe("kitaevchain.pairing", "pair_amplitudes", "pairing.pair_amplitudes"),
    Probe("kitaevchain.pairing", "real_space_gamma", "pairing.real_space_gamma",
          count=_gamma_counts),
    Probe("kitaevchain.pairing", "pair_correlations", "pairing.pair_correlations",
          count=_correlation_counts),
    Probe("kitaevchain.pairing", "block_occupations", "pairing.block_occupations",
          count=_occupation_counts),
    Probe("kitaevchain.pairing", "block_coupling", "pairing.block_coupling"),
    Probe("kitaevchain.linalg", "singular_values", "linalg.singular_values",
          count=_singular_value_counts),
    Probe("kitaevchain.linalg", "symmetric_eigen", "linalg.symmetric_eigen"),
    Probe("kitaevchain.entropy", "schmidt_numbers", "entropy.schmidt_numbers"),
    Probe("kitaevchain.entropy", "block_entropy", "entropy.block_entropy"),
    Probe("kitaevchain.entropy", "entanglement_spectrum", "entropy.entanglement_spectrum"),
    Probe("kitaevchain.entropy", "block_entropy_curve", "entropy.block_entropy_curve"),
    Probe("kitaevchain.cli", "run_scan", "cli.run_scan"),
    Probe("kitaevchain.cli", "main", "cli.main", count=_csv_counts),
)

# Counters computed from argument and result shapes, with their units.
COUNTERS = {
    "pairing.pair_correlations.computed": "count",
    "pairing.pair_correlations.flops": "flop",
    "pairing.block_occupations.flops": "flop",
    "linalg.singular_values.flops": "flop",
    "pairing.real_space_gamma.nxn_bytes": "B",
    "cli.csv_bytes": "B",
}


def layer_units() -> dict[str, str]:
    """Every key layer_metrics returns (plus the overhead pair), with its unit."""
    units = {}
    for probe in PROBES:
        units[f"{probe.name}.calls"] = "count"
        units[f"{probe.name}.self_s"] = "s"
    units.update(COUNTERS)
    units["pairing.entropies_per_gamma"] = "ratio"
    for key in ("wall_s", "untraced_wall_s", "overhead_s", "toplevel_s", "gap_s"):
        units[f"trace.{key}"] = "s"
    units["trace.spans"] = "count"
    return units


class Tracer:
    """Spans and counters for one run, plus the wrappers that record them."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._memos: dict[str, dict] = {}

    @contextmanager
    def span(self, name: str):
        span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                    name, time.perf_counter(), float("nan"))
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, probe: Probe):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(probe.name):
                result = fn(*args, **kwargs)
            if probe.count is not None:
                bound = signature.bind(*args, **kwargs).arguments
                memo = self._memos.setdefault(probe.name, {})
                self.counters.update(probe.count(bound, result, memo))
            return result

        return traced

    def install(self) -> None:
        """Wrap every probed function wherever a kitaevchain module binds it.

        Probed modules are imported first.  A probe whose module or function
        no longer exists is skipped, so its metrics read zero instead of
        breaking the run.
        """
        found = {}
        for probe in PROBES:
            try:
                found[probe] = getattr(importlib.import_module(probe.module), probe.attr, None)
            except ImportError:
                found[probe] = None
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "kitaevchain" or key.startswith("kitaevchain."))]
        for probe, original in found.items():
            if original is None:
                continue
            wrapper = self._wrap(original, probe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def remove(self) -> None:
        """Restore every original function object replaced by install."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as stream:
            json.dump({"run_id": self.run_id, "spans": [asdict(s) for s in self.spans]}, stream)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, [])]
        out[s.id] = (s.end - s.start) - _covered([c for c in clipped if c[1] > c[0]])
    return out


def descendants(spans: list[Span], root: int) -> list[Span]:
    """Spans below root, in recording order (a parent precedes its children)."""
    inside = {root}
    out = []
    for s in spans:
        if s.parent in inside:
            inside.add(s.id)
            out.append(s)
    return out


def layer_metrics(tracer: Tracer, job: Span) -> dict[str, float]:
    """Per-probe calls and self time, and coverage, over the spans below job.

    A layer the job never enters reads zero.  The counters cover the same
    calls as long as the wrappers are installed only while the job runs.
    """
    below = descendants(tracer.spans, job.id)
    own = self_times(tracer.spans)
    out: dict[str, float] = {}
    for probe in PROBES:
        mine = [s for s in below if s.name == probe.name]
        out[f"{probe.name}.calls"] = len(mine)
        out[f"{probe.name}.self_s"] = sum(own[s.id] for s in mine)
    for key in COUNTERS:
        out[key] = tracer.counters[key]

    entropies = sum(s.name == "entropy.block_entropy" for s in below)
    gammas = sum(s.name == "pairing.real_space_gamma" for s in below)
    out["pairing.entropies_per_gamma"] = entropies / gammas if gammas else 0.0

    top = [(s.start, s.end) for s in below if s.parent == job.id]
    wall = job.end - job.start
    out["trace.wall_s"] = wall
    out["trace.toplevel_s"] = _covered(top)
    out["trace.gap_s"] = wall - out["trace.toplevel_s"]
    out["trace.spans"] = len(below)
    return out
