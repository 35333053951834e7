"""The benchmark's workloads: seeded inputs, the timed job, and its checks.

Each workload draws its chain parameters from the seed, hands the package
only ``ChainParams`` or a CLI argv, and checks the outputs against exact
invariants outside the timed region:

- ``curve``: S(L) = S(N - L) on a seeded sample of block lengths, 0 <= S <= L.
- ``scan``: S(h) = S(-h) on every symmetric pair, the entropy peak at h = 0
  and at J_y/J_x = 1, and CSV files with the expected rows.
- ``half_block``: S(N/2) equals S(500) at N = 1000 (the gapped entropy has
  saturated), and the spectrum is descending with total weight <= 1.

Every timed iteration must also agree with the first one.  These checks are
all relative, so each workload also anchors absolute values: the same code
path at the workload's own couplings but N = 12 sites must reproduce the
entropies (and, on ``half_block``, the spectrum) of exact diagonalization
by ``kitaevchain.oracle``.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass, field

# Largest deviation, in bits, an invariant may show before the entropy it
# checks counts as failed.  The seed code meets them to 1.4e-10 or better
# (worst: S(h) = S(-h) at N = 200 near |h| = 1.7).
TOL_BITS = 1e-9

# Spectrum weights may exceed 1 only by rounding.
TOL_WEIGHT = 1e-12

# Chain length of the exact-diagonalization anchor (a 2^12 state vector).
ANCHOR_SITES = 12

# Largest gap, in bits, between the pipeline and exact diagonalization; the
# oracle's own pass threshold.  The seed code meets it to 5e-11 or better.
TOL_ORACLE = 1e-8


@dataclass
class Outcome:
    """Entropies attempted and failed, and the largest deviation seen."""

    attempted: int = 0
    failed: set = field(default_factory=set)
    max_err_bits: float = 0.0
    problems: list = field(default_factory=list)

    def compare(self, key, got: float, want: float, what: str, tol: float = TOL_BITS) -> None:
        err = abs(got - want)
        if not math.isfinite(err):
            err = math.inf
        self.max_err_bits = max(self.max_err_bits, err)
        if not err <= tol:
            self.fail(key, f"{what}: {got!r} vs {want!r}")

    def anchor(self, fast: list, exact: list, what: str) -> None:
        """Count (label, entropy) pairs from the pipeline against exact values."""
        self.attempted += len(exact)
        if len(fast) != len(exact):
            self.fail(("oracle", what), f"{what}: {len(fast)} entropies, want {len(exact)}")
        for (label, got), want in zip(fast, exact):
            self.compare(("oracle", what, label), got, want,
                         f"{what} {label} vs exact diagonalization", TOL_ORACLE)

    def fail(self, key, why: str) -> None:
        self.failed.add(key)
        if len(self.problems) < 10:
            self.problems.append(why)


def exact_entropies(p, block_lens) -> list:
    """Block entropies in bits of the exact ground state of a small chain."""
    from kitaevchain import oracle

    _, state = oracle.ed_ground(p)
    return [oracle.vn_entropy(oracle.reduced_density(state, length)) for length in block_lens]


def _in_range(out: Outcome, key, s: float, block_len: int) -> None:
    if not (math.isfinite(s) and 0.0 <= s <= block_len):
        out.fail(key, f"entropy {s!r} outside [0, {block_len}]")


@dataclass
class Curve:
    """Entropy curve L = 2..500 step 2 from one gamma at N = 1000."""

    n_sites: int = 1000
    lengths: range = range(2, 501, 2)
    mirror_samples: int = 8

    def inputs(self, seed: int, work_dir: str) -> dict:
        import kitaevchain as kc

        rng = random.Random(seed)
        h, ratio = rng.uniform(0.3, 0.7), rng.uniform(0.8, 1.2)
        sample = sorted(rng.sample(list(self.lengths), self.mirror_samples))
        return {"params": kc.ChainParams(self.n_sites, 1.0, ratio, h), "sample": sample}

    def describe(self, inp: dict) -> str:
        p = inp["params"]
        return (f"N={p.n_sites} h={p.h_field:.6f} jy/jx={p.j_y:.6f} "
                f"L={self.lengths.start}..{self.lengths.stop - 1} step {self.lengths.step}")

    def run(self, inp: dict):
        import kitaevchain as kc

        return kc.block_entropy_curve(inp["params"], self.lengths)

    def collect(self, inp: dict, result) -> list:
        return [s for _, s in result]

    def check(self, inp: dict, runs: list) -> Outcome:
        import kitaevchain as kc

        p, lengths = inp["params"], list(self.lengths)
        out = Outcome(attempted=len(lengths) * len(runs))
        first = runs[0]
        for k, run in enumerate(runs):
            for i, s in enumerate(run):
                _in_range(out, (k, i), s, lengths[i])
                if k:
                    out.compare((k, i), s, first[i], f"run {k} L={lengths[i]} differs from run 0")
        sample = inp["sample"]
        mirror = dict(kc.block_entropy_curve(p, [p.n_sites - length for length in sample]))
        for length in sample:
            i = lengths.index(length)
            out.compare((0, i), first[i], mirror[p.n_sites - length],
                        f"S({length}) vs S({p.n_sites - length})")
        small = kc.ChainParams(ANCHOR_SITES, p.j_x, p.j_y, p.h_field)
        short = range(1, ANCHOR_SITES // 2 + 1)
        out.anchor(kc.block_entropy_curve(small, short), exact_entropies(small, short),
                   f"S(L) at N={ANCHOR_SITES}")
        return out


def _read_table(path: str) -> tuple:
    with open(path, newline="") as stream:
        rows = list(csv.reader(stream))
    return (rows[0] if rows else []), [(float(x), float(s)) for x, s in rows[1:]]


@dataclass
class Scan:
    """The two criterion-7 CLI scans at N = 200, block 100, CSV to files."""

    n_sites: int = 200
    block_len: int = 100
    h_axis: tuple = (-2.0, 2.0, 0.01)
    ratio_axis: tuple = (0.2, 2.0, 0.01)
    # The anchor scans at N = 12 keep clear of the degenerate point h = 0.
    anchor_h_axis: tuple = (-1.5, 1.5, 1.0)
    anchor_ratio_axis: tuple = (0.5, 1.5, 0.5)
    anchor_h: float = 0.5

    @staticmethod
    def _count(axis: tuple) -> int:
        start, stop, step = axis
        return round((stop - start) / step) + 1

    @staticmethod
    def _argv(axis: str, n_sites: int, block_len: int, spec: tuple, couplings: list,
              path: str) -> list:
        return ["scan", "--axis", axis, "--n-sites", str(n_sites), "--block-size",
                str(block_len), *couplings, "--from", repr(spec[0]), "--to", repr(spec[1]),
                "--step", repr(spec[2]), "--output", path]

    def inputs(self, seed: int, work_dir: str) -> dict:
        rng = random.Random(seed)
        jx = rng.uniform(0.8, 1.25)
        n, half = ANCHOR_SITES, ANCHOR_SITES // 2

        def path(name: str) -> str:
            return os.path.join(work_dir, name)

        return {
            "jx": jx,
            "argvs": [
                self._argv("h-field", self.n_sites, self.block_len, self.h_axis,
                           ["--jx", repr(jx), "--jy", repr(jx)], path("h_field.csv")),
                self._argv("jy-over-jx", self.n_sites, self.block_len, self.ratio_axis,
                           ["--jx", repr(jx)], path("jy_over_jx.csv")),
            ],
            "anchor_argvs": [
                self._argv("h-field", n, half, self.anchor_h_axis,
                           ["--jx", repr(jx), "--jy", repr(jx)], path("anchor_h.csv")),
                self._argv("jy-over-jx", n, half, self.anchor_ratio_axis,
                           ["--jx", repr(jx), "--h-field", repr(self.anchor_h)],
                           path("anchor_ratio.csv")),
            ],
        }

    def describe(self, inp: dict) -> str:
        return (f"N={self.n_sites} L={self.block_len} jx={inp['jx']:.6f} "
                f"points={self._count(self.h_axis) + self._count(self.ratio_axis)}")

    def run(self, inp: dict):
        from kitaevchain import cli

        return [cli.main(argv) for argv in inp["argvs"]]

    def collect(self, inp: dict, result) -> list:
        tables = []
        for code, argv in zip(result, inp["argvs"]):
            header, rows = _read_table(argv[argv.index("--output") + 1])
            tables.append({"code": code, "header": header, "rows": rows})
        return tables

    def _anchor(self, inp: dict, out: Outcome) -> None:
        import kitaevchain as kc
        from kitaevchain import cli

        jx, n, half = inp["jx"], ANCHOR_SITES, ANCHOR_SITES // 2
        axes = [(self.anchor_h_axis, "h_field", lambda h: kc.ChainParams(n, jx, jx, h)),
                (self.anchor_ratio_axis, "jy_over_jx",
                 lambda r: kc.ChainParams(n, jx, r * jx, self.anchor_h))]
        for argv, (spec, column, params) in zip(inp["anchor_argvs"], axes):
            what = f"{column} scan at N={n}"
            code = cli.main(argv)
            header, rows = _read_table(argv[argv.index("--output") + 1])
            if code != 0 or header != [column, "entropy_bits"] or len(rows) != self._count(spec):
                out.attempted += self._count(spec)
                out.fail(("oracle", what), f"{what}: exit {code}, header {header}, "
                         f"{len(rows)} rows")
                continue
            out.anchor(rows, [exact_entropies(params(x), [half])[0] for x, _ in rows], what)

    def check(self, inp: dict, runs: list) -> Outcome:
        axes = [(self.h_axis, "h_field", 0.0, 0.01), (self.ratio_axis, "jy_over_jx", 1.0, 0.02)]
        out = Outcome(attempted=sum(self._count(a[0]) for a in axes) * len(runs))
        for k, tables in enumerate(runs):
            for t, ((spec, column, peak, slack), table) in enumerate(zip(axes, tables)):
                rows, expected = table["rows"], self._count(spec)
                if table["code"] != 0 or table["header"] != [column, "entropy_bits"] \
                        or len(rows) != expected:
                    out.fail((k, t, 0), f"{column}: exit {table['code']}, "
                             f"header {table['header']}, {len(rows)} rows (want {expected})")
                    for i in range(expected):
                        out.failed.add((k, t, i))
                    continue
                first = runs[0][t]["rows"]
                for i, (_, s) in enumerate(rows):
                    _in_range(out, (k, t, i), s, self.block_len)
                    if k and len(first) == expected:
                        out.compare((k, t, i), s, first[i][1],
                                    f"run {k} {column} row {i} differs from run 0")
                best = max(range(len(rows)), key=lambda i: rows[i][1])
                if abs(rows[best][0] - peak) > slack + 1e-9:
                    out.fail((k, t, best), f"{column} argmax {rows[best][0]} not within "
                             f"{slack} of {peak}")
                if column == "h_field":
                    for i in range(len(rows) // 2):
                        j = len(rows) - 1 - i
                        (h1, s1), (h2, s2) = rows[i], rows[j]
                        if abs(h1 + h2) > 1e-9:
                            out.fail((k, t, j), f"h grid not symmetric: {h1} vs {h2}")
                        out.compare((k, t, i), s1, s2, f"S({h1}) vs S({h2})")
                        if (k, t, i) in out.failed:
                            out.failed.add((k, t, j))
        self._anchor(inp, out)
        return out


@dataclass
class HalfBlock:
    """One block L = N/2 at N = 4000: gamma, coupling, entropy, top spectrum."""

    n_sites: int = 4000
    ref_sites: int = 1000
    count: int = 256
    anchor_count: int = 16

    def inputs(self, seed: int, work_dir: str) -> dict:
        import kitaevchain as kc

        h = random.Random(seed).uniform(0.3, 0.7)
        return {"params": kc.ChainParams(self.n_sites, 1.0, 1.0, h)}

    def describe(self, inp: dict) -> str:
        p = inp["params"]
        return f"N={p.n_sites} L={p.n_sites // 2} h={p.h_field:.6f} top={self.count}"

    @staticmethod
    def _half_block(p, count: int):
        import kitaevchain as kc

        g = kc.real_space_gamma(p)
        s = kc.schmidt_numbers(kc.block_coupling(g, p.n_sites // 2))
        return kc.block_entropy(s), kc.entanglement_spectrum(s, count)

    def run(self, inp: dict):
        return self._half_block(inp["params"], self.count)

    def _anchor(self, p, out: Outcome) -> None:
        """The same pipeline at N = 12 against the exact reduced density matrix."""
        import numpy as np
        import kitaevchain as kc
        from kitaevchain import oracle

        small = kc.ChainParams(ANCHOR_SITES, p.j_x, p.j_y, p.h_field)
        half = ANCHOR_SITES // 2
        s, spectrum = self._half_block(small, self.anchor_count)
        _, state = oracle.ed_ground(small)
        rho = oracle.reduced_density(state, half)
        what = f"S(N/2) at N={ANCHOR_SITES}"
        out.anchor([("", s)], [oracle.vn_entropy(rho)], what)
        exact = np.linalg.eigvalsh(rho)[::-1][:self.anchor_count]
        lambdas = np.asarray(spectrum.lambdas, dtype=float)
        err = float(np.abs(lambdas - exact).max()) if len(lambdas) == len(exact) else math.inf
        if not err <= TOL_ORACLE:
            out.fail(("oracle", what, ""),
                     f"top {self.anchor_count} spectrum at N={ANCHOR_SITES} is off by {err!r}")

    def collect(self, inp: dict, result) -> tuple:
        s, spec = result
        return s, [float(v) for v in spec.lambdas]

    def check(self, inp: dict, runs: list) -> Outcome:
        import kitaevchain as kc

        p = inp["params"]
        ref = kc.ChainParams(self.ref_sites, p.j_x, p.j_y, p.h_field)
        s_ref = kc.block_entropy_curve(ref, [self.ref_sites // 2])[0][1]
        out = Outcome(attempted=len(runs))
        for k, (s, lambdas) in enumerate(runs):
            _in_range(out, k, s, p.n_sites // 2)
            out.compare(k, s, s_ref, f"S(N/2) at N={p.n_sites} vs N={self.ref_sites}")
            if k:
                out.compare(k, s, runs[0][0], f"run {k} entropy differs from run 0")
            if not 1 <= len(lambdas) <= self.count:
                out.fail(k, f"{len(lambdas)} spectrum values, want 1..{self.count}")
            if any(not (0.0 <= v <= 1.0) for v in lambdas):
                out.fail(k, "spectrum value outside [0, 1]")
            if any(b > a for a, b in zip(lambdas, lambdas[1:])):
                out.fail(k, "spectrum not descending")
            if not math.fsum(lambdas) <= 1.0 + TOL_WEIGHT:
                out.fail(k, f"spectrum weight {math.fsum(lambdas)!r} exceeds 1")
        self._anchor(p, out)
        return out


WORKLOADS = {"curve": Curve(), "scan": Scan(), "half_block": HalfBlock()}
