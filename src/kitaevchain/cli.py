"""Command-line front end: energies, spectra, entropy scans, oracle checks.

Every subcommand emits CSV with a header row, \\n line endings, and floats
rendered at 17 significant digits so a round-trip through the text recovers
the exact binary value.  Exit codes: 0 on success, 1 when a comparison
subcommand finds disagreement, 2 on usage errors, on chains too large for
memory and on output that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from . import entropy as entropy_mod
from . import oracle
from .exceptions import KitaevChainError, ParameterError
from .model import ChainParams, ground_degeneracy, ground_energy


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    def emit(stream) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])

    if path == "-":
        emit(sys.stdout)
        sys.stdout.flush()  # a reader that left fails here, inside main, not at exit
    else:
        with open(path, "w", newline="") as stream:
            emit(stream)


MAX_SCAN_POINTS = 10**6


def _axis_values(start: float, stop: float, step: float) -> list[float]:
    if not np.all(np.isfinite([start, stop, step])):
        raise ParameterError(f"scan range must be finite, got from {start} to {stop} step {step}")
    if step <= 0:
        raise ParameterError(f"step must be positive, got {step}")
    if stop < start:
        raise ParameterError(f"empty range [{start}, {stop}]")
    span = (stop - start) / step
    if span >= MAX_SCAN_POINTS:
        raise ParameterError(f"over {MAX_SCAN_POINTS} points from {start} to {stop} step {step}")
    count = int(np.floor(span + 1e-9)) + 1
    return [start + k * step for k in range(count)]


def _block_lens(args) -> list[int]:
    """The block lengths of --from/--to/--step of the chosen parity; none is an error.

    The range must be given in whole numbers: rounding a fractional one
    would repeat lengths.
    """
    values = _axis_values(args.start, args.stop, args.step)
    if not all(v.is_integer() for v in (args.start, args.stop, args.step)):
        raise ParameterError(f"block lengths must be whole numbers, got from {args.start} "
                             f"to {args.stop} step {args.step}")
    lens = [n for n in map(int, values) if args.parity == "all" or n % 2 == (args.parity == "odd")]
    if not lens:
        raise ParameterError(
            f"no {args.parity} block length from {args.start} to {args.stop} step {args.step}"
        )
    return lens


# The chain at one point of each one-parameter axis, from the base point.
_AXIS_POINTS = {
    "h-field": lambda p, h: replace(p, h_field=h),
    "jy-over-jx": lambda p, ratio: replace(p, j_y=ratio * p.j_x),
}


def _params_from(args) -> ChainParams:
    return ChainParams(args.n_sites, args.jx, args.jy, args.h_field)


def _add_common(sub, block: bool = False) -> None:
    sub.add_argument("--n-sites", type=int, required=True)
    sub.add_argument("--jx", type=float, default=1.0)
    sub.add_argument("--jy", type=float, default=1.0)
    sub.add_argument("--h-field", type=float, default=0.0)
    sub.add_argument("--output", default="-")
    if block:
        sub.add_argument("--block-size", type=int, required=True)


def _cmd_energy(args) -> int:
    p = _params_from(args)
    e = ground_energy(p)
    _write_csv(
        args.output,
        ["n_sites", "j_x", "j_y", "h_field", "ground_energy"],
        [(p.n_sites, p.j_x, p.j_y, p.h_field, e)],
    )
    return 0


def _cmd_degeneracy(args) -> int:
    p = _params_from(args)
    # The oracle's size check first: 2^(N/2 - 1) alone takes seconds at N = 10^9.
    counts = oracle.full_spectrum_degeneracy(p)
    predicted = ground_degeneracy(p)
    _write_csv(
        args.output,
        ["n_sites", "predicted_even", "even_sector", "odd_sector", "total"],
        [(p.n_sites, predicted, counts.even_sector, counts.odd_sector, counts.total)],
    )
    return 0


def _cmd_entropy(args) -> int:
    p = _params_from(args)
    curve = entropy_mod.block_entropy_curve(p, [args.block_size])
    _write_csv(
        args.output,
        ["n_sites", "j_x", "j_y", "h_field", "block_len", "entropy_bits"],
        [(p.n_sites, p.j_x, p.j_y, p.h_field, args.block_size, curve[0][1])],
    )
    return 0


def _cmd_spectrum(args) -> int:
    p = _params_from(args)
    if args.top_k > MAX_SCAN_POINTS:
        raise ParameterError(f"--top-k over {MAX_SCAN_POINTS}, got {args.top_k}")
    [(_, s)] = entropy_mod.block_spectra(p, [args.block_size])
    spec = entropy_mod.entanglement_spectrum(s, args.top_k)
    running = np.cumsum(spec.lambdas)
    rows = [(i + 1, lam, running[i]) for i, lam in enumerate(spec.lambdas)]
    _write_csv(args.output, ["rank", "lambda_value", "cumulative_weight"], rows)
    return 0


def _cmd_scan(args) -> int:
    p = _params_from(args)
    if args.axis == "block-len":
        rows = entropy_mod.block_entropy_curve(p, _block_lens(args))
    else:
        block_len = p.n_sites // 2 if args.block_size is None else args.block_size
        point = _AXIS_POINTS[args.axis]
        rows = [
            (value, entropy_mod.block_entropy_curve(point(p, value), [block_len])[0][1])
            for value in _axis_values(args.start, args.stop, args.step)
        ]
    _write_csv(args.output, [args.axis.replace("-", "_"), "entropy_bits"], rows)
    return 0


def _cmd_compare(args) -> int:
    result = oracle.compare_entropies(_params_from(args), _block_lens(args))
    _write_csv(args.output, ["L", "fast", "oracle", "abs_diff"], result.rows)
    if result.passed is None:
        print("degenerate ground space: comparison recorded, not judged", file=sys.stderr)
        return 0
    return 0 if result.passed else 1


def _cmd_fit(args) -> int:
    curve = entropy_mod.block_entropy_curve(_params_from(args), _block_lens(args))
    fit = entropy_mod.fit_log_slope(curve, (int(args.start), int(args.stop)))
    _write_csv(
        args.output,
        ["slope", "intercept", "r_squared", "l_min", "l_max", "n_points"],
        [(fit.slope, fit.intercept, fit.r_squared, fit.window[0], fit.window[1], fit.n_points)],
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kitaev-chain",
        description="Alternating-bond spin chain: energies, degeneracy, entanglement.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("energy", help="ground-state energy from the mode sum")
    _add_common(sub)
    sub.set_defaults(func=_cmd_energy)

    sub = subs.add_parser("degeneracy", help="ground multiplicity against full diagonalization")
    _add_common(sub)
    sub.set_defaults(func=_cmd_degeneracy)

    sub = subs.add_parser("entropy", help="block entanglement entropy in bits")
    _add_common(sub, block=True)
    sub.set_defaults(func=_cmd_entropy)

    sub = subs.add_parser("spectrum", help="largest reduced-density eigenvalues")
    _add_common(sub, block=True)
    sub.add_argument("--top-k", type=int, default=8)
    sub.set_defaults(func=_cmd_spectrum)

    sub = subs.add_parser("scan", help="entropy along one parameter axis")
    _add_common(sub)
    sub.add_argument("--block-size", type=int, default=None,
                     help="block of the h-field and jy-over-jx axes (default: half the chain)")
    sub.add_argument("--axis", choices=["block-len", "h-field", "jy-over-jx"], required=True)
    sub.add_argument("--from", dest="start", type=float, required=True)
    sub.add_argument("--to", dest="stop", type=float, required=True)
    sub.add_argument("--step", type=float, required=True)
    sub.add_argument("--parity", choices=["all", "even", "odd"], default="all")
    sub.set_defaults(func=_cmd_scan)

    sub = subs.add_parser("compare", help="fast entropies against the exact-diagonalization oracle")
    _add_common(sub)
    sub.add_argument("--from", dest="start", type=float, required=True)
    sub.add_argument("--to", dest="stop", type=float, required=True)
    sub.add_argument("--step", type=float, default=1.0)
    sub.add_argument("--parity", choices=["all", "even", "odd"], default="even")
    sub.set_defaults(func=_cmd_compare)

    sub = subs.add_parser("fit", help="entropy slope against log2 of block length")
    _add_common(sub)
    sub.add_argument("--from", dest="start", type=float, required=True)
    sub.add_argument("--to", dest="stop", type=float, required=True)
    sub.add_argument("--step", type=float, default=2.0)
    sub.add_argument("--parity", choices=["all", "even", "odd"], default="even")
    sub.set_defaults(func=_cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KitaevChainError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # The reader left; what is still buffered goes to devnull, so exit is quiet.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory for this chain: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
