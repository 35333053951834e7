"""Command-line front end: energies, spectra, entropy scans, oracle checks.

Every subcommand emits CSV with a header row, \\n line endings, and floats
rendered at 17 significant digits so a round-trip through the text recovers
the exact binary value.  Exit codes: 0 on success, 1 when a comparison
subcommand finds disagreement, 2 on usage errors, on chains too large for
memory and on output that cannot be written.  A negative value may follow
its option in any float form (`--h-field -1e-3`, `--from -5.`).
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
        writer.writerows([_fmt(v) for v in row] for row in rows)

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
    parity = args.parity or "all"  # scan's --parity, not given, keeps every length
    lens = [n for n in map(int, values) if parity == "all" or n % 2 == (parity == "odd")]
    if not lens:
        raise ParameterError(f"no {parity} block length from {args.start} to {args.stop} "
                             f"step {args.step}")
    return lens


# The chain at one point of each one-parameter axis, from the base point.
_AXIS_POINTS = {
    "h-field": lambda p, h: replace(p, h_field=h),
    "jy-over-jx": lambda p, ratio: replace(p, j_y=ratio * p.j_x),
}


def _add_common(sub, block: bool = False) -> None:
    sub.add_argument("--n-sites", type=int, required=True)
    sub.add_argument("--jx", type=float, default=1.0)
    sub.add_argument("--jy", type=float, default=1.0)
    sub.add_argument("--h-field", type=float, default=0.0)
    sub.add_argument("--output", default="-")
    if block:
        sub.add_argument("--block-size", type=int, required=True)


def _add_range(sub, step: float | None, parity: str | None) -> None:
    """--from/--to/--step/--parity; a step of None makes --step required."""
    sub.add_argument("--from", dest="start", type=float, required=True)
    sub.add_argument("--to", dest="stop", type=float, required=True)
    sub.add_argument("--step", type=float, default=step, required=step is None)
    sub.add_argument("--parity", choices=["all", "even", "odd"], default=parity)


def _cmd_energy(p, args):
    return (["n_sites", "j_x", "j_y", "h_field", "ground_energy"],
            [(p.n_sites, p.j_x, p.j_y, p.h_field, ground_energy(p))])


def _cmd_degeneracy(p, args):
    # The oracle's size check first: 2^(N/2 - 1) alone is a 62 MB int at N = 10^9.
    counts = oracle.full_spectrum_degeneracy(p)
    return (["n_sites", "predicted_even", "even_sector", "odd_sector", "total"],
            [(p.n_sites, ground_degeneracy(p), counts.even_sector, counts.odd_sector,
              counts.total)])


def _cmd_entropy(p, args):
    curve = entropy_mod.block_entropy_curve(p, [args.block_size])
    return (["n_sites", "j_x", "j_y", "h_field", "block_len", "entropy_bits"],
            [(p.n_sites, p.j_x, p.j_y, p.h_field, args.block_size, curve[0][1])])


def _cmd_spectrum(p, args):
    if args.top_k > MAX_SCAN_POINTS:
        raise ParameterError(f"--top-k over {MAX_SCAN_POINTS}, got {args.top_k}")
    [(_, s)] = entropy_mod.block_spectra(p, [args.block_size])
    spec = entropy_mod.entanglement_spectrum(s, args.top_k)
    running = np.cumsum(spec.lambdas)
    rows = [(i + 1, lam, running[i]) for i, lam in enumerate(spec.lambdas)]
    return ["rank", "lambda_value", "cumulative_weight"], rows


def _cmd_scan(p, args):
    # An option the chosen axis does not read is refused, not ignored.
    if args.axis == "block-len" and args.block_size is not None:
        raise ParameterError("--block-size applies only to the h-field and jy-over-jx axes")
    if args.axis != "block-len" and args.parity is not None:
        raise ParameterError("--parity applies only to the block-len axis")
    if args.axis == "block-len":
        rows = entropy_mod.block_entropy_curve(p, _block_lens(args))
    else:
        block_len = p.n_sites // 2 if args.block_size is None else args.block_size
        point = _AXIS_POINTS[args.axis]
        rows = [(value, entropy_mod.block_entropy_curve(point(p, value), [block_len])[0][1])
                for value in _axis_values(args.start, args.stop, args.step)]
    return [args.axis.replace("-", "_"), "entropy_bits"], rows


def _cmd_compare(p, args):
    result = oracle.compare_entropies(p, _block_lens(args))
    return ["L", "fast", "oracle", "abs_diff"], result.rows, result.passed


def _cmd_fit(p, args):
    curve = entropy_mod.block_entropy_curve(p, _block_lens(args))
    fit = entropy_mod.fit_log_slope(curve, (int(args.start), int(args.stop)))
    return (["slope", "intercept", "r_squared", "l_min", "l_max", "n_points"],
            [(fit.slope, fit.intercept, fit.r_squared, *fit.window, fit.n_points)])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kitaev-chain",
        description="Alternating-bond spin chain: energies, degeneracy, entanglement.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, block=False):
        sub = subs.add_parser(name, help=summary)
        _add_common(sub, block)
        sub.set_defaults(func=func)
        return sub

    command("energy", _cmd_energy, "ground-state energy from the mode sum")
    command("degeneracy", _cmd_degeneracy, "ground multiplicity against full diagonalization")
    command("entropy", _cmd_entropy, "block entanglement entropy in bits", block=True)
    sub = command("spectrum", _cmd_spectrum, "largest reduced-density eigenvalues", block=True)
    sub.add_argument("--top-k", type=int, default=8)
    sub = command("scan", _cmd_scan, "entropy along one parameter axis")
    sub.add_argument("--block-size", type=int, default=None,
                     help="block of the h-field and jy-over-jx axes (default: half the chain)")
    sub.add_argument("--axis", choices=["block-len", "h-field", "jy-over-jx"], required=True)
    _add_range(sub, step=None, parity=None)
    sub = command("compare", _cmd_compare,
                  "fast entropies against the exact-diagonalization oracle")
    _add_range(sub, step=1.0, parity="even")
    _add_range(command("fit", _cmd_fit, "entropy slope against log2 of block length"),
               step=2.0, parity="even")
    return parser


def _to_devnull(stream) -> None:
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _joined_negatives(argv: list[str]) -> list[str]:
    """Each `--option -1e-3` written as `--option=-1e-3`.

    argparse (3.10 to 3.13) reads -1e-3, -5. and -inf as options, though not
    -5 or -.5.  Every long option takes a value but --help, its abbreviations
    and the bare "--".
    """
    joined = []
    for token in argv:
        option = joined[-1] if joined else ""
        if (token.startswith("-") and option.startswith("--") and "=" not in option
                and not "--help".startswith(option)):
            try:
                float(token)
            except ValueError:
                pass
            else:
                joined[-1] = f"{option}={token}"
                continue
        joined.append(token)
    return joined


def main(argv=None) -> int:
    args = build_parser().parse_args(_joined_negatives(sys.argv[1:] if argv is None else argv))
    try:
        p = ChainParams(args.n_sites, args.jx, args.jy, args.h_field)
        header, rows, *verdict = args.func(p, args)  # compare alone returns a verdict
        _write_csv(args.output, header, rows)
        if verdict == [None]:
            print("degenerate ground space: comparison recorded, not judged", file=sys.stderr)
        return 1 if verdict == [False] else 0
    except (KitaevChainError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # The reader left; what is still buffered goes to devnull, so exit is quiet.
            _to_devnull(sys.stdout)
        try:
            print(f"error: {exc}", file=sys.stderr)
        except BrokenPipeError:
            # stderr shares the closed pipe (2>&1): the message goes nowhere.
            _to_devnull(sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory for this chain: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
