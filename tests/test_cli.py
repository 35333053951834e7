import csv
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import kitaevchain
from kitaevchain import cli, fit_log_slope
from kitaevchain.exceptions import ParameterError
from kitaevchain.model import ChainParams, ground_energy


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_energy_csv_round_trip(tmp_path):
    out = tmp_path / "energy.csv"
    code = cli.main([
        "energy", "--n-sites", "8", "--jx", "1", "--jy", "0.8",
        "--h-field", "0.5", "--output", str(out),
    ])
    assert code == 0
    header, row = read_rows(out)
    assert header == ["n_sites", "j_x", "j_y", "h_field", "ground_energy"]
    assert float(row[4]) == ground_energy(ChainParams(8, 1.0, 0.8, 0.5))


def test_output_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["scan", "--axis", "block-len", "--n-sites", "16", "--h-field", "0.5",
            "--from", "1", "--to", "15", "--step", "1", "--parity", "all"]
    assert cli.main(args + ["--output", str(a)]) == 0
    assert cli.main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")
    assert b"\r" not in a.read_bytes()


def test_entropy_subcommand(tmp_path):
    out = tmp_path / "e.csv"
    assert cli.main([
        "entropy", "--n-sites", "8", "--h-field", "0.5",
        "--block-size", "4", "--output", str(out),
    ]) == 0
    header, row = read_rows(out)
    assert header[-1] == "entropy_bits"
    assert 0.0 < float(row[-1]) < 4.0


def test_degeneracy_subcommand(tmp_path):
    out = tmp_path / "d.csv"
    assert cli.main([
        "degeneracy", "--n-sites", "8", "--jy", "0.8", "--output", str(out),
    ]) == 0
    _, row = read_rows(out)
    n_sites, predicted, even, odd, total = (int(v) for v in row)
    assert (n_sites, predicted, even) == (8, 8, 8)
    assert even + odd == total


@pytest.mark.parametrize("couplings,even", [
    (["--h-field", "0.5"], 1),
    (["--jx", "0", "--jy", "0", "--h-field=-0.3"], 1),
    (["--jx", "0", "--jy", "0"], 128),
    (["--jx", "0"], 8),
])
def test_degeneracy_prediction_matches_the_count(couplings, even, capsys):
    # The field lifts the level, and with no coupling and no field every
    # even state is ground: the prediction follows the chain, not only N.
    assert cli.main(["degeneracy", "--n-sites", "8", *couplings, "--output", "-"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert int(row[1]) == int(row[2]) == even


def test_spectrum_subcommand(tmp_path):
    out = tmp_path / "s.csv"
    assert cli.main([
        "spectrum", "--n-sites", "12", "--h-field", "0.5",
        "--block-size", "6", "--top-k", "5", "--output", str(out),
    ]) == 0
    rows = read_rows(out)[1:]
    lams = [float(r[1]) for r in rows]
    assert len(lams) == 5
    assert all(x >= y for x, y in zip(lams, lams[1:]))
    assert float(rows[-1][2]) <= 1.0 + 1e-12


def test_compare_passes_on_small_chain(tmp_path):
    out = tmp_path / "c.csv"
    code = cli.main([
        "compare", "--n-sites", "8", "--h-field", "0.5",
        "--from", "2", "--to", "4", "--step", "2", "--output", str(out),
    ])
    assert code == 0
    header, *rows = read_rows(out)
    assert header == ["L", "fast", "oracle", "abs_diff"]
    assert [r[0] for r in rows] == ["2", "4"]
    assert all(float(r[3]) < 1e-8 for r in rows)


def test_compare_rejects_oversized_chain(capsys):
    assert cli.main([
        "compare", "--n-sites", "16", "--h-field", "0.5",
        "--from", "2", "--to", "4", "--step", "2", "--output", "-",
    ]) == 2
    # N is a multiple of 4, so the bound names the largest chain that exists.
    assert capsys.readouterr().err == "error: comparison limited to N <= 12, got 16\n"
    # Chains whose length the model itself rejects exit the same way.
    assert cli.main([
        "compare", "--n-sites", "18", "--h-field", "0.5",
        "--from", "2", "--to", "4", "--step", "2", "--output", "-",
    ]) == 2


def test_scan_block_axis_all_parities(tmp_path):
    out = tmp_path / "scan.csv"
    assert cli.main([
        "scan", "--axis", "block-len", "--n-sites", "200", "--jy", "0.8",
        "--h-field", "0", "--from", "2", "--to", "100", "--step", "1",
        "--output", str(out),
    ]) == 0
    rows = read_rows(out)[1:]
    assert len(rows) == 99
    entropy = {int(r[0]): float(r[1]) for r in rows}
    # Alternating-bond chain at zero field: the entropy oscillates with the
    # parity of the block length.
    signs = set()
    for length in range(11, 90):
        mid = entropy[length] - 0.5 * (entropy[length - 1] + entropy[length + 1])
        signs.add((length % 2, mid > 0))
    assert len(signs) == 2


def test_scan_parity_filter(tmp_path):
    out = tmp_path / "even.csv"
    assert cli.main([
        "scan", "--axis", "block-len", "--n-sites", "16", "--h-field", "0.5",
        "--from", "1", "--to", "15", "--step", "1", "--parity", "even",
        "--output", str(out),
    ]) == 0
    lengths = [int(r[0]) for r in read_rows(out)[1:]]
    assert lengths == list(range(2, 16, 2))


def test_scan_field_axis_peaks_at_zero(tmp_path):
    out = tmp_path / "h.csv"
    assert cli.main([
        "scan", "--axis", "h-field", "--n-sites", "200", "--block-size", "100",
        "--from", "-2", "--to", "2", "--step", "0.25", "--output", str(out),
    ]) == 0
    rows = [(float(r[0]), float(r[1])) for r in read_rows(out)[1:]]
    best_h = max(rows, key=lambda t: t[1])[0]
    assert abs(best_h) <= 0.25 + 1e-12


def test_scan_ratio_axis_peaks_at_unity(tmp_path):
    out = tmp_path / "r.csv"
    assert cli.main([
        "scan", "--axis", "jy-over-jx", "--n-sites", "200", "--block-size", "100",
        "--h-field", "0", "--from", "0.2", "--to", "2", "--step", "0.2",
        "--output", str(out),
    ]) == 0
    rows = [(float(r[0]), float(r[1])) for r in read_rows(out)[1:]]
    best_ratio = max(rows, key=lambda t: t[1])[0]
    assert abs(best_ratio - 1.0) <= 0.2 + 1e-12


@pytest.mark.parametrize("axis,lo,hi", [("h-field", "0", "0.5"), ("jy-over-jx", "0.5", "1")])
def test_scan_block_size_defaults_to_half_chain(axis, lo, hi, tmp_path, capsys):
    base = ["scan", "--axis", axis, "--n-sites", "16", "--h-field", "0.3",
            "--from", lo, "--to", hi, "--step", "0.5"]
    default, half = tmp_path / "default.csv", tmp_path / "half.csv"
    assert cli.main(base + ["--output", str(default)]) == 0
    assert cli.main(base + ["--block-size", "8", "--output", str(half)]) == 0
    assert default.read_bytes() == half.read_bytes()
    assert len(read_rows(default)) == 3
    assert cli.main(base + ["--block-size", "0", "--output", "-"]) == 2
    assert "block_len must lie in [1, 15], got 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--jx", "nan"), ("--h-field", "inf")])
@pytest.mark.parametrize("command", [
    ["energy", "--n-sites", "4"],
    ["entropy", "--n-sites", "8", "--block-size", "2"],
    ["scan", "--axis", "h-field", "--n-sites", "8", "--from", "0", "--to", "0.5", "--step", "0.5"],
])
def test_non_finite_parameters_are_usage_errors(command, flag, value, capsys):
    assert cli.main(command + [flag, value, "--output", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def _entropy_at(scale, capsys, **couplings):
    argv = ["entropy", "--n-sites", "8", "--block-size", "4", "--output", "-"]
    for flag, value in couplings.items():
        argv += [f"--{flag.replace('_', '-')}", repr(value * scale)]
    assert cli.main(argv) == 0
    return float(capsys.readouterr().out.splitlines()[1].split(",")[-1])


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e160, 1e300])
def test_entropy_depends_only_on_coupling_ratios(scale, capsys):
    # Squaring couplings this large or small overflows or underflows; the
    # mode energies are computed on couplings rescaled by a power of two.
    unit = _entropy_at(1.0, capsys, jx=1.0, jy=1.0, h_field=1.0)
    assert abs(_entropy_at(scale, capsys, jx=1.0, jy=1.0, h_field=1.0) - unit) <= 1e-12


def test_largest_finite_couplings(capsys):
    # jx + jy = 2e308 overflows unless rescaled first.
    assert _entropy_at(1e308, capsys, jx=1.0, jy=1.0) == _entropy_at(1.0, capsys, jx=1.0, jy=1.0)
    assert cli.main(["energy", "--n-sites", "8", "--jx", "1e308", "--jy", "1e308"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ground energy overflows")


@pytest.mark.parametrize("argv", [
    ["entropy", "--n-sites", "8", "--jx", "0", "--jy", "0", "--h-field", "1", "--block-size", "4"],
    ["entropy", "--n-sites", "8", "--h-field", "1e20", "--block-size", "4"],
    ["entropy", "--n-sites", "8", "--h-field=-1e10", "--block-size", "4"],
    ["scan", "--axis", "block-len", "--n-sites", "8", "--jx", "0", "--jy", "0",
     "--h-field", "1", "--from", "1", "--to", "7", "--step", "1", "--parity", "all"],
    # The filled product state, h < 0 far beyond the couplings or with none:
    # it needs no pair amplitude, whose denominator vanishes or underflows.
    ["entropy", "--n-sites", "8", "--h-field=-1e160", "--block-size", "4"],
    ["entropy", "--n-sites", "8", "--h-field=-1e200", "--block-size", "4"],
    ["entropy", "--n-sites", "8", "--jx", "0", "--jy", "0", "--h-field=-1", "--block-size", "4"],
    ["scan", "--axis", "block-len", "--n-sites", "8", "--jx", "0", "--jy", "0",
     "--h-field=-1", "--from", "1", "--to", "7", "--step", "1", "--parity", "all"],
])
def test_product_state_cuts_print_zero(argv, capsys):
    # No mode is entangled, so the entropy is +0.0 and prints as 0, not -0.
    assert cli.main(argv + ["--output", "-"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows and all(row.split(",")[-1] == "0" for row in rows), rows


@pytest.mark.parametrize("command", [
    ["entropy", "--n-sites", "8", "--block-size", "4"],
    ["scan", "--axis", "block-len", "--n-sites", "8", "--from", "1", "--to", "7", "--step", "1"],
])
def test_vanishing_couplings_and_field_are_usage_errors(command, capsys):
    # J_x = J_y = h = 0: every mode has zero energy and no ground state is
    # singled out.
    argv = command + ["--jx", "0", "--jy", "0", "--h-field", "0", "--output", "-"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_spectrum_top_k_is_capped(monkeypatch, capsys):
    # The best-first search keeps every value it emits: refuse a count past
    # the scan cap before any table is built.
    def no_table(p):
        raise AssertionError("table built for a refused --top-k")

    argv = ["spectrum", "--n-sites", "8", "--block-size", "4", "--output", "-"]
    with monkeypatch.context() as patch:
        patch.setattr(kitaevchain.entropy, "majorana_table", no_table)
        assert cli.main(argv + ["--top-k", str(cli.MAX_SCAN_POINTS + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --top-k over {cli.MAX_SCAN_POINTS}")
    assert cli.main(argv + ["--top-k", "4"]) == 0


def test_scan_saturation_differences_shrink(tmp_path):
    out = tmp_path / "sat.csv"
    assert cli.main([
        "scan", "--axis", "block-len", "--n-sites", "1000", "--h-field", "0.5",
        "--from", "2", "--to", "60", "--step", "2", "--parity", "even",
        "--output", str(out),
    ]) == 0
    vals = [float(r[1]) for r in read_rows(out)[1:]]
    assert len(vals) == 30
    diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
    tail = diffs[9:]  # differences from L = 20 on
    assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(tail, tail[1:]))
    assert tail[-1] < 1e-4


def test_scan_rejects_bad_ranges():
    assert cli.main([
        "scan", "--axis", "block-len", "--n-sites", "8", "--h-field", "0.5",
        "--from", "4", "--to", "2", "--step", "1", "--output", "-",
    ]) == 2
    assert cli.main([
        "scan", "--axis", "block-len", "--n-sites", "8", "--h-field", "0.5",
        "--from", "1", "--to", "7", "--step", "-1", "--output", "-",
    ]) == 2


@pytest.mark.parametrize("command", [
    ["scan", "--axis", "block-len", "--parity", "even"],
    ["fit", "--parity", "even"],
    ["compare"],
])
def test_ranges_leaving_no_block_length_are_usage_errors(command, capsys):
    # 3..3 holds no even length, the default parity of compare and fit: a
    # CSV with a header and no rows would pass having compared nothing.
    argv = command + ["--n-sites", "8", "--h-field", "0.5", "--from", "3", "--to", "3",
                      "--step", "1", "--output", "-"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no even block length from 3.0 to 3.0")


@pytest.mark.parametrize("flag,value", [
    ("--from", "nan"), ("--from", "-inf"), ("--to", "inf"), ("--step", "nan"),
])
@pytest.mark.parametrize("command", [
    ["scan", "--axis", "h-field", "--n-sites", "16", "--from", "0", "--to", "1", "--step", "0.5"],
    ["fit", "--n-sites", "16", "--from", "2", "--to", "8", "--step", "2"],
    ["compare", "--n-sites", "8", "--from", "2", "--to", "4", "--step", "2"],
])
def test_non_finite_scan_ranges_are_usage_errors(command, flag, value, capsys):
    # flag=value, since argparse reads a bare "-inf" as an option.
    i = command.index(flag)
    argv = command[:i] + [f"{flag}={value}"] + command[i + 2:]
    assert cli.main(argv + ["--output", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: scan range must be finite")


@pytest.mark.parametrize("start,stop,step", [("0", "1e12", "1e-6"), ("0", "1e300", "1e-300")])
@pytest.mark.parametrize("command", [
    ["scan", "--axis", "block-len", "--n-sites", "16"],
    ["fit", "--n-sites", "16"],
    ["compare", "--n-sites", "8"],
])
def test_oversized_scan_ranges_are_usage_errors(command, start, stop, step, capsys):
    # 1e18 + 1 points, and a point count that overflows int: both must be
    # refused before any list of points is built.
    argv = command + ["--from", start, "--to", stop, "--step", step, "--output", "-"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: over {cli.MAX_SCAN_POINTS} points")


@pytest.mark.parametrize("flag,value", [("--from", "2.5"), ("--to", "4.5"), ("--step", "0.5")])
@pytest.mark.parametrize("command", [
    ["scan", "--axis", "block-len", "--n-sites", "16", "--parity", "all"],
    ["fit", "--n-sites", "64", "--parity", "all"],
    ["compare", "--n-sites", "8", "--parity", "all"],
])
def test_fractional_block_ranges_are_usage_errors(command, flag, value, capsys):
    # Rounding 2, 2.5, 3, 3.5, 4 to block lengths would repeat L = 2 and 4.
    ranges = {"--from": "2", "--to": "4", "--step": "1", flag: value}
    argv = command + [item for pair in ranges.items() for item in pair]
    assert cli.main(argv + ["--output", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: block lengths must be whole numbers")


def test_whole_block_ranges_may_be_written_as_floats(capsys):
    argv = ["scan", "--axis", "block-len", "--n-sites", "16", "--output", "-"]
    assert cli.main(argv + ["--from", "2.0", "--to", "4.0", "--step", "1.0"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["2", "3", "4"]


def test_oversized_chains_exit_quickly(capsys):
    # The oracle refuses N > 8 before 2^(N/2 - 1) is built, and past 2^53
    # sites the momentum grid cannot be laid out exactly.
    start = time.monotonic()
    assert cli.main(["degeneracy", "--n-sites", "4000000000"]) == 2
    assert time.monotonic() - start < 1.0
    assert cli.main(["entropy", "--n-sites", str(4 * 10**18), "--block-size", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: dense degeneracy count limited to N <= 8, got 4000000000",
        "error: n_sites must be at most 2**53, got 4000000000000000000",
    ]


def test_out_of_memory_is_usage_error(monkeypatch, capsys):
    def no_memory(p):
        raise MemoryError("Unable to allocate 14.6 TiB for an array")

    monkeypatch.setattr(kitaevchain.entropy, "majorana_table", no_memory)
    assert cli.main(["entropy", "--n-sites", "8", "--block-size", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("target", ["missing directory", "directory"])
def test_unwritable_output_is_usage_error(target, tmp_path, capsys):
    output = tmp_path / "missing" / "x.csv" if target == "missing directory" else tmp_path
    assert cli.main(["energy", "--n-sites", "8", "--output", str(output)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("top_k,header", [(20000, True), (4, False)])
def test_closed_pipe_is_usage_error(top_k, header, tmp_path):
    # The reader takes the header and leaves, as `| head -1` does, or leaves
    # before the rows fit in one buffer; what is still buffered must not
    # surface at exit either, so stdout is block-buffered as in a shell.
    args = ["spectrum", "--n-sites", "40", "--h-field", "0.1", "--block-size", "20",
            "--top-k", str(top_k)]
    env = {k: v for k, v in _env().items() if k != "PYTHONUNBUFFERED"}
    with subprocess.Popen([sys.executable, "-m", "kitaevchain", *args], env=env, cwd=tmp_path,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        if header:
            assert proc.stdout.readline() == b"rank,lambda_value,cumulative_weight\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    assert err.startswith("error: [Errno 32] Broken pipe")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("command", ["scan --axis block-len", "compare", "fit"])
def test_unknown_parity_is_usage_error(command, capsys):
    argv = command.split() + ["--n-sites", "8", "--from", "2", "--to", "4", "--parity", "prime"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "invalid choice: 'prime'" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["energy"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_fit_exact_line():
    curve = [(length, 0.5 * np.log2(length) + 0.3) for length in range(2, 65, 2)]
    fit = fit_log_slope(curve, (2, 64))
    assert abs(fit.slope - 0.5) < 1e-12
    assert abs(fit.intercept - 0.3) < 1e-12
    assert abs(fit.r_squared - 1.0) < 1e-12


def test_fit_constant_curve():
    curve = [(length, 1.7) for length in range(2, 33, 2)]
    fit = fit_log_slope(curve, (2, 32))
    assert abs(fit.slope) < 1e-12
    assert fit.r_squared == 1.0


def test_fit_honors_window():
    # Every point inside the window is fitted, of either parity: the CLI
    # filters parity before the curve is built.
    curve = [(length, float(length)) for length in range(1, 33)]
    fit = fit_log_slope(curve, (8, 16))
    assert fit.n_points == 9
    assert fit.window == (8, 16)


def test_fit_requires_enough_points():
    with pytest.raises(ParameterError):
        fit_log_slope([(2, 1.0), (4, 2.0), (8, 3.0)], (2, 8))


def _env():
    """The environment with PYTHONPATH led by the tested package."""
    src = str(Path(kitaevchain.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, inherited])))


def _run_python(*args, cwd):
    """Run the current interpreter on the tested package."""
    return subprocess.run([sys.executable, *args], capture_output=True, env=_env(), cwd=cwd)


def test_console_entry_point_runs(tmp_path):
    # The declared console script exists only after an install, so call its
    # [project.scripts] target through this interpreter, as the script would.
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert "kitaev-chain" in scripts, "pyproject.toml declares no kitaev-chain script"
    module, _, attr = scripts["kitaev-chain"].partition(":")
    launcher = f"import sys, {module}; sys.exit({module}.{attr}())"
    args = ["energy", "--n-sites", "4"]

    proc = _run_python("-c", launcher, *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.startswith(b"n_sites,")

    as_module = _run_python("-m", "kitaevchain", *args, cwd=tmp_path)
    assert as_module.returncode == 0, as_module.stderr.decode()
    assert as_module.stdout == proc.stdout

    installed = shutil.which("kitaev-chain")
    if installed:
        script = subprocess.run([installed, *args], capture_output=True)
        assert script.returncode == 0, script.stderr.decode()
        assert script.stdout.startswith(b"n_sites,")
