"""Acceptance gate: nine end-to-end checks with pinned tolerances.

Each test prints one `criterion N: PASS/FAIL` line with the measured
numbers, then asserts.  Tolerances and runtime budgets appear literally in
the assertions so the gate is auditable from this file alone.
"""

import time

import numpy as np
import pytest

from kitaevchain import fit_log_slope, oracle
from kitaevchain.entropy import (
    block_entropy,
    block_entropy_curve,
    entanglement_spectrum,
    schmidt_numbers,
)
from kitaevchain.model import ChainParams, ground_degeneracy, ground_energy
from kitaevchain.pairing import block_coupling, real_space_gamma

COUPLING_PAIRS = [(1.0, 1.0), (1.0, 0.8)]


def report(n: int, ok: bool, detail: str) -> str:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


@pytest.fixture(scope="module")
def plateau_curves():
    """N=1000 entropy curves reused by the area-law and oscillation checks."""
    curves = {}
    for h in (0.5, 2.0):
        p = ChainParams(1000, 1.0, 1.0, h)
        curves[h] = dict(block_entropy_curve(p, range(50, 501, 2)))
    return curves


def test_criterion_1_oracle_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for n in (4, 8, 12):
        for jx, jy in COUPLING_PAIRS:
            for h in (0.5, 1.0):
                lens = list(range(2, n // 2 + 1, 2))
                rpt = oracle.compare_entropies(ChainParams(n, jx, jy, h), lens)
                worst = max(worst, rpt.max_abs_diff)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-8 and elapsed < 60.0
    line = report(1, ok, f"max |E_fast - E_ED| = {worst:.3e}, {elapsed:.1f}s")
    assert worst < 1e-8, line
    assert elapsed < 60.0, line


def test_criterion_2_ground_energy():
    worst = 0.0
    for n in (4, 8, 12):
        for jx, jy in COUPLING_PAIRS:
            for h in (0.5, 1.0, 0.2, 2.0):
                p = ChainParams(n, jx, jy, h)
                e_ed, _ = oracle.ed_ground(p)
                worst = max(worst, abs(ground_energy(p) - e_ed))
    closed_form_gap = abs(ground_energy(ChainParams(4, 1.0, 1.0, 0.0)) + 2 * np.sqrt(2))
    ok = worst < 1e-9 and closed_form_gap < 1e-10
    line = report(2, ok, f"max |dE| = {worst:.3e}, E(4,1,1,0) gap = {closed_form_gap:.1e}")
    assert worst < 1e-9, line
    assert closed_form_gap < 1e-10, line


def test_criterion_3_degeneracy():
    t0 = time.monotonic()
    ok = True
    detail = []
    for n in (4, 8):
        for ratio in (1.0, 0.8, 0.3):
            p = ChainParams(n, 1.0, ratio, 0.0)
            counts = oracle.full_spectrum_degeneracy(p)
            expected = ground_degeneracy(p)
            ok = ok and counts.even_sector == expected
            detail.append(f"N={n},r={ratio}:{counts.even_sector}/{expected}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    line = report(3, ok, f"{'; '.join(detail)}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_4_area_law(plateau_curves):
    spreads = {}
    for h, curve in plateau_curves.items():
        vals = np.array([curve[length] for length in range(50, 501, 2)])
        spreads[h] = float(vals.max() - vals.min())
    e_half = dict(block_entropy_curve(ChainParams(500, 1.0, 1.0, 0.5), [250]))[250]
    e_full = plateau_curves[0.5][250]
    n_gap = abs(e_half - e_full)
    ok = all(s < 0.01 for s in spreads.values()) and n_gap < 0.01
    line = report(
        4,
        ok,
        f"spread h=0.5: {spreads[0.5]:.2e}, h=2: {spreads[2.0]:.2e}, "
        f"|E(250,500)-E(250,1000)| = {n_gap:.2e}",
    )
    assert spreads[0.5] < 0.01, line
    assert spreads[2.0] < 0.01, line
    assert n_gap < 0.01, line


def test_criterion_5_critical_log_scaling():
    p = ChainParams(1000, 1.0, 1.0, 0.0)
    curve = block_entropy_curve(p, range(8, 257, 2))
    fit_full = fit_log_slope(curve, (8, 256))
    fit_lo = fit_log_slope(curve, (8, 128))
    fit_hi = fit_log_slope(curve, (16, 256))
    slope_target = np.log(2) / 2
    slope_err = abs(fit_full.slope - slope_target) / slope_target
    window_gap = abs(fit_lo.slope - fit_hi.slope) / max(abs(fit_lo.slope), abs(fit_hi.slope))
    ok = fit_full.r_squared > 0.999 and slope_err < 0.15 and window_gap < 0.05
    line = report(
        5,
        ok,
        f"r2 = {fit_full.r_squared:.6f}, slope = {fit_full.slope:.4f} "
        f"(target 0.3466, err {100 * slope_err:.1f}%), windows differ {100 * window_gap:.1f}%",
    )
    assert fit_full.r_squared > 0.999, line
    assert slope_err < 0.15, line
    assert window_gap < 0.05, line


def test_criterion_6_even_odd_oscillation(plateau_curves):
    p = ChainParams(200, 1.0, 0.8, 0.0)
    curve = dict(block_entropy_curve(p, range(10, 91)))
    mids = {
        length: curve[length] - 0.5 * (curve[length - 1] + curve[length + 1])
        for length in range(11, 90)
    }
    # Alternation means the sign of the mid-point excess is a function of
    # block-length parity, with the two parities on opposite signs.
    sign_by_parity = {length % 2: mids[length] > 0 for length in mids}
    alternates = all(
        (mids[length] > 0) == sign_by_parity[length % 2] for length in mids
    ) and sign_by_parity[0] != sign_by_parity[1]
    amplitude = min(abs(v) for v in mids.values())
    vals = np.array([plateau_curves[0.5][length] for length in range(50, 501, 2)])
    noise = float(vals.max() - vals.min())
    ok = alternates and amplitude > 10 * noise
    line = report(
        6,
        ok,
        f"alternation over L in [11,89]: {alternates}, amplitude {amplitude:.2e} "
        f"vs 10x plateau noise {10 * noise:.2e}",
    )
    assert alternates, line
    assert amplitude > 10 * noise, line


def test_criterion_7_peak_tracking():
    hs = np.round(np.arange(-2.0, 2.0 + 1e-9, 0.01), 10)

    def h_scan(jy: float) -> tuple[float, float]:
        best_h, best_e = 0.0, -np.inf
        for h in hs:
            e = block_entropy_curve(ChainParams(200, 1.0, jy, float(h)), [100])[0][1]
            if e > best_e:
                best_h, best_e = float(h), e
        return best_h, best_e

    peak_h, peak_val = h_scan(1.0)
    ratios = np.round(np.arange(0.2, 2.0 + 1e-9, 0.01), 10)
    best_ratio, best_ratio_e = 1.0, -np.inf
    for ratio in ratios:
        e = block_entropy_curve(ChainParams(200, 1.0, float(ratio), 0.0), [100])[0][1]
        if e > best_ratio_e:
            best_ratio, best_ratio_e = float(ratio), e
    _, skew_peak_val = h_scan(0.8)

    ok = (
        abs(peak_h) <= 0.01 + 1e-12
        and abs(best_ratio - 1.0) <= 0.02 + 1e-12
        and skew_peak_val < peak_val
    )
    line = report(
        7,
        ok,
        f"h argmax {peak_h:+.2f}, ratio argmax {best_ratio:.2f}, "
        f"peak {peak_val:.4f} vs skew peak {skew_peak_val:.4f}",
    )
    assert abs(peak_h) <= 0.01 + 1e-12, line
    assert abs(best_ratio - 1.0) <= 0.02 + 1e-12, line
    assert skew_peak_val < peak_val, line


def test_criterion_8_spectrum_consistency():
    rng = np.random.default_rng(2718)
    worst_sum, worst_entropy = 0.0, 0.0
    for _ in range(20):
        n = int(rng.choice([8, 12, 16, 20]))
        jx = float(rng.uniform(0.3, 1.5))
        jy = float(rng.uniform(0.3, 1.5))
        h = float(rng.uniform(0.1, 2.0)) * (1 if rng.random() < 0.5 else -1)
        length = int(rng.integers(1, min(12, n - 1) + 1))
        s = schmidt_numbers(block_coupling(real_space_gamma(ChainParams(n, jx, jy, h)), length))
        lam = entanglement_spectrum(s, 2 ** len(s)).lambdas
        worst_sum = max(worst_sum, abs(float(lam.sum()) - 1.0))
        nz = lam[lam > 0]
        shannon = float(-(nz * np.log2(nz)).sum())
        worst_entropy = max(worst_entropy, abs(shannon - block_entropy(s)))
    ok = worst_sum < 1e-10 and worst_entropy < 1e-10
    line = report(
        8, ok, f"max |sum-1| = {worst_sum:.2e}, max entropy gap = {worst_entropy:.2e}"
    )
    assert worst_sum < 1e-10, line
    assert worst_entropy < 1e-10, line


def test_criterion_9_performance():
    p = ChainParams(1000, 1.0, 1.0, 0.5)
    t0 = time.monotonic()
    block_entropy_curve(p, range(2, 501, 2))
    curve_time = time.monotonic() - t0
    t0 = time.monotonic()
    block_entropy_curve(p, [500])
    single_time = time.monotonic() - t0
    ok = curve_time < 10.0 and single_time < 1.0
    line = report(
        9, ok, f"full curve {curve_time:.1f}s (< 10), single L=500 {single_time:.2f}s (< 1)"
    )
    assert curve_time < 10.0, line
    assert single_time < 1.0, line
