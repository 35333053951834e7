"""Block entanglement entropy and spectrum from natural-mode occupations.

A block of L sites has L natural fermionic modes with occupations nu_n in
[0, 1/2], read from the singular values of the real L x L block of
G = 1 - 2C + 2F (see pairing.majorana_occupations).  In Schmidt form the
state is sum_n sqrt(eta_n) A+_n B+_n with eta_n = nu_n / (1 - nu_n), and each
mode pair contributes independently: the normalized two-level weights are
x_n^2 = 1/(1 + eta_n) = 1 - nu_n and y_n^2 = eta_n/(1 + eta_n) = nu_n, the
reduced-density eigenvalues are products of one weight per mode, and the
entropy is the sum of binary entropies H(x_n^2).

block_spectra and block_entropy_curve run the momentum route: one table of G
per chain, one largest block, one SVD per block size.  Both routes hand their
occupations to schmidt_numbers, the one place where nu becomes eta.
fit_log_slope fits a curve's entropy against log2 of the block length.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .exceptions import ParameterError, SizeError
from .model import ChainParams
from .pairing import (
    BlockCoupling,
    _check_block_len,
    majorana_block,
    majorana_occupations,
    majorana_table,
)

# Schmidt numbers below this are exact zeros for every downstream purpose:
# their entropy contribution is below 1e-21 bits.
ETA_FLOOR = 1e-24

ENUMERATION_LIMIT = 20


def binary_entropy(x: float) -> float:
    """Shannon binary entropy in bits; H(0) = H(1) = 0 by continuity."""
    if x < -1e-12 or x > 1.0 + 1e-12:
        raise ParameterError(f"binary entropy argument {x} outside [0, 1]")
    x = min(max(float(x), 0.0), 1.0)
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def _binary_entropy_sum(probs: np.ndarray) -> float:
    p = np.clip(probs, 0.0, 1.0)
    inner = p[(p > 0.0) & (p < 1.0)]
    return float(-(inner * np.log2(inner) + (1 - inner) * np.log2(1 - inner)).sum())


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Operator Schmidt numbers eta_n >= 0, descending, padded to block_len."""

    etas: np.ndarray
    block_len: int


@dataclass(frozen=True)
class EntanglementSpectrum:
    """Largest reduced-density eigenvalues, descending, and their total weight."""

    lambdas: np.ndarray
    total_captured: float


def schmidt_numbers(c: BlockCoupling) -> SchmidtSpectrum:
    """Schmidt numbers eta = nu / (1 - nu) from a block's occupations, descending.

    A pure Gaussian state has at most min(L, N - L) modes with occupation
    strictly between 0 and 1, so only the min(L, N - L) largest nu are kept;
    the others, frozen up to rounding, count as exact zeros.
    """
    nu = c.occupations
    block_len = len(nu)
    keep = min(block_len, c.n_sites - block_len)
    etas = np.zeros(block_len)
    etas[:keep] = nu[:keep] / (1.0 - nu[:keep])
    etas[etas < ETA_FLOOR] = 0.0
    return SchmidtSpectrum(etas=etas, block_len=block_len)


def block_entropy(s: SchmidtSpectrum) -> float:
    """E = sum_n H(1/(1 + eta_n)) in bits; zero modes contribute exactly 0."""
    etas = s.etas[s.etas > 0.0]
    return _binary_entropy_sum(1.0 / (1.0 + etas))


def _mode_weights(s: SchmidtSpectrum) -> tuple[np.ndarray, np.ndarray]:
    x2 = 1.0 / (1.0 + s.etas)
    y2 = s.etas / (1.0 + s.etas)
    return x2, y2


def entanglement_spectrum(s: SchmidtSpectrum, count: int) -> EntanglementSpectrum:
    """The count largest reduced-density eigenvalues, without full enumeration.

    Every eigenvalue is a product over modes of either x_n^2 or y_n^2.  The
    largest takes the bigger weight from every mode; the rest are reached by
    flipping modes to their smaller weight.  Flip factors sorted by damage
    let a best-first heap deliver eigenvalues in descending order, visiting
    each subset of flips once.  Eigenvalues that are exactly zero (from modes
    with eta = 0) are never emitted, so fewer than count values can return.
    """
    if count < 1:
        raise ParameterError(f"count must be positive, got {count}")
    x2, y2 = _mode_weights(s)
    top = float(np.prod(np.maximum(x2, y2)))
    if top == 0.0:
        return EntanglementSpectrum(lambdas=np.array([]), total_captured=0.0)
    ratios = np.minimum(x2, y2) / np.maximum(x2, y2)
    factors = np.sort(ratios[ratios > 0.0])[::-1]

    values = [top]
    heap: list[tuple[float, int]] = []
    if len(factors):
        heapq.heappush(heap, (-top * factors[0], 0))
    while len(values) < count and heap:
        neg, i = heapq.heappop(heap)
        v = -neg
        values.append(v)
        if i + 1 < len(factors):
            heapq.heappush(heap, (-v * factors[i + 1], i + 1))
            # Exactly at most v, since factors descend; rounding can lift it
            # one ulp above v when two factors are (nearly) equal, so cap it
            # to keep the emitted values non-increasing.
            heapq.heappush(heap, (-min(v * factors[i + 1] / factors[i], v), i + 1))
    lam = np.asarray(values)
    return EntanglementSpectrum(lambdas=lam, total_captured=float(lam.sum()))


def enumerate_spectrum(s: SchmidtSpectrum) -> np.ndarray:
    """All 2^L reduced-density eigenvalues, descending, zeros included.

    Exponential in block_len; intended for small-block consistency checks.
    """
    if s.block_len > ENUMERATION_LIMIT:
        raise SizeError(f"enumeration limited to {ENUMERATION_LIMIT} modes")
    x2, y2 = _mode_weights(s)
    lam = np.ones(1)
    for n in range(s.block_len):
        lam = np.concatenate([lam * x2[n], lam * y2[n]])
    return np.sort(lam)[::-1]


def block_spectra(p: ChainParams, block_lens) -> list[tuple[int, SchmidtSpectrum]]:
    """Schmidt spectrum of the first L sites for each requested L, in order.

    The table of G and its largest requested block are built once; each
    block size takes the SVD of a leading slice of that block.
    """
    lens = [int(length) for length in block_lens]
    for length in lens:
        _check_block_len(p.n_sites, length)
    if not lens:
        return []
    g = majorana_block(majorana_table(p), max(lens))
    spectra = []
    for length in lens:
        nu = majorana_occupations(g[:length, :length])
        spectra.append((length, schmidt_numbers(BlockCoupling(nu, p.n_sites))))
    return spectra


def block_entropy_curve(p: ChainParams, block_lens) -> list[tuple[int, float]]:
    """Entropy in bits at each requested block size, in request order."""
    return [(length, block_entropy(s)) for length, s in block_spectra(p, block_lens)]


def _parity_filter(items: list, parity: str, key=lambda item: item) -> list:
    """The items whose block length key(item) has the given parity, in order."""
    if parity == "even":
        return [item for item in items if key(item) % 2 == 0]
    if parity == "odd":
        return [item for item in items if key(item) % 2 == 1]
    if parity == "all":
        return items
    raise ParameterError(f"unknown parity filter {parity!r}")


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    window: tuple[int, int]
    n_points: int


def fit_log_slope(curve, window: tuple[int, int], parity: str = "even") -> FitResult:
    """Least-squares slope of entropy against log2(block length).

    Points outside the window or of the wrong parity are dropped; at least
    four must remain.  A constant curve fits its own mean exactly, so its
    r_squared is 1 by convention.
    """
    l_min, l_max = window
    in_window = [pt for pt in curve if l_min <= pt[0] <= l_max]
    pts = _parity_filter(in_window, parity, key=lambda pt: pt[0])
    if len(pts) < 4:
        raise ParameterError(f"need at least 4 points to fit, got {len(pts)}")
    lengths, e_vals = np.array(pts, dtype=float).T
    x = np.log2(lengths)
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, e_vals, rcond=None)
    resid = e_vals - (slope * x + intercept)
    ss_tot = float(((e_vals - e_vals.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot < 1e-30 else 1.0 - float((resid**2).sum()) / ss_tot
    return FitResult(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        window=(int(l_min), int(l_max)),
        n_points=len(pts),
    )
