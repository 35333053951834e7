"""Block entanglement entropy and spectrum from natural-mode occupations.

A block of L sites has L natural fermionic modes with occupations nu_n in
[0, 1/2], read from the eigenvalues of the symmetric L x L block of G D,
the ground-state correlations G = 1 - 2C + 2F with columns signed by
sublattice (see pairing.majorana_occupations).  Each natural mode of the
block is entangled with one mode outside it and contributes independently:
its two reduced-density weights are 1 - nu_n and nu_n, the reduced-density
eigenvalues are products of one weight per mode, and the entropy is the sum
of binary entropies H(nu_n).  No Schmidt numbers eta = nu / (1 - nu) are
formed: the way back to the weights would only add rounding.

block_spectra and block_entropy_curve run the momentum route: one table of G
per chain, one largest block, one symmetric eigensolve per block size.  Both
routes hand their occupations to schmidt_numbers, which keeps the ones that
can be entangled; block_entropy and entanglement_spectrum take that
occupation array as it is, and refuse NaN or any entry outside [0, 1].
fit_log_slope fits a curve's entropy against log2 of the block length.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .exceptions import ParameterError
from .model import ChainParams, _index
from .pairing import (
    BlockCoupling,
    _check_block_len,
    majorana_block,
    majorana_occupations,
    majorana_table,
)

# Occupations below this are eigensolver rounding noise on frozen modes and
# count as exact zeros.  eigvalsh leaves such a mode at nu of a few eps,
# growing with the block length (7.6e-15 at most, measured up to L = 4000);
# each one kept would add up to 4e-13 bits, and hundreds of them add up.  A
# real mode below the floor carries under 5e-13 bits.
NU_FLOOR = 1e-14


@dataclass(frozen=True)
class EntanglementSpectrum:
    """Largest reduced-density eigenvalues, descending, and their total weight."""

    lambdas: np.ndarray
    total_captured: float


def schmidt_numbers(c: BlockCoupling) -> np.ndarray:
    """The entangled modes' occupations from a block's occupations, descending.

    One entry per site of the block.  A pure Gaussian state has at most
    min(L, N - L) modes with occupation strictly between 0 and 1, so only
    the min(L, N - L) largest nu are kept; the others, frozen up to
    rounding, count as exact zeros at the end, and so does any nu below
    NU_FLOOR.
    """
    block_len = len(c.occupations)
    keep = min(block_len, c.n_sites - block_len)
    nu = np.zeros(block_len)
    nu[:keep] = c.occupations[:keep]
    nu[nu < NU_FLOOR] = 0.0
    return nu


def _checked_occupations(nu) -> np.ndarray:
    """nu as an array, once every entry lies in [0, 1]; NaN raises ParameterError too."""
    nu = np.asarray(nu)
    inside = (nu >= 0.0) & (nu <= 1.0)
    if not inside.all():
        raise ParameterError(f"occupations must lie in [0, 1], got {nu[~inside]}")
    return nu


def block_entropy(nu: np.ndarray) -> float:
    """E = sum_n H(nu_n) in bits, from occupations; zero modes contribute exactly 0.

    Each term is negated before the sum, so a block with no entangled mode
    sums nothing to +0.0 rather than negating an empty sum to -0.0.
    """
    nu = _checked_occupations(nu)
    nu = nu[(nu > 0.0) & (nu < 1.0)]
    return float((-nu * np.log2(nu) - (1 - nu) * np.log2(1 - nu)).sum())


def entanglement_spectrum(nu: np.ndarray, count: int) -> EntanglementSpectrum:
    """The count largest reduced-density eigenvalues from occupations nu.

    Every eigenvalue is a product over modes of either 1 - nu_n or nu_n.
    The largest takes the bigger weight from every mode; the rest are reached
    by flipping modes to their smaller weight.  Flip factors sorted by damage
    let a best-first heap deliver eigenvalues in descending order, visiting
    each subset of flips once.  Eigenvalues that are exactly zero (from modes
    with nu = 0) are never emitted, so fewer than count values can return;
    a count of 2^L returns every nonzero eigenvalue.
    """
    count = _index("count", count)
    if count < 1:
        raise ParameterError(f"count must be positive, got {count}")
    nu = _checked_occupations(nu)
    bigger, smaller = np.maximum(1.0 - nu, nu), np.minimum(1.0 - nu, nu)
    top = float(np.prod(bigger))
    if top == 0.0:
        return EntanglementSpectrum(lambdas=np.array([]), total_captured=0.0)
    ratios = smaller / bigger
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


def block_spectra(p: ChainParams, block_lens) -> list[tuple[int, np.ndarray]]:
    """Entangled-mode occupations of the first L sites for each requested L, in order.

    The table of G and its largest requested signed block are built once;
    each block size takes the eigenvalues of a leading slice of that block.
    """
    lens = [_check_block_len(p.n_sites, length) for length in block_lens]
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
    return [(length, block_entropy(nu)) for length, nu in block_spectra(p, block_lens)]


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    window: tuple[int, int]
    n_points: int


def fit_log_slope(curve, window: tuple[int, int]) -> FitResult:
    """Least-squares slope of entropy against log2(block length).

    Points outside the window are dropped; at least four must remain.  A
    constant curve fits its own mean exactly, so its r_squared is 1 by
    convention.
    """
    l_min, l_max = window
    pts = [pt for pt in curve if l_min <= pt[0] <= l_max]
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
