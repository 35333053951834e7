"""Block entanglement entropy and spectrum from natural-mode occupations.

A block of L sites has L natural fermionic modes with occupations nu_n in
[0, 1/2].  Each natural mode of the block is entangled with one mode outside
it and contributes independently: its two reduced-density weights are
1 - nu_n and nu_n, the reduced-density eigenvalues are products of one
weight per mode, and the entropy is the sum of binary entropies H(nu_n).  No
Schmidt numbers eta = nu / (1 - nu) are formed: the way back to the weights
would only add rounding.

The occupations come from blocks of G D that pairing lays out, by one of two
reductions: majorana_occupations, one symmetric eigensolve of the block's
L x L block A, or _cut_occupations, one certified subspace iteration on the
few large singular values of its L x (N - L) cross block B, or of a window
of B at the cuts.  _block_occupations picks one per block.  block_spectra
and block_entropy_curve lay out one row of G D per sublattice per chain
(pairing.signed_rows) and hand it to _block_occupations once per block, so
no block shares state with another; pairing.block_coupling hands it the
reference route's rows.  Either way a block's nu, one plain array, goes to
schmidt_numbers, whose one rule is NU_FLOOR.  It, block_entropy and
entanglement_spectrum all refuse anything but one real number or a 1-d
array of them, NaN, and any entry outside [0, 1].  fit_log_slope fits a
curve's entropy against log2 of the block length."""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .exceptions import ParameterError
from .model import ChainParams, _check_block_len, _index
from .pairing import majorana_rows, majorana_table, signed_rows

# Occupations below this are eigensolver rounding noise on frozen modes and
# count as exact zeros.  majorana_occupations's eigvalsh leaves such a mode
# at nu of a few eps, growing with the block length (7.6e-15 at most,
# measured up to L = 4000); each one kept would add up to 4e-13 bits, and
# hundreds of them add up.  A real mode below the floor carries under 5e-13
# bits.
NU_FLOOR = 1e-14

# The low-rank route's first subspace: this many columns of the cross block,
# half next to each cut.
START_COLUMNS = 16

# Rows of the cross block per product.  Products over the whole block ran
# on two BLAS threads, and the second one's buffers raised peak memory.
PANEL_ROWS = 32

# The low-rank route's cost per call beyond its products, in flops of the
# dense route (~1e-10 s per flop, 2 cores, OpenBLAS 0.3.31).  It keeps short
# blocks of short chains dense: the N = 200 crossover moves from L = 90 to
# 136.  Measured per call at N = 200, L = 100, dense against the whole B:
# 0.39 / 0.49 ms at J_x = J_y = 1, h = 0; 0.41 / 0.35 at h = 0.05; 0.34 /
# 0.35 at h = 0.2 (best of 3-5, 2 cores of a shared machine).
LOW_RANK_OVERHEAD = 2.5e6


@dataclass(frozen=True)
class EntanglementSpectrum:
    """Largest reduced-density eigenvalues, descending, and their total weight."""

    lambdas: np.ndarray
    total_captured: float


def schmidt_numbers(nu: np.ndarray) -> np.ndarray:
    """A float copy of a block's occupations nu, every nu below NU_FLOOR set to zero.

    Such a nu is rounding noise on a frozen mode.  A pure state entangles at
    most min(L, N - L) modes of a block; past half the ring the frozen rest
    land below the floor on every route, so no other rule is needed.
    """
    nu = _checked_occupations(nu).astype(float)
    nu[nu < NU_FLOOR] = 0.0
    return nu


def _real_array(name: str, values) -> np.ndarray:
    """values as an integer or float array; anything else, bool or complex too, is refused."""
    try:
        array = np.asarray(values)
    except (TypeError, ValueError):
        array = None
    if array is None or array.dtype.kind not in "iuf":
        raise ParameterError(f"{name} must be real numbers, got {values!r}")
    return array


def _checked_occupations(nu) -> np.ndarray:
    """nu as a real array of at most one dimension, once every entry lies in [0, 1].

    NaN raises ParameterError too.
    """
    nu = _real_array("occupations", nu)
    if nu.ndim > 1:
        raise ParameterError(f"occupations must be a number or a 1-d array, got shape {nu.shape}")
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


def majorana_occupations(block: np.ndarray) -> np.ndarray:
    """Natural-mode occupations of a block from its block A of G D, descending.

    The block's reduced state is Gaussian and factorizes over fermionic
    modes with occupations in particle-hole pairs (nu, 1 - nu).  The real
    L x L block G_L of G = 1 - 2C + 2F has singular values |1 - 2 nu|.  Z
    couples only opposite sublattices, so D Z D = -Z with D = diag((-1)^j),
    hence D (1 + Z)^{-1} D = (1 - Z)^{-1} = ((1 + Z)^{-1})^T and, as
    G = 2 (1 + Z)^{-1} - 1, D G D = G^T.  Then A = G_L D = D G_L^T is
    symmetric, and as D is orthogonal its |eigenvalues| are the singular
    values of G_L: one symmetric eigensolve gives the minority member
    nu = (1 - |lambda|) / 2 of each pair.  A frozen (empty or full) mode
    reports 0 and a maximally entangled one 1/2.  Only the lower triangle of
    the block is read.

    For even L the occupations come in degenerate pairs.  Let J reverse the
    block's sites and K = J D.  Reversal swaps the sublattices, so
    J D J = -D, K^2 = -1 and K^T = -K.  The block's centre is the centre of
    a bond, and reflecting the ring there keeps both bond types, which makes
    G_L persymmetric, J G_L^T J = G_L; so
    K A K^T = J D A D J = J G_L^T D J = -G_L D = -A.
    The eigenvalues of A thus come in +-lambda pairs, and an even L leaves
    the zero eigenvalue an even multiplicity too, so every |lambda| and
    hence every nu is at least doubly degenerate.  An odd L has no such K.
    """
    lam = np.linalg.eigvalsh(block)
    return np.maximum(0.5 * (1.0 - np.sort(np.abs(lam))), 0.0)


def _low_rank_pays(n_sites: int, block_len: int) -> bool:
    """Whether a block takes the low-rank route: cheaper, and not much bigger.

    The dense route's tridiagonalization costs 4 L^3 / 3 flops; the
    low-rank route's first round, three products with B as a near-critical
    block takes, 6 L (N - L) k at k = START_COLUMNS, plus LOW_RANK_OVERHEAD.
    B must also hold at most three times the entries of the dense block:
    that bound, not the price, keeps L = 500 of a critical N = 100 000
    chain dense, and from N = 988 on the rule is just 4 L >= N.  The rule
    serves the chains whose _tail_bound refuses the window, and no rule in N
    and L alone suits all of them.  Per call, dense / whole B, in ms (as for
    LOW_RANK_OVERHEAD): N = 600, L = 150 takes 0.83 / 2.45 at J_x = J_y = 1,
    h = 0 and 0.80 / 1.05 at h = 0.05; N = 1000, L = 500 takes 11.3 / 17.3
    and 12.0 / 4.9; N = 4000, L = 2000 takes 490 / 140 and 472 / 59.  On a
    gapped chain the rule decides only blocks with L <= 64 or N - L <= 128,
    16 of them low-rank (N <= 152).
    """
    rest = n_sites - block_len
    dense = 4 * block_len**3 / 3
    low_rank = 6 * block_len * rest * START_COLUMNS + LOW_RANK_OVERHEAD
    return rest <= 3 * block_len and dense > low_rank


def _layout(signed: np.ndarray, sites: list, columns: list) -> np.ndarray:
    """(G D)[sites, columns] for lists of (start, stop) ranges; one range each way is not copied."""
    pieces = [[majorana_rows(signed, stop, c0, c1, first=start) for c0, c1 in columns]
              for start, stop in sites]
    if len(sites) == len(columns) == 1:
        return pieces[0][0]
    return np.concatenate([np.concatenate(row, axis=1) for row in pieces])


def _cut_ranges(start: int, stop: int, width: int) -> list:
    """[start, stop) as its first and last width indices, or whole if those would meet."""
    if 2 * width >= stop - start:
        return [(start, stop)]
    return [(start, start + width), (stop - width, stop)]


def _cut_occupations(signed: np.ndarray, length: int, width: int,
                     tail: float) -> tuple[np.ndarray, float]:
    """Occupations of a block from the window of its cross block B, descending, and tau.

    The window is B[R, C]: R the block's first and last width sites, C the
    width columns past the cut at L and past the ring's closing one (all of
    either when 2 width covers it), so its first and last columns are the
    ones next to the two cuts.  At width N it is the whole B, never copied.
    tail bounds B's mass outside the window: _tail_bound, or 0 at width N.

    G D is orthogonal because the state is pure, so its rows through the
    block give A A^T + B B^T = 1 for the block A of majorana_occupations:
    B's singular values are sigma^2 = 1 - (1 - 2 nu)^2 = 4 nu (1 - nu), and
    nu = sigma^2 / (2 (1 + sqrt(1 - sigma^2))) has no 1 - |lambda|
    cancellation.  Only the few modes near the two cuts are entangled, so
    randomized subspace iteration (Halko, Martinsson and Tropp, SIAM Rev. 53,
    217 (2011)) finds them with no L x L eigenproblem.  It starts from the k
    window columns next to the two cuts, half each, as an orthonormal Q, and
    reads sigma^2 off the k x k Gram of P = window^T Q.  By interlacing, the
    missed mass tau = |window|_F^2 + tail - sum sigma^2 bounds every mode
    the subspace missed; once tau <= 4 NU_FLOOR a missed mode has
    nu <= NU_FLOOR and would count as zero anyway.  tau needs only the
    Gram's trace, sum sigma^2 = |P|_F^2, so that one number decides every
    step, and the Gram is eigensolved once, for the subspace that passes.
    When a chain entangles clearly fewer modes than k, the start columns
    already span them, so one product with the window is all it takes.  Only
    if the certificate fails does it take one power step from that same P
    (QR of window P, then window^T), and only if that fails too does k double.

    Q lives on R, and dropping rows or columns of B only removes terms from
    |B^T Q|_F^2, so tau is still at least the mass missed in the whole B,
    and each Ritz value still lies below its sigma^2 with
    sum (sigma^2 - Ritz value) <= tau: the certificate holds on any window.
    Near nu = 1/2, where sqrt(1 - sigma^2) = |lambda| keeps half its
    digits, nu comes from the eigenvalues of U^T A U over those modes' Ritz
    vectors U (one quotient per mode would mix an even L's +-lambda pairs);
    U lives on R too, so only A[R, R] is laid out from signed, a column
    panel at a time.  The start columns are fixed, so equal input gives
    bitwise equal output.  One nu per site of the block; past the k found
    they are zeros.
    """
    sites = _cut_ranges(0, length, width)
    window = _layout(signed, sites, _cut_ranges(length, signed.shape[1] // 2 + 1, width))
    rows, cols = window.shape
    panels = [slice(i, i + PANEL_ROWS) for i in range(0, rows, PANEL_ROWS)]

    def times(right):
        return np.concatenate([window[panel] @ right for panel in panels])

    def adjoint_times(left):
        total = np.zeros((cols, left.shape[1]))
        for panel in panels:
            total += window[panel].T @ left[panel]
        return total

    # Sums of squares by numpy, not a dot (OpenBLAS runs one on two threads),
    # a panel at a time so that no copy of B is made.
    mass = sum(float(np.square(window[panel]).sum()) for panel in panels) + tail
    full = min(rows, cols)
    k = min(START_COLUMNS, full)
    while True:
        near_cuts = np.concatenate([window[:, : k - k // 2], window[:, cols - k // 2 :]], axis=1)
        basis = np.linalg.qr(near_cuts)[0]
        projected = adjoint_times(basis)
        tau = mass - float(np.square(projected).sum())
        if tau > 4.0 * NU_FLOOR:
            basis = np.linalg.qr(times(projected))[0]
            projected = adjoint_times(basis)
            tau = mass - float(np.square(projected).sum())
        if tau <= 4.0 * NU_FLOOR or k == full:
            break
        k = min(2 * k, full)
    gram = projected.T @ projected
    sigma2 = np.clip(np.linalg.eigvalsh(gram)[::-1], 0.0, 1.0)
    root = np.sqrt(1.0 - sigma2)
    nu = np.zeros(length)
    nu[:k] = sigma2 / (2.0 * (1.0 + root))
    # Rounding sigma^2 by eps moves nu by eps / (4 root): past NU_FLOOR, refine.
    near = int(np.count_nonzero(root < np.finfo(float).eps / (4.0 * NU_FLOOR)))
    if near:
        ritz = basis @ np.linalg.eigh(gram)[1][:, k - near :]
        block_ritz = np.concatenate([
            _layout(signed, sites, [(i, min(i + PANEL_ROWS, stop))]).T @ ritz
            for start, stop in sites for i in range(start, stop, PANEL_ROWS)])
        lam = np.linalg.eigvalsh(ritz.T @ block_ritz)
        nu[:k] = np.sort(np.concatenate([0.5 * (1.0 - np.abs(lam)), nu[near:k]]))[::-1]
    return nu, tau


def _tail_bound(signed: np.ndarray, width: int) -> float:
    """A bound T, for every L, on the mass of B outside its window at the cuts.

    An entry of B outside the window (_cut_occupations) has its row among
    the block's middle sites or its column among the rest's, so its two
    sites lie more than w = width apart on the ring.  Entry i of
    signed row s is G D at site offset delta = i - (N - 1) + s, ring
    distance d = min(|delta|, N - |delta|), and at most d + 1 block x rest
    pairs at that offset cross a cut: T = sum over d > w of (d + 1) entry^2.
    A gapped chain's G D decays exponentially in d, so T is far below
    NU_FLOOR there; at and near the critical point it is not.
    """
    last = signed.shape[1] // 2  # N - 1
    offset = np.abs(np.arange(-last, last + 1))
    distance = np.minimum(offset, last + 1 - offset)
    weight = np.where(distance > width, distance + 1.0, 0.0)
    return float(np.square(signed[0]) @ weight[:-1] + np.square(signed[1]) @ weight[1:])


def _window_width(n_sites: int, length: int) -> int:
    """w = 4 START_COLUMNS where a block's window at w is a proper part of its B, else 0.

    That is where L > w, and L or N - L is past 2 w.
    """
    width = 4 * START_COLUMNS
    return width if length > width and max(length, n_sites - length) > 2 * width else 0


def _block_occupations(signed: np.ndarray, length: int, tail: float | None = None) -> np.ndarray:
    """A block's nu, descending, from a signed_rows array: the one rule for every block's route.

    There are three routes.  Dense: majorana_occupations of the block's
    L x L block A.  The window: _cut_occupations on the corners of B at
    the block's two cuts, w = _window_width wide, counting tail as mass
    outside them.  The whole B: the window at width N, with tail 0.  A
    gapped chain entangles a fixed number of modes at each cut, and one
    bound per chain shows it: tail is _tail_bound at w, or None where no
    bound was computed.  A block reads its window where its _window_width
    is not 0 and tail <= NU_FLOOR.  Every other block, and so every one at
    and near the critical point, reads the whole B where _low_rank_pays,
    else takes the dense route.  block_spectra computes the tail only when
    some requested block has a window; block_coupling passes None, so it
    never reads the window, and the tests check the window against it.
    """
    n_sites = signed.shape[1] // 2 + 1
    width = _window_width(n_sites, length)
    if width and tail is not None and tail <= NU_FLOOR:
        return _cut_occupations(signed, length, width, tail)[0]
    if _low_rank_pays(n_sites, length):
        return _cut_occupations(signed, length, n_sites, 0.0)[0]
    return majorana_occupations(majorana_rows(signed, length, 0, length))


def _floored_spectra(p: ChainParams, block_lens, reduce) -> list:
    """(L, reduce(schmidt_numbers of its nu)) per requested L, in order; repeats share."""
    try:
        requested = iter(block_lens)
    except TypeError:
        raise ParameterError(f"block_lens must be lengths to iterate, got {block_lens!r}") from None
    lens = [_check_block_len(p.n_sites, length) for length in requested]
    if not lens:
        return []
    rows = signed_rows(majorana_table(p))
    width = max(_window_width(p.n_sites, length) for length in lens)
    tail = _tail_bound(rows, width) if width else None
    reduced = {length: reduce(schmidt_numbers(_block_occupations(rows, length, tail)))
               for length in dict.fromkeys(lens)}
    return [(length, reduced[length]) for length in lens]


def block_spectra(p: ChainParams, block_lens) -> list[tuple[int, np.ndarray]]:
    """Entangled-mode occupations of the first L sites per requested L, in order; repeats share."""
    return _floored_spectra(p, block_lens, lambda nu: nu)


def block_entropy_curve(p: ChainParams, block_lens) -> list[tuple[int, float]]:
    """Entropy in bits per requested block size, in order, one block's arrays alive at a time."""
    return _floored_spectra(p, block_lens, block_entropy)


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    window: tuple[int, int]
    n_points: int


def fit_log_slope(curve, window: tuple[int, int]) -> FitResult:
    """Least-squares slope of entropy against log2(block length).

    The window is two finite numbers, and every point of the curve a finite
    positive length and a finite entropy.  Points outside the window are
    dropped; at least four must remain.  A constant curve fits its own mean
    exactly, so its r_squared is 1 by convention.
    """
    bounds = _real_array("window", window)
    if bounds.shape != (2,) or not np.isfinite(bounds).all():
        raise ParameterError(f"window must be two finite numbers, got {window!r}")
    points = _real_array("curve", list(curve) or np.empty((0, 2))).astype(float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ParameterError(f"curve must be (length, entropy) pairs, got shape {points.shape}")
    lengths, e_vals = points.T
    bad = ~(np.isfinite(lengths) & (lengths > 0) & np.isfinite(e_vals))
    if bad.any():
        raise ParameterError(
            f"curve points need a finite positive length and a finite entropy, got "
            f"{points[bad].tolist()}")
    l_min, l_max = bounds
    inside = (l_min <= lengths) & (lengths <= l_max)
    n_points = int(np.count_nonzero(inside))
    if n_points < 4:
        raise ParameterError(f"need at least 4 points to fit, got {n_points}")
    x, e_vals = np.log2(lengths[inside]), e_vals[inside]
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
        n_points=n_points,
    )
