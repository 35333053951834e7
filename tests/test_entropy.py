import functools
import random
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from closed_forms import block_entropy_closed

from kitaevchain import entropy, oracle
from kitaevchain.entropy import (
    NU_FLOOR,
    block_entropy,
    block_entropy_curve,
    block_spectra,
    entanglement_spectrum,
    schmidt_numbers,
)
from kitaevchain.exceptions import ParameterError
from kitaevchain.model import ChainParams
from kitaevchain.pairing import (
    block_coupling,
    majorana_occupations,
    majorana_rows,
    majorana_table,
    real_space_gamma,
    signed_rows,
)

# Jin and Korepin's constant for the critical chain, J. Stat. Phys. 116, 79
# (2004): S(L, N) = (1/3) log2[(2N/pi) sin(pi L/N)] + UPSILON_1 / ln 2 bits.
UPSILON_1 = 0.4950179081351371

# The brute-force oracle below builds all 2^L products; past this it is too big.
ENUMERATION_LIMIT = 20

# The README's error-budget grid, with J_x = 0 (decoupled y dimers) and
# J_x = -1 added.
GRID_JX = (1.0, 0.0, -1.0)
GRID_JY = (0.8, 1.0, 1.3)
GRID_H = (-5.0, -0.7, 0.0, 0.3, 5.0, 20.0)

# The window width block_spectra reads on a gapped chain.
W = 4 * entropy.START_COLUMNS


def spectrum_of(occupations) -> np.ndarray:
    nu = np.asarray(occupations, dtype=float)
    return np.sort(nu)[::-1]


def enumerate_spectrum(nu) -> np.ndarray:
    """All 2^L reduced-density eigenvalues from occupations nu, descending, zeros included.

    The oracle for entanglement_spectrum's best-first search: every product
    of one weight, 1 - nu_n or nu_n, per mode.
    """
    assert len(nu) <= ENUMERATION_LIMIT, len(nu)
    lam = np.ones(1)
    for mode in nu:
        lam = np.concatenate([lam * (1.0 - mode), lam * mode])
    return np.sort(lam)[::-1]


def test_block_entropy_bell_pair():
    assert block_entropy(spectrum_of([0.5])) == 1.0
    assert abs(block_entropy(spectrum_of([0.25])) - (2 - 0.75 * np.log2(3))) < 1e-14


def test_block_entropy_product_state():
    assert block_entropy(spectrum_of([0.0, 0.0, 0.0])) == 0.0
    assert block_entropy(spectrum_of([1.0])) == 0.0


def test_block_entropy_two_bell_pairs():
    assert abs(block_entropy(spectrum_of([0.5, 0.5])) - 2.0) < 1e-15


def test_block_entropy_bounds():
    rng = np.random.default_rng(9)
    for _ in range(50):
        length = int(rng.integers(1, 9))
        nu = rng.uniform(0, 1, size=length)
        e = block_entropy(spectrum_of(nu))
        assert 0.0 <= e <= length
        # H(nu) = H(1 - nu): a mode's two weights enter symmetrically.
        assert abs(block_entropy(spectrum_of(1.0 - nu)) - e) < 1e-15 * length


def test_spectrum_single_bell_mode():
    r = entanglement_spectrum(spectrum_of([0.5]), 2)
    assert np.allclose(r.lambdas, [0.5, 0.5])
    assert abs(r.total_captured - 1.0) < 1e-14


def test_spectrum_skewed_mode():
    r = entanglement_spectrum(spectrum_of([0.25]), 2)
    assert np.allclose(r.lambdas, [0.75, 0.25])
    assert np.array_equal(entanglement_spectrum(spectrum_of([0.75]), 2).lambdas, r.lambdas)


def test_spectrum_three_bell_modes():
    r = entanglement_spectrum(spectrum_of([0.5, 0.5, 0.5]), 8)
    assert len(r.lambdas) == 8
    assert np.allclose(r.lambdas, 0.125)
    assert abs(r.total_captured - 1.0) < 1e-12


def test_spectrum_count_validated():
    with pytest.raises(ParameterError):
        entanglement_spectrum(spectrum_of([0.5]), 0)
    for bad in (2.5, 2.0):
        with pytest.raises(ParameterError, match="count must be an integer"):
            entanglement_spectrum(spectrum_of([0.5]), bad)
    assert len(entanglement_spectrum(spectrum_of([0.5]), np.int64(2)).lambdas) == 2


@pytest.mark.parametrize("reduce", [
    block_entropy,
    lambda nu: entanglement_spectrum(nu, 4),
    schmidt_numbers,
], ids=["block_entropy", "entanglement_spectrum", "schmidt_numbers"])
def test_occupations_outside_unit_interval_rejected(reduce):
    # A NaN or an occupation outside [0, 1] is an error, not a frozen mode.
    for bad in (np.nan, 1.5, -0.1):
        with pytest.raises(ParameterError, match=r"must lie in \[0, 1\]"):
            reduce([bad, 0.3])


@pytest.mark.parametrize("reduce", [
    block_entropy,
    lambda nu: entanglement_spectrum(nu, 4),
    schmidt_numbers,
], ids=["block_entropy", "entanglement_spectrum", "schmidt_numbers"])
@pytest.mark.parametrize("bad", [["0.1"], None, [0.1, None], [True, False], [0.1 + 0j],
                                 [[0.1, 0.2]]],
                         ids=["string", "none", "with-none", "bool", "complex", "2-d"])
def test_occupations_that_are_not_a_real_array_rejected(reduce, bad):
    # Only an integer or float array of at most one dimension is a list of
    # occupations: a complex one is not cut to its real part, nor a 2-d one
    # flattened, and every refusal is a ParameterError.
    with pytest.raises(ParameterError, match="occupations must be"):
        reduce(bad)


def test_spectrum_monotone_prefix():
    s = spectrum_of([0.8, 0.63, 0.23, 0.02])
    prev = entanglement_spectrum(s, 1).lambdas
    for count in range(2, 17):
        cur = entanglement_spectrum(s, count).lambdas
        assert np.array_equal(cur[: len(prev)], prev)
        prev = cur


def test_spectrum_omits_exact_zeros():
    # A frozen mode contributes weight 1 on one branch and 0 on the other;
    # the zero branch is never emitted, so fewer values than requested come
    # back and they all lie in (0, 1].
    r = entanglement_spectrum(spectrum_of([0.5, 0.0]), 8)
    assert len(r.lambdas) == 2
    assert np.allclose(r.lambdas, [0.5, 0.5])
    assert r.lambdas.min() > 0.0


def test_spectrum_descending_and_bounded():
    s = spectrum_of([0.83, 0.67, 0.33, 0.09])
    r = entanglement_spectrum(s, 12)
    assert np.all(np.diff(r.lambdas) <= 1e-15)
    assert r.lambdas.max() <= 1.0
    assert r.total_captured <= 1.0 + 1e-12


def test_spectrum_non_increasing_with_degenerate_modes():
    # Equal occupations give equal flip factors; the best-first search must
    # still emit a non-increasing sequence, not one lifted by rounding.
    nu = np.repeat([0.439, 0.127, 0.039], 2)
    lam = entanglement_spectrum(spectrum_of(nu), 64).lambdas
    assert len(lam) == 64
    assert np.all(np.diff(lam) <= 0.0)
    full = enumerate_spectrum(spectrum_of(nu))
    assert np.abs(lam - full[:64]).max() < 1e-15


def test_enumeration_matches_best_first_search():
    s = spectrum_of([0.71, 0.47, 0.12, 0.01])
    full = enumerate_spectrum(s)
    top = entanglement_spectrum(s, 16).lambdas
    assert np.abs(np.sort(full)[::-1] - top).max() < 1e-14
    assert abs(full.sum() - 1.0) < 1e-12


def test_enumerated_weights_reproduce_entropy():
    rng = np.random.default_rng(10)
    for _ in range(5):
        length = int(rng.integers(1, 11))
        s = spectrum_of(rng.uniform(0, 0.9, size=length))
        lam = enumerate_spectrum(s)
        assert abs(lam.sum() - 1.0) < 1e-10
        nz = lam[lam > 0]
        shannon = float(-(nz * np.log2(nz)).sum())
        assert abs(shannon - block_entropy(s)) < 1e-10


def test_pipeline_enumeration_consistency():
    g = real_space_gamma(ChainParams(16, 1.0, 0.8, 0.5))
    for length in (3, 6, 8):
        s = schmidt_numbers(block_coupling(g, length))
        lam = enumerate_spectrum(s)
        assert abs(lam.sum() - 1.0) < 1e-10
        nz = lam[lam > 0]
        assert abs(-(nz * np.log2(nz)).sum() - block_entropy(s)) < 1e-10


def test_curve_matches_oracle():
    curve = dict(block_entropy_curve(ChainParams(8, 1.0, 1.0, 0.5), [2, 4]))
    _, state = oracle.ed_ground(ChainParams(8, 1.0, 1.0, 0.5))
    for length in (2, 4):
        slow = oracle.vn_entropy(oracle.reduced_density(state, length))
        assert abs(curve[length] - slow) < 1e-8


def test_curve_symmetric_under_block_complement():
    for params in (ChainParams(12, 1.0, 1.0, 0.5), ChainParams(12, 1.0, 0.8, 1.5)):
        pairs = dict(block_entropy_curve(params, range(1, 12)))
        for length in range(1, 12):
            assert abs(pairs[length] - pairs[12 - length]) < 1e-10


def test_curve_zero_for_product_state():
    curve = block_entropy_curve(ChainParams(8, 0.0, 0.0, 1.0), [1, 3, 4, 7])
    for _, e in curve:
        assert e == 0.0
    # On the low-rank route the cross block is exactly zero, and so is every nu.
    lens = [499, 500, 999]
    assert all(entropy._low_rank_pays(1000, length) for length in lens)
    for _, nu in block_spectra(ChainParams(1000, 0.0, 0.0, -0.7), lens):
        assert not nu.any()


def test_curve_preserves_request_order():
    curve = block_entropy_curve(ChainParams(8, 1.0, 1.0, 0.5), [4, 1, 3])
    assert [length for length, _ in curve] == [4, 1, 3]


def test_occupation_spectrum_odds_and_frozen_modes():
    s = schmidt_numbers(np.array([0.5, 0.25, 1e-30]))
    assert np.array_equal(s, [0.5, 0.25, 0.0])
    # Occupations below the floor are rounding noise and count as zeros.
    nu = np.array([0.5, NU_FLOOR, 0.99 * NU_FLOOR])
    s = schmidt_numbers(nu)
    assert np.array_equal(s, [0.5, NU_FLOOR, 0.0])
    assert np.array_equal(nu, [0.5, NU_FLOOR, 0.99 * NU_FLOOR])


def _window_or_whole(rows: np.ndarray, length: int, tail: float) -> tuple:
    """(nu, tau) of _cut_occupations as block_spectra runs it on a block past the size test.

    The window at width W where the chain's tail bound admits it, the whole
    B (width N, tail 0) otherwise.
    """
    if tail <= NU_FLOOR:
        return entropy._cut_occupations(rows, length, W, tail)
    return entropy._cut_occupations(rows, length, rows.shape[1] // 2 + 1, 0.0)


def _frozen_past_the_cut(nu: np.ndarray, n_sites: int) -> None:
    # A pure state entangles at most min(L, N - L) modes of a block of L
    # sites; past half the ring the 2L - N smallest nu are frozen modes.
    frozen = np.sort(nu)[: 2 * len(nu) - n_sites]
    assert frozen.max(initial=0.0) < NU_FLOOR, frozen.max()
    assert np.count_nonzero(schmidt_numbers(nu)) <= n_sites - len(nu)


def test_the_floor_leaves_at_most_min_l_n_minus_l_modes():
    # The floor alone zeroes the frozen modes of a block past half the ring,
    # on all three routes, so schmidt_numbers needs no min(L, N - L) rule.
    # The dense and reference routes leave them at rounding noise (7.4e-15
    # at most, measured over every L > N/2 at N = 200 and the whole grid);
    # the low-rank route finds at most k <= min(L, N - L) nonzero nu by
    # construction.  Each point at N = 200 costs two eigensolves per length,
    # so it takes h = 20, where the dense route came out noisiest at
    # J_x = 1, and J_y = 0.8, h = -0.7, where the reference route did.
    points = [(12, j_x, j_y, h) for j_x in GRID_JX for j_y in GRID_JY for h in GRID_H]
    points += [(200, 1.0, j_y, 20.0) for j_y in GRID_JY] + [(200, 1.0, 0.8, -0.7)]
    for n, j_x, j_y, h in points:
        p = ChainParams(n, j_x, j_y, h)
        rows, g = signed_rows(majorana_table(p)), real_space_gamma(p)
        tail = entropy._tail_bound(rows, W)
        block = majorana_rows(rows, n - 1, 0, n - 1)
        lens = range(n // 2 + 1, n)
        for length in lens:
            _frozen_past_the_cut(majorana_occupations(block[:length, :length]), n)
            _frozen_past_the_cut(_window_or_whole(rows, length, tail)[0], n)
            _frozen_past_the_cut(block_coupling(g, length), n)
    # At N = 1000 block_spectra puts these lengths on the low-rank route;
    # the dense route, forced, leaves the most frozen modes at L = 999.
    p = ChainParams(1000, 1.0, 1.0, 0.0)
    lens = [501, 750, 999]
    block = majorana_rows(signed_rows(majorana_table(p)), max(lens), 0, max(lens))
    for length, nu in block_spectra(p, lens):
        assert entropy._low_rank_pays(1000, length)
        _frozen_past_the_cut(nu, 1000)
        _frozen_past_the_cut(majorana_occupations(block[:length, :length]), 1000)


def test_block_spectra_match_reference_route():
    p = ChainParams(16, 1.0, 0.8, 0.5)
    g = real_space_gamma(p)
    for length, s in block_spectra(p, [8, 3, 13]):
        ref = schmidt_numbers(block_coupling(g, length))
        assert len(s) == length
        assert np.abs(s - ref).max() < 1e-12


@pytest.mark.parametrize("j_y,h", [(1.0, 0.0), (0.8, 0.3), (1.3, -5.0)])
def test_block_entropy_matches_high_precision_sum(j_y, h):
    # The bits step adds only the rounding of sum_n H(nu_n) over the
    # occupations it is given: compare with the same sum at 40 digits.
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    for length, s in block_spectra(ChainParams(1000, 1.0, j_y, h), [10, 50, 125, 250, 500]):
        with mpmath.workdps(40):
            nus = [mpmath.mpf(float(nu)) for nu in s if nu > 0.0]
            exact = -sum(nu * mpmath.log(nu, 2) + (1 - nu) * mpmath.log(1 - nu, 2) for nu in nus)
            worst = max(worst, float(abs(block_entropy(s) - exact)))
    assert worst <= 2e-15


def test_block_spectra_validate_every_length():
    p = ChainParams(8, 1.0, 1.0, 0.5)
    assert block_spectra(p, []) == []
    for lens in ([0, 4], [4, 8], [-1], 3, None):
        with pytest.raises(ParameterError):
            block_spectra(p, lens)
        with pytest.raises(ParameterError):
            block_entropy_curve(p, lens)
    # Fractional lengths are not truncated: [2.5, 3.9] is not [2, 3].
    for lens in ([2.5, 3.9], [2.0], [4, 3.0]):
        with pytest.raises(ParameterError, match="block_len must be an integer"):
            block_entropy_curve(p, lens)
    curve = block_entropy_curve(p, np.arange(2, 5))
    assert [length for length, _ in curve] == [2, 3, 4]
    assert all(type(length) is int for length, _ in curve)
    assert curve == block_entropy_curve(p, range(2, 5))


def test_entropy_even_in_field():
    hs = np.round(np.arange(0.01, 2.0 + 1e-9, 0.01), 10)
    worst = 0.0
    for h in hs:
        plus = block_entropy_curve(ChainParams(200, 1.0, 0.8, float(h)), [100])[0][1]
        minus = block_entropy_curve(ChainParams(200, 1.0, 0.8, -float(h)), [100])[0][1]
        worst = max(worst, abs(plus - minus))
    assert worst <= 1e-11


@pytest.mark.parametrize("h", [0.3, 0.0, -5.0])
def test_entropy_symmetric_under_complement_large_chain(h):
    p = ChainParams(1000, 1.0, 0.8, h)
    lens = [1, 2, 3, 50, 101, 250, 499, 500]
    # Up to L = 101 the block takes the dense route and its complement the
    # low-rank one, so those pairs also compare the two routes.
    assert not entropy._low_rank_pays(1000, 101) and entropy._low_rank_pays(1000, 899)
    curve = dict(block_entropy_curve(p, lens + [1000 - length for length in lens]))
    for length in lens:
        assert abs(curve[length] - curve[1000 - length]) <= 1e-12


@pytest.mark.parametrize("j_y,h", [(1.0, 0.5), (0.8, 0.3), (1.0, -5.0), (1.3, -0.7)])
def test_gapped_entropy_saturates_in_chain_length(j_y, h):
    # Away from the gapless point a half block far longer than the
    # correlation length has saturated: doubling N and L leaves S unchanged.
    small = block_entropy_curve(ChainParams(1000, 1.0, j_y, h), [500])[0][1]
    large = block_entropy_curve(ChainParams(2000, 1.0, j_y, h), [1000])[0][1]
    assert abs(large - small) <= 1e-12


def test_dimerized_chain_entropy_is_independent_of_chain_length():
    # At h = 0 with J_x != J_y the chain is gapped, so S(N/2 - 1) and
    # S(N/2) stop depending on N once N is well past the correlation
    # length (measured: 1.0e-13 from N = 1000 to 4000, 3.8e-10 from 200).
    # A block of odd length cuts one bond of each type, one of even length
    # two bonds of one type, so S is not monotonic in L: S(N/2 - 1) = 1.7356
    # and S(N/2) = 1.3191.
    curves = {n: [s for _, s in block_entropy_curve(ChainParams(n, 1.0, 0.8, 0.0),
                                                      [n // 2 - 1, n // 2])]
              for n in (200, 1000, 4000)}
    big = np.array(curves[4000])
    assert np.abs(np.array(curves[1000]) - big).max() <= 1e-12, curves
    assert np.abs(np.array(curves[200]) - big).max() <= 1e-9, curves
    for odd_cut, even_cut in curves.values():
        assert odd_cut > even_cut + 0.4, curves


def test_long_chain_block_in_seconds():
    # N = 100 000 needs no N x N array; a gapped half-block of 500 sites has
    # saturated well before N = 1000, so both chains give the same entropy.
    # The block stays on the dense route: its 500 x 99 500 cross block would
    # take 398 MB, which the memory bound catches.
    tracemalloc.start()
    try:
        t0 = time.monotonic()
        big = block_entropy_curve(ChainParams(100_000, 1.0, 1.0, 0.5), [500])[0][1]
        elapsed = time.monotonic() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    small = block_entropy_curve(ChainParams(1000, 1.0, 1.0, 0.5), [500])[0][1]
    assert abs(big - small) <= 1e-9
    assert elapsed < 10.0
    assert peak < 20e6, peak


def test_critical_chain_follows_the_chord_law():
    # At the gapless point J_x = J_y, h = 0 the ring is a c = 1 conformal
    # theory, and a block of L sites out of N obeys the Calabrese-Cardy law
    # S = (c/3) log2[(N/pi) sin(pi L/N)] + s0 with an s0 that does not
    # depend on N.  The chord length reaches back to L = N/2, far beyond the
    # oracle's 14 sites.  The entropy is the XX chain's, so Jin and Korepin
    # give it with nothing fitted; the gap falls as 1/L^2 (measured: gap
    # times L^2 in [-0.025, +0.14] for every L in [16, N/2]).
    fits = []
    for n, lens in ((1000, range(16, 501, 16)), (2000, range(16, 1001, 32))):
        curve = block_entropy_curve(ChainParams(n, 1.0, 1.0, 0.0), lens)
        lengths = np.array(lens)
        chord = np.log2(n / np.pi * np.sin(np.pi * lengths / n)) / 3.0
        s = np.array([entropy for _, entropy in curve])
        design = np.stack([chord, np.ones_like(chord)], axis=1)
        (c, s0), *_ = np.linalg.lstsq(design, s, rcond=None)
        residual = s - design @ (c, s0)
        fits.append((c, s0, residual.max() - residual.min()))
        jin_korepin = chord + 1.0 / 3.0 + UPSILON_1 / np.log(2.0)
        gap = np.abs(s - jin_korepin)
        assert np.all(gap <= 0.2 / lengths**2), (n, (gap * lengths**2).max())
    for c, _, spread in fits:
        assert abs(c - 1.0) < 1e-3, fits
        assert spread < 2e-4, fits
    assert abs(fits[0][1] - fits[1][1]) < 1e-4, fits


def test_jin_korepin_constant_matches_its_integral():
    # UPSILON_1 = -int_0^inf dt [e^-t/(3t) + 1/(t sinh^2(t/2))
    #                            - cosh(t/2)/(2 sinh^3(t/2))].
    # The last two terms each grow as 4/t^3 and cancel near t = 0, leaving
    # -1/3 there, so each point is evaluated with 3 digits per decade of
    # 1/t to spare.
    mpmath = pytest.importorskip("mpmath")

    def integrand(t):
        with mpmath.extradps(3 * max(0, int(-mpmath.log10(t))) + 20):
            x = t / 2
            value = (mpmath.exp(-t) / (3 * t) + 1 / (t * mpmath.sinh(x) ** 2)
                     - mpmath.cosh(x) / (2 * mpmath.sinh(x) ** 3))
        return +value

    with mpmath.workdps(25):
        upsilon = -mpmath.quad(integrand, [0, 1, mpmath.inf])
    assert abs(float(upsilon) - UPSILON_1) <= 1e-16


@functools.cache
def _both_routes(n_sites: int, j_x: float, j_y: float, h: float, lens: tuple) -> list:
    """(dense bits, low-rank bits, tau, dense nu, low-rank nu, whole) per length, each route forced.

    The low-rank side runs _window_or_whole at the chain's tail bound: the
    window at the cuts where that admits it, the whole B otherwise.  That is
    what block_spectra runs on a block past 2 w = 128 sites, and on one past
    w = 64 whose N - L passes 2 w where the bound admits the window.  whole
    says whether it laid out the whole cross block, the one majorana_rows
    call over B's columns (L, N).  Both nu arrays are floored by
    schmidt_numbers.
    """
    rows = signed_rows(majorana_table(ChainParams(n_sites, j_x, j_y, h)))
    tail = entropy._tail_bound(rows, W)
    block = majorana_rows(rows, max(lens), 0, max(lens))
    out = []
    with mock.patch.object(entropy, "majorana_rows", wraps=majorana_rows) as layout:
        for length in lens:
            assert length > W, length
            low_rank, tau = _window_or_whole(rows, length, tail)
            whole = [call.args[2:] == (length, n_sites) for call in layout.call_args_list]
            assert whole.count(True) <= 1, whole
            layout.reset_mock()
            dense = schmidt_numbers(majorana_occupations(block[:length, :length]))
            low_rank = schmidt_numbers(low_rank)
            out.append((block_entropy(dense), block_entropy(low_rank), tau, dense, low_rank,
                        any(whole)))
    return out


def _route_grid():
    """(N, J_x, J_y, h, lengths): the whole grid at N = 1000, the critical chain past it.

    The dense side costs an L^3 eigensolve, 0.6 s at L = 2000, so the
    longer chains take only the critical point, where the most modes are
    entangled, and N = 4000 skips its odd length.
    """
    points = [(1000, j_x, j_y, h, (250, 499, 500))
              for j_x in GRID_JX for j_y in GRID_JY for h in GRID_H]
    return points + [(2000, 1.0, 1.0, 0.0, (500, 999, 1000)),
                     (4000, 1.0, 1.0, 0.0, (1000, 2000))]


def test_routes_agree_over_the_error_budget_grid():
    # The low-rank route reads nu off the cross block's singular values, the
    # dense route off the block's eigenvalues, both from the same table, at
    # L = N/4, N/2 - 1 and N/2.  Mode by mode too: near nu = 1/2 the
    # low-rank route reads |lambda| off A over its Ritz vectors, since
    # sqrt(1 - sigma^2) there keeps only half its digits.  Every gapped
    # point, the y dimers included, reads the window of B at the cuts; the
    # chains at h = 0 with J_x != 0, critical or nearly so, have a tail
    # bound past NU_FLOOR and read the whole B.  Where the window serves, it
    # agrees with the whole B too.
    worst = worst_nu = worst_window = 0.0
    for point in _route_grid():
        n, j_x, _, h, lens = point
        rows = signed_rows(majorana_table(ChainParams(*point[:4])))
        for length, (dense, low_rank, _, dense_nu, low_rank_nu, whole) in zip(
                lens, _both_routes(*point)):
            assert whole == (h == 0.0 and j_x != 0.0), point
            worst = max(worst, abs(dense - low_rank))
            worst_nu = max(worst_nu, np.abs(dense_nu - low_rank_nu).max())
            if not whole:
                nu = schmidt_numbers(entropy._cut_occupations(rows, length, n, 0.0)[0])
                worst_window = max(worst_window, np.abs(nu - low_rank_nu).max(),
                                   abs(block_entropy(nu) - low_rank))
    assert worst <= 1e-12, worst
    assert worst_nu <= 1e-13, worst_nu
    assert worst_window <= 1e-13, worst_window


def test_low_rank_route_is_certified_and_deterministic():
    # The missed mass tau bounds every mode the subspace left out; it must be
    # under 4 NU_FLOOR on every call, so a missed mode has nu <= NU_FLOOR.
    for point in _route_grid():
        for _, _, tau, *_ in _both_routes(*point):
            assert tau <= 4.0 * NU_FLOOR, (point, tau)
    # The start columns are fixed, so repeated calls agree bit for bit, on
    # the whole B of the critical chain and on the window of a gapped one.
    for h in (0.0, 0.5):
        p = ChainParams(1000, 1.0, 1.0, h)
        first, again = block_spectra(p, [499, 500, 750]), block_spectra(p, [500, 750, 499])
        assert all(entropy._low_rank_pays(1000, length) for length, _ in first)
        for length, nu in first:
            assert np.array_equal(nu, dict(again)[length])
    # No seeded generator either: importing numpy.random alone costs memory.
    script = ("import sys; from kitaevchain import ChainParams, block_spectra; "
              "block_spectra(ChainParams(1000, 1.0, 1.0, 0.5), [500]); "
              "print('numpy.random' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, timeout=60)
    assert run.stdout.split() == ["False"]


def _outside_window_mass(rows: np.ndarray, lengths) -> np.ndarray:
    """|B|_F^2 outside the window at the cuts, per length, summed entry by entry.

    Entry i of signed row s is G D at every block site r = s mod 2 and rest
    site j with r - j = delta = i - (N - 1) + s.  It is weighted by the exact
    integer count of such pairs outside the window: r among the middle sites
    [w, L - w), or r among the first and last w (all L of them when L <= 2 w,
    counted once) and j among the rest's middle sites [L + w, N - w).  The
    mass is a sum of positive terms, never a difference of two masses.  One
    count matrix serves every chain of a size: the result has one column per
    chain of rows, shape (k, 2, 2N - 2).
    """
    n = rows.shape[-1] // 2 + 1
    w = 4 * entropy.START_COLUMNS
    s = np.arange(2)[:, None]
    delta = np.arange(rows.shape[-1]) - (n - 1) + s
    squares = np.square(rows).reshape(len(rows), -1).T
    out = []
    for chunk in np.array_split(np.asarray(lengths), max(1, len(lengths) // 32)):
        length = chunk[:, None, None]

        def pairs(r0, r1, c0, c1):
            # Sites r = s mod 2 in [r0, r1) with r - delta in [c0, c1).
            lo, hi = np.maximum(r0, c0 + delta), np.minimum(r1, c1 + delta)
            return np.maximum((hi - s + 1) // 2 - (lo - s + 1) // 2, 0)

        count = (pairs(w, length - w, length, n)
                 + pairs(0, np.minimum(w, length), length + w, n - w)
                 + pairs(np.maximum(w, length - w), length, length + w, n - w))
        out.append(count.reshape(len(chunk), -1) @ squares)
    return np.concatenate(out)


def test_tail_bound_covers_the_mass_outside_every_window():
    # The window of B at the cuts may stand in for B only because the
    # chain's one tail bound is at least B's mass outside it, for every
    # L > w = 64: checked entry by entry on every point of the grid at
    # N = 1000 and on a gapped N = 4000 chain.  The count behind that mass
    # is checked first against B laid out whole, where the outside holds
    # real mass (the critical chain) and where it holds almost none, at
    # lengths whose window takes all L rows too.
    w = 4 * entropy.START_COLUMNS
    for p in (ChainParams(1000, 1.0, 1.0, 0.0), ChainParams(1000, 1.0, 1.3, 0.3)):
        rows = signed_rows(majorana_table(p))
        lens = [1, 64, 65, 100, 128, 129, 300, 871, 999]
        for length, mass in zip(lens, _outside_window_mass(rows[None], lens)[:, 0]):
            cross = majorana_rows(rows, length, length, 1000)
            cross[:w, :w] = cross[:w, -w:] = cross[-w:, :w] = cross[-w:, -w:] = 0.0
            direct = np.square(cross).sum()
            assert abs(mass - direct) <= 1e-12 * direct, (p, length, mass, direct)
    # The bound admits exactly the gapped points of the grid.  (Measured:
    # 6.6e-19 against an outside mass of 1.1e-20 on the bench curve's
    # seed-1 chain, 1.9e-11 against 4.2e-13 at J_x = J_y = 1, h = 0.2.)
    points = [(j_x, j_y, h) for j_x in GRID_JX for j_y in GRID_JY for h in GRID_H]
    rows = np.stack([signed_rows(majorana_table(ChainParams(1000, *point)))
                     for point in points])
    tails = np.array([entropy._tail_bound(r, w) for r in rows])
    assert list(tails > NU_FLOOR) == [h == 0.0 and j_x != 0.0 for j_x, _, h in points]
    outside = _outside_window_mass(rows, range(w + 1, 1000))
    assert np.all(outside <= tails), (outside / tails).max()
    rows = signed_rows(majorana_table(ChainParams(4000, 1.0, 1.3, 0.3)))
    tail = entropy._tail_bound(rows, w)
    assert tail <= NU_FLOOR, tail
    assert np.all(_outside_window_mass(rows[None], range(w + 1, 4000)) <= tail)
    # It admits the corners of the bench curve's draw box, h in [0.3, 0.7]
    # and J_y / J_x in [0.8, 1.2] (measured: 2.9e-16 at most).
    for h in (0.3, 0.7):
        for ratio in (0.8, 1.2):
            rows = signed_rows(majorana_table(ChainParams(1000, 1.0, ratio, h)))
            tail = entropy._tail_bound(rows, w)
            assert tail <= NU_FLOOR, (h, ratio, tail)


def test_a_refused_window_reads_the_whole_cross_block():
    # At and near the critical point the chain's tail bound passes
    # NU_FLOOR, so every low-rank block reads its whole B: the window at
    # width N with no tail.  A window of width ceil(max(L, N - L) / 2)
    # already takes every row and column of B, so it gives the same nu and
    # tau, bit for bit, and so does block_spectra.
    for n, j_y, lens in ((1000, 1.0, (250, 499, 500)), (1000, 0.8, (500,)), (2000, 1.0, (999,))):
        p = ChainParams(n, 1.0, j_y, 0.0)
        rows = signed_rows(majorana_table(p))
        tail = entropy._tail_bound(rows, W)
        assert tail > NU_FLOOR, (n, j_y, tail)
        for length, floored in block_spectra(p, lens):
            nu, tau = entropy._cut_occupations(rows, length, n, 0.0)
            half = -(-max(length, n - length) // 2)
            window = entropy._cut_occupations(rows, length, half, 0.0)
            assert np.array_equal(nu, window[0]), (n, j_y, length)
            assert tau == window[1], (n, j_y, length)
            assert np.array_equal(schmidt_numbers(nu), floored), (n, j_y, length)
            assert len(nu) == length


def test_blocks_do_not_depend_on_the_other_requested_lengths():
    # Each block is one call that shares only the chain's rows of G D, and
    # its tail bound, with the others: one request of several lengths, out
    # of order and two repeated, gives each block the bits it gets alone.
    # A dense block lays out its own L x L block once, never a slice of a
    # larger one.  On the critical chain every long block lays out its whole
    # B and every short one its square; on the gapped one every block past
    # w = 64 sites reads its window, the short ones included, and only
    # L = 2 lays out a square.
    long_lens, short_lens = [1000, 900, 800, 700, 600, 500, 800], [499, 300, 130, 100, 2, 300]
    for h, whole in ((0.0, True), (0.5, False)):
        p = ChainParams(2000, 1.0, 1.0, h)
        with mock.patch.object(entropy, "majorana_rows", wraps=majorana_rows) as layout:
            together = block_spectra(p, long_lens + short_lens)
        calls = [call.args[1:] for call in layout.call_args_list]
        wholes = [length for length, start, stop in calls if (start, stop) == (length, 2000)]
        squares = [length for length, start, stop in calls if (start, stop) == (0, length)]
        assert sorted(wholes) == (sorted(set(long_lens)) if whole else []), (h, wholes)
        assert sorted(squares) == (sorted(set(short_lens)) if whole else [2]), (h, squares)
        assert all(entropy._low_rank_pays(2000, length) for length in long_lens)
        for length, nu in together:
            [(_, alone)] = block_spectra(p, [length])
            assert np.array_equal(nu, alone), (h, length)


def test_the_whole_cross_block_is_laid_out_once_and_freed():
    # A critical block lays out its L x (N - L) cross block B once, never
    # copies it, and frees it before the next block: the traced peak stays
    # under 1.5 times the largest B alone (measured: 1.20 and 1.40 times),
    # where a copy of B, or two B's alive at once, would reach twice it.
    for n, lens in ((4000, [2000]), (2000, list(range(500, 1001, 100)))):
        p = ChainParams(n, 1.0, 1.0, 0.0)
        tracemalloc.start()
        try:
            block_spectra(p, lens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        largest = max(length * (n - length) for length in lens) * 8
        assert peak < 1.5 * largest, (n, peak / largest)


@pytest.mark.parametrize("n,j_y,h", [(100_000, 1.3, 0.3), (100_000, 0.8, -0.7),
                                     (16_000, 1.0, 0.5)])
def test_gapped_area_law_far_past_a_thousand_sites(n, j_y, h):
    # A gapped chain entangles a fixed number of modes at each cut, whatever
    # L and N, so half and quarter blocks read only the window of B at the
    # cuts: the whole B would take 20 GB and 15 GB at N = 100 000, 512 MB at
    # N = 16 000.  Their entropy is N = 1000's, and the elliptic ladder's
    # (measured: within 2e-15 and 1e-13 bits; 15 MB traced, 0.06 s).
    small = dict(block_entropy_curve(ChainParams(1000, 1.0, j_y, h), [250, 500]))
    tracemalloc.start()
    try:
        t0 = time.monotonic()
        big = block_entropy_curve(ChainParams(n, 1.0, j_y, h), [n // 4, n // 2])
        elapsed = time.monotonic() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for (length, bits), short in zip(big, (250, 500)):
        assert entropy._low_rank_pays(n, length)
        assert abs(bits - small[short]) <= 1e-9, (length, bits, small[short])
        assert abs(bits - block_entropy_closed(1.0, j_y, h, length)) <= 1e-12, (length, bits)
    assert elapsed < 10.0
    assert peak < 20e6, peak


def test_gapped_curve_far_past_a_thousand_sites_reads_windows():
    # The chain is tested for "gapped" once: every block past w = 64 sites
    # then reads its window at the cuts, so a curve up to L = 500 of an
    # N = 100 000 chain costs about what it costs at N = 1000, with no
    # L x L eigensolve past L = 64 (measured: 0.14 s; 0.9 s when every
    # block below N/4 was dense).  From L = 130 on the entropy is the
    # elliptic ladder's (measured: within 2.6e-14 bits).
    p, lens = ChainParams(100_000, 1.0, 1.3, 0.3), range(2, 501, 2)
    block_entropy_curve(p, [2])
    with mock.patch.object(entropy, "majorana_occupations",
                           wraps=majorana_occupations) as dense:
        t0 = time.monotonic()
        curve = block_entropy_curve(p, lens)
        elapsed = time.monotonic() - t0
    assert elapsed < 1.0, elapsed
    assert [len(call.args[0]) for call in dense.call_args_list] == list(range(2, 65, 2))
    worst = max(abs(bits - block_entropy_closed(1.0, 1.3, 0.3, length))
                for length, bits in curve if length >= 130)
    assert worst <= 1e-12, worst


def _bench_curve_chain(seed: int) -> tuple:
    """(N, J_x, J_y, h) of the bench curve's draw: h in [0.3, 0.7], J_y / J_x in [0.8, 1.2]."""
    rng = random.Random(seed)
    h, ratio = rng.uniform(0.3, 0.7), rng.uniform(0.8, 1.2)
    return 1000, 1.0, ratio, h


def test_gapped_blocks_past_64_sites_read_their_window():
    # A block of 65..128 sites whose N - L passes 2 w = 128 reads the window
    # of B at the cuts where the chain's tail bound admits it: all its L rows
    # against the 64 columns past each cut, a proper part of B.  Against the
    # dense route it meets the long blocks' bounds on every gapped point of
    # the grid and on the bench curve's seeds 1, 7, 23 and 113 (measured:
    # 2.1e-13 bits, 3.2e-15 per mode, tau <= 3.7e-14.  Over every L in
    # 65..128 it reads 5.6e-13 bits and 1.1e-14 per mode, from one mode at
    # nu = 1.13e-14 that the dense route puts under NU_FLOOR.)
    lens = (65, 100, 128)
    points = [point[:4] for point in _route_grid()
              if point[0] == 1000 and not (point[3] == 0.0 and point[1] != 0.0)]
    points += [_bench_curve_chain(seed) for seed in (1, 7, 23, 113)]
    assert len(points) == 52
    worst = worst_nu = worst_tau = 0.0
    for point in points:
        for dense, window, tau, dense_nu, window_nu, whole in _both_routes(*point, lens):
            assert not whole, point
            worst = max(worst, abs(dense - window))
            worst_nu = max(worst_nu, np.abs(dense_nu - window_nu).max())
            worst_tau = max(worst_tau, tau)
    assert worst <= 1e-12, worst
    assert worst_nu <= 1e-13, worst_nu
    assert worst_tau <= 4.0 * NU_FLOOR, worst_tau
    # block_spectra takes that route: past L = 64 no block is dense.
    p = ChainParams(*_bench_curve_chain(1))
    with mock.patch.object(entropy, "majorana_occupations",
                           wraps=majorana_occupations) as dense:
        block_spectra(p, [64, 65, 100, 128, 129])
    assert [len(call.args[0]) for call in dense.call_args_list] == [64]


def test_a_block_whose_window_is_all_of_b_stays_dense_without_a_tail_bound():
    # At N = 200 a block of 100 sites (the scan's) leaves N - L = 100 <= 2 w:
    # its window would be the whole B.  So it keeps the dense route, and the
    # chain's tail bound, about 19 us, is never computed.
    p = ChainParams(200, 1.0, 1.0, 0.5)
    with (mock.patch.object(entropy, "_tail_bound", wraps=entropy._tail_bound) as tail,
          mock.patch.object(entropy, "majorana_occupations",
                            wraps=majorana_occupations) as dense):
        block_entropy_curve(p, [100])
    assert tail.call_count == 0
    assert [len(call.args[0]) for call in dense.call_args_list] == [100]


def test_curve_keeps_one_block_alive_at_a_time():
    # block_entropy_curve reduces each block to bits as it comes, so its
    # traced peak is one block's arrays, not every block's nu at once.  The
    # chain is the bench curve's seed-1 draw (measured: 0.33 MB; 1.1 MB
    # when the curve held every nu until the end).
    p, lens = ChainParams(*_bench_curve_chain(1)), range(2, 501, 2)
    block_entropy_curve(p, lens)
    tracemalloc.start()
    try:
        block_entropy_curve(p, lens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.6e6, peak


def test_gapped_blocks_certify_before_the_power_step(monkeypatch):
    # A gapped chain entangles only the few modes next to the two cuts, and
    # the start columns already span them: the certificate passes on the
    # Rayleigh-Ritz values of those columns alone, so each call takes the
    # one QR of its start columns and no power step.  (At J_y = 1.3 the
    # field h = 0.3 entangles 18 modes at L = 500, more than the 16 start
    # columns can span, so it is left out.)
    qr_calls = 0
    qr = np.linalg.qr

    def counted_qr(a):
        nonlocal qr_calls
        qr_calls += 1
        return qr(a)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)

    def qr_count(table, length):
        nonlocal qr_calls
        qr_calls = 0
        rows = signed_rows(table)
        _, tau = _window_or_whole(rows, length, entropy._tail_bound(rows, W))
        assert tau <= 4.0 * NU_FLOOR, tau
        return qr_calls

    for j_y in (0.8, 1.3):
        for h in (-0.7, 5.0):
            table = majorana_table(ChainParams(1000, 1.0, j_y, h))
            for length in (250, 499, 500):
                assert entropy._low_rank_pays(1000, length)
                assert qr_count(table, length) == 1, (j_y, h, length)
    # The critical chain entangles more modes than the start columns span,
    # so it still takes the power step (k only doubles after one fails)
    # before its certificate passes.
    assert qr_count(majorana_table(ChainParams(1000, 1.0, 1.0, 0.0)), 500) > 1


@pytest.mark.parametrize("j_y", [0.8, -1.3])
def test_dimer_chain_is_exact_on_both_routes(j_y):
    # With J_x = h = 0 the ground state is a product of y dimers, each
    # sharing one bit, and a block's only entangled modes sit at nu = 1/2,
    # one per y bond it cuts: the ring's closing bond and, at even L, the
    # bond after the block.  There sigma^2 = 1, where the low-rank formula
    # keeps half its digits; the Ritz step must bring those modes back, from
    # the rows of A at the two cuts, since the low-rank side reads the window.
    lens = (200, 201, 499, 500)
    for length, row in zip(lens, _both_routes(1000, 0.0, j_y, 0.0, lens)):
        bits, cut = row[:2], 2 - length % 2
        assert not row[5], length
        for nu in row[3:5]:
            assert np.minimum(nu, np.abs(nu - 0.5)).max() <= 1e-15, (length, nu[:4])
            spectrum = entanglement_spectrum(nu, 8).lambdas
            assert len(spectrum) == 2**cut, (length, spectrum)
            assert np.abs(spectrum * 2**cut - 1.0).max() <= 1e-15, (length, spectrum)
        assert bits == (cut, cut), (length, bits)


@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_gapped_chains_match_the_elliptic_ladder(signs):
    # An absolute check past the oracle's sizes, on both routes: a gapped
    # chain's entanglement energies form the ladder in tests/closed_forms.py.
    # That ladder is a measured identity, found by fitting the computed
    # spectra, not a derived one.  At N = 1000 every grid point but the
    # critical one has a correlation length far below L = 499 and 500
    # (measured: 6.2e-13 bits at most; on the low-rank route all but 2e-15
    # of it is the ladder's modes under NU_FLOOR, which count as zeros).
    # With J_y > 0 the route test has already run these chains.
    worst = 0.0
    for j_y in GRID_JY:
        for h in GRID_H:
            if j_y == 1.0 and h == 0.0:
                continue
            j_x, j_y_signed = float(signs[0]), signs[1] * j_y
            lens = (250, 499, 500) if j_y_signed > 0 else (499, 500)
            rows = _both_routes(1000, j_x, j_y_signed, h, lens)
            for length, (dense, low_rank, *_) in zip(lens, rows):
                closed = block_entropy_closed(j_x, j_y_signed, h, length)
                worst = max(worst, abs(dense - closed), abs(low_rank - closed))
    assert worst <= 1e-12, worst
