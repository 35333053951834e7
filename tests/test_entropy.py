import time

import numpy as np
import pytest

from kitaevchain import oracle
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
from kitaevchain.pairing import BlockCoupling, block_coupling, real_space_gamma

# Jin and Korepin's constant for the critical chain, J. Stat. Phys. 116, 79
# (2004): S(L, N) = (1/3) log2[(2N/pi) sin(pi L/N)] + UPSILON_1 / ln 2 bits.
UPSILON_1 = 0.4950179081351371

# The brute-force oracle below builds all 2^L products; past this it is too big.
ENUMERATION_LIMIT = 20


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
], ids=["block_entropy", "entanglement_spectrum"])
def test_occupations_outside_unit_interval_rejected(reduce):
    # A NaN or an occupation outside [0, 1] is an error, not a frozen mode.
    for bad in (np.nan, 1.5, -0.1):
        with pytest.raises(ParameterError, match=r"must lie in \[0, 1\]"):
            reduce([bad, 0.3])


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


def test_curve_preserves_request_order():
    curve = block_entropy_curve(ChainParams(8, 1.0, 1.0, 0.5), [4, 1, 3])
    assert [length for length, _ in curve] == [4, 1, 3]


def test_occupation_spectrum_odds_and_frozen_modes():
    s = schmidt_numbers(BlockCoupling(np.array([0.5, 0.25, 1e-30]), 8))
    assert np.array_equal(s, [0.5, 0.25, 0.0])
    # Occupations below the floor are rounding noise and count as zeros.
    nu = np.array([0.5, NU_FLOOR, 0.99 * NU_FLOOR])
    s = schmidt_numbers(BlockCoupling(nu, 8))
    assert np.array_equal(s, [0.5, NU_FLOOR, 0.0])
    # Past half the chain only min(L, N - L) modes can be entangled.
    s = schmidt_numbers(BlockCoupling(np.array([0.5, 0.25, 0.1]), 4))
    assert np.array_equal(s, [0.5, 0.0, 0.0])


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
    for lens in ([0, 4], [4, 8], [-1]):
        with pytest.raises(ParameterError):
            block_spectra(p, lens)
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
    t0 = time.monotonic()
    big = block_entropy_curve(ChainParams(100_000, 1.0, 1.0, 0.5), [500])[0][1]
    elapsed = time.monotonic() - t0
    small = block_entropy_curve(ChainParams(1000, 1.0, 1.0, 0.5), [500])[0][1]
    assert abs(big - small) <= 1e-9
    assert elapsed < 10.0


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
