import numpy as np
import pytest

from kitaevchain import oracle
from kitaevchain.entropy import block_entropy, schmidt_numbers
from kitaevchain.exceptions import ParameterError, SingularModeError
from kitaevchain.model import ChainParams, momentum_grid
from kitaevchain.pairing import (
    PairingMatrix,
    beta_coefficients,
    block_coupling,
    block_occupations,
    majorana_block,
    majorana_occupations,
    majorana_table,
    pair_amplitudes,
    pair_correlations,
    real_space_gamma,
)


def test_amplitudes_zero_field_unit_ratio():
    a1, a2 = pair_amplitudes(ChainParams(4, 1.0, 1.0, 0.0), np.pi / 4)
    assert abs(a1 - 1.0) < 1e-14
    assert abs(a2) < 1e-14


def test_amplitudes_strong_field_bound():
    p = ChainParams(4, 1.0, 1.0, 100.0)
    a1, a2 = pair_amplitudes(p, np.pi / 4)
    assert abs(a1) < 0.005
    assert abs(a2) < 0.005


def test_amplitudes_closed_form_point():
    a1, a2 = pair_amplitudes(ChainParams(4, 1.0, 1.0, 1.0), np.pi / 3)
    assert abs(a1 - 0.5 / (1.0 + np.sqrt(1.25))) < 1e-14
    assert abs(a2) < 1e-15


def test_amplitudes_negative_field_matches_direct_formula():
    # The guarded form must agree with eps / (h + sqrt(|eps|^2 + h^2))
    # wherever the direct denominator is safely away from zero.
    p = ChainParams(8, 1.0, 0.8, -0.7)
    for q in momentum_grid(8)[1]:
        e1 = 0.5 * (p.j_x + p.j_y) * np.cos(q)
        e2 = 0.5 * (p.j_y - p.j_x) * np.sin(q)
        den = p.h_field + np.sqrt(e1**2 + e2**2 + p.h_field**2)
        a1, a2 = pair_amplitudes(p, q)
        assert abs(a1 - e1 / den) < 1e-12
        assert abs(a2 - e2 / den) < 1e-12


def test_amplitudes_singular_mode_rejected():
    with pytest.raises(SingularModeError):
        pair_amplitudes(ChainParams(4, 0.0, 0.0, -1.0), np.pi / 4)
    with pytest.raises(SingularModeError):
        pair_amplitudes(ChainParams(4, 0.0, 0.0, 0.0), np.pi / 4)


def test_beta_zero_separation_closed_form():
    b = beta_coefficients(ChainParams(4, 1.0, 1.0, 0.0), 1, 0)
    assert abs(b - 0.25) < 1e-15
    b8 = beta_coefficients(ChainParams(8, 1.0, 1.0, 0.0), 1, 0)
    assert abs(b8 - 0.25) < 1e-15


def test_beta_second_channel_vanishes_for_equal_couplings():
    for h in (0.0, 0.5, 2.0):
        for x in (-3, 0, 1, 5):
            assert beta_coefficients(ChainParams(8, 1.0, 1.0, h), 2, x) == 0


def test_beta_vanishing_couplings():
    assert beta_coefficients(ChainParams(8, 0.0, 0.0, 1.0), 1, 3) == 0


def test_beta_channel_index_validated():
    with pytest.raises(ParameterError):
        beta_coefficients(ChainParams(8), 3, 0)


def test_gamma_diagonal_is_zero():
    g = real_space_gamma(ChainParams(8, 1.0, 0.8, 0.5)).gamma
    assert np.abs(np.diag(g)).max() == 0.0


def test_gamma_equal_couplings_real_and_parity_sparse():
    g = real_space_gamma(ChainParams(8, 1.0, 1.0, 0.5)).gamma
    assert np.abs(g.imag).max() == 0.0
    for l in range(8):
        for m in range(8):
            if (l - m) % 2 == 0:
                assert g[l, m] == 0.0


def test_gamma_translation_structure():
    # Shifting both sites by the two-site unit cell reproduces the entry
    # exactly while both stay on the chain; when exactly one index wraps
    # around the ring the entry flips sign, because the pairing kernel is
    # built on the antiperiodic momentum grid q = (2j-1) pi / N.
    g = real_space_gamma(ChainParams(8, 1.0, 0.8, 0.5)).gamma
    n = 8
    for l in range(n):
        for m in range(n):
            wraps = ((l + 2) >= n) != ((m + 2) >= n)
            target = -g[l, m] if wraps else g[l, m]
            assert abs(g[(l + 2) % n, (m + 2) % n] - target) < 1e-12


def test_gamma_strong_field_suppression():
    g = real_space_gamma(ChainParams(100, 1.0, 1.0, 100.0)).gamma
    assert np.abs(g).max() < 0.01


def test_coupling_zero_gamma():
    g = real_space_gamma(ChainParams(8, 0.0, 0.0, 1.0))
    c = block_coupling(g, 3)
    assert c.n_sites == 8
    assert c.occupations.shape == (3,)
    assert np.abs(c.occupations).max() < 1e-14
    assert np.array_equal(schmidt_numbers(c).occupations, np.zeros(3))


def test_coupling_shapes_and_finiteness():
    g = real_space_gamma(ChainParams(8, 1.0, 0.8, 0.5))
    for length in range(1, 8):
        c = block_coupling(g, length)
        assert c.occupations.shape == (length,)
        assert c.n_sites == 8
        assert np.all(np.isfinite(c.occupations))
        assert np.all((c.occupations >= 0.0) & (c.occupations <= 0.5))
        # A cut leaves at most min(L, N - L) entangled mode pairs.
        assert np.count_nonzero(schmidt_numbers(c).occupations) <= min(length, 8 - length)


def test_coupling_block_length_validated():
    g = real_space_gamma(ChainParams(8, 1.0, 1.0, 0.5))
    for bad in (0, 8, 9, -1):
        with pytest.raises(ParameterError):
            block_coupling(g, bad)


def test_coupling_depends_only_on_antisymmetric_part():
    g = real_space_gamma(ChainParams(12, 1.0, 0.8, 0.5))
    anti = PairingMatrix(n_sites=12, gamma=0.5 * (g.gamma - g.gamma.T))
    for length in (1, 4, 6, 11):
        a = block_coupling(g, length).occupations
        b = block_coupling(anti, length).occupations
        assert np.abs(a - b).max() < 1e-14


def test_occupations_bounded_and_sorted():
    g = real_space_gamma(ChainParams(12, 1.0, 0.8, 0.5))
    for length in (1, 3, 6, 9):
        nu = block_occupations(g, length)
        assert nu.shape == (length,)
        assert nu.min() >= 0.0
        assert nu.max() <= 1.0
        assert np.all(np.diff(nu) <= 1e-14)


def test_occupations_product_state():
    nu = block_occupations(real_space_gamma(ChainParams(8, 0.0, 0.0, 1.0)), 4)
    assert np.abs(nu).max() < 1e-14


def test_coupling_reproduces_oracle_entropy_equal_couplings():
    """The block's occupations carry the whole cut: their entropy must land
    on brute force."""
    p = ChainParams(8, 1.0, 1.0, 0.5)
    e_fast = block_entropy(schmidt_numbers(block_coupling(real_space_gamma(p), 4)))
    _, state = oracle.ed_ground(p)
    e_slow = oracle.vn_entropy(oracle.reduced_density(state, 4))
    assert abs(e_fast - e_slow) < 1e-8


def test_coupling_reproduces_oracle_entropy_unequal_couplings():
    p = ChainParams(8, 1.0, 0.8, 0.5)
    g = real_space_gamma(p)
    _, state = oracle.ed_ground(p)
    for length in (2, 4):
        e_fast = block_entropy(schmidt_numbers(block_coupling(g, length)))
        e_slow = oracle.vn_entropy(oracle.reduced_density(state, length))
        assert abs(e_fast - e_slow) < 1e-8


def test_correlations_are_physical():
    g = real_space_gamma(ChainParams(12, 1.0, 0.8, 0.5))
    c, f = pair_correlations(g)
    assert np.array_equal(c, c.T)
    assert np.array_equal(f, -f.T)
    w = np.linalg.eigvalsh(c)
    assert w.min() > -1e-12
    assert w.max() < 1.0 + 1e-12


def test_beta_tables_match_direct_sums():
    # The FFT tables against the literal momentum sum, at both signs of x
    # and at the ends of the range.
    from kitaevchain.pairing import _beta_tables

    for n in (16, 200):
        p = ChainParams(n, 1.0, 0.7, -0.4)
        b1, b2 = _beta_tables(p)
        for x in (-(n - 1), -3, 0, 1, 2, n // 2, n - 1):
            assert abs(b1[x + n - 1] - beta_coefficients(p, 1, x)) < 1e-14
            assert abs(b2[x + n - 1] - beta_coefficients(p, 2, x)) < 1e-14


def test_gamma_is_real_and_antisymmetric():
    g = real_space_gamma(ChainParams(12, 1.0, 0.8, -0.5)).gamma
    assert g.dtype == np.float64
    assert np.abs(g + g.T).max() < 1e-15


CROSS_ROUTE_POINTS = [(0.8, -0.7), (0.8, 0.0), (0.8, 0.3), (0.8, 5.0), (1.0, -5.0)]


@pytest.mark.parametrize("n", [16, 200, 1000])
def test_momentum_block_matches_real_space_correlations(n):
    # Two independent routes to G = 1 - 2C + 2F: 2 x 2 momentum symbols
    # against the N x N inverse on the paper's gamma.  At J_y = 1, h = -5
    # the matrix 1 + Z^T Z is ill-conditioned: solving with it instead of
    # inverting 1 + Z lands ~1e-12 off at N = 1000.  Both sides carry the
    # sublattice signs D = diag((-1)^j) on their columns; D G D = G^T makes
    # each signed block symmetric, and the eigensolve reads only its lower
    # triangle.
    for j_y, h in CROSS_ROUTE_POINTS:
        p = ChainParams(n, 1.0, j_y, h)
        c, f = pair_correlations(real_space_gamma(p))
        reference = (np.eye(n) - 2.0 * c + 2.0 * f) * (-1.0) ** np.arange(n)
        assert np.abs(reference - reference.T).max() <= 1e-15, (j_y, h)
        table = majorana_table(p)
        assert table.shape == (2, 2, n // 2)
        for length in (1, 2, n // 2, n - 1):
            block = majorana_block(table, length)
            assert block.shape == (length, length)
            assert np.abs(block - block.T).max() <= 1e-15, (j_y, h, length)
            err = np.abs(block - reference[:length, :length]).max()
            assert err <= 1e-13, (j_y, h, length, err)


SVD_GRID = [(j_y, h) for j_y in (0.8, 1.0, 1.3) for h in (-5.0, -0.7, 0.0, 0.3, 5.0, 20.0)]


@pytest.mark.parametrize("n", [16, 200, 1000])
def test_occupations_match_svd_of_unsigned_block(n):
    # |eigenvalues| of the signed block against the singular values of the
    # plain block of G.  At N = 1000 the blocks stop at N/2, which keeps the
    # 18 reference SVDs to a few seconds.
    lens = (1, 2, 7, n // 2 - 1, n // 2) + ((n - 1,) if n <= 200 else ())
    for j_y, h in SVD_GRID:
        signed = majorana_block(majorana_table(ChainParams(n, 1.0, j_y, h)), max(lens))
        for length in lens:
            block = signed[:length, :length]
            sigma = np.linalg.svd(block * (-1.0) ** np.arange(length), compute_uv=False)
            nu = majorana_occupations(block)
            err = np.abs(nu - np.maximum(0.5 * (1.0 - sigma[::-1]), 0.0)).max()
            assert err <= 1e-13, (j_y, h, length, err)


@pytest.mark.parametrize("n", [12, 16, 200, 1000])
def test_even_blocks_pair_their_occupations(n):
    # K = J D (site reversal times sublattice sign) has K^2 = -1 and
    # K A K^T = -A on an even block A, so its eigenvalues pair as +-lambda
    # and the occupations as nu_2k = nu_2k+1.  Odd blocks are not paired.
    lens = (2, 4, n // 2) + ((n - 2,) if n <= 200 else (n // 2 + 2,))
    for j_y in (0.8, 1.0, 1.3):
        for h in (-5.0, -0.7, 0.0, 0.3, 5.0):
            signed = majorana_block(majorana_table(ChainParams(n, 1.0, j_y, h)), max(lens))
            for length in lens:
                block = signed[:length, :length]
                k = np.eye(length)[::-1] * (-1.0) ** np.arange(length)
                assert np.array_equal(k @ k, -np.eye(length))
                assert np.abs(k @ block @ k.T + block).max() <= 1e-15, (j_y, h, length)
                nu = majorana_occupations(block)
                gap = np.abs(nu[0::2] - nu[1::2]).max()
                assert gap <= 1e-13, (j_y, h, length, gap)


@pytest.mark.parametrize("j_y,h", [(1.0, 0.0), (0.8, 0.3), (1.3, -0.7), (1.0, -5.0)])
def test_reference_correlations_describe_a_pure_state(j_y, h):
    # A pure Gaussian state has an orthogonal G = 1 - 2C + 2F.
    n = 200
    c, f = pair_correlations(real_space_gamma(ChainParams(n, 1.0, j_y, h)))
    g = np.eye(n) - 2.0 * c + 2.0 * f
    assert np.abs(g @ g.T - np.eye(n)).max() <= 1e-12


def test_complex_gamma_rejected():
    g = real_space_gamma(ChainParams(8, 1.0, 0.8, 0.5))
    with pytest.raises(ParameterError, match="must be real"):
        pair_correlations(PairingMatrix(n_sites=8, gamma=g.gamma.astype(complex)))


def test_momentum_occupations_match_reference_route():
    p = ChainParams(40, 1.0, 1.3, -0.6)
    g = real_space_gamma(p)
    table = majorana_table(p)
    for length in (1, 7, 20, 39):
        fast = majorana_occupations(majorana_block(table, length))
        assert np.abs(fast - block_occupations(g, length)).max() < 1e-13
        assert fast.min() >= 0.0 and fast.max() <= 0.5


def test_majorana_block_length_validated():
    table = majorana_table(ChainParams(8, 1.0, 1.0, 0.5))
    for bad in (0, 8, -1):
        with pytest.raises(ParameterError):
            majorana_block(table, bad)
