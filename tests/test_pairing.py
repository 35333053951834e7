import tracemalloc

import numpy as np
import pytest

from kitaevchain import cli, oracle, pairing
from kitaevchain.entropy import (
    block_entropy,
    block_entropy_curve,
    block_spectra,
    schmidt_numbers,
)
from kitaevchain.exceptions import ParameterError
from kitaevchain.model import ChainParams, momentum_grid
from kitaevchain.pairing import (
    block_coupling,
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
    for q in momentum_grid(8)[:2]:
        e1 = 0.5 * (p.j_x + p.j_y) * np.cos(q)
        e2 = 0.5 * (p.j_y - p.j_x) * np.sin(q)
        den = p.h_field + np.sqrt(e1**2 + e2**2 + p.h_field**2)
        a1, a2 = pair_amplitudes(p, q)
        assert abs(a1 - e1 / den) < 1e-12
        assert abs(a2 - e2 / den) < 1e-12


def test_amplitudes_singular_mode_rejected():
    with pytest.raises(ParameterError, match="amplitude denominator vanishes"):
        pair_amplitudes(ChainParams(4, 0.0, 0.0, -1.0), np.pi / 4)
    with pytest.raises(ParameterError, match="amplitude denominator vanishes"):
        pair_amplitudes(ChainParams(4, 0.0, 0.0, 0.0), np.pi / 4)
    # The momentum route refuses only the chain with no coupling and no field.
    with pytest.raises(ParameterError, match="every mode has zero energy"):
        majorana_table(ChainParams(4, 0.0, 0.0, 0.0))


def beta_coefficients(p: ChainParams, n: int, x: int) -> complex:
    """Fourier coefficient beta_n(x) = (1/N) sum_q a_n(q) e^{iqx}, one separation at a time.

    The scalar reference for pairing._beta_tables, which serves every x from
    one FFT.
    """
    if n not in (1, 2):
        raise ParameterError(f"amplitude index must be 1 or 2, got {n}")
    qs = momentum_grid(p.n_sites)[: p.n_sites // 4]
    a1, a2 = pair_amplitudes(p, qs)
    amps = a1 if n == 1 else a2
    return complex(np.sum(amps * np.exp(1j * qs * x)) / p.n_sites)


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
    assert np.array_equal(schmidt_numbers(c), np.zeros(3))


def test_coupling_shapes_and_finiteness():
    g = real_space_gamma(ChainParams(8, 1.0, 0.8, 0.5))
    for length in range(1, 8):
        c = block_coupling(g, length)
        assert c.occupations.shape == (length,)
        assert c.n_sites == 8
        assert np.all(np.isfinite(c.occupations))
        assert np.all((c.occupations >= 0.0) & (c.occupations <= 0.5))
        # A cut leaves at most min(L, N - L) entangled mode pairs.
        assert np.count_nonzero(schmidt_numbers(c)) <= min(length, 8 - length)


def test_coupling_block_length_validated():
    g = real_space_gamma(ChainParams(8, 1.0, 1.0, 0.5))
    for bad in (0, 8, 9, -1):
        with pytest.raises(ParameterError):
            block_coupling(g, bad)
    for bad in (2.5, 2.0):
        with pytest.raises(ParameterError, match="block_len must be an integer"):
            block_coupling(g, bad)
    assert np.array_equal(block_coupling(g, np.int64(3)).occupations,
                          block_coupling(g, 3).occupations)


def test_occupations_bounded_and_sorted():
    g = real_space_gamma(ChainParams(12, 1.0, 0.8, 0.5))
    for length in (1, 3, 6, 9):
        nu = block_coupling(g, length).occupations
        assert nu.shape == (length,)
        assert nu.min() >= 0.0
        assert nu.max() <= 1.0
        assert np.all(np.diff(nu) <= 1e-14)


def test_occupations_product_state():
    nu = block_coupling(real_space_gamma(ChainParams(8, 0.0, 0.0, 1.0)), 4).occupations
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


@pytest.mark.parametrize("n", [16, 200, 1000, 2000])
def test_momentum_block_matches_real_space_correlations(n):
    # Two independent routes to G = 1 - 2C + 2F: 2 x 2 momentum symbols
    # against one eigensolve of the N/2 x N/2 Hankel block S of Z on the
    # paper's gamma.  At J_y = 1, h = -5 the matrix 1 + S^2 is ill-conditioned:
    # solving with it (or with the Schur complement 1 + Y^T Y) instead of
    # weighting the eigenvalues of S lands ~1e-12 off at N = 1000; N = 2000
    # runs that point alone.  Both sides carry the sublattice signs
    # D = diag((-1)^j) on their columns; D G D = G^T makes each signed block
    # symmetric, exactly so on the reference route, and the eigensolve reads
    # only its lower triangle.
    for j_y, h in CROSS_ROUTE_POINTS if n <= 1000 else [(1.0, -5.0)]:
        p = ChainParams(n, 1.0, j_y, h)
        c, f = pair_correlations(real_space_gamma(p))
        reference = (np.eye(n) - 2.0 * c + 2.0 * f) * (-1.0) ** np.arange(n)
        assert np.array_equal(reference, reference.T), (j_y, h)
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


def _index_array_gamma(p):
    # The literal formula of real_space_gamma's docstring, on 1-based sites,
    # through an N x N index array into the beta tables.
    from kitaevchain.pairing import _beta_tables

    b1, b2 = _beta_tables(p)
    sites = np.arange(1, p.n_sites + 1)
    alt = (-1.0) ** sites
    p1 = alt[:, None] - alt[None, :]
    p2 = alt[:, None] * alt[None, :] - 1.0
    xi = (sites[:, None] - sites[None, :]) + p.n_sites - 1
    return p1 * b1.real[xi] + p2 * b2.imag[xi]


@pytest.mark.parametrize("n", [8, 200])
def test_gamma_matches_index_array_formula(n):
    for j_y, h in CROSS_ROUTE_POINTS + [(1.3, -0.7), (1.0, 0.0)]:
        p = ChainParams(n, 1.0, j_y, h)
        assert np.array_equal(real_space_gamma(p).gamma, _index_array_gamma(p)), (j_y, h)


@pytest.mark.parametrize("j_y,h", CROSS_ROUTE_POINTS)
def test_correlations_match_inverse_of_one_plus_z(j_y, h):
    # The Cayley form: W = (1 + Z)^{-1}, C = 1 - (W + W^T)/2, F = (W - W^T)/2.
    n = 200
    g = real_space_gamma(ChainParams(n, 1.0, j_y, h))
    w = np.linalg.inv(np.eye(n) + g.gamma - g.gamma.T)
    c, f = pair_correlations(g)
    assert np.abs(c - (np.eye(n) - 0.5 * (w + w.T))).max() <= 1e-13
    assert np.abs(f - 0.5 * (w - w.T)).max() <= 1e-13


def test_one_eigensolve_per_gamma(monkeypatch):
    # Every block size and the full C and F share one eigensolve of S.
    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    n = 200
    g = real_space_gamma(ChainParams(n, 1.0, 0.8, 0.3))
    for length in (1, 2, 7, n // 2, n - 1):
        block_coupling(g, length)
    pair_correlations(g)
    assert shapes == [(n // 2, n // 2)]


def test_reference_block_path_forms_no_n_by_n_array():
    # From the beta tables to the kept occupations, a block of L sites needs
    # O(N) rows and L x L and N/2 x N/2 arrays only: the traced peak (numpy's
    # array buffers; LAPACK's workspace is not traced) stays below one N x N
    # float64 array, which gamma alone would fill.
    n = 2000
    tracemalloc.start()
    try:
        g = real_space_gamma(ChainParams(n, 1.0, 0.8, 0.3))
        schmidt_numbers(block_coupling(g, n // 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8, peak / 2**20


GAMMA_GRID = [(n, j_y, h) for n in (12, 40, 400)
              for j_y, h in [(1.0, 0.5), (0.8, 0.5), (1.3, -0.7), (1.0, -3.0), (0.5, 2.0)]]


@pytest.mark.parametrize("n,j_y,h", GAMMA_GRID)
def test_rows_route_matches_checked_gamma_path(n, j_y, h):
    # The Hankel entries gathered from gamma's two Toeplitz rows are the
    # same floats as those read off the laid-out N x N gamma, so the one
    # eigensolve gives the same eigenpairs, bit for bit.  On the laid-out
    # gamma, the same-sublattice blocks are zero, so they drop out of Z,
    # and the even-odd block of Z, odd sites reversed, is exactly symmetric.
    g = real_space_gamma(ChainParams(n, 1.0, j_y, h))
    lam, v = pairing._cayley_eigenpairs(g)
    gamma = g.gamma
    assert not gamma[0::2, 0::2].any() and not gamma[1::2, 1::2].any()
    hankel = gamma[0::2, -1::-2] - gamma[-1::-2, 0::2].T
    assert np.array_equal(hankel, hankel.T)
    lam_ref, v_ref = np.linalg.eigh(hankel)
    assert np.array_equal(lam, lam_ref)
    assert np.array_equal(v, v_ref)


def test_gamma_laid_out_once_on_read(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("reading gamma ran an eigensolve")

    p = ChainParams(40, 1.0, 1.3, -0.7)
    g = real_space_gamma(p)
    monkeypatch.setattr(np.linalg, "eigh", refused)
    gamma = g.gamma
    assert g.gamma is gamma
    assert np.array_equal(gamma, _index_array_gamma(p))


def test_momentum_occupations_match_reference_route():
    p = ChainParams(40, 1.0, 1.3, -0.6)
    g = real_space_gamma(p)
    table = majorana_table(p)
    for length in (1, 7, 20, 39):
        fast = majorana_occupations(majorana_block(table, length))
        assert np.abs(fast - block_coupling(g, length).occupations).max() < 1e-13
        assert fast.min() >= 0.0 and fast.max() <= 0.5


def _column_fft_table(p):
    # The table by the pairing algebra: the two nonzero columns of
    # Z = 2 gamma from the beta tables, FFT'd to the cell symbols z, then
    # C = |z|^2 / (1 + |z|^2) and F = -z / (1 + |z|^2) transformed back.
    from kitaevchain.pairing import _beta_tables

    n, cells = p.n_sites, p.n_sites // 2
    b1, b2 = _beta_tables(p)
    d = np.arange(cells)
    x_oe, x_eo = 2 * d + n - 2, 2 * d + n
    columns = np.stack([-4.0 * (b1.real[x_oe] + b2.imag[x_oe]),
                        4.0 * (b1.real[x_eo] - b2.imag[x_eo])])
    half_shift = np.exp(1j * np.pi * d / cells)
    z = np.fft.fft(columns / half_shift)
    damp = 1.0 / (1.0 + np.abs(z) ** 2)
    symbols = np.concatenate([np.abs(z) ** 2 * damp, -z * damp])
    c00, c11, f01, f10 = (half_shift * np.fft.ifft(symbols)).real
    table = np.stack([[-2.0 * c00, 2.0 * f01], [2.0 * f10, -2.0 * c11]])
    table[[0, 1], [0, 1], 0] += 1.0
    return table


@pytest.mark.parametrize("n", [8, 16, 200, 1000, 4000])
def test_table_matches_pairing_algebra(n):
    # The closed-form symbol of G against the amplitude -> beta -> FFT path
    # it replaces (measured 5.9e-16 at most).
    for j_y in (0.8, 1.0, 1.3, 0.0, -1.0):
        for h in (-5.0, -0.7, 0.0, 0.3, 5.0, 20.0):
            p = ChainParams(n, 1.0, j_y, h)
            table = majorana_table(p)
            assert table.shape == (2, 2, n // 2)
            assert np.array_equal(table[0, 0], table[1, 1])
            err = np.abs(table - _column_fft_table(p)).max()
            assert err <= 1e-15, (j_y, h, err)


@pytest.mark.parametrize("n", [12, 16, 200, 1000])
def test_table_rows_are_unit_vectors(n):
    # G is orthogonal for a pure state, and row 2a + s of G holds every
    # table[s, t, d] once, up to sign.
    for j_y, h in SVD_GRID:
        table = majorana_table(ChainParams(n, 1.0, j_y, h))
        norms = (table**2).sum(axis=(1, 2))
        assert np.abs(norms - 1.0).max() <= 1e-15, (j_y, h, norms)


def test_momentum_route_needs_no_pair_amplitudes(monkeypatch, capsys):
    # The fast path shares only model's dispersion, rescaling and grid with
    # the reference route, so the cross-route tests compare independent paths.
    def refused(*args):
        raise AssertionError("the momentum route reached the pairing algebra")

    monkeypatch.setattr(pairing, "pair_amplitudes", refused)
    monkeypatch.setattr(pairing, "_beta_tables", refused)
    p = ChainParams(16, 1.0, 0.8, 0.3)
    assert len(block_entropy_curve(p, [2, 8])) == 2
    assert len(block_spectra(p, [5])) == 1
    argv = ["entropy", "--n-sites", "16", "--jy", "0.8", "--h-field", "0.3", "--block-size", "8"]
    assert cli.main(argv + ["--output", "-"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_majorana_block_length_validated():
    table = majorana_table(ChainParams(8, 1.0, 1.0, 0.5))
    for bad in (0, 8, -1):
        with pytest.raises(ParameterError):
            majorana_block(table, bad)
    with pytest.raises(ParameterError, match="block_len must be an integer"):
        majorana_block(table, 2.5)
