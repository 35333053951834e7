"""The ground-state correlations G = 1 - 2C + 2F as tables, and the signed
blocks of G D laid out from them.

The pairing couples odd sites only to even sites, so with the sublattice
signs D = diag((-1)^j) (0-based sites j) D G D = G^T and every leading
block of G D is symmetric.  G is translation-invariant over the two-site
cell of the antiperiodic ring, so one real table of shape (2, 2, N/2), G per
pair of sublattices and cell separation, holds all of it.  Two independent
routes build that table, each as 2 x 2 symbols at the cell momenta and one
inverse FFT of length N/2, in O(N log N) time and O(N) memory:

- majorana_table, the momentum route, reads G's unitary symbol off the
  dispersion;
- the paper's construction (real_space_gamma, PairingMatrix.table) writes
  the ground state as exp(Z) on the fermion vacuum, Z = sum_{l<m} z_{lm}
  c+_l c+_m, through the momentum pair amplitudes and their Fourier
  coefficients beta_n(x), as the two Toeplitz rows of the N x N site-pair
  matrix gamma.  Z = gamma - gamma^T is block skew-circulant over the cell,
  so G = 2 (1 + Z)^{-1} - 1 is one 2 x 2 inverse per cell momentum.  It is
  the independent reference: it shares only the dispersion, the rescaling
  and the momentum grid of model with the momentum route.  The N x N gamma
  is laid out only if it is read, and the full C and F (pair_correlations)
  are the split of the N x N G D.  The tests' oracle for both tables is a
  dense eigensolve of Z's Hankel block, which assumes no translation
  structure.

signed_rows turns either table into one row of G D per sublattice, and
majorana_rows lays out any rows and columns of G D as reversed windows of
those rows, each a fresh array: the symmetric L x L block A of a block of L
sites, the L x (N - L) cross block B to the rest of the ring, or parts of
either.  entropy reduces them to occupations; block_coupling hands it the
reference route's rows.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import ParameterError
from .model import ChainParams, _check_block_len, _index, dispersion, momentum_grid, unit_scaled


def pair_amplitudes(p: ChainParams, q):
    """Pair amplitudes (a1, a2) at momentum q.

    a_n = eps_n / (h + sqrt(|eps_q|^2 + h^2)).  For h <= 0 the denominator
    is evaluated as |eps_q|^2 / (sqrt(|eps_q|^2 + h^2) - h), which is the
    same number without the cancellation.  It vanishes, raising
    ParameterError, where h <= 0 and |eps_q|^2 is 0 or underflows (|h| / J
    over about 1e162).  At h < 0 that is the filled product state, which
    majorana_table gives S = 0 but real_space_gamma still refuses.  The
    amplitudes depend only on the ratios J_x : J_y : h, so they are
    evaluated on the unit_scaled couplings, whose squares cannot overflow.
    """
    unit, _ = unit_scaled(p)
    eps1, eps2 = dispersion(unit, q)
    r2 = eps1 * eps1 + eps2 * eps2
    root = np.sqrt(r2 + unit.h_field * unit.h_field)
    if unit.h_field > 0.0:
        den = unit.h_field + root
    else:
        if np.any(r2 == 0.0):
            bad = np.asarray(q)[np.asarray(r2) == 0.0] if np.ndim(q) else q
            raise ParameterError(
                f"amplitude denominator vanishes at q = {bad} for h = {p.h_field}"
            )
        den = r2 / (root - unit.h_field)
    return eps1 / den, eps2 / den


class PairingMatrix:
    """Site-pair coefficients gamma_{l,m} of the ground-state exponent.

    Indices are 1-based in formulas and documentation; storage is 0-based.
    Only the antisymmetric part gamma - gamma^T enters any physical result.
    The instance holds the two Toeplitz rows real_space_gamma lays gamma out
    from, over the 2N - 1 separations: G's table reads Z's cell columns
    straight off them, and the N x N gamma is laid out only on its first
    read.  The table and the correlation matrices are cached on the
    instance because every block size reuses them.
    """

    def __init__(self, n_sites: int, rows: tuple[np.ndarray, np.ndarray]):
        self.n_sites = n_sites
        self.rows = rows

    @cached_property
    def gamma(self) -> np.ndarray:
        n = self.n_sites
        # Window k, reversed, is row k of the Toeplitz matrix: entry j holds
        # separation k - j.  0-based even rows are the 1-based odd sites l of
        # real_space_gamma's formula.
        from_even, from_odd = (sliding_window_view(row, n) for row in self.rows)
        gamma = np.zeros((n, n))
        gamma[0::2, 1::2] = from_even[0::2, -2::-2]
        gamma[1::2, 0::2] = from_odd[1::2, ::-2]
        return gamma

    @cached_property
    def table(self) -> np.ndarray:
        """G = 2 (1 + Z)^{-1} - 1 per cell separation, laid out as majorana_table's.

        Z = gamma - gamma^T couples each sublattice only to the other, and
        it is translation-invariant over the two-site cell with the
        antiperiodic wrap Z(d) = -Z(d + N/2), so 1 + Z is block
        skew-circulant and so is its inverse.  Its two nonzero cell
        columns, z01(d) = Z[2d, 1] and z10(d) = Z[2d + 1, 0], are
        differences of gamma's two Toeplitz rows (entry l - m + N - 1 of
        row l mod 2 is gamma[l, m]), the same subtractions the N x N
        layout would give.  One FFT twisted by e^{-i pi d / (N/2)} takes
        them to Z's 2 x 2 symbol at each cell momentum, where G's symbol is
        2 (1 + Z)^{-1} - 1, and one inverse FFT brings G back.  The 2 x 2
        inverses are pivoted solves, so a symbol whose square overflows
        (|h| / J past about 1e154 at h < 0) still gives G.  O(N log N)
        time and O(N) memory; no N x N array is formed.
        """
        n, cells = self.n_sites, self.n_sites // 2
        from_even, from_odd = self.rows
        z01 = from_even[n - 2 : -2 : 2] - from_odd[n:1:-2]
        z10 = from_odd[n::2] - from_even[n - 2 :: -2]
        z01, z10 = np.fft.fft(np.stack([z01, z10]) / _half_shift(cells))
        one = np.ones(cells)
        inverse = np.linalg.inv(np.stack([[one, z01], [z10, one]]).transpose(2, 0, 1))
        symbols = 2.0 * inverse - np.eye(2)
        return _real_space(symbols.transpose(1, 2, 0))

    @cached_property
    def correlations(self) -> tuple[np.ndarray, np.ndarray]:
        """(C, F), split off the full N x N G D (see pair_correlations)."""
        n = self.n_sites
        rows = signed_rows(self.table)
        # As in majorana_rows: row 2a + s of G D is the reversed window of
        # rows[s] that starts at 2a.
        gmat = np.empty((n, n))
        for s in (0, 1):
            gmat[s::2] = sliding_window_view(rows[s], n)[::2, ::-1]
        gmat *= (-1.0) ** np.arange(n)
        return 0.5 * np.eye(n) - 0.25 * (gmat + gmat.T), 0.25 * (gmat - gmat.T)


def _beta_tables(p: ChainParams) -> tuple[np.ndarray, np.ndarray]:
    """beta_n(x) for every separation x in [-(N-1), N-1], as lookup arrays.

    The momenta are q_j = (2j + 1) pi / N, so beta_n(x) is e^{i pi x / N}
    times the inverse N-point FFT of the amplitudes zero-padded to length N;
    one FFT serves every separation.
    """
    n = p.n_sites
    qs = momentum_grid(n)[: n // 4]
    padded = np.zeros((2, n))
    padded[:, : len(qs)] = pair_amplitudes(p, qs)
    x = np.arange(-(n - 1), n)
    b1, b2 = np.exp(1j * np.pi * x / n) * np.fft.ifft(padded)[:, x % n]
    return b1, b2


def real_space_gamma(p: ChainParams) -> PairingMatrix:
    """The pairing matrix gamma, built by the authoritative direct path.

    gamma_{l,m} = [(-1)^l - (-1)^m] Re beta_1(l-m)
                + [(-1)^{l+m} - 1] Im beta_2(l-m).

    Expanding the momentum-space pair operator into site operators and
    collecting the antisymmetric coefficient of c+_l c+_m gives
    2 P1 Re beta_1 + 2 P2 Im beta_2 with the parity prefactors above; gamma
    stores one symmetric-gauge representative of that coefficient, which
    makes it real-valued for every parameter choice.  Both parity prefactors
    vanish when l and m have equal parity, so gamma couples only odd sites
    to even sites and its diagonal is exactly zero.

    For odd l and even m both prefactors are -2; for even l and odd m they
    are +2 and -2.  So each parity of l reads one row, -2 (Re beta_1 +
    Im beta_2) or 2 (Re beta_1 - Im beta_2), as a Toeplitz matrix in l - m
    over the row's 2N - 1 separations.  The returned PairingMatrix carries
    those two rows: the reference route reads Z's cell columns from them,
    and the N x N gamma, with only its opposite-parity entries written, is
    laid out from them when it is first read.
    """
    b1, b2 = _beta_tables(p)
    rows = (-2.0 * (b1.real + b2.imag), 2.0 * (b1.real - b2.imag))
    return PairingMatrix(p.n_sites, rows)


def pair_correlations(g: PairingMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Ground-state correlation matrices C = <c+_l c_m> and F = <c_l c_m>.

    For exp(Z)|0> with real antisymmetric Z = gamma - gamma^T the general
    forms C = Z (1 + Z^T Z)^{-1} Z^T and F = -(1 + Z Z^T)^{-1} Z collapse onto
    one inverse W = (1 + Z)^{-1}.  As Z^T = -Z, 1 + Z^T Z = 1 + Z Z^T =
    (1 - Z)(1 + Z) commutes with Z and W^T = (1 - Z)^{-1}, so (W + W^T)/2 =
    (1 + Z^T Z)^{-1} = 1 - C and (W - W^T)/2 = F: G = 1 - 2C + 2F = 2W - 1,
    the Cayley form of a pure Gaussian state.

    C and F are split off the full N x N G D, laid out from the PairingMatrix's
    table as block_coupling lays out every smaller block: G = (G D) D,
    C = (1 - (G + G^T)/2) / 2 and F = (G - G^T) / 4, so C is exactly
    symmetric and F exactly antisymmetric.  The pair is cached on g.
    """
    return g.correlations


def majorana_table(p: ChainParams) -> np.ndarray:
    """G = 1 - 2C + 2F between the cells of two sites, per cell separation.

    Returns a real array of shape (2, 2, N/2) whose [s, t, d] entry is
    G_{2a+s, 2b+t} for a - b = d >= 0 (0-based sites, s and t the
    sublattices); at negative separation G(d) = -G(d + N/2).

    G depends only on the cell separation and the sublattices, so it is
    block-diagonal over the cell momenta K = 2q, q = (2k + 1) pi / N the
    positive momenta.  With E = sqrt(|eps_q|^2 + h^2) its symbol there is
    the unitary matrix (the state is pure) Ghat = [[h, e], [-e*, h]] / E,
    e = (eps1 - i eps2) e^{-iq}, and one inverse FFT brings it back to real
    space; table[0, 0] == table[1, 1].  This is the paper's amplitude
    algebra in closed form: the symbol of Z is z = -(a1 - i a2) e^{-iq}, so
    C = |z|^2 / (1 + |z|^2) = (E - h) / 2E and F = -z / (1 + |z|^2) = e / 2E.
    On unit_scaled couplings no square overflows, and E vanishes, raising
    ParameterError, only at J_x = J_y = h = 0.
    """
    cells = p.n_sites // 2
    q = momentum_grid(p.n_sites)
    unit, _ = unit_scaled(p)
    eps1, eps2 = dispersion(unit, q)
    energy = np.sqrt(eps1 * eps1 + eps2 * eps2 + unit.h_field * unit.h_field)
    if not np.all(energy):
        raise ParameterError(f"every mode has zero energy at {p}: no unique ground state")
    eps = (eps1 - 1j * eps2) * np.exp(-1j * q)
    h = np.full(cells, unit.h_field)
    symbols = np.stack([[h, eps], [-eps.conj(), h]]) / energy
    return _real_space(symbols)


def _half_shift(cells: int) -> np.ndarray:
    """e^{i pi d / (N/2)} per cell separation d: the antiperiodic ring's twist."""
    return np.exp(1j * np.pi * np.arange(cells) / cells)


def _real_space(symbols: np.ndarray) -> np.ndarray:
    """G per cell separation, a (2, 2, N/2) table, from its 2 x 2 symbols at the cell momenta."""
    return (_half_shift(symbols.shape[-1]) * np.fft.ifft(symbols)).real


def signed_rows(table: np.ndarray) -> np.ndarray:
    """G D along a row, one row of 2N - 2 entries per sublattice, from a majorana_table.

    Row 2a + s of G D is rows[s, 2a + N - 1 - j] over the columns j, a
    reversed window that starts at 2a.  Entries 2m and 2m + 1 are the odd
    and even sublattice's columns at cell separation m + 1 - N/2, with the
    antiperiodic sign G(d) = -G(d + N/2) below d = 0 and D's sign applied.
    """
    signed = np.concatenate([-table[:, :, 1:], table], axis=2) * np.array([[1.0], [-1.0]])
    return signed[:, ::-1].transpose(0, 2, 1).reshape(2, -1)


def majorana_rows(
    rows: np.ndarray,
    block_len: int,
    start: int,
    stop: int,
    first: int = 0,
) -> np.ndarray:
    """(G D)[first:block_len, start:stop] from a signed_rows array.

    Row r = 2a + s is the reversed window of rows[s] that starts at 2a, so
    the rows of one sublattice are windows two sites apart and each
    sublattice is one write.  Columns 0 to L of the first L rows give the
    symmetric L x L block A of entropy.majorana_occupations, whose leading
    slices are the smaller blocks, and L to N the cross block B to the rest
    of the ring; a later first row reads the rows of A or B next to the
    block's far cut.  entropy.block_spectra does not rely on the leading
    slices: it lays out each block on its own.
    """
    if rows.ndim != 2 or len(rows) != 2:
        raise ParameterError(f"rows must be a signed_rows array of two rows, got shape {rows.shape}")
    n_sites = rows.shape[1] // 2 + 1
    block_len = _check_block_len(n_sites, block_len)
    start, stop, first = _index("start", start), _index("stop", stop), _index("first", first)
    if not 0 <= start < stop <= n_sites:
        raise ParameterError(f"columns [{start}, {stop}) must lie in [0, {n_sites}]")
    if not 0 <= first < block_len:
        raise ParameterError(f"first row must lie in [0, {block_len - 1}], got {first}")
    height, width = block_len - first, stop - start
    block = np.empty((height, width))
    # cells[s, a, j] = rows[s, 2a + N - 1 - (start + j)] is row 2a + s; every
    # index lies in [N - stop, 2N - 3 - start], inside the rows.  numpy's
    # as_strided, via __array_interface__, left ~1 MB behind by 10^4 calls.
    rows = np.ascontiguousarray(rows)
    step = rows.itemsize
    cells = np.ndarray((2, n_sites // 2, width), rows.dtype, rows,
                       (n_sites - start - 1) * step, (rows.strides[0], 2 * step, -step))
    for row in (first, first + 1):
        block[row - first :: 2] = cells[row % 2, row // 2 :][: (block_len - row + 1) // 2]
    return block


def block_coupling(g: PairingMatrix, block_len: int) -> np.ndarray:
    """The block's occupations after block_len sites, one plain descending array.

    The reference route: signed_rows of the table cached on g (see
    PairingMatrix.table), reduced by entropy's route for a block with no
    tail bound.  Not floored; no N x N array is formed.
    """
    from .entropy import _block_occupations  # entropy imports pairing
    block_len = _check_block_len(g.n_sites, block_len)
    return _block_occupations(signed_rows(g.table), block_len)
