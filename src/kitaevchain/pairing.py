"""Real-space structure of the ground state's pairing exponent, and the
Majorana correlation blocks that carry block entanglement.

Two independent routes reach the real matrix G = 1 - 2C + 2F of
ground-state correlations.  The pairing couples odd sites only to even
sites, so with the sublattice signs D = diag((-1)^j) (0-based sites j)
D G D = G^T: every leading L x L block of G D is symmetric, and its
eigenvalues are +-(1 - 2 nu) for the natural-mode occupations nu of a block
of L sites.  Both routes can lay out that signed block and hand it to
majorana_occupations, one symmetric eigensolve per block, whose plain array
of nu goes on to bits with no rule but entropy.NU_FLOOR:

- the momentum route (majorana_table, signed_rows, majorana_rows) reads
  G's unitary 2 x 2 symbol over the two-site cell off the dispersion; one
  inverse FFT of length N/2 gives a table of G per cell separation, in
  O(N log N) time and O(N) memory, and signed, one row of G D per
  sublattice.  Reversed windows of those rows lay out the L x L block, for
  an O(L^3) eigensolve, or the L x (N - L) cross block to the rest of the
  ring, whose few large singular values give the same nu in O(L (N - L))
  time per subspace column, or any rows of either, such as the corners of
  the cross block at the block's two cuts, all that a gapped chain's long
  block reads, each a fresh array; entropy.block_spectra picks one per
  block size;
- the paper's construction (real_space_gamma, block_coupling,
  pair_correlations) writes the ground state as exp(Z) on the fermion
  vacuum, Z = sum_{l<m} z_{lm} c+_l c+_m, through the momentum pair
  amplitudes and their Fourier coefficients beta_n(x), as the two
  Toeplitz rows of the N x N site-pair matrix gamma; a PairingMatrix
  is built from those rows alone.  Z = gamma - gamma^T is
  translation-invariant over the two-site cell of the antiperiodic ring,
  so 1 + Z is block skew-circulant and G = 2 (1 + Z)^{-1} - 1 is one
  2 x 2 inverse per cell momentum: one FFT of Z's two nonzero cell
  columns, differences of those rows, and one inverse FFT give G's table
  per cell separation, cached on the PairingMatrix.  The block of G D is
  laid out from it by signed_rows and majorana_rows, and the full C and F
  are the split of the N x N G D.  The N x N gamma is laid out only if it
  is read.  It costs O(N log N) plus one L x L eigensolve per block and is
  the independent reference: it shares only the dispersion, the rescaling
  and the momentum grid of model, and the layout of G D from a table,
  with the momentum route.  The dense eigensolve of Z's Hankel block,
  which assumes no translation structure, is the tests' oracle for both.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import ParameterError
from .model import ChainParams, _index, dispersion, momentum_grid, unit_scaled


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
        twist = np.exp(1j * np.pi * np.arange(cells) / cells)
        z01, z10 = np.fft.fft(np.stack([z01, z10]) / twist)
        one = np.ones(cells)
        inverse = np.linalg.inv(np.stack([[one, z01], [z10, one]]).transpose(2, 0, 1))
        symbols = 2.0 * inverse - np.eye(2)
        return (twist * np.fft.ifft(symbols.transpose(1, 2, 0))).real

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


def _check_block_len(n_sites: int, block_len: int) -> int:
    """block_len as a Python int, once it is a whole number in [1, n_sites - 1]."""
    block_len = _index("block_len", block_len)
    if not 1 <= block_len <= n_sites - 1:
        raise ParameterError(f"block_len must lie in [1, {n_sites - 1}], got {block_len}")
    return block_len


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
    half_shift = np.exp(1j * np.pi * np.arange(cells) / cells)
    return (half_shift * np.fft.ifft(symbols)).real


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
    symmetric L x L block A of majorana_occupations, whose leading slices
    are the smaller blocks, and L to N the cross block B to the rest of the
    ring; a later first row reads the rows of A or B next to the block's
    far cut.  entropy.block_spectra does not rely on the leading slices: it
    lays out each block on its own.
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

    The reference route: the block of G D is laid out from the table cached
    on g, G = 2 (1 + Z)^{-1} - 1 inverted one cell momentum at a time (see
    PairingMatrix.table), by signed_rows and majorana_rows, and goes through
    majorana_occupations.  No N x N array is formed.
    """
    return majorana_occupations(majorana_rows(signed_rows(g.table), block_len, 0, block_len))
