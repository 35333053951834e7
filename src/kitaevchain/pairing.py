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
  is built from those rows alone.  Z = gamma - gamma^T
  couples the sublattices through one Hankel, hence symmetric, N/2 x N/2
  block S, whose N - 1 distinct entries are differences of those rows.
  One eigensolve of S, cached on the PairingMatrix, gives every block of
  G D as Gram products of the block's rows of the eigenvectors; the full C
  and F are the split of the block at L = N.  The N x N gamma is laid out
  only if it is read.  It costs one (N/2)^3 eigensolve plus O(N L^2) per
  block and is the independent reference: it shares only the dispersion,
  the rescaling and the momentum grid of model with the momentum route.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

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
    from, over the 2N - 1 separations: the eigensolve reads the Hankel block
    straight off them, and the N x N gamma is laid out only on its first
    read.  The eigenpairs of the Hankel block and the correlation matrices
    are cached on the instance because every block size reuses them.
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
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs (lambda, V) of the Hankel block S of Z = gamma - gamma^T.

        Z couples the even sites (0-based) only to the odd ones, through the
        n x n block Y = gamma_eo - gamma_oe^T, n = N/2.  Y is Toeplitz in the
        cell separation, so with R reversing the odd sites S = Y R is Hankel
        and exactly symmetric: S[i, j] = h[i + j].  h is gathered from gamma's
        two Toeplitz rows, h[k] = from_even[2k] - from_odd[2N - 2 - 2k], the
        same subtractions the N x N layout would give, and no N x N array is
        formed.  This is the route's one factorization, S = V diag(lambda) V^T,
        which every block size and the correlations share.
        """
        from_even, from_odd = self.rows
        hankel = sliding_window_view(from_even[:-1:2] - from_odd[:1:-2], self.n_sites // 2)
        return np.linalg.eigh(hankel)

    @cached_property
    def correlations(self) -> tuple[np.ndarray, np.ndarray]:
        """(C, F), split off the full N x N block of G D (see pair_correlations)."""
        n = self.n_sites
        gmat = _reference_block(self, n)
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
    those two rows: the reference route reads its Hankel block from them,
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

    C and F are split off the full N x N block of G D, which
    _reference_block lays out as it does every smaller block: G = (G D) D,
    C = (1 - (G + G^T)/2) / 2 and F = (G - G^T) / 4.  That block is exactly
    symmetric, so C is exactly symmetric and F exactly antisymmetric.  The
    pair is cached on g.
    """
    return g.correlations


def _reference_block(g: PairingMatrix, block_len: int) -> np.ndarray:
    """The leading block_len x block_len block of G D, from gamma.

    In the basis (even sites, odd sites reversed) 1 + Z = [[1, S], [-S, 1]],
    the real form of 1 - iS, so W = (1 + Z)^{-1} = [[P, -SP], [SP, P]] with
    P = (1 + S^2)^{-1}, and G D = 2 W D - D.  Back in site order, with R
    reversing the odd sites, 2 W D has the blocks 2P (even-even), -2 R P R
    (odd-odd) and 2 S P R (even-odd), whose transpose 2 R S P is the
    odd-even block.  From S = V diag(lambda) V^T these are Gram products of
    the block's own rows of V, scaled by sqrt(2 w) with
    w = 1 / (1 + lambda^2): the leading rows for the even sites, the
    trailing rows reversed for the odd ones, and lambda once more on the
    cross block.  The weights w and lambda w are bounded by 1 and 1/2, and
    S is never multiplied by itself, so nothing squares its conditioning.
    The even-even and odd-odd products are symmetric by construction and
    the odd-even block is written as the transpose of the even-odd one, so
    the block is exactly symmetric.  The cost is O(N L) memory and
    O(N L^2) time after the eigensolve.
    """
    lam, v = g.eigenpairs
    scale = np.sqrt(2.0) / np.hypot(1.0, lam)
    even = v[: (block_len + 1) // 2] * scale
    odd = v[::-1][: block_len // 2] * scale
    block = np.empty((block_len, block_len))
    block[0::2, 0::2] = even @ even.T
    block[1::2, 1::2] = -(odd @ odd.T)
    even *= lam
    block[0::2, 1::2] = even @ odd.T
    block[1::2, 0::2] = block[0::2, 1::2].T
    block[np.diag_indices(block_len)] -= (-1.0) ** np.arange(block_len)
    return block


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
    # index lies in [N - stop, 2N - 3 - start], inside the rows.
    step = rows.strides[1]
    cells = as_strided(rows[:, n_sites - start - 1 :], shape=(2, n_sites // 2, width),
                       strides=(rows.strides[0], 2 * step, -step), writeable=False)
    for row in (first, first + 1):
        block[row - first :: 2] = cells[row % 2, row // 2 :][: (block_len - row + 1) // 2]
    return block


def cross_mass(rows: np.ndarray, block_len: int) -> float:
    """|B|_F^2 for the cross block B = majorana_rows(rows, L, L, N).

    Row 2a + s of B is the window rows[s, 2a : 2a + N - L], so each entry's
    square is weighted by how many of the block's rows of its sublattice
    cover it: a sum of positive terms, exact to relative rounding.
    """
    k, last = np.arange(rows.shape[1]), rows.shape[1] // 2  # last = N - 1
    block_len = _check_block_len(last + 1, block_len)
    heights = np.array([[(block_len + 1) // 2], [block_len // 2]])
    count = np.minimum(heights - 1, k // 2) - np.maximum(0, (k - last + block_len + 1) // 2) + 1
    return float((np.maximum(count, 0) * rows**2).sum())


def block_coupling(g: PairingMatrix, block_len: int) -> np.ndarray:
    """The block's occupations after block_len sites, one plain descending array.

    The reference route: the block of G D is laid out from the cached
    eigenpairs of gamma's N/2 x N/2 Hankel block (see _reference_block) and
    goes through majorana_occupations.  No N x N array is formed.
    """
    _check_block_len(g.n_sites, block_len)
    return majorana_occupations(_reference_block(g, block_len))
