"""Real-space structure of the ground state's pairing exponent, and the
Majorana correlation blocks that carry block entanglement.

The even-sector ground state can be written as exp(Z) acting on the fermion
vacuum, with Z = sum_{l<m} z_{lm} c+_l c+_m.  This module builds the momentum
pair amplitudes and their Fourier coefficients beta_n(x).  From there two
routes reach the real matrix G = 1 - 2C + 2F of ground-state correlations.
The pairing couples odd sites only to even sites, so with the sublattice
signs D = diag((-1)^j) (0-based sites j) D G D = G^T: every leading L x L
block of G D is symmetric, and its eigenvalues are +-(1 - 2 nu) for the
natural-mode occupations nu of a block of L sites.  Both routes lay out
that signed block and hand it to majorana_occupations, one symmetric
eigensolve per block:

- the momentum route (majorana_table, majorana_block) turns Z into 2 x 2
  symbols over the two-site unit cell, forms C and F there in closed form,
  and transforms them back into one table of G per cell separation.  It
  costs O(N log N + L^3) time and O(N + L^2) memory, and feeds the entropy
  pipeline;
- the paper's construction (real_space_gamma, pair_correlations,
  block_occupations) builds the N x N site-pair matrix gamma from two
  Toeplitz layouts of the beta tables.  Z = gamma - gamma^T couples the two
  sublattices through one Hankel, hence symmetric, N/2 x N/2 block S, and
  C and F follow from one symmetric eigensolve of S.  It costs O(N^2)
  memory and one (N/2)^3 eigensolve, uses no FFT after the beta tables, and
  is the independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import ParameterError, SingularModeError
from .model import ChainParams, dispersion, momentum_grid, unit_scaled


def pair_amplitudes(p: ChainParams, q):
    """Pair amplitudes (a1, a2) at momentum q.

    a_n = eps_n / (h + sqrt(|eps_q|^2 + h^2)).  For h <= 0 the denominator
    is evaluated as |eps_q|^2 / (sqrt(|eps_q|^2 + h^2) - h), which is the
    same number without the cancellation; it vanishes only when h <= 0 and
    |eps_q| = 0 together, which is a singular mode.  The amplitudes depend
    only on the ratios J_x : J_y : h, so they are evaluated on the
    unit_scaled couplings, whose squares neither overflow nor underflow.
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
            raise SingularModeError(
                f"amplitude denominator vanishes at q = {bad} for h = {p.h_field}"
            )
        den = r2 / (root - unit.h_field)
    return eps1 / den, eps2 / den


def beta_coefficients(p: ChainParams, n: int, x: int) -> complex:
    """Fourier coefficient beta_n(x) = (1/N) sum_q a_n(q) e^{iqx}."""
    if n not in (1, 2):
        raise ParameterError(f"amplitude index must be 1 or 2, got {n}")
    _, qs = momentum_grid(p.n_sites)
    a1, a2 = pair_amplitudes(p, qs)
    amps = a1 if n == 1 else a2
    return complex(np.sum(amps * np.exp(1j * qs * x)) / p.n_sites)


@dataclass
class PairingMatrix:
    """Site-pair coefficients gamma_{l,m} of the ground-state exponent.

    Indices are 1-based in formulas and documentation; storage is 0-based.
    Only the antisymmetric part gamma - gamma^T enters any physical result.
    Ground-state correlation matrices derived from gamma are cached on the
    instance because every block size reuses them.
    """

    n_sites: int
    gamma: np.ndarray
    _correlations: tuple | None = field(default=None, repr=False, compare=False)


def _beta_tables(p: ChainParams) -> tuple[np.ndarray, np.ndarray]:
    """beta_n(x) for every separation x in [-(N-1), N-1], as lookup arrays.

    The momenta are q_j = (2j + 1) pi / N, so beta_n(x) is e^{i pi x / N}
    times the inverse N-point FFT of the amplitudes zero-padded to length N;
    one FFT serves every separation.
    """
    n = p.n_sites
    _, qs = momentum_grid(n)
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
    Im beta_2) or 2 (Re beta_1 - Im beta_2), as a Toeplitz matrix in l - m:
    a reversed sliding window over the row's 2N - 1 separations.  Only its
    opposite-parity entries are written, into an N x N array of zeros.
    """
    n = p.n_sites
    b1, b2 = _beta_tables(p)
    # Window k, reversed, is row k of the Toeplitz matrix: entry j holds
    # separation k - j.  0-based even rows are the odd sites l above.
    from_even = sliding_window_view(-2.0 * (b1.real + b2.imag), n)
    from_odd = sliding_window_view(2.0 * (b1.real - b2.imag), n)
    gamma = np.zeros((n, n))
    gamma[0::2, 1::2] = from_even[0::2, -2::-2]
    gamma[1::2, 0::2] = from_odd[1::2, ::-2]
    return PairingMatrix(n_sites=n, gamma=gamma)


def pair_correlations(g: PairingMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Ground-state correlation matrices C = <c+_l c_m> and F = <c_l c_m>.

    For exp(Z)|0> with real antisymmetric Z = gamma - gamma^T the general
    forms C = Z (1 + Z^T Z)^{-1} Z^T and F = -(1 + Z Z^T)^{-1} Z collapse onto
    one inverse W = (1 + Z)^{-1}.  As Z^T = -Z, 1 + Z^T Z = 1 + Z Z^T =
    (1 - Z)(1 + Z) commutes with Z and W^T = (1 - Z)^{-1}, so (W + W^T)/2 =
    (1 + Z^T Z)^{-1} = 1 - C and (W - W^T)/2 = F: G = 1 - 2C + 2F = 2W - 1,
    the Cayley form of a pure Gaussian state.

    W is never formed.  Z couples the even sites (0-based) only to the odd
    ones, through the n x n block Y = gamma_eo - gamma_oe^T, n = N/2.  Y is
    Toeplitz in the cell separation, so with R reversing the odd sites
    S = Y R is Hankel and exactly symmetric.  In the basis (even sites, odd
    sites reversed) 1 + Z = [[1, S], [-S, 1]], the real form of 1 - iS, and
    W = [[P, -SP], [SP, P]] with P = (1 + S^2)^{-1}.  One eigensolve
    S = V diag(lambda) V^T gives P and SP as V diag(w) V^T with the weights
    1 / (1 + lambda^2) and lambda / (1 + lambda^2), bounded by 1 and 1/2;
    no Gram product enters, so nothing squares the conditioning of S.  Then
    C_ee = 1 - P, C_oo = R (1 - P) R, F_eo = -SP R and F_oe = R SP.  P and
    SP are symmetrized once, which makes C exactly symmetric and F exactly
    antisymmetric.  The cost is one n x n symmetric eigensolve and two n^3
    products, in O(N^2) memory.
    """
    if g._correlations is not None:
        return g._correlations
    gamma = g.gamma
    if np.iscomplexobj(gamma):
        raise ParameterError(f"pairing matrix must be real, got dtype {gamma.dtype}")
    p, sp = _cayley_blocks(gamma)
    n = len(p)
    c, f = np.zeros_like(gamma), np.zeros_like(gamma)
    c_ee = c[0::2, 0::2]
    c_ee -= p
    c_ee[np.diag_indices(n)] += 1.0
    c[1::2, 1::2] = c_ee[::-1, ::-1]
    f[0::2, 1::2] = -sp[:, ::-1]
    f[1::2, 0::2] = sp[::-1]
    g._correlations = (c, f)
    return g._correlations


def _cayley_blocks(gamma: np.ndarray) -> list[np.ndarray]:
    """P = (1 + S^2)^{-1} and S P for the Hankel block S of gamma - gamma^T.

    Checks the two facts pair_correlations rests on: gamma's same-sublattice
    blocks are symmetric, so they drop out of Z, and S is exactly symmetric.
    Both results are symmetrized, each once.
    """
    for sub in (0, 1):
        if not np.array_equal(gamma[sub::2, sub::2], gamma[sub::2, sub::2].T):
            raise ParameterError("pairing matrix must couple even sites only to odd sites")
    hankel = gamma[0::2, -1::-2] - gamma[-1::-2, 0::2].T
    if not np.array_equal(hankel, hankel.T):
        raise ParameterError("the even-odd block of gamma - gamma^T, odd sites reversed, "
                             "must be symmetric")
    lam, v = np.linalg.eigh(hankel)
    weight = 1.0 / (1.0 + lam * lam)
    blocks = []
    for w in (weight, lam * weight):
        block = (v * w) @ v.T
        block += block.T
        block *= 0.5
        blocks.append(block)
    return blocks


def _check_block_len(n_sites: int, block_len: int) -> None:
    if not 1 <= block_len <= n_sites - 1:
        raise ParameterError(f"block_len must lie in [1, {n_sites - 1}], got {block_len}")


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


def block_occupations(g: PairingMatrix, block_len: int) -> np.ndarray:
    """Natural-mode occupations of the first block_len sites, descending.

    The reference route: C and F come from gamma through the one N/2 x N/2
    eigensolve of pair_correlations, and the block of G = 1 - 2C + 2F, its
    columns signed by sublattice, goes through majorana_occupations.
    """
    _check_block_len(g.n_sites, block_len)
    c, f = pair_correlations(g)
    cb, fb = c[:block_len, :block_len], f[:block_len, :block_len]
    signs = (-1.0) ** np.arange(block_len)
    return majorana_occupations((np.eye(block_len) - 2.0 * cb + 2.0 * fb) * signs)


def majorana_table(p: ChainParams) -> np.ndarray:
    """G = 1 - 2C + 2F between the cells of two sites, per cell separation.

    Returns a real array of shape (2, 2, N/2) whose [s, t, d] entry is
    G_{2a+s, 2b+t} for a - b = d >= 0 (0-based sites, s and t the
    sublattices); at negative separation G(d) = -G(d + N/2).

    Z = gamma - gamma^T depends only on the cell separation and the
    sublattices, with that same antiperiodic wrap, so it is block-diagonal
    over the N/2 cell momenta K = (2k + 1) pi / (N/2), where it reduces to a
    2 x 2 symbol Zhat = [[0, z01], [z10, 0]].  There C = Z (1 + Z^T Z)^{-1} Z^T
    and F = -(1 + Z Z^T)^{-1} Z are diagonal and off-diagonal with the
    entries |z|^2 / (1 + |z|^2) and -z / (1 + |z|^2), and one inverse FFT
    brings them back to real space.  No N x N matrix is formed.
    """
    n, cells = p.n_sites, p.n_sites // 2
    b1, b2 = _beta_tables(p)
    d = np.arange(cells)
    # The two nonzero columns of Z = 2 gamma in the parity form of
    # real_space_gamma: an odd site to the even site of the cell d back
    # (x = 2d - 1, both prefactors -2), and an even site to the odd site of
    # the cell d back (x = 2d + 1, prefactors +2 and -2).  Tables start at
    # x = -(N - 1).
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


def majorana_block(table: np.ndarray, block_len: int) -> np.ndarray:
    """The leading block_len x block_len block of G D, from a majorana_table.

    D = diag((-1)^j) signs the columns by sublattice, which makes the block
    symmetric (see majorana_occupations).  Every leading block of this block
    is the matching block of G D, so one call serves every smaller block
    size.
    """
    cells = table.shape[2]
    _check_block_len(2 * cells, block_len)
    k = (block_len + 1) // 2
    # G(d) for d = -(k - 1) .. k - 1 along the last axis, with the odd
    # sublattice's columns negated; a sliding window, reversed, lays it out
    # as the Toeplitz blocks [s, t, a, b] = (-1)^t G_st(a - b).
    signed = np.concatenate([-table[:, :, cells - k + 1 :], table[:, :, :k]], axis=2)
    signed[:, 1] *= -1.0
    blocks = sliding_window_view(signed, k, axis=2)[:, :, :, ::-1]
    return blocks.transpose(2, 0, 3, 1).reshape(2 * k, 2 * k)[:block_len, :block_len]


@dataclass(frozen=True)
class BlockCoupling:
    """Cross-block coupling of the exponent in its block-canonical form.

    Rotating to the natural fermionic modes of each side removes every
    intra-block term from the exponent and leaves sum_n sqrt(eta_n) A+_n B+_n
    with eta_n = nu_n / (1 - nu_n), one entangled mode pair per nonzero
    nu_n.  The coupling is diagonal, so it is held by the block's
    occupations nu_n (descending, as from majorana_occupations) and the
    chain length, which bounds how many of them can be entangled.
    """

    occupations: np.ndarray
    n_sites: int


def block_coupling(g: PairingMatrix, block_len: int) -> BlockCoupling:
    """Canonical cross-block coupling for a bipartition after block_len sites."""
    return BlockCoupling(block_occupations(g, block_len), g.n_sites)
