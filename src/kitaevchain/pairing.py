"""Real-space structure of the ground state's pairing exponent, and the
Majorana correlation blocks that carry block entanglement.

The even-sector ground state can be written as exp(Z) acting on the fermion
vacuum, with Z = sum_{l<m} z_{lm} c+_l c+_m.  This module builds the momentum
pair amplitudes and their Fourier coefficients beta_n(x).  From there two
routes reach the real matrix G = 1 - 2C + 2F of ground-state correlations,
whose leading L x L block has singular values |1 - 2 nu| for the natural-mode
occupations nu of a block of L sites:

- the momentum route (majorana_table, majorana_block) turns Z into 2 x 2
  symbols over the two-site unit cell, forms C and F there in closed form,
  and transforms them back into one table of G per cell separation.  It
  costs O(N log N + L^3) time and O(N + L^2) memory, and feeds the entropy
  pipeline;
- the paper's construction (real_space_gamma, pair_correlations,
  block_occupations) builds the N x N site-pair matrix gamma and takes C and
  F from one inverse of 1 + gamma - gamma^T.  It is the independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import ParameterError, SingularModeError
from .model import ChainParams, dispersion, momentum_grid


def pair_amplitudes(p: ChainParams, q):
    """Pair amplitudes (a1, a2) at momentum q.

    a_n = eps_n / (h + sqrt(|eps_q|^2 + h^2)).  For h <= 0 the denominator
    is evaluated as |eps_q|^2 / (sqrt(|eps_q|^2 + h^2) - h), which is the
    same number without the cancellation; it vanishes only when h <= 0 and
    |eps_q| = 0 together, which is a singular mode.
    """
    eps1, eps2 = dispersion(p, q)
    r2 = eps1 * eps1 + eps2 * eps2
    root = np.sqrt(r2 + p.h_field * p.h_field)
    if p.h_field > 0.0:
        den = p.h_field + root
    else:
        if np.any(r2 == 0.0):
            bad = np.asarray(q)[np.asarray(r2) == 0.0] if np.ndim(q) else q
            raise SingularModeError(
                f"amplitude denominator vanishes at q = {bad} for h = {p.h_field}"
            )
        den = r2 / (root - p.h_field)
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
    """
    b1, b2 = _beta_tables(p)
    sites = np.arange(1, p.n_sites + 1)
    alt = (-1.0) ** sites
    p1 = alt[:, None] - alt[None, :]
    p2 = alt[:, None] * alt[None, :] - 1.0
    xi = (sites[:, None] - sites[None, :]) + p.n_sites - 1
    gamma = p1 * b1.real[xi] + p2 * b2.imag[xi]
    return PairingMatrix(n_sites=p.n_sites, gamma=gamma)


def pair_correlations(g: PairingMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Ground-state correlation matrices C = <c+_l c_m> and F = <c_l c_m>.

    For exp(Z)|0> with real antisymmetric Z = gamma - gamma^T the general
    forms C = Z (1 + Z^T Z)^{-1} Z^T and F = -(1 + Z Z^T)^{-1} Z collapse onto
    one inverse W = (1 + Z)^{-1}.  As Z^T = -Z, 1 + Z^T Z = 1 + Z Z^T =
    (1 - Z)(1 + Z) commutes with Z and W^T = (1 - Z)^{-1}, so (W + W^T)/2 =
    (1 + Z^T Z)^{-1} = 1 - C and (W - W^T)/2 = F: G = 1 - 2C + 2F = 2W - 1,
    the Cayley form of a pure Gaussian state.  Every singular value of 1 + Z
    is at least 1, so this is better conditioned than the Gram form; C and F
    are exactly symmetric and antisymmetric by construction.
    """
    if g._correlations is not None:
        return g._correlations
    if np.iscomplexobj(g.gamma):
        raise ParameterError(f"pairing matrix must be real, got dtype {g.gamma.dtype}")
    eye = np.eye(g.n_sites)
    w = np.linalg.inv(eye + g.gamma - g.gamma.T)
    g._correlations = (eye - 0.5 * (w + w.T), 0.5 * (w - w.T))
    return g._correlations


def _check_block_len(n_sites: int, block_len: int) -> None:
    if not 1 <= block_len <= n_sites - 1:
        raise ParameterError(f"block_len must lie in [1, {n_sites - 1}], got {block_len}")


def majorana_occupations(block: np.ndarray) -> np.ndarray:
    """Natural-mode occupations of a block from its L x L block of G, descending.

    The block's reduced state is Gaussian and factorizes over fermionic
    modes with occupations in particle-hole pairs (nu, 1 - nu).  The real
    block of G = 1 - 2C + 2F has singular values |1 - 2 nu|, so one SVD
    gives the minority member nu = (1 - sigma) / 2 of each pair: a frozen
    (empty or full) mode reports 0 and a maximally entangled one 1/2.
    """
    sigma = np.linalg.svd(block, compute_uv=False)
    return np.maximum(0.5 * (1.0 - sigma[::-1]), 0.0)


def block_occupations(g: PairingMatrix, block_len: int) -> np.ndarray:
    """Natural-mode occupations of the first block_len sites, descending.

    The reference route: C and F come from gamma through the one N x N
    inverse of pair_correlations, and the block of G = 1 - 2C + 2F goes
    through majorana_occupations.
    """
    _check_block_len(g.n_sites, block_len)
    c, f = pair_correlations(g)
    cb, fb = c[:block_len, :block_len], f[:block_len, :block_len]
    return majorana_occupations(np.eye(block_len) - 2.0 * cb + 2.0 * fb)


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
    """The leading block_len x block_len block of G, from a majorana_table.

    Every leading block of this block is the matching block of G, so one
    call serves every smaller block size.
    """
    cells = table.shape[2]
    _check_block_len(2 * cells, block_len)
    k = (block_len + 1) // 2
    # G(d) for d = -(k - 1) .. k - 1 along the last axis; a sliding window,
    # reversed, lays it out as the Toeplitz blocks [s, t, a, b] = G_st(a - b).
    signed = np.concatenate([-table[:, :, cells - k + 1 :], table[:, :, :k]], axis=2)
    blocks = sliding_window_view(signed, k, axis=2)[:, :, :, ::-1]
    return blocks.transpose(2, 0, 3, 1).reshape(2 * k, 2 * k)[:block_len, :block_len]


@dataclass(frozen=True)
class BlockCoupling:
    """Cross-block coupling of the exponent in its block-canonical form.

    Rotating to the natural fermionic modes of each side removes every
    intra-block term from the exponent and leaves sum_n sqrt(eta_n) A+_n B+_n
    with eta_n = nu_n / (1 - nu_n), one entangled mode pair per nonzero
    eta_n.  The coupling is diagonal, so it is held by the block's
    occupations nu_n (descending, as from majorana_occupations) and the
    chain length, which bounds how many of them can be entangled.
    """

    occupations: np.ndarray
    n_sites: int


def block_coupling(g: PairingMatrix, block_len: int) -> BlockCoupling:
    """Canonical cross-block coupling for a bipartition after block_len sites."""
    return BlockCoupling(block_occupations(g, block_len), g.n_sites)
