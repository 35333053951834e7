"""The paper's construction by a dense eigensolve, with numpy only.

The oracle that the reference route (kitaevchain.pairing.PairingMatrix.table,
block_coupling, pair_correlations) and the momentum route are checked
against.  It reads the same two Toeplitz rows of gamma as the library, but
it uses none of Z's translation structure: it takes Z's even-odd block as it
stands, one (N/2)^3 eigensolve, and lays out every block of G D as Gram
products of that block's eigenvectors.  Each signed block it gives is
exactly symmetric.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from kitaevchain.pairing import PairingMatrix


@functools.lru_cache(maxsize=2)
def eigenpairs(g: PairingMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (lambda, V) of the Hankel block S of Z = gamma - gamma^T.

    Z couples the even sites (0-based) only to the odd ones, through the
    n x n block Y = gamma_eo - gamma_oe^T, n = N/2.  Y is Toeplitz in the
    cell separation, so with R reversing the odd sites S = Y R is Hankel
    and exactly symmetric: S[i, j] = h[i + j].  h is gathered from gamma's
    two Toeplitz rows, h[k] = from_even[2k] - from_odd[2N - 2 - 2k], the
    same subtractions the N x N layout would give, and no N x N array is
    formed.  This is the oracle's one factorization, S = V diag(lambda) V^T,
    which every block size and the correlations share (cached per g).
    """
    from_even, from_odd = g.rows
    hankel = sliding_window_view(from_even[:-1:2] - from_odd[:1:-2], g.n_sites // 2)
    return np.linalg.eigh(hankel)


def block(g: PairingMatrix, block_len: int) -> np.ndarray:
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
    lam, v = eigenpairs(g)
    scale = np.sqrt(2.0) / np.hypot(1.0, lam)
    even = v[: (block_len + 1) // 2] * scale
    odd = v[::-1][: block_len // 2] * scale
    out = np.empty((block_len, block_len))
    out[0::2, 0::2] = even @ even.T
    out[1::2, 1::2] = -(odd @ odd.T)
    even *= lam
    out[0::2, 1::2] = even @ odd.T
    out[1::2, 0::2] = out[0::2, 1::2].T
    out[np.diag_indices(block_len)] -= (-1.0) ** np.arange(block_len)
    return out


def correlations(g: PairingMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(C, F), split off the full N x N block of G D: C exactly symmetric, F antisymmetric."""
    n = g.n_sites
    gmat = block(g, n)
    gmat *= (-1.0) ** np.arange(n)
    return 0.5 * np.eye(n) - 0.25 * (gmat + gmat.T), 0.25 * (gmat - gmat.T)
