"""Brute-force ground truth for small chains.

Everything here works in the full 2^N spin Hilbert space with no fermionic
shortcuts, so it is an independent check on the solver pipeline.  States are
numpy vectors over the sigma^z product basis: bit l-1 of the index holds
(1 + sigma^z_l)/2 for site l, so site 1 is the least significant bit and a
block of the first L sites occupies the low L bits.

A state or matrix outside its domain raises ParameterError, a chain past
the brute-force bounds SizeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import entropy as entropy_mod
from . import linalg
from .exceptions import KitaevChainError, ParameterError, SizeError
from .model import ChainParams, _index, unit_scaled

MAX_ORACLE_SITES = 16
MAX_DENSE_SITES = 8
MAX_BLOCK_SITES = 14
# Eigenvalues this close to the minimum count as ground states.
DEGENERACY_TOL = 1e-8


@lru_cache(maxsize=8)
def _chain_tables(n_sites: int):
    """Index tables reused by every Hamiltonian application at this size."""
    dim = 1 << n_sites
    idx = np.arange(dim)
    pop = np.zeros(dim, dtype=np.int64)
    for b in range(n_sites):
        pop += (idx >> b) & 1
    field_diag = (2 * pop - n_sites).astype(np.float64)
    x_flips = []
    y_terms = []
    for i in range(1, n_sites + 1):
        j = i % n_sites + 1
        bi, bj = i - 1, j - 1
        flipped = idx ^ ((1 << bi) | (1 << bj))
        if i % 2 == 1:
            x_flips.append(flipped)
        else:
            # sigma^y sigma^y flips the two bits; the amplitude is -1 when the
            # bits agree and +1 when they differ, and is always real.
            same = ((idx >> bi) & 1) == ((idx >> bj) & 1)
            y_terms.append((flipped, np.where(same, -1.0, 1.0)))
    parity_even = pop % 2 == 0
    return field_diag, x_flips, y_terms, parity_even


def apply_hamiltonian(p: ChainParams, v: np.ndarray) -> np.ndarray:
    """H v, computed matrix-free in O(N 2^N).

    Odd bonds (1,2), (3,4), ... carry J_x sigma^x sigma^x, even bonds
    (2,3), ..., (N,1) carry J_y sigma^y sigma^y, and the field couples to
    sigma^z on every site.  H is real symmetric in this basis.
    """
    if p.n_sites > MAX_ORACLE_SITES:
        raise SizeError(f"oracle limited to N <= {MAX_ORACLE_SITES}, got {p.n_sites}")
    v = np.asarray(v)
    dim = 1 << p.n_sites
    if v.shape != (dim,):
        raise ParameterError(f"state must have shape ({dim},), got {v.shape}")
    field_diag, x_flips, y_terms, _ = _chain_tables(p.n_sites)
    out = p.h_field * field_diag * v
    for flipped in x_flips:
        out = out + p.j_x * v[flipped]
    for flipped, sign in y_terms:
        out = out + p.j_y * sign * v[flipped]
    return out


def ed_ground(p: ChainParams):
    """Ground energy and normalized ground state by Lanczos iteration.

    Converged to a relative residual of linalg.LANCZOS_TOL = 1e-14 from a
    start vector of seed linalg.LANCZOS_SEED = 0.  Intended for h != 0 where
    the ground state is unique; at h = 0 it returns one member of the
    degenerate manifold, fixed by that seed.  It runs on the unit_scaled
    chain, since below |theta| = 1 the residual test turns absolute.
    """
    unit, e = unit_scaled(p)
    theta, state = linalg.iterative_ground_pair(lambda v: apply_hamiltonian(unit, v),
                                                1 << p.n_sites)
    return math.ldexp(theta, e), state


@dataclass(frozen=True)
class DegeneracyCount:
    """Ground-level multiplicities split by fermion parity sector."""

    total: int
    even_sector: int
    odd_sector: int


def full_spectrum_degeneracy(p: ChainParams) -> DegeneracyCount:
    """Count eigenvalues within DEGENERACY_TOL of the global minimum, per parity sector.

    The Hamiltonian conserves the parity of the number of up spins, so each
    sector is diagonalized on its own; degenerate eigenvectors of the full
    matrix can mix sectors, which would make per-vector classification
    ambiguous, while the restricted blocks are not.
    """
    if p.n_sites > MAX_DENSE_SITES:
        raise SizeError(
            f"dense degeneracy count limited to N <= {MAX_DENSE_SITES}, got {p.n_sites}"
        )
    h = np.column_stack([apply_hamiltonian(p, e) for e in np.eye(1 << p.n_sites)])
    _, _, _, parity_even = _chain_tables(p.n_sites)
    even = np.flatnonzero(parity_even)
    odd = np.flatnonzero(~parity_even)
    cross = np.abs(h[np.ix_(even, odd)]).max()
    if cross > 1e-12:
        raise KitaevChainError(f"Hamiltonian mixes parity sectors by {cross:.3e}")
    w_even = np.linalg.eigvalsh(h[np.ix_(even, even)])
    w_odd = np.linalg.eigvalsh(h[np.ix_(odd, odd)])
    gmin = min(w_even[0], w_odd[0])
    n_even = int(np.count_nonzero(w_even <= gmin + DEGENERACY_TOL))
    n_odd = int(np.count_nonzero(w_odd <= gmin + DEGENERACY_TOL))
    return DegeneracyCount(total=n_even + n_odd, even_sector=n_even, odd_sector=n_odd)


def reduced_density(state: np.ndarray, block_len: int) -> np.ndarray:
    """Density matrix of the first block_len sites of a normalized pure state."""
    state = np.asarray(state)
    dim = state.shape[0] if state.ndim == 1 else 0
    n = dim.bit_length() - 1
    if dim == 0 or (1 << n) != dim:
        raise ParameterError(f"state length {dim} is not a power of two")
    block_len = _index("block_len", block_len)
    if not 1 <= block_len <= n - 1:
        raise ParameterError(f"block_len must lie in [1, {n - 1}], got {block_len}")
    if block_len > MAX_BLOCK_SITES:
        raise SizeError(f"reduced density limited to blocks of {MAX_BLOCK_SITES} sites")
    if abs(np.linalg.norm(state) - 1.0) > 1e-12:
        raise ParameterError("state is not normalized")
    # Row index = high bits = environment, column index = low bits = block.
    m = state.reshape(1 << (n - block_len), 1 << block_len).T
    return m @ m.conj().T


def vn_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits, with 0 log 0 taken as 0.

    rho must be nonempty, square and Hermitian to 1e-12 times max(1, its largest entry).
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] == 0:
        raise ParameterError(f"expected a nonempty square matrix, got shape {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > 1e-12 * max(1.0, float(np.abs(rho).max())):
        raise ParameterError("matrix is not Hermitian within tolerance")
    w = np.linalg.eigvalsh(rho)
    if w[0] < -1e-10:
        raise ParameterError(f"density matrix has eigenvalue {w[0]:.3e}")
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum())


@dataclass
class EntropyComparison:
    """Per-block agreement between the solver pipeline and the oracle.

    passed is None for degenerate (h = 0) comparisons, where the oracle's
    choice within the ground manifold is arbitrary and a mismatch is not a
    defect; it is flagged instead of judged.
    """

    rows: list  # (block_len, fast_bits, oracle_bits, abs_diff) tuples
    max_abs_diff: float
    passed: bool | None


def compare_entropies(p: ChainParams, block_lens) -> EntropyComparison:
    """Block entropies from the solver pipeline against exact diagonalization.

    At h = 0 the ground manifold is degenerate and the pipeline defines its
    output as the h -> 0+ limit state, so the rows there are recorded and
    the report flags them (passed is None) rather than failing them.  An
    empty block_lens raises ParameterError before the Lanczos solve, as
    zero rows would pass.
    """
    # Chains come in multiples of 4: name the largest one within the block bound.
    largest = MAX_BLOCK_SITES - MAX_BLOCK_SITES % 4
    if p.n_sites > largest:
        raise SizeError(f"comparison limited to N <= {largest}, got {p.n_sites}")
    curve = entropy_mod.block_entropy_curve(p, block_lens)
    if not curve:
        raise ParameterError("compare_entropies needs at least one block length")
    _, state = ed_ground(p)
    rows = []
    for length, e_fast in curve:
        e_oracle = vn_entropy(reduced_density(state, length))
        rows.append((length, e_fast, e_oracle, abs(e_fast - e_oracle)))
    max_diff = max(diff for *_rest, diff in rows)
    return EntropyComparison(
        rows=rows,
        max_abs_diff=max_diff,
        passed=None if p.h_field == 0.0 else bool(max_diff < 1e-8),
    )
