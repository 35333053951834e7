"""Dense and iterative eigensolvers for the exact-diagonalization oracle.

The oracle is the only user of this module; the entropy pipeline reduces
its symmetric blocks with numpy's eigvalsh directly (see
pairing.majorana_occupations).
Dense symmetric/Hermitian eigensolves of sector Hamiltonians and reduced
density matrices delegate to numpy's LAPACK bindings.  The iterative
extreme-eigenpair solver is written here directly because the oracle needs
a matrix-free Lanczos with reproducible behaviour, which is not something
numpy provides.  A wrong shape or a non-Hermitian matrix raises
ParameterError.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .exceptions import ConvergenceError, ParameterError

HERMITICITY_TOL = 1e-12

# The one Lanczos setting the oracle runs: converged to a relative residual
# of 1e-14 from a start vector of seed 0, within 2000 steps.
LANCZOS_TOL = 1e-14
LANCZOS_SEED = 0
LANCZOS_MAX_STEPS = 2000


def symmetric_eigen(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending, for the oracle's dense steps.

    The Hermiticity check is relative to the largest entry so that sector
    Hamiltonians with large couplings are not rejected for roundoff.
    """
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ParameterError(f"expected a nonempty square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a - a.conj().T).max() > HERMITICITY_TOL * scale:
        raise ParameterError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(a)


class _GrowingBasis:
    """Row-wise storage for Lanczos vectors, grown geometrically on demand."""

    def __init__(self, dim: int, dtype):
        self._data = np.zeros((64, dim), dtype=dtype)
        self.count = 0

    def append(self, v: np.ndarray) -> None:
        if self.count == self._data.shape[0]:
            grown = np.zeros((2 * self._data.shape[0], self._data.shape[1]), dtype=self._data.dtype)
            grown[: self.count] = self._data
            self._data = grown
        self._data[self.count] = v
        self.count += 1

    def rows(self) -> np.ndarray:
        return self._data[: self.count]


def iterative_ground_pair(
    apply: Callable[[np.ndarray], np.ndarray], dim: int
) -> tuple[float, np.ndarray]:
    """Minimum eigenpair of a Hermitian operator given only its action.

    Lanczos with full reorthogonalization: each new direction is projected
    against every stored basis vector, twice, so orthogonality holds at
    machine level regardless of eigenvalue clustering.  The start vector
    comes from a generator seeded with LANCZOS_SEED, which makes oracle runs
    reproducible.  Convergence is declared only after an explicit residual
    check ||A v - theta v|| <= LANCZOS_TOL * max(1, |theta|).

    Raises ConvergenceError carrying the best residual and the steps run if
    LANCZOS_MAX_STEPS steps run first, or if a Krylov breakdown leaves no
    fresh direction to restart from.
    """
    if dim < 2:
        raise ParameterError("iterative solver needs dimension >= 2")
    rng = np.random.default_rng(LANCZOS_SEED)
    start = rng.standard_normal(dim)
    start /= np.linalg.norm(start)

    w = np.asarray(apply(start))
    if w.shape != (dim,):
        raise ParameterError(f"operator returned shape {w.shape}, expected ({dim},)")
    dtype = np.result_type(w.dtype, np.float64)

    basis = _GrowingBasis(dim, dtype)
    basis.append(start.astype(dtype))
    alphas: list[float] = []
    betas: list[float] = []
    best_residual = np.inf
    check_every = 5
    steps = LANCZOS_MAX_STEPS

    for it in range(LANCZOS_MAX_STEPS):
        if it > 0:
            w = np.asarray(apply(basis.rows()[-1]))
        alphas.append(float(np.real(np.vdot(basis.rows()[-1], w))))
        w = w - alphas[-1] * basis.rows()[-1]
        if it > 0:
            w = w - betas[-1] * basis.rows()[-2]
        rows = basis.rows()
        for _ in range(2):
            w = w - (rows.conj() @ w) @ rows
        beta = float(np.linalg.norm(w))
        breakdown = beta <= 1e-14
        t_beta = beta  # coupling entry recorded in the tridiagonal projection

        if breakdown or (it + 1) % check_every == 0 or it + 1 == LANCZOS_MAX_STEPS:
            t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            tw, tv = np.linalg.eigh(t)
            theta = float(tw[0])
            s = tv[:, 0]
            # The cheap bound beta*|s_k| controls the true residual; confirm
            # explicitly before returning so roundoff cannot fake convergence.
            if breakdown or beta * abs(s[-1]) <= LANCZOS_TOL * max(1.0, abs(theta)):
                x = s @ basis.rows()
                x = x / np.linalg.norm(x)
                residual = float(np.linalg.norm(np.asarray(apply(x)) - theta * x))
                best_residual = min(best_residual, residual)
                if residual <= LANCZOS_TOL * max(1.0, abs(theta)):
                    return theta, x
                if breakdown:
                    # Krylov space closed on an invariant subspace that missed
                    # the target; continue from fresh orthogonalized noise.
                    # The restart vector has no coupling to the closed block,
                    # so the recorded tridiagonal entry is exactly zero.
                    w = rng.standard_normal(dim).astype(dtype)
                    rows = basis.rows()
                    w = w - (rows.conj() @ w) @ rows
                    beta = float(np.linalg.norm(w))
                    t_beta = 0.0
                    if beta <= 1e-14:
                        steps = it + 1
                        break
        betas.append(t_beta)
        basis.append(w / beta)

    raise ConvergenceError(
        f"Lanczos did not converge in {steps} iterations",
        best_residual=None if best_residual is np.inf else best_residual,
        iterations=steps,
    )
