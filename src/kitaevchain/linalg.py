"""Matrix-free Lanczos for the exact-diagonalization oracle's ground state.

The oracle is the only user of this module; the entropy pipeline and the
oracle's dense steps call numpy's eigvalsh directly.  The ground state of the
real symmetric oracle Hamiltonian comes from a Lanczos written here, because
the oracle needs reproducible behaviour that numpy does not provide.  An
operator output that is misshapen or not real raises ParameterError.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .exceptions import ConvergenceError, ParameterError

# The one Lanczos setting the oracle runs: converged to a relative residual
# of 1e-14 from a start vector of seed 0, within 2000 steps.
LANCZOS_TOL = 1e-14
LANCZOS_SEED = 0
LANCZOS_MAX_STEPS = 2000


def iterative_ground_pair(
    apply: Callable[[np.ndarray], np.ndarray], dim: int
) -> tuple[float, np.ndarray]:
    """Minimum eigenpair of a real symmetric operator given only its action.

    Lanczos with full reorthogonalization: each new direction is projected
    against every stored basis vector, twice, so orthogonality holds at
    machine level regardless of eigenvalue clustering.  The start vector
    comes from a generator seeded with LANCZOS_SEED, which makes oracle runs
    reproducible.  Being random, it overlaps every eigenvector, so a Krylov
    space that stops growing already holds the ground state: there is no
    restart.  Convergence is declared only after an explicit residual check
    ||A v - theta v|| <= LANCZOS_TOL * max(1, |theta|).

    Raises ParameterError if an output of apply is misshapen or not real, and
    ConvergenceError carrying the best residual and the steps run if
    LANCZOS_MAX_STEPS steps run first, or if the Krylov space closes without
    passing the residual check.
    """
    if dim < 2:
        raise ParameterError("iterative solver needs dimension >= 2")

    def op(v: np.ndarray) -> np.ndarray:
        w = np.asarray(apply(v))
        if w.shape != (dim,):
            raise ParameterError(f"operator returned shape {w.shape}, expected ({dim},)")
        if w.dtype.kind not in "iuf":
            raise ParameterError(f"operator returned {w.dtype} values, expected real ones")
        return w

    # Lanczos vectors are the rows of one buffer, doubled when it fills.
    basis = np.zeros((64, dim))
    basis[0] = np.random.default_rng(LANCZOS_SEED).standard_normal(dim)
    basis[0] /= np.linalg.norm(basis[0])
    alphas: list[float] = []
    betas: list[float] = []
    best_residual = np.inf

    for it in range(LANCZOS_MAX_STEPS):
        w = op(basis[it])
        alphas.append(float(basis[it] @ w))
        w = w - alphas[-1] * basis[it]
        if it > 0:
            w = w - betas[-1] * basis[it - 1]
        rows = basis[: it + 1]
        for _ in range(2):
            w = w - (rows @ w) @ rows
        beta = float(np.linalg.norm(w))
        closed = beta <= 1e-14  # the Krylov space is invariant under apply

        if closed or (it + 1) % 5 == 0 or it + 1 == LANCZOS_MAX_STEPS:
            t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            tw, tv = np.linalg.eigh(t)
            theta = float(tw[0])
            s = tv[:, 0]
            # The cheap bound beta*|s_k| controls the true residual; confirm
            # explicitly before returning so roundoff cannot fake convergence.
            if closed or beta * abs(s[-1]) <= LANCZOS_TOL * max(1.0, abs(theta)):
                x = s @ rows
                x = x / np.linalg.norm(x)
                residual = float(np.linalg.norm(op(x) - theta * x))
                best_residual = min(best_residual, residual)
                if residual <= LANCZOS_TOL * max(1.0, abs(theta)):
                    return theta, x
                if closed:
                    break
        if it + 1 == len(basis):
            basis = np.concatenate([basis, np.zeros_like(basis)])
        basis[it + 1] = w / beta
        betas.append(beta)

    raise ConvergenceError(
        f"Lanczos did not converge in {it + 1} iterations",
        best_residual=None if best_residual is np.inf else best_residual,
        iterations=it + 1,
    )
