import numpy as np
import pytest

from kitaevchain import linalg
from kitaevchain.exceptions import ConvergenceError, ParameterError


def test_ground_pair_pauli_x():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    val, vec = linalg.iterative_ground_pair(lambda v: a @ v, 2)
    assert abs(val + 1.0) < 1e-10
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_ground_pair_diagonal():
    a = np.diag([5.0, -2.0, 7.0])
    val, vec = linalg.iterative_ground_pair(lambda v: a @ v, 3)
    assert abs(val + 2.0) < 1e-10
    assert abs(abs(vec[1]) - 1.0) < 1e-8


def test_ground_pair_degenerate_minimum():
    a = np.diag([-2.0, -2.0, 7.0, 9.0])
    val, vec = linalg.iterative_ground_pair(lambda v: a @ v, 4)
    assert abs(val + 2.0) < 1e-10
    assert np.linalg.norm(vec[2:]) < 1e-7


def test_ground_pair_random_dense_64():
    rng = np.random.default_rng(64)
    a = rng.standard_normal((64, 64))
    a = a + a.T
    val, _ = linalg.iterative_ground_pair(lambda v: a @ v, 64)
    assert abs(val - np.linalg.eigvalsh(a)[0]) < 1e-9


def test_ground_pair_matches_dense_on_seeded_ensemble():
    rng = np.random.default_rng(2024)
    for trial in range(50):
        dim = int(rng.integers(2, 129))
        a = rng.standard_normal((dim, dim))
        a = a + a.T
        val, vec = linalg.iterative_ground_pair(lambda v: a @ v, dim)
        dense_min = np.linalg.eigvalsh(a)[0]
        assert abs(val - dense_min) < 1e-9
        resid = np.linalg.norm(a @ vec - val * vec)
        assert resid < 1e-10 * max(1.0, abs(val))


def test_ground_pair_deterministic_given_seed():
    a = np.diag(np.linspace(-3.0, 3.0, 24))
    a[0, -1] = a[-1, 0] = 0.5
    r1 = linalg.iterative_ground_pair(lambda v: a @ v, 24)
    r2 = linalg.iterative_ground_pair(lambda v: a @ v, 24)
    assert r1[0] == r2[0]
    assert np.array_equal(r1[1], r2[1])


def test_ground_pair_iteration_cap(monkeypatch):
    monkeypatch.setattr(linalg, "LANCZOS_MAX_STEPS", 3)
    a = np.diag(np.arange(40, dtype=float))
    with pytest.raises(ConvergenceError, match="did not converge in 3 iterations") as exc:
        linalg.iterative_ground_pair(lambda v: a @ v, 40)
    assert exc.value.iterations == 3


def test_ground_pair_breakdown_reports_steps_run():
    # The Krylov space fills all 40 dimensions and closes, and the residual
    # misses the 1e-14 tolerance: the solver stops after 40 steps and 41
    # operator calls (the last one checks the residual), not at its
    # 2000-step cap.
    a = np.diag(np.arange(40.0))
    calls = []

    def apply(v):
        calls.append(1)
        return a @ v

    with pytest.raises(ConvergenceError, match="did not converge in 40 iterations") as exc:
        linalg.iterative_ground_pair(apply, 40)
    assert exc.value.iterations == 40
    assert len(calls) == 41
    assert exc.value.best_residual < 1e-13


def test_ground_pair_rejects_trivial_dimension():
    with pytest.raises(ParameterError, match="dimension >= 2"):
        linalg.iterative_ground_pair(lambda v: v, 1)


def test_ground_pair_rejects_misshapen_operator():
    with pytest.raises(ParameterError, match=r"operator returned shape \(3,\), expected \(4,\)"):
        linalg.iterative_ground_pair(lambda v: v[:3], 4)


def test_ground_pair_rejects_complex_operator():
    a = np.array([[0.0, 1j], [-1j, 0.0]])
    with pytest.raises(ParameterError, match="operator returned complex128 values"):
        linalg.iterative_ground_pair(lambda v: a @ v, 2)
    # A complex output after a real one is rejected too, not cast to real.
    outputs = iter([np.ones(3), np.ones(3, dtype=complex)])
    with pytest.raises(ParameterError, match="operator returned complex128 values"):
        linalg.iterative_ground_pair(lambda v: next(outputs), 3)
