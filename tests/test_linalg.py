import numpy as np
import pytest

from kitaevchain import linalg
from kitaevchain.exceptions import ConvergenceError, ParameterError


def hilbert_charpoly(lam):
    """Characteristic polynomial of the 3x3 Hilbert matrix, exact rationals.

    det(H - lam I) expanded by hand: trace 23/15, sum of principal 2x2
    minors 127/720, determinant 1/2160.
    """
    return lam**3 - (23.0 / 15.0) * lam**2 + (127.0 / 720.0) * lam - 1.0 / 2160.0


def bisect_roots(f, lo, hi, samples=4000):
    """All roots of f in [lo, hi] found by sign-change bisection."""
    xs = np.linspace(lo, hi, samples)
    fs = np.array([f(x) for x in xs])
    roots = []
    for i in range(samples - 1):
        a, b = xs[i], xs[i + 1]
        fa, fb = fs[i], fs[i + 1]
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb > 0:
            continue
        for _ in range(200):
            mid = 0.5 * (a + b)
            fm = f(mid)
            if fa * fm <= 0:
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    return np.array(roots)


def test_identity_eigenvalues():
    assert np.allclose(linalg.symmetric_eigen(np.eye(3)), [1.0, 1.0, 1.0])


def test_pauli_x_spectrum():
    vals = linalg.symmetric_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(vals, [-1.0, 1.0])


def test_hilbert_matrix_against_bisection_oracle():
    h = np.array([[1 / (i + j + 1) for j in range(3)] for i in range(3)])
    expected = np.sort(bisect_roots(hilbert_charpoly, 1e-6, 2.0))
    got = linalg.symmetric_eigen(h)
    assert len(expected) == 3
    assert np.abs(got - expected).max() < 1e-10


def test_eigenvalues_ascending_and_trace_preserved():
    rng = np.random.default_rng(7)
    for dim in (2, 5, 17, 64):
        a = rng.standard_normal((dim, dim))
        a = a + a.T
        vals = linalg.symmetric_eigen(a)
        assert np.all(np.diff(vals) >= -1e-12)
        assert abs(vals.sum() - np.trace(a)) < 1e-10 * dim


def test_rejects_non_square_and_non_hermitian():
    with pytest.raises(ParameterError, match=r"square matrix, got shape \(2, 3\)"):
        linalg.symmetric_eigen(np.ones((2, 3)))
    with pytest.raises(ParameterError, match=r"nonempty square matrix, got shape \(0, 0\)"):
        linalg.symmetric_eigen(np.zeros((0, 0)))
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ParameterError, match="not Hermitian"):
        linalg.symmetric_eigen(bad)


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
    assert abs(val - linalg.symmetric_eigen(a)[0]) < 1e-9


def test_ground_pair_matches_dense_on_seeded_ensemble():
    rng = np.random.default_rng(2024)
    for trial in range(50):
        dim = int(rng.integers(2, 129))
        a = rng.standard_normal((dim, dim))
        if trial % 3 == 0:
            a = a + 1j * rng.standard_normal((dim, dim))
        a = a + a.conj().T
        val, vec = linalg.iterative_ground_pair(lambda v: a @ v, dim)
        dense_min = linalg.symmetric_eigen(a)[0]
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
    # The Krylov space fills all 40 dimensions, the residual misses the 1e-14
    # tolerance, and the restart vector is in the span: the solver stops
    # after 40 steps and 41 operator calls, not at its 2000-step cap.
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
