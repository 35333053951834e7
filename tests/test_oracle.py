import numpy as np
import pytest

from kitaevchain import oracle
from kitaevchain.entropy import block_entropy_curve, entanglement_spectrum, schmidt_numbers
from kitaevchain.exceptions import ParameterError, SizeError
from kitaevchain.model import ChainParams, ground_degeneracy, ground_energy
from kitaevchain.pairing import block_coupling, real_space_gamma


def basis_state(n_sites: int, index: int) -> np.ndarray:
    v = np.zeros(2**n_sites)
    v[index] = 1.0
    return v


def parity_apply(n_sites: int, v: np.ndarray) -> np.ndarray:
    """Product of sigma-z over all sites: sign (-1)^(N - popcount)."""
    idx = np.arange(2**n_sites)
    pop = np.array([bin(i).count("1") for i in idx])
    return np.where((n_sites - pop) % 2 == 0, 1.0, -1.0) * v


def test_apply_to_all_down_state():
    # Index 0 is all spins down.  The field term is diagonal with -N h;
    # each x bond flips its pair with weight +J_x, each y bond with -J_y
    # (both spins antiparallel to y-quantization give the -1 element).
    p = ChainParams(4, 1.3, 0.7, 0.4)
    w = oracle.apply_hamiltonian(p, basis_state(4, 0))
    expected = np.zeros(16)
    expected[0] = -4 * 0.4
    expected[0b0011] = 1.3  # bond (1,2)
    expected[0b1100] = 1.3  # bond (3,4)
    expected[0b0110] = -0.7  # bond (2,3)
    expected[0b1001] = -0.7  # bond (4,1), the periodic closure
    assert np.abs(w - expected).max() < 1e-14


def test_apply_is_symmetric():
    rng = np.random.default_rng(0)
    p = ChainParams(8, 1.0, 0.8, 0.5)
    for _ in range(20):
        u = rng.standard_normal(256)
        v = rng.standard_normal(256)
        lhs = u @ oracle.apply_hamiltonian(p, v)
        rhs = oracle.apply_hamiltonian(p, u) @ v
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_apply_commutes_with_parity():
    rng = np.random.default_rng(1)
    p = ChainParams(8, 1.0, 0.8, 0.5)
    for _ in range(5):
        v = rng.standard_normal(256)
        hp = oracle.apply_hamiltonian(p, parity_apply(8, v))
        ph = parity_apply(8, oracle.apply_hamiltonian(p, v))
        assert np.abs(hp - ph).max() < 1e-12


def test_apply_rejects_misshapen_state():
    with pytest.raises(ParameterError, match=r"state must have shape \(16,\), got \(8,\)"):
        oracle.apply_hamiltonian(ChainParams(4), np.zeros(8))


def test_apply_rejects_large_chains():
    with pytest.raises(SizeError):
        oracle.apply_hamiltonian(ChainParams(20), np.zeros(2**20))


def test_ed_ground_small_closed_form():
    e, _ = oracle.ed_ground(ChainParams(4, 1.0, 1.0, 1.0))
    assert abs(e + 4 * np.sqrt(1.5)) < 1e-9


def test_ed_ground_field_only():
    e, state = oracle.ed_ground(ChainParams(4, 0.0, 0.0, 1.0))
    assert abs(e + 4.0) < 1e-10
    assert abs(abs(state[0]) - 1.0) < 1e-8
    assert np.linalg.norm(state[1:]) < 1e-8


def test_ed_ground_matches_mode_sum():
    p = ChainParams(8, 1.0, 0.8, 0.5)
    e, _ = oracle.ed_ground(p)
    assert abs(e - ground_energy(p)) < 1e-9


def test_ed_ground_below_random_rayleigh_quotients():
    p = ChainParams(8, 1.0, 0.8, 0.5)
    e, _ = oracle.ed_ground(p)
    rng = np.random.default_rng(3)
    for _ in range(100):
        v = rng.standard_normal(256)
        v /= np.linalg.norm(v)
        assert e <= v @ oracle.apply_hamiltonian(p, v) + 1e-10


def test_mode_sum_matches_oracle_across_coupling_grid():
    """Fermionized spectrum against brute force over the full parameter grid."""
    for jx in (1.0, 0.8, 0.3):
        for jy in (1.0, 0.8, 0.3):
            for h in (0.2, 0.5, 1.0, 2.0):
                for n in (4, 8, 12):
                    p = ChainParams(n, jx, jy, h)
                    e, _ = oracle.ed_ground(p)
                    assert abs(e - ground_energy(p)) < 1e-9, (
                        f"mismatch at N={n} jx={jx} jy={jy} h={h}"
                    )


def test_degeneracy_counts_at_zero_field():
    for jy in (1.0, 0.8, 0.3):
        for n in (4, 8):
            p = ChainParams(n, 1.0, jy, 0.0)
            assert oracle.full_spectrum_degeneracy(p).even_sector == ground_degeneracy(p)


def test_field_lifts_degeneracy():
    p = ChainParams(4, 1.0, 1.0, 0.5)
    counts = oracle.full_spectrum_degeneracy(p)
    assert counts.total == 1
    assert counts.even_sector == 1 == ground_degeneracy(p)


def test_degeneracy_size_gate():
    with pytest.raises(SizeError):
        oracle.full_spectrum_degeneracy(ChainParams(12))


def test_reduced_density_product_state():
    rho = oracle.reduced_density(basis_state(4, 0), 2)
    w = np.linalg.eigvalsh(rho)
    assert abs(w[-1] - 1.0) < 1e-12
    assert np.abs(w[:-1]).max() < 1e-12
    assert oracle.vn_entropy(rho) < 1e-12


def test_reduced_density_bell_pair():
    # (|dd> + |uu>)/sqrt(2) on sites (1,2), site 3 down, site 4 down.
    v = np.zeros(16)
    v[0b0000] = 1 / np.sqrt(2)
    v[0b0011] = 1 / np.sqrt(2)
    rho = oracle.reduced_density(v, 1)
    assert np.abs(rho - np.diag([0.5, 0.5])).max() < 1e-12
    assert abs(oracle.vn_entropy(rho) - 1.0) < 1e-12


def test_reduced_density_hermitian_unit_trace():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    v /= np.linalg.norm(v)
    rho = oracle.reduced_density(v, 3)
    assert rho.shape == (8, 8)
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).sum() == pytest.approx(1.0, abs=1e-12)


def test_reduced_density_rejects_unnormalized():
    with pytest.raises(ParameterError, match="not normalized"):
        oracle.reduced_density(np.ones(16), 2)


def test_reduced_density_rejects_non_power_of_two():
    for bad in (np.ones(12) / np.sqrt(12), np.ones((4, 4)) / 4):
        with pytest.raises(ParameterError, match="not a power of two"):
            oracle.reduced_density(bad, 1)


def test_reduced_density_rejects_fractional_block_len():
    state = basis_state(4, 0)
    for bad in (2.5, 2.0):
        with pytest.raises(ParameterError, match="block_len must be an integer"):
            oracle.reduced_density(state, bad)
    assert np.array_equal(oracle.reduced_density(state, np.int64(2)),
                          oracle.reduced_density(state, 2))


def test_pure_state_entropy_symmetric_in_cut():
    # Both halves of one cut always agree; comparing blocks 1..L with
    # 1..(N-L) additionally needs the state's translation structure, so
    # the ground state is the right subject here, not a random vector.
    rng = np.random.default_rng(6)
    v = rng.standard_normal(256)
    v /= np.linalg.norm(v)
    for length in (1, 2, 3, 4):
        ea = oracle.vn_entropy(oracle.reduced_density(v, length))
        m = v.reshape(2 ** (8 - length), 2**length)
        eb = oracle.vn_entropy(m @ m.conj().T)
        assert abs(ea - eb) < 1e-10

    _, ground = oracle.ed_ground(ChainParams(8, 1.0, 0.8, 0.5))
    for length in range(1, 8):
        ea = oracle.vn_entropy(oracle.reduced_density(ground, length))
        eb = oracle.vn_entropy(oracle.reduced_density(ground, 8 - length))
        assert abs(ea - eb) < 1e-10


def test_vn_entropy_diagonal_cases():
    assert oracle.vn_entropy(np.diag([1.0, 0.0])) == 0.0
    assert abs(oracle.vn_entropy(np.diag([0.5, 0.5])) - 1.0) < 1e-14
    assert abs(oracle.vn_entropy(np.diag([0.25] * 4)) - 2.0) < 1e-14


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


def test_vn_entropy_of_hilbert_matrix_against_bisection():
    # The 3x3 Hilbert matrix over its trace is a density matrix whose
    # eigenvalues are the roots of a cubic with exact rational coefficients.
    h = np.array([[1 / (i + j + 1) for j in range(3)] for i in range(3)])
    roots = bisect_roots(hilbert_charpoly, 1e-6, 2.0)
    assert len(roots) == 3
    w = roots / (23.0 / 15.0)
    assert abs(oracle.vn_entropy(h / np.trace(h)) + (w * np.log2(w)).sum()) < 1e-10


def test_vn_entropy_rejects_non_square_and_non_hermitian():
    with pytest.raises(ParameterError, match=r"square matrix, got shape \(2, 3\)"):
        oracle.vn_entropy(np.ones((2, 3)))
    with pytest.raises(ParameterError, match=r"nonempty square matrix, got shape \(0, 0\)"):
        oracle.vn_entropy(np.zeros((0, 0)))
    with pytest.raises(ParameterError, match="not Hermitian"):
        oracle.vn_entropy(np.array([[0.5, 0.5], [0.0, 0.5]]))
    # The tolerance is relative to the largest entry: roundoff on large
    # entries passes, and the matrix goes on to the eigenvalue check.
    big = np.array([[1e6, 1e6 * (1 + 1e-15)], [1e6, 0.0]])
    with pytest.raises(ParameterError, match="density matrix has eigenvalue"):
        oracle.vn_entropy(big)


def test_vn_entropy_rejects_negative_weight():
    with pytest.raises(ParameterError, match="density matrix has eigenvalue -1.000e-01"):
        oracle.vn_entropy(np.diag([1.1, -0.1]))


def test_reduced_spectrum_matches_coupling_spectrum():
    """Reduced-density eigenvalues two ways: brute force against mode products."""
    p = ChainParams(8, 1.0, 1.0, 0.5)
    _, state = oracle.ed_ground(p)
    dense = np.linalg.eigvalsh(oracle.reduced_density(state, 4))[::-1]
    s = schmidt_numbers(block_coupling(real_space_gamma(p), 4))
    top = entanglement_spectrum(s, 6).lambdas
    assert np.abs(dense[:6] - top).max() < 1e-8


def test_compare_entropies_equal_couplings():
    rpt = oracle.compare_entropies(ChainParams(8, 1.0, 1.0, 0.5), [2, 4])
    assert rpt.passed is True
    assert rpt.max_abs_diff < 1e-8


def test_compare_entropies_unequal_couplings():
    rpt = oracle.compare_entropies(ChainParams(12, 1.0, 0.8, 1.0), [2, 4, 6])
    assert rpt.passed is True
    assert rpt.max_abs_diff < 1e-8


@pytest.mark.parametrize("j_y,h", [(0.8, 0.5), (1.0, 0.3), (1.3, -0.7), (1.0, 5.0)])
def test_compare_entropies_measure_the_pipeline(j_y, h):
    # ed_ground's fixed Lanczos tolerance must sit below the pipeline's own error,
    # or the comparison reports the stopping rule instead of the pipeline.
    rpt = oracle.compare_entropies(ChainParams(12, 1.0, j_y, h), range(1, 12))
    assert rpt.max_abs_diff < 1e-12


@pytest.mark.parametrize("scale", [1e-6, 1e-8, 1e-12, 1e-14, 1e-300, 1e300])
def test_oracle_converges_at_every_coupling_scale(scale):
    # The chain (1, 0.8, 0.5) rescaled has the same ground state.  Lanczos'
    # residual test is relative only for |theta| >= 1, so on the raw chain
    # it stopped early below that: 2.3e-3 bits at 1e-12, 0.35 at 1e-14.
    # On the unit-scaled chain every scale reads within 2.5e-14 bits.
    p = ChainParams(8, scale, 0.8 * scale, 0.5 * scale)
    rpt = oracle.compare_entropies(p, range(2, 7))
    assert rpt.passed is True
    assert rpt.max_abs_diff < 1e-12, rpt.max_abs_diff
    energy, _ = oracle.ed_ground(p)
    assert abs(energy / ground_energy(p) - 1.0) < 1e-12, (energy, ground_energy(p))


def test_compare_entropies_product_limit():
    rpt = oracle.compare_entropies(ChainParams(8, 0.0, 0.0, 1.0), [1, 2, 4])
    for _, fast, slow, _ in rpt.rows:
        assert abs(fast) < 1e-12
        assert abs(slow) < 1e-12


def test_compare_entropies_degenerate_flagged_not_failed():
    rpt = oracle.compare_entropies(ChainParams(8, 1.0, 1.0, 0.0), [2])
    assert [row[0] for row in rpt.rows] == [2]
    assert rpt.passed is None


def test_compare_entropies_rejects_fractional_lengths():
    p = ChainParams(8, 1.0, 1.0, 0.5)
    with pytest.raises(ParameterError, match="block_len must be an integer"):
        oracle.compare_entropies(p, [2.7])
    rows = oracle.compare_entropies(p, np.arange(2, 4)).rows
    assert [row[0] for row in rows] == [2, 3]
    assert all(type(row[0]) is int for row in rows)


def test_compare_entropies_rejects_empty_lengths(monkeypatch):
    # Zero rows would report passed=True; the refusal comes before the
    # Lanczos solve.
    def refused(p):
        raise AssertionError("ran ed_ground")

    monkeypatch.setattr(oracle, "ed_ground", refused)
    with pytest.raises(ParameterError, match="at least one block length"):
        oracle.compare_entropies(ChainParams(8, 1.0, 1.0, 0.5), [])


def test_compare_entropies_size_gate():
    with pytest.raises(SizeError):
        oracle.compare_entropies(ChainParams(16, 1.0, 1.0, 0.5), [2])


def test_pipeline_curve_matches_oracle_point():
    curve = dict(block_entropy_curve(ChainParams(8, 1.0, 1.0, 0.5), [2, 4]))
    _, state = oracle.ed_ground(ChainParams(8, 1.0, 1.0, 0.5))
    for length in (2, 4):
        slow = oracle.vn_entropy(oracle.reduced_density(state, length))
        assert abs(curve[length] - slow) < 1e-8
