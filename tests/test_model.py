from fractions import Fraction

import numpy as np
import pytest

from kitaevchain.entropy import block_entropy_curve
from kitaevchain.exceptions import ParameterError
from kitaevchain.model import (
    ChainParams,
    dispersion,
    ground_degeneracy,
    ground_energy,
    momentum_grid,
)


def test_params_require_multiple_of_four_sites():
    for bad in (0, 2, 6, 10, -4):
        with pytest.raises(ParameterError):
            ChainParams(bad)
    ChainParams(4)
    ChainParams(1000)
    ChainParams(np.int64(12))
    # A whole float would pass the range checks and fail later on slicing.
    for bad in (12.0, 12.5, "12", None):
        with pytest.raises(ParameterError, match="n_sites must be an integer"):
            ChainParams(bad)


@pytest.mark.parametrize("field", ["j_x", "j_y", "h_field"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 "1", 1j, np.complex128(1.0), None,
                                 # Exact reals past the float range overflow in float().
                                 pytest.param(10**400, id="10^400"),
                                 pytest.param(2**1100, id="2^1100"),
                                 pytest.param(-Fraction(10**400, 3), id="-10^400/3")])
def test_params_reject_non_finite_couplings(field, bad):
    with pytest.raises(ParameterError, match=field):
        ChainParams(8, **{field: bad})


def test_fraction_couplings_match_their_float_twin():
    p = ChainParams(8, Fraction(1), Fraction(1, 2), Fraction(1, 2))
    twin = ChainParams(8, 1.0, 0.5, 0.5)
    assert p == twin
    assert all(type(v) is float for v in (p.j_x, p.j_y, p.h_field))
    assert ground_energy(p) == ground_energy(twin)
    assert block_entropy_curve(p, range(1, 8)) == block_entropy_curve(twin, range(1, 8))


def test_momentum_grid_four_sites():
    assert np.allclose(momentum_grid(4), [np.pi / 4, 3 * np.pi / 4])


def test_momentum_grid_eight_sites():
    assert np.allclose(momentum_grid(8), [np.pi / 8, 3 * np.pi / 8, 5 * np.pi / 8, 7 * np.pi / 8])


def test_momentum_grid_large_count():
    k = momentum_grid(1000)
    assert len(k) == 500
    assert np.all(np.diff(k) > 0) and k.min() > 0 and k.max() < np.pi
    # The first N/4 are the group labels q, all below pi/2; the rest lie above.
    assert k[249] < np.pi / 2 < k[250]


def test_dispersion_equal_couplings():
    eps1, eps2 = dispersion(ChainParams(4, 1.0, 1.0, 0.0), np.pi / 4)
    assert abs(eps1 - np.sqrt(2) / 2) < 1e-15
    assert abs(eps2) < 1e-15


def test_dispersion_single_bond_modulus():
    p = ChainParams(8, 1.0, 0.0, 0.0)
    for q in np.linspace(0.1, 1.4, 7):
        eps1, eps2 = dispersion(p, q)
        assert abs(np.hypot(eps1, eps2) - 0.5) < 1e-14


def test_dispersion_unequal_couplings():
    eps1, eps2 = dispersion(ChainParams(8, 1.0, 0.8, 0.0), np.pi / 2)
    assert abs(eps1) < 1e-15
    assert abs(eps2 + 0.1) < 1e-15


def test_ground_energy_small_chain_closed_forms():
    assert abs(ground_energy(ChainParams(4, 1.0, 1.0, 0.0)) + 2 * np.sqrt(2)) < 1e-10
    assert abs(ground_energy(ChainParams(4, 1.0, 1.0, 1.0)) + 4 * np.sqrt(1.5)) < 1e-10


def test_ground_energy_field_only_limit():
    assert abs(ground_energy(ChainParams(8, 0.0, 0.0, 1.0)) + 8.0) < 1e-12


def test_ground_energy_even_in_field():
    for h in (0.3, 1.2, 2.7):
        a = ground_energy(ChainParams(8, 1.0, 0.7, h))
        b = ground_energy(ChainParams(8, 1.0, 0.7, -h))
        assert a == b


def test_ground_energy_coupling_swap():
    for n in (4, 8, 12):
        a = ground_energy(ChainParams(n, 1.0, 0.4, 0.9))
        b = ground_energy(ChainParams(n, 0.4, 1.0, 0.9))
        assert abs(a - b) < 1e-12


def test_ground_energy_monotone_in_field_strength():
    hs = np.linspace(0.0, 3.0, 100)
    energies = [ground_energy(ChainParams(8, 1.0, 0.8, h)) for h in hs]
    assert all(e2 <= e1 + 1e-14 for e1, e2 in zip(energies, energies[1:]))


def test_dispersion_modulus_closed_form():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        jx, jy = rng.uniform(-2, 2, size=2)
        q = rng.uniform(-np.pi, np.pi)
        eps1, eps2 = dispersion(ChainParams(8, jx, jy, 0.0), q)
        lhs = eps1**2 + eps2**2
        rhs = (jx**2 + jy**2 + 2 * jx * jy * np.cos(2 * q)) / 4
        assert abs(lhs - rhs) < 1e-12


def test_ground_energy_scales_with_couplings():
    # A power-of-two scale is exact all the way through; others are rounded
    # once on input.
    p = ChainParams(16, 1.0, 0.8, 0.5)
    e = ground_energy(p)
    assert ground_energy(ChainParams(16, 2.0**-900, 0.8 * 2.0**-900, 0.5 * 2.0**-900)) \
        == e * 2.0**-900
    for scale in (1e-300, 1e-160, 1e150, 1e300):
        scaled = ground_energy(ChainParams(16, scale, 0.8 * scale, 0.5 * scale))
        assert abs(scaled / scale - e) <= 1e-14 * abs(e), scale
    with pytest.raises(ParameterError, match="overflows"):
        ground_energy(ChainParams(16, 1e308, 1e308))


def test_ground_degeneracy_closed_form():
    assert ground_degeneracy(ChainParams(4)) == 2
    assert ground_degeneracy(ChainParams(8, 1.0, 0.8)) == 8
    assert ground_degeneracy(ChainParams(12, 0.0, 1.0)) == 32
    # A field lifts it; with no coupling and no field every even state is ground.
    assert ground_degeneracy(ChainParams(8, 1.0, 1.0, 0.5)) == 1
    assert ground_degeneracy(ChainParams(8, 0.0, 0.0, -1e-300)) == 1
    assert ground_degeneracy(ChainParams(8, 0.0, 0.0, 0.0)) == 128


def test_ground_degeneracy_rejects_bad_sizes():
    # The chain length is checked once, where the ChainParams is built.
    for bad in (6, 0):
        with pytest.raises(ParameterError):
            ground_degeneracy(ChainParams(bad))
    with pytest.raises(ParameterError, match="n_sites must be an integer"):
        ground_degeneracy(ChainParams(12.0))
    assert ground_degeneracy(ChainParams(np.int64(12))) == 32


def test_params_reject_chains_past_exact_momenta():
    # Past 2^53 the odd momentum indices 1, 3, ..., N - 1 are no longer
    # exact floats; the check runs before any grid is allocated.
    ChainParams(2**53)
    for bad in (2**53 + 4, 4 * 10**18):
        with pytest.raises(ParameterError, match="at most 2"):
            ChainParams(bad)
        with pytest.raises(ParameterError):
            momentum_grid(bad)
