"""Closed-form block entropies of gapped chains, with numpy and the math module only.

Each cut's single-particle entanglement energies eps = ln((1 - nu) / nu)
form two ladders in the elliptic nome.  With
k^2 = |J_x J_y| / (((|J_x| + |J_y|) / 2)^2 + h^2) and k'^2 = 1 - k^2,
Delta = 2 pi K(k') / K(k), delta = (pi / K(k)) F(phi, k') and
tan phi = 2 |h| / ||J_x| - |J_y|| (phi = pi/2 at |J_x| = |J_y|):

- a cut on the weaker bond has eps in {(2l + 1) Delta +- delta};
- a cut on the stronger bond has eps in {2l Delta + delta, (2l + 2) Delta - delta},

for l = 0, 1, ...  A block of even L cuts two y bonds, one of odd L one
bond of each type, so S(even L) = 2 S_y and S(odd L) = S_x + S_y once L and
N - L are far past the correlation length.  These are Peschel's
corner-transfer-matrix spectra (J. Stat. Mech. P06004 (2004)) in the
elliptic-integral form of Its, Jin and Korepin (J. Phys. A 38, 2975
(2005)).  The ladder was found by fitting the computed spectra, not
derived here: tan phi matched 2 |h| / ||J_x| - |J_y|| to 8 digits at six
coupling points.  Tests that use it pin a measured identity.
"""

from __future__ import annotations

import math

import numpy as np

# Steps of the arithmetic-geometric mean and of Carlson's duplication; both
# are converged to double precision well before this.
AGM_STEPS = 12
DUPLICATION_STEPS = 30


def complete_k(k: float, k_prime: float) -> float:
    """K(k) = pi / (2 agm(1, k')), with the complementary modulus given separately."""
    a, b = 1.0, k_prime
    for _ in range(AGM_STEPS):
        a, b = (a + b) / 2.0, math.sqrt(a * b)
    return math.pi / (2.0 * a)


def carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson's R_F(x, y, z) by duplication and its fifth-order series."""
    for _ in range(DUPLICATION_STEPS):
        lam = math.sqrt(x * y) + math.sqrt(y * z) + math.sqrt(z * x)
        x, y, z = (x + lam) / 4.0, (y + lam) / 4.0, (z + lam) / 4.0
    mean = (x + y + z) / 3.0
    dx, dy = 1.0 - x / mean, 1.0 - y / mean
    dz = -(dx + dy)
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / math.sqrt(mean)


def incomplete_f(phi: float, m: float) -> float:
    """F(phi | m) = sin phi R_F(cos^2 phi, 1 - m sin^2 phi, 1), 0 <= phi <= pi/2."""
    s, c = math.sin(phi), math.cos(phi)
    return s * carlson_rf(c * c, 1.0 - m * s * s, 1.0)


def ladder_bits(levels: np.ndarray) -> float:
    """sum of H(nu) in bits over entanglement energies eps >= 0, nu = 1 / (1 + e^eps).

    H(nu) = nu eps + log(1 + e^-eps) in nats, a sum of positive terms.
    """
    tail = np.exp(-levels)
    nu = tail / (1.0 + tail)
    return float((nu * levels + np.log1p(tail)).sum() / math.log(2.0))


def cut_entropies(j_x: float, j_y: float, h: float) -> tuple[float, float]:
    """(S_x, S_y): the bits of one cut on an x bond and on a y bond of a gapped chain."""
    ax, ay, h = abs(j_x), abs(j_y), abs(h)
    scale = ((ax + ay) / 2.0) ** 2 + h * h
    k2 = ax * ay / scale
    k_prime2 = (((ax - ay) / 2.0) ** 2 + h * h) / scale
    k, k_prime = math.sqrt(k2), math.sqrt(k_prime2)
    big_k, big_k_prime = complete_k(k, k_prime), complete_k(k_prime, k)
    gap = 2.0 * math.pi * big_k_prime / big_k
    phi = math.atan2(2.0 * h, abs(ax - ay))
    shift = math.pi / big_k * incomplete_f(phi, k_prime2)
    rungs = np.arange(int(800.0 / gap) + 2)
    weaker = np.concatenate([(2 * rungs + 1) * gap + shift, (2 * rungs + 1) * gap - shift])
    stronger = np.concatenate([2 * rungs * gap + shift, (2 * rungs + 2) * gap - shift])
    s_weak, s_strong = ladder_bits(weaker), ladder_bits(stronger)
    return (s_weak, s_strong) if ax < ay else (s_strong, s_weak)


def block_entropy_closed(j_x: float, j_y: float, h: float, block_len: int) -> float:
    """S(L) in bits for a gapped chain whose L and N - L are far past the correlation length."""
    s_x, s_y = cut_entropies(j_x, j_y, h)
    return 2.0 * s_y if block_len % 2 == 0 else s_x + s_y
