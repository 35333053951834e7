"""Exact solution data for the alternating-bond chain in a transverse field.

The chain couples x spin components on odd bonds with strength J_x and y
components on even bonds with strength J_y, with a field h along z and
periodic closure, so the bond (N, 1) is a J_y bond.  A Jordan-Wigner map
turns the chain into free fermions; in the even fermion-parity sector the
allowed momenta are k = +-(2j-1) pi/N, and the problem splits into N/4
uncoupled four-momentum groups labelled by q in (0, pi/2).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ParameterError, SizeError


def _index(name: str, value) -> int:
    """value as a Python int; a float, even a whole one, or a bool is rejected."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None


def _check_sites(n_sites: int) -> int:
    """n_sites as a Python int, once it is a multiple of 4 in [4, 2^53]."""
    n_sites = _index("n_sites", n_sites)
    if n_sites < 4 or n_sites % 4 != 0:
        raise ParameterError(
            f"n_sites must be a multiple of 4 and at least 4, got {n_sites}"
        )
    # Past 2^53 the momentum grid's odd indices are no longer exact floats.
    if n_sites > 2**53:
        raise ParameterError(f"n_sites must be at most 2**53, got {n_sites}")
    return n_sites


@dataclass(frozen=True)
class ChainParams:
    """Chain size and couplings.  Couplings and field: any finite reals, kept as floats."""

    n_sites: int
    j_x: float = 1.0
    j_y: float = 1.0
    h_field: float = 0.0

    def __post_init__(self):
        # A numpy integer would carry its fixed width into every size product.
        object.__setattr__(self, "n_sites", _check_sites(self.n_sites))
        for name in ("j_x", "j_y", "h_field"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ParameterError(f"{name} must be a real number, got {value!r}")
            try:
                value = float(value)
            except OverflowError:
                raise ParameterError(
                    f"{name} must be finite, got a magnitude past 1.8e308"
                ) from None
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)


def momentum_grid(n_sites: int) -> np.ndarray:
    """The N/2 positive antiperiodic momenta (2j-1) pi/N, ascending.

    The first N/4 of them, those below pi/2, are the group labels q.
    """
    n_sites = _check_sites(n_sites)
    return np.arange(1, n_sites, 2, dtype=float) * np.pi / n_sites


def unit_scaled(p: ChainParams) -> tuple[ChainParams, int]:
    """p with couplings and field scaled by 2^-e so the largest lies in [1, 2), and e.

    Every ground-state amplitude depends only on the ratios J_x : J_y : h,
    and the energy scales with them, so the sums and squares that follow
    can run on the scaled values without overflow or underflow.  A power of
    two is exact: couplings already of order one are left untouched (e = 0),
    and any other scale changes no ratio.
    """
    e = math.frexp(max(abs(p.j_x), abs(p.j_y), abs(p.h_field)))[1] - 1
    if e == 0:
        return p, 0
    scaled = {name: math.ldexp(getattr(p, name), -e) for name in ("j_x", "j_y", "h_field")}
    return replace(p, **scaled), e


def dispersion(p: ChainParams, q) -> tuple:
    """Real and imaginary dispersion parts: 2 eps_q = J_x e^{-iq} + J_y e^{iq}."""
    eps1 = 0.5 * (p.j_x + p.j_y) * np.cos(q)
    eps2 = 0.5 * (p.j_y - p.j_x) * np.sin(q)
    return eps1, eps2


def ground_energy(p: ChainParams) -> float:
    """Ground-state energy: every mode contributes -4 sqrt(|eps_q|^2 + h^2).

    Even in h, and invariant under swapping J_x with J_y.  Raises
    ParameterError if the energy overflows a float.
    """
    qs = momentum_grid(p.n_sites)[: p.n_sites // 4]
    unit, e = unit_scaled(p)
    eps1, eps2 = dispersion(unit, qs)
    energy = float(-4.0 * np.sum(np.sqrt(eps1**2 + eps2**2 + unit.h_field**2)))
    try:
        return math.ldexp(energy, e)
    except OverflowError:
        raise ParameterError(f"ground energy overflows a float at {p}") from None


def ground_degeneracy(p: ChainParams) -> int:
    """Even-sector ground-state degeneracy.

    A field lifts it completely: 1 at h != 0.  At h = 0 the even sector
    holds 2^(N/2 - 1) ground states unless both couplings vanish; then
    H = 0 and the whole even sector, 2^(N - 1) states, is ground.  A count
    too big for memory as an int raises SizeError at once.
    """
    if p.h_field != 0.0:
        return 1
    bits = p.n_sites - 1 if p.j_x == p.j_y == 0.0 else p.n_sites // 2 - 1
    try:
        return 1 << bits
    except MemoryError:
        raise SizeError(f"ground degeneracy 2^{bits} does not fit in memory") from None
