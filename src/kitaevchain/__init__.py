"""Exact ground-state entanglement for the alternating-bond spin chain.

The chain couples odd bonds through x spins and even bonds through y spins,
with a uniform transverse field.  A momentum-space pairing construction
reduces ground-state block entanglement to an eigenproblem linear in the
block length; a brute-force diagonalization oracle checks it at small sizes.

The top level holds the calls the README and demos use and the errors they
raise; every other name is imported from its submodule.
"""

from .entropy import (
    block_entropy,
    block_entropy_curve,
    block_spectra,
    entanglement_spectrum,
    fit_log_slope,
    schmidt_numbers,
)
from .exceptions import KitaevChainError, ParameterError, SizeError
from .model import ChainParams, ground_degeneracy, ground_energy
from .pairing import block_coupling, real_space_gamma

__version__ = "0.1.0"

__all__ = [
    "ChainParams",
    "KitaevChainError",
    "ParameterError",
    "SizeError",
    "block_coupling",
    "block_entropy",
    "block_entropy_curve",
    "block_spectra",
    "entanglement_spectrum",
    "fit_log_slope",
    "ground_degeneracy",
    "ground_energy",
    "real_space_gamma",
    "schmidt_numbers",
    "__version__",
]
