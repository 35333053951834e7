"""Exact ground-state entanglement for the alternating-bond spin chain.

The chain couples odd bonds through x spins and even bonds through y spins,
with a uniform transverse field.  A momentum-space pairing construction
reduces ground-state block entanglement to an eigenproblem linear in the
chain length; a brute-force diagonalization oracle checks it at small sizes.
"""

from .entropy import (
    EntanglementSpectrum,
    FitResult,
    SchmidtSpectrum,
    block_entropy,
    block_entropy_curve,
    block_spectra,
    entanglement_spectrum,
    enumerate_spectrum,
    fit_log_slope,
    schmidt_numbers,
)
from .exceptions import (
    ConvergenceError,
    DimensionError,
    KitaevChainError,
    NormalizationError,
    ParameterError,
    SingularModeError,
    SizeError,
    SymmetryError,
    ValidityError,
)
from .model import (
    ChainParams,
    dispersion,
    ground_degeneracy,
    ground_energy,
    momentum_grid,
)
from .pairing import (
    BlockCoupling,
    PairingMatrix,
    block_coupling,
    block_occupations,
    majorana_block,
    majorana_occupations,
    majorana_table,
    pair_amplitudes,
    pair_correlations,
    real_space_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "BlockCoupling",
    "ChainParams",
    "ConvergenceError",
    "DimensionError",
    "EntanglementSpectrum",
    "FitResult",
    "KitaevChainError",
    "NormalizationError",
    "PairingMatrix",
    "ParameterError",
    "SchmidtSpectrum",
    "SingularModeError",
    "SizeError",
    "SymmetryError",
    "ValidityError",
    "block_coupling",
    "block_entropy",
    "block_entropy_curve",
    "block_occupations",
    "block_spectra",
    "dispersion",
    "entanglement_spectrum",
    "enumerate_spectrum",
    "fit_log_slope",
    "ground_degeneracy",
    "ground_energy",
    "majorana_block",
    "majorana_occupations",
    "majorana_table",
    "momentum_grid",
    "pair_amplitudes",
    "pair_correlations",
    "real_space_gamma",
    "schmidt_numbers",
    "__version__",
]
