"""The top-level API: exactly the names the README, demos and bench call.

Everything else is imported from its submodule, so a name added to or
dropped from kitaevchain.__all__ must show up here.
"""

import ast
from pathlib import Path

import numpy as np

import kitaevchain
from kitaevchain import (
    exceptions,
    ChainParams,
    block_coupling,
    block_entropy,
    entanglement_spectrum,
    real_space_gamma,
    schmidt_numbers,
)

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "ChainParams",
    "EntanglementSpectrum",
    "FitResult",
    "KitaevChainError",
    "ParameterError",
    "SingularModeError",
    "SizeError",
    "block_coupling",
    "block_entropy",
    "block_entropy_curve",
    "block_spectra",
    "entanglement_spectrum",
    "enumerate_spectrum",
    "fit_log_slope",
    "ground_degeneracy",
    "ground_energy",
    "real_space_gamma",
    "schmidt_numbers",
    "__version__",
]


def test_all_is_pinned_and_resolves():
    assert kitaevchain.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(kitaevchain, name) is not None, name


def test_one_error_per_kind():
    # Every rejected argument is a ParameterError; only the kinds a caller
    # may want to catch apart have their own class.
    classes = {name for name, obj in vars(exceptions).items()
               if isinstance(obj, type) and issubclass(obj, Exception)}
    assert classes == {"KitaevChainError", "ParameterError", "SingularModeError", "SizeError",
                       "ConvergenceError"}
    for name in classes:
        assert issubclass(getattr(exceptions, name), kitaevchain.KitaevChainError), name


def _top_level_imports(source: str) -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "kitaevchain"
            for alias in node.names}


def test_readme_and_demos_import_only_public_names():
    readme = (ROOT / "README.md").read_text()
    [python_block] = [block.split("\n", 1)[1] for block in readme.split("```")[1::2]
                      if block.startswith("python\n")]
    sources = {"README.md": python_block}
    sources.update({path.name: path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))})
    for where, source in sources.items():
        names = _top_level_imports(source)
        assert names, where
        assert names <= set(PUBLIC), (where, names - set(PUBLIC))


def test_reference_chain_hands_occupations_to_bits():
    # The bench's half-block chain: gamma, the block's coupling, the kept
    # occupations as a plain array, then bits and the top of the spectrum.
    p = ChainParams(12, 1.0, 0.8, 0.5)
    nu = schmidt_numbers(block_coupling(real_space_gamma(p), 6))
    assert isinstance(nu, np.ndarray) and nu.shape == (6,)
    assert 0.0 < block_entropy(nu) <= 6.0
    lambdas = entanglement_spectrum(nu, 16).lambdas
    assert isinstance(lambdas, np.ndarray) and len(lambdas) == 16
    assert np.all(np.diff(lambdas) <= 0.0) and lambdas.sum() <= 1.0 + 1e-12
