"""The top-level API: exactly the names the README, demos and bench call.

The expected set is read from those files, not kept by hand: the names the
README's Python block and the demos import from kitaevchain, the
kitaevchain.<name> uses in the bench, and the three errors a caller may
catch.  A name nothing uses cannot enter __all__, and a name they use
cannot leave it.  Everything else is imported from its submodule.
"""

import ast
import inspect
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
ERRORS = {"KitaevChainError", "ParameterError", "SizeError"}


def _top_level_imports(source: str) -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "kitaevchain"
            for alias in node.names}


def _attribute_uses(source: str) -> set[str]:
    """The <name> of every kitaevchain.<name>, under whatever name the package is imported."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "kitaevchain"}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases}


def _import_sources() -> dict[str, str]:
    readme = (ROOT / "README.md").read_text()
    [python_block] = [block.split("\n", 1)[1] for block in readme.split("```")[1::2]
                      if block.startswith("python\n")]
    sources = {"README.md": python_block}
    sources.update({path.name: path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))})
    return sources


def _expected_public() -> set[str]:
    names = set(ERRORS)
    for source in _import_sources().values():
        names |= _top_level_imports(source)
    for path in (ROOT / "bench" / "workloads.py", ROOT / "bench" / "test_bench.py"):
        names |= {name for name in _attribute_uses(path.read_text())
                  if not inspect.ismodule(getattr(kitaevchain, name, None))}
    return names


def test_all_is_pinned_and_resolves():
    expected = _expected_public()
    assert len(kitaevchain.__all__) == len(set(kitaevchain.__all__))
    assert set(kitaevchain.__all__) == expected | {"__version__"}
    for name in kitaevchain.__all__:
        assert getattr(kitaevchain, name) is not None, name


def test_one_error_per_kind():
    # Every rejected argument is a ParameterError; only the kinds a caller
    # may want to catch apart have their own class.
    classes = {name for name, obj in vars(exceptions).items()
               if isinstance(obj, type) and issubclass(obj, Exception)}
    assert classes == ERRORS | {"ConvergenceError"}
    for name in classes:
        assert issubclass(getattr(exceptions, name), kitaevchain.KitaevChainError), name


def test_readme_and_demos_import_only_public_names():
    for where, source in _import_sources().items():
        names = _top_level_imports(source)
        assert names, where
        assert names <= set(kitaevchain.__all__), (where, names - set(kitaevchain.__all__))


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


def test_pairing_lays_out_g_d_and_entropy_reduces_it():
    # pairing builds G's tables and lays out blocks of G D; every eigensolve
    # or QR that reduces a block to occupations lives in entropy, which reads
    # only public pairing names.  pairing reaches entropy only at call time.
    package = ROOT / "src" / "kitaevchain"
    pairing = ast.parse((package / "pairing.py").read_text())
    called = {node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
              for node in ast.walk(pairing)
              if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))}
    assert not called & {"eigvalsh", "eigh", "qr"}, called & {"eigvalsh", "eigh", "qr"}
    assert not [node for node in pairing.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                and (node.module == "entropy"
                     or node.module is None and "entropy" in {a.name for a in node.names})]
    entropy = ast.parse((package / "entropy.py").read_text())
    from_pairing = {alias.name for node in ast.walk(entropy)
                    if isinstance(node, ast.ImportFrom) and node.module == "pairing"
                    for alias in node.names}
    assert from_pairing and not {name for name in from_pairing if name.startswith("_")}
