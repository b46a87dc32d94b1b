"""The package's public names, pinned so that removing or adding one is a
deliberate change, and the names the benchmark imports."""

import ast
import importlib
from pathlib import Path

import omega_baire

BENCH = Path(__file__).resolve().parents[1] / "bench"
PACKAGE = Path(omega_baire.__file__).resolve().parent

PUBLIC = [
    "AlphabetMismatch",
    "AutomataError",
    "BadHeader",
    "BadLoop",
    "BadStateIndex",
    "BaireWitness",
    "BuchiSet",
    "BuchiTranslation",
    "CheckResult",
    "DetAutomaton",
    "DuplicateTransition",
    "FormatError",
    "LassoWord",
    "LoopDensity",
    "MaximalLoopReport",
    "MissingTransition",
    "MullerTable",
    "OpenWitness",
    "PreconditionViolated",
    "ProductAutomaton",
    "RandomSpec",
    "SccAnalysis",
    "SizeGuard",
    "SubsetVerdict",
    "TriState",
    "UnknownSymbol",
    "WeakBuchiWitness",
    "WitnessReport",
    "accepts",
    "accepts_buchi",
    "accepts_muller",
    "analyze",
    "boolean_table_op",
    "bounded_lasso_scan",
    "buchi_state_bound",
    "build_baire_witness",
    "build_meagre_complement",
    "build_open_witness",
    "build_weak_buchi_open",
    "check_maximal_loops",
    "classify_loop_density",
    "classify_meagre",
    "classify_openness",
    "enumerate_loops",
    "format_lasso",
    "format_word",
    "inf_set",
    "is_loop",
    "iter_loops",
    "language_subset_oracle",
    "loop_lasso",
    "maximal_muller_buchi_equiv",
    "muller_to_buchi_maximal",
    "parse_automaton",
    "parse_lasso_text",
    "product",
    "random_instance",
    "run",
    "serialize_automaton",
    "step",
    "table_subset_same_automaton",
    "verify_baire_witness",
]


def test_all_is_pinned():
    assert omega_baire.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(omega_baire, name), name


def _bench_imports() -> list[tuple[str, str]]:
    """(module, name) for every `from omega_baire... import name` in the
    benchmark sources, read without importing them."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "omega_baire":
                found.extend((node.module, alias.name) for alias in node.names)
    return found


def test_bench_imports_resolve():
    imports = _bench_imports()
    assert ("omega_baire", "muller_to_buchi_maximal") in imports
    assert ("omega_baire.to_buchi", "VECTORIZE_THRESHOLD") in imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_no_private_names_cross_modules():
    # A `_name` is local to its module; a caller in a sibling module means
    # the name belongs in that module's public part, or the code does.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "omega_baire"
            ):
                found.extend(f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_"))
    assert found == []
