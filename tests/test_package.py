"""The package's public surface: the names `from hullforge import *` binds,
and the export list of each submodule."""

import importlib
import pkgutil

import pytest

import hullforge

SUBMODULES = [
    mod for mod in (
        importlib.import_module(f"hullforge.{info.name}")
        for info in pkgutil.iter_modules(hullforge.__path__)
    )
    if hasattr(mod, "__all__")
]

PUBLIC_NAMES = [
    "BitMatrix",
    "BitVector",
    "BuildResult",
    "ClaimViolationError",
    "ComparisonRow",
    "ConstructionKind",
    "CorpusEntry",
    "CorpusFormatError",
    "CorpusValidationError",
    "CosetWeightProfile",
    "DerivationPair",
    "DimensionError",
    "EaqeccParams",
    "EquivalenceVerdict",
    "ExtensionVector",
    "HullReport",
    "HullforgeError",
    "InvalidCodeError",
    "LinearCode",
    "MatrixFile",
    "NoRankGainError",
    "OptimalityClaim",
    "QuantumCell",
    "QuantumTable",
    "QuarantinedEntry",
    "ResourceLimitError",
    "SweepRecord",
    "TableCell",
    "UsageError",
    "WeightDistribution",
    "WrongConstructionError",
    "WrongParityError",
    "admissible_distances",
    "are_equivalent",
    "best_by_sweep",
    "classify_extension",
    "construct",
    "derive",
    "enumeration_cap",
    "exhaustive_codes",
    "format_quantum_table",
    "hull_census",
    "iter_exhaustive",
    "load_comparison",
    "load_corpus",
    "load_quarantine",
    "load_tables",
    "parse_matrix_file",
    "predict_distance",
    "quantum_table_from_cells",
    "singleton_gap",
    "sweep_extensions",
    "tabulate",
]


def test_public_names_are_pinned():
    assert sorted(hullforge.__all__) == PUBLIC_NAMES
    assert len(set(hullforge.__all__)) == len(PUBLIC_NAMES)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from hullforge import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC_NAMES


@pytest.mark.parametrize("mod", SUBMODULES, ids=lambda mod: mod.__name__)
def test_submodule_star_import_binds_exactly_its_export_list(mod):
    assert len(set(mod.__all__)) == len(mod.__all__)
    for name in mod.__all__:
        assert hasattr(mod, name), name
    namespace = {}
    exec(f"from {mod.__name__} import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == sorted(mod.__all__)


def test_package_names_are_exported_by_their_submodule():
    assert {mod.__name__ for mod in SUBMODULES} >= {
        f"hullforge.{m}" for m in ("buildup", "code", "corpus", "eaqecc", "errors", "gf2", "search")
    }
    for name in hullforge.__all__:
        home = importlib.import_module(getattr(hullforge, name).__module__)
        assert name in home.__all__, f"{home.__name__}.__all__ lacks {name}"
