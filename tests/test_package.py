"""The package's public surface: the names `from hullforge import *` binds."""

import hullforge

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
    "construct_I",
    "construct_II",
    "construct_III",
    "construct_IV",
    "derive",
    "enumeration_cap",
    "exhaustive_codes",
    "format_quantum_table",
    "from_generator",
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
