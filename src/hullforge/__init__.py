"""Binary linear codes with hull control: lengthening constructions,
desk-scale searches, and entanglement-assisted quantum code parameters."""

from types import ModuleType as _ModuleType

from .buildup import (
    BuildResult,
    ConstructionKind,
    ExtensionVector,
    admissible_distances,
    classify_extension,
    construct,
    predict_distance,
)
from .code import (
    CosetWeightProfile,
    HullReport,
    LinearCode,
    WeightDistribution,
    enumeration_cap,
)
from .corpus import (
    ComparisonRow,
    CorpusEntry,
    MatrixFile,
    QuarantinedEntry,
    TableCell,
    load_comparison,
    load_corpus,
    load_quarantine,
    load_tables,
    parse_matrix_file,
)
from .eaqecc import (
    DerivationPair,
    EaqeccParams,
    QuantumCell,
    QuantumTable,
    derive,
    format_quantum_table,
    quantum_table_from_cells,
    singleton_gap,
    tabulate,
)
from .errors import (
    ClaimViolationError,
    CorpusFormatError,
    CorpusValidationError,
    DimensionError,
    HullforgeError,
    InvalidCodeError,
    NoRankGainError,
    ResourceLimitError,
    UsageError,
    WrongConstructionError,
    WrongParityError,
)
from .gf2 import BitMatrix, BitVector
from .search import (
    EquivalenceVerdict,
    OptimalityClaim,
    SweepRecord,
    are_equivalent,
    best_by_sweep,
    exhaustive_codes,
    hull_census,
    iter_exhaustive,
    sweep_extensions,
)

__version__ = "0.1.0"

# every name imported above, less the submodules the imports bind
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
