"""Small builders the tests share that the package itself does not need."""

from hullforge.corpus import CorpusEntry
from hullforge.errors import DimensionError
from hullforge.gf2 import BitMatrix, _rref_ints


def identity(n: int) -> BitMatrix:
    return BitMatrix(n, tuple(1 << i for i in range(n)))


def zeros(nrows: int, ncols: int) -> BitMatrix:
    return BitMatrix(ncols, (0,) * nrows)


def stack(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    if a.ncols != b.ncols:
        raise DimensionError("width mismatch")
    return BitMatrix(a.ncols, a.row_bits + b.row_bits)


def rref(m: BitMatrix) -> tuple[BitMatrix, list[int]]:
    """Reduced row echelon form plus pivot columns.  Shape-preserving."""
    rows, pivots = _rref_ints(m.row_bits)
    return BitMatrix(m.ncols, tuple(rows)), pivots


def serialize_entry(entry: CorpusEntry) -> str:
    """Canonical text form of a corpus entry; inverse of parse_entry for
    bundled files."""
    out = [f"# {note}" for note in entry.notes]
    if entry.source:
        out.append(f"# source: {entry.source}")
    out.append(f"# optimality: {entry.optimality}")
    out.append(
        f"{entry.claimed_n} {entry.claimed_k} {entry.claimed_d}"
        f" {entry.claimed_h} {entry.label}"
    )
    out.extend(entry.matrix.to_strings())
    return "\n".join(out) + "\n"
