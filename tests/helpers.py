"""Small builders the tests share that the package itself does not need."""

from typing import Iterator

from hullforge.code import LinearCode
from hullforge.corpus import CorpusEntry
from hullforge.errors import DimensionError
from hullforge.gf2 import BitMatrix, BitVector, _rref_ints, parity


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


def dot(a: BitVector, b: BitVector) -> int:
    """Inner product: parity of the coordinatewise AND."""
    if a.len != b.len:
        raise DimensionError("length mismatch")
    return parity(a.bits & b.bits)


def support(v: BitVector) -> tuple[int, ...]:
    return tuple(i for i in range(v.len) if v.bits >> i & 1)


def iter_codewords(code: LinearCode) -> Iterator[int]:
    """All 2^k codewords as packed ints, starting at 0, in the
    binary-reflected Gray order of the messages: message m is the sum
    of the rows at the set bits of m ^ (m >> 1).  code._codeword_chunks
    yields this same sequence in NumPy chunks; this loop is its oracle."""
    rows = code.gen.row_bits
    cw = 0
    prev = 0
    yield 0
    for m in range(1, 1 << code.k):
        g = m ^ (m >> 1)
        cw ^= rows[(g ^ prev).bit_length() - 1]
        prev = g
        yield cw


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
