"""Word-packed exact linear algebra over GF(2).

Vectors and matrices are stored as Python integers, one bit per
coordinate, with bit i holding coordinate i (so the leftmost character
of the text form "0110.." is bit 0).  Arbitrary lengths are supported;
everything here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionError

__all__ = [
    "BitVector",
    "BitMatrix",
    "dot",
    "rank",
    "mat_mul",
    "transpose",
    "nullspace_basis",
    "row_space_intersection",
    "in_row_space",
]


# ---------------------------------------------------------------------------
# raw-integer kernels; row lists are little-endian packed ints


def bits_from01(s: str) -> int:
    """Pack a 01-string, leftmost char = coordinate 0 = bit 0."""
    if s.strip("01"):  # empty exactly when every character is 0 or 1
        bad = next(ch for ch in s if ch not in "01")
        raise ValueError(f"bad character {bad!r} in bit string")
    return int(s[::-1], 2) if s else 0


def bits_to01(bits: int, n: int) -> str:
    return format(bits, f"0{n}b")[::-1] if n else ""


def parity(x: int) -> int:
    return x.bit_count() & 1


def _rref_ints(rows: Sequence[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form.  Returns (rows, pivot columns).

    Rows join a fully reduced basis keyed by pivot (lowest set bit, the
    leftmost column); the RREF is unique, so sorting by pivot gives it.
    Zero rows sink to the bottom; the output keeps the input's row count.
    """
    basis: dict[int, int] = {}  # pivot bit -> row
    for v in rows:
        for low, b in basis.items():
            if v & low:
                v ^= b
        if v:
            low = v & -v
            for other, b in basis.items():
                if b & low:
                    basis[other] = b ^ v
            basis[low] = v
    lows = sorted(basis)
    out = [basis[low] for low in lows] + [0] * (len(rows) - len(lows))
    return out, [low.bit_length() - 1 for low in lows]


def _reduce_against(basis: list[int], v: int) -> int:
    """Reduce v against echelon basis rows (each with a unique low bit)."""
    for b in basis:
        low = b & -b
        if v & low:
            v ^= b
    return v


class _Span:
    """Incremental row-space tracker over packed ints."""

    def __init__(self, rows: Iterable[int] = ()):
        self.basis: list[int] = []
        for r in rows:
            self.add(r)

    def add(self, v: int) -> bool:
        v = _reduce_against(self.basis, v)
        if v == 0:
            return False
        self.basis.append(v)
        return True

    def contains(self, v: int) -> bool:
        return _reduce_against(self.basis, v) == 0

    @property
    def dim(self) -> int:
        return len(self.basis)


# ---------------------------------------------------------------------------
# value types


@dataclass(frozen=True)
class BitVector:
    """Immutable vector over GF(2); bit i of `bits` is coordinate i."""

    len: int
    bits: int

    def __post_init__(self):
        if self.len < 0:
            raise DimensionError("negative length")
        if self.bits < 0 or self.bits >> self.len:
            raise DimensionError("bits outside declared length")

    @classmethod
    def from01(cls, s: str) -> "BitVector":
        return cls(len(s), bits_from01(s))

    def __len__(self) -> int:
        return self.len

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.len:
            raise IndexError(i)
        return self.bits >> i & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.len != other.len:
            raise DimensionError("length mismatch")
        return BitVector(self.len, self.bits ^ other.bits)

    __add__ = __xor__

    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.len) if self.bits >> i & 1)

    def is_zero(self) -> bool:
        return self.bits == 0

    def to01(self) -> str:
        return bits_to01(self.bits, self.len)

    def __str__(self) -> str:
        return self.to01()


@dataclass(frozen=True)
class BitMatrix:
    """Immutable matrix over GF(2), stored as one packed int per row."""

    ncols: int
    row_bits: tuple[int, ...]

    def __post_init__(self):
        if self.ncols < 0:
            raise DimensionError("negative column count")
        rows = tuple(self.row_bits)
        object.__setattr__(self, "row_bits", rows)
        if rows and (min(rows) < 0 or max(rows) >> self.ncols):
            raise DimensionError("row exceeds declared width")

    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> "BitMatrix":
        if not rows:
            raise DimensionError("cannot infer width of an empty matrix")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise DimensionError("ragged rows")
        return cls(n, tuple(bits_from01(r) for r in rows))

    @property
    def nrows(self) -> int:
        return len(self.row_bits)

    @property
    def rows(self) -> tuple[BitVector, ...]:
        return tuple(BitVector(self.ncols, b) for b in self.row_bits)

    def row(self, i: int) -> BitVector:
        return BitVector(self.ncols, self.row_bits[i])

    def to_strings(self) -> list[str]:
        if not self.ncols:
            return [""] * self.nrows
        spec = f"0{self.ncols}b"  # as in bits_to01, built once per matrix
        return [format(b, spec)[::-1] for b in self.row_bits]

    def __str__(self) -> str:
        return "\n".join(self.to_strings())


# ---------------------------------------------------------------------------
# operations


def dot(a: BitVector, b: BitVector) -> int:
    """Inner product: parity of the coordinatewise AND."""
    if a.len != b.len:
        raise DimensionError("length mismatch")
    return parity(a.bits & b.bits)


def rank(m: BitMatrix) -> int:
    return _Span(m.row_bits).dim


def row_basis(m: BitMatrix) -> BitMatrix:
    """RREF with zero rows dropped: the canonical basis of the row space."""
    rows, pivots = _rref_ints(m.row_bits, m.ncols)
    return BitMatrix(m.ncols, tuple(rows[: len(pivots)]))


def transpose(m: BitMatrix) -> BitMatrix:
    cols = []
    for j in range(m.ncols):
        v = 0
        for i, row in enumerate(m.row_bits):
            v |= (row >> j & 1) << i
        cols.append(v)
    return BitMatrix(m.nrows, tuple(cols))


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product; row i of the result is the GF(2) combination of
    b's rows selected by row i of a."""
    if a.ncols != b.nrows:
        raise DimensionError(f"inner dimensions differ: {a.ncols} vs {b.nrows}")
    out = []
    for sel in a.row_bits:
        acc = 0
        x = sel
        while x:
            i = (x & -x).bit_length() - 1
            acc ^= b.row_bits[i]
            x &= x - 1
        out.append(acc)
    return BitMatrix(b.ncols, tuple(out))


def gram(m: BitMatrix) -> BitMatrix:
    """m · m^T without materializing the transpose."""
    out = []
    for a in m.row_bits:
        v = 0
        for j, b in enumerate(m.row_bits):
            v |= ((a & b).bit_count() & 1) << j
        out.append(v)
    return BitMatrix(m.nrows, tuple(out))


def nullspace_basis(m: BitMatrix) -> BitMatrix:
    """Basis of the right nullspace: m · result^T = 0.

    Rows are emitted in order of the free column they are built from,
    so the result is deterministic.  An empty constraint set yields the
    identity; a full-rank square matrix yields a 0×n result.
    """
    n = m.ncols
    rows, pivots = _rref_ints(m.row_bits, n)
    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = 1 << f
        for r, p in enumerate(pivots):
            if rows[r] >> f & 1:
                v |= 1 << p
        basis.append(v)
    return BitMatrix(n, tuple(basis))


def row_space_intersection(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Basis of rowspace(a) ∩ rowspace(b) by the Zassenhaus construction.

    Stack (u | u) for u in a over (v | 0) for v in b and row-reduce; the
    right halves of the rows whose left half vanished span exactly the
    intersection.
    """
    if a.ncols != b.ncols:
        raise DimensionError("width mismatch")
    n = a.ncols
    rows = [u | (u << n) for u in a.row_bits]
    rows += list(b.row_bits)
    reduced, pivots = _rref_ints(rows, 2 * n)
    mask = (1 << n) - 1
    out = []
    for r in reduced[: len(pivots)]:
        if r & mask == 0:
            out.append(r >> n)
    # re-reduce the extracted halves so the basis is canonical
    reduced2, pivots2 = _rref_ints(out, n)
    return BitMatrix(n, tuple(reduced2[: len(pivots2)]))


def in_row_space(m: BitMatrix, v: BitVector) -> bool:
    if v.len != m.ncols:
        raise DimensionError("length mismatch")
    return _Span(m.row_bits).contains(v.bits)
