"""Word-packed exact linear algebra over GF(2), at any length.

Bit i of a packed int holds coordinate i, the leftmost character of the
text form "0110..".  One forward elimination (_echelon) serves rank,
membership and the Zassenhaus intersection, the RREF is its
back-substitution, and every parity product v · R^T is _products.  The
results of the operations here skip BitMatrix's checks (_matrix).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionError

__all__ = [
    "BitVector",
    "BitMatrix",
    "rank",
    "mat_mul",
    "transpose",
    "nullspace_basis",
    "row_space_intersection",
    "in_row_space",
]


# ---------------------------------------------------------------------------
# raw-integer kernels


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


def _reduce_against(basis: Sequence[int], v: int) -> int:
    """Reduce v against echelon basis rows (each with a unique low bit)."""
    for b in basis:
        if v & b & -b:  # v holds b's pivot
            v ^= b
    return v


def _echelon(rows: Iterable[int]) -> list[int]:
    """The rows left nonzero after each is reduced against those kept
    before it; their pivots (lowest set bits) are distinct."""
    basis: list[int] = []
    for v in rows:
        v = _reduce_against(basis, v)
        if v:
            basis.append(v)
    return basis


def _back_substitute(rows: Iterable[int]) -> list[int]:
    """The RREF of echelon rows: sorted by pivot, each pivot then cleared
    from the rows above it, last first."""
    out = sorted(rows, key=lambda r: r & -r)
    for i in range(len(out) - 1, 0, -1):
        low = out[i] & -out[i]
        for j in range(i):
            if out[j] & low:
                out[j] ^= out[i]
    return out


def _rref_ints(rows: Sequence[int]) -> tuple[list[int], list[int]]:
    """(RREF rows padded with zero rows to the input's count, pivot columns)."""
    out = _back_substitute(_echelon(rows))
    pivots = [(r & -r).bit_length() - 1 for r in out]
    return out + [0] * (len(rows) - len(out)), pivots


def _products(v: int, rows: Sequence[int]) -> int:
    """Bit i is parity(v & rows[i]): the product v · rows^T."""
    out = 0
    for i, r in enumerate(rows):
        out |= ((v & r).bit_count() & 1) << i
    return out


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


def _matrix(ncols: int, rows: tuple[int, ...]) -> BitMatrix:
    """A BitMatrix without the constructor's checks, for rows built to fit."""
    m = object.__new__(BitMatrix)
    object.__setattr__(m, "ncols", ncols)
    object.__setattr__(m, "row_bits", rows)
    return m


# ---------------------------------------------------------------------------
# operations


def rank(m: BitMatrix) -> int:
    return len(_echelon(m.row_bits))


def row_basis(m: BitMatrix) -> BitMatrix:
    """RREF with zero rows dropped: the canonical basis of the row space."""
    return _matrix(m.ncols, tuple(_back_substitute(_echelon(m.row_bits))))


def transpose(m: BitMatrix) -> BitMatrix:
    cols = [0] * m.ncols
    for i, row in enumerate(m.row_bits):
        bit = 1 << i
        while row:  # one step per set bit
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return _matrix(m.nrows, tuple(cols))


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product; row i of the result is the GF(2) combination of
    b's rows selected by row i of a."""
    if a.ncols != b.nrows:
        raise DimensionError(f"inner dimensions differ: {a.ncols} vs {b.nrows}")
    rows, out = b.row_bits, []
    for sel in a.row_bits:
        acc = 0
        while sel:
            low = sel & -sel
            acc ^= rows[low.bit_length() - 1]
            sel ^= low
        out.append(acc)
    return _matrix(b.ncols, tuple(out))


def gram(m: BitMatrix) -> BitMatrix:
    """m · m^T: the upper triangle, mirrored."""
    rows = m.row_bits
    out = [0] * len(rows)
    for i, a in enumerate(rows):
        for j in range(i, len(rows)):
            if (a & rows[j]).bit_count() & 1:
                out[i] |= 1 << j
                out[j] |= 1 << i
    return _matrix(m.nrows, tuple(out))


def nullspace_basis(m: BitMatrix) -> BitMatrix:
    """Basis of the right nullspace (m · result^T = 0), one row per free
    column in column order: the identity for no rows, 0×n for full rank."""
    n = m.ncols
    rows, pivots = _rref_ints(m.row_bits)
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
    return _matrix(n, tuple(basis))


def row_space_intersection(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Basis of rowspace(a) ∩ rowspace(b) by the Zassenhaus construction.

    In an echelon form of (u | u) for u in a over (v | 0) for v in b, the
    right halves of the rows whose left half vanished span exactly the
    intersection; their pivots are distinct, so one back-substitution
    makes that basis canonical.
    """
    if a.ncols != b.ncols:
        raise DimensionError("width mismatch")
    n = a.ncols
    rows = _echelon([u | (u << n) for u in a.row_bits] + list(b.row_bits))
    return _matrix(n, tuple(_back_substitute(r >> n for r in rows if r >> n << n == r)))


def in_row_space(m: BitMatrix, v: BitVector) -> bool:
    if v.len != m.ncols:
        raise DimensionError("length mismatch")
    return _reduce_against(_echelon(m.row_bits), v.bits) == 0
