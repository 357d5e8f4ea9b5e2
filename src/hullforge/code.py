"""Linear codes over GF(2): duality, hull, distance, cosets, covering radius.

A LinearCode holds a full-rank generator: the first independent input
rows by gf2's forward elimination (repaired if any was dropped), and
their echelon.  _of_basis skips the elimination for rows known to be
independent: a nullspace basis, or a lengthened child whose rank
buildup checks.  Derived data is computed on first request and cached,
immutable.  The hull dimension is k - rank(G G^T); hull() adds a
Zassenhaus basis and raises ClaimViolationError if its size disagrees.

The 2^k codewords come from one NumPy kernel, _codeword_chunks, in Gray
order, in chunks of at most 2^CHUNK_BITS words times lanes; for k <=
CHUNK_BITS a code caches its one chunk (2 MB at most for n <= 64) for
its weights, coset leaders and equivalence profiles.  The covering
radius fills a uint8 table of the 2^(n-k) syndromes by one
_min_plus_pass per distinct column of H, as the sweep's coset kernel does.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import gf2
from .errors import (
    ClaimViolationError,
    DimensionError,
    InvalidCodeError,
    NoRankGainError,
    ResourceLimitError,
)
from .gf2 import BitMatrix, BitVector

__all__ = [
    "LinearCode",
    "HullReport",
    "WeightDistribution",
    "CosetWeightProfile",
    "enumeration_cap",
    "DEFAULT_MAX_K",
    "SYNDROME_CAP",
]

DEFAULT_MAX_K = 28
SYNDROME_CAP = 24
CHUNK_BITS = 18  # enumeration kernels hold at most 2^CHUNK_BITS words or lanes
_GRAY_HEAD = 8  # one code's first rows of the table by one running XOR
_MAX_K_ENV = "HULLFORGE_MAX_K"


def enumeration_cap() -> int:
    """Message-enumeration cap; override with HULLFORGE_MAX_K."""
    raw = os.environ.get(_MAX_K_ENV)
    if raw is None:
        return DEFAULT_MAX_K
    try:
        return int(raw)
    except ValueError:
        raise ResourceLimitError(f"bad {_MAX_K_ENV} value: {raw!r}")


def _check_enum(k: int) -> None:
    cap = enumeration_cap()
    if k > cap:
        msg = f"enumeration over 2^{k} codewords exceeds cap k <= {cap}"
        raise ResourceLimitError(msg, limit=cap, requested=k)


@dataclass(frozen=True)
class HullReport:
    h: int
    basis: BitMatrix
    is_lcd: bool
    is_self_orthogonal: bool
    is_self_dual: bool


@dataclass(frozen=True)
class WeightDistribution:
    """Sparse weight enumerator: only weights that occur are listed."""

    counts: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    def __getitem__(self, w: int) -> int:
        return self.as_dict().get(w, 0)

    @property
    def total(self) -> int:
        return sum(c for _, c in self.counts)

    @property
    def min_positive_weight(self) -> int:
        for w, _ in self.counts:
            if w > 0:
                return w
        raise InvalidCodeError("no nonzero codeword")

    def __str__(self) -> str:
        return "[" + ", ".join(f"<{w}, {c}>" for w, c in self.counts) + "]"


@dataclass(frozen=True)
class CosetWeightProfile:
    x: BitVector
    min_weight: int
    leader: BitVector


def _limbs(values: Sequence[int], n: int) -> np.ndarray:
    """Packed n-bit ints as a (len(values), ceil(n/64)) array of uint64
    limbs, least significant first."""
    if n <= 64:
        return np.array(values, dtype=np.uint64).reshape(len(values), 1)
    nlimbs = -(-n // 64)
    data = b"".join(v.to_bytes(8 * nlimbs, "little") for v in values)
    return np.frombuffer(data, dtype="<u8").reshape(len(values), nlimbs)


def _weights(words: np.ndarray) -> np.ndarray:
    """Hamming weight of each limb row, summed over the last axis."""
    counts = np.bitwise_count(words)
    return counts[..., 0] if counts.shape[-1] == 1 else counts.sum(axis=-1, dtype=np.uint16)


@cache
def _gray_steps() -> np.ndarray:
    """The row changed at Gray step m = 1 .. 2^_GRAY_HEAD - 1: m's lowest set bit."""
    m = np.arange(1, 1 << _GRAY_HEAD)
    return (np.bitwise_count(m ^ (m - 1)) - 1).astype(np.intp)


def _codeword_chunks(rows: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """All 2^k sums of the k rows, word m being the sum of the rows at the
    set bits of m ^ (m >> 1), in chunks of shape (words, *lanes, limbs) of
    at most 2^CHUNK_BITS words times lanes (and at least one word).  Rows:
    the (k, limbs) array from _limbs for one code, or a list of (lanes, 1)
    arrays for one free row of many codes.

    The low rows build one table: word m is word m - 1 XOR the row at the
    lowest set bit of m, so one code's first _GRAY_HEAD rows take one
    gather and one running XOR; each later row i appends the table so far
    reversed and XORed with row i.  The high rows step through their own
    Gray order, and the odd steps read the low table backwards.
    """
    k = len(rows)
    _check_enum(k)
    shape = rows[0].shape
    lanes = rows[0].size // shape[-1]
    low = min(k, max(0, CHUNK_BITS - (lanes - 1).bit_length()))
    table = np.empty((1 << low, *shape), dtype=rows[0].dtype)
    table[0] = 0
    head = min(low, _GRAY_HEAD) if isinstance(rows, np.ndarray) else 0
    if head:
        table[1 : 1 << head] = rows[_gray_steps()[: (1 << head) - 1]]
        np.bitwise_xor.accumulate(table[: 1 << head], axis=0, out=table[: 1 << head])
    for i in range(head, low):
        np.bitwise_xor(table[(1 << i) - 1 :: -1], rows[i], out=table[1 << i : 2 << i])
    yield table
    acc = np.zeros(shape, dtype=rows[0].dtype)
    for m in range(1, 1 << (k - low)):
        acc ^= rows[low + (m & -m).bit_length() - 1]
        yield (table[::-1] if m & 1 else table) ^ acc


_FLIP = {"0": slice(None), "1": slice(None, None, -1)}


def _min_plus_pass(cube: np.ndarray, move: int) -> None:
    """d[s] = min(d[s], d[s ^ move] + 1) in place over a bit cube (or a
    basic-slice view of one), s its C-order index: the view d[s ^ move]
    reverses the axes of move's set bits, the last axis holding bit 0."""
    np.minimum(cube, cube[tuple(map(_FLIP.get, format(move, f"0{cube.ndim}b")))] + 1, out=cube)


class LinearCode:
    """An [n, k] binary linear code held by a full-rank generator matrix."""

    def __init__(self, gen: BitMatrix):
        rows, basis = [], []  # the first independent input rows, and their echelon
        for b in gen.row_bits:
            v = gf2._reduce_against(basis, b)
            if v:
                basis.append(v)
                rows.append(b)
        if not rows:
            raise InvalidCodeError("generator has rank 0")
        self.repaired = len(rows) != gen.nrows  # dependent rows were dropped
        if self.repaired:
            gen = BitMatrix(gen.ncols, tuple(rows))
        self.gen = gen
        self.n = gen.ncols
        self.k = gen.nrows
        self._echelon = tuple(basis)

    @classmethod
    def _of_basis(cls, gen: BitMatrix) -> "LinearCode":
        """The code of rows known to be independent, without an elimination."""
        code = cls.__new__(cls)
        code.gen, code.n, code.k, code.repaired = gen, gen.ncols, gen.nrows, False
        return code

    @cached_property
    def _echelon(self) -> tuple[int, ...]:
        """Echelon rows: v reduces to 0 against them iff v is a codeword."""
        return tuple(gf2._echelon(self.gen.row_bits))

    # --- construction helpers -------------------------------------------

    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> "LinearCode":
        return cls(BitMatrix.from_strings(rows))

    def __repr__(self) -> str:
        return f"LinearCode[{self.n},{self.k}]"

    def canonical_gen(self) -> BitMatrix:
        """Unique reduced-echelon generator; equal iff same code."""
        return gf2.row_basis(self.gen)

    def same_row_space(self, other: "LinearCode") -> bool:
        return (self.n, self.k) == (other.n, other.k) and (
            self.canonical_gen() == other.canonical_gen()
        )

    def contains(self, v: BitVector) -> bool:
        return gf2.in_row_space(self.gen, v)

    # --- duality and hull -----------------------------------------------

    @cached_property
    def _dual_code(self) -> "LinearCode":
        if self.k == self.n:
            raise InvalidCodeError("full-space code has a 0-dimensional dual")
        h = gf2.nullspace_basis(self.gen)
        if h.nrows != self.n - self.k:  # independent rows: each holds its own free column
            raise ClaimViolationError(f"[{self.n},{self.k}] code: dual has {h.nrows} rows")
        return LinearCode._of_basis(h)

    def dual(self) -> "LinearCode":
        return self._dual_code

    def parity_check(self) -> BitMatrix:
        return self.dual().gen

    @cached_property
    def _hull_dim(self) -> int:
        return self.k - gf2.rank(gf2.gram(self.gen))

    def hull_dim(self) -> int:
        """k - rank(G G^T): the hull is the kernel of the Gram form on C."""
        return self._hull_dim

    @cached_property
    def _hull_report(self) -> HullReport:
        h = self.hull_dim()
        if self.k == self.n:  # the dual is {0}
            basis = BitMatrix(self.n, ())
        else:
            basis = gf2.row_space_intersection(self.gen, self.dual().gen)
        if basis.nrows != h:
            raise ClaimViolationError(
                f"hull disagreement: product rank gives {h}, intersection gives {basis.nrows}"
            )
        self_orth = h == self.k
        return HullReport(h=h, basis=basis, is_lcd=h == 0, is_self_orthogonal=self_orth,
                          is_self_dual=self_orth and self.n == 2 * self.k)

    def hull(self) -> HullReport:
        """Hull report with a Zassenhaus basis of C ∩ C⊥, built on first call."""
        return self._hull_report

    # --- enumeration-backed quantities ------------------------------------

    @cached_property
    def _table(self) -> np.ndarray:
        table = next(_codeword_chunks(_limbs(self.gen.row_bits, self.n)))
        table.setflags(write=False)
        return table

    def _codewords(self) -> Iterable[np.ndarray]:
        """_codeword_chunks, from the cached table when it is one chunk."""
        if self.k <= CHUNK_BITS:
            return (self._table,)
        return _codeword_chunks(_limbs(self.gen.row_bits, self.n))

    @cached_property
    def _weight_distribution(self) -> WeightDistribution:
        if self.k <= CHUNK_BITS and self.n <= 64:  # one chunk of one limb
            counts = np.bincount(np.bitwise_count(self._table).ravel(), minlength=self.n + 1)
        else:
            counts = sum(np.bincount(_weights(w), minlength=self.n + 1) for w in self._codewords())
        return WeightDistribution(tuple((w, c) for w, c in enumerate(counts.tolist()) if c))

    def weight_distribution(self) -> WeightDistribution:
        return self._weight_distribution

    def min_distance(self) -> int:
        return self.weight_distribution().min_positive_weight

    def coset_min_weight(self, x: BitVector) -> CosetWeightProfile:
        """Least weight in the coset x + C, and its leader: the first
        vector x + c of that weight, with c in _codeword_chunks order."""
        if x.len != self.n:
            raise DimensionError("coset representative has wrong length")
        target = _limbs([x.bits], self.n)[0]
        best = None
        for words in self._codewords():
            coset = words ^ target
            weights = _weights(coset)
            at = int(weights.argmin())
            if best is None or weights[at] < best:
                best, leader = int(weights[at]), coset[at]
                if best == 0:
                    break
        leader = int.from_bytes(leader.astype("<u8").tobytes(), "little")
        return CosetWeightProfile(x=x, min_weight=best, leader=BitVector(self.n, leader))

    def covering_radius(self) -> int:
        """Largest coset-leader weight over the 2^(n-k) syndromes.

        One min-plus pass per distinct nonzero column of H is exact: the
        moves are commuting involutions, so a leader uses each at most once.
        """
        r = self.n - self.k
        if r == 0:
            return 0
        if r > SYNDROME_CAP:
            msg = f"syndrome table of 2^{r} entries exceeds cap n-k <= {SYNDROME_CAP}"
            raise ResourceLimitError(msg, limit=SYNDROME_CAP, requested=r)
        # a leader weighs at most rank H <= r, so r + 1 marks the unreached
        # and r + 2 still fits in uint8 (n + 1 would wrap from n = 255)
        dist = np.full(1 << r, r + 1, dtype=np.uint8)
        dist[0] = 0
        cube = dist.reshape((2,) * r)
        for s in set(gf2.transpose(self.parity_check()).row_bits) - {0}:
            _min_plus_pass(cube, s)
        remaining = int(np.count_nonzero(dist > r))
        if remaining:
            raise ClaimViolationError(
                f"{remaining} of 2^{r} syndromes have no coset leader of weight <= {self.n}"
            )
        return int(dist.max())

    # --- lengthening by one coordinate ------------------------------------

    def augment(self, v: BitVector) -> "LinearCode":
        """[n+1, k+1] code spanned by (1 | v) and (0 | row) for each row.

        The new coordinate sits in front.  v must lie outside the code;
        a coset leader of large weight is the useful choice.
        """
        if v.len != self.n:
            raise DimensionError("augmenting vector has wrong length")
        if self.contains(v):
            raise NoRankGainError("vector already lies in the code")
        rows = (1 | v.bits << 1, *(b << 1 for b in self.gen.row_bits))
        return LinearCode(BitMatrix(self.n + 1, rows))
