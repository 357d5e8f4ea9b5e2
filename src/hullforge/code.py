"""Linear codes over GF(2): duality, hull, distance, cosets, covering radius.

A LinearCode wraps a full-rank generator matrix: the first independent
input rows, by gf2's forward elimination (repaired if any was dropped).
Derived data (hull dimension, dual, hull report, weight distribution)
is computed on first request and cached; all cached values are
immutable, so a warm cache never changes an answer.  The hull dimension
is k - rank(G G^T) alone; the hull report's Zassenhaus basis, and the
dual it needs, are built only when hull() is called, and a basis whose
size disagrees with the Gram rank raises ClaimViolationError.

Weight distributions, coset leaders, equivalence profiles and the
distances of exhaustive search's lanes read the 2^k codewords from one
NumPy kernel, _codeword_chunks, in Gray order and in chunks of at most
2^CHUNK_BITS words times lanes.  A code enumerates once: for k <=
CHUNK_BITS its one chunk is the whole table (2 MB at most for n <= 64),
cached read-only for its first three readers; above, each one streams.
The covering radius reads a uint8 table of the 2^(n-k) syndromes
instead, filled by _min_plus_pass once per distinct column of H; the
sweep's coset kernel in search.py runs the same pass.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
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
        raise ResourceLimitError(
            f"enumeration over 2^{k} codewords exceeds cap k <= {cap}",
            limit=cap, requested=k,
        )


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
    nlimbs = max(1, -(-n // 64))
    data = b"".join(v.to_bytes(8 * nlimbs, "little") for v in values)
    return np.frombuffer(data, dtype="<u8").reshape(len(values), nlimbs)


def _weights(words: np.ndarray) -> np.ndarray:
    """Hamming weight of each limb row, summed over the last axis."""
    counts = np.bitwise_count(words)
    return counts[..., 0] if counts.shape[-1] == 1 else counts.sum(axis=-1, dtype=np.uint16)


def _codeword_chunks(rows: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """All 2^k sums of the k rows, in chunks of
    shape (words, *lanes, limbs): rows of shape (limbs,) from _limbs for
    one code, or (lanes, 1) for one free row of many codes.  A chunk
    holds at most 2^CHUNK_BITS words times lanes, and at least one word.

    The low rows build one table by reflected doubling: after row i it
    is the table so far followed by the same table reversed and XORed
    with row i, the binary-reflected Gray order.  The high rows then step
    through their own Gray order, one row per step, and the odd steps
    read the low table backwards, as the reflected order does.  Word m is
    the sum of the rows at the set bits of m ^ (m >> 1).
    """
    k = len(rows)
    _check_enum(k)
    shape = rows[0].shape
    lanes = rows[0].size // shape[-1]
    low = min(k, max(0, CHUNK_BITS - (lanes - 1).bit_length()))
    table = np.zeros((1 << low, *shape), dtype=rows[0].dtype)
    for i in range(low):
        np.bitwise_xor(table[(1 << i) - 1 :: -1], rows[i], out=table[1 << i : 2 << i])
    yield table
    acc = np.zeros(shape, dtype=rows[0].dtype)
    for m in range(1, 1 << (k - low)):
        acc ^= rows[low + (m & -m).bit_length() - 1]
        yield (table[::-1] if m & 1 else table) ^ acc


def _min_plus_pass(cube: np.ndarray, axes: tuple[int, ...]) -> None:
    """d = min(d, d[s ^ m] + 1) in place over a bit cube (or a basic-slice
    view of one), for the move m that flips the given axes."""
    np.minimum(cube, np.flip(cube, axes) + 1, out=cube)


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
        return LinearCode(gf2.nullspace_basis(self.gen))

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
        if self.k == self.n:
            # dual is {0}; the intersection is empty
            basis = BitMatrix(self.n, ())
        else:
            basis = gf2.row_space_intersection(self.gen, self.dual().gen)
        if basis.nrows != h:
            raise ClaimViolationError(
                f"hull disagreement: product rank gives {h}, "
                f"intersection gives {basis.nrows}"
            )
        return HullReport(
            h=h,
            basis=basis,
            is_lcd=h == 0,
            is_self_orthogonal=h == self.k,
            is_self_dual=h == self.k and self.n == 2 * self.k,
        )

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
        counts = np.zeros(self.n + 1, dtype=np.int64)
        for words in self._codewords():
            counts += np.bincount(_weights(words), minlength=self.n + 1)
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
            raise ResourceLimitError(
                f"syndrome table of 2^{r} entries exceeds cap n-k <= {SYNDROME_CAP}",
                limit=SYNDROME_CAP, requested=r,
            )
        # a leader weighs at most rank H <= r, so r + 1 marks the unreached
        # and r + 2 still fits in uint8 (n + 1 would wrap from n = 255)
        dist = np.full(1 << r, r + 1, dtype=np.uint8)
        dist[0] = 0
        cube = dist.reshape((2,) * r)  # axis r - 1 - i holds syndrome bit i
        for s in set(gf2.transpose(self.parity_check()).row_bits) - {0}:
            _min_plus_pass(cube, tuple(r - 1 - i for i in range(r) if s >> i & 1))
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
        rows = [1 | (v.bits << 1)]
        rows += [b << 1 for b in self.gen.row_bits]
        return LinearCode(BitMatrix(self.n + 1, tuple(rows)))
