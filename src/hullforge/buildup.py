"""Lengthening constructions: [n,k] with hull dimension l to [n+2,k+1].

Four variants, selected by x·x and by y (y_i = x · r_i over the
generator rows):

  I   x·x = 1            child hull l+1
  II  x·x = 0, y = 0     child hull l+1
  III x·x = 0, y != 0    child hull in {l, l+1, l+2}
  IV  x·x = 0 (explicit) child hull l

construct(c, x, kind) checks x against the kind, then _assemble prepends
two coordinates and one generator row and writes the child's parity
check.  II and III share a shape but predict different hulls.  The child
skips LinearCode's elimination; its rank is checked by reducing the top
row against the seed's echelon, and its hull is read off its own rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from . import gf2
from .code import LinearCode
from .errors import (
    ClaimViolationError,
    DimensionError,
    ResourceLimitError,
    UsageError,
    WrongConstructionError,
    WrongParityError,
)
from .gf2 import BitMatrix, BitVector

__all__ = [
    "ConstructionKind",
    "ExtensionVector",
    "BuildResult",
    "DistancePrediction",
    "construct",
    "classify_extension",
    "predict_distance",
    "admissible_distances",
    "predicted_hull",
]


class ConstructionKind(Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ExtensionVector:
    """x together with its self-product and the derived y and z vectors."""

    x: BitVector
    self_product: int
    y: BitVector  # y_i = x . (generator row i)
    z: BitVector  # z_j = x . (parity-check row j)

    @classmethod
    def bind(cls, c: LinearCode, x: BitVector) -> "ExtensionVector":
        if x.len != c.n:
            raise DimensionError(f"x has length {x.len}, code has length {c.n}")
        zlen = c.n - c.k
        return cls(
            x=x,
            self_product=x.bits.bit_count() & 1,
            y=BitVector(c.k, gf2._products(x.bits, c.gen.row_bits)),
            z=BitVector(zlen, gf2._products(x.bits, c.parity_check().row_bits) if zlen else 0),
        )


class DistancePrediction(frozenset):
    """Admissible child distances, with an optional covering-radius bracket."""

    bracket: tuple[int, int] | None

    def __new__(cls, values, bracket=None):
        self = super().__new__(cls, values)
        self.bracket = bracket
        return self


def _check_kind(kind) -> ConstructionKind:
    """kind itself if it is a ConstructionKind; strings are refused, not coerced."""
    if not isinstance(kind, ConstructionKind):
        raise UsageError(f"unknown construction kind {kind!r}; pass a ConstructionKind")
    return kind


def admissible_distances(d: int, w: int, kind: ConstructionKind) -> frozenset:
    """The one to three candidate distances of the child, for seed
    distance d and coset weight w of x; the child distance lands in it."""
    _check_kind(kind)
    if kind in (ConstructionKind.I, ConstructionKind.IV):
        # no-top child codewords weigh wt(m) + 2(x.m), so their minimum
        # sits at d, d+1 or d+2 depending on how x meets the light
        # codewords; the top coset contributes exactly w+1
        return frozenset({min(d, w + 1), min(d + 1, w + 1), min(d + 2, w + 1)})
    if kind is ConstructionKind.II:
        return frozenset({min(d, w + 2)})
    # no-top minimum is d or d+1 (weights wt(m) + x.m), top coset w+1 or
    # w+2; the combined minimum spans two consecutive values
    return frozenset({min(d, w + 1), min(d + 1, w + 2)})


class BuildResult:
    """Child code, explicit parity check, and hull/distance bookkeeping:
    the hull is checked at once, the distance (an enumeration) on first access."""

    def __init__(self, seed: LinearCode, kind: ConstructionKind, ext: ExtensionVector,
                 child: LinearCode, parity_check: BitMatrix, predicted_hull: frozenset):
        self.seed = seed
        self.kind = kind
        self.extension = ext
        self.child = child
        self.parity_check = parity_check
        self.predicted_hull = predicted_hull
        self.actual_hull = child.hull_dim()
        if self.actual_hull not in predicted_hull:
            raise ClaimViolationError(f"construction {kind}: child hull {self.actual_hull} "
                                      f"outside predicted {sorted(predicted_hull)}")

    @cached_property
    def coset_weight(self) -> int:
        return self.seed.coset_min_weight(self.extension.x).min_weight

    @cached_property
    def distance_prediction(self) -> frozenset:
        return admissible_distances(self.seed.min_distance(), self.coset_weight, self.kind)

    @cached_property
    def actual_distance(self) -> int:
        d = self.child.min_distance()
        if d not in self.distance_prediction:
            raise ClaimViolationError(f"construction {self.kind}: child distance {d} outside "
                                      f"predicted {sorted(self.distance_prediction)}")
        return d

    def __repr__(self) -> str:
        c = self.child
        return f"BuildResult({self.kind}, [{c.n},{c.k}], hull {self.actual_hull})"


def predicted_hull(kind: ConstructionKind, ell: int) -> frozenset:
    """Child hull dimensions the construction admits for a seed with hull ell."""
    _check_kind(kind)
    if kind is ConstructionKind.III:
        return frozenset({ell, ell + 1, ell + 2})
    return frozenset({ell if kind is ConstructionKind.IV else ell + 1})


# kind: (G top, G body mask, H top, H body mask), the two head columns' bits:
# G is (top | x) over (y_i * body | r_i), H is (top | x) over (z_j * body | s_j)
_HEADS = {
    ConstructionKind.I: (1, 3, 1, 3),
    ConstructionKind.II: (3, 1, 3, 2),
    ConstructionKind.III: (3, 1, 3, 2),
    ConstructionKind.IV: (1, 3, 2, 3),
}


def _assemble(seed: LinearCode, ext: ExtensionVector, kind: ConstructionKind) -> BuildResult:
    n, k = seed.n, seed.k
    x, y, z = ext.x.bits, ext.y.bits, ext.z.bits
    g_top, g_body, h_top, h_body = _HEADS[kind]
    rows, checks = seed.gen.row_bits, seed.parity_check().row_bits if k < n else ()
    gen_rows = (g_top | x << 2, *[(y >> i & 1) * g_body | r << 2 for i, r in enumerate(rows)])
    h_rows = (h_top | x << 2, *[(z >> j & 1) * h_body | s << 2 for j, s in enumerate(checks)])
    # Below the head the body rows are the seed's independent rows, so the
    # top row can only depend on them if its tail lies in the seed's code.
    if not gf2._reduce_against(seed._echelon, gen_rows[0] >> 2):
        got = gf2.rank(BitMatrix(n + 2, gen_rows))
        if got != k + 1:
            raise ClaimViolationError(f"construction {kind}: child rank {got}, not {k + 1}")
    child = LinearCode._of_basis(gf2._matrix(n + 2, gen_rows))
    return BuildResult(seed, kind, ext, child, gf2._matrix(n + 2, h_rows),
                       predicted_hull(kind, seed.hull_dim()))


def construct(c: LinearCode, x: BitVector, kind: ConstructionKind) -> BuildResult:
    """Apply construction kind to (c, x) once x meets its precondition:
    x·x = 1 for I and 0 for the others, y = 0 for II and y != 0 for III."""
    _check_kind(kind)
    ext = ExtensionVector.bind(c, x)
    want = int(kind is ConstructionKind.I)
    if ext.self_product != want:
        raise WrongParityError(f"construction {kind} needs x·x = {want}, got {ext.self_product}")
    if kind is ConstructionKind.II and not ext.y.is_zero():
        msg = "x is not orthogonal to the code (y != 0); use construction III"
        raise WrongConstructionError(msg)
    if kind is ConstructionKind.III and ext.y.is_zero():
        raise WrongConstructionError("x is orthogonal to the code (y = 0); use construction II")
    return _assemble(c, ext, kind)


def classify_extension(c: LinearCode, x: BitVector) -> ConstructionKind:
    """Route x to the unique applicable construction among I/II/III; IV
    shares its precondition with II/III and is only built when asked for."""
    ext = ExtensionVector.bind(c, x)
    if ext.self_product:
        return ConstructionKind.I
    return ConstructionKind.II if ext.y.is_zero() else ConstructionKind.III


def predict_distance(c: LinearCode, x: BitVector, kind: ConstructionKind) -> DistancePrediction:
    """Admissible child distances for (c, x, kind), without building the
    child; when the covering radius is in cap, with the bracket
    [min(d, w+1), rho(C)+2] that holds every admissible value."""
    w = c.coset_min_weight(x).min_weight
    d = c.min_distance()
    values = admissible_distances(d, w, kind)
    try:
        rho = c.covering_radius()
    except ResourceLimitError:
        return DistancePrediction(values, None)
    return DistancePrediction(values, (min(d, w + 1), rho + 2))
