"""Desk-scale searches: extension sweeps, exhaustive enumeration, equivalence.

A sweep's reference path builds each child with construct(); its fast
path reads every child's distance and hull from tables of the seed
(_coset_scan, _rank3_table), writes each kept child's RREF in closed form
(_child_echelon), checks it, and renders the lines a chunk at a time.
Exhaustive search runs the codeword kernel over lanes of sorted free
blocks, in floor passes from the Griesmer bound; the census walks the
congruence classes of I + AA^T (_census_walk) and checks each
nonexistence.  Equivalence search backtracks over column profiles.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Iterator, Sequence

import numpy as np

from .buildup import (
    _HEADS, ConstructionKind, _check_kind, classify_extension, construct, predicted_hull
)
from .code import CHUNK_BITS, LinearCode, _codeword_chunks, _min_plus_pass, _weights
from .errors import ClaimViolationError, DimensionError, ResourceLimitError, UsageError
from .gf2 import BitMatrix, BitVector, gram, transpose

__all__ = [
    "SweepRecord",
    "OptimalityClaim",
    "EquivalenceVerdict",
    "sweep_extensions",
    "best_by_sweep",
    "exhaustive_codes",
    "iter_exhaustive",
    "hull_census",
    "are_equivalent",
    "format_sweep_record",
    "format_claim",
    "SWEEP_CAP",
    "EXHAUSTIVE_CAP",
    "EQUIV_CAP",
]

SWEEP_CAP = 20
EXHAUSTIVE_CAP = 22
EQUIV_CAP = 16
SYM_RANK_CAP = 6  # _sym_rank_lut(t) fills 2^(t(t+1)/2) lanes: 0.7 s at t=6, 2^28 at 7
NODE_CAP = 10_000_000
RENDER_CHUNK = 256  # sweep records per text pass: larger chunks raise the peak RSS

_KINDS = tuple(ConstructionKind)
_KIND_ORDER = {k: i for i, k in enumerate(_KINDS)}
_CLAIM_STATUSES = ("optimal", "h_optimal", "lower_bound", "nonexistence")
_CLAIM_METHODS = ("sweep", "exhaustive", "corpus")


@dataclass(frozen=True)
class SweepRecord:
    """One kept child of an extension sweep.  line is its SWEEP line, from
    the fast path, or None; equality, hashing and repr leave it out, and a
    line that is not the fields' rendering (as after replace()) is dropped.
    Fast-path records read x and canonical_gen back from their line."""

    seed_id: str
    x: BitVector
    kind: ConstructionKind
    child_params: tuple[int, int, int, int]
    canonical_gen: BitMatrix
    line: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.line is not None and self.line != self._field_line():
            object.__setattr__(self, "line", None)

    @classmethod
    def _lazy(cls, sid, kind, params, line):
        """A record without __init__, x and canonical_gen left to its line."""
        rec = object.__new__(cls)
        object.__setattr__(rec, "__dict__", {
            "seed_id": sid, "kind": kind, "child_params": params, "line": line,
        })
        return rec

    def __getattr__(self, name):  # only for names missing from the instance
        line = vars(self).get("line")
        if name not in ("x", "canonical_gen") or line is None:
            raise AttributeError(f"'SweepRecord' object has no attribute {name!r}")
        _, x, *_, rows = line.rsplit(" ", 7)  # from the right: a seed id may hold spaces
        value = BitVector.from01(x) if name == "x" else BitMatrix.from_strings(rows.split(","))
        object.__setattr__(self, name, value)
        return value

    def _field_line(self) -> str:
        n, k, d, h = self.child_params
        gen = ",".join(self.canonical_gen.to_strings())
        return f"SWEEP {self.seed_id} {self.x.to01()} {self.kind.value} {n} {k} {d} {h} {gen}"


@dataclass(frozen=True)
class OptimalityClaim:
    """What a finished search run is entitled to assert about a cell."""

    n: int
    k: int
    h: int
    d_best: int
    status: str
    witness: BitMatrix | None
    method: str

    def __post_init__(self):
        if self.status not in _CLAIM_STATUSES:
            raise UsageError(f"unknown claim status {self.status!r}")
        if self.method not in _CLAIM_METHODS:
            raise UsageError(f"unknown claim method {self.method!r}")
        if self.status in ("optimal", "h_optimal") and self.witness is None:
            raise UsageError(f"status {self.status} requires a witness")
        if self.status == "nonexistence" and self.method != "exhaustive":
            raise UsageError("nonexistence requires completed exhaustive enumeration")


@dataclass(frozen=True)
class EquivalenceVerdict:
    """equivalent is None when the search hit its node cap undecided."""

    equivalent: bool | None
    permutation: tuple[int, ...] | None = None


def _seed_id(seed: LinearCode) -> str:
    digest = hashlib.sha256(
        ("/".join(seed.canonical_gen().to_strings())).encode()
    ).hexdigest()[:8]
    return f"code-{seed.n}-{seed.k}-{digest}"


# --------------------------------------------------------------------- sweep


def _check_sweep_cap(seed: LinearCode) -> None:
    """Refuse n > SWEEP_CAP, and n + k > 30: _coset_scan costs about
    (n+1) 2^(n+1) + (n+1) k 2^k, plus the kept records; the n + k gate,
    set when the scan did 2^(n+k) lane-steps, is now conservative."""
    if seed.n > SWEEP_CAP:
        raise ResourceLimitError(
            f"sweep over 2^{seed.n} extension vectors exceeds cap n <= {SWEEP_CAP}",
            limit=SWEEP_CAP, requested=seed.n,
        )
    if seed.n + seed.k > 30:
        raise ResourceLimitError(
            f"sweep of a [{seed.n},{seed.k}] seed exceeds cap n + k <= 30",
            limit=30, requested=seed.n + seed.k,
        )


def _distances_by_y(rows: tuple[int, ...], n: int):
    """d2 and d1 for every y in F_2^k.  The Walsh-Hadamard transform F of
    the rows [wt(uG) == w] counts the weight-w codewords with y.u = 0 and
    1, (A_w + F)/2 and (A_w - F)/2; M_e(y) is the least weight present with
    y.u = e, and d2 = min(M_0, M_1 + 2), d1 = min(M_0, M_1 + 1)."""
    k = len(rows)
    words = np.zeros(1 << k, dtype=_lane_dtype(n))
    for i, r in enumerate(rows):  # words[u] = uG, by doubling
        np.bitwise_xor(words[: 1 << i], r, out=words[1 << i : 2 << i])
    weights = np.arange(n + 1)
    f = (np.bitwise_count(words) == weights[:, None]).astype(np.int32)
    for i in range(k):  # in-place butterflies (a, b) -> (a + b, a - b)
        pair = f.reshape(n + 1, -1, 2, 1 << i)
        a, b = pair[:, :, 0], pair[:, :, 1]
        a += b
        b *= -2
        b += a
    even, odd = f[:, :1] + f, f[:, :1] - f  # twice the class counts
    even[0] -= 2  # u = 0 is not a nonzero codeword
    # k >= 1, so at least one class is nonempty and 255 never survives the min
    m0, m1 = (np.where(c > 0, weights[:, None], 255).min(axis=0) for c in (even, odd))
    return np.minimum(m0, m1 + 2).astype(np.uint8), np.minimum(m0, m1 + 1).astype(np.uint8)


def _coset_leader_weights(reduced: list[int], n: int) -> np.ndarray:
    """Least weight in every coset of every D_y = {(y.u | uG)}, by state.

    State s = y | f << k | c << n is the coset of (c, x') in D_y, x' zero
    on the pivots with free bits f.  Its n + 1 moves add one coordinate:
    flip c, flip one free bit, or for pivot i XOR the free part reduced[i]
    of row i and flip c by y_i.  For fixed y the moves are commuting
    involutions, so a shortest path from the zero coset (y, 0, 0) uses each
    at most once and one min-plus pass per move is exact: n + 1 passes over
    the 2^(n+1) states, each move being a flip of axes of the state cube.
    """
    k = len(reduced)
    dist = np.full(2 << n, n + 2, dtype=np.uint8)  # above every coset weight
    dist[: 1 << k] = 0
    cube = dist.reshape((2,) * (n + 1))  # axis n - b holds state bit b
    for b in range(n, k - 1, -1):  # c, then the free bits
        _min_plus_pass(cube, 1 << b)
    for i, part in enumerate(reduced):
        for yi in (0, 1):  # the half with y_i = yi, state bit i dropped: the move shifts down one
            _min_plus_pass(cube[(slice(None),) * (n - i) + (yi,)], (part << k | yi << n) >> 1)
    return dist


def _coset_scan(seed: LinearCode):
    """(d2, d1, dt, dc, ypack, odd) indexed by x, for all 2^n x.  A child
    codeword is a seed codeword uG under two prefix bits set by the top
    row.  Without the top row, d2 and d1 depend on y = x G^T only (ypack);
    with it, dt = 1 + L_y(1, x), and the coset weight is dc = min(L_y(0, x),
    L_y(1, x)), L_y being the coset-leader weights of D_y = {(y.u | uG)}."""
    n, k = seed.n, seed.k
    rows = seed.canonical_gen().row_bits
    d2y, d1y = _distances_by_y(rows, n)

    pivot_of = {(r & -r).bit_length() - 1: i for i, r in enumerate(rows)}
    free = [j for j in range(n) if j not in pivot_of]
    reduced = [sum((r >> j & 1) << b for b, j in enumerate(free)) for r in rows]
    # x maps linearly to y | f << k | u_x << (n+1) | parity << (n+1+k), where
    # u_x is x read at the pivots and f the free bits of x' = x + u_x G
    images = []
    for j in range(n):
        img = sum((r >> j & 1) << i for i, r in enumerate(rows)) | 1 << (n + 1 + k)
        if j in pivot_of:
            img |= reduced[pivot_of[j]] << k | 1 << (n + 1 + pivot_of[j])
        else:
            img |= 1 << (k + free.index(j))
        images.append(img)
    word = np.zeros(1 << n, dtype=_lane_dtype(n + k + 2))
    for j, img in enumerate(images):  # by doubling over the bits of x
        np.bitwise_xor(word[: 1 << j], img, out=word[1 << j : 2 << j])
    ymask = (1 << k) - 1
    ypack = (word & ymask).astype(np.uint32)
    c = (np.bitwise_count(word >> (n + 1) & word & ymask) & 1).astype(word.dtype)
    state = word & ((1 << n) - 1) | c << n  # the coset of (0, x) in D_y
    odd = (word >> (n + 1 + k)).astype(bool)

    leaders = _coset_leader_weights(reduced, n)
    l0, l1 = leaders[state], leaders[state ^ (1 << n)]
    return d2y[ypack], d1y[ypack], l1 + np.uint8(1), np.minimum(l0, l1), ypack, odd


@lru_cache(maxsize=64)
def _rank3_table(gram_rows: tuple[int, ...]) -> np.ndarray:
    """rank(Gc + y y^T) for every y, for a fixed seed Gram matrix, one lane per y."""
    k = len(gram_rows)
    ys = np.arange(1 << k, dtype=_lane_dtype(k))
    return _lane_rank([g ^ (ys >> i & 1) * ys for i, g in enumerate(gram_rows)], k)


def sweep_children(seed: LinearCode):
    """(d10, d11, dc, h3, ypack, odd) over all 2^n x: child d under top
    row (1 0 | x), for I and IV, and (1 1 | x), for II and III; the coset
    weight of x; the III child's hull; y = x G^T; and x.x."""
    _check_sweep_cap(seed)
    d2, d1, dt, dc, ypack, odd = _coset_scan(seed)
    rank3 = _rank3_table(gram(seed.canonical_gen()).row_bits)
    h3 = (seed.k + 1) - rank3[ypack].astype(np.int16)
    return np.minimum(d2, 1 + dc), np.minimum(d1, dt), dc, h3, ypack, odd


def _lane_rank(rows: list[np.ndarray], ncols: int) -> np.ndarray:
    """Rank of one matrix per lane, rows[i][lane] being its row i, by forward
    elimination: per column, each lane's first row holding the bit is its
    pivot and clears the bit from every row holding it, itself included.
    Columns no lane has a bit in are skipped."""
    rows = np.stack(rows)  # a copy, eliminated in place
    present = int(np.bitwise_or.reduce(rows, axis=None))
    rank = np.zeros(rows.shape[1:], dtype=np.uint8)
    for c in range(ncols):
        if not present >> c & 1:
            continue
        pivot = np.zeros_like(rows[0])
        for v in rows:
            hit = v >> c & 1
            pivot |= (pivot == 0) * hit * v
            v ^= hit * pivot
        rank += pivot != 0
    return rank


def _child_echelon(seed_rows: tuple[int, ...], xs, ys, top, body) -> np.ndarray:
    """The RREF of each kept child, (lanes, k+1), from its assembled rows:
    t = top over c_i = y_i body | r_i << 2, r_i the seed's RREF rows with
    pivots p_i, every output row being an XOR of these.

    t' = t + sum of u_i c_i, u_i = x_{p_i}, is zero at every p_i + 2.  If
    y = 0 the RREF is [t', c_0, c_1, ...].  Otherwise let j be the top set
    bit of y and b = c_j.  The rows c_i + y_i b (i != j) keep pivot
    p_i + 2, since p_i < p_j wherever y_i = 1, and of t', b and t' + b the
    ones with low bits 01 and 10 take pivots 0 and 1.  So the RREF is
    [p0, p1, c_0 + y_0 b, c_1 + y_1 b, ...] less slot e + 1, e the bit
    length of y: p1, which is none, when y = 0, else c_j + b = 0.
    """
    k, lanes = len(seed_rows), np.arange(len(xs))
    pivots = np.array([(r & -r).bit_length() - 1 for r in seed_rows], dtype=np.uint32)
    ybits = ys[None] >> np.arange(k, dtype=ys.dtype)[:, None] & 1
    c = ybits * body | np.array(seed_rows, dtype=np.uint32)[:, None] << 2
    u = xs.astype(np.uint32)[None] >> pivots[:, None] & 1
    t = top ^ np.bitwise_xor.reduce(u * c, axis=0)
    e = np.frexp(ys)[1]
    b = np.concatenate([np.zeros_like(c[:1]), c])[e, lanes]  # c_j, or 0 when y = 0
    tb = t ^ b
    p0 = np.where(t & 3 == 1, t, np.where(b & 3 == 1, b, tb))
    p1 = np.where(t & 3 == 2, t, np.where(tb & 3 == 2, tb, 0))
    slots = np.concatenate([p0[None], p1[None], c ^ ybits * b]).T
    return slots[np.arange(k + 2) != (e + 1)[:, None]].reshape(len(xs), k + 1)


def _kept_children(seed: LinearCode, target_h: int, min_d: int, kinds):
    """x, kind index, d and the (records, k+1) RREF rows of each kept child
    (_child_echelon).  The rows must be k + 1 reduced ones with ascending
    pivots, and the hull from their Gram rank must match the kernel and
    the claim."""
    n, k, ell = seed.n, seed.k, seed.hull_dim()
    d10, d11, _dc, h3, ypack, odd = sweep_children(seed)
    even = ~odd
    applicable = (odd, even & (ypack == 0), even & (ypack != 0) & (h3 == target_h), even)
    keep = np.zeros((1 << n, len(_KINDS)), dtype=bool)
    for kind in kinds:
        i = _KIND_ORDER[kind]
        if kind is ConstructionKind.III or target_h in predicted_hull(kind, ell):
            d = (d10, d11)[_HEADS[kind][0] >> 1]  # d under top row (1 0 | x) or (1 1 | x)
            keep[:, i] = applicable[i] & (d >= min_d)
    xs, ks = np.nonzero(keep)  # x ascending, then kind
    heads = np.array([_HEADS[kind][:2] for kind in _KINDS], dtype=np.uint32)[ks]
    top, body = heads[:, 0] | xs.astype(np.uint32) << 2, heads[:, 1]
    echelon = _child_echelon(seed.canonical_gen().row_bits, xs, ypack[xs], top, body)
    low = echelon & (~echelon + 1)  # each row's pivot bit
    found = np.bitwise_or.reduce(low, axis=1)
    shaped = np.bitwise_count(found) == k + 1
    shaped &= ((echelon & found[:, None]) == low).all(axis=1)
    shaped &= (low[:, 1:] > low[:, :-1]).all(axis=1)
    wide, cols = _lane_dtype(k + 1), np.ascontiguousarray(echelon.T)
    shifts = np.arange(k + 1, dtype=wide)[:, None]
    gram_rows = [  # bit j of Gram row i: the parity of echelon rows i AND j
        np.bitwise_or.reduce((np.bitwise_count(row & cols) & 1).astype(wide) << shifts, axis=0)
        for row in cols
    ]
    hull = k + 1 - _lane_rank(gram_rows, k + 1).astype(np.int16)
    admits = np.ones((len(_KINDS), k + 2), dtype=bool)  # [kind, hull]: the claim admits it
    for kind in kinds:
        admits[_KIND_ORDER[kind]] = [h in predicted_hull(kind, ell) for h in range(k + 2)]
    ok = shaped & (hull == target_h) & admits[ks, hull]
    if not ok.all():
        at = int(np.argmin(ok))
        kind = _KINDS[ks[at]]
        pivots = np.bitwise_count(found[at])
        rank = f"rank {pivots}" if shaped[at] else f"{pivots} pivots, not ascending and reduced"
        msg = f"{rank} (want {k + 1}), hull {hull[at]} (kernel {target_h}, predicted"
        msg += f" {sorted(predicted_hull(kind, ell))})"
        raise ClaimViolationError(f"sweep child {kind} at x={xs[at]}: {msg}")
    ds = np.where(top & 2, d11[xs], d10[xs])  # top row (1 1 | x) or (1 0 | x)
    return xs, ks, ds, echelon


def _sweep_chunks(seed: LinearCode, sid: str, target_h: int, min_d: int, kinds):
    """(kind index, d) and line of each record, RENDER_CHUNK at a time,
    every check passed before the first chunk."""
    xs, ks, ds, canon = _kept_children(seed, target_h, min_d, kinds)
    for s in range(0, len(xs), RENDER_CHUNK):
        part = slice(s, s + RENDER_CHUNK)
        keys = list(zip(ks[part].tolist(), ds[part].tolist()))
        yield keys, _render_lines(sid, seed.n, target_h, xs[part], keys, canon[part])


def _sweep_records(seed: LinearCode, sid: str, target_h: int, min_d: int, kinds) -> list:
    """Fast-path records, one per line of _sweep_chunks."""
    params = [(seed.n + 2, seed.k + 1, d, target_h) for d in range(seed.n + 3)]
    return [
        SweepRecord._lazy(sid, _KINDS[i], params[d], line)
        for keys, lines in _sweep_chunks(seed, sid, target_h, min_d, kinds)
        for (i, d), line in zip(keys, lines)
    ]


def _bit_text(words: np.ndarray, width: int) -> np.ndarray:
    """The low `width` bits of each word (at most 32) as b"0"/b"1", bit 0
    first as in BitVector.to01 and BitMatrix.to_strings."""
    octets = words.astype("<u4")[..., None].view(np.uint8)
    return np.unpackbits(octets, axis=-1, bitorder="little")[..., :width] + ord("0")


def _render_lines(sid: str, n: int, h: int, xs, keys: list, canon) -> list[str]:
    """format_sweep_record's line for each record, keys[j] being its
    (kind index, d): fixed-width slices of one decoded ASCII block."""
    count, k1 = canon.shape
    n2, step = n + 2, k1 * (n + 3)
    xtext = _bit_text(xs, n).tobytes().decode()
    gen = np.full((count, k1, n2 + 1), ord(","), dtype=np.uint8)
    gen[..., :n2] = _bit_text(canon, n2)
    gtext = gen.tobytes().decode()
    prefix = f"SWEEP {sid} "
    middle = {(i, d): f" {_KINDS[i].value} {n2} {k1} {d} {h} " for i, d in set(keys)}
    spans = zip(range(0, count * n, n), range(0, count * step, step), keys)
    return [
        prefix + xtext[a : a + n] + middle[key] + gtext[b : b + step - 1]
        for a, b, key in spans
    ]


def _check_sweep(seed: LinearCode, target_h, min_d, kinds, seed_id, engine="auto"):
    """A sweep's checks, in order: sizes, caps, engine, kinds.  Returns
    the kinds, once each in kind order, and the seed id."""
    _check_sizes(target_h=target_h, min_d=min_d)
    _check_sweep_cap(seed)
    if engine not in ("auto", "reference"):
        raise UsageError(f"unknown engine {engine!r}")
    kinds = _KINDS if kinds is None else tuple(map(_check_kind, kinds))
    kinds = tuple(sorted(set(kinds), key=_KIND_ORDER.get))
    return kinds, seed_id if seed_id is not None else _seed_id(seed)


def sweep_extensions(
    seed: LinearCode,
    target_h: int,
    min_d: int = 1,
    kinds: Sequence[ConstructionKind] | None = None,
    seed_id: str | None = None,
    engine: str = "auto",
) -> list[SweepRecord]:
    """Every requested construction at each of the 2^n vectors x that
    meets its precondition, keeping children of hull dimension target_h
    and distance at least min_d, x ascending as an integer, then kind."""
    kinds, sid = _check_sweep(seed, target_h, min_d, kinds, seed_id, engine)
    if engine == "auto":
        return _sweep_records(seed, sid, target_h, min_d, kinds)

    n, k = seed.n, seed.k
    records = []
    for xbits in range(1 << n):
        x = BitVector(n, xbits)
        auto = classify_extension(seed, x)
        even = auto is not ConstructionKind.I
        for kind in kinds:
            if kind is not auto and not (even and kind is ConstructionKind.IV):
                continue  # IV takes every even x, as II and III do
            child = construct(seed, x, kind).child
            if child.hull_dim() != target_h:
                continue
            d = child.min_distance()
            if d < min_d:
                continue
            records.append(
                SweepRecord(
                    seed_id=sid,
                    x=x,
                    kind=kind,
                    child_params=(n + 2, k + 1, d, target_h),
                    canonical_gen=child.canonical_gen(),
                )
            )
    return records


def best_by_sweep(
    seeds: Sequence[LinearCode],
    target_h: int,
    kinds: Sequence[ConstructionKind] | None = None,
) -> OptimalityClaim:
    """Best child distance over all seeds, vectors and constructions, a
    lower_bound claim; ties go to the row-wise least reduced generator."""
    _check_sizes(target_h=target_h)
    seeds = list(seeds)
    if not seeds:
        raise UsageError("need at least one seed")
    dims = {(s.n, s.k) for s in seeds}
    if len(dims) != 1:
        raise UsageError(f"seeds must share (n, k); got {sorted(dims)}")
    n, k = dims.pop()
    kinds = _KINDS if kinds is None else tuple(map(_check_kind, kinds))

    best_d, best = 0, None  # best: the witness's echelon rows
    for seed in seeds:
        _check_sweep_cap(seed)
        _, _, ds, canon = _kept_children(seed, target_h, max(best_d, 1), kinds)
        if not len(ds):
            continue
        d = int(ds.max())
        tied = canon[ds == d]
        least = tuple(tied[np.lexsort(tied.T[::-1])[0]].tolist())  # row 0 most significant
        if d > best_d or least < best:
            best_d, best = d, least
    return OptimalityClaim(
        n=n + 2,
        k=k + 1,
        h=target_h,
        d_best=best_d,
        status="lower_bound",
        witness=None if best is None else BitMatrix(n + 2, best),
        method="sweep",
    )


# ---------------------------------------------------------------- exhaustive


def _check_sizes(**sizes) -> None:
    """Refuse a size that is not an integer, or is negative, once per call;
    d_floor and cap may also be None."""
    for name, value in sizes.items():
        if value is None and name in ("d_floor", "cap"):
            continue
        if not hasattr(value, "__index__") or value < 0:
            raise UsageError(f"{name} must be a non-negative integer, got {value!r}")


def _check_exhaustive_cap(n: int, k: int, cap: int | None) -> int:
    if not 1 <= k <= n:
        raise UsageError(f"bad dimensions [{n},{k}]")
    cap = EXHAUSTIVE_CAP if cap is None else cap
    size = k * max(n - k, 1)  # the full space [n, n] still writes n rows
    if size > cap:
        what = f"k(n-k) = {size}" if k < n else f"k = {k} for the [{n},{n}] full space"
        msg = f"{what} exceeds enumeration cap {cap}"
        raise ResourceLimitError(msg, limit=cap, requested=size)
    return cap


def _candidate_rows(candidate: int, k: int, m: int) -> tuple[int, ...]:
    """Generator rows (identity low bits, free block high bits)."""
    mask = (1 << m) - 1
    return tuple(
        (1 << i) | (((candidate >> (i * m)) & mask) << k) for i in range(k)
    )


def iter_exhaustive(n: int, k: int, h: int, cap: int | None = None) -> Iterator[LinearCode]:
    """Reference path: every systematic generator with hull dimension h,
    one per free block: up to coordinate order, every [n, k] code."""
    _check_sizes(n=n, k=k, h=h, cap=cap)
    _check_exhaustive_cap(n, k, cap)
    m = n - k
    for candidate in range(1 << (k * m)):
        code = LinearCode(BitMatrix(n, _candidate_rows(candidate, k, m)))
        if code.hull_dim() == h:
            yield code


@lru_cache(maxsize=8)
def _sym_rank_lut(t: int) -> np.ndarray:
    """rank of every t x t symmetric matrix, indexed by packed upper bits,
    filled lane-parallel like _rank3_table, 2^CHUNK_BITS lanes at a time."""
    if t > SYM_RANK_CAP:
        msg = f"2^{t * (t + 1) // 2}-entry rank table: min(k, n-k) exceeds {SYM_RANK_CAP}"
        raise ResourceLimitError(msg, limit=SYM_RANK_CAP, requested=t)
    pos = [(i, j) for i in range(t) for j in range(i, t)]
    lut = np.empty(1 << len(pos), dtype=np.uint8)
    for start in range(0, lut.size, 1 << CHUNK_BITS):
        idx = np.arange(start, min(start + (1 << CHUNK_BITS), lut.size), dtype=np.uint32)
        rows = [np.zeros(idx.shape, dtype=np.uint8) for _ in range(t)]
        for b, (i, j) in enumerate(pos):
            bit = (idx >> b & 1).astype(np.uint8)
            rows[i] |= bit << j
            rows[j] |= bit << i
        lut[start : start + idx.size] = _lane_rank(rows, t)
    return lut


def _lane_dtype(bits: int) -> np.dtype:
    """Smallest unsigned dtype holding `bits` bits per lane."""
    if bits > 64:
        raise ResourceLimitError(
            f"{bits}-bit lanes exceed the 64-bit enumeration kernels",
            limit=64, requested=bits,
        )
    return np.min_scalar_type((1 << bits) - 1)


def _transpose_lanes(vecs: list[np.ndarray], bits: int) -> list[np.ndarray]:
    """Per lane, word p of the result holds bit p of each vecs[i] at bit i:
    the rows of A from its columns, or its columns from its rows."""
    dtype = _lane_dtype(max(len(vecs), bits))
    out = [np.zeros(vecs[0].shape, dtype=dtype) for _ in range(bits)]
    for i, v in enumerate(vecs):
        wide = v.astype(dtype)
        for p in range(bits):
            out[p] |= (wide >> p & 1) << i
    return out


def _hull_dims(rows: list[np.ndarray], k: int, m: int) -> np.ndarray:
    """Hull dimension per lane of G = [I | A]: k - rank(I + AA^T), which is
    m - rank(I + A^T A) (the kernels correspond under w -> Aw), from
    whichever side is smaller."""
    t = min(k, m)
    if t == 0:
        return np.zeros(rows[0].shape if rows else (1,), dtype=np.uint8)
    lut = _sym_rank_lut(t)
    vecs = rows if k <= m else _transpose_lanes(rows, m)
    idx = np.zeros(vecs[0].shape, dtype=np.uint32)
    p = 0
    for i in range(t):
        for j in range(i, t):
            if i == j:
                bit = (np.bitwise_count(vecs[i]) & 1) ^ 1  # 1 + v.v
            else:
                bit = np.bitwise_count(vecs[i] & vecs[j]) & 1
            idx |= bit.astype(np.uint32) << np.uint32(p)
            p += 1
    return (t - lut[idx]).astype(np.uint8)


def _min_distances(rows: list[np.ndarray]) -> np.ndarray:
    """Per-lane minimum weight of the nonzero codewords of [I | A]: the
    free rows' sums from code._codeword_chunks plus the weight of the
    message at each Gray position t, that of t ^ t >> 1."""
    best = np.full(rows[0].shape, 255, dtype=np.uint8)
    start = 0
    for words in _codeword_chunks([r[:, None] for r in rows]):
        t = np.arange(start, start + len(words), dtype=np.uint64)
        weights = _weights(words) + np.bitwise_count(t ^ t >> 1)[:, None]
        if not start:
            weights[0] = 255  # the zero message
        np.minimum(best, weights.min(axis=0), out=best)
        start += len(words)
    return best


def _sorted_table(r: int, size: int, dtype) -> tuple[list[np.ndarray], np.ndarray]:
    """Every non-decreasing r-tuple over range(size), in lexicographic
    order, as r row arrays; above[v] counts those starting at v or higher,
    which are v before the last above[v] tuples one entry shorter."""
    values = np.arange(size, dtype=dtype)
    rows, above = [values], np.arange(size, 0, -1)
    for _ in range(r - 1):
        ends = np.cumsum(above)
        idx = np.arange(ends[-1]) + np.repeat(above[0] - ends, above)
        rows = [np.repeat(values, above)] + [row[idx] for row in rows]
        above = np.cumsum(above[::-1])[::-1]
    return rows, above


def _sorted_blocks(k: int, size: int, dtype, values=None, strict: int = 0) -> Iterator[list]:
    """Every non-decreasing k-tuple i over range(size), in lexicographic
    order and chunks of at most 2^CHUNK_BITS lanes; given values, entry t
    reads values[i_t + strict t].  Index heads come from this generator,
    each followed by the last above[v] tuples of one _sorted_table, v its
    last entry (range(size) itself for one row), mapped once."""
    def lift(t, row):  # the entry at tuple position t
        return row if values is None else values[strict * t :].take(row)

    limit = 1 << CHUNK_BITS
    r = k
    while r > 1 and comb(size + r - 1, r) > limit:
        r -= 1
    if r > 1:
        table, above = _sorted_table(r, size, dtype)
    else:
        table, above = [np.arange(size, dtype=dtype)], None
    table = [lift(t, row) for t, row in enumerate(table, k - r)]
    if r == k and len(table[0]) <= limit:
        yield table
        return
    for head in _sorted_blocks(k - r, size, dtype) if k > r else [[]]:
        last = head[-1].astype(np.int64) if head else np.zeros(1, dtype=np.int64)
        if above is None:
            counts, starts = size - last, last
        else:
            counts = above[last]
            starts = above[0] - counts
        ends = np.cumsum(counts)
        shift = starts - (ends - counts)  # table index minus lane index
        total = int(ends[-1])
        for g0 in range(0, total, limit):
            g1 = min(g0 + limit, total)
            j0 = int(np.searchsorted(ends, g0, side="right"))
            j1 = int(np.searchsorted(ends, g1 - 1, side="right")) + 1
            lens = np.minimum(ends[j0:j1], g1) - np.maximum(ends[j0:j1] - counts[j0:j1], g0)
            idx = np.repeat(shift[j0:j1], lens)
            idx += np.arange(g0, g1)
            heads = [np.repeat(lift(t, row[j0:j1]), lens) for t, row in enumerate(head)]
            yield heads + [row[idx] for row in table]


def _sorted_free_blocks(k: int, m: int, floor: int = 1) -> Iterator[list[np.ndarray]]:
    """The free blocks a_0 <= ... <= a_{k-1} of m-bit rows that a code of
    distance `floor` can use, in lexicographic order, a_0 most significant.

    e_i + a_i weighs 1 + wt(a_i), so every row weighs at least floor - 1;
    e_i + e_j + a_i + a_j weighs 2 + wt(a_i ^ a_j), so from floor 3 the
    rows differ.  Over the s allowed values, ascending, a strictly
    increasing tuple i_t is the non-decreasing tuple i_t - t over
    range(s - k + 1), C(s, k) lanes; below floor 3, C(s + k - 1, k).
    Called as (m, k) it yields the sorted columns of A, k-bit keys.
    """
    dtype = _lane_dtype(m)
    if floor < 2:
        return _sorted_blocks(k, 1 << m, dtype)
    values = np.arange(1 << m, dtype=dtype)
    values = values[np.bitwise_count(values) >= floor - 1]
    strict = int(floor > 2)
    size = len(values) - strict * (k - 1)
    return _sorted_blocks(k, size, dtype, values, strict) if size > 0 else iter(())


def _by_columns(k: int, m: int) -> tuple[bool, bool]:
    """Whether to enumerate the C(2^k + m - 1, m) sorted columns of A
    instead of its C(2^m + k - 1, k) sorted rows, and whether the row side
    runs in floor passes, after the row side's refusals.  Either needs the
    rows to fill more than a sixteenth of a chunk, the measured break-even
    of 8,256 to 32,896 row lanes; the columns take k < m."""
    _lane_dtype(m)
    if m:
        _lane_dtype(k)
    lanes = comb((1 << m) + k - 1, k)
    if lanes >> 63:
        raise ResourceLimitError(
            f"C(2^{m}+{k}-1, {k}) sorted free blocks overflow 64-bit lane indices",
            limit=63, requested=lanes.bit_length(),
        )
    big = lanes > 1 << CHUNK_BITS >> 4
    return k < m and big, k >= m and big


def _griesmer(n: int, k: int) -> int:
    """The largest d with sum_{i<k} ceil(d / 2^i) <= n: no binary [n, k]
    code has a larger distance (Griesmer, 1960)."""
    d = 1
    while sum(-(-(d + 1) >> i) for i in range(k)) <= n:
        d += 1
    return d


def _least_block(cols: list[np.ndarray], k: int, m: int) -> tuple[int, ...]:
    """The least (a_0, ..., a_{k-1}) over the column lanes (bit i of a key
    is row i) and every order of their columns: keys ascending, the largest
    at bit 0, as a_0 is compared first and its ones go lowest.  Blocks pack
    a_0 first into one k m-bit integer, the sum of the spread keys."""
    packed = np.uint64 if k * m <= 64 else object
    codes = np.arange(1 << k)
    spread = sum((codes >> i & 1).astype(packed) << (k - 1 - i) * m for i in range(k))
    shifts = np.arange(m - 1, -1, -1).astype(packed)  # ascending keys, largest at bit 0
    blocks = (np.sort(spread[np.stack(cols, axis=1)], axis=1) << shifts).sum(axis=1)
    best = int(blocks.min())
    return tuple(best >> (k - 1 - i) * m & ((1 << m) - 1) for i in range(k))


def _class_moves(k: int, r: int, alt: bool) -> list[tuple[tuple[int, bool], int]]:
    """(class, count) of S + a a^T over the 2^k vectors a, S symmetric of
    rank r, alternating (diagonal d = 0) or not.  a outside col S raises
    the rank, and d + a != 0 as d lies in col S.  a = Sw lowers it when
    w.a = w^T S w = d.w is 1: a linear form on col S, 0 if S alternates,
    else 1 at a = d iff r is odd.  a = d leaves S + a a^T alternating."""
    moves = [((r + 1, False), (1 << k) - (1 << r))]
    if alt:
        return moves + [((r, True), 1), ((r, False), (1 << r) - 1)]
    at_d, other = (r - 1, r) if r & 1 else (r, r - 1)  # the ranks of the form's two halves
    half = 1 << (r - 1)
    return moves + [((at_d, True), 1), ((at_d, False), half - 1), ((other, False), half)]


def _census_walk(k: int, m: int) -> dict[int, int]:
    """Blocks A by hull dimension k - rank(I + AA^T), adding A's columns
    one at a time: a symmetric matrix's congruence class over GF(2) is its
    rank and whether it is alternating, so m steps over 2k + 1 classes."""
    classes = {(k, False): 1}  # I_k
    for _ in range(m):
        step: dict[tuple[int, bool], int] = {}
        for (r, alt), count in classes.items():
            for to, ways in _class_moves(k, r, alt):
                if ways:
                    step[to] = step.get(to, 0) + count * ways
        classes = step
    counts = [0] * (k + 1)
    for (r, _), count in classes.items():
        counts[k - r] += count
    return {h: c for h, c in enumerate(counts) if c}


def hull_census(n: int, k: int, cap: int | None = None) -> dict[int, int]:
    """Count systematic generators by hull dimension; sums to 2^{k(n-k)}.

    Exact, by _census_walk, enumerating no lane; refused, in the same
    order, wherever exhaustive_codes would be: sizes, the k(n-k) cap,
    lanes past 64 bits, min(k, n-k) past the rank table's cap."""
    _check_sizes(n=n, k=k, cap=cap)
    _check_exhaustive_cap(n, k, cap)
    k, m = int(k), int(n - k)
    _by_columns(k, m)
    if min(k, m) > SYM_RANK_CAP:
        _sym_rank_lut(min(k, m))  # raises its refusal before building anything
    return _census_walk(k, m)


def _best_lane(blocks, by_columns: bool, k: int, m: int, h: int):
    """The max d over the lanes with hull dimension h, 0 if none, and its
    witness block: the first max-d row lane, or _least_block over the
    column orders of the max-d column lanes."""
    best_d, best_free = 0, None
    for words in blocks:
        rows = _transpose_lanes(words, k) if by_columns else words
        keep = _hull_dims(rows, k, m) == h
        if not keep.any():
            continue
        rows = [r[keep] for r in rows]
        dists = _min_distances(rows)
        at = int(np.argmax(dists))
        top = int(dists[at])
        if top < best_d:
            continue
        if by_columns:
            free = _least_block([c[keep][dists == top] for c in words], k, m)
        else:  # the first max-d row lane; a later one only wins with a larger d
            free = tuple(int(r[at]) for r in rows)
        if top > best_d or free < best_free:
            best_d, best_free = top, free
    return best_d, best_free


def exhaustive_codes(
    n: int, k: int, h: int, d_floor: int | None = None, cap: int | None = None
) -> OptimalityClaim:
    """Settle the (n, k, h) cell over every systematic generator [I | A].

    Returns status h_optimal with the max-d witness whose generator is
    row-wise lexicographically smallest when codes with hull dimension h
    exist (and meet d_floor if given), else nonexistence; one found for
    h <= min(k, n-k) is checked against hull_census's count.

    Row orders of A give equivalent codes, so only blocks with sorted rows
    are visited, in lexicographic order: the first max-d lane is the
    witness.  Past _by_columns' break-even they are visited in passes at
    floors d0 from the Griesmer bound down, each over the blocks that can
    reach d0, which hold every lane with d >= d0 in the same order.  A
    pass finding d >= d0 settles the cell; one finding a lesser best d is
    followed by one last pass at floor d, one finding no hull-h lane by
    the floor below (the even one when h = k), so a nonexistence ends in
    the full pass.  When _by_columns, sorted columns are visited, and the
    witness is _least_block's (the max-d blocks are closed under row and
    column orders).  The 2^k messages per lane fall under the cap.
    """
    _check_sizes(n=n, k=k, h=h, d_floor=d_floor, cap=cap)
    _check_exhaustive_cap(n, k, cap)
    k, m = int(k), int(n - k)
    if m == 0:
        # only the full space [n, n]: hull dimension 0, distance 1
        if h == 0 and (d_floor is None or d_floor <= 1):
            return OptimalityClaim(
                n, k, h, 1, "h_optimal", BitMatrix(n, _candidate_rows(0, k, 0)), "exhaustive"
            )
        return OptimalityClaim(n, k, h, 0, "nonexistence", None, "exhaustive")
    if h > min(k, m):  # the hull is a subcode of both C and its dual
        return OptimalityClaim(n, k, h, 0, "nonexistence", None, "exhaustive")

    by_columns, passes = _by_columns(k, m)
    floor = _griesmer(n, k) if passes else 1
    while True:
        lanes = _sorted_free_blocks(m, k) if by_columns else _sorted_free_blocks(k, m, floor)
        best_d, best_free = _best_lane(lanes, by_columns, k, m, h)
        if best_d >= floor or floor == 1:
            break
        floor = best_d or floor - 1  # one last pass at the d found, else a floor down
        if h == k and floor > 1 and floor & 1:  # C lies in its dual: every weight is even
            floor -= 1

    if best_free is None and (blocks := _census_walk(k, m).get(h)):
        msg = f"no lane has hull dimension {h}, but the census counts {blocks} blocks"
        raise ClaimViolationError(f"exhaustive ({n},{k},{h}): {msg}")
    if best_free is None or (d_floor is not None and best_d < d_floor):
        # either no code has this hull dimension, or none reaches the floor
        return OptimalityClaim(n, k, h, best_d, "nonexistence", None, "exhaustive")
    witness = BitMatrix(n, tuple((1 << i) | (a << k) for i, a in enumerate(best_free)))
    return OptimalityClaim(n, k, h, best_d, "h_optimal", witness, "exhaustive")


# --------------------------------------------------------------- equivalence


def _column_profiles(code: LinearCode):
    """pair[i][j][w], the weight-w codewords holding columns i and j,
    B_w^T B_w over the 0/1 matrix B_w of them; sig[i] = pair[i][i]."""
    n = code.n
    prof = np.zeros((n + 1, n, n))  # float64 sums are exact below 2^53
    for words in code._codewords():
        weights = _weights(words)
        by_weight = words[np.argsort(weights)].astype("<u8", copy=False)
        bits = np.unpackbits(by_weight.view(np.uint8), axis=1, bitorder="little")
        bits = bits[:, :n].astype(np.float64)
        ends = np.cumsum(np.bincount(weights, minlength=n + 1)).tolist()
        for w in range(1, n + 1):
            b_w = bits[ends[w - 1] : ends[w]]
            if b_w.size:
                prof[w] += b_w.T @ b_w
    counts = prof.astype(np.int64).transpose(1, 2, 0).tolist()
    pair = [[tuple(p) for p in row] for row in counts]
    sig = [pair[i][i] for i in range(n)]
    return sig, pair


def are_equivalent(
    a: LinearCode, b: LinearCode, node_cap: int = NODE_CAP
) -> EquivalenceVerdict:
    """Decide whether a column permutation carries a onto b: backtracking
    over assignments that keep _column_profiles, after fast rejects.  A
    full assignment is accepted when every permuted row of a has syndrome
    0 under b (so the image, of b's dimension, is b); a search past
    node_cap returns equivalent=None."""
    if a.n != b.n or a.k != b.k:
        raise DimensionError(
            f"cannot compare [{a.n},{a.k}] against [{b.n},{b.k}]"
        )
    if a.n > EQUIV_CAP:
        raise ResourceLimitError(
            f"equivalence search capped at n <= {EQUIV_CAP}",
            limit=EQUIV_CAP, requested=a.n,
        )
    if a.same_row_space(b):
        return EquivalenceVerdict(True, tuple(range(a.n)))
    if a.weight_distribution() != b.weight_distribution():
        return EquivalenceVerdict(False)
    if a.hull_dim() != b.hull_dim():
        return EquivalenceVerdict(False)

    n = a.n
    sig_a, pair_a = _column_profiles(a)
    sig_b, pair_b = _column_profiles(b)
    candidates = [
        [j for j in range(n) if sig_b[j] == sig_a[i]] for i in range(n)
    ]
    if any(not c for c in candidates):
        return EquivalenceVerdict(False)

    order = sorted(range(n), key=lambda i: len(candidates[i]))
    # column j of b's parity checks, packed: a word's syndrome is the XOR
    # of the columns in its support
    syndrome_b = transpose(b.parity_check()).row_bits
    supports_a = [[j for j in range(n) if r >> j & 1] for r in a.gen.row_bits]
    assigned: list[tuple[int, int]] = []
    perm = [-1] * n
    used = [False] * n
    nodes = 0

    def extend(depth: int) -> EquivalenceVerdict | None:
        nonlocal nodes
        if depth == n:
            for support in supports_a:
                syndrome = 0
                for j in support:
                    syndrome ^= syndrome_b[perm[j]]
                if syndrome:
                    return None
            return EquivalenceVerdict(True, tuple(perm))
        i = order[depth]
        for j in candidates[i]:
            if used[j]:
                continue
            nodes += 1
            if nodes > node_cap:
                return EquivalenceVerdict(None)
            if any(pair_a[i][i0] != pair_b[j][j0] for i0, j0 in assigned):
                continue
            perm[i] = j
            used[j] = True
            assigned.append((i, j))
            found = extend(depth + 1)
            assigned.pop()
            used[j] = False
            perm[i] = -1
            if found is not None:
                return found
        return None

    verdict = extend(0)
    if verdict is None:
        return EquivalenceVerdict(False)
    return verdict


# ------------------------------------------------------------------- records


def format_sweep_record(rec: SweepRecord) -> str:
    """The record's SWEEP line: rec.line if set, else from the fields."""
    return rec._field_line() if rec.line is None else rec.line


def format_claim(claim: OptimalityClaim) -> str:
    gen = "-" if claim.witness is None else ",".join(claim.witness.to_strings())
    return (
        f"CLAIM {claim.n} {claim.k} {claim.h} {claim.d_best}"
        f" {claim.status} {claim.method} {gen}"
    )
