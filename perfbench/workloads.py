"""The three benchmark workloads: sweep, exhaustive, verify.

Each workload turns a workload seed into a fixed list of ops.  An op
builds its LinearCode inputs afresh from plain integers, the way one CLI
call would, so no per-object cache carries over between ops.  Every op
has a canonical rendering (hashed for the pinned digests) and an oracle
check used for any seed that has no pinned digests.  Module attributes
are looked up at call time (``ctx.search.sweep_extensions``) so that the
traced run's rebound names are the ones called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from typing import Callable


from oracles import (
    CheckError,
    covering_radius_full_space,
    covering_radius_systematic,
    min_weight,
    parity,
    permute_bits,
    require,
)

WORKLOADS = ("sweep", "exhaustive", "verify")
ODD_TABLE_HULL = {"T1": 1, "T3": 2, "T5": 3, "T7": 4, "T9": 5}


@dataclass
class Op:
    key: str
    lanes: int
    run: Callable[[], object]
    render: Callable[[object], bytes]
    oracle: Callable[[object], None]
    records: Callable[[object], int] | None = None  # sweep records in an output


class Context:
    """The imported hullforge layers plus the bundled data."""

    def __init__(self, modules: dict, entries, cells):
        self.__dict__.update(modules)
        self.entries = entries
        self.by_label = {e.label: e for e in entries}
        self.cells = cells

    def code_of(self, n: int, rows) -> object:
        return self.code.LinearCode(self.gf2.BitMatrix(n, tuple(rows)))


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def _scramble(rows, n: int, rng: random.Random) -> list[int]:
    """Random column permutation and change of basis: an equivalent code
    with the same record counts, hulls and distances."""
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [permute_bits(r, perm) for r in rows]
    k = len(rows)
    for _ in range(2 * k if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        rows[i] ^= rows[j]
    rng.shuffle(rows)
    return rows


def _systematic(n: int, k: int, rng: random.Random) -> list[int]:
    return [(1 << i) | (rng.getrandbits(n - k) << k) for i in range(k)]


# ---------------------------------------------------------------- sweep

# (corpus label, target h, min_d).  min_d = 1 keeps thousands of records;
# min_d = the best reachable d keeps few.  Seven heavy and six light ops:
# with an odd count the median falls in the middle of one op's samples
# rather than on the boundary between two ops.
SWEEP_OPS = {
    "full": [
        ("D1_12_3_6", 1, 1), ("D1_12_2_7", 2, 1), ("G2_12_4_6", 3, 1),
        ("G3_12_4_4", 4, 1), ("G4_12_5_4", 5, 1), ("B12", 7, 1),
        ("G1_13_11_2", 2, 1),
        ("G2_12_7_3", 2, 4), ("G4_12_7_3", 4, 4), ("D1_12_4_5", 3, 6),
        ("D1_13_5_5", 2, 6), ("G1_13_8_3", 3, 4), ("G2_12_8_3", 3, 4),
    ],
    "tiny": [("seed_10_6_3", 2, 1), ("seed_10_6_3", 2, 3), ("D3_9_5_3", 3, 1)],
}


def sweep_shape(lines) -> list[tuple[str, ...]]:
    """Seed-invariant part of a sweep: the sorted (kind, n, k, d, h) list."""
    return sorted(tuple(line.split()[3:8]) for line in lines)


def _sweep_ops(ctx: Context, seed: int, scale: str, pinned: dict) -> list[Op]:
    ops = []
    scrambled = {}
    for label, target_h, min_d in SWEEP_OPS[scale]:
        entry = ctx.by_label[label]
        n = entry.claimed_n
        if label not in scrambled:
            scrambled[label] = _scramble(list(entry.matrix.row_bits), n, _rng(seed, "sweep", label))
        rows = scrambled[label]
        shape_key = f"{label}/h{target_h}/d{min_d}"

        def run(rows=rows, n=n, label=label, th=target_h, md=min_d):
            seed_code = ctx.code_of(n, rows)
            records = ctx.search.sweep_extensions(seed_code, th, md, seed_id=label)
            return [ctx.search.format_sweep_record(r) for r in records]

        def oracle(lines, rows=rows, n=n, label=label, th=target_h, md=min_d, shape_key=shape_key):
            want = pinned["sweep_shapes"].get(shape_key)
            require(want is not None, f"no pinned sweep shape for {shape_key}")
            require(digest_lines(map(" ".join, sweep_shape(lines))) == want,
                    f"{shape_key}: record shape differs from the pinned shape")
            _check_sweep_lanes(ctx, rows, n, label, th, md, lines, _rng(seed, "check", shape_key))

        ops.append(Op(f"sweep:{shape_key}", 1 << n, run, _render_lines, oracle, records=len))
    return ops


def _check_sweep_lanes(ctx, rows, n, label, th, md, lines, rng) -> None:
    """Reference path (construct + hull + distance per lane) on sampled x."""
    by_x: dict[str, list[str]] = {}
    for line in lines:
        by_x.setdefault(line.split()[2], []).append(line)
    kept = [int(x[::-1], 2) for x in by_x]
    xs = {rng.getrandbits(n) for _ in range(6)}
    xs |= set(rng.sample(kept, min(4, len(kept))))
    seed_code = ctx.code_of(n, rows)
    k = seed_code.k
    kinds = list(ctx.buildup.ConstructionKind)
    for xb in sorted(xs):
        x = ctx.gf2.BitVector(n, xb)
        odd = parity(xb) == 1
        y_zero = all(parity(xb & r) == 0 for r in seed_code.gen.row_bits)
        want = []
        for kind in kinds:
            if kind.value == "I":
                ok = odd
            elif kind.value == "II":
                ok = not odd and y_zero
            elif kind.value == "III":
                ok = not odd and not y_zero
            else:
                ok = not odd
            if not ok:
                continue
            child = ctx.buildup.construct(seed_code, x, kind).child
            if child.hull_dim() != th:
                continue
            d = child.min_distance()
            if d < md:
                continue
            rec = ctx.search.SweepRecord(label, x, kind, (n + 2, k + 1, d, th), child.canonical_gen())
            want.append(ctx.search.format_sweep_record(rec))
        require(by_x.get(x.to01(), []) == want, f"sweep {label} h={th}: lane x={x.to01()} differs from the reference path")


# ----------------------------------------------------------- exhaustive

# Raised-cap cells and censuses beyond the 160 in-cap table cells.  The
# five small censuses bring a round to 170 ops, which puts the p95 tail in
# the middle of one op's samples instead of on the edge between two ops.
EXHAUSTIVE_EXTRA = {
    "full": {
        "cells": [(10, 4, 2, 24), (10, 5, 2, 25)],
        "census": [(9, 4, None), (10, 4, 24), (10, 5, 25),
                   (6, 3, None), (7, 3, None), (8, 3, None), (8, 4, None), (9, 3, None)],
    },
    "tiny": {"cells": [], "census": [(6, 3, None)]},
}
TINY_CELLS = [(5, 2, 1), (6, 3, 1), (7, 3, 2), (8, 4, 2), (8, 3, 3)]
BRUTE_FORCE_BITS = 9


def _render_claim(ctx):
    return lambda claim: ctx.search.format_claim(claim).encode()


def _render_census(n, k):
    return lambda counts: (f"CENSUS {n} {k} " + " ".join(f"{h}:{c}" for h, c in sorted(counts.items()))).encode()


def _exhaustive_ops(ctx: Context, seed: int, scale: str, pinned: dict) -> list[Op]:
    table = {}
    for cell in ctx.cells:
        table[(ODD_TABLE_HULL[cell.table_id], cell.n, cell.k)] = cell
    if scale == "full":
        cells = [
            (c.n, c.k, ODD_TABLE_HULL[c.table_id], None)
            for c in ctx.cells
            if c.k <= c.n and c.k * (c.n - c.k) <= ctx.search.EXHAUSTIVE_CAP
        ]
    else:
        cells = [(n, k, h, None) for n, k, h in TINY_CELLS]
    cells += EXHAUSTIVE_EXTRA[scale]["cells"]
    ops = []
    for n, k, h, cap in cells:
        def run(n=n, k=k, h=h, cap=cap):
            return ctx.search.exhaustive_codes(n, k, h, cap=cap)

        def oracle(claim, n=n, k=k, h=h, cap=cap):
            _check_claim(ctx, n, k, h, claim, table.get((h, n, k)))

        ops.append(Op(f"exhaustive:{n},{k},{h},cap={cap}", 1 << (k * (n - k)), run, _render_claim(ctx), oracle))
    for n, k, cap in EXHAUSTIVE_EXTRA[scale]["census"]:
        def run(n=n, k=k, cap=cap):
            return ctx.search.hull_census(n, k, cap=cap)

        def oracle(counts, n=n, k=k):
            require(sum(counts.values()) == 1 << (k * (n - k)), f"census ({n},{k}): totals != 2^(k(n-k))")
            require(all(0 <= h <= min(k, n - k) for h in counts), f"census ({n},{k}): hull dimension out of range")

        ops.append(Op(f"census:{n},{k},cap={cap}", 1 << (k * (n - k)), run, _render_census(n, k), oracle))
    return ops


def _check_claim(ctx, n, k, h, claim, cell) -> None:
    where = f"cell ({n},{k},{h})"
    require((claim.n, claim.k, claim.h) == (n, k, h), f"{where}: claim is for another cell")
    if cell is not None:
        if cell.d == 0:
            require(claim.status == "nonexistence" and claim.d_best == 0, f"{where}: table says no such code")
        elif cell.exact:
            require(claim.status == "h_optimal" and claim.d_best == cell.d, f"{where}: table says d={cell.d}")
        else:
            require(claim.d_best >= cell.d, f"{where}: table says d>={cell.d}")
    if claim.status == "h_optimal":
        rows = claim.witness.row_bits
        require(len(rows) == k and all(r & ((1 << k) - 1) == 1 << i for i, r in enumerate(rows)),
                f"{where}: witness is not systematic")
        witness = ctx.code_of(n, rows)
        require(witness.hull_dim() == h, f"{where}: witness hull != {h}")
        require(min_weight(rows) == claim.d_best, f"{where}: witness distance != d_best")
    else:
        require(claim.status == "nonexistence", f"{where}: unexpected status {claim.status}")
    if k * (n - k) <= BRUTE_FORCE_BITS:
        best = max((min_weight(c.gen.row_bits) for c in ctx.search.iter_exhaustive(n, k, h)), default=0)
        require(claim.d_best == best, f"{where}: iter_exhaustive gives d={best}, claim {claim.d_best}")
        require((claim.status == "h_optimal") == (best > 0), f"{where}: existence disagrees with iter_exhaustive")


# --------------------------------------------------------------- verify

VERIFY_SCALE = {
    "full": {"entries": None, "xs": 4, "covering": [(22, 7), (21, 7), (22, 8)]},
    "tiny": {"entries": ["Hamming_7_4_3", "D3_9_5_3", "seed_10_6_3"], "xs": 2, "covering": [(12, 4)]},
}


def _sample_x(n: int, want_odd: bool, rng: random.Random) -> int:
    x = rng.getrandbits(n)
    if parity(x) != want_odd:
        x ^= 1 << rng.randrange(n)
    return x


def _verify_ops(ctx: Context, seed: int, scale: str, pinned: dict) -> list[Op]:
    spec = VERIFY_SCALE[scale]
    entries = ctx.entries if spec["entries"] is None else [ctx.by_label[x] for x in spec["entries"]]
    ops = []
    for entry in entries:
        n, label = entry.claimed_n, entry.label
        rows = list(entry.matrix.row_bits)
        rng = _rng(seed, "verify", label)
        xs = [_sample_x(n, i % 2 == 0, rng) for i in range(spec["xs"])]
        for i, xb in enumerate(xs):
            for mode in ("auto", "IV") if parity(xb) == 0 else ("auto",):
                ops.append(_construct_op(ctx, f"{label}:{i}", n, rows, xb, mode))
        ops.append(_predict_op(ctx, label, n, rows, xs[0]))
        ops.append(_covering_op(ctx, f"covering:{label}", n, rows,
                                lambda rows=rows, n=n: covering_radius_full_space(rows, n)))
        # The equivalence search cost swings 25x with the permutation on some
        # entries (16 ms to 420 ms on G3_13_10_2), so the permutation is fixed
        # per entry: a seeded one would make throughput depend on the seed.
        perm = list(range(n))
        _rng("fixed", "equiv", label).shuffle(perm)
        ops.append(_equiv_op(ctx, label, n, rows, perm))
    for i, (n, k) in enumerate(spec["covering"]):
        # A fixed random code under a seeded column permutation and change of
        # basis: the radius stays put, and the cost within about a fifth,
        # while the input moves with the seed.
        base = _systematic(n, k, _rng("fixed", "covering", i))
        rows = _scramble(base, n, _rng(seed, "covering", i))
        ops.append(_covering_op(ctx, f"covering:random{i}:[{n},{k}]", n, rows,
                                lambda base=base, n=n, k=k: covering_radius_systematic(base, n, k)))
    ops.append(_cli_op(ctx))
    return ops


def _construct_op(ctx, label, n, rows, xb, mode) -> Op:
    def run():
        seed_code = ctx.code_of(n, rows)
        x = ctx.gf2.BitVector(n, xb)
        if mode == "auto":
            kind = ctx.buildup.classify_extension(seed_code, x)
        else:
            kind = ctx.buildup.ConstructionKind.IV
        res = ctx.buildup.construct(seed_code, x, kind)
        child, H = res.child, res.parity_check
        gh_zero = all(b == 0 for b in ctx.gf2.mat_mul(child.gen, ctx.gf2.transpose(H)).row_bits)
        h_full = ctx.gf2.rank(H) == child.n - child.k
        d = res.actual_distance
        return res, gh_zero, h_full, d, ctx.eaqecc.derive(child)

    def render(out):
        res, gh_zero, h_full, d, pair = out
        gen = ",".join(res.child.canonical_gen().to_strings())
        return (f"{res.kind} {gen} h={res.actual_hull} d={d} GH={gh_zero} rankH={h_full}"
                f" {pair.primal} {pair.dual_side}").encode()

    def oracle(out):
        res, gh_zero, h_full, d, pair = out
        child, H = res.child, res.parity_check
        where = f"verify {label} x={xb:b} {res.kind}"
        require(gh_zero and h_full, f"{where}: H is not a full-rank parity check")
        require(res.actual_hull in res.predicted_hull, f"{where}: hull outside the predicted set")
        require(d in res.distance_prediction, f"{where}: distance outside the predicted set")
        meet = ctx.gf2.row_space_intersection(child.gen, H).nrows
        require(meet == res.actual_hull, f"{where}: Zassenhaus hull {meet} != {res.actual_hull}")
        require(min_weight(child.gen.row_bits) == d, f"{where}: distance disagrees with enumeration")
        cn, ck, h = child.n, child.k, res.actual_hull
        p = pair.primal
        require((p.n, p.k, p.d, p.c) == (cn, ck - h, d, cn - ck - h), f"{where}: primal parameters wrong")
        q = pair.dual_side
        d_dual = min_weight(H.row_bits)
        require(q is not None and (q.n, q.k, q.d, q.c) == (cn, cn - ck - h, d_dual, ck - h),
                f"{where}: dual-side parameters wrong")

    return Op(f"construct:{label}:{xb}:{mode}", 1, run, render, oracle)


def _predict_op(ctx, label, n, rows, xb) -> Op:
    def run():
        seed_code = ctx.code_of(n, rows)
        x = ctx.gf2.BitVector(n, xb)
        kind = ctx.buildup.classify_extension(seed_code, x)
        return kind, ctx.buildup.predict_distance(seed_code, x, kind)

    def render(out):
        kind, pred = out
        return f"{kind} {sorted(pred)} {pred.bracket}".encode()

    def oracle(out):
        kind, pred = out
        child = ctx.buildup.construct(ctx.code_of(n, rows), ctx.gf2.BitVector(n, xb), kind).child
        d = min_weight(child.gen.row_bits)
        require(d in pred, f"predict {label}: child distance {d} not in {sorted(pred)}")
        require(pred.bracket is not None and pred.bracket[0] <= d <= pred.bracket[1],
                f"predict {label}: child distance {d} outside bracket {pred.bracket}")

    return Op(f"predict:{label}:{xb}", 0, run, render, oracle)


def _covering_op(ctx, key, n, rows, reference) -> Op:
    def run():
        return ctx.code_of(n, rows).covering_radius()

    def oracle(rho):
        want = reference()
        require(rho == want, f"{key}: covering radius {rho} != {want}")

    return Op(key, 0, run, lambda rho: str(rho).encode(), oracle)


def _equiv_op(ctx, label, n, rows, perm) -> Op:
    permuted = [permute_bits(r, perm) for r in rows]

    def run():
        return ctx.search.are_equivalent(ctx.code_of(n, rows), ctx.code_of(n, permuted))

    def oracle(verdict):
        require(verdict.equivalent is True, f"equiv {label}: a column permutation was not found")
        mapped = ctx.code_of(n, [permute_bits(r, verdict.permutation) for r in rows])
        require(mapped.same_row_space(ctx.code_of(n, permuted)), f"equiv {label}: permutation does not map the code")

    return Op(f"equiv:{label}", 0, run, lambda v: f"{v.equivalent} {v.permutation}".encode(), oracle)


def _cli_op(ctx) -> Op:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = ctx.cli.main(["reproduce-tables"])
        return rc, buf.getvalue()

    def oracle(out):
        rc, text = out
        require(rc == 0 and text.endswith("# total mismatches: 0\n"), "reproduce-tables reported mismatches")

    return Op("cli:reproduce-tables", 0, run, lambda out: f"{out[0]}\n{out[1]}".encode(), oracle)


# ---------------------------------------------------------------- shared


def digest_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _render_lines(lines) -> bytes:
    return "\n".join(lines).encode()


_BUILDERS = {"sweep": _sweep_ops, "exhaustive": _exhaustive_ops, "verify": _verify_ops}


def build_ops(ctx: Context, workload: str, seed: int, scale: str, pinned: dict) -> list[Op]:
    """The workload's ops in seeded order; the same seed gives the same list."""
    ops = _BUILDERS[workload](ctx, seed, scale, pinned)
    _rng(seed, "order", workload).shuffle(ops)
    keys = [op.key for op in ops]
    if len(set(keys)) != len(keys):
        raise CheckError(f"{workload}: duplicate op keys")
    return ops
