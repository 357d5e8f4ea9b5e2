"""Sweeps, exhaustive enumeration, and equivalence checking.

The fast numpy paths are never trusted alone: every family of tests
pins them against the pure reference path on small instances before
the named oracle values are checked.
"""

from __future__ import annotations

import collections
import copy
import dataclasses
import hashlib
import itertools
import os
import pickle
import random
import subprocess
import sys
import time
import unittest.mock
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hullforge import code as code_mod
from hullforge import gf2, search
from hullforge.buildup import ConstructionKind, construct
from hullforge.code import LinearCode
from hullforge.corpus import by_label, load_corpus
from hullforge.errors import (
    ClaimViolationError,
    DimensionError,
    ResourceLimitError,
    UsageError,
)
from hullforge.gf2 import BitMatrix, BitVector
from hullforge.search import (
    EXHAUSTIVE_CAP,
    EquivalenceVerdict,
    OptimalityClaim,
    SweepRecord,
    are_equivalent,
    best_by_sweep,
    exhaustive_codes,
    format_claim,
    format_sweep_record,
    hull_census,
    iter_exhaustive,
    sweep_extensions,
)
from helpers import identity, iter_codewords

REP2 = LinearCode(BitMatrix.from_strings(["11"]))


@pytest.fixture(scope="module")
def entries():
    return by_label(load_corpus())


@pytest.fixture(scope="module")
def seed_10_6_3(entries):
    return entries["seed_10_6_3"].code()


# ------------------------------------------------------------------ sweeps


def test_rep_code_sweep_by_hand():
    # [2,1] repetition seed, hull dimension 1; odd x are 01 and 10,
    # each child is the self-dual [4,2,2] code
    recs = sweep_extensions(REP2, 2, kinds=[ConstructionKind.I])
    assert [(r.x.to01(), r.child_params) for r in recs] == [
        ("10", (4, 2, 2, 2)),
        ("01", (4, 2, 2, 2)),
    ]
    assert sweep_extensions(REP2, 2, min_d=3, kinds=[ConstructionKind.I]) == []


def test_rep_code_sweep_all_kinds_order():
    recs = sweep_extensions(REP2, 2)
    pairs = [(r.x.bits, r.kind) for r in recs]
    assert pairs == sorted(
        pairs, key=lambda p: (p[0], list(ConstructionKind).index(p[1]))
    )
    # x = 00 and x = 11 are even with y = 0: construction II, hull 2
    assert (0, ConstructionKind.II) in pairs
    assert (3, ConstructionKind.II) in pairs


def test_sweep_engines_agree_everywhere(entries):
    seed = entries["D0_5_2_2"].code()
    for target_h in range(0, 4):
        auto = sweep_extensions(seed, target_h)
        ref = sweep_extensions(seed, target_h, engine="reference")
        assert [format_sweep_record(r) for r in auto] == [
            format_sweep_record(r) for r in ref
        ]


def test_sweep_engines_agree_on_worked_seed(seed_10_6_3):
    auto = sweep_extensions(seed_10_6_3, 2, min_d=3, kinds=[ConstructionKind.III])
    ref = sweep_extensions(
        seed_10_6_3, 2, min_d=3, kinds=[ConstructionKind.III], engine="reference"
    )
    assert [format_sweep_record(r) for r in auto] == [
        format_sweep_record(r) for r in ref
    ]


def test_sweep_contains_worked_extension(seed_10_6_3):
    recs = sweep_extensions(seed_10_6_3, 2, min_d=3, kinds=[ConstructionKind.III])
    hits = {r.x.to01(): r for r in recs}
    rec = hits["0000011000"]
    assert rec.child_params == (12, 7, 3, 2)
    assert rec.seed_id == "seed_10_6_3" or rec.seed_id.startswith("code-10-6-")


def test_sweep_finds_distance_four_extension(seed_10_6_3):
    # the all-ones vector lifts the worked seed to a [12,7,4] code with
    # hull dimension 3; the variant vector 1111110011 lands at d = 2
    # instead and must be filtered out here
    recs = sweep_extensions(seed_10_6_3, 3, min_d=4, kinds=[ConstructionKind.III])
    hits = {r.x.to01() for r in recs}
    assert "1111111111" in hits
    assert "1111110011" not in hits


def test_sweep_records_recompute(seed_10_6_3):
    recs = sweep_extensions(seed_10_6_3, 2, min_d=3, kinds=[ConstructionKind.III])
    rng = random.Random(7)
    for rec in rng.sample(recs, 5):
        child = construct(seed_10_6_3, rec.x, rec.kind).child
        assert (
            child.n,
            child.k,
            child.min_distance(),
            child.hull_dim(),
        ) == rec.child_params
        assert child.canonical_gen() == rec.canonical_gen


def test_sweep_deterministic(seed_10_6_3):
    one = sweep_extensions(seed_10_6_3, 2, min_d=3)
    two = sweep_extensions(seed_10_6_3, 2, min_d=3)
    assert [format_sweep_record(r) for r in one] == [
        format_sweep_record(r) for r in two
    ]


def test_sweep_cap():
    wide = LinearCode(BitMatrix.from_strings(["1" * 21]))
    with pytest.raises(ResourceLimitError):
        sweep_extensions(wide, 1)


def test_sweep_cap_counts_lane_steps():
    # [16,15] passes n <= SWEEP_CAP but not n + k <= 30: every engine and
    # sweep_children must refuse it before doing any work
    even = LinearCode(BitMatrix(16, tuple(1 | 1 << i for i in range(1, 16))))
    start = time.perf_counter()
    for engine in ("auto", "reference"):
        with pytest.raises(ResourceLimitError, match="n \\+ k"):
            sweep_extensions(even, 1, engine=engine)
    with pytest.raises(ResourceLimitError, match="n \\+ k"):
        search.sweep_children(even)
    assert time.perf_counter() - start < 1.0


def test_sweep_rejects_unknown_engine(seed_10_6_3):
    with pytest.raises(UsageError):
        sweep_extensions(seed_10_6_3, 2, engine="guess")


@st.composite
def sweep_seeds(draw, max_n=8):
    """A random seed code with n <= max_n (dependent rows are dropped)."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, n))
    rows = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=k, max_size=k))
    return LinearCode(BitMatrix(n, tuple(rows)))


@settings(max_examples=100, deadline=None)
@given(
    sweep_seeds(),
    st.sets(st.sampled_from(list(ConstructionKind))),
    st.integers(0, 10),
)
def test_sweep_engines_agree_on_random_seeds(seed, kinds, min_d):
    for target_h in range(seed.k + 2):
        auto = sweep_extensions(seed, target_h, min_d, kinds=kinds)
        ref = sweep_extensions(seed, target_h, min_d, kinds=kinds, engine="reference")
        assert [format_sweep_record(r) for r in auto] == [
            format_sweep_record(r) for r in ref
        ]


def _gray_coset_scan(seed):
    """The sweep kernel as a loop over the 2^k messages m in Gray order,
    each step one pass over all 2^n lanes x."""
    n, k = seed.n, seed.k
    xs = np.arange(1 << n, dtype=np.uint64)
    rows = [r.bits for r in seed.canonical_gen().rows]
    d2, d1, dt, dc = (np.full(1 << n, 255, dtype=np.uint8) for _ in range(4))
    m = 0
    for t in range(1 << k):
        if t:
            m ^= rows[(t & -t).bit_length() - 1]
        par = (np.bitwise_count(xs & np.uint64(m)) & 1).astype(np.uint8)
        wx = np.bitwise_count(xs ^ np.uint64(m)).astype(np.uint8)
        if t:
            wm = np.uint8(m.bit_count())
            np.minimum(d2, 2 * par + wm, out=d2)  # min over m != 0 of 2(x.m) + wt(m)
            np.minimum(d1, par + wm, out=d1)  # min over m != 0 of (x.m) + wt(m)
        np.minimum(dt, (1 ^ par) + 1 + wx, out=dt)  # (1 xor x.m) + 1 + wt(x xor m)
        np.minimum(dc, wx, out=dc)  # wt(x xor m)
    ypack = np.zeros(1 << n, dtype=np.uint32)
    for i, r in enumerate(rows):
        ypack |= (np.bitwise_count(xs & np.uint64(r)) & 1).astype(np.uint32) << np.uint32(i)
    odd = (np.bitwise_count(xs) & 1).astype(bool)
    return d2, d1, dt, dc, ypack, odd


def _assert_scan_matches_gray_loop(seed):
    names = ("d2", "d1", "dt", "dc", "ypack", "odd")
    for name, got, want in zip(names, search._coset_scan(seed), _gray_coset_scan(seed)):
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


@settings(max_examples=150, deadline=None)
@given(sweep_seeds(max_n=10))
@example(LinearCode(identity(7)))  # k = n
# rank-deficient rows: the third is the sum of the first two
@example(LinearCode(BitMatrix(9, (0b110000011, 0b000111001, 0b110111010, 0b100000001))))
def test_coset_scan_matches_gray_loop_on_random_seeds(seed):
    _assert_scan_matches_gray_loop(seed)


def test_coset_scan_matches_gray_loop_on_bundled_seeds(entries):
    seeds = [e.code() for e in entries.values() if e.claimed_n <= 13]
    assert len(seeds) > 60
    for seed in seeds:
        _assert_scan_matches_gray_loop(seed)


def test_sweep_children_at_the_lane_cap_is_fast():
    # a [16,14] seed sits at n + k = 30; the Gray loop took 2^30 lane-steps
    rng = random.Random(16)
    seed = LinearCode(BitMatrix(16, tuple(rng.getrandbits(16) for _ in range(14))))
    assert (seed.n, seed.k) == (16, 14)
    start = time.perf_counter()
    search.sweep_children(seed)
    assert time.perf_counter() - start < 1.0


def test_sweep_checks_each_child_against_the_claim(seed_10_6_3, monkeypatch):
    # a wrong predicted hull set must stop the fast path, not pass silently
    monkeypatch.setattr(search, "predicted_hull", lambda kind, ell: frozenset({ell + 5}))
    with pytest.raises(ClaimViolationError, match="predicted"):
        sweep_extensions(seed_10_6_3, 2, min_d=3, kinds=[ConstructionKind.III])
    # I, II and IV are kept when the target is in predicted_hull, so at the
    # patched target l + 5 their children reach the Gram check and must stop there
    ell = seed_10_6_3.hull_dim()
    for kind in (ConstructionKind.I, ConstructionKind.II, ConstructionKind.IV):
        with pytest.raises(ClaimViolationError, match=f"sweep child {kind} .*predicted"):
            sweep_extensions(seed_10_6_3, ell + 5, kinds=[kind])


def _unreduced(seed):
    """seed with canonical_gen() patched to an echelon form that is not
    reduced: row 0 also holds row 1's pivot."""
    rows = seed.canonical_gen().row_bits
    seed.canonical_gen = lambda: BitMatrix(seed.n, (rows[0] ^ rows[1],) + rows[1:])
    return seed


def test_unreduced_seed_rows_trip_the_echelon_check(seed_10_6_3):
    seed = _unreduced(LinearCode(seed_10_6_3.gen))
    with pytest.raises(ClaimViolationError, match="sweep child .*not ascending and reduced"):
        sweep_extensions(seed, 2)


SWEEP_CHECKS = """
from hullforge import search
from hullforge.buildup import ConstructionKind
from hullforge.corpus import by_label, load_corpus
from hullforge.errors import ClaimViolationError
from hullforge.gf2 import BitMatrix

def refused(run):
    try:
        run()
    except ClaimViolationError as e:
        print("ClaimViolationError:", e)
    else:
        raise SystemExit("the sweep kept a child that breaks its check")

seed = by_label(load_corpus(validate=False))["seed_10_6_3"].code()
real = search.predicted_hull
search.predicted_hull = lambda kind, ell: frozenset({ell + 5})
refused(lambda: search.sweep_extensions(seed, 2, min_d=3, kinds=[ConstructionKind.III]))
search.predicted_hull = real
rows = seed.canonical_gen().row_bits  # as _unreduced in test_search
seed.canonical_gen = lambda: BitMatrix(seed.n, (rows[0] ^ rows[1],) + rows[1:])
refused(lambda: search.sweep_extensions(seed, 2))
"""


def test_sweep_checks_survive_optimization():
    # the claim check and the echelon check raise, so python -O keeps both
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SWEEP_CHECKS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 and all(ln.startswith("ClaimViolationError: sweep child") for ln in lines)
    assert "predicted [6]" in lines[0] and "not ascending" not in lines[0]
    assert "not ascending and reduced" in lines[1]


def _lane_rref(rows, ncols):
    """RREF of one matrix per lane, rows[i][lane] being its row i: slot c
    of the (lanes, ncols) result holds the reduced row with pivot c, or 0.
    The generic lane elimination, an oracle for the closed-form echelon."""
    basis = [np.zeros_like(rows[0]) for _ in range(ncols)]
    for v in rows:
        for c in range(ncols):
            hit = v >> c & 1
            basis[c] = np.where((hit == 1) & (basis[c] == 0), v, basis[c])
            v = v ^ hit * basis[c]  # a row just stored clears itself
    for c in range(ncols - 2, -1, -1):
        for c2 in range(c + 1, ncols):
            basis[c] ^= (basis[c] >> c2 & 1) * basis[c2]
    return np.stack(basis, axis=1)


def _assembled_rows(seed_rows, x, ones_top):
    """The child's rows as the constructions assemble them: (1 0 | x) over
    (y_i y_i | r_i), or (1 1 | x) over (y_i 0 | r_i), with y_i = x . r_i."""
    body = 1 if ones_top else 3
    top = 1 | ones_top << 1 | x << 2
    return (top,) + tuple(((x & r).bit_count() & 1) * body | r << 2 for r in seed_rows)


@settings(max_examples=100, deadline=None)
@given(sweep_seeds(max_n=9))
@example(REP2)
@example(LinearCode(identity(6)))  # k = n
@example(LinearCode(BitMatrix(9, ((1 << 9) - 1,))))  # k = 1, every y = x.x
@example(LinearCode(BitMatrix(5, (0b00001, 0b00010, 0b11100))))  # y = 0 at x = 0b11000
def test_closed_form_child_echelon_is_the_row_basis(seed):
    n, k = seed.n, seed.k
    rows = seed.canonical_gen().row_bits
    # every x under both top rows, y = 0 lanes included, kinds applicable or not
    xs = np.repeat(np.arange(1 << n), 2)
    ones = np.tile(np.array([0, 1], dtype=np.uint32), 1 << n)
    ys = np.array(
        [sum(((x & r).bit_count() & 1) << i for i, r in enumerate(rows)) for x in xs.tolist()],
        dtype=np.uint32,
    )
    top = xs.astype(np.uint32) << 2 | 1 | ones << 1
    echelon = search._child_echelon(rows, xs, ys, top, 3 - 2 * ones)
    assert echelon.shape == (2 << n, k + 1)
    assembled = [_assembled_rows(rows, x, o) for x, o in zip(xs.tolist(), ones.tolist())]
    lanes = _lane_rref([np.array(col, dtype=np.uint32) for col in zip(*assembled)], n + 2)
    np.testing.assert_array_equal(echelon, lanes[lanes != 0].reshape(-1, k + 1))
    for got, child in zip(echelon.tolist(), assembled):
        assert tuple(got) == gf2.row_basis(BitMatrix(n + 2, child)).row_bits
    # the records carry the same rows, whichever chunk renders them
    with unittest.mock.patch.object(search, "RENDER_CHUNK", 3):
        for h in range(k + 2):
            for rec in sweep_extensions(seed, h):
                ones_top = rec.kind in (ConstructionKind.II, ConstructionKind.III)
                child = _assembled_rows(rows, rec.x.bits, ones_top)
                assert rec.canonical_gen == gf2.row_basis(BitMatrix(n + 2, child))
                assert rec.line == _fstring_line(rec)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10), st.integers(1, 12), st.integers(1, 30), st.data())
@example(3, 4, 5, None)  # all zero
def test_lane_rank_matches_rank(nrows, ncols, lanes, data):
    if data is None:
        cells, zero_rows, zero_cols = [[0] * lanes] * nrows, set(), set()
    else:
        word = st.integers(0, (1 << ncols) - 1)
        cells = data.draw(st.lists(st.lists(word, min_size=lanes, max_size=lanes),
                                   min_size=nrows, max_size=nrows))
        zero_rows = data.draw(st.sets(st.integers(0, nrows - 1)))
        zero_cols = data.draw(st.sets(st.integers(0, ncols - 1)))
    mask = (1 << ncols) - 1 - sum(1 << c for c in zero_cols)
    cells = [[0 if i in zero_rows else v & mask for v in row] for i, row in enumerate(cells)]
    rows = [np.array(row, dtype=search._lane_dtype(ncols)) for row in cells]
    before = [r.copy() for r in rows]
    got = search._lane_rank(rows, ncols)
    assert got.dtype == np.uint8 and got.shape == (lanes,)
    for lane in range(lanes):
        want = gf2.rank(BitMatrix(ncols, tuple(row[lane] for row in cells)))
        assert got[lane] == want
    for a, b in zip(rows, before):
        np.testing.assert_array_equal(a, b)  # the input rows are left alone


def test_best_by_sweep_from_bundled_seed(entries):
    seed = entries["D4_10_5_4"].code()
    claim = best_by_sweep([seed], 5)
    assert claim.status == "lower_bound"
    assert claim.method == "sweep"
    assert (claim.n, claim.k, claim.h) == (12, 6, 5)
    assert claim.d_best == 3
    witness = LinearCode(claim.witness)
    assert witness.hull_dim() == 5
    assert witness.min_distance() == 3


def test_best_by_sweep_empty():
    # no [4,2] child of the repetition seed reaches distance 5
    claim = best_by_sweep([REP2], 4)
    assert claim.d_best == 0
    assert claim.witness is None
    assert claim.status == "lower_bound"


@st.composite
def same_shape_seeds(draw):
    """One to three seeds of one [n, k] shape, n <= 6."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    rows = st.lists(st.integers(1, (1 << n) - 1), min_size=k, max_size=k)
    gens = draw(st.lists(rows, min_size=1, max_size=3))
    seeds = [LinearCode(BitMatrix(n, tuple(r))) for r in gens]
    assume(len({s.k for s in seeds}) == 1)
    return seeds


@settings(max_examples=40, deadline=None)
@given(same_shape_seeds(), st.integers(0, 2))
def test_best_by_sweep_keeps_the_least_tied_generator(seeds, lift):
    h = seeds[0].hull_dim() + lift
    recs = [r for s in seeds for r in sweep_extensions(s, h, engine="reference")]
    claim = best_by_sweep(seeds, h)
    best = max((r.child_params[2] for r in recs), default=0)
    assert claim.d_best == best
    if recs:
        tied = [r.canonical_gen.row_bits for r in recs if r.child_params[2] == best]
        assert claim.witness.row_bits == min(tied)
    else:
        assert claim.witness is None


def test_best_by_sweep_builds_no_record(entries, monkeypatch):
    # the claim comes from the kernel arrays: no record is built, no line rendered
    seeds = [entries[label].code() for label in ("G1_12_7_4", "G2_12_7_3")]
    want = [best_by_sweep(seeds, h) for h in range(4)]

    def refuse(*args):
        raise AssertionError("best_by_sweep built a record or rendered a line")

    monkeypatch.setattr(SweepRecord, "_lazy", refuse)
    monkeypatch.setattr(search, "_render_lines", refuse)
    with pytest.raises(AssertionError):
        sweep_extensions(seeds[0], want[1].h)
    assert [best_by_sweep(seeds, h) for h in range(4)] == want


def test_best_by_sweep_rejects_mixed_seeds(entries):
    with pytest.raises(UsageError):
        best_by_sweep([REP2, entries["D0_5_2_2"].code()], 1)
    with pytest.raises(UsageError):
        best_by_sweep([], 1)


# ------------------------------------------------------------- exhaustive


def _pure_census(n, k):
    """hull_dim() of every systematic generator, in one pass over the blocks."""
    m = n - k
    counts = collections.Counter(
        LinearCode(BitMatrix(n, search._candidate_rows(block, k, m))).hull_dim()
        for block in range(1 << (k * m))
    )
    return dict(counts)


@pytest.mark.parametrize(
    "n,k", [(4, 2), (5, 2), (6, 3), (5, 5), (4, 1), (7, 3), (6, 4), (8, 2), (7, 5)]
)
def test_census_matches_reference(n, k):
    fast = hull_census(n, k)
    assert fast == _pure_census(n, k)
    assert sum(fast.values()) == 1 << (k * (n - k))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 14).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, 14 // k))))
def test_census_matches_reference_on_random_shapes(shape):
    k, m = shape
    assert hull_census(k + m, k) == _pure_census(k + m, k)


def _orderings(rows: list[np.ndarray], k: int, m: int) -> np.ndarray:
    """Distinct orders of each sorted lane of k m-bit words, k! / prod(mult_j!),
    as exact integers: after word i it is the count for words 0..i."""
    # the products stay below 2^(k m) * k; past int64 use Python integers
    exact = np.int64 if k * m + k.bit_length() <= 63 else object
    weights = np.ones(rows[0].shape, dtype=exact)
    run = np.ones(rows[0].shape, dtype=np.uint8)
    for i in range(1, k):
        run = np.where(rows[i] == rows[i - 1], run + 1, 1)
        weights *= i + 1
        weights //= run
    return weights


def _sorted_block_census(n, k):
    """The census over sorted free blocks that the walk replaced: each
    sorted block of rows counts for its k! / prod(mult_j!) row orders, or,
    when _by_columns, each sorted block of columns for its column orders."""
    m = n - k
    by_columns, _ = search._by_columns(k, m)
    counts = [0] * (min(k, m) + 1)
    for words in search._sorted_free_blocks(*((m, k) if by_columns else (k, m))):
        rows = search._transpose_lanes(words, k) if by_columns else words
        hs = search._hull_dims(rows, k, m)
        weights = _orderings(words, m, k) if by_columns else _orderings(words, k, m)
        for h in range(len(counts)):
            counts[h] += int(weights.sum(where=hs == h, initial=0))
    return {h: c for h, c in enumerate(counts) if c}


def test_census_walk_matches_sorted_blocks():
    # the 67 shapes of test_census_bytes, rows and columns sides alike
    shapes = [(n, k) for n in range(1, 14) for k in range(1, n + 1) if k * (n - k) <= 22]
    assert len(shapes) == 67
    for n, k in shapes:
        assert hull_census(n, k) == _sorted_block_census(n, k), (n, k)


def _class_representative(k, r, alt):
    """Rows of one k x k symmetric matrix of rank r: r/2 hyperbolic
    blocks [[0, 1], [1, 0]] if alternating, else I_r, then zeros."""
    if alt:
        return [1 << (i ^ 1) if i < r else 0 for i in range(k)]
    return [1 << i if i < r else 0 for i in range(k)]


def test_class_moves_match_enumeration():
    for k in range(1, 9):
        for r in range(k + 1):
            for alt in (False, True):
                if alt and r % 2 or not alt and r == 0:
                    continue  # no such class
                rows = _class_representative(k, r, alt)
                found = collections.Counter()
                for a in range(1 << k):
                    moved = [row ^ (a if a >> i & 1 else 0) for i, row in enumerate(rows)]
                    rank = gf2.rank(BitMatrix(k, tuple(moved)))
                    found[rank, all(not row >> i & 1 for i, row in enumerate(moved))] += 1
                moves = {to: ways for to, ways in search._class_moves(k, r, alt) if ways}
                assert moves == found, (k, r, alt)


def test_census_enumerates_no_lane(monkeypatch):
    def refuse(*args):
        raise AssertionError("the census enumerated lanes")

    want = _sorted_block_census(10, 5)
    monkeypatch.setattr(search, "_sorted_free_blocks", refuse)
    monkeypatch.setattr(search, "_hull_dims", refuse)
    assert hull_census(10, 5, cap=25) == want


def test_exhaustive_checks_nonexistence_against_the_census(monkeypatch):
    # the walk runs only where no lane has hull h <= min(k, m)
    def refuse(k, m):
        raise AssertionError("the census ran on a settled cell")

    real = search._census_walk
    monkeypatch.setattr(search, "_census_walk", refuse)
    assert exhaustive_codes(6, 3, 1).status == "h_optimal"
    assert exhaustive_codes(6, 3, 4).status == "nonexistence"  # h > min(k, m)
    assert exhaustive_codes(4, 2, 2, d_floor=3).status == "nonexistence"  # below the floor
    monkeypatch.setattr(search, "_census_walk", real)
    monkeypatch.setattr(search, "_hull_dims", lambda rows, k, m: np.full(rows[0].shape, 9, np.uint8))
    blocks = hull_census(6, 3)[1]
    with pytest.raises(ClaimViolationError, match=rf"exhaustive \(6,3,1\): .* counts {blocks} blocks"):
        exhaustive_codes(6, 3, 1)


EXHAUSTIVE_CHECK = """
import numpy as np
from hullforge import search
from hullforge.errors import ClaimViolationError

assert False, "asserts run: not under -O"  # stripped by -O
search._hull_dims = lambda rows, k, m: np.full(rows[0].shape, min(k, m) + 1, np.uint8)
for n, k, h in [(6, 3, 1), (13, 2, 1), (10, 5, 2)]:  # rows side, columns side, raised cap
    try:
        search.exhaustive_codes(n, k, h, cap=25)
    except ClaimViolationError as e:
        print("ClaimViolationError:", e)
    else:
        raise SystemExit(f"exhaustive ({n},{k},{h}) claimed a nonexistence the census contradicts")
"""


def test_exhaustive_census_check_survives_optimization():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", EXHAUSTIVE_CHECK],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3 and all(ln.startswith("ClaimViolationError: exhaustive (") for ln in lines)


def test_census_partition_invariant():
    for n, k in [(7, 3), (8, 4), (9, 2)]:
        assert sum(hull_census(n, k).values()) == 1 << (k * (n - k))


@pytest.mark.parametrize("h", [0, 1, 2, 3])
def test_exhaustive_matches_reference(h):
    claim = exhaustive_codes(6, 3, h)
    best = 0
    for code in iter_exhaustive(6, 3, h):
        best = max(best, code.min_distance())
    if best == 0:
        assert claim.status == "nonexistence"
        assert claim.witness is None
    else:
        assert claim.status == "h_optimal"
        assert claim.d_best == best
        witness = LinearCode(claim.witness)
        assert witness.hull_dim() == h
        assert witness.min_distance() == best


@pytest.mark.parametrize(
    "call",
    [
        lambda: exhaustive_codes(5, 2, -1),
        lambda: exhaustive_codes(5.0, 2, 1),
        lambda: exhaustive_codes(5, 2, 1.0),
        lambda: list(iter_exhaustive(4, 2, -1)),
        lambda: list(iter_exhaustive(4, "2", 1)),
        lambda: hull_census(5, 2.5),
        lambda: hull_census(None, 2),
        lambda: sweep_extensions(REP2, -5),
        lambda: sweep_extensions(REP2, 1.0),
        lambda: best_by_sweep([REP2], -1),
        lambda: exhaustive_codes(5, 2, 1, d_floor="2"),
        lambda: exhaustive_codes(5, 2, 1, d_floor=2.5),
        lambda: exhaustive_codes(5, 2, 1, d_floor=-1),
        lambda: sweep_extensions(REP2, 1, min_d="3"),
        lambda: sweep_extensions(REP2, 1, min_d=2.5),
        lambda: sweep_extensions(REP2, 1, min_d=-1),
        # checked at entry: before the caps, the seeds and any enumeration
        lambda: exhaustive_codes(12, 6, 1, d_floor="2"),
        lambda: sweep_extensions(LinearCode(BitMatrix.from_strings(["1" * 21])), 1, min_d="3"),
        lambda: best_by_sweep([], 1.5),
        lambda: exhaustive_codes(5, 2, 1, cap="9"),
        lambda: exhaustive_codes(5, 2, 1, cap=-1),
        lambda: exhaustive_codes(5, 2, 1, cap=2.5),
        lambda: list(iter_exhaustive(4, 2, 1, cap="9")),
        lambda: list(iter_exhaustive(4, 2, 1, cap=-1)),
        lambda: hull_census(5, 2, cap="9"),
        lambda: hull_census(5, 2, cap=-1),
        lambda: hull_census(5, 2, cap=2.5),
    ],
)
def test_sizes_must_be_non_negative_integers(call):
    with pytest.raises(UsageError, match="must be a non-negative integer"):
        call()


def test_floors_may_be_none_or_zero():
    assert exhaustive_codes(5, 2, 1, d_floor=None) == exhaustive_codes(5, 2, 1)
    assert exhaustive_codes(5, 2, 1, d_floor=0) == exhaustive_codes(5, 2, 1)
    assert sweep_extensions(REP2, 2, min_d=0) == sweep_extensions(REP2, 2, min_d=1)
    assert sweep_extensions(REP2, 2, min_d=np.int64(0)) == sweep_extensions(REP2, 2, min_d=0)


def test_numpy_integer_sizes_are_accepted():
    assert exhaustive_codes(np.int64(5), np.int64(2), np.int64(1)) == exhaustive_codes(5, 2, 1)
    n, k, h, cap = map(np.int64, (10, 5, 2, 25))  # past the break-even: floor passes
    assert exhaustive_codes(n, k, h, cap=cap) == exhaustive_codes(10, 5, 2, cap=25)
    assert hull_census(np.int64(5), 2) == hull_census(5, 2)
    assert sweep_extensions(REP2, np.int64(2)) == sweep_extensions(REP2, 2)


def test_exhaustive_named_cells():
    assert exhaustive_codes(4, 2, 2).d_best == 2
    assert exhaustive_codes(7, 3, 3).d_best == 4
    assert exhaustive_codes(9, 5, 3).d_best == 3


def test_exhaustive_witness_is_checkable():
    claim = exhaustive_codes(7, 3, 3)
    witness = LinearCode(claim.witness)
    assert (witness.n, witness.k) == (7, 3)
    assert witness.hull_dim() == 3
    assert witness.min_distance() == 4


def test_exhaustive_deterministic_witness():
    a = exhaustive_codes(7, 3, 3)
    b = exhaustive_codes(7, 3, 3)
    assert format_claim(a) == format_claim(b)


def test_exhaustive_d_floor_nonexistence():
    # the best [4,2] self-dual code has distance 2
    claim = exhaustive_codes(4, 2, 2, d_floor=3)
    assert claim.status == "nonexistence"
    assert claim.d_best == 2
    assert claim.witness is None


def test_exhaustive_zero_cells():
    # [2,2] is the full space with trivial hull; no hull dimension 1 code
    claim = exhaustive_codes(2, 2, 1, d_floor=1)
    assert claim.status == "nonexistence"
    # self-orthogonality needs k <= n - k
    assert exhaustive_codes(3, 2, 2, d_floor=1).status == "nonexistence"


def test_exhaustive_full_space_cell():
    claim = exhaustive_codes(3, 3, 0)
    assert claim.status == "h_optimal"
    assert claim.d_best == 1


def test_exhaustive_full_space_is_capped_on_its_rows():
    # k(n-k) is 0 for [n, n], yet the witness still has n rows, so the cap reads k
    claim = exhaustive_codes(EXHAUSTIVE_CAP, EXHAUSTIVE_CAP, 0)
    assert claim.witness.nrows == EXHAUSTIVE_CAP
    n = 2**31
    for call in (
        lambda: exhaustive_codes(n, n, 0),
        lambda: next(iter_exhaustive(n, n, 0)),
        lambda: hull_census(n, n),
        lambda: exhaustive_codes(EXHAUSTIVE_CAP + 1, EXHAUSTIVE_CAP + 1, 0),
    ):
        with pytest.raises(ResourceLimitError, match="full space exceeds enumeration cap") as err:
            call()
        assert err.value.limit == EXHAUSTIVE_CAP
    assert exhaustive_codes(30, 30, 0, cap=30).witness.nrows == 30


def test_exhaustive_cap():
    with pytest.raises(ResourceLimitError):
        exhaustive_codes(12, 6, 1)
    with pytest.raises(ResourceLimitError):
        list(iter_exhaustive(12, 6, 1))
    with pytest.raises(UsageError):
        exhaustive_codes(8, 9, 4)


def _oracle_claim(n, k, h):
    """Max d over iter_exhaustive, then the row-lex-smallest generator."""
    best = None
    for code in iter_exhaustive(n, k, h):
        key = (-code.min_distance(), code.gen.row_bits)
        if best is None or key < best[0]:
            best = (key, code)
    if best is None:
        return 0, None
    return -best[0][0], best[1].gen.to_strings()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_exhaustive_matches_oracle(data):
    k = data.draw(st.integers(1, 7), label="k")
    m = data.draw(st.integers(1, min(12 // k, 8 - k)), label="m")
    h = data.draw(st.integers(0, min(k, m) + 1), label="h")
    claim = exhaustive_codes(k + m, k, h)
    d, witness = _oracle_claim(k + m, k, h)
    assert claim.d_best == d
    if witness is None:
        assert claim.status == "nonexistence" and claim.witness is None
    else:
        assert claim.status == "h_optimal"
        assert claim.witness.to_strings() == witness


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 5), st.integers(0, 6))
def test_sorted_free_blocks_in_lex_order(k, m, chunk_bits):
    want = list(itertools.combinations_with_replacement(range(1 << m), k))
    assume(len(want) <= 600)
    # small chunks split the tables and the heads at every boundary
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "CHUNK_BITS", chunk_bits)
        lanes = []
        for chunk in search._sorted_free_blocks(k, m):
            assert len(chunk) == k and 1 <= chunk[0].size <= 1 << chunk_bits
            lanes.extend(zip(*(row.tolist() for row in chunk)))
    assert lanes == want


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 5), st.integers(0, 6), st.integers(0, 7))
def test_sorted_free_blocks_at_a_floor(k, m, chunk_bits, floor):
    # a pass keeps the full pass's lanes whose rows all weigh floor - 1 or
    # more, strictly increasing from floor 3, in the same order
    assume(comb((1 << m) + k - 1, k) <= 600)
    want = [
        t
        for t in itertools.combinations_with_replacement(range(1 << m), k)
        if min(v.bit_count() for v in t) >= floor - 1 and (floor < 3 or len(set(t)) == k)
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "CHUNK_BITS", chunk_bits)
        lanes = []
        for chunk in search._sorted_free_blocks(k, m, floor):
            assert len(chunk) == k and 1 <= chunk[0].size <= 1 << chunk_bits
            lanes.extend(zip(*(row.tolist() for row in chunk)))
    assert lanes == want


def _pass_floors(monkeypatch):
    """Record the floor of every _sorted_free_blocks call (1 on the column side)."""
    floors = []
    real = search._sorted_free_blocks

    def spy(k, m, floor=1):
        floors.append(floor)
        return real(k, m, floor)

    monkeypatch.setattr(search, "_sorted_free_blocks", spy)
    return floors


def test_exhaustive_descends_from_the_griesmer_bound(monkeypatch):
    floors = _pass_floors(monkeypatch)
    # [12,7] codes reach the bound 4: the first pass settles the cell
    assert exhaustive_codes(12, 7, 1, cap=35).d_best == 4
    assert floors == [4]
    # the bound for [10,5] is 4, but hull-2 lanes reach 3: one last pass at 3
    floors.clear()
    assert exhaustive_codes(10, 5, 2, cap=25).d_best == 3
    assert floors == [4, 3]
    floors.clear()
    claim = exhaustive_codes(10, 5, 2, d_floor=4, cap=25)
    assert (claim.status, claim.d_best, claim.witness) == ("nonexistence", 3, None)
    assert floors == [4, 3]
    # a hull of dimension k makes every weight even: from 4 down to 2
    floors.clear()
    assert exhaustive_codes(10, 5, 5, cap=25).d_best == 2
    assert floors == [4, 2]
    # below the break-even of 2^14 row lanes, one full pass
    floors.clear()
    exhaustive_codes(8, 4, 2)
    assert floors == [1]
    # no hull-h lane in any pass: a floor down each time, ending in the
    # full pass that the census cross-checks
    floors.clear()
    monkeypatch.setattr(search, "_hull_dims", lambda rows, k, m: np.full(rows[0].shape, 9, np.uint8))
    with pytest.raises(ClaimViolationError, match=r"exhaustive \(10,5,2\)"):
        exhaustive_codes(10, 5, 2, cap=25)
    assert floors == [4, 3, 2, 1]


@pytest.mark.parametrize(
    "n, k, d",
    [(1, 1, 1), (3, 1, 3), (7, 4, 3), (8, 4, 4), (10, 5, 4), (12, 6, 4), (13, 7, 4), (24, 12, 8)],
)
def test_griesmer_bound(n, k, d):
    assert search._griesmer(n, k) == d
    assert sum(-(-d // (1 << i)) for i in range(k)) <= n < sum(-(-(d + 1) // (1 << i)) for i in range(k))


def _gray_min_distances(rows):
    """The per-lane Gray loop _min_distances replaced, kept as its oracle
    without the pruning it ran only when given a floor: 2^k - 1 steps,
    each one pass over all lanes."""
    cur = np.zeros(rows[0].shape, dtype=rows[0].dtype)
    curmin = np.full(rows[0].shape, 255, dtype=np.uint8)
    for t in range(1, 1 << len(rows)):
        cur ^= rows[(t & -t).bit_length() - 1]
        gray = t ^ (t >> 1)
        w = np.bitwise_count(cur).astype(np.uint8) + np.uint8(gray.bit_count())
        np.minimum(curmin, w, out=curmin)
    return curmin


@st.composite
def free_lanes(draw):
    """(m, k free rows of m bits each, one value per lane)."""
    k = draw(st.integers(1, 10), label="k")
    m = draw(st.integers(1, 20), label="m")
    lanes = draw(st.integers(1, 70), label="lanes")
    row = st.lists(st.integers(0, (1 << m) - 1), min_size=lanes, max_size=lanes)
    return m, draw(st.lists(row, min_size=k, max_size=k))


_RNG40 = random.Random(40)
WIDE_FREE = [[_RNG40.getrandbits(40) for _ in range(9)] for _ in range(7)]


@settings(max_examples=150, deadline=None)
@given(free_lanes(), st.integers(0, 4))
@example((40, WIDE_FREE), 0)  # uint64 lanes, one word per chunk
@example((3, [[7], [0]]), 1)  # one lane: odd steps read the 2-word table backwards
@example((40, [[(1 << 40) - 1, 1 << 39, 0]]), 0)  # k = 1
@example((3, [[0, 5, 7]]), 2)  # k = 1 with the lanes filling the budget
def test_min_distances_match_gray_loop(block, chunk_bits):
    m, free = block
    rows = [np.array(r, dtype=search._lane_dtype(m)) for r in free]
    # small chunks take the high steps and the reversed reads of the table
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(code_mod, "CHUNK_BITS", chunk_bits)
        got = search._min_distances(rows)
    want = _gray_min_distances(rows)
    assert got.dtype == want.dtype == np.uint8
    np.testing.assert_array_equal(got, want)


CLAIM_DIGEST = "6558f12c515e01df38d768afc9b8c27083f6ed706fb3f399d67ff6ab9a611cb2"


def _claim_digest():
    # every in-cap cell up to n = 13 and one h past min(k, n - k)
    claims = [
        format_claim(exhaustive_codes(n, k, h))
        for n in range(1, 14)
        for k in range(1, n + 1)
        if k * (n - k) <= 22
        for h in range(min(k, n - k) + 2)
    ]
    assert len(claims) == 234
    return hashlib.sha256("\n".join(claims).encode()).hexdigest()


def test_exhaustive_claim_bytes():
    assert _claim_digest() == CLAIM_DIGEST


def test_exhaustive_claim_bytes_in_floor_passes(monkeypatch):
    # 2^8-lane chunks put the break-even at 16 row lanes, so every row-side
    # cell past it runs in floor passes, and the claims stay byte-identical
    monkeypatch.setattr(search, "CHUNK_BITS", 8)
    floors = _pass_floors(monkeypatch)
    assert _claim_digest() == CLAIM_DIGEST
    assert {2, 3, 4} <= set(floors)


def test_census_bytes():
    # every in-cap shape up to n = 13, rows and columns sides alike
    lines = []
    for n in range(1, 14):
        for k in range(1, n + 1):
            if k * (n - k) <= 22:
                counts = hull_census(n, k)
                lines.append(f"{n} {k} " + " ".join(f"{h}:{counts[h]}" for h in sorted(counts)))
    assert len(lines) == 67
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "ef16b4dac4c0b1eaa7c2ce20451e67e4ee4ade4a64edae39b9873ed674782526"


# every k < m shape with k(n-k) <= 12; small chunks send it to the column side
COLUMN_SHAPES = [(1, m) for m in range(2, 13)] + [(2, m) for m in range(3, 7)] + [(3, 4)]


def _column_chunks(mp, chunk_bits):
    """Patch both chunk sizes; the list returned fills with the lane
    count of every column chunk the enumeration transposes into rows."""
    mp.setattr(search, "CHUNK_BITS", chunk_bits)
    mp.setattr(code_mod, "CHUNK_BITS", chunk_bits)
    chunks = []
    transpose = search._transpose_lanes

    def spy(vecs, bits):
        chunks.append(vecs[0].size)
        return transpose(vecs, bits)

    mp.setattr(search, "_transpose_lanes", spy)
    return chunks


def _check_column_chunks(chunks, k, m, chunk_bits):
    assert max(chunks) <= 1 << chunk_bits
    assert sum(chunks) == comb((1 << k) + m - 1, m)  # every sorted column multiset


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(COLUMN_SHAPES), st.integers(0, 4), st.data())
def test_exhaustive_column_side_matches_oracle(shape, chunk_bits, data):
    k, m = shape
    h = data.draw(st.integers(0, min(k, m) + 1), label="h")
    with pytest.MonkeyPatch.context() as mp:
        chunks = _column_chunks(mp, chunk_bits)
        assert search._by_columns(k, m) == (True, False)
        claim = exhaustive_codes(k + m, k, h)
    if h <= k:
        _check_column_chunks(chunks, k, m, chunk_bits)
    d, witness = _oracle_claim(k + m, k, h)
    assert claim.d_best == d
    if witness is None:
        assert claim.status == "nonexistence" and claim.witness is None
    else:
        assert claim.status == "h_optimal"
        assert claim.witness.to_strings() == witness


# every k >= m shape with k(n-k) <= 12 and n <= 8, as the oracle test draws
ROW_SHAPES = [(k, m) for k in range(1, 8) for m in range(1, min(k, 12 // k, 8 - k) + 1)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ROW_SHAPES), st.integers(0, 4), st.data())
def test_exhaustive_row_side_across_chunks_matches_oracle(shape, chunk_bits, data):
    # chunks of at most 16 lanes put every row shape past the break-even,
    # so the floor passes and each chunk's hull-h index run over many chunks
    k, m = shape
    h = data.draw(st.integers(0, min(k, m) + 1), label="h")
    with pytest.MonkeyPatch.context() as mp:
        _column_chunks(mp, chunk_bits)
        assert search._by_columns(k, m) == (False, True)
        claim = exhaustive_codes(k + m, k, h)
    d, witness = _oracle_claim(k + m, k, h)
    assert claim.d_best == d
    if witness is None:
        assert claim.status == "nonexistence" and claim.witness is None
    else:
        assert claim.status == "h_optimal"
        assert claim.witness.to_strings() == witness


def test_small_sorted_tables_are_kept_read_only():
    blocks = list(search._sorted_blocks(3, 6, np.dtype(np.uint8)))
    rows, above = search._kept_table(3, 6, np.dtype(np.uint8))
    assert len(blocks) == 1 and all(got is row for got, row in zip(blocks[0], rows, strict=True))
    assert search._kept_table(3, 6, np.dtype(np.uint8))[0] is rows
    for array in (*rows, above):
        with pytest.raises(ValueError):
            array[0] = 1
    fresh_rows, fresh_above = search._sorted_table(3, 6, np.uint8)
    assert len(rows) == len(fresh_rows) == 3
    for got, want in zip(rows, fresh_rows):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(above, fresh_above)


def test_large_sorted_tables_are_not_kept():
    # C(513, 2) pairs of uint16 entries: 525,312 bytes, past the bound,
    # and one chunk of 131,328 lanes
    assert 2 * 2 * comb(513, 2) > search._TABLE_BYTES
    before = search._kept_table.cache_info()
    (rows,) = search._sorted_blocks(2, 512, np.dtype(np.uint16))
    after = search._kept_table.cache_info()
    assert after.currsize == before.currsize
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert rows[0].size == comb(513, 2)
    assert list(zip(rows[0][:3].tolist(), rows[1][:3].tolist())) == [(0, 0), (0, 1), (0, 2)]


def test_census_column_side_matches_reference():
    # the shapes the sorted-block census took from the column side
    for k, m in COLUMN_SHAPES:
        if k * m <= 10:
            assert hull_census(k + m, k) == _pure_census(k + m, k), (k, m)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([5, 33]),
    st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4), min_size=1, max_size=4),
    st.randoms(),
)
def test_least_block_of_two_rows(m, mults, rnd):
    # k = 2: the least block puts the columns (1,1), then (1,0), then (0,1)
    # lowest; m = 33 packs 66 bits, past uint64, into Python integers
    lanes, want = [], []
    for c in mults:
        c[0] += m - sum(c)  # c[key] columns of each key, bit i of a key from row i
        assume(c[0] >= 0)
        keys = [key for key, count in enumerate(c) for _ in range(count)]
        rnd.shuffle(keys)
        lanes.append(keys)
        both, top = c[3], c[3] + c[1]
        want.append(((1 << top) - 1, (1 << both) - 1 | ((1 << c[2]) - 1) << top))
    cols = [np.array(col, dtype=np.uint8) for col in zip(*lanes)]
    assert search._least_block(cols, 2, m) == min(want)


def test_exhaustive_13_2_1_is_fast():
    exhaustive_codes(13, 2, 1)  # the rank table fills outside the timing
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        claim = exhaustive_codes(13, 2, 1)
        best = min(best, time.perf_counter() - start)
    assert best < 0.01  # 40-57 ms over the 2,098,176 row-sorted lanes
    assert format_claim(claim) == "CLAIM 13 2 1 8 h_optimal exhaustive 1011111110000,0111110001111"


def test_hull_kernel_keeps_bits_past_32():
    # k = 34 rows of one free bit: the transposed side packs 34 bits per lane
    k, m = 34, 1
    free = [1] * 33 + [0]
    rows = [np.array([a], dtype=np.uint8) for a in free]
    gen = BitMatrix(k + m, tuple((1 << i) | (a << k) for i, a in enumerate(free)))
    assert LinearCode(gen).hull_dim() == 1
    assert int(search._hull_dims(rows, k, m)[0]) == 1


@pytest.mark.parametrize("k", [34, 64])
def test_census_past_32_rows(k):
    # with one free column, h = wt(a) mod 2; at k = 64 each count is 2^63
    assert hull_census(k + 1, k, cap=k) == {0: 1 << (k - 1), 1: 1 << (k - 1)}


def test_lanes_past_64_bits_are_refused():
    with pytest.raises(ResourceLimitError):
        hull_census(66, 65, cap=65)
    with pytest.raises(ResourceLimitError):
        hull_census(66, 1, cap=65)
    with pytest.raises(ResourceLimitError):
        exhaustive_codes(66, 65, 1, cap=65)
    # 2^63 lanes would overflow the int64 lane indices
    with pytest.raises(ResourceLimitError):
        hull_census(64, 1, cap=63)


def test_resource_limits_report_the_requested_size(monkeypatch):
    def caught(fn, *args, **kwargs):
        with pytest.raises(ResourceLimitError) as err:
            fn(*args, **kwargs)
        return err.value.limit, err.value.requested

    wide = LinearCode(BitMatrix.from_strings(["1" * 21]))
    even = LinearCode(BitMatrix(16, tuple(1 | 1 << i for i in range(1, 16))))
    assert caught(sweep_extensions, wide, 1) == (20, 21)
    assert caught(search.sweep_children, even) == (30, 31)
    assert caught(exhaustive_codes, 12, 6, 0) == (22, 36)
    assert caught(exhaustive_codes, 30, 29, 1, cap=29) == (28, 29)
    assert caught(hull_census, 14, 7, cap=49) == (6, 7)
    assert caught(hull_census, 66, 1, cap=65) == (64, 65)
    assert caught(hull_census, 64, 1, cap=63) == (63, 64)  # 2^63 lanes
    assert caught(are_equivalent, wide, wide) == (16, 21)
    tall = LinearCode(BitMatrix.from_strings(["1" + "0" * 29]))
    assert caught(tall.covering_radius) == (24, 29)
    monkeypatch.setenv("HULLFORGE_MAX_K", "3")
    assert caught(LinearCode(identity(5)).min_distance) == (3, 5)


def _sym_rows(t: int, idx: int) -> tuple[int, ...]:
    """The t x t symmetric matrix whose upper triangle is packed in idx."""
    rows = [0] * t
    pos = [(i, j) for i in range(t) for j in range(i, t)]
    for b, (i, j) in enumerate(pos):
        if idx >> b & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return tuple(rows)


@pytest.mark.parametrize("t", range(1, 7))
def test_sym_rank_lut_matches_rank(t):
    lut = search._sym_rank_lut(t)
    assert lut.shape == (1 << t * (t + 1) // 2,)
    if t <= 5:
        indices = range(lut.size)
    else:
        indices = random.Random(6).sample(range(lut.size), 2000)
    for idx in indices:
        assert lut[idx] == gf2.rank(BitMatrix(t, _sym_rows(t, idx)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(0, (1 << k * (k + 1) // 2) - 1))
    )
)
def test_rank3_table_matches_rank(k_idx):
    k, idx = k_idx
    gram_rows = _sym_rows(k, idx)
    table = search._rank3_table(gram_rows)
    assert table.shape == (1 << k,)
    for y in range(1 << k):
        rows = tuple(g ^ (y if y >> i & 1 else 0) for i, g in enumerate(gram_rows))
        assert table[y] == gf2.rank(BitMatrix(k, rows))


def test_hull_rank_table_is_capped_on_its_cost():
    # min(k, n-k) = 7 passes the k(n-k) gate but needs a 2^28-entry table
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="rank table"):
        hull_census(14, 7, cap=49)
    with pytest.raises(ResourceLimitError, match="rank table"):
        exhaustive_codes(14, 7, 1, cap=49)
    assert time.perf_counter() - start < 1.0
    # the hull side still settles h > min(k, n-k) without a table
    assert exhaustive_codes(14, 7, 8, cap=49).status == "nonexistence"


def test_claim_validation():
    with pytest.raises(UsageError):
        OptimalityClaim(4, 2, 2, 2, "h_optimal", None, "exhaustive")
    with pytest.raises(UsageError):
        OptimalityClaim(4, 2, 2, 0, "nonexistence", None, "sweep")
    with pytest.raises(UsageError):
        OptimalityClaim(4, 2, 2, 2, "proved", None, "exhaustive")


# ------------------------------------------------------------ equivalence


def _permuted_rows(gen: BitMatrix, perm) -> BitMatrix:
    """Move column j of gen to column perm[j]."""
    rows = []
    for bits in gen.row_bits:
        moved = 0
        for j in range(gen.ncols):
            if bits >> j & 1:
                moved |= 1 << perm[j]
        rows.append(moved)
    return BitMatrix(gen.ncols, tuple(rows))


def test_equivalent_to_itself(entries):
    code = entries["Csecond_12_7_4"].code()
    verdict = are_equivalent(code, code)
    assert verdict.equivalent is True
    assert verdict.permutation == tuple(range(12))


def test_cyclic_shift_is_equivalent(entries):
    code = entries["Csecond_12_7_4"].code()
    rows = [s[1:] + s[:1] for s in code.canonical_gen().to_strings()]
    shifted = LinearCode(BitMatrix.from_strings(rows))
    verdict = are_equivalent(code, shifted)
    assert verdict.equivalent is True
    permuted = _permuted_rows(code.canonical_gen(), verdict.permutation)
    assert LinearCode(permuted).same_row_space(shifted)


def test_hull_fast_reject(entries):
    # same [12,7,4] parameters, hull dimensions 3 and 1
    a = entries["Csecond_12_7_4"].code()
    b = entries["G1_12_7_4"].code()
    assert are_equivalent(a, b) == EquivalenceVerdict(False)


def test_weight_distribution_fast_reject():
    codes = iter_exhaustive(6, 3, 1)
    first = next(codes)
    other = next(
        c for c in codes if c.weight_distribution() != first.weight_distribution()
    )
    assert are_equivalent(first, other) == EquivalenceVerdict(False)


def test_dimension_mismatch_is_an_error(entries):
    with pytest.raises(DimensionError):
        are_equivalent(entries["D3_9_3_4"].code(), entries["D3_9_4_4"].code())


def test_equivalence_cap():
    wide = LinearCode(BitMatrix.from_strings(["1" * 17]))
    with pytest.raises(ResourceLimitError):
        are_equivalent(wide, wide)


def test_node_cap_returns_undecided(entries):
    a = entries["B12"].code()
    rows = [s[1:] + s[:1] for s in a.canonical_gen().to_strings()]
    b = LinearCode(BitMatrix.from_strings(rows))
    verdict = are_equivalent(a, b, node_cap=3)
    assert verdict.equivalent is None
    assert verdict.permutation is None


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_permuted_codes_are_equivalent(data):
    n = data.draw(st.integers(4, 9))
    k = data.draw(st.integers(1, n - 1))
    rows = [
        data.draw(st.integers(1, (1 << n) - 1), label=f"row{i}") for i in range(k)
    ]
    code = LinearCode(BitMatrix(n, tuple(rows)))
    perm = data.draw(st.permutations(range(n)))
    permuted = LinearCode(_permuted_rows(code.canonical_gen(), perm))
    verdict = are_equivalent(code, permuted)
    assert verdict.equivalent is True
    again = _permuted_rows(code.canonical_gen(), verdict.permutation)
    assert LinearCode(again).same_row_space(permuted)
    # and the relation is symmetric
    assert are_equivalent(permuted, code).equivalent is True


def _dict_profiles(code: LinearCode):
    # the per-codeword dict loop _column_profiles replaced, kept as its oracle
    n = code.n
    unary = [dict() for _ in range(n)]
    pair = [[dict() for _ in range(n)] for _ in range(n)]
    for bits in iter_codewords(code):
        w = bits.bit_count()
        if not w:
            continue
        supp = [i for i in range(n) if bits >> i & 1]
        for i in supp:
            unary[i][w] = unary[i].get(w, 0) + 1
        for a, i in enumerate(supp):
            for j in supp[a + 1 :]:
                pair[i][j][w] = pair[i][j].get(w, 0) + 1
                pair[j][i][w] = pair[j][i].get(w, 0) + 1
    sig = [tuple(sorted(u.items())) for u in unary]
    return sig, pair


def _old_are_equivalent(a: LinearCode, b: LinearCode, node_cap: int):
    # the dict-profile search with a canonical-form leaf test, kept as
    # the oracle for verdicts and permutations
    if a.same_row_space(b):
        return EquivalenceVerdict(True, tuple(range(a.n)))
    if a.weight_distribution() != b.weight_distribution():
        return EquivalenceVerdict(False)
    if a.hull_dim() != b.hull_dim():
        return EquivalenceVerdict(False)
    n = a.n
    sig_a, pair_a = _dict_profiles(a)
    sig_b, pair_b = _dict_profiles(b)
    candidates = [[j for j in range(n) if sig_b[j] == sig_a[i]] for i in range(n)]
    if any(not c for c in candidates):
        return EquivalenceVerdict(False)
    order = sorted(range(n), key=lambda i: len(candidates[i]))
    basis_b = b.canonical_gen()
    assigned, perm, used = [], [-1] * n, [False] * n
    nodes = 0

    def extend(depth):
        nonlocal nodes
        if depth == n:
            permuted = _permuted_rows(a.canonical_gen(), perm)
            if LinearCode(permuted).canonical_gen() == basis_b:
                return EquivalenceVerdict(True, tuple(perm))
            return None
        i = order[depth]
        for j in candidates[i]:
            if used[j]:
                continue
            nodes += 1
            if nodes > node_cap:
                return EquivalenceVerdict(None)
            if any(pair_a[i][i0] != pair_b[j][j0] for i0, j0 in assigned):
                continue
            perm[i], used[j] = j, True
            assigned.append((i, j))
            found = extend(depth + 1)
            assigned.pop()
            perm[i], used[j] = -1, False
            if found is not None:
                return found
        return None

    verdict = extend(0)
    return EquivalenceVerdict(False) if verdict is None else verdict


def _scrambled(code: LinearCode, rng: random.Random) -> LinearCode:
    """code under a random column permutation and change of basis."""
    perm = list(range(code.n))
    rng.shuffle(perm)
    rows = list(_permuted_rows(code.gen, perm).row_bits)
    for i in range(len(rows)):
        for j in range(len(rows)):
            if i != j and rng.random() < 0.4:
                rows[i] ^= rows[j]
    return LinearCode(BitMatrix(code.n, tuple(rows)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_column_profiles_match_dict_loop(data):
    n = data.draw(st.integers(1, search.EQUIV_CAP))
    k = data.draw(st.integers(1, min(n, 12)))
    rows = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=k, max_size=k))
    code = LinearCode(BitMatrix(n, tuple(rows)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(code_mod, "CHUNK_BITS", data.draw(st.integers(2, 3)))
        sig, pair = search._column_profiles(code)
    old_sig, old_pair = _dict_profiles(code)

    def as_dict(counts):
        return {w: c for w, c in enumerate(counts) if c}

    assert [tuple(as_dict(s).items()) for s in sig] == old_sig
    for i in range(n):
        for j in range(n):
            if i != j:
                assert as_dict(pair[i][j]) == old_pair[i][j]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_equivalence_matches_old_search_on_scrambled_codes(data):
    n = data.draw(st.integers(2, 11))
    k = data.draw(st.integers(1, n - 1))
    rows = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=k, max_size=k))
    a = LinearCode(BitMatrix(n, tuple(rows)))
    rng = random.Random(data.draw(st.integers(0, 2**32), label="scramble"))
    b = _scrambled(a, rng)
    cap = data.draw(st.sampled_from([search.NODE_CAP, 1, 2, 5, 20]), label="node_cap")
    verdict = are_equivalent(a, b, node_cap=cap)
    assert verdict == _old_are_equivalent(a, b, cap)
    if cap == search.NODE_CAP:
        assert verdict.equivalent is True


@pytest.mark.parametrize("n,k", [(9, 4), (10, 4), (10, 5)])
def test_equivalence_matches_old_search_on_equal_weight_distributions(n, k):
    # random codes grouped by weight distribution and hull dimension, so
    # the verdict comes from the profiles and the backtracking
    rng = random.Random(n * 100 + k)
    groups = collections.defaultdict(list)
    for _ in range(300):
        rows = tuple(1 << i | rng.getrandbits(n - k) << k for i in range(k))
        code = LinearCode(BitMatrix(n, rows))
        groups[code.weight_distribution(), code.hull_dim()].append(code)
    verdicts = collections.Counter()
    for codes in groups.values():
        for a, b in zip(codes, codes[1:]):
            for cap in (search.NODE_CAP, 4):
                verdict = are_equivalent(a, b, node_cap=cap)
                assert verdict == _old_are_equivalent(a, b, cap)
                verdicts[verdict.equivalent] += 1
    assert verdicts[True] and verdicts[False] and verdicts[None]


# ----------------------------------------------------------------- records


def test_sweep_record_line(seed_10_6_3):
    recs = sweep_extensions(
        seed_10_6_3, 2, min_d=3, kinds=[ConstructionKind.III], seed_id="seed_10_6_3"
    )
    line = format_sweep_record(recs[0])
    head, rest = line.split(" ", 1)
    assert head == "SWEEP"
    fields = rest.split(" ")
    assert fields[0] == "seed_10_6_3"
    assert set(fields[1]) <= {"0", "1"} and len(fields[1]) == 10
    assert fields[2] == "III"
    assert [int(f) for f in fields[3:7]] == [12, 7, recs[0].child_params[2], 2]
    gen_rows = fields[7].split(",")
    assert len(gen_rows) == 7 and all(len(r) == 12 for r in gen_rows)


def _fstring_line(rec):
    """format_sweep_record as it was before records carried a rendered
    line: the oracle for the batch renderer."""
    n, k, d, h = rec.child_params
    gen = ",".join(rec.canonical_gen.to_strings())
    return f"SWEEP {rec.seed_id} {rec.x.to01()} {rec.kind.value} {n} {k} {d} {h} {gen}"


ALL_ONES_16 = LinearCode(BitMatrix(16, ((1 << 16) - 1,)))  # II children at d = 10
ONES_15_OF_16 = LinearCode(BitMatrix(16, ((1 << 15) - 1,)))  # III children at d = 10


@settings(max_examples=60, deadline=None)
@given(
    sweep_seeds(max_n=16),
    st.sets(st.sampled_from(list(ConstructionKind)), min_size=1),
    st.integers(0, 2),
    st.integers(0, 2),
    st.text(max_size=6),
    st.integers(1, 40),
)
@example(ALL_ONES_16, set(ConstructionKind), 1, 10, "ones 16", 1024)
@example(ONES_15_OF_16, {ConstructionKind.III}, 1, 10, "séed 𝔽₂ #1", 1000)
@example(LinearCode(BitMatrix(6, (0b111111,))), set(ConstructionKind), 0, 1, "", 7)
@example(LinearCode(BitMatrix(14, (0x3FFF, 0xFF))), set(ConstructionKind), 1, 1, " ", 3)
def test_batch_lines_match_the_fstring(seed, kinds, lift, min_d, seed_id, chunk):
    # children have hull ell, ell + 1 or ell + 2 for the seed's hull ell;
    # n + 2 crosses the 8- and 16-bit edges of the unpacked words, and a
    # small chunk spreads the records over several chunks
    assume(seed.n + seed.k <= 30)
    target_h = seed.hull_dim() + lift
    with unittest.mock.patch.object(search, "RENDER_CHUNK", chunk):
        recs = sweep_extensions(seed, target_h, min_d, kinds=kinds, seed_id=seed_id)
    for rec in recs:
        assert rec.line is not None
        assert format_sweep_record(rec) == rec.line == _fstring_line(rec)
        bare = SweepRecord(rec.seed_id, rec.x, rec.kind, rec.child_params, rec.canonical_gen)
        assert bare.line is None and format_sweep_record(bare) == rec.line
        assert bare == rec and hash(bare) == hash(rec)
        assert dataclasses.replace(rec, line="other") == rec
    # a seed id may itself read "line", so compare with the line-less repr
    assert repr(recs[:1]) == repr([dataclasses.replace(r, line=None) for r in recs[:1]])


def test_replace_drops_a_stale_line(seed_10_6_3):
    rec = sweep_extensions(seed_10_6_3, 2, 3, kinds=[ConstructionKind.III], seed_id="A")[0]
    moved = dataclasses.replace(rec, seed_id="B")
    assert moved.line is None
    assert format_sweep_record(moved) == _fstring_line(moved)
    assert format_sweep_record(moved).startswith("SWEEP B ")
    assert dataclasses.replace(rec).line == rec.line  # an unchanged copy keeps its line
    fields = (rec.seed_id, rec.x, rec.kind, rec.child_params, rec.canonical_gen)
    assert SweepRecord(*fields, rec.line).line == rec.line
    assert SweepRecord(*fields, "SWEEP A junk").line is None


@settings(max_examples=50, deadline=None)
@given(sweep_seeds(), st.sets(st.sampled_from(list(ConstructionKind)), min_size=1))
def test_fast_records_match_reference_records(seed, kinds):
    for target_h in range(seed.k + 2):
        fast = sweep_extensions(seed, target_h, kinds=kinds, seed_id="s")
        ref = sweep_extensions(seed, target_h, kinds=kinds, seed_id="s", engine="reference")
        assert len(fast) == len(ref)
        for a, r in zip(fast, ref):
            # copies first, while a's x and canonical_gen are still packed ints
            for b in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
                assert not hasattr(b, "nope")
                assert b == r and hash(b) == hash(r) and b.line == a.line
            assert not hasattr(a, "nope")
            assert a == r and hash(a) == hash(r) and repr(a) == repr(r)
            assert type(a.x) is BitVector and a.x == r.x
            assert type(a.canonical_gen) is BitMatrix and a.canonical_gen == r.canonical_gen
            got, want = dataclasses.asdict(a), dataclasses.asdict(r)
            assert got.pop("line") == format_sweep_record(r) and want.pop("line") is None
            assert got == want
            for change in ({}, {"seed_id": "t"}, {"line": "other"}, {"child_params": (1,) * 4}):
                a2, r2 = dataclasses.replace(a, **change), dataclasses.replace(r, **change)
                assert a2 == r2 and format_sweep_record(a2) == format_sweep_record(r2)


def test_line_fields_are_validated_when_built():
    # a fast-path record reads x and canonical_gen back from its line, through
    # the validating parsers, when each is first read
    kind = ConstructionKind.I
    rec = SweepRecord._lazy("s t", kind, (4, 2, 2, 2), "SWEEP s t 1x I 4 2 2 2 1010,0101")
    with pytest.raises(ValueError, match="bad character 'x'"):
        rec.x
    assert rec.canonical_gen == BitMatrix(4, (0b0101, 0b1010))
    rec = SweepRecord._lazy("s", kind, (4, 2, 2, 2), "SWEEP s 01 I 4 2 2 2 1010,010")
    with pytest.raises(DimensionError, match="ragged"):
        rec.canonical_gen
    assert rec.x == BitVector(2, 0b10)
    rec = SweepRecord._lazy("s", kind, (4, 2, 2, 2), "SWEEP s 01 I 4 2 2 2 1010,01z1")
    with pytest.raises(ValueError, match="bad character 'z'"):
        rec.canonical_gen


def test_sweep_builds_record_fields_lazily(entries, monkeypatch):
    seed = entries["G1_13_11_2"].code()
    built = collections.Counter()
    for cls in (BitVector, BitMatrix):
        def counted(self, check=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    recs = sweep_extensions(seed, 2, 1, seed_id="G1_13_11_2")
    lines = [format_sweep_record(r) for r in recs]
    assert len(lines) == 6144 and sum(built.values()) < 100
    built.clear()
    claim = best_by_sweep([seed], 2)
    assert claim.witness is not None and sum(built.values()) < 100


def test_sweep_bytes():
    # every bundled seed at every h, the library's lines with min_d = 1;
    # the digest was taken before fast-path records held packed ints
    digest, count = hashlib.sha256(), 0
    for entry in load_corpus():
        seed = entry.code()
        for h in range(seed.k + 2):
            for rec in sweep_extensions(seed, h, 1, seed_id=entry.label):
                digest.update((format_sweep_record(rec) + "\n").encode())
                count += 1
    assert count == 631_536
    assert digest.hexdigest() == "0a9e81ce9f4fae48c7b2fb5d6c659a8e4345ac71938cdd3c2569b02ac763b48d"


def test_sweep_keeping_no_records_renders_nothing():
    assert sweep_extensions(ALL_ONES_16, 2, 11) == []
    assert sweep_extensions(ALL_ONES_16, 2, 1, kinds=[]) == []


def test_claim_lines():
    claim = exhaustive_codes(4, 2, 2)
    line = format_claim(claim)
    assert line.startswith("CLAIM 4 2 2 2 h_optimal exhaustive ")
    empty = exhaustive_codes(2, 2, 1)
    assert format_claim(empty) == "CLAIM 2 2 1 0 nonexistence exhaustive -"
