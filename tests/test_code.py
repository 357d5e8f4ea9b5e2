"""LinearCode behaviour: duality, hull agreement, distances, cosets."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hullforge import code as code_mod
from hullforge import gf2, search
from hullforge.code import LinearCode
from hullforge.errors import (
    ClaimViolationError,
    DimensionError,
    InvalidCodeError,
    NoRankGainError,
    ResourceLimitError,
)
from hullforge.gf2 import BitMatrix, BitVector
from helpers import identity, iter_codewords

SEED_10_6_3 = [
    "1000000101",
    "0100001001",
    "0010001110",
    "0001000110",
    "0000101010",
    "0000011100",
]

HAMMING_7_4 = [
    "1000011",
    "0100101",
    "0010110",
    "0001111",
]

B12 = [
    "111100000000",
    "001111000000",
    "000011110000",
    "000000111100",
    "000000001111",
    "010101010101",
]

# hull-2 witness with parameters [12,5,4]
G2_12_5_4 = [
    "110001100000",
    "101000111001",
    "000100011101",
    "100010101011",
    "100001001111",
]

G1_13_4_6 = [
    "1001110111100",
    "1110011011011",
    "0001011101001",
    "0000111110010",
]

# optimal [12,7,4] with h=3, standard form
CSECOND_12_7_4 = [
    "100000011100",
    "010000001101",
    "001000011001",
    "000100010101",
    "000010001110",
    "000001011010",
    "000000110110",
]

REP2 = ["11"]  # the [2,1] repetition code


def _random_code(rng, n_max=14):
    n = rng.randrange(2, n_max + 1)
    k = rng.randrange(1, n + 1)
    while True:
        m = BitMatrix(n, tuple(rng.getrandbits(n) for _ in range(k)))
        if gf2.rank(m) >= 1:
            return LinearCode(m)


def test_from_generator_identity():
    c = LinearCode(identity(4))
    assert (c.n, c.k) == (4, 4)
    assert not c.repaired


def test_from_generator_seed():
    c = LinearCode.from_strings(SEED_10_6_3)
    assert (c.n, c.k) == (10, 6)
    assert c.min_distance() == 3


def test_from_generator_repairs_dependent_rows():
    c = LinearCode.from_strings(["10110", "01011", "11101"])  # row3 = row1+row2
    assert c.k == 2
    assert c.repaired


def test_from_generator_rejects_zero():
    with pytest.raises(InvalidCodeError):
        LinearCode.from_strings(["0000", "0000"])


def test_dual_hamming_is_simplex():
    ham = LinearCode.from_strings(HAMMING_7_4)
    d = ham.dual()
    assert (d.n, d.k) == (7, 3)
    assert d.min_distance() == 4
    assert all(w in (0, 4) for w, _ in d.weight_distribution().counts)


def test_dual_involution_and_self_dual():
    rep = LinearCode.from_strings(REP2)
    assert rep.dual().same_row_space(rep)
    seed = LinearCode.from_strings(SEED_10_6_3)
    assert seed.dual().dual().same_row_space(seed)


def test_dual_of_full_space_rejected():
    c = LinearCode(identity(3))
    with pytest.raises(InvalidCodeError):
        c.dual()


def test_hull_hamming():
    rep = LinearCode.from_strings(HAMMING_7_4).hull()
    assert rep.h == 3
    assert not rep.is_lcd
    assert not rep.is_self_orthogonal
    assert not rep.is_self_dual


def test_hull_identity_is_lcd():
    rep = LinearCode(identity(5)).hull()
    assert rep.h == 0 and rep.is_lcd
    assert rep.basis.nrows == 0


def test_hull_witness_h2():
    assert LinearCode.from_strings(G2_12_5_4).hull().h == 2


def test_hull_b12_self_dual():
    rep = LinearCode.from_strings(B12).hull()
    assert rep.h == 6
    assert rep.is_self_orthogonal and rep.is_self_dual


def test_hull_basis_membership():
    c = LinearCode.from_strings(SEED_10_6_3)
    rep = c.hull()
    assert rep.h == 1
    dual = c.dual()
    for row in rep.basis.rows:
        assert c.contains(row)
        assert dual.contains(row)


def test_min_distance_trivial_and_fixtures():
    assert LinearCode.from_strings(REP2).min_distance() == 2
    assert LinearCode.from_strings(G1_13_4_6).min_distance() == 6


def test_min_distance_cap(monkeypatch):
    monkeypatch.setenv("HULLFORGE_MAX_K", "3")
    c = LinearCode.from_strings(HAMMING_7_4)
    with pytest.raises(ResourceLimitError):
        c.min_distance()


def test_weight_distribution_rep2():
    wd = LinearCode.from_strings(REP2).weight_distribution()
    assert wd.as_dict() == {0: 1, 2: 1}


def test_weight_distribution_hamming():
    wd = LinearCode.from_strings(HAMMING_7_4).weight_distribution()
    assert wd.as_dict() == {0: 1, 3: 7, 4: 7, 7: 1}


def test_weight_distribution_csecond():
    c = LinearCode.from_strings(CSECOND_12_7_4)
    wd = c.weight_distribution()
    assert wd.total == 128
    assert wd.min_positive_weight == 4
    assert c.min_distance() == 4
    assert c.hull().h == 3


def test_weight_distribution_matches_naive():
    # independent oracle: weights via explicit subset sums
    rng = random.Random(7)
    for _ in range(20):
        c = _random_code(rng, n_max=10)
        naive: dict[int, int] = {0: 1}
        rows = c.gen.row_bits
        for r in range(1, c.k + 1):
            for combo in combinations(rows, r):
                v = 0
                for b in combo:
                    v ^= b
                w = v.bit_count()
                naive[w] = naive.get(w, 0) + 1
        assert c.weight_distribution().as_dict() == naive


def test_coset_zero_and_member():
    c = LinearCode.from_strings(SEED_10_6_3)
    prof = c.coset_min_weight(BitVector(10, 0))
    assert prof.min_weight == 0 and prof.leader.is_zero()
    prof = c.coset_min_weight(c.gen.row(2))
    assert prof.min_weight == 0


def test_coset_b12_leader():
    c = LinearCode.from_strings(B12)
    x = BitVector.from01("000000010101")
    prof = c.coset_min_weight(x)
    assert prof.min_weight == 3
    # leader is in the coset and achieves the weight
    assert c.contains(prof.leader ^ x)
    assert prof.leader.weight() == 3


def test_covering_radius_b12():
    assert LinearCode.from_strings(B12).covering_radius() == 3


def test_covering_radius_small():
    assert LinearCode(identity(6)).covering_radius() == 0
    assert LinearCode.from_strings(REP2).covering_radius() == 1


def test_covering_radius_matches_coset_maximum():
    rng = random.Random(8)
    for _ in range(10):
        c = _random_code(rng, n_max=9)
        if c.k == c.n:
            assert c.covering_radius() == 0
            continue
        rho = c.covering_radius()
        best = 0
        for bits in range(1 << c.n):
            prof = c.coset_min_weight(BitVector(c.n, bits))
            assert prof.min_weight <= rho
            best = max(best, prof.min_weight)
        assert best == rho


def test_covering_radius_cap():
    c = LinearCode.from_strings(["1" + "0" * 29])
    with pytest.raises(ResourceLimitError):
        c.covering_radius()


def test_covering_radius_of_a_wide_code():
    # [300,292] whose H has only unit columns: syndrome t is reached by
    # weight(t) columns, so rho = 8; n + 1 = 301 would not fit in uint8
    rows = tuple(1 << j | 1 << (j % 8) for j in range(8, 300))
    c = LinearCode(BitMatrix(300, rows))
    assert (c.n, c.k) == (300, 292)
    assert c.covering_radius() == 8


def test_covering_radius_of_a_28_8_code_is_fast():
    rng = random.Random(28)
    c = LinearCode(BitMatrix(28, tuple(rng.getrandbits(28) | 1 << i for i in range(8))))
    start = time.perf_counter()
    rho = c.covering_radius()
    assert time.perf_counter() - start < 0.3  # several seconds as a combinations walk
    assert rho == 10


def test_augment_b12():
    c = LinearCode.from_strings(B12)
    ext = c.augment(BitVector.from01("000000010101"))
    assert (ext.n, ext.k) == (13, 7)
    assert ext.min_distance() == 4
    assert ext.hull().h == 5


def test_augment_small_and_rejection():
    rep = LinearCode.from_strings(REP2)
    ext = rep.augment(BitVector.from01("10"))
    assert (ext.n, ext.k) == (3, 2)
    with pytest.raises(NoRankGainError):
        rep.augment(BitVector.from01("11"))
    with pytest.raises(DimensionError):
        rep.augment(BitVector.from01("101"))


def test_hull_two_routes_battery():
    # hull() internally checks product-rank vs intersection; exercise it
    rng = random.Random(9)
    for _ in range(200):
        c = _random_code(rng)
        rep = c.hull()
        assert 0 <= rep.h <= c.k
        assert rep.is_lcd == (rep.h == 0)
        # LCD iff the gram matrix has full rank
        assert rep.is_lcd == (gf2.rank(gf2.gram(c.gen)) == c.k)


def test_hull_equals_dual_hull():
    rng = random.Random(10)
    for _ in range(50):
        c = _random_code(rng)
        if c.k == c.n:
            continue
        hc = c.hull()
        hd = c.dual().hull()
        assert hc.h == hd.h
        # same subspace: each basis is inside the other's span
        for row in hc.basis.rows:
            assert gf2.in_row_space(hd.basis, row) or hc.h == 0
        for row in hd.basis.rows:
            assert gf2.in_row_space(hc.basis, row) or hd.h == 0


def test_hull_invariant_under_permutation():
    rng = random.Random(11)
    for _ in range(25):
        c = _random_code(rng)
        h = c.hull().h
        for _ in range(10):
            perm = list(range(c.n))
            rng.shuffle(perm)
            rows = []
            for b in c.gen.row_bits:
                v = 0
                for j, p in enumerate(perm):
                    v |= (b >> j & 1) << p
                rows.append(v)
            assert LinearCode(BitMatrix(c.n, tuple(rows))).hull().h == h


def test_caches_are_stable():
    c = LinearCode.from_strings(SEED_10_6_3)
    assert c.hull() is c.hull()
    assert c.dual() is c.dual()
    assert c.weight_distribution() is c.weight_distribution()
    assert c.min_distance() == c.min_distance() == 3


def test_hull_dim_builds_no_basis(monkeypatch):
    def refuse(*args):
        raise RuntimeError("hull_dim() must not build a basis")

    monkeypatch.setattr(gf2, "nullspace_basis", refuse)
    monkeypatch.setattr(gf2, "row_space_intersection", refuse)
    c = LinearCode.from_strings(SEED_10_6_3)
    assert c.hull_dim() == 1
    with pytest.raises(RuntimeError, match="must not build"):
        c.hull().basis


def test_covering_radius_unreached_syndrome_raises(monkeypatch):
    # a parity check with a zero row leaves half the syndromes unreachable
    c = LinearCode.from_strings(HAMMING_7_4)
    h = c.parity_check()
    monkeypatch.setattr(c, "parity_check", lambda: BitMatrix(h.ncols, (0,) + h.row_bits[1:]))
    with pytest.raises(ClaimViolationError, match="no coset leader"):
        c.covering_radius()


# hull() with an intersection that disagrees with the Gram rank.
WRONG_INTERSECTION = textwrap.dedent(
    """
    from hullforge import gf2
    from hullforge.code import LinearCode

    gf2.row_space_intersection = lambda a, b: gf2.BitMatrix(a.ncols, ())
    LinearCode.from_strings(%r).hull()
    """
    % SEED_10_6_3
)


def test_hull_disagreement_raises_under_optimization():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", WRONG_INTERSECTION],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode != 0
    assert "ClaimViolationError: hull disagreement" in proc.stderr


# ---------------------------------------------------- codeword chunk kernel


@st.composite
def small_chunked_codes(draw, n_max=70, k_max=12):
    """A random code, n up to 70 (past one 64-bit limb), and a chunk size
    of 2 or 3 bits so that most codes span several chunks."""
    n = draw(st.integers(1, n_max))
    k = draw(st.integers(1, min(n, k_max)))
    rows = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=k, max_size=k))
    return LinearCode(BitMatrix(n, tuple(rows))), draw(st.integers(2, 3))


# codes whose rows reach past the first 64-bit limb
WIDE = [
    (LinearCode(BitMatrix(70, (1 << 69 | 1, 1 << 64 | 1 << 3, (1 << 70) - 1))), 2),
    (LinearCode(BitMatrix(65, tuple(1 << 64 | 1 << i for i in range(7)))), 3),
]


def _gray_coset(c: LinearCode, x: BitVector) -> tuple[int, int]:
    # the Gray-order scan coset_min_weight replaced, kept as its oracle
    best = None
    leader = 0
    for cw in iter_codewords(c):
        w = (x.bits ^ cw).bit_count()
        if best is None or w < best:
            best = w
            leader = x.bits ^ cw
            if best == 0:
                break
    return best, leader


@settings(max_examples=120, deadline=None)
@given(small_chunked_codes())
@example(WIDE[0])
@example(WIDE[1])
def test_codeword_chunks_follow_iter_codewords(code_bits):
    c, bits = code_bits
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(code_mod, "CHUNK_BITS", bits)
        chunks = list(code_mod._codeword_chunks(code_mod._limbs(c.gen.row_bits, c.n)))
    assert all(ch.shape == (min(1 << c.k, 1 << bits), -(-c.n // 64)) for ch in chunks)
    words = [
        int.from_bytes(w.astype("<u8").tobytes(), "little") for ch in chunks for w in ch
    ]
    assert words == list(iter_codewords(c))


@settings(max_examples=120, deadline=None)
@given(small_chunked_codes())
@example(WIDE[0])
@example(WIDE[1])
def test_weight_distribution_counts_iter_codewords(code_bits):
    c, bits = code_bits
    want: dict[int, int] = {}
    for cw in iter_codewords(c):
        want[cw.bit_count()] = want.get(cw.bit_count(), 0) + 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(code_mod, "CHUNK_BITS", bits)
        assert c.weight_distribution().as_dict() == want


@settings(max_examples=150, deadline=None)
@given(small_chunked_codes(), st.booleans(), st.integers(0, (1 << 70) - 1))
@example(WIDE[0], False, (1 << 70) - 1 - (1 << 66))
@example(WIDE[1], True, 0)
def test_coset_leader_matches_gray_loop(code_bits, member, raw):
    c, bits = code_bits
    # members of the code (weight 0) and arbitrary vectors
    if member:
        x = BitVector(c.n, c.gen.row_bits[0] ^ c.gen.row_bits[-1])
    else:
        x = BitVector(c.n, raw & ((1 << c.n) - 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(code_mod, "CHUNK_BITS", bits)
        prof = c.coset_min_weight(x)
    assert (prof.min_weight, prof.leader.bits) == _gray_coset(c, x)
    assert prof.leader.len == c.n


@settings(max_examples=80, deadline=None)
@given(small_chunked_codes(), st.lists(st.integers(0, (1 << 70) - 1), min_size=1, max_size=4))
@example(WIDE[0], [(1 << 70) - 1 - (1 << 66), 0])
@example(WIDE[1], [1 << 64 | 0b1011])
def test_cached_table_matches_the_stream(code_bits, raws):
    c, bits = code_bits
    xs = [BitVector(c.n, r & ((1 << c.n) - 1)) for r in raws]
    streamed = LinearCode(c.gen)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(code_mod, "CHUNK_BITS", bits)
        want = (
            streamed.weight_distribution(),
            [streamed.coset_min_weight(x) for x in xs],
            search._column_profiles(streamed),
        )
    got = (
        c.weight_distribution(),
        [c.coset_min_weight(x) for x in xs],
        search._column_profiles(c),
    )
    assert got == want  # leaders compare as BitVectors, bit for bit


def test_one_enumeration_per_code(monkeypatch):
    calls = []
    real = code_mod._codeword_chunks
    monkeypatch.setattr(
        code_mod, "_codeword_chunks", lambda rows: calls.append(len(rows)) or real(rows)
    )
    a = LinearCode.from_strings(B12)
    xs = [BitVector(a.n, bits) for bits in (0, 0b101, (1 << a.n) - 1)]
    a.weight_distribution()
    [a.coset_min_weight(x) for x in xs]
    search._column_profiles(a)
    assert calls == [a.k]

    # are_equivalent reads both codes' distributions and profiles
    b = LinearCode(BitMatrix(a.n, tuple(r >> 1 | (r & 1) << (a.n - 1) for r in a.gen.row_bits)))
    fresh = LinearCode(a.gen)
    assert search.are_equivalent(fresh, b).equivalent
    assert calls == [a.k] * 3

    # past CHUNK_BITS each reader streams the chunks again
    monkeypatch.setattr(code_mod, "CHUNK_BITS", 3)
    streamed = LinearCode(a.gen)
    streamed.weight_distribution()
    [streamed.coset_min_weight(x) for x in xs]
    search._column_profiles(streamed)
    assert calls == [a.k] * 8


def _combinations_radius(c: LinearCode) -> int:
    # the column-combinations walk covering_radius replaced, kept as its oracle
    r = c.n - c.k
    if r == 0:
        return 0
    hmat = c.parity_check()
    col_syn = []
    for j in range(c.n):
        s = 0
        for i, row in enumerate(hmat.row_bits):
            s |= (row >> j & 1) << i
        col_syn.append(s)
    seen = {0}
    radius = 0
    for w in range(1, c.n + 1):
        if len(seen) == 1 << r:
            break
        for cols in combinations(range(c.n), w):
            s = 0
            for j in cols:
                s ^= col_syn[j]
            if s not in seen:
                seen.add(s)
                radius = w
    assert len(seen) == 1 << r
    return radius


@settings(max_examples=200, deadline=None)
@given(small_chunked_codes(n_max=14, k_max=14))
@example((LinearCode(identity(9)), 2))  # k = n
@example((LinearCode(BitMatrix(6, (0b000111, 0b111000, 0b111111))), 2))  # repaired
@example((LinearCode(BitMatrix(7, (0b0000001, 0b0001110))), 2))  # zero column in H
@example((LinearCode(BitMatrix(7, (0b0000011, 0b0001100, 0b1110000))), 2))  # repeated
def test_covering_radius_matches_combinations_walk(code_bits):
    c, _ = code_bits
    assert c.covering_radius() == _combinations_radius(c)


def test_weight_distribution_of_a_40_22_code_is_fast():
    rng = random.Random(40)
    rows = tuple(1 << i | rng.getrandbits(18) << 22 for i in range(22))
    c = LinearCode(BitMatrix(40, rows))
    start = time.perf_counter()
    wd = c.weight_distribution()
    assert time.perf_counter() - start < 0.5  # over 1 s as a Python Gray loop
    assert wd.total == 1 << 22


def test_codeword_kernel_checks_the_enumeration_cap(monkeypatch):
    monkeypatch.setenv("HULLFORGE_MAX_K", "3")
    rows = tuple(1 << i for i in range(40))
    with pytest.raises(ResourceLimitError) as err:
        next(code_mod._codeword_chunks(code_mod._limbs(rows, 40)))
    assert (err.value.limit, err.value.requested) == (3, 40)


def _gray_sum(rows, m: int):
    # word m of the codeword table, by its definition
    g, word = m ^ (m >> 1), 0
    for i, r in enumerate(rows):
        if g >> i & 1:
            word ^= r
    return word


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 70), st.integers(1, 11), st.integers(1, 11), st.data())
def test_codeword_chunks_follow_the_gray_definition(n, k, bits, data):
    # the code path: one code's limbs, past the gathered head when bits > 8
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(code_mod, "CHUNK_BITS", bits)
        table = np.concatenate(list(code_mod._codeword_chunks(code_mod._limbs(rows, n))))
    words = [int.from_bytes(w.astype("<u8").tobytes(), "little") for w in table]
    assert words == [_gray_sum(rows, m) for m in range(1 << k)]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 9), st.integers(1, 6), st.data())
def test_lane_chunks_follow_the_gray_definition(lanes, k, bits, data):
    # the lane path: one (lanes, 1) row per free row of many codes
    lane_rows = data.draw(
        st.lists(st.lists(st.integers(0, (1 << 64) - 1), min_size=lanes, max_size=lanes),
                 min_size=k, max_size=k)
    )
    rows = [np.array(r, dtype=np.uint64)[:, None] for r in lane_rows]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(code_mod, "CHUNK_BITS", bits)
        table = np.concatenate(list(code_mod._codeword_chunks(rows)))
    assert table.shape == (1 << k, lanes, 1)
    for lane in range(lanes):
        column = [r[lane] for r in lane_rows]
        assert table[:, lane, 0].tolist() == [_gray_sum(column, m) for m in range(1 << k)]


def _flip_pass(cube, axes):
    # the np.flip form of the min-plus pass, kept as its oracle
    np.minimum(cube, np.flip(cube, axes) + 1, out=cube)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9), st.data())
def test_min_plus_pass_matches_the_flip_definition(r, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dist = rng.integers(0, r + 2, size=1 << r, dtype=np.uint8)
    move = data.draw(st.integers(0, (1 << r) - 1))
    got, want = dist.reshape((2,) * r).copy(), dist.reshape((2,) * r).copy()
    code_mod._min_plus_pass(got, move)
    _flip_pass(want, tuple(r - 1 - i for i in range(r) if move >> i & 1))
    assert np.array_equal(got, want)
    s = np.arange(1 << r)
    assert np.array_equal(got.ravel(), np.minimum(dist, dist[s ^ move] + 1))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.data())
def test_min_plus_pass_on_the_sweeps_views(n, data):
    # search._coset_leader_weights passes the half of the state cube with
    # state bit i fixed to yi, a non-contiguous view
    k = data.draw(st.integers(1, n))
    i, yi = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, 1))
    part = data.draw(st.integers(0, (1 << (n - k)) - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dist = rng.integers(0, n + 3, size=2 << n, dtype=np.uint8)
    got, want = dist.reshape((2,) * (n + 1)).copy(), dist.reshape((2,) * (n + 1)).copy()
    half = (slice(None),) * (n - i) + (yi,)
    assert not got[half].flags.c_contiguous
    code_mod._min_plus_pass(got[half], (part << k | yi << n) >> 1)
    axes = tuple(n - k - j for j in range(n - k) if part >> j & 1) + (0,) * yi
    _flip_pass(want[half], axes)
    assert np.array_equal(got, want)


def test_dual_row_count_is_checked(monkeypatch):
    # the dual skips LinearCode's elimination, so a short nullspace must raise
    c = LinearCode.from_strings(SEED_10_6_3)
    real = gf2.nullspace_basis
    monkeypatch.setattr(gf2, "nullspace_basis", lambda m: BitMatrix(m.ncols, real(m).row_bits[1:]))
    with pytest.raises(ClaimViolationError, match=r"\[10,6\] code: dual has 3 rows"):
        c.dual()
