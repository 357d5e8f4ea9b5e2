"""Acceptance gate: eight independent checks, one test function each.

Run with -v to get a single verdict line per check.  The one strict
xfail documents a transcription defect kept under data/corpus/quarantine:
the recorded extension vector does not reproduce the claimed child, and
the corrected vector is exercised by the passing check above it.
"""

import random

import numpy as np
import pytest

from hullforge import corpus, gf2
from hullforge.buildup import (
    ConstructionKind,
    admissible_distances,
    classify_extension,
    construct,
    predict_distance,
)
from hullforge.code import LinearCode
from hullforge.eaqecc import derive, quantum_table_from_cells, singleton_gap
from hullforge.errors import InvalidCodeError
from hullforge.gf2 import BitMatrix, BitVector
from hullforge.search import (
    are_equivalent,
    exhaustive_codes,
    sweep_children,
)

ENTRIES = corpus.load_corpus(validate=False)
BY_LABEL = corpus.by_label(ENTRIES)
ODD_TABLE_HULL = {"T1": 1, "T3": 2, "T5": 3, "T7": 4, "T9": 5}
EXHAUSTIVE_CAP = 22

I = ConstructionKind.I
II = ConstructionKind.II
III = ConstructionKind.III
IV = ConstructionKind.IV


def _cells_by_table():
    grouped = {}
    for cell in corpus.load_tables():
        grouped.setdefault(cell.table_id, []).append(cell)
    return grouped


def test_criterion_1_corpus_regression():
    assert len(ENTRIES) >= 40
    seen_h, seen_n = set(), set()
    for e in ENTRIES:
        c = e.code()
        got = (c.n, c.k, c.min_distance(), c.hull_dim())
        claimed = (e.claimed_n, e.claimed_k, e.claimed_d, e.claimed_h)
        assert got == claimed, f"{e.label}: recomputed {got}, claimed {claimed}"
        seen_h.add(e.claimed_h)
        seen_n.add(e.claimed_n)
    assert {1, 2, 3, 4, 5} <= seen_h
    assert {10, 12, 13} <= seen_n
    ham = BY_LABEL["Hamming_7_4_3"]
    assert (ham.claimed_n, ham.claimed_k, ham.claimed_d, ham.claimed_h) == (7, 4, 3, 3)
    b12 = BY_LABEL["B12"]
    assert (b12.claimed_n, b12.claimed_k, b12.claimed_d, b12.claimed_h) == (12, 6, 4, 6)


def test_criterion_2_worked_examples():
    seed = BY_LABEL["seed_10_6_3"].code()

    first = construct(seed, BitVector.from01("0000011000"), III).child
    assert (first.n, first.k, first.min_distance(), first.hull_dim()) == (12, 7, 3, 2)
    assert first.same_row_space(BY_LABEL["Cprime_12_7_3"].code())

    second = BY_LABEL["Csecond_12_7_4"].code()
    assert (second.n, second.k, second.min_distance(), second.hull_dim()) == (
        12, 7, 4, 3,
    )
    rebuilt = construct(seed, BitVector.from01("1111111111"), III).child
    assert rebuilt.same_row_space(second)

    # hull dimensions 2 vs 3: the fast-reject path settles inequivalence
    verdict = are_equivalent(first, second)
    assert verdict.equivalent is False


@pytest.mark.xfail(
    strict=True,
    reason="quarantined vector 1111110011: recomputes to [12,7,2], not [12,7,4]",
)
def test_criterion_2_recorded_vector_defect():
    seed = BY_LABEL["seed_10_6_3"].code()
    child = construct(seed, BitVector.from01("1111110011"), III).child
    assert (child.n, child.k, child.min_distance(), child.hull_dim()) == (12, 7, 4, 3)


def test_criterion_3_construction_postconditions():
    for e in ENTRIES:
        c = e.code()
        n, k, ell = c.n, c.k, c.hull_dim()
        fixed_h = {I: ell + 1, II: ell + 1, IV: ell}
        gen_bits = c.gen.row_bits
        step = 0
        for xb in range(1 << n):
            x = BitVector(n, xb)
            if xb.bit_count() & 1:
                kinds = (I,)
            elif any((r & xb).bit_count() & 1 for r in gen_bits):
                kinds = (III, IV)
            else:
                kinds = (II, IV)
            for kind in kinds:
                res = construct(c, x, kind)
                where = f"{e.label} x={x.to01()} {kind}"
                if kind is III:
                    assert res.actual_hull in (ell, ell + 1, ell + 2), where
                else:
                    assert res.actual_hull == fixed_h[kind], where
                H = res.parity_check
                child_bits = res.child.gen.row_bits
                assert all(
                    (g & hr).bit_count() & 1 == 0
                    for g in child_bits
                    for hr in H.row_bits
                ), where
                assert gf2.rank(H) == n + 1 - k, where
                # orthogonality plus full rank pin H's row space to the
                # dual by dimension count; spot-check the span directly
                if step % 97 == 0:
                    assert LinearCode(H).same_row_space(res.child.dual()), where
                step += 1


def test_criterion_4_distance_predictions():
    for e in ENTRIES:
        c = e.code()
        n, d = c.n, c.min_distance()
        d_I_IV, d_II_III, dc, _h3, ypack, odd = sweep_children(c)
        w = dc.astype(np.int64)
        rho = int(dc.max())  # x spans every coset, so the max is rho
        if n - c.k <= 24:
            assert rho == c.covering_radius(), e.label
        even = ~odd

        # top (1 0 | x): kind I on odd x, kind IV on even x, same child
        act = d_I_IV.astype(np.int64)
        admissible = (
            (act == np.minimum(d, w + 1))
            | (act == np.minimum(d + 1, w + 1))
            | (act == np.minimum(d + 2, w + 1))
        )
        assert admissible.all(), e.label
        assert ((act >= np.minimum(d, w + 1)) & (act <= rho + 2)).all(), e.label

        # top (1 1 | x): kind II when y = 0, kind III otherwise
        act = d_II_III.astype(np.int64)
        is_ii = even & (ypack == 0)
        is_iii = even & (ypack != 0)
        assert (act[is_ii] == np.minimum(d, w + 2)[is_ii]).all(), e.label
        ok_iii = (act == np.minimum(d, w + 1)) | (act == np.minimum(d + 1, w + 2))
        assert ok_iii[is_iii].all(), e.label
        bracket = (act >= np.minimum(d, w + 1)) & (act <= rho + 2)
        assert bracket[even].all(), e.label

        # pure-path spot checks through the public prediction API
        for xb in range(0, 1 << n, 211):
            x = BitVector(n, xb)
            kind = classify_extension(c, x)
            pred = predict_distance(c, x, kind)
            child_d = construct(c, x, kind).child.min_distance()
            assert child_d in pred, f"{e.label} x={x.to01()}"
            assert pred.bracket is not None
            lo, hi = pred.bracket
            assert lo <= child_d <= hi, f"{e.label} x={x.to01()}"


def test_criterion_5_exhaustive_cells():
    grouped = _cells_by_table()
    witnesses = {}
    for e in ENTRIES:
        key = (e.claimed_n, e.claimed_k, e.claimed_h)
        witnesses[key] = max(witnesses.get(key, 0), e.claimed_d)

    checked = 0
    for table_id, h in ODD_TABLE_HULL.items():
        for cell in grouped[table_id]:
            if cell.k > cell.n:
                assert cell.d == 0  # filler position, no such code
                continue
            if cell.k * (cell.n - cell.k) > EXHAUSTIVE_CAP:
                wd = witnesses.get((cell.n, cell.k, h))
                if wd is not None:
                    ok = wd == cell.d if cell.exact else wd >= cell.d
                    assert ok, f"{table_id} ({cell.n},{cell.k}): witness d={wd}"
                continue
            claim = exhaustive_codes(cell.n, cell.k, h)
            where = f"{table_id} ({cell.n},{cell.k})"
            if cell.d == 0:
                assert claim.status == "nonexistence", where
                assert claim.d_best == 0, where
            elif cell.exact:
                assert claim.status == "h_optimal", where
                assert claim.d_best == cell.d, where
            else:
                assert claim.d_best >= cell.d, where
            checked += 1
    assert checked >= 150

    # named cells outside the default cap
    assert exhaustive_codes(9, 5, 3).d_best == 3
    assert exhaustive_codes(10, 4, 2, cap=24).d_best == 4
    assert exhaustive_codes(11, 5, 1, cap=30).d_best == 4


# cells past the default cap whose lanes, over all floor passes, number at
# most 1,575,145; T9 (13,8) passes down to floor 2, 50,478,637 lanes
SHAPES_PAST_CAP = {
    (10, 4), (10, 5), (10, 6), (11, 3), (11, 4), (11, 6), (11, 7), (11, 8),
    (12, 3), (12, 4), (12, 7), (12, 8), (12, 9), (13, 3), (13, 4), (13, 8), (13, 9), (13, 10),
}
LEFT_OUT = {("T9", 13, 8)}
# the tables' >= cells among them, and the distance the search finds
FOUND_PAST_BOUND = {
    ("T5", 13, 4): 5, ("T5", 13, 8): 3, ("T5", 13, 9): 2, ("T7", 13, 8): 3, ("T7", 13, 9): 2,
}
CELLS_PAST_CAP = [
    (table_id, cell)
    for table_id, cells in sorted(_cells_by_table().items())
    if table_id in ODD_TABLE_HULL
    for cell in cells
    if (cell.n, cell.k) in SHAPES_PAST_CAP and cell.k * (cell.n - cell.k) > EXHAUSTIVE_CAP
    and (table_id, cell.n, cell.k) not in LEFT_OUT
]


def test_criterion_5_slice_past_the_cap_has_75_cells():
    assert len(CELLS_PAST_CAP) == 75


@pytest.mark.parametrize(
    "table_id, cell", CELLS_PAST_CAP, ids=[f"{t}-{c.n}-{c.k}" for t, c in CELLS_PAST_CAP]
)
def test_criterion_5_cells_past_the_cap(table_id, cell):
    h, cap = ODD_TABLE_HULL[table_id], cell.k * (cell.n - cell.k)
    claim = exhaustive_codes(cell.n, cell.k, h, cap=cap)
    if cell.d == 0:
        assert (claim.status, claim.d_best) == ("nonexistence", 0)
    elif cell.exact:
        assert (claim.status, claim.d_best) == ("h_optimal", cell.d)
    else:
        assert claim.d_best >= cell.d
        assert claim.d_best == FOUND_PAST_BOUND[(table_id, cell.n, cell.k)]


def test_criterion_6_quantum_reproduction():
    grouped = _cells_by_table()
    witnessed = 0
    for table_id, h in ODD_TABLE_HULL.items():
        table = quantum_table_from_cells(grouped[table_id])
        for e in ENTRIES:
            if e.claimed_h != h:
                continue
            cell = table.cells.get((e.claimed_n, e.claimed_k - h))
            if cell is None:
                continue
            p = derive(e.code()).primal
            where = f"{e.label} vs derived grid of {table_id}"
            assert p.c == cell.c, where
            assert p.d == cell.d if cell.exact else p.d >= cell.d, where
            witnessed += 1
    assert witnessed >= 70

    ham = derive(BY_LABEL["Hamming_7_4_3"].code()).primal
    assert str(ham) == "[[7,1,3;0]]"
    assert singleton_gap(ham) == 2 and not ham.is_mds

    for label, expected in [
        ("D3_9_5_3", "[[9,2,3;1]]"),
        ("G1_12_6_4", "[[12,5,4;5]]"),
        ("G1_13_4_6", "[[13,3,6;8]]"),
    ]:
        assert str(derive(BY_LABEL[label].code()).primal) == expected, label

    bold = [r for r in corpus.load_comparison() if r.bold]
    assert len(bold) == 3
    derived = {
        (p.n, p.k, p.d, p.c)
        for p in (
            derive(e.code()).primal for e in ENTRIES if e.claimed_k < e.claimed_n
        )
    }
    for row in bold:
        assert row.ours in derived, f"comparison row {row.row}"


def _permute_columns(mat: BitMatrix, cols: list[int]) -> BitMatrix:
    rows = []
    for bits in mat.row_bits:
        out = 0
        for new_j, old_j in enumerate(cols):
            out |= (bits >> old_j & 1) << new_j
        rows.append(out)
    return BitMatrix(mat.ncols, tuple(rows))


def test_criterion_7_hull_oracle():
    rng = random.Random(0xC0DE)
    for _ in range(500):
        n = rng.randint(2, 14)
        rows = tuple(rng.getrandbits(n) for _ in range(rng.randint(1, n)))
        try:
            c = LinearCode(BitMatrix(n, rows))
        except InvalidCodeError:
            continue
        h_product = c.k - gf2.rank(gf2.gram(c.gen))
        if c.k == c.n:
            h_meet = 0
        else:
            h_meet = gf2.row_space_intersection(c.gen, c.parity_check()).nrows
        assert h_product == h_meet == c.hull_dim()
        cols = list(range(n))
        for _ in range(50):
            rng.shuffle(cols)
            permuted = LinearCode(_permute_columns(c.gen, cols))
            assert permuted.hull_dim() == h_product


def test_criterion_8_augment_pipeline():
    b12 = BY_LABEL["B12"].code()
    assert b12.covering_radius() == 3
    aug = b12.augment(BitVector.from01("000000010101"))
    assert (aug.n, aug.k, aug.min_distance(), aug.hull_dim()) == (13, 7, 4, 5)
