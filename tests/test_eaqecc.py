"""Quantum parameter derivation and the (d; c) tables."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hullforge import gf2
from hullforge.buildup import classify_extension, construct
from hullforge.code import LinearCode, WeightDistribution
from hullforge.corpus import by_label, load_corpus, load_tables
from hullforge.eaqecc import (
    _dual_weights,
    DerivationPair,
    EaqeccParams,
    QuantumCell,
    QuantumTable,
    derive,
    format_quantum_table,
    quantum_table_from_cells,
    singleton_gap,
    tabulate,
)
from hullforge.errors import ClaimViolationError, InvalidCodeError, UsageError
from hullforge.gf2 import BitMatrix, BitVector, transpose


@pytest.fixture(scope="module")
def entries():
    return by_label(load_corpus())


@pytest.fixture(scope="module")
def cells_by_table():
    out = {}
    for cell in load_tables():
        out.setdefault(cell.table_id, []).append(cell)
    return out


# --------------------------------------------------------------- derivation


def test_hamming_code_derivation(entries):
    pair = derive(entries["Hamming_7_4_3"].code())
    assert str(pair.primal) == "[[7,1,3;0]]"
    assert not pair.primal.is_mds
    assert singleton_gap(pair.primal) == 2
    # the dual side collapses to zero logical qubits
    assert str(pair.dual_side) == "[[7,0,4;1]]"
    assert pair.dual_side.degenerate


def test_highlighted_derivations(entries):
    assert str(derive(entries["G1_12_6_4"].code()).primal) == "[[12,5,4;5]]"
    assert str(derive(entries["G1_13_4_6"].code()).primal) == "[[13,3,6;8]]"
    assert str(derive(entries["D3_9_5_3"].code()).primal) == "[[9,2,3;1]]"
    assert singleton_gap(derive(entries["D3_9_5_3"].code()).primal) == 4


def test_self_dual_code_is_doubly_degenerate(entries):
    pair = derive(entries["B12"].code())
    assert pair.primal.k == 0 and pair.primal.c == 0
    assert pair.dual_side.k == 0 and pair.dual_side.c == 0
    assert pair.primal.degenerate and pair.dual_side.degenerate
    assert pair.primal.d == pair.dual_side.d


def test_full_space_has_no_dual_side():
    pair = derive(LinearCode(BitMatrix.from_strings(["10", "01"])))
    assert str(pair.primal) == "[[2,2,1;0]]"
    assert pair.dual_side is None
    assert "dual" in pair.note


def test_hull_past_the_dual_dimension_raises(entries, monkeypatch):
    code = entries["Hamming_7_4_3"].code()
    monkeypatch.setattr(code, "hull_dim", lambda: code.n - code.k + 1)
    with pytest.raises(ClaimViolationError, match="n - k"):
        derive(code)


def _from_columns(cols: list[int], k: int) -> LinearCode:
    """The code whose generator has the given k-bit columns."""
    return LinearCode(transpose(BitMatrix(k, tuple(cols))))


def _dependent_columns(code: LinearCode) -> int | None:
    """The least number of columns of G that sum to zero, which is the
    dual's minimum distance, when it is at most 4: a zero column, a
    repeated column, a pair summing to a third column, or two pairs with
    one sum (disjoint, as no column repeats); None above 4."""
    cols = transpose(code.gen).row_bits
    if 0 in cols:
        return 1
    if len(set(cols)) < len(cols):
        return 2
    sums = [a ^ b for a, b in combinations(cols, 2)]
    if set(sums) & set(cols):
        return 3
    return 4 if len(set(sums)) < len(sums) else None


@st.composite
def macwilliams_codes(draw):
    """Narrow codes (n <= 32) with k on either side of n - k, both at most
    16 so that the dual enumerates; and wide codes, 65 <= n <= 70 so that
    words span two limbs, with k <= 11, where the Hamming bound keeps the
    dual distance at most 4."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 32))
        k = draw(st.integers(max(1, n - 16), min(16, n - 1)))
    else:
        n, k = draw(st.integers(65, 70)), draw(st.integers(1, 11))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k))
    try:
        return LinearCode(BitMatrix(n, tuple(rows)))
    except InvalidCodeError:  # every row zero
        assume(False)


@settings(max_examples=150, deadline=None)
@given(macwilliams_codes())
@example(LinearCode(BitMatrix(70, ((1 << 70) - 1, (1 << 35) - 1))))
@example(_from_columns([c for c in range(1, 2048) if c.bit_count() % 2][:70], 11))  # d' = 4
@example(_from_columns(list(range(1, 71)), 11))  # 1 ^ 2 == 3: d' = 3
@example(LinearCode(BitMatrix(20, tuple(1 << i | 1 << (i + 1) for i in range(16)))))  # k > n - k
def test_macwilliams_gives_the_dual_distance(code):
    n, k = code.n, code.k
    b = list(_dual_weights(code.weight_distribution(), n, k))
    assert len(b) == n + 1 and all(type(x) is int and x >= 0 for x in b)
    assert b[0] == 1 and sum(b) == 1 << (n - k)
    d_dual = derive(code).dual_side.d
    assert d_dual == min(j for j in range(1, n + 1) if b[j])
    if n - k <= 16:
        dual = code.dual()
        assert d_dual == dual.min_distance()
        assert b == [dual.weight_distribution()[j] for j in range(n + 1)]
    else:
        assert d_dual == _dependent_columns(code)


def test_macwilliams_refuses_a_distribution_no_code_has():
    # weights {0: 1, 1: 2, 3: 1} at n = 3, k = 2: B_1 = (3 + 2 - 3) / 4
    forged = WeightDistribution(((0, 1), (1, 2), (3, 1)))
    with pytest.raises(ClaimViolationError, match="not a count"):
        list(_dual_weights(forged, 3, 2))
    # the full space's distribution transforms to the zero dual
    full = LinearCode.from_strings(["10", "01"]).weight_distribution()
    with pytest.raises(ClaimViolationError, match="zero dual"):
        list(_dual_weights(full, 2, 2))


def test_derive_answers_a_70_2_code():
    # the dual has 2^68 words, past the enumeration cap
    pair = derive(LinearCode(BitMatrix(70, ((1 << 70) - 1, (1 << 35) - 1))))
    assert (str(pair.primal), str(pair.dual_side)) == ("[[70,2,35;68]]", "[[70,68,2;2]]")


def test_derive_builds_no_dual(entries, monkeypatch):
    seed = entries["seed_10_6_3"].code()
    x = BitVector.from01("0000011000")
    child = construct(seed, x, classify_extension(seed, x)).child
    codes = [LinearCode(e.matrix) for e in entries.values()] + [LinearCode(child.gen)]
    want = [LinearCode(c.gen).dual().min_distance() for c in codes]

    def refuse(m):
        raise AssertionError("derive built a nullspace")

    monkeypatch.setattr(gf2, "nullspace_basis", refuse)
    assert [derive(c).dual_side.d for c in codes] == want


def test_role_swap_duality(entries):
    for entry in entries.values():
        code = entry.code()
        p = derive(code)
        q = derive(code.dual())
        assert q.primal == p.dual_side, entry.label
        assert q.dual_side == p.primal, entry.label


def test_derived_parameters_respect_singleton(entries):
    for entry in entries.values():
        pair = derive(entry.code())
        assert singleton_gap(pair.primal) >= 0, entry.label
        assert singleton_gap(pair.dual_side) >= 0, entry.label


def test_singleton_gap_arithmetic():
    violating = EaqeccParams(4, 2, 3, 1)
    assert singleton_gap(violating) == -1
    assert not violating.is_mds
    mds = EaqeccParams(4, 2, 2, 0)
    assert singleton_gap(mds) == 0
    assert mds.is_mds


def test_params_validation():
    with pytest.raises(UsageError):
        EaqeccParams(4, -1, 2, 0)
    with pytest.raises(UsageError):
        EaqeccParams(4, 2, 0, 0)
    with pytest.raises(UsageError):
        EaqeccParams(4, 2, 2, 4)


def test_derived_flags_follow_the_four_fields(entries):
    # derive sets no flag: both sides of every corpus code read them from (n, k, d, c)
    for entry in entries.values():
        pair = derive(entry.code())
        for p in (pair.primal, pair.dual_side):
            assert p.is_mds == (singleton_gap(p) == 0), entry.label
            assert p.degenerate == (p.k == 0), entry.label
    assert len(entries) == 78


def test_hand_built_params_derive_their_flags(entries):
    # a hand-built k = 0 set is degenerate, and equal to the derived one
    p = EaqeccParams(7, 0, 4, 1)
    assert p.degenerate and not p.is_mds
    assert p == derive(entries["Hamming_7_4_3"].code()).dual_side
    assert repr(p) == "EaqeccParams(n=7, k=0, d=4, c=1)"
    assert EaqeccParams(4, 2, 2, 0).is_mds and not EaqeccParams(4, 2, 2, 0).degenerate
    with pytest.raises(TypeError):
        EaqeccParams(4, 2, 2, 0, is_mds=False)
    with pytest.raises(AttributeError):
        p.degenerate = False


def test_pair_validation():
    with pytest.raises(UsageError):
        DerivationPair(EaqeccParams(7, 1, 3, 0), EaqeccParams(7, 1, 3, 0))


# ------------------------------------------------------------------- tables


def _row_text(table: QuantumTable, n: int) -> dict[int, str]:
    return {kl: cell.text() for kl, cell in table.row(n).items()}


def test_tabulate_h1_row12(entries):
    codes = [
        e.code()
        for e in entries.values()
        if e.claimed_h == 1 and e.claimed_n == 12
    ]
    table = tabulate(codes)
    assert table.h == 1
    assert _row_text(table, 12) == {
        0: "(12;10)",
        1: "(7;9)",
        2: "(6;8)",
        3: "(5;7)",
        4: "(4;6)",
        5: "(4;5)",
        6: "(4;4)",
        7: "(3;3)",
        8: "(2;2)",
        9: "(1;1)",
        10: "(2;0)",
    }


def test_tabulate_h3_row9(entries):
    codes = [
        e.code()
        for e in entries.values()
        if e.claimed_h == 3 and e.claimed_n == 9
    ]
    table = tabulate(codes, h=3)
    assert _row_text(table, 9) == {0: "(4;3)", 1: "(4;2)", 2: "(3;1)", 3: "(2;0)"}


def test_tabulate_rejects_mixed_hulls(entries):
    with pytest.raises(UsageError):
        tabulate([entries["B12"].code(), entries["Hamming_7_4_3"].code()])
    with pytest.raises(UsageError):
        tabulate([entries["B12"].code()], h=3)


def test_tabulate_empty():
    table = tabulate([])
    assert table.cells == {}
    assert format_quantum_table(table) == ""


def test_tabulate_keeps_best_distance(entries):
    import random

    better = entries["G1_12_6_4"].code()
    rng = random.Random(3)
    while True:
        rows = tuple(rng.randrange(1, 1 << 12) for _ in range(6))
        code = LinearCode(BitMatrix(12, rows))
        if code.k == 6 and code.hull_dim() == 1 and code.min_distance() < 4:
            worse = code
            break
    for batch in ([better, worse], [worse, better]):
        table = tabulate(batch)
        assert _row_text(table, 12)[5] == "(4;5)"


# ------------------------------------------- derived from classical tables


def test_h1_cells_match_printed_quantum_rows(cells_by_table):
    table = quantum_table_from_cells(cells_by_table["T1"])
    assert table.h == 1
    assert _row_text(table, 4) == {0: "(4;2)", 1: "(1;1)", 2: "(2;0)"}
    assert _row_text(table, 12) == {
        0: "(12;10)",
        1: "(7;9)",
        2: "(6;8)",
        3: "(5;7)",
        4: "(4;6)",
        5: "(4;5)",
        6: "(4;4)",
        7: "(3;3)",
        8: "(2;2)",
        9: "(1;1)",
        10: "(2;0)",
    }
    assert _row_text(table, 13) == {
        0: "(12;11)",
        1: "(8;10)",
        2: "(6;9)",
        3: "(6;8)",
        4: "(5;7)",
        5: "(4;6)",
        6: "(4;5)",
        7: "(3;4)",
        8: "(2;3)",
        9: "(2;2)",
        10: "(2;1)",
        11: "(1;0)",
    }


def test_h2_cells_match_printed_quantum_rows(cells_by_table):
    table = quantum_table_from_cells(cells_by_table["T3"])
    # zero-distance source cells disappear instead of printing 0
    assert _row_text(table, 10) == {
        0: "(6;6)",
        1: "(4;5)",
        2: "(4;4)",
        3: "(3;3)",
        4: "(3;2)",
        5: "(2;1)",
        6: "(2;0)",
    }
    assert _row_text(table, 13) == {
        0: "(8;9)",
        1: "(7;8)",
        2: "(6;7)",
        3: "(5;6)",
        4: "(4;5)",
        5: "(4;4)",
        6: "(4;3)",
        7: "(3;2)",
        8: "(2;1)",
        9: "(1;0)",
    }


def test_h3_cells_match_printed_quantum_rows(cells_by_table):
    table = quantum_table_from_cells(cells_by_table["T5"])
    assert _row_text(table, 9) == {0: "(4;3)", 1: "(4;2)", 2: "(3;1)", 3: "(2;0)"}
    assert _row_text(table, 13) == {
        0: "(6;7)",
        1: "(>=5;6)",
        2: "(>=4;5)",
        3: "(4;4)",
        4: "(4;3)",
        5: "(>=3;2)",
        6: "(>=2;1)",
        7: "(2;0)",
    }


def test_h4_cells_match_printed_quantum_rows(cells_by_table):
    table = quantum_table_from_cells(cells_by_table["T7"])
    for n, expect in {
        8: {0: "(4;0)"},
        9: {0: "(4;1)", 1: "(2;0)"},
        10: {0: "(4;2)", 1: "(4;1)", 2: "(2;0)"},
        11: {0: "(4;3)", 1: "(4;2)", 2: "(3;1)", 3: "(2;0)"},
        12: {0: "(4;4)", 1: "(4;3)", 2: "(4;2)", 3: "(3;1)", 4: "(2;0)"},
    }.items():
        assert _row_text(table, n) == expect, n
    assert _row_text(table, 13) == {
        0: "(4;5)",
        1: "(>=4;4)",
        2: "(4;3)",
        3: "(>=3;2)",
        4: "(>=2;1)",
        5: "(>=2;0)",
    }


def test_h5_cells_match_printed_quantum_rows(cells_by_table):
    table = quantum_table_from_cells(cells_by_table["T9"])
    assert _row_text(table, 10) == {0: "(2;0)"}
    assert _row_text(table, 11) == {0: "(4;1)", 1: "(3;0)"}
    assert _row_text(table, 12) == {0: "(4;2)", 1: "(3;1)", 2: "(3;0)"}
    assert _row_text(table, 13) == {
        0: "(4;3)",
        1: "(4;2)",
        2: "(4;1)",
        3: "(>=2;0)",
    }


def test_mixed_tables_rejected(cells_by_table):
    with pytest.raises(UsageError):
        quantum_table_from_cells(cells_by_table["T1"] + cells_by_table["T3"])


# --------------------------------------------------------------- rendering


def test_csv_rendering(cells_by_table):
    table = quantum_table_from_cells(cells_by_table["T9"])
    assert format_quantum_table(table, "csv") == (
        "n/k,0,1,2,3\n"
        "10,(2;0),,,\n"
        "11,(4;1),(3;0),,\n"
        "12,(4;2),(3;1),(3;0),\n"
        "13,(4;3),(4;2),(4;1),(>=2;0)\n"
    )


def test_text_rendering(cells_by_table):
    table = quantum_table_from_cells(cells_by_table["T9"])
    text = format_quantum_table(table, "text")
    lines = text.splitlines()
    assert lines[0].split() == ["n/k", "0", "1", "2", "3"]
    assert lines[1].startswith("10")
    assert "(>=2;0)" in lines[4]
    # no trailing whitespace on ragged rows
    assert all(line == line.rstrip() for line in lines)


def test_md_rendering(cells_by_table):
    table = quantum_table_from_cells(cells_by_table["T9"])
    md = format_quantum_table(table, "md")
    lines = md.splitlines()
    assert lines[0] == "| n/k | 0 | 1 | 2 | 3 |"
    assert lines[1] == "|---|---|---|---|---|"
    assert lines[2] == "| 10 | (2;0) |  |  |  |"


def test_unknown_format_rejected(cells_by_table):
    table = quantum_table_from_cells(cells_by_table["T9"])
    with pytest.raises(UsageError):
        format_quantum_table(table, "latex")
