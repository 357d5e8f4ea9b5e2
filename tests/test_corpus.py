"""Fixture-set loading, validation, and the serialization formats."""

from __future__ import annotations

import shutil

import pytest

from hullforge import corpus
from hullforge.code import LinearCode
from hullforge.corpus import (
    CorpusEntry,
    TableCell,
    by_label,
    load_comparison,
    load_corpus,
    load_quarantine,
    load_tables,
    parse_entry,
    parse_matrix_file,
)
from hullforge.errors import CorpusFormatError, CorpusValidationError
from hullforge.gf2 import BitMatrix
from helpers import serialize_entry

TABLE_FOR_H = {1: "T1", 2: "T3", 3: "T5", 4: "T7", 5: "T9"}


@pytest.fixture(scope="module")
def entries():
    return load_corpus()


@pytest.fixture(scope="module")
def index(entries):
    return by_label(entries)


@pytest.fixture(scope="module")
def cells():
    return load_tables()


@pytest.fixture(scope="module")
def cell_index(cells):
    return {(c.table_id, c.n, c.k): c for c in cells}


# ------------------------------------------------------------------ loading


def test_corpus_size_and_coverage(entries):
    assert len(entries) >= 40
    hulls = {e.claimed_h for e in entries}
    assert {1, 2, 3, 4, 5} <= hulls
    lengths = {e.claimed_n for e in entries}
    assert {10, 12, 13} <= lengths


def test_every_entry_validates(entries):
    # load_corpus already checked; do it again explicitly so a future
    # loader change cannot silently drop the verification
    for e in entries:
        e.check()


def test_entry_code_is_built_once(entries):
    entry = entries[0]
    assert entry.code() is entry.code()
    # a fresh load parses fresh entries, so nothing carries over between calls
    assert load_corpus()[0].code() is not entry.code()


def test_required_labels_present(index):
    required = ["seed_10_6_3", "Cprime_12_7_3", "Csecond_12_7_4", "B12", "Hamming_7_4_3"]
    required += [f"G1_12_{k}_{d}" for k, d in [(6, 4), (7, 4), (8, 3), (9, 2), (10, 1), (11, 2)]]
    required += [f"G1_13_{k}_{d}" for k, d in [(3, 6), (4, 6), (6, 4), (7, 4), (8, 3), (9, 2), (10, 2), (11, 2)]]
    required += [f"G2_12_{k}_{d}" for k, d in [(3, 5), (4, 6), (5, 4), (6, 4), (7, 3), (8, 3), (9, 2), (10, 2)]]
    required += [f"G2_13_{k}_{d}" for k, d in [(3, 7), (4, 6), (5, 5), (6, 4), (7, 4), (8, 4), (9, 3), (10, 2)]]
    required += [f"G3_12_{k}_{d}" for k, d in [(4, 4), (5, 4), (6, 4), (7, 4), (8, 2), (9, 2)]]
    required += [f"G3_13_{k}_{d}" for k, d in [(4, 5), (5, 4), (6, 4), (7, 4), (8, 3), (9, 2), (10, 2)]]
    required += [f"G4_12_{k}_{d}" for k, d in [(5, 4), (6, 4), (7, 3), (8, 2)]]
    required += [f"G4_13_{k}_{d}" for k, d in [(6, 4), (7, 3), (8, 2), (9, 2)]]
    required += [f"G5_12_{k}_{d}" for k, d in [(5, 4), (6, 3), (7, 3)]]
    required += [f"G5_13_{k}_{d}" for k, d in [(5, 4), (6, 4), (7, 4), (8, 2)]]
    for label in required:
        assert label in index, label


def test_spot_entries(index):
    e = index["G5_12_6_3"]
    assert (e.claimed_n, e.claimed_k, e.claimed_d, e.claimed_h) == (12, 6, 3, 5)
    e = index["B12"]
    assert (e.claimed_n, e.claimed_k, e.claimed_d, e.claimed_h) == (12, 6, 4, 6)
    assert e.code().hull().is_self_dual
    e = index["G3_13_10_2"]
    assert (e.claimed_n, e.claimed_k, e.claimed_d, e.claimed_h) == (13, 10, 2, 3)
    e = index["seed_10_6_3"]
    assert (e.claimed_n, e.claimed_k, e.claimed_d, e.claimed_h) == (10, 6, 3, 1)
    e = index["Hamming_7_4_3"]
    assert e.code().hull().is_self_orthogonal is False
    assert e.code().dual().contains(e.matrix.row(0)) is False


def test_worked_example_entries_are_the_built_codes(index):
    cprime = index["Cprime_12_7_3"].code()
    assert cprime.min_distance() == 3
    assert cprime.hull_dim() == 2
    csecond = index["Csecond_12_7_4"].code()
    assert csecond.min_distance() == 4
    assert csecond.hull_dim() == 3
    assert not cprime.same_row_space(csecond)


def test_entries_sorted_and_unique(entries):
    keys = [(e.claimed_h, e.claimed_n, e.claimed_k, e.label) for e in entries]
    assert keys == sorted(keys)
    labels = [e.label for e in entries]
    assert len(labels) == len(set(labels))


# ------------------------------------------------------------------ tables


def test_table_cell_spots(cell_index):
    c = cell_index[("T1", 12, 7)]
    assert c.d == 4 and c.exact and c.construction_marks == {"III"} and c.optimal_mark
    c = cell_index[("T9", 13, 8)]
    assert c.d == 2 and not c.exact and c.construction_marks == {"I"}
    c = cell_index[("T5", 13, 4)]
    assert c.d == 5 and not c.exact and c.construction_marks == {"I"}
    c = cell_index[("T5", 9, 5)]
    assert c.d == 3 and c.exact
    c = cell_index[("T3", 10, 4)]
    assert c.d == 4 and c.exact
    c = cell_index[("T1", 11, 5)]
    assert c.d == 4 and c.exact


def test_zero_cells_stored_verbatim(cell_index):
    assert cell_index[("T1", 1, 1)].d == 0
    assert cell_index[("T5", 6, 4)].d == 0
    assert cell_index[("T7", 12, 9)].d == 0


def test_footnote_cells_kept(cell_index):
    assert cell_index[("T3", 13, 7)].note == "h1"
    assert cell_index[("T5", 12, 7)].note == "h1"


def test_inexact_cells_confined_to_longest_length(cells):
    assert all(c.n == 13 for c in cells if not c.exact)
    assert sum(not c.exact for c in cells) == 9


def test_table_h_mapping(cells):
    seen = {c.table_id: c.h for c in cells}
    assert seen == {"T1": 1, "T3": 2, "T5": 3, "T7": 4, "T9": 5}


def test_witnesses_agree_with_cells(entries, cell_index):
    checked = 0
    for e in entries:
        tid = TABLE_FOR_H.get(e.claimed_h)
        cell = cell_index.get((tid, e.claimed_n, e.claimed_k)) if tid else None
        if cell is None:
            continue
        if cell.exact:
            assert e.claimed_d == cell.d, e.label
        else:
            assert e.claimed_d >= cell.d, e.label
        checked += 1
    assert checked >= 70


def test_comparison_rows():
    rows = load_comparison()
    assert len(rows) == 11
    bold = sorted(r.ours for r in rows if r.bold)
    assert bold == [(9, 2, 3, 1), (12, 5, 4, 5), (13, 3, 6, 8)]
    assert {r.row for r in rows} == set(range(1, 8))
    for r in rows:
        n, kq, d, c = r.ours
        assert n == r.known[0]
        assert 0 <= c <= n and 1 <= kq < n


def test_comparison_rows_have_corpus_witnesses(index):
    # each claimed parameter set must trace back to a bundled code via
    # kq = k - h, c = n - k - h for the hull dimension of its table
    h_for = {"T2": 1, "T4": 2, "T6": 3}
    for r in load_comparison():
        n, kq, d, c = r.ours
        h = h_for[r.source_table]
        k = kq + h
        assert c == n - k - h, r
        witnesses = [
            e
            for e in index.values()
            if (e.claimed_n, e.claimed_k, e.claimed_h) == (n, k, h)
            and e.claimed_d == d
        ]
        assert witnesses, r


# -------------------------------------------------------------- quarantine


def test_quarantine_contents():
    q = {e.label: e for e in load_quarantine()}
    assert set(q) == {"G4_13_5_4", "G1_13_5_6", "Csecond_12_7_4_printed"}
    short = q["G4_13_5_4"]
    assert short.claimed_k == 5 and len(short.rows) == 4
    assert "missing row" in short.reason
    relabeled = q["G1_13_5_6"]
    assert relabeled.claimed_d == 6 and len(relabeled.rows) == 5


def test_quarantined_entries_genuinely_fail(index):
    # nothing in quarantine would pass validation, and the shape-consistent
    # ones recompute to parameters that contradict their claims
    for e in load_quarantine():
        if len(e.rows) != e.claimed_k:
            continue
        code = LinearCode(BitMatrix.from_strings(list(e.rows)))
        got = (code.k, code.min_distance(), code.hull_dim())
        assert got != (e.claimed_k, e.claimed_d, e.claimed_h), e.label


def test_quarantine_replacements_bundled(index):
    # each quarantined block has a valid stand-in in the main tree
    assert index["D4_13_5_4"].claimed_h == 4
    d155 = index["D1_13_5_5"]
    assert (d155.claimed_d, d155.claimed_h) == (5, 1)
    q = {e.label: e for e in load_quarantine()}
    relabeled = LinearCode(BitMatrix.from_strings(list(q["G1_13_5_6"].rows)))
    assert relabeled.same_row_space(d155.code())


# ------------------------------------------------------------ serialization


def test_round_trip_byte_identical_for_all_fixtures():
    root = corpus.data_root()
    seen = 0
    for sub in sorted(root.iterdir()):
        if not (sub.is_dir() and sub.name.startswith("h")):
            continue
        for path in sorted(sub.glob("*.txt")):
            text = path.read_text()
            assert serialize_entry(parse_entry(text, where=str(path))) == text
            seen += 1
    assert seen >= 40


def test_parse_entry_minimal():
    text = "# source: nowhere\n# optimality: lower_bound\n2 1 2 1 tiny\n11\n"
    e = parse_entry(text)
    assert e.label == "tiny"
    assert (e.claimed_n, e.claimed_k, e.claimed_d, e.claimed_h) == (2, 1, 2, 1)
    assert e.source == "nowhere"
    e.check()


def test_parse_matrix_file_bare_header():
    mf = parse_matrix_file("3 2\n110\n011\n")
    assert mf.matrix.nrows == 2 and mf.matrix.ncols == 3
    assert mf.label is None and mf.claimed_d is None


def test_parse_matrix_file_full_header():
    mf = parse_matrix_file("3 2 2 1 demo\n110\n011\n")
    assert mf.label == "demo" and (mf.claimed_d, mf.claimed_h) == (2, 1)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CorpusFormatError) as exc:
        parse_entry("2 1 2 1 tiny\n1x\n")
    assert exc.value.line == 2
    with pytest.raises(CorpusFormatError) as exc:
        parse_entry("2 1 2\n11\n")
    assert exc.value.line == 1
    with pytest.raises(CorpusFormatError):
        parse_entry("# optimality: best\n2 1 2 1 tiny\n11\n")
    with pytest.raises(CorpusFormatError):
        parse_entry("2 1 2 1 tiny\n11\n# trailing comment\n")
    with pytest.raises(CorpusFormatError):
        parse_entry("2 2 2 1 tiny\n11\n")
    with pytest.raises(CorpusFormatError):
        parse_entry("# just a note\n")


@pytest.mark.parametrize(
    "name, old, new, load",
    [
        ("t1.txt", "\n4 1 4 = - - -\n", "\n4 1x 4 = - - -\n", load_tables),
        ("t11.txt", "\n3 12 3 5 7 12 3 5 7 - T2\n", "\n3 12 3 5 7 x 3 5 7 - T2\n",
         load_comparison),
    ],
    ids=["t1", "t11"],
)
def test_non_integer_table_field_names_its_file_and_line(tmp_path, name, old, new, load):
    root = tmp_path / "corpus"
    shutil.copytree(corpus.data_root(), root)
    path = root / "tables" / name
    text = path.read_text()
    assert text.count(old) == 1
    lineno = text[: text.index(old)].count("\n") + 2
    path.write_text(text.replace(old, new))
    with pytest.raises(CorpusFormatError) as exc:
        load(root)
    assert exc.value.line == lineno
    assert str(path) in str(exc.value)


def test_validation_failure_raises():
    text = "2 1 1 1 wrongd\n11\n"
    e = parse_entry(text)
    with pytest.raises(CorpusValidationError):
        e.check()


def test_by_label_rejects_duplicates(index):
    e = index["B12"]
    with pytest.raises(CorpusValidationError):
        by_label([e, e])


def test_optimality_assignments(index):
    assert index["Csecond_12_7_4"].optimality == "optimal"
    assert index["Cprime_12_7_3"].optimality == "h_optimal"
    assert index["seed_10_6_3"].optimality == "h_optimal"
    assert index["D4_13_5_4"].optimality == "lower_bound"
    for e in index.values():
        assert e.optimality in corpus.OPTIMALITY_KINDS
