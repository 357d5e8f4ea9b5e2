"""Exact linear algebra over GF(2): unit oracles and random properties."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullforge.code import LinearCode
from hullforge.errors import DimensionError, InvalidCodeError
from hullforge import gf2
from hullforge.gf2 import BitMatrix, BitVector
from helpers import dot, identity, rref, stack, support, zeros

# Seed generator of the [10,6,3] running example; hull dimension 1,
# so rank(G G^T) must be 5 (checked independently below).
SEED_10_6_3 = [
    "1000000101",
    "0100001001",
    "0010001110",
    "0001000110",
    "0000101010",
    "0000011100",
]

# The [12,7,3] lengthening of the seed by x=0000011000, as built
# (two new coordinates in front, new top row (1 1 | x)) ...
EXT_12_7_3 = [
    "110000011000",
    "001000000101",
    "100100001001",
    "100010001110",
    "000001000110",
    "100000101010",
    "000000011100",
]

# ... and its unique reduced echelon form.
EXT_12_7_3_RREF = [
    "100000101010",
    "010000101110",
    "001000000101",
    "000100100011",
    "000010100100",
    "000001000110",
    "000000011100",
]


def _random_matrix(rng, nrows, ncols):
    return BitMatrix(ncols, tuple(rng.getrandbits(ncols) for _ in range(nrows)))


def test_vector_string_round_trip():
    v = BitVector.from01("0000011000")
    assert v.len == 10
    assert v.weight() == 2
    assert support(v) == (5, 6)
    assert v.to01() == "0000011000"


def test_vector_padding_enforced():
    with pytest.raises(DimensionError):
        BitVector(3, 0b1000)


def test_dot_basics():
    assert dot(BitVector.from01("11"), BitVector.from01("11")) == 0
    assert dot(BitVector.from01("101"), BitVector.from01("100")) == 1
    x = BitVector.from01("0000011000")
    assert dot(x, x) == 0
    with pytest.raises(DimensionError):
        dot(BitVector.from01("1"), BitVector.from01("11"))


def test_rank_trivial():
    assert gf2.rank(identity(6)) == 6
    assert gf2.rank(zeros(4, 9)) == 0
    assert gf2.rank(BitMatrix(5, ())) == 0


def test_seed_gram_rank():
    g = BitMatrix.from_strings(SEED_10_6_3)
    assert gf2.rank(g) == 6
    prod = gf2.mat_mul(g, gf2.transpose(g))
    assert prod.nrows == prod.ncols == 6
    assert gf2.rank(prod) == 5
    assert gf2.gram(g) == prod


def test_rref_identity():
    m, pivots = rref(identity(5))
    assert m == identity(5)
    assert pivots == [0, 1, 2, 3, 4]


def test_rref_of_extension_matches_standard_form():
    m = BitMatrix.from_strings(EXT_12_7_3)
    red, pivots = rref(m)
    assert red == BitMatrix.from_strings(EXT_12_7_3_RREF)
    assert pivots == [0, 1, 2, 3, 4, 5, 7]


def test_rref_idempotent_and_span_preserving():
    rng = random.Random(1)
    for _ in range(50):
        m = _random_matrix(rng, 8, 12)
        red, pivots = rref(m)
        assert red.nrows == m.nrows
        assert len(pivots) == gf2.rank(m)
        again, pivots2 = rref(red)
        assert again == red and pivots2 == pivots
        for row in m.rows:
            assert gf2.in_row_space(red, row)
        for row in red.rows:
            assert gf2.in_row_space(m, row)


def test_mat_mul_shapes_and_identity():
    rng = random.Random(2)
    m = _random_matrix(rng, 4, 7)
    assert gf2.mat_mul(identity(4), m) == m
    with pytest.raises(DimensionError):
        gf2.mat_mul(m, m)


def test_transpose_round_trip():
    rng = random.Random(3)
    m = _random_matrix(rng, 5, 9)
    t = gf2.transpose(m)
    assert t.nrows == 9 and t.ncols == 5
    assert gf2.transpose(t) == m


def test_nullspace_identity_empty():
    ns = gf2.nullspace_basis(identity(4))
    assert ns.nrows == 0 and ns.ncols == 4


def test_nullspace_of_zero_row():
    ns = gf2.nullspace_basis(zeros(1, 6))
    assert ns.nrows == 6
    assert gf2.rank(ns) == 6


def test_nullspace_orthogonal_to_rows():
    rng = random.Random(4)
    for _ in range(30):
        m = _random_matrix(rng, 6, 11)
        ns = gf2.nullspace_basis(m)
        assert ns.nrows == 11 - gf2.rank(m)
        prod = gf2.mat_mul(m, gf2.transpose(ns))
        assert all(b == 0 for b in prod.row_bits)


def test_intersection_with_self():
    rng = random.Random(5)
    m = _random_matrix(rng, 5, 8)
    inter = gf2.row_space_intersection(m, m)
    assert inter.nrows == gf2.rank(m)
    for row in inter.rows:
        assert gf2.in_row_space(m, row)


def test_intersection_disjoint_supports():
    a = BitMatrix.from_strings(["100000", "010000"])
    b = BitMatrix.from_strings(["000100", "000010"])
    inter = gf2.row_space_intersection(a, b)
    assert inter.nrows == 0


def test_intersection_hand_case():
    a = BitMatrix.from_strings(["100", "010"])
    b = BitMatrix.from_strings(["110", "001"])
    inter = gf2.row_space_intersection(a, b)
    assert inter.to_strings() == ["110"]


def test_wide_matrices_beyond_64_columns():
    n = 100
    rng = random.Random(6)
    m = _random_matrix(rng, 10, n)
    assert gf2.rank(m) <= 10
    red, pivots = rref(m)
    assert len(pivots) == gf2.rank(m)
    ns = gf2.nullspace_basis(m)
    assert ns.nrows == n - len(pivots)


def test_rank_transpose_battery():
    # fixed-seed battery across sizes up to 16x16
    rng = random.Random(20240817)
    for _ in range(1000):
        nrows = rng.randrange(1, 17)
        ncols = rng.randrange(1, 17)
        m = _random_matrix(rng, nrows, ncols)
        assert gf2.rank(m) == gf2.rank(gf2.transpose(m))


@st.composite
def matrices(draw, max_rows=8, max_cols=12):
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(1, max_cols))
    rows = draw(
        st.lists(st.integers(0, (1 << ncols) - 1), min_size=nrows, max_size=nrows)
    )
    return BitMatrix(ncols, tuple(rows))


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_product_rank_bound(m):
    t = gf2.transpose(m)
    assert gf2.rank(gf2.mat_mul(m, t)) <= min(gf2.rank(m), gf2.rank(t))


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_nullspace_duality(m):
    ns = gf2.nullspace_basis(m)
    back = gf2.nullspace_basis(ns)
    assert back.nrows == gf2.rank(m)
    for row in back.rows:
        assert gf2.in_row_space(m, row)
    for row in m.rows:
        assert gf2.in_row_space(back, row)


@given(matrices(max_rows=6), matrices(max_rows=6))
@settings(max_examples=200, deadline=None)
def test_intersection_dimension_formula(a, b):
    if a.ncols != b.ncols:
        width = max(a.ncols, b.ncols)
        a = BitMatrix(width, a.row_bits)
        b = BitMatrix(width, b.row_bits)
    inter = gf2.row_space_intersection(a, b)
    stacked = stack(a, b)
    assert inter.nrows == gf2.rank(a) + gf2.rank(b) - gf2.rank(stacked)
    for row in inter.rows:
        assert gf2.in_row_space(a, row)
        assert gf2.in_row_space(b, row)


# ---------------------------------------------------------------------------
# kernels against plain reference versions


def _column_scan_rref(rows, ncols):
    """Textbook RREF: columns left to right, first remaining row as pivot."""
    out = list(rows)
    pivots = []
    r = 0
    for col in range(ncols):
        sel = next((i for i in range(r, len(out)) if out[i] >> col & 1), None)
        if sel is None:
            continue
        out[r], out[sel] = out[sel], out[r]
        for i in range(len(out)):
            if i != r and out[i] >> col & 1:
                out[i] ^= out[r]
        pivots.append(col)
        r += 1
    return out, pivots


def _char_loop_01(bits, n):
    return "".join("1" if bits >> i & 1 else "0" for i in range(n))


@st.composite
def row_lists(draw):
    """Rows over ncols in 0..14, with zero rows and dependent rows mixed in."""
    ncols = draw(st.integers(0, 14))
    rows = draw(st.lists(st.integers(0, (1 << ncols) - 1), max_size=10))
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["zero", "copy", "sum"]))
        extra = {"zero": 0, "copy": rows[i], "sum": rows[i] ^ rows[j]}[kind]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows, ncols


@given(row_lists())
@settings(max_examples=400, deadline=None)
def test_rref_kernel_matches_column_scan(case):
    rows, ncols = case
    assert gf2._rref_ints(rows) == _column_scan_rref(rows, ncols)


@pytest.mark.parametrize(
    "rows, ncols",
    [([], 0), ([], 5), ([0, 0], 0), ([0, 0, 0], 4), ([5, 5, 0, 5], 3), ([6, 3, 5], 3)],
)
def test_rref_kernel_edge_cases(rows, ncols):
    assert gf2._rref_ints(rows) == _column_scan_rref(rows, ncols)
    out, _ = gf2._rref_ints(rows)
    assert len(out) == len(rows)


@given(st.integers(0, 70).flatmap(lambda n: st.tuples(st.integers(0, (1 << n) - 1), st.just(n))))
@settings(max_examples=400, deadline=None)
def test_bits_to01_matches_char_loop(case):
    bits, n = case
    assert gf2.bits_to01(bits, n) == _char_loop_01(bits, n)
    assert gf2.bits_from01(gf2.bits_to01(bits, n)) == bits


def test_bits_to01_empty_and_leading_zeros():
    assert gf2.bits_to01(0, 0) == ""
    assert gf2.bits_to01(0, 3) == "000"
    assert gf2.bits_to01(1, 4) == "1000"
    assert gf2.bits_to01(8, 4) == "0001"


@pytest.mark.parametrize(
    "ncols, rows", [(3, (1, -1)), (3, (1 << 3,)), (0, (0, 1)), (5, (1, 1 << 6, 2))]
)
def test_matrix_rejects_rows_outside_the_width(ncols, rows):
    with pytest.raises(DimensionError, match="row exceeds declared width"):
        BitMatrix(ncols, rows)


def test_matrix_width_edges():
    assert BitMatrix(3, (0b111, 0)).to_strings() == ["111", "000"]
    assert BitMatrix(0, (0, 0)).to_strings() == ["", ""]
    empty = BitMatrix(5, ())
    assert empty.nrows == 0 and empty.to_strings() == []


@given(
    st.integers(0, 70).flatmap(
        lambda n: st.tuples(st.lists(st.integers(0, (1 << n) - 1), max_size=5), st.just(n))
    )
)
@settings(max_examples=200, deadline=None)
def test_matrix_strings_match_char_loop(case):
    rows, n = case
    assert BitMatrix(n, tuple(rows)).to_strings() == [_char_loop_01(b, n) for b in rows]


# --- what the one elimination and the one parity product must not move.
# Widths reach 70, so rows cross the 64-bit edge.


@st.composite
def wide_rows(draw, max_rows=8):
    """Rows over ncols in 1..70, with zero, repeated and dependent rows mixed in."""
    ncols = draw(st.integers(1, 70))
    rows = draw(st.lists(st.integers(0, (1 << ncols) - 1), max_size=max_rows))
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        picked = draw(st.lists(st.sampled_from(rows), max_size=3))
        extra = 0
        for r in picked:  # no pick is a zero row, one a repeat, more a sum
            extra ^= r
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows, ncols


def _scan_rank(rows, ncols):
    return len(_column_scan_rref(rows, ncols)[1])


@given(wide_rows())
@settings(max_examples=300, deadline=None)
def test_linear_code_keeps_the_first_independent_rows_in_order(case):
    rows, ncols = case
    kept = []
    for r in rows:
        if _scan_rank(kept + [r], ncols) > len(kept):
            kept.append(r)
    if not kept:
        with pytest.raises(InvalidCodeError):
            LinearCode(BitMatrix(ncols, tuple(rows)))
        return
    c = LinearCode(BitMatrix(ncols, tuple(rows)))
    assert c.gen.row_bits == tuple(kept)
    assert c.repaired == (len(kept) != len(rows))


def _span(rows):
    out = {0}
    for r in rows:
        out |= {v ^ r for v in out}
    return out


@given(wide_rows(max_rows=3), st.data())
@settings(max_examples=300, deadline=None)
def test_intersection_matches_brute_force(case, data):
    a, ncols = case
    # b shares part of a's span, so the intersection is often nonzero
    shared = data.draw(st.lists(st.sampled_from(sorted(_span(a))), max_size=3))
    own = data.draw(st.lists(st.integers(0, (1 << ncols) - 1), max_size=3))
    b = data.draw(st.permutations(shared + own))
    inter = sorted(_span(a) & _span(b))
    want, pivots = _column_scan_rref(inter, ncols)
    got = gf2.row_space_intersection(BitMatrix(ncols, tuple(a)), BitMatrix(ncols, tuple(b)))
    assert got == BitMatrix(ncols, tuple(want[: len(pivots)]))


@given(wide_rows(), st.data())
@settings(max_examples=300, deadline=None)
def test_products_match_the_parity_loop(case, data):
    rows, ncols = case
    v = data.draw(st.integers(0, (1 << ncols) - 1))
    assert gf2._products(v, rows) == sum(gf2.parity(v & r) << i for i, r in enumerate(rows))
    g = gf2.gram(BitMatrix(ncols, tuple(rows)))
    assert g.row_bits == tuple(
        sum(gf2.parity(a & b) << j for j, b in enumerate(rows)) for a in rows
    )


@st.composite
def bit_matrices(draw, nrows=None, max_rows=6):
    """Widths 0-70 (past one 64-bit limb); rows are often zero."""
    ncols = draw(st.integers(0, 70))
    if nrows is None:
        nrows = draw(st.integers(0, max_rows))
    row = st.one_of(st.just(0), st.integers(0, (1 << ncols) - 1))
    return BitMatrix(ncols, tuple(draw(st.lists(row, min_size=nrows, max_size=nrows))))


def _entry(m: BitMatrix, i: int, j: int) -> int:
    return m.row_bits[i] >> j & 1


def _checked(m: BitMatrix) -> BitMatrix:
    # the public constructor's width checks, which gf2's own results skip
    assert BitMatrix(m.ncols, m.row_bits) == m
    return m


@given(bit_matrices())
@settings(max_examples=200, deadline=None)
def test_transpose_matches_its_definition(m):
    t = _checked(gf2.transpose(m))
    assert (t.nrows, t.ncols) == (m.ncols, m.nrows)
    for i in range(m.nrows):
        for j in range(m.ncols):
            assert _entry(t, j, i) == _entry(m, i, j)


@given(bit_matrices(max_rows=10))
@settings(max_examples=200, deadline=None)
def test_gram_matches_its_definition(m):
    g = _checked(gf2.gram(m))
    assert (g.nrows, g.ncols) == (m.nrows, m.nrows)
    for i in range(m.nrows):
        for j in range(m.nrows):
            want = sum(_entry(m, i, c) & _entry(m, j, c) for c in range(m.ncols)) & 1
            assert _entry(g, i, j) == want


@given(bit_matrices(max_rows=4), st.data())
@settings(max_examples=200, deadline=None)
def test_mat_mul_matches_its_definition(a, data):
    b = data.draw(bit_matrices(nrows=a.ncols))
    p = _checked(gf2.mat_mul(a, b))
    assert (p.nrows, p.ncols) == (a.nrows, b.ncols)
    for i in range(a.nrows):
        for j in range(b.ncols):
            want = sum(_entry(a, i, t) & _entry(b, t, j) for t in range(a.ncols)) & 1
            assert _entry(p, i, j) == want
