"""Lengthening constructions: shapes, hull control, distance prediction."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullforge import buildup, corpus, gf2
from hullforge.buildup import (
    BuildResult,
    ConstructionKind,
    ExtensionVector,
    admissible_distances,
    classify_extension,
    construct,
    predict_distance,
    predicted_hull,
)
from hullforge.code import LinearCode
from hullforge.errors import (
    ClaimViolationError,
    UsageError,
    WrongConstructionError,
    WrongParityError,
)
from hullforge.gf2 import BitMatrix, BitVector
from helpers import identity
from hullforge.search import best_by_sweep, sweep_extensions

SEED_10_6_3 = [
    "1000000101",
    "0100001001",
    "0010001110",
    "0001000110",
    "0000101010",
    "0000011100",
]

B12 = [
    "111100000000",
    "001111000000",
    "000011110000",
    "000000111100",
    "000000001111",
    "010101010101",
]

HAMMING_7_4 = ["1000011", "0100101", "0010110", "0001111"]

# extended Hamming [8,4,4], self-dual
E8 = ["10000111", "01001011", "00101101", "00011110"]

# shortened Hamming [6,3,3]
SH6 = ["100011", "010101", "001110"]

# first worked lengthening, as constructed: [12,7,3] with h=2
CPRIME_BUILT = [
    "110000011000",
    "001000000101",
    "100100001001",
    "100010001110",
    "000001000110",
    "100000101010",
    "000000011100",
]

# the genuine [12,7,4] h=3 optimal code (standard form)
C12_7_4_STD = [
    "100000011100",
    "010000001101",
    "001000011001",
    "000100010101",
    "000010001110",
    "000001011010",
    "000000110110",
]


@pytest.fixture(scope="module")
def seed():
    return LinearCode.from_strings(SEED_10_6_3)


def _check_parity_relation(res: BuildResult):
    child, h = res.child, res.parity_check
    prod = gf2.mat_mul(child.gen, gf2.transpose(h))
    assert all(b == 0 for b in prod.row_bits)
    assert gf2.rank(h) == child.n - child.k
    assert gf2.row_basis(h) == child.dual().canonical_gen()


def test_extension_vector_derivation(seed):
    x = BitVector.from01("0000011000")
    ext = ExtensionVector.bind(seed, x)
    assert ext.self_product == 0
    assert ext.y.to01() == "011010"
    assert ext.z.len == 4
    # y = 0 exactly for vectors of the dual
    for s in seed.parity_check().rows:
        assert ExtensionVector.bind(seed, s).y.is_zero()


def test_worked_example_one(seed):
    res = construct(seed, BitVector.from01("0000011000"), ConstructionKind.III)
    assert res.child.gen == BitMatrix.from_strings(CPRIME_BUILT)
    assert (res.child.n, res.child.k) == (12, 7)
    assert res.actual_hull == 2
    assert res.actual_distance == 3
    _check_parity_relation(res)


def test_worked_example_two_as_printed(seed):
    # the printed lengthening vector of the second worked example gives a
    # [12,7,2] code; the accompanying [12,7,4] needs x = all-ones (below)
    res = construct(seed, BitVector.from01("1111110011"), ConstructionKind.III)
    assert res.actual_hull == 3
    assert res.actual_distance == 2
    _check_parity_relation(res)


def test_worked_example_two_corrected(seed):
    res = construct(seed, BitVector.from01("1111111111"), ConstructionKind.III)
    assert res.actual_hull == 3
    assert res.actual_distance == 4
    target = LinearCode.from_strings(C12_7_4_STD)
    assert res.child.same_row_space(target)
    _check_parity_relation(res)


def test_classify(seed):
    assert classify_extension(seed, BitVector.from01("0000011000")) is ConstructionKind.III
    assert classify_extension(seed, BitVector(10, 0)) is ConstructionKind.II
    assert classify_extension(seed, BitVector.from01("1000000000")) is ConstructionKind.I
    assert classify_extension(seed, BitVector.from01("1111111111")) is ConstructionKind.III


def test_construct_I_hull_is_forced(seed):
    rng = random.Random(12)
    for _ in range(20):
        bits = rng.getrandbits(10)
        if bits.bit_count() % 2 == 0:
            bits ^= 1
        res = construct(seed, BitVector(10, bits), ConstructionKind.I)
        assert res.actual_hull == 2
        assert res.predicted_hull == {2}
        assert (res.child.n, res.child.k) == (12, 7)
    with pytest.raises(WrongParityError):
        construct(seed, BitVector.from01("1100000000"), ConstructionKind.I)


def test_construct_I_self_dual_seed():
    b12 = LinearCode.from_strings(B12)
    assert b12.hull().is_self_dual
    res = construct(b12, BitVector.from01("100000000000"), ConstructionKind.I)
    assert res.child.hull().is_self_dual
    assert (res.child.n, res.child.k) == (14, 7)
    assert res.actual_hull == 7
    _check_parity_relation(res)


def test_construct_II_zero_vector(seed):
    res = construct(seed, BitVector(10, 0), ConstructionKind.II)
    assert res.actual_hull == 2
    assert res.coset_weight == 0
    assert res.distance_prediction == {2}
    assert res.actual_distance == 2
    _check_parity_relation(res)


def test_construct_II_on_hamming_dual_codeword():
    ham = LinearCode.from_strings(HAMMING_7_4)
    s = ham.parity_check().row(0)
    assert s.weight() % 2 == 0
    res = construct(ham, s, ConstructionKind.II)
    assert (res.child.n, res.child.k) == (9, 5)
    assert res.actual_hull == 4
    _check_parity_relation(res)


def test_construct_II_dispatch_errors(seed):
    with pytest.raises(WrongParityError):
        construct(seed, BitVector.from01("1000000000"), ConstructionKind.II)
    with pytest.raises(WrongConstructionError):
        construct(seed, BitVector.from01("0000011000"), ConstructionKind.II)
    with pytest.raises(WrongConstructionError):
        construct(seed, BitVector(10, 0), ConstructionKind.III)
    with pytest.raises(WrongParityError):
        construct(seed, BitVector.from01("1000000000"), ConstructionKind.III)
    with pytest.raises(WrongParityError):
        construct(seed, BitVector.from01("1000000000"), ConstructionKind.IV)


def test_precondition_messages(seed):
    odd, dual_word = BitVector.from01("1000000000"), BitVector(10, 0)
    cases = [
        (ConstructionKind.I, dual_word, "construction I needs x·x = 1, got 0"),
        (ConstructionKind.IV, odd, "construction IV needs x·x = 0, got 1"),
        (ConstructionKind.II, BitVector.from01("0000011000"),
         "x is not orthogonal to the code (y != 0); use construction III"),
        (ConstructionKind.III, dual_word,
         "x is orthogonal to the code (y = 0); use construction II"),
    ]
    for kind, x, text in cases:
        with pytest.raises((WrongParityError, WrongConstructionError)) as err:
            construct(seed, x, kind)
        assert str(err.value) == text


_ODD = BitVector.from01("1000000000")


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda c: predicted_hull("IV", 1), id="predicted_hull"),
        pytest.param(lambda c: admissible_distances(3, 2, "I"), id="admissible_distances"),
        pytest.param(lambda c: predict_distance(c, _ODD, "I"), id="predict_distance"),
        pytest.param(lambda c: construct(c, _ODD, "I"), id="construct"),
        pytest.param(lambda c: sweep_extensions(c, 2, kinds=["I", "II"]), id="sweep-two"),
        pytest.param(lambda c: sweep_extensions(c, 2, kinds=["I"]), id="sweep-one"),
        pytest.param(
            lambda c: sweep_extensions(c, 2, kinds=["I", "II"], engine="reference"),
            id="sweep-reference-two",
        ),
        pytest.param(
            lambda c: sweep_extensions(c, 2, kinds=["I"], engine="reference"),
            id="sweep-reference-one",
        ),
        pytest.param(lambda c: best_by_sweep([c], 2, kinds=["I"]), id="best_by_sweep"),
    ],
)
def test_kind_given_as_a_string_is_refused(seed, call):
    # a string is not coerced: "IV" once read as I/II in predicted_hull
    with pytest.raises(UsageError, match="unknown construction kind"):
        call(seed)


def test_construct_III_sweep_hull_set(seed):
    observed = set()
    for bits in range(1 << 10):
        if bits.bit_count() % 2:
            continue
        x = BitVector(10, bits)
        if ExtensionVector.bind(seed, x).y.is_zero():
            continue
        res = construct(seed, x, ConstructionKind.III)
        assert res.actual_hull in {1, 2, 3}
        observed.add(res.actual_hull)
    # both worked examples land here, and the drop to l is also realized
    assert observed == {1, 2, 3}


def test_construct_IV_preserves_hull():
    e8 = LinearCode.from_strings(E8)
    assert e8.hull().h == 4
    res = construct(e8, BitVector.from01("11000000"), ConstructionKind.IV)
    assert (res.child.n, res.child.k) == (10, 5)
    assert res.actual_hull == 4
    _check_parity_relation(res)


def test_construct_IV_lengthens_h4_witness():
    # the bundled [11,5,4] hull-4 seed reaches [13,6,4] without moving h
    seed = corpus.by_label(corpus.load_corpus(validate=False))["D4_11_5_4"].code()
    res = construct(seed, BitVector.from01("11110000000"), ConstructionKind.IV)
    child = res.child
    assert (child.n, child.k, child.min_distance()) == (13, 6, 4)
    assert res.actual_hull == 4
    _check_parity_relation(res)


def test_construct_IV_lcd_to_lcd():
    lcd = LinearCode.from_strings(["11100", "01110"])
    assert lcd.hull().is_lcd
    res = construct(lcd, BitVector.from01("11000"), ConstructionKind.IV)
    assert res.child.hull().is_lcd
    _check_parity_relation(res)


def test_construct_IV_full_space_seed():
    c = LinearCode(identity(2))
    res = construct(c, BitVector.from01("11"), ConstructionKind.IV)
    assert (res.child.n, res.child.k) == (4, 3)
    assert res.parity_check.nrows == 1
    _check_parity_relation(res)


def test_construct_IV_zero_vector(seed):
    res = construct(seed, BitVector(10, 0), ConstructionKind.IV)
    assert res.actual_hull == 1
    assert res.actual_distance == 1
    assert res.distance_prediction == {1}


def test_admissible_distance_formulas():
    assert admissible_distances(3, 2, ConstructionKind.I) == {3}
    assert admissible_distances(3, 4, ConstructionKind.I) == {3, 4, 5}
    assert admissible_distances(3, 4, ConstructionKind.IV) == {3, 4, 5}
    assert admissible_distances(3, 1, ConstructionKind.II) == {3}
    assert admissible_distances(3, 0, ConstructionKind.III) == {1, 2}
    assert admissible_distances(3, 3, ConstructionKind.III) == {3, 4}


def test_predict_distance_example_one(seed):
    x = BitVector.from01("0000011000")
    w = seed.coset_min_weight(x).min_weight
    pred = predict_distance(seed, x, ConstructionKind.III)
    assert pred == admissible_distances(3, w, ConstructionKind.III)
    assert 3 in pred
    assert pred.bracket is not None
    lo, hi = pred.bracket
    assert lo <= 3 <= hi


def test_predict_distance_bracket_b12():
    b12 = LinearCode.from_strings(B12)
    x = BitVector.from01("000000010101")
    pred = predict_distance(b12, x, ConstructionKind.I)
    assert pred.bracket == (4, 5)
    assert pred == {4}


def test_distance_membership_exhaustive_sh6():
    sh6 = LinearCode.from_strings(SH6)
    for bits in range(1 << 6):
        x = BitVector(6, bits)
        if bits.bit_count() % 2 == 1:
            res = construct(sh6, x, ConstructionKind.I)
        else:
            kind = classify_extension(sh6, x)
            res = construct(sh6, x, kind)
        # property asserted internally on access
        assert res.actual_distance in res.distance_prediction
        assert res.actual_distance in predict_distance(sh6, x, res.kind)


def test_child_dimensions_always(seed):
    rng = random.Random(13)
    for _ in range(30):
        bits = rng.getrandbits(10)
        x = BitVector(10, bits)
        kind = classify_extension(seed, x)
        res = construct(seed, x, kind)
        assert res.child.n == seed.n + 2
        assert res.child.k == seed.k + 1
        _check_parity_relation(res)


# A BuildResult whose predicted hull set excludes the real child hull.
WRONG_PREDICTION = textwrap.dedent(
    """
    from hullforge.buildup import BuildResult, ConstructionKind, ExtensionVector, construct
    from hullforge.code import LinearCode
    from hullforge.gf2 import BitVector

    seed = LinearCode.from_strings(%r)
    x = BitVector.from01("0000011000")
    res = construct(seed, x, ConstructionKind.III)
    BuildResult(
        seed, res.kind, ExtensionVector.bind(seed, x), res.child, res.parity_check,
        predicted_hull=frozenset({res.actual_hull + 1}),
    )
    """
    % SEED_10_6_3
)


def test_wrong_hull_prediction_raises():
    seed = LinearCode.from_strings(SEED_10_6_3)
    x = BitVector.from01("0000011000")
    res = construct(seed, x, ConstructionKind.III)
    with pytest.raises(ClaimViolationError, match="outside predicted"):
        BuildResult(
            seed, res.kind, res.extension, res.child, res.parity_check,
            predicted_hull=frozenset({res.actual_hull + 1}),
        )


def test_wrong_distance_prediction_raises():
    seed = LinearCode.from_strings(SEED_10_6_3)
    res = construct(seed, BitVector.from01("0000011000"), ConstructionKind.III)
    res.distance_prediction = frozenset({99})  # overrides the cached property
    with pytest.raises(ClaimViolationError, match="child distance"):
        res.actual_distance


def test_claim_checks_survive_optimization():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", WRONG_PREDICTION],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode != 0
    assert "ClaimViolationError" in proc.stderr


@st.composite
def seeds_and_extensions(draw):
    """A random seed (possibly repaired, possibly the full space), an x
    and a construction kind that x admits."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, n))
    rows = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=k, max_size=k))
    seed = LinearCode(BitMatrix(n, tuple(rows)))
    x = BitVector(n, draw(st.integers(0, (1 << n) - 1)))
    kind = classify_extension(seed, x)
    if kind is not ConstructionKind.I and draw(st.booleans()):
        kind = ConstructionKind.IV
    return seed, x, kind


def _fields(c: LinearCode):
    return c.gen, c.n, c.k, c.repaired


@settings(max_examples=300, deadline=None)
@given(seeds_and_extensions())
def test_private_construction_matches_the_public_constructor(case):
    # construct() builds the child, and every dual, without an elimination
    seed, x, kind = case
    child = construct(seed, x, kind).child
    public = LinearCode(BitMatrix(seed.n + 2, child.gen.row_bits))
    assert _fields(child) == _fields(public)
    assert child.hull_dim() == public.hull_dim()
    for c in (seed, child):
        if c.k < c.n:
            assert _fields(c._dual_code) == _fields(LinearCode(gf2.nullspace_basis(c.gen)))


# construct() with kind IV's heads zeroed, so that the child's top row is
# x under two zero coordinates: the child rank check has to catch it.
DROPPED_HEADS = textwrap.dedent(
    """
    from hullforge import buildup
    from hullforge.buildup import ConstructionKind, construct
    from hullforge.code import LinearCode
    from hullforge.gf2 import BitVector

    seed = LinearCode.from_strings(%r)
    x = next(r for r in seed.gen.row_bits if r.bit_count() %% 2 == 0)
    buildup._HEADS[ConstructionKind.IV] = (0, 0, 2, 3)
    construct(seed, BitVector(seed.n, x), ConstructionKind.IV)
    """
    % SEED_10_6_3
)


def test_child_rank_check_catches_a_dependent_top_row(seed, monkeypatch):
    monkeypatch.setitem(buildup._HEADS, ConstructionKind.IV, (0, 0, 2, 3))
    x = next(r for r in seed.gen.row_bits if r.bit_count() % 2 == 0)
    with pytest.raises(ClaimViolationError, match=r"construction IV: child rank 6, not 7"):
        construct(seed, BitVector(seed.n, x), ConstructionKind.IV)


def test_child_rank_check_survives_optimization():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", DROPPED_HEADS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode != 0
    assert "ClaimViolationError: construction IV: child rank 6, not 7" in proc.stderr
