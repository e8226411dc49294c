"""The law record (identity, law text, legs, lhs, rhs) and its checks."""

import pytest

from homyd.exactlin import DimensionMismatch, LinearMap
from homyd.reports import FIELD_LEG, CheckReport, Witness, check_laws, check_matrix_equal, index_leg

#: two 1x4 maps that differ in column 3 only
A = LinearMap.from_rows([[1, 2, 3, 4]])
B = LinearMap.from_rows([[1, 2, 3, 5]])


def test_legs_that_do_not_span_the_columns_are_rejected_not_passed():
    # two legs of one basis vector each, or one of two, index only the
    # first column or two of four: the differing column 3 was never read
    for legs in ((("a", "b"),), (("a",), ("b",)), ()):
        rep = CheckReport("x")
        with pytest.raises(DimensionMismatch):
            check_matrix_equal(rep, "x", "law", A, B, legs)
        assert rep.items == []
    with pytest.raises(DimensionMismatch):
        check_matrix_equal(CheckReport("x"), "x", "law", A, A, (("a", "b", "c"),))


def test_the_witness_is_the_first_differing_column_labelled_by_the_legs():
    rep = CheckReport("x")
    assert check_matrix_equal(rep, "x", "law", A, B, (("a", "b"), ("p", "q"))) is False
    assert rep.items[0].witness == Witness((1, 1), ("b", "q"), (4,), (5,))


def test_an_index_leg_labels_the_witness_by_index():
    rep = CheckReport("x")
    check_matrix_equal(rep, "x", "law", A, B, (index_leg(4),))
    assert index_leg(3) == ("0", "1", "2")
    assert rep.items[0].witness == Witness((3,), ("3",), (4,), (5,))


def test_sides_of_different_shapes_fail_with_a_shape_witness():
    rep = CheckReport("x")
    assert check_matrix_equal(rep, "x", "law", A, LinearMap.from_rows([[1, 2, 3, 4], [0, 0, 0, 0]]),
                              (index_leg(4),)) is False
    assert rep.items[0].witness.labels == ("shape 1x4 vs 2x4",)


def test_check_laws_reports_each_record_in_order():
    one = LinearMap.identity(1)
    rep = check_laws("suite", (
        ("first", "holds", (FIELD_LEG,), one, one),
        ("second", "fails", (("a", "b"), ("p", "q")), A, B),
        ("third", "holds", (index_leg(4),), A, A),
    ))
    assert rep.suite == "suite" and rep.seed == 0
    assert [(it.identity, it.law, it.passed) for it in rep.items] == [
        ("first", "holds", True), ("second", "fails", False), ("third", "holds", True)]
    assert rep.items[1].witness.labels == ("b", "q")
