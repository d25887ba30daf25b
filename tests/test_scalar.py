from fractions import Fraction

from hypothesis import given, strategies as st

from irrkatz.scalar import (
    ParamExpr,
    diff_in_integers,
    is_generically_integer,
    parse_param_expr,
)

rationals = st.fractions(max_denominator=40)
names = st.sampled_from(["a", "b", "c", "d"])
exprs = st.builds(
    ParamExpr,
    rationals,
    st.dictionaries(names, rationals, max_size=3),
)


@given(exprs, exprs, exprs)
def test_addition_associative_commutative(e1, e2, e3):
    assert (e1 + e2) + e3 == e1 + (e2 + e3)
    assert e1 + e2 == e2 + e1


@given(rationals, rationals)
def test_agrees_with_rational_arithmetic(r1, r2):
    assert (ParamExpr(r1) + ParamExpr(r2)).as_rat() == r1 + r2
    assert (ParamExpr(r1) - ParamExpr(r2)).as_rat() == r1 - r2
    assert (ParamExpr(r1) * r2).as_rat() == r1 * r2


@given(exprs, rationals)
def test_scaling_distributes(e, r):
    assert (e + e) == e * 2
    assert (e * r) - e == e * (r - 1)


def test_is_generically_integer_examples():
    assert is_generically_integer(ParamExpr(3))
    assert not is_generically_integer(ParamExpr(Fraction(1, 2)))
    assert not is_generically_integer(ParamExpr.param("a"))


def test_diff_in_integers_examples():
    a = ParamExpr.param("a")
    assert diff_in_integers(a, a + 2)
    assert not diff_in_integers(a, ParamExpr.param("b"))
    assert diff_in_integers(Fraction(1, 3), Fraction(4, 3))


@given(exprs, exprs)
def test_difference_predicate_symmetric(e1, e2):
    assert is_generically_integer(e1 - e2) == is_generically_integer(e2 - e1)


@given(exprs)
def test_text_round_trip(e):
    assert parse_param_expr(str(e), "e") == e


def test_text_examples():
    assert str(ParamExpr(Fraction(1, 2), {"c": -1})) == "1/2 - 1*c"
    assert parse_param_expr("1/2 - 1*c", "e") == ParamExpr(Fraction(1, 2), {"c": -1})
    assert str(ParamExpr(0, {"a": 1})) == "0 + 1*a"
    assert parse_param_expr("0 + 1*a", "e") == ParamExpr.param("a")
