from fractions import Fraction

from hypothesis import given, strategies as st

from irrkatz.scalar import ParamExpr, parse_param_expr
from oracles import diff_in_integers, is_generically_integer

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


@given(rationals, st.one_of(rationals, st.integers(-50, 50)), exprs)
def test_constant_results_are_constructor_built(r1, r2, e):
    # constants take a path of their own: each result is the expression
    # the constructor builds, with a Fraction constant and its own terms
    c = ParamExpr(r1)
    results = [(c + r2, r1 + r2), (r2 + c, r1 + r2), (c - r2, r1 - r2), (r2 - c, r2 - r1),
               (-c, -r1), (c * r2, r1 * r2), (r2 * c, r1 * r2), (ParamExpr.of(r2), r2),
               (c + ParamExpr(r2), r1 + r2), (c - ParamExpr(r2), r1 - r2)]
    for got, value in results:
        built = ParamExpr(value)
        assert got == built and hash(got) == hash(built) and str(got) == str(built)
        assert type(got.const) is Fraction and got.terms == {}
    terms = [got.terms for got, _ in results]
    assert len({id(t) for t in terms}) == len(terms)
    # with terms on either side the sum is the symbolic one
    assert (c + e) - e == c and (e - c) + c == e and (c - e).terms == (-e).terms


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


def test_diff_in_integers_matches_the_general_path():
    # between constants the difference of the two constants is tested
    # directly; the general path builds e1 - e2 and asks whether it is an
    # integer for generic parameters
    values = [0, 3, -2, Fraction(1, 2), Fraction(-7, 3), Fraction(5, 3)]
    consts = values + [ParamExpr(v) for v in values]
    affine = [ParamExpr(v, terms) for v in values for terms in (
        {"a": 1}, {"a": Fraction(1, 2)}, {"a": 1, "b": -2}, {"b": 3})]
    cases = [(e1, e2) for e1 in consts + affine for e2 in consts + affine]
    cases += [(e + k, e) for e in affine for k in (0, 1, -4, Fraction(1, 3))]
    answers = set()
    for e1, e2 in cases:
        general = is_generically_integer(ParamExpr.of(e1) - ParamExpr.of(e2))
        assert diff_in_integers(e1, e2) == general, (e1, e2)
        answers.add((isinstance(e1, ParamExpr) and bool(e1.terms), general))
    # both answers, on constants and on affine expressions
    assert answers == {(False, False), (False, True), (True, False), (True, True)}


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
