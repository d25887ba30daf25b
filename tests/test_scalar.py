from fractions import Fraction

from hypothesis import given, strategies as st

from irrkatz.scalar import ParamExpr, parse_param_expr
from conftest import outcome
from oracles import RefParamExpr, diff_in_integers, is_generically_integer

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
    # on constants each result, whichever path built it, is the expression
    # the constructor builds, and it reads a Fraction constant and a terms
    # map of its own
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


def _differ_by_an_integer(e1, e2) -> bool:
    """The predicate from the values: constants differ by an integer when
    their ``Fraction`` difference has denominator 1; affine expressions
    when their term maps are equal and the difference of their constants
    is an integer."""
    e1, e2 = (e if isinstance(e, ParamExpr) else ParamExpr(e) for e in (e1, e2))
    return e1.terms == e2.terms and (e1.const - e2.const).denominator == 1


def test_diff_in_integers_matches_the_predicate_from_the_values():
    values = [0, 3, -2, Fraction(1, 2), Fraction(-7, 3), Fraction(5, 3)]
    consts = values + [ParamExpr(v) for v in values]
    affine = [ParamExpr(v, terms) for v in values for terms in (
        {"a": 1}, {"a": Fraction(1, 2)}, {"a": 1, "b": -2}, {"b": 3})]
    cases = [(e1, e2) for e1 in consts + affine for e2 in consts + affine]
    cases += [(e + k, e) for e in affine for k in (0, 1, -4, Fraction(1, 3))]
    answers = set()
    for e1, e2 in cases:
        expected = _differ_by_an_integer(e1, e2)
        assert diff_in_integers(e1, e2) == expected, (e1, e2)
        answers.add((isinstance(e1, ParamExpr) and bool(e1.terms), expected))
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


# -- against the Fraction-based reference ------------------------------------------

# denominators with no common factor, so that a common denominator is an lcm
coprime = st.builds(Fraction, st.integers(-60, 60), st.sampled_from([1, 2, 3, 5, 7, 11, 49, 121]))
values = st.one_of(rationals, coprime)
parts = st.tuples(values, st.dictionaries(names, values, max_size=3))
scalars = st.one_of(st.integers(-9, 9), values)


def assert_same(new, ref):
    """``new``, a ParamExpr, holds the value of ``ref``, a RefParamExpr."""
    assert isinstance(new, ParamExpr), new
    assert new.const == ref.const and new.terms == ref.terms
    assert type(new.const) is Fraction and all(type(c) is Fraction for c in new.terms.values())
    assert str(new) == str(ref) and new.is_zero() == ref.is_zero()
    assert outcome(new.as_rat) == outcome(ref.as_rat)


@given(parts, parts, scalars)
def test_integer_form_matches_the_fraction_reference(p1, p2, k):
    e1, e2 = ParamExpr(*p1), ParamExpr(*p2)
    r1, r2 = RefParamExpr(*p1), RefParamExpr(*p2)
    assert_same(e1, r1)
    assert_same(e1 + e2, r1 + r2)
    assert_same(e1 - e2, r1 - r2)
    assert_same(-e1, -r1)
    assert_same(e1 + k, r1 + k)
    assert_same(k + e1, k + r1)
    assert_same(e1 - k, r1 - k)
    assert_same(k - e1, k - r1)
    assert_same(e1 * k, r1 * k)
    assert_same(k * e1, k * r1)
    assert_same(ParamExpr.of(k), RefParamExpr.of(k))
    # equality against ints, Fractions and expressions, and equal values hash equal
    for other_new, other_ref in ((k, k), (p1[0], p1[0]), (e2, r2), (e1 + 0, r1 + 0)):
        assert (e1 == other_new) == (r1 == other_ref)
    same = (e1 + e2) - e2
    assert same == e1 and hash(same) == hash(e1)
    assert parse_param_expr(str(e1), "e") == e1


@given(parts)
def test_as_pair_reads_the_reduced_constant(p):
    e = ParamExpr(*p)
    if not e.terms:
        n, d = e.as_pair()
        assert (n, d) == (e.as_rat().numerator, e.as_rat().denominator)
    else:
        assert outcome(e.as_pair) == outcome(RefParamExpr(*p).as_rat)


@given(parts, parts)
def test_residue_key_is_shared_exactly_by_integer_differences(p1, p2):
    e1, e2 = ParamExpr(*p1), ParamExpr(*p2)
    for other in (e2, e1 + 3, e1 - 1, e1 + Fraction(1, 2)):
        assert (e1.residue_key() == other.residue_key()) == _differ_by_an_integer(e1, other)
