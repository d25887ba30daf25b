"""``DiffOperator`` on integer rows over one denominator against
``oracles.RatFuncOperator``, the operator on reduced ``RatFunc``
coefficients.

Every case builds both from the same coefficients: the zero operator, rank
0, a negative leading coefficient, coefficients over powers of x - c at
points with and without a denominator, over powers of x, or over a factor
vanishing elsewhere.  The product and power of polynomial operators,
equality, hashing, the text and every kernel must agree, a product with a
denominator must be refused, and each result must be in the unique form
(trimmed integer rows, gcd(content, d) = 1, a monic denominator coprime to
the rows).  Twists that cancel must give back a polynomial operator.
"""

import random
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest

from irrkatz.polys import UNIT, Poly, from_row, poly_gcd
from irrkatz.weylalg import (
    INF, _divide_out, ad_exp_raw, ad_power, euler, laplace, laplace_inv, prim, subst_infty,
    theta_expand, to_text,
)
from oracles import (
    RatFunc, RatFuncOperator, coeffs, divide_out_two_pass, int_rows, leading, op_neg, op_sum,
    operator, prim_by_gcd, rat_ad_exp_raw, rat_ad_power, rat_euler, rat_fourier, rat_prim,
    rat_text, subst_infinity, theta_expansion,
)

POINTS = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-3, 4)]


def _poly(rng: random.Random, top: int) -> Poly:
    return Poly([Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in range(top)])


def _coeffs(rng: random.Random, k: int, c: Fraction) -> list[RatFunc]:
    """By case number: zero, rank 0, a negative leading coefficient, poles
    at c, poles at 0, or poles at c and at a point elsewhere."""
    kind = k % 6
    if kind == 0:
        return []
    cs = [RatFunc(_poly(rng, rng.randint(0, 4))) for _ in range(1 if kind == 1 else rng.randint(2, 4))]
    lead = _poly(rng, rng.randint(1, 3)) or Poly([1])
    cs[-1] = RatFunc(-lead if (kind == 2) == (leading(lead) > 0) else lead)
    if kind in (3, 5):
        u = Poly([-c, 1])
        cs = [a / RatFunc(u ** rng.randint(0, 3)) for a in cs]
    if kind == 4:
        cs = [a / RatFunc(Poly.x(rng.randint(0, 3))) for a in cs]
    if kind == 5:
        cs = [a / RatFunc(Poly([rng.choice([3, -5]), 1])) if rng.random() < 0.4 else a for a in cs]
    return cs


def _pair(rng, k, c):
    cs = _coeffs(rng, k, c)
    return operator(cs), RatFuncOperator(cs)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _same(new, old) -> None:
    """``new`` holds ``old``'s coefficients, in the unique form."""
    if isinstance(new, str) or isinstance(old, str):
        assert new == old
        return
    assert coeffs(new) == old.coeffs
    assert to_text(new) == rat_text(old)
    rows, d, den = new._rows, new._d, new._den
    assert all(type(a) is int for a in chain(*rows)) and type(d) is int and d > 0
    assert all(row[-1] for row in rows if row) and (not rows or rows[-1])
    assert gcd(d, *chain(*rows)) == 1
    assert leading(den) == 1 and (den is UNIT) == (den.degree == 0) == old.is_polynomial()
    g = den
    for row in rows:
        if row and g.degree > 0:
            g = poly_gcd(g, Poly(row))
    assert g.degree == 0
    again = operator(old.coeffs)
    assert new == again and hash(new) == hash(again)


def test_operator_rows_match_the_ratfunc_oracle():
    refused = 0
    for k in range(600):
        rng = random.Random(k)
        c = POINTS[k % len(POINTS)]
        (p, fp), (q, fq) = _pair(rng, k, c), _pair(rng, k // 6 + rng.randint(0, 5), c)
        for new, old in ((op_sum(p, q), fp + fq), (op_sum(p, q, -1), fp - fq), (op_neg(p), -fp),
                         (p, fp)):
            _same(new, old)
        if p.is_polynomial() and q.is_polynomial():
            for new, old in ((p * q, fp * fq), (q * p, fq * fp), (p ** (k % 3), fp ** (k % 3))):
                _same(new, old)
            assert p * 1 == p
        else:
            # the pole cases: a product with a denominator is refused
            refused += 1
            for product in (lambda: p * q, lambda: q * p):
                with pytest.raises(ValueError, match="product needs polynomial coefficients"):
                    product()
        # the leading coefficient is a Poly, of polynomial operators only
        if p.is_polynomial() and p:
            lead = p.leading()
            assert type(lead) is Poly and lead == fp.coeffs[-1].as_poly()
        elif p:
            with pytest.raises(ValueError, match="operator with a denominator"):
                p.leading()
        back = op_sum(op_sum(p, q), q, -1)
        assert (p == q) == (fp == fq) and back == p and hash(back) == hash(p)
        assert op_sum(p, p, -1).is_zero()
        lam = Fraction(rng.randint(-7, 7), rng.choice([1, 2, 3]))
        w = {k: Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3))
             for k in rng.sample(range(1, 4), rng.randint(1, 3))}
        _same(_outcome(prim, p), _outcome(rat_prim, fp))
        _same(subst_infty(p), subst_infinity(fp))
        _same(ad_power(p, c, lam), rat_ad_power(fp, c, lam))
        for at in (c, INF):
            _same(ad_exp_raw(p, at, w), rat_ad_exp_raw(fp, at, w))
            assert _outcome(theta_expand, p, at) == _outcome(theta_expansion, fp, at), k
        for new, old in ((laplace, (-1, 1)), (laplace_inv, (1, -1))):
            _same(_outcome(new, p), _outcome(rat_fourier, fp, *old))
        if p.is_polynomial() and p:
            _same(euler(p, lam), rat_euler(fp, lam))
    assert 200 < refused < 500


def test_product_and_leading_refuse_a_denominator():
    poly = operator([Poly([1, 2]), Poly([0, 1])])          # x*D + 2*x + 1
    pole = operator([RatFunc(1, Poly([-1, 1])), 1])        # D + 1/(x - 1)
    for left, right in ((pole, poly), (poly, pole), (pole, pole), (pole, 1)):
        with pytest.raises(ValueError, match="product needs polynomial coefficients"):
            left * right
    with pytest.raises(ValueError, match="product needs polynomial coefficients"):
        pole ** 2
    assert pole ** 1 == pole and (pole ** 0).is_polynomial()
    lead = poly.leading()
    assert type(lead) is Poly and lead == Poly([0, 1])
    with pytest.raises(ValueError, match="operator with a denominator"):
        pole.leading()


def test_twists_that_cancel_give_back_the_polynomial_operator():
    for k in range(200):
        rng = random.Random(1000 + k)
        c = POINTS[k % len(POINTS)]
        p = operator(_coeffs(rng, 1 + k % 2, c))   # rank 0, or rank 1-3
        lam = Fraction(rng.randint(-7, 7) or 1, rng.choice([1, 2, 3]))
        other = c + 1
        for back in (ad_power(p, c, 0), ad_power(ad_power(p, c, lam), c, -lam)):
            assert back == p and back.is_polynomial(), k
            # a denominator left at c would not be Laurent at another point
            assert theta_expand(back, other) == theta_expand(p, other)
        w = {1: lam, 2: Fraction(1, 3)}
        twisted = ad_exp_raw(p, c, w)
        assert ad_exp_raw(twisted, c, {j: -v for j, v in w.items()}) == p


def test_prim_returns_primitive_input_itself():
    # prim skips the division when its input is already primitive; it must
    # agree with the gcd chain that always runs, and return its input
    # exactly when that input is primitive
    seen = set()
    for k in range(600):
        rng = random.Random(2000 + k)
        c = POINTS[k % len(POINTS)]
        p = operator(_coeffs(rng, 1 + k % 5, c))
        if k % 4 == 1:
            p = prim_by_gcd(p)                               # primitive
        elif k % 4 == 2:
            p = prim_by_gcd(p) * operator([Poly([-c, 1]) ** rng.randint(1, 2)])   # a common factor
        elif k % 4 == 3:
            p = prim_by_gcd(p) * Fraction(rng.choice([-1, 2, -3]), rng.choice([1, 5]))
        expected = prim_by_gcd(p)
        got = prim(p)
        _same(got, RatFuncOperator(coeffs(expected)))
        assert got == expected, k
        assert (got is p) == (expected == p), k
        seen.add(got is p)
    assert seen == {True, False}


def test_divide_out_matches_the_two_pass_form():
    # rows x^j * N_i with zero rows and trailing zeros, as the twists and
    # the chart at infinity leave them at 0; the bound `most` below, at and
    # above the common order
    cases = set()
    for k in range(400):
        rng = random.Random(3000 + k)
        j = rng.randint(0, 3)
        polys = [Poly.x(j) * _poly(rng, rng.randint(1, 4)) if rng.random() < 0.8 else Poly()
                 for _ in range(rng.randint(1, 4))]
        rows = [list(row) + [0] * rng.randint(0, 2) for row in int_rows(polys)[0]]
        most = rng.randint(0, j + 2)
        got_k, got = _divide_out(rows, most)
        want_k, want, want_d = divide_out_two_pass(rows, Fraction(0), most)
        assert got_k == want_k, k
        assert ([from_row(list(row)) for row in got]
                == [from_row(list(row), want_d) for row in want]), k
        cases.add((got_k == 0, got_k == most))
    assert {(True, False), (False, True), (False, False)} <= cases
