"""The row kernels of ``polys`` and ``weylalg`` against their ``Poly``
forms in ``oracles``: the Taylor shift, the order at a root, division by a
monomial, the theta expansion, the chart at infinity and the twists, the
last also against their P_j built as ``Poly`` objects, the primitive
component and the translation of an operator, and the Lah numbers; the
theta expansion and the chart at infinity also against their forms with
one ``_add_product`` call per term.  A
twist at a point c runs at 0 between two translations, as ``ad_power`` and
``ad_exp_raw`` run it; the oracles twist at c itself.  And none of the
first five builds a partial ``Poly`` on the pipeline's inputs."""

import random
from fractions import Fraction
from math import comb, factorial

from conftest import bench_texts, random_fraction, random_poly_op
from irrkatz import corpus
from irrkatz.polys import Poly
from irrkatz.weylalg import (
    INF, DiffOperator, _lah, _shift_d, ad_exp_raw, ad_power, parse, prim, singular_points,
    subst_infty, theta_expand, translate,
)
from oracles import (
    RatFunc, coeffs, fraction_keys, long_divmod, operator, order_at, prim_by_gcd, shift_d,
    shift_d_by_polys, subst_infinity, subst_infty_by_products, taylor_shift,
    theta_expand_by_products, theta_expansion, translate_by_polys,
)


def _point(rng: random.Random, k: int) -> Fraction:
    """0, a nonzero integer or a non-integer rational, by case number."""
    if k % 3 == 0:
        return Fraction(0)
    if k % 3 == 1:
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Fraction(rng.choice([-7, -5, -1, 1, 3, 5]), rng.choice([2, 3, 4]))


def _operator(rng: random.Random, k: int, c: Fraction) -> DiffOperator:
    """The zero operator first; then a polynomial operator, or its
    coefficients over powers of x - c, or some of them over a pole
    elsewhere, which is not Laurent at c."""
    p = random_poly_op(rng, max_rank=4, max_deg=4) if k else operator()
    if k % 5 < 2:
        return p
    u = Poly([-c, 1])
    poles = [u ** rng.randint(0, 3) for _ in coeffs(p)]
    if k % 5 == 4:
        other = rng.choice([Poly([-c - 1, 1]), Poly([1, 0, 1])])
        poles = [q * other if rng.random() < 0.5 else q for q in poles]
    return operator([a / RatFunc(q) for a, q in zip(coeffs(p), poles)])


def _twist(p: DiffOperator, g: Poly, e: int, c: Fraction) -> DiffOperator:
    """The twist D -> D - g/(x-c)^e, run at 0: D - g(x+c)/x^e on the
    translate of ``p``, translated back."""
    return translate(_shift_d(translate(p, c), g.shift(c), e), -c)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_row_kernels_match_their_poly_oracles():
    for k in range(300):
        rng = random.Random(k)
        c = _point(rng, k)
        p = _operator(rng, k, c)
        assert subst_infty(p) == subst_infinity(p), k
        for at in (c, INF):
            assert _outcome(theta_expand, p, at) == _outcome(theta_expansion, p, at), k
        g = Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))])
        assert _twist(p, g, k % 4, c) == shift_d(p, g, k % 4, c), k
        for a in coeffs(p):
            assert a.num.shift(c) == taylor_shift(a.num, c), k
        # a root of multiplicity 0-3 at c, the cofactor nonzero there or not
        h = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]) or Poly([1])
        rooted = Poly([-c, 1]) ** rng.randint(0, 3) * h
        assert rooted.order_at(c) == order_at(rooted, c), k
        # lead*x^d, d >= 0, the lead not always 1; zero and low-degree dividends
        divisor = Poly([0] * rng.randint(0, 4) + [rng.choice([1, -1, 3, Fraction(-2, 5)])])
        for dividend in (Poly(), Poly([rng.randint(-3, 3)]), rooted, *(a.num for a in coeffs(p))):
            assert dividend.divmod(divisor) == long_divmod(dividend, divisor), k


def _common_factor(rng: random.Random, c: Fraction) -> Poly:
    """1, x^k, (x - c)^k, 2x + 3, or a product of them (k = 1, 2)."""
    f = Poly([1])
    for g in (Poly.x(1), Poly([-c, 1]), Poly([3, 2])):
        if rng.random() < 0.5:
            f = f * g ** rng.randint(1, 2)
    return f


def test_prim_and_translate_match_their_poly_oracles():
    # rows with a common factor, integer content, a negative lead and zero
    # rows; the same with the denominators x^k and (x - c)^k of the twists;
    # points a/b with b up to 10^6.  Operators compare as their fields
    # _rows, _d and _den, the normal form
    gcds = set()
    for k in range(400):
        rng = random.Random(7000 + k)
        c = _point(rng, k) if k % 2 else Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        f = _common_factor(rng, c)
        scale = rng.choice([1, -1, 6, -10, Fraction(3, 7)])
        nums = [Poly() if rng.random() < 0.2 else scale * f * a.num
                for a in coeffs(random_poly_op(rng, max_rank=4, max_deg=3))]
        p = operator(nums if any(nums) else [f])
        lam, w = random_fraction(rng) or Fraction(1, 2), random_fraction(rng) or Fraction(-1, 3)
        for q in (p, ad_power(p, c, lam), ad_power(p, Fraction(0), lam), ad_exp_raw(p, c, {1: w}),
                  ad_exp_raw(p, c, {1: w, 2: lam})):
            expected = prim_by_gcd(q)
            assert prim(q) == expected, k
            gcds.add(len(q._rows[-1]) - len(expected._rows[-1]))
            for at in (c, -c, Fraction(1, 3)):
                assert translate(q, at) == translate_by_polys(q, at), (k, at)
    # prim took factors of every degree from 0 to 6 off the leading row
    assert set(range(7)) <= gcds, gcds


def test_lah_numbers_expand_the_chart_derivative():
    # (x^2 D)^i = sum_k L(i, k) x^(i+k) D^k, L(i, k) = C(i-1, k-1) i!/k!
    for i in range(1, 9):
        terms = " + ".join(f"{_lah(i, k)}*x^{i + k}*D^{k}" for k in range(1, i + 1))
        assert parse("x^2*D") ** i == parse(terms), i
    for i in range(1, 40):
        for k in range(1, i + 1):
            assert _lah(i, k) == comb(i - 1, k - 1) * Fraction(factorial(i), factorial(k)), (i, k)


#: Denominators of the ladder parameters: rank n reads the first 2n - 1.
PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def _hypergeometric(n: int, kummer: bool) -> DiffOperator:
    """nF(n-1), or the Kummer operator with n - 1 parameters a_i, from text:
    theta * prod(theta + b_j - 1) - x * prod(theta + a_i), made primitive."""
    a = [Fraction(k + 1, PRIMES[k]) for k in range(n - kummer)]
    b = [Fraction(1, PRIMES[n + k]) for k in range(n - 1)]
    left = "".join(f"*(x*D + ({bj - 1}))" for bj in b)
    right = "".join(f"*(x*D + ({ai}))" for ai in a)
    return prim(parse(f"x*D{left} - x{right}"))


def test_shift_d_matches_the_poly_recurrence():
    # the twists of ad_power (g = lam, e = 1) and ad_exp_raw (e = 2 and 3 at
    # a finite point, e = 0 at infinity) at every singular point and at 1/3,
    # on the corpus at seeds 0-40 and on nF(n-1) and Kummer for n = 2..8
    ops = [prim(corpus.instantiate(name, corpus.params_for(name, seed)))
           for name in corpus.names() for seed in range(41)]
    ops += [_hypergeometric(n, kummer) for kummer in (False, True) for n in range(2, 9)]
    twists = 0
    for k, p in enumerate(ops):
        lam, w1, w2 = Fraction(2 * k + 1, 5), Fraction(k + 1, 3), Fraction(-1, k + 2)
        cases = [(ad_exp_raw(p, INF, {1: w1, 2: w2}), Poly([w1, w2]), 0, Fraction(0))]
        for c in [*singular_points(p), Fraction(1, 3)]:
            cases += [(ad_power(p, c, lam), Poly.const(lam), 1, c),
                      (ad_exp_raw(p, c, {1: w1}), Poly.const(w1), 2, c),
                      (ad_exp_raw(p, c, {1: w1, 2: w2}), w1 * Poly([-c, 1]) + w2, 3, c)]
        for got, g, e, c in cases:
            assert got == shift_d_by_polys(p, g, e, c), (k, e, c)
            twists += 1
    assert twists > 2000, twists
    # random points a/b, e = 0..4, g of degree up to 3 (or zero), on the
    # operators of the kernel test above, rational coefficients included
    for k in range(400):
        rng = random.Random(k)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        p = _operator(rng, k, c)
        g = Poly([random_fraction(rng) for _ in range(rng.randint(0, 4))])
        assert _twist(p, g, k % 5, c) == shift_d_by_polys(p, g, k % 5, c), k


def test_row_kernels_build_no_partial_polys(monkeypatch):
    ops = [corpus.instantiate(name) for name in corpus.names()]
    ops += [parse(text) for text in bench_texts("analyze_mix", "hyp_ladder")]
    roots = [fraction_keys(p.leading().rational_roots()) for p in ops]

    def refuse(*args):
        raise AssertionError("a Poly sum or product")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Poly, name, refuse)
    for p, lead_roots in zip(ops, roots):
        subst_infty(p)
        for at in [INF, Fraction(1, 3), *lead_roots]:
            theta_expand(p, at)
        lead = p.leading()
        for root, mult in lead_roots.items():
            assert lead.order_at(root) == mult
        for a in coeffs(p):
            for c in (Fraction(-2), Fraction(1, 3), *lead_roots):
                a.num.shift(c)
            for divisor in (Poly.x(2), Poly([0, 3]), Poly([Fraction(-1, 2)])):
                a.num.divmod(divisor)


def test_theta_expand_and_subst_infty_match_their_per_term_forms():
    # the kernels that add each falling factorial and each Lah term inline,
    # against the forms with one _add_product call per term and the chart's
    # denominator in Poly arithmetic, on seeded operators: polynomial ones,
    # and the outputs of ad_power and ad_exp_raw, whose denominators are
    # x^k at 0 and (x - c)^k at another point c
    rng = random.Random(39)
    rational = 0
    for k in range(300):
        p = random_poly_op(rng)
        c = Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))
        lam, w = random_fraction(rng) or 1, {1: random_fraction(rng) or 1, 2: random_fraction(rng)}
        for q in (p, ad_power(p, Fraction(0), lam), ad_power(p, c, lam),
                  ad_exp_raw(p, Fraction(0), w), ad_exp_raw(p, c, w), ad_exp_raw(p, INF, w)):
            rational += not q.is_polynomial()
            got, want = subst_infty(q), subst_infty_by_products(q)
            assert (got._rows, got._d, got._den) == (want._rows, want._d, want._den), k
            for at in (Fraction(0), c, INF):
                got = _outcome(theta_expand, q, at)
                assert got == _outcome(theta_expand_by_products, q, at), (k, at)
    assert rational > 700, rational
