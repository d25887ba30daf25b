"""The row kernels of ``polys`` and ``weylalg`` against their ``Poly``
forms in ``oracles``: the Taylor shift, the order at a root, division by a
monomial, the theta expansion, the chart at infinity and the twists.  And
none of the first five builds a partial ``Poly`` on the pipeline's inputs."""

import random
from fractions import Fraction

from conftest import bench_texts, random_poly_op
from irrkatz import corpus
from irrkatz.polys import Poly
from irrkatz.weylalg import INF, DiffOperator, _shift_d, parse, subst_infty, theta_expand
from oracles import (
    RatFunc, coeffs, long_divmod, operator, order_at, shift_d, subst_infinity, taylor_shift,
    theta_expansion,
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
        assert _shift_d(p, g, k % 4, c) == shift_d(p, g, k % 4, c), k
        for a in coeffs(p):
            assert a.num.shift(c) == taylor_shift(a.num, c), k
        # a root of multiplicity 0-3 at c, the cofactor nonzero there or not
        h = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]) or Poly([1])
        rooted = Poly([-c, 1]) ** rng.randint(0, 3) * h
        assert rooted.order_at(c) == order_at(rooted, c), k
        # lead*x^d, d >= 0, the lead not always 1; zero and low-degree dividends
        divisor = Poly.monomial(rng.choice([1, -1, 3, Fraction(-2, 5)]), rng.randint(0, 4))
        for dividend in (Poly(), Poly([rng.randint(-3, 3)]), rooted, *(a.num for a in coeffs(p))):
            assert dividend.divmod(divisor) == long_divmod(dividend, divisor), k


def test_row_kernels_build_no_partial_polys(monkeypatch):
    ops = [corpus.instantiate(name) for name in corpus.names()]
    ops += [parse(text) for text in bench_texts("analyze_mix", "hyp_ladder")]
    roots = [p.leading().rational_roots() for p in ops]

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
            for divisor in (Poly.x(2), Poly.monomial(3, 1), Poly.monomial(Fraction(-1, 2), 0)):
                a.num.divmod(divisor)
