import random
from fractions import Fraction

import pytest

from conftest import random_poly_op
from irrkatz import corpus
from irrkatz.polys import Poly, RatFunc, falling_factorial
from irrkatz.weylalg import (
    D,
    INF,
    DiffOperator,
    OperatorSyntaxError,
    X,
    ad_exp_raw,
    ad_power,
    char_poly,
    deg_of,
    euler,
    homogeneous_part,
    is_regular_singular,
    laplace,
    laplace_inv,
    newton_polygon,
    parse,
    prim,
    singular_points,
    subst_infty,
    theta_expand,
    to_text,
    weight,
)

ZERO = Fraction(0)


# -- parsing -----------------------------------------------------------------


def test_parse_examples():
    p = parse("x*D - 5")
    assert p.coeffs == (RatFunc(-5), RatFunc(Poly.x()))
    q = parse("D*x")
    assert q == X * D + 1          # commutation moved D to the right
    assert q.coeffs == (RatFunc(1), RatFunc(Poly.x()))
    tri = parse("D^2 + (-x^2-7)*D + (-2*x+3)")
    assert tri.rank == 2
    assert tri.coeff(0) == RatFunc(Poly([3, -2]))
    assert tri.coeff(1) == RatFunc(Poly([-7, 0, -1]))
    assert tri.coeff(2) == RatFunc(1)


def test_parse_errors_carry_position():
    with pytest.raises(OperatorSyntaxError) as err:
        parse("D^2 + )")
    assert err.value.pos == 6
    with pytest.raises(OperatorSyntaxError):
        parse("2 x")               # implicit multiplication
    with pytest.raises(OperatorSyntaxError):
        parse("x^(1/2)")
    with pytest.raises(OperatorSyntaxError):
        parse("1/x")


def test_reparse_round_trip():
    rng = random.Random(3)
    for _ in range(40):
        p = random_poly_op(rng)
        assert parse(to_text(p)) == p


def test_product_associative_and_commutation():
    rng = random.Random(4)
    for _ in range(30):
        a, b, c = (random_poly_op(rng, 2, 2) for _ in range(3))
        assert (a * b) * c == a * (b * c)
    assert X * D - D * X == DiffOperator.of(-1)


def test_apply():
    assert parse("x*D - 5").apply(RatFunc(Poly.x(5))).is_zero()
    assert parse("D^2").apply(RatFunc(Poly([0, 0, 1]))) == RatFunc(2)


# -- weights and homogeneous parts ---------------------------------------------


def test_weight_examples():
    assert weight(parse("x*D - 5"), ZERO) == 0
    assert weight(parse("x^2*D^2 + x*D"), ZERO) == 0
    tri = parse("D^2 + (-x^2-7)*D + (-2*x+3)")
    # oracle: enumerate monomials x^a D^b and take min of b - a
    expected = min(
        i - mono
        for i, coeff in enumerate(tri.coeffs)
        if not coeff.is_zero()
        for mono, cv in enumerate(coeff.as_poly().coeffs)
        if cv != 0
    )
    assert expected == -1
    assert weight(tri, INF) == expected


def test_homogeneous_part_examples():
    assert homogeneous_part(parse("x*D + 1"), ZERO, 0) == parse("x*D + 1")
    assert homogeneous_part(parse("x*D + x^2"), ZERO, 2) == parse("x^2")
    assert homogeneous_part(parse("x^2*D + D"), ZERO, -1) == parse("D")


def test_homogeneous_parts_sum_to_operator():
    rng = random.Random(5)
    for _ in range(20):
        p = random_poly_op(rng)
        # x^a D^b has weight a - b at 0 and b - a at infinity
        for at, lo, hi in ((ZERO, -p.rank - 1, deg_of(p)), (INF, -deg_of(p), p.rank)):
            total = DiffOperator()
            for k in range(lo, hi + 1):
                part = homogeneous_part(p, at, k)
                assert part.is_zero() or weight(part, at) == k
                total = total + part
            assert total == p


# -- characteristic polynomials ---------------------------------------------------


def test_char_poly_examples():
    assert char_poly(parse("x*D - 5"), ZERO) == Poly([-5, 1])
    # oracle: the falling-factorial expansion computed directly
    expected = falling_factorial(2) + 3 * falling_factorial(1) + Poly([1])
    assert char_poly(parse("x^2*D^2 + 3*x*D + 1"), ZERO) == expected
    heun = corpus.instantiate("Heun")
    c = corpus.get("Heun").defaults["c"]
    roots = char_poly(heun, ZERO).rational_roots()
    assert roots == {Fraction(0): 1, 1 - c: 1}


def test_is_regular_singular_examples():
    assert is_regular_singular(corpus.instantiate("Heun"), ZERO)
    assert not is_regular_singular(corpus.instantiate("cHeun"), INF)
    assert is_regular_singular(parse("x*D - 5"), ZERO)


def test_char_poly_degree_dichotomy_on_corpus():
    # degree is bounded by the rank, with equality exactly at regular
    # singular points
    for name in corpus.names():
        op = corpus.instantiate(name)
        for at in [INF] + singular_points(op):
            c = char_poly(op, at)
            assert c.degree <= op.rank
            assert (c.degree == op.rank) == is_regular_singular(op, at)


def test_char_poly_at_infinity_orientation():
    # solutions x^5 have exponent -5 at infinity
    assert char_poly(parse("x*D - 5"), INF).rational_roots() == {Fraction(-5): 1}


# -- Newton polygons -----------------------------------------------------------


def test_newton_polygon_examples():
    tri = parse("D^2 + (-x^2-7)*D + (-2*x+3)")
    np_tri = newton_polygon(tri, INF)
    assert set(np_tri.slopes) == {0, 3}
    a, b = np_tri.slope_edge(Fraction(3))
    assert (a[0], b[0]) == (1, 2)
    np_cheun = newton_polygon(corpus.instantiate("cHeun"), INF)
    assert set(np_cheun.slopes) == {0, 1}
    np_heun = newton_polygon(corpus.instantiate("Heun"), ZERO)
    assert np_heun.slopes == ()
    assert len(np_heun.vertices) == 1


def _weight_table(p, at):
    """{j: weight of the lowest monomial of a_j}, read off the coefficients
    directly: j - deg a_j at infinity, (lowest power of x - c) - j at c."""
    table = {}
    for j, a in enumerate(p.coeffs):
        if a.is_zero():
            continue
        if at is INF:
            table[j] = j - a.as_poly().degree
        else:
            table[j] = next(m for m, v in enumerate(a.as_poly().shift(at).coeffs) if v) - j
    return table


def _below(np, j, y):
    (i0, y0) = np.vertices[0]
    if j <= i0:
        return y < y0
    for (ia, ya), (ib, yb) in zip(np.vertices, np.vertices[1:]):
        if ia <= j <= ib:
            return y < ya + Fraction(yb - ya, ib - ia) * (j - ia)
    raise AssertionError(f"D-degree {j} lies right of the polygon")


def _check_polygon(p, at):
    table = _weight_table(p, at)
    wt = min(table.values())
    np = newton_polygon(p, at)
    assert weight(p, at) == wt
    assert all(a < b for a, b in zip(np.slopes, np.slopes[1:]))
    for k, (j, y) in enumerate(np.vertices):
        # a table point, or the inserted start of a horizontal edge
        assert table.get(j) == y or (k, j, y) == (0, 0, wt)
    assert not any(_below(np, j, y) for j, y in table.items())


def test_weight_and_polygon_at_infinity_oracle():
    rng = random.Random(12)
    for _ in range(60):
        _check_polygon(random_poly_op(rng, 4, 4), INF)


def test_newton_polygon_hull_at_finite_points():
    rng = random.Random(13)
    for _ in range(40):
        p = random_poly_op(rng, 4, 4)
        for c in (ZERO, Fraction(1), Fraction(-2)):
            # random valuations at c, so that the hull has several edges
            q = DiffOperator([a * RatFunc(Poly([-c, 1]) ** rng.randint(0, 6)) for a in p.coeffs])
            _check_polygon(q, c)


def test_newton_polygon_regular_rank():
    assert newton_polygon(parse("D - 1"), INF).regular_rank == 0
    assert newton_polygon(corpus.instantiate("dHeun"), ZERO).regular_rank == 1


# -- theta expansions -----------------------------------------------------------


def test_theta_expand_examples():
    assert theta_expand(parse("x*D - 5"), ZERO).terms == ((0, Poly([-5, 1])),)
    assert theta_expand(parse("D"), ZERO).terms == ((-1, Poly([0, 1])),)
    assert theta_expand(parse("x^2*D"), ZERO).terms == ((1, Poly([0, 1])),)


def test_theta_expand_reconstruction_oracle():
    rng = random.Random(6)
    for _ in range(20):
        p = random_poly_op(rng)
        for at in (ZERO, Fraction(2), INF):
            exp = theta_expand(p, at)
            assert exp.reconstruct() == p
            assert exp.term(exp.min_index) == char_poly(p, at)


# -- prim -------------------------------------------------------------------------


def test_prim_examples():
    assert prim(parse("2*x*D - 2")) == parse("x*D - 1")
    assert prim(parse("x^2*D - x")) == parse("x*D - 1")
    scaled = DiffOperator.of(RatFunc(1, Poly.x())) * parse("x*D - 5")
    assert prim(scaled) == parse("x*D - 5")


def test_prim_idempotent_and_unique():
    rng = random.Random(7)
    for _ in range(20):
        p = random_poly_op(rng)
        q = prim(p)
        assert prim(q) == q
        assert q.leading().as_poly().leading() == 1
        f = RatFunc(Poly([1, 3]), Poly([2, 0, 1]))
        assert prim(DiffOperator.of(f) * p) == q


# -- additions and exponential twists ------------------------------------------------


def test_ad_power_examples():
    assert ad_power(parse("x*D - 5"), ZERO, Fraction(2)) == parse("x*D - 7")
    assert char_poly(ad_power(parse("x*D - 5"), ZERO, Fraction(2)), ZERO) == Poly([-7, 1])
    twisted = ad_power(parse("D"), ZERO, Fraction(1))
    assert twisted == D - DiffOperator.of(RatFunc(1, Poly.x()))
    assert prim(twisted) == parse("x*D - 1")


def test_ad_power_char_poly_shift_property():
    rng = random.Random(8)
    for _ in range(50):
        p = random_poly_op(rng)
        lam = random_fraction_nonzero(rng)
        c = rng.choice([ZERO, Fraction(1), Fraction(-2)])
        shifted = char_poly(ad_power(p, c, lam), c)
        expected = char_poly(p, c).shift(-lam)
        assert shifted == expected
        assert weight(ad_power(p, c, lam), c) == weight(p, c)


def random_fraction_nonzero(rng):
    while True:
        f = Fraction(rng.randint(-8, 8), rng.randint(1, 7))
        if f:
            return f


def test_ad_exp_examples():
    assert ad_exp_raw(parse("D"), INF, {1: Fraction(7)}) == parse("D - 7")
    twisted = ad_exp_raw(parse("D"), ZERO, {1: Fraction(-3)})
    assert twisted == D + DiffOperator.of(RatFunc(Poly([3]), Poly([0, 0, 1])))


def test_ad_exp_inverse_pair():
    rng = random.Random(9)
    for _ in range(20):
        p = random_poly_op(rng)
        w = {1: random_fraction_nonzero(rng), 2: random_fraction_nonzero(rng)}
        at = rng.choice([ZERO, INF])
        back = ad_exp_raw(ad_exp_raw(p, at, w), at, {k: -v for k, v in w.items()})
        assert back == p


# -- Laplace ---------------------------------------------------------------------------


def test_laplace_examples():
    assert laplace(parse("D + x")) == parse("x - D")
    assert laplace(parse("x*D")) == parse("-x*D - 1")
    with pytest.raises(ValueError):
        laplace(DiffOperator.of(RatFunc(1, Poly.x())))


def test_laplace_inverse_round_trip():
    rng = random.Random(10)
    for _ in range(100):
        p = random_poly_op(rng)
        assert laplace_inv(laplace(p)) == p
        assert laplace(laplace_inv(p)) == p


# -- Euler transform and degrees -----------------------------------------------------


def test_euler_rank_formula_on_gauss():
    # d = deg Prim(P) - sum of moderate-factor multiplicities at infinity
    #     - first multiplicity = 2 - 2 - 1 = -1
    gauss = corpus.instantiate("Gauss")
    a = corpus.get("Gauss").defaults["a"]
    image = euler(gauss, 1 - a)
    assert gauss.rank == 2
    assert image.rank == 1
    assert deg_of(prim(gauss)) == 2


def test_euler_on_rank_one():
    # first-order sanity: the transform shifts the exponent at infinity
    p = parse("x*D - 1/3")
    q = prim(euler(p, Fraction(1, 2)))
    assert q.rank == 1
    assert char_poly(q, INF).rational_roots() == {Fraction(1, 6): 1}


def test_deg_of_examples():
    assert deg_of(parse("x*D - 5")) == 1
    assert deg_of(corpus.instantiate("Heun")) == 3


def test_degree_change_under_addition():
    # operator with moderate factor chains (0; 2) and (1/3; 1) at 0:
    # theta form t(t-1)(t-1/3) + x * t
    lam = Fraction(1, 3)
    theta = X * D
    p0 = theta * (theta - 1) * (theta - DiffOperator.of(lam))
    p = prim(p0 + X * theta)
    from irrkatz.formal import SpectralData, oshima_check

    char_roots = char_poly(p, ZERO).rational_roots()
    assert char_roots == {Fraction(0): 1, Fraction(1): 1, lam: 1}
    data = SpectralData([(Fraction(0), 2), (lam, 1)])
    assert oshima_check(theta_expand(p, ZERO), data)
    q = prim(ad_power(p, ZERO, -lam))
    assert deg_of(q) - deg_of(p) == 2 - 1


def test_divisibility_pattern_both_directions():
    # theta form with r = 0: x^-2 P is polynomial iff p_0 vanishes at 0, 1
    # and p_1 vanishes at 0
    theta = X * D

    def build(p0, p1, p2):
        def poly_at(q):
            acc = DiffOperator()
            for c in reversed(q.coeffs):
                acc = acc * theta + DiffOperator.of(c)
            return acc

        return poly_at(p0) + X * poly_at(p1) + X * X * poly_at(p2)

    good = build(falling_factorial(2), Poly([0, 1]), Poly([5]))
    assert all((c / RatFunc(Poly.x(2))).is_poly() for c in good.coeffs)
    bad1 = build(Poly([0, 1]) * Poly([-2, 1]), Poly([0, 1]), Poly([5]))
    assert not all((c / RatFunc(Poly.x(2))).is_poly() for c in bad1.coeffs)
    bad2 = build(falling_factorial(2), Poly([1, 1]), Poly([5]))
    assert not all((c / RatFunc(Poly.x(2))).is_poly() for c in bad2.coeffs)


# -- singular points ---------------------------------------------------------------------


def test_singular_points():
    assert singular_points(corpus.instantiate("Heun")) == [0, 1, 3]
    assert singular_points(parse("D^2 + x")) == []
    from irrkatz.weylalg import IrrationalSingularityError

    with pytest.raises(IrrationalSingularityError):
        singular_points(parse("(x^2 - 2)*D - 1"))


def test_subst_infty_involution():
    rng = random.Random(11)
    for _ in range(20):
        p = random_poly_op(rng)
        assert subst_infty(subst_infty(p)) == p
