import importlib.util
import random
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from conftest import random_poly_op
from test_katz_forward import forward_draws
from test_reduce import ladder
from irrkatz import corpus
from irrkatz.formal import _edge_polynomial
from irrkatz.polys import UNIT, Poly, falling_factorial
from irrkatz.weylalg import (
    D,
    INF,
    DiffOperator,
    OperatorSyntaxError,
    ThetaExpansion,
    X,
    ad_exp_raw,
    ad_power,
    char_poly,
    euler,
    is_regular_singular,
    laplace,
    laplace_inv,
    local_chart,
    newton_polygon,
    parse,
    prim,
    singular_points,
    subst_infty,
    theta_expand,
    to_text,
    translate,
)
from oracles import (
    RatFunc, apply, coeffs, deg_of, leading, leibniz_product, op_neg, op_sum, operator,
    operator_of, subst_inverse,
)

ZERO = Fraction(0)


# -- parsing -----------------------------------------------------------------


def test_parse_examples():
    p = parse("x*D - 5")
    assert coeffs(p) == (RatFunc(-5), RatFunc(Poly.x()))
    q = parse("D*x")
    assert q == op_sum(X * D, 1)   # commutation moved D to the right
    assert coeffs(q) == (RatFunc(1), RatFunc(Poly.x()))
    tri = parse("D^2 + (-x^2-7)*D + (-2*x+3)")
    assert tri.rank == 2
    assert coeffs(tri) == (RatFunc(Poly([3, -2])), RatFunc(Poly([-7, 0, -1])), RatFunc(1))


def test_constructor_refuses_and_names_the_builders():
    # operators come from parse, X, D, DiffOperator.of and the transforms;
    # the class itself builds no half-made value
    for args in [(), ([1],), (parse("D"),)]:
        with pytest.raises(TypeError, match=r"^DiffOperator has no public constructor: "
                           r"build operators with parse, X, D and DiffOperator\.of$"):
            DiffOperator(*args)
    assert DiffOperator.of(Fraction(1, 2)) == parse("1/2")
    assert (X * D).rank == 1


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


def test_parse_deep_nesting_is_a_syntax_error():
    for opening, closing in (("(", ")"), ("-", ""), ("+", "")):
        text = opening * 10000 + "x*D" + closing * 10000
        with pytest.raises(OperatorSyntaxError, match="nested too deeply") as err:
            parse(text)
        # the position of the opener that crosses the nesting bound
        assert text[err.value.pos] == opening
    # moderate nesting still parses
    assert parse("(" * 20 + "x*D" + ")" * 20) == parse("-" * 20 + "x*D") == parse("x*D")
    with pytest.raises(OperatorSyntaxError, match=r"more than 4300 digits \(at position 4\)"):
        parse("D - 1/" + "3" * 4301)


def test_powers_square_and_multiply_from_the_base(monkeypatch):
    rng = random.Random(16)
    ops = [random_poly_op(rng, max_rank=2, max_deg=2) for _ in range(3)]
    polys = [Poly([rng.randint(-4, 4) for _ in range(3)]) for _ in range(3)] + [Poly()]
    products = []
    mul = DiffOperator.__mul__

    def counted(self, other):
        products.append(1)
        return mul(self, other)

    for n in range(10):
        for q in polys:
            repeated = Poly.const(1)
            for _ in range(n):
                repeated = repeated * q
            assert q ** n == repeated
        for p in ops:
            repeated = DiffOperator.of(1)
            for _ in range(n):
                repeated = repeated * p
            monkeypatch.setattr(DiffOperator, "__mul__", counted)
            products.clear()
            assert p ** n == repeated
            monkeypatch.setattr(DiffOperator, "__mul__", mul)
            # (bit_length(n) - 1) squarings and (popcount(n) - 1) products
            # by p, none after the top bit; p**0 is 1 without a product
            assert len(products) == (n.bit_length() + bin(n).count("1") - 2 if n else 0)


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
    assert op_sum(X * D, D * X, -1) == DiffOperator.of(-1)


def _check_product(p, q) -> bool:
    """``p * q`` equals the Leibniz oracle when both are polynomial, and is
    refused otherwise; True when it was refused."""
    if p.is_polynomial() and q.is_polynomial():
        assert p * q == leibniz_product(p, q)
        return False
    with pytest.raises(ValueError, match="product needs polynomial coefficients"):
        p * q
    return True


def test_product_matches_the_leibniz_oracle():
    rng = random.Random(20)
    points = (ZERO, Fraction(1), Fraction(-2))
    refused = 0
    for n in range(300):
        case = n % 6
        size = 2 if case in (1, 2, 3) else 3
        p, q = random_poly_op(rng, size, size), random_poly_op(rng, size, size)
        if case == 1:     # poles at one shared point
            c = points[n % 3]
            p, q = _with_poles(rng, p, c), _with_poles(rng, q, c)
        elif case == 2:   # poles at distinct points
            p, q = _with_poles(rng, p, points[n % 3]), _with_poles(rng, q, points[(n + 1) % 3])
        elif case == 3:   # poles on one side
            p, q = (_with_poles(rng, p, ZERO), q) if n % 4 == 1 else (p, _with_poles(rng, q, ZERO))
        elif case == 4:   # the zero operator on either side
            p, q = (operator(), q) if n % 12 == 4 else (p, operator())
        refused += _check_product(p, q)
        # rank-0 scalars and functions on either side, and powers
        f = RatFunc(Poly([rng.randint(-3, 3), 1]), Poly([-points[n % 3], 1]) ** rng.randint(0, 2))
        s = (random_fraction_nonzero(rng), rng.randint(-3, 3), f.num, f)[n % 4]
        if n % 4 < 2 and p.is_polynomial():
            assert p * s == leibniz_product(p, s)   # a scalar on the right
        refused += _check_product(p, operator_of(s)) + _check_product(operator_of(s), p)
        if n % 4 == 0:
            u = Poly([-points[n % 3], 1]) ** (n % 8 // 4)
            r = operator([a / RatFunc(u) for a in coeffs(random_poly_op(rng, 2, 2))])
            repeated = DiffOperator.of(1)
            for k in range(4):
                if r.is_polynomial() or k < 2:
                    assert r ** k == repeated
                else:
                    with pytest.raises(ValueError, match="product needs polynomial coefficients"):
                        r ** k
                repeated = leibniz_product(r, repeated)
    assert refused > 100


def _bench_workloads():
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    if not path.is_file():
        pytest.skip("no bench/ in this checkout")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parse_matches_the_leibniz_oracle_on_bench_and_corpus_texts(monkeypatch):
    workloads = _bench_workloads()
    texts = [
        corpus._subst(corpus.get(name).template, corpus.params_for(name, seed))
        for name in corpus.names()
        for seed in range(41)
    ]
    for seed in range(41):
        for name in ("analyze_mix", "hyp_ladder"):
            texts += [inst["op"] for inst in next(workloads.GENERATORS[name](seed))]
    parsed = [to_text(parse(text)) for text in texts]
    monkeypatch.setattr(DiffOperator, "__mul__", leibniz_product)
    assert parsed == [to_text(parse(text)) for text in texts]


def test_apply():
    assert apply(parse("x*D - 5"), RatFunc(Poly.x(5))).is_zero()
    assert apply(parse("D^2"), RatFunc(Poly([0, 0, 1]))) == RatFunc(2)


def test_functions_and_scalars_on_the_left_of_an_operator():
    # an operator multiplies only operators, ints and Fractions on its
    # right; a function or scalar on its left is refused
    x = Poly([0, 1])
    f, g = Poly([1, 1]), RatFunc(1, x)
    for p in (D, parse("x*D^2 - 3"), operator()):
        for h in (f, g, 3, Fraction(-2, 5)):
            with pytest.raises(TypeError):
                h * p
        for h in (f, g):
            with pytest.raises(TypeError):
                p * h
    with pytest.raises(TypeError):
        g / D
    # scalars on either side of a function, as before
    assert f + g == g + f == RatFunc(Poly([1, 1, 1]), x)
    for c in (3, Fraction(-2, 5)):
        assert c * f == f * c == Poly([c, c])
        assert c + f == f + c == Poly([1 + c, 1])
        assert (c - f, f - c) == (Poly([c - 1, -1]), Poly([1 - c, 1]))
        assert c * g == g * c == RatFunc(c, x)
        assert c + g == g + c == RatFunc(Poly([1, c]), x)
        assert (c - g, g - c) == (RatFunc(Poly([-1, c]), x), RatFunc(Poly([1, -c]), x))
        assert (c / g, g / c) == (RatFunc(Poly([0, c])), RatFunc(Fraction(1) / c, x))


def _padded_sum(p, q):
    """The sum position by position, the shorter operand padded with zeros."""
    a, b = coeffs(p), coeffs(q)
    zero = (RatFunc(0),) * abs(len(a) - len(b))
    return operator([x + y for x, y in zip(a + zero, b + zero)])


def test_sums_of_unequal_length_match_the_padded_sum():
    rng = random.Random(16)
    pole = RatFunc(1, Poly([-1, 1]))
    for _ in range(100):
        p, q = random_poly_op(rng, 5), random_poly_op(rng, 2)
        if rng.random() < 0.5:
            q = operator([a * pole for a in coeffs(q)])
        # cancel's top coefficients cancel against p's, down to q
        cancel = _padded_sum(q, op_neg(p))
        for x, y in ((p, q), (q, p), (p, cancel), (cancel, p), (p, op_neg(p)), (p, operator())):
            assert op_sum(x, y) == _padded_sum(x, y)
            assert op_sum(x, y, -1) == _padded_sum(x, op_neg(y))
        assert op_sum(p, cancel) == q
        for c in (0, 3, Fraction(-2, 7), Poly([1, 1]), pole):
            assert op_sum(p, c) == op_sum(c, p) == _padded_sum(p, operator_of(c))


# -- weights and homogeneous parts ---------------------------------------------


def test_weight_examples():
    assert theta_expand(parse("x*D - 5"), ZERO).min_index == 0
    assert theta_expand(parse("x^2*D^2 + x*D"), ZERO).min_index == 0
    tri = parse("D^2 + (-x^2-7)*D + (-2*x+3)")
    # oracle: enumerate monomials x^a D^b and take min of b - a
    expected = min(
        i - mono
        for i, coeff in enumerate(coeffs(tri))
        if not coeff.is_zero()
        for mono, cv in enumerate(coeff.as_poly().coeffs)
        if cv != 0
    )
    assert expected == -1
    assert theta_expand(tri, INF).min_index == expected


def test_homogeneous_part_examples():
    assert _homogeneous_part(theta_expand(parse("x*D + 1"), ZERO), 0) == parse("x*D + 1")
    assert _homogeneous_part(theta_expand(parse("x*D + x^2"), ZERO), 2) == parse("x^2")
    assert _homogeneous_part(theta_expand(parse("x^2*D + D"), ZERO), -1) == parse("D")


def test_homogeneous_parts_sum_to_operator():
    rng = random.Random(5)
    for _ in range(20):
        p = random_poly_op(rng)
        # x^a D^b has weight a - b at 0 and b - a at infinity
        for at, lo, hi in ((ZERO, -p.rank - 1, deg_of(p)), (INF, -deg_of(p), p.rank)):
            total = operator()
            exp = theta_expand(p, at)
            for k in range(lo, hi + 1):
                part = _homogeneous_part(exp, k)
                assert part.is_zero() or theta_expand(part, at).min_index == k
                total = op_sum(total, part)
            assert total == p


# -- characteristic polynomials ---------------------------------------------------


def test_char_poly_examples():
    assert char_poly(theta_expand(parse("x*D - 5"), ZERO)) == Poly([-5, 1])
    # oracle: the falling-factorial expansion computed directly
    expected = falling_factorial(2) + 3 * falling_factorial(1) + Poly([1])
    assert char_poly(theta_expand(parse("x^2*D^2 + 3*x*D + 1"), ZERO)) == expected
    heun = corpus.instantiate("Heun")
    c = corpus.get("Heun").defaults["c"]
    roots = char_poly(theta_expand(heun, ZERO)).rational_roots()
    assert roots == {(0, 1): 1, ((1 - c).numerator, (1 - c).denominator): 1}


def test_is_regular_singular_examples():
    assert is_regular_singular(theta_expand(corpus.instantiate("Heun"), ZERO))
    assert not is_regular_singular(theta_expand(corpus.instantiate("cHeun"), INF))
    assert is_regular_singular(theta_expand(parse("x*D - 5"), ZERO))


def test_char_poly_degree_dichotomy_on_corpus():
    # degree is bounded by the rank, with equality exactly at regular
    # singular points
    for name in corpus.names():
        op = corpus.instantiate(name)
        for at in [INF] + singular_points(op):
            exp = theta_expand(op, at)
            c = char_poly(exp)
            assert c.degree <= op.rank
            assert (c.degree == op.rank) == is_regular_singular(exp)


def test_char_poly_at_infinity_orientation():
    # solutions x^5 have exponent -5 at infinity
    assert char_poly(theta_expand(parse("x*D - 5"), INF)).rational_roots() == {(-5, 1): 1}


# -- Newton polygons -----------------------------------------------------------


def test_newton_polygon_examples():
    tri = parse("D^2 + (-x^2-7)*D + (-2*x+3)")
    np_tri = newton_polygon(theta_expand(tri, INF))
    assert set(np_tri.slopes) == {0, 3}
    a, b = np_tri.slope_edge(Fraction(3))
    assert (a[0], b[0]) == (1, 2)
    np_cheun = newton_polygon(theta_expand(corpus.instantiate("cHeun"), INF))
    assert set(np_cheun.slopes) == {0, 1}
    np_heun = newton_polygon(theta_expand(corpus.instantiate("Heun"), ZERO))
    assert np_heun.slopes == ()
    assert len(np_heun.vertices) == 1


def _weight_table(p, at):
    """{j: weight of the lowest monomial of a_j}, read off the coefficients
    directly: j - deg a_j at infinity, (lowest power of x - c) - j at c."""
    table = {}
    for j, a in enumerate(coeffs(p)):
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
    exp = theta_expand(p, at)
    np = newton_polygon(exp)
    assert exp.min_index == wt
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
            q = operator([a * RatFunc(Poly([-c, 1]) ** rng.randint(0, 6)) for a in coeffs(p)])
            _check_polygon(q, c)


def test_newton_polygon_regular_rank():
    assert newton_polygon(theta_expand(parse("D - 1"), INF)).regular_rank == 0
    assert newton_polygon(theta_expand(corpus.instantiate("dHeun"), ZERO)).regular_rank == 1


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
            assert _horner_reconstruct(exp) == p
            assert exp.term(exp.min_index) == _laurent_char_poly(p, at)


# -- the Laurent-coefficient oracle ------------------------------------------------
#
# The local invariants as they were computed before the theta expansion
# became their only source: each reads single Laurent coefficients of the
# operator's coefficients, by a Taylor shift and a series division.  The
# series division also expands coefficients with poles away from the
# point, which theta_expand refuses.


def _laurent_coeff(f: RatFunc, c: Fraction, k: int) -> Fraction:
    """Coefficient of (x-c)^k in the Laurent expansion of f at x = c."""
    if f.is_zero():
        return Fraction(0)
    num = f.num.shift(c)
    den = f.den.shift(c)
    dord = den.order_at(Fraction(0))
    den = Poly(den.coeffs[dord:])
    # series of num/den up to order k + dord, den now a unit at 0
    need = k + dord
    if need < 0:
        return Fraction(0)
    series = [Fraction(0)] * (need + 1)
    inv0 = 1 / den.coeffs[0]
    for j in range(need + 1):
        acc = num[j]
        for i in range(1, j + 1):
            acc -= den[i] * series[j - i]
        series[j] = acc * inv0
    return series[need]


def _chart(p: DiffOperator, at) -> tuple[DiffOperator, Fraction]:
    """The operator and point the oracle expands: the chart ``subst_infty``
    at 0 for infinity, ``p`` itself at a finite point."""
    return (subst_infty(p), ZERO) if at is INF else (p, at)


def _laurent_weights(p: DiffOperator, c: Fraction) -> dict[int, int]:
    """{j: ord_c(a_j) - j} over the nonzero coefficients."""
    return {
        j: a.num.order_at(c) - a.den.order_at(c) - j
        for j, a in enumerate(coeffs(p))
        if not a.is_zero()
    }


def _laurent_char_poly(p: DiffOperator, at) -> Poly:
    q, c = _chart(p, at)
    wt = min(_laurent_weights(q, c).values())
    out = Poly()
    for j, a in enumerate(coeffs(q)):
        gamma = _laurent_coeff(a, c, wt + j)
        if gamma != 0:
            out = out + gamma * falling_factorial(j)
    return out


def _laurent_homogeneous_part(p: DiffOperator, at, k: int) -> DiffOperator:
    q, c = _chart(p, at)
    base = Poly([-c, 1])
    out = []
    for i, a in enumerate(coeffs(q)):
        # monomial (x-c)^(k+i) D^i
        gamma = _laurent_coeff(a, c, k + i)
        if gamma == 0:
            out.append(RatFunc(0))
        elif k + i >= 0:
            out.append(RatFunc(Poly.const(gamma) * base ** (k + i)))
        else:
            out.append(RatFunc(Poly.const(gamma), base ** (-k - i)))
    part = operator(out)
    return subst_infty(part) if at is INF else part


def _laurent_newton_polygon(p: DiffOperator, at) -> tuple:
    """(vertices, slopes) by the monotone-chain hull over the weight table."""
    pts = _laurent_weights(*_chart(p, at))
    wt = min(pts.values())
    i0 = max(i for i, y in pts.items() if y == wt)
    vertices = [(i0, wt)]
    for i in sorted(k for k in pts if k > i0):
        y = pts[i]
        while len(vertices) >= 2:
            (i1, y1), (i2, y2) = vertices[-2], vertices[-1]
            if (y2 - y1) * (i - i1) >= (y - y1) * (i2 - i1):
                vertices.pop()
            else:
                break
        vertices.append((i, y))
    if len(vertices) >= 2 and vertices[0][0] > 0:
        vertices.insert(0, (0, wt))
    slopes = tuple(
        Fraction(vertices[k + 1][1] - vertices[k][1], vertices[k + 1][0] - vertices[k][0])
        for k in range(len(vertices) - 1)
    )
    return tuple(vertices), slopes


def _laurent_edge_polynomial(q: DiffOperator, c: Fraction, np, slope: Fraction) -> Poly:
    (ia, ya), (ib, _) = np.slope_edge(slope)
    out = []
    for i in range(ia, ib + 1):
        y = ya + slope * (i - ia)
        a_i = coeffs(q)[i]
        if a_i.is_zero() or y.denominator != 1:
            out.append(Fraction(0))
        else:
            out.append(_laurent_coeff(a_i, c, int(y) + i))
    return Poly(out)


def test_laurent_oracle_examples():
    # 1/(1-x) = 1 + x + x^2 + ...
    f = RatFunc(Poly([1]), Poly([1, -1]))
    assert [_laurent_coeff(f, Fraction(0), k) for k in range(4)] == [1, 1, 1, 1]
    # x^-2 * (1 + x)
    g = RatFunc(Poly([1, 1]), Poly([0, 0, 1]))
    assert _laurent_coeff(g, Fraction(0), -2) == 1
    assert _laurent_coeff(g, Fraction(0), -1) == 1
    assert _laurent_coeff(g, Fraction(0), 0) == 0
    assert _laurent_weights(operator([g]), Fraction(0)) == {0: -2}
    # at a shifted point
    h = RatFunc(Poly([1]), Poly([-1, 1]) ** 2)
    assert _laurent_coeff(h, Fraction(1), -2) == 1
    assert _laurent_weights(operator([h]), Fraction(1)) == {0: -2}


def _oracle_cases(rng: random.Random):
    """(operator, point) pairs: random polynomial operators at 0, 1, -2 and
    infinity, twists of their charts by ad_exp_raw, and charts scaled
    coefficient by coefficient with powers of (x - c)."""
    for _ in range(20):
        p = random_poly_op(rng, 4, 4)
        for at in (ZERO, Fraction(1), Fraction(-2), INF):
            yield p, at
            q, c = _chart(p, at)
            w = {k: random_fraction_nonzero(rng) for k in range(1, rng.randint(1, 3) + 1)}
            yield ad_exp_raw(q, c, w), c
            base = RatFunc(Poly([-c, 1]))
            yield operator([a * base ** rng.randint(-3, 4) for a in coeffs(q)]), c


def test_readers_match_the_laurent_oracle():
    for p, at in _oracle_cases(random.Random(14)):
        exp = theta_expand(p, at)
        wt = min(_laurent_weights(*_chart(p, at)).values())
        assert exp.min_index == wt
        char = char_poly(exp)
        assert char == _laurent_char_poly(p, at)
        assert is_regular_singular(exp) == (char.degree == p.rank)
        np = newton_polygon(exp)
        assert (np.vertices, np.slopes) == _laurent_newton_polygon(p, at)
        for k in range(wt, wt + 6):
            assert _homogeneous_part(exp, k) == _laurent_homogeneous_part(p, at, k)
        q, c = _chart(p, at)
        for slope in np.slopes:
            if slope > 0 and slope.denominator == 1:
                edge = _edge_polynomial(exp, np, int(slope))
                assert edge == _laurent_edge_polynomial(q, c, np, slope)


def _horner_reconstruct(expansion):
    """The operator of a theta expansion, sum_i (x-c)^i q_i(theta_c), with
    q_i(theta_c) by Horner's rule in operator products."""
    c = ZERO if expansion.point is INF else expansion.point
    base = RatFunc(Poly([-c, 1]))
    theta = operator([RatFunc(0), base])
    acc = operator()
    for i, q in expansion.terms:
        power = operator()
        for coeff in reversed(q.coeffs):
            power = op_sum(power * theta, coeff)
        acc = op_sum(acc, leibniz_product(base ** i, power))
    return subst_infty(acc) if expansion.point is INF else acc


def _homogeneous_part(expansion, k):
    """The term of weight k alone, ``(x-c)^k p_k(theta)``, as an operator
    at the expansion's point."""
    part = tuple((i, q) for i, q in expansion.terms if i == k)
    return _horner_reconstruct(ThetaExpansion(expansion.point, part))


def test_readers_refuse_a_pole_away_from_the_point():
    # 1/(x - 1) has no Laurent polynomial at 0, nor does its chart at infinity
    p = operator([RatFunc(1, Poly([-1, 1])), RatFunc(Poly.x(2))])
    readers = (
        lambda exp: exp.min_index,
        char_poly,
        is_regular_singular,
        newton_polygon,
        lambda exp: _edge_polynomial(exp, newton_polygon(exp), 1),
    )
    for at in (ZERO, INF):
        for reader in readers:
            with pytest.raises(ValueError, match="not a Laurent polynomial"):
                reader(theta_expand(p, at))
    # the Laurent oracle expands it as a series
    assert _laurent_char_poly(p, ZERO) == Poly([-1])


# -- prim -------------------------------------------------------------------------


def test_prim_examples():
    assert prim(parse("2*x*D - 2")) == parse("x*D - 1")
    assert prim(parse("x^2*D - x")) == parse("x*D - 1")
    scaled = leibniz_product(RatFunc(1, Poly.x()), parse("x*D - 5"))
    assert prim(scaled) == parse("x*D - 5")


def test_prim_idempotent_and_unique():
    rng = random.Random(7)
    for _ in range(20):
        p = random_poly_op(rng)
        q = prim(p)
        assert prim(q) == q
        assert leading(q.leading()) == 1
        f = RatFunc(Poly([1, 3]), Poly([2, 0, 1]))
        assert prim(leibniz_product(f, p)) == q


# -- additions and exponential twists ------------------------------------------------


def test_ad_power_examples():
    assert ad_power(parse("x*D - 5"), ZERO, Fraction(2)) == parse("x*D - 7")
    shifted = ad_power(parse("x*D - 5"), ZERO, Fraction(2))
    assert char_poly(theta_expand(shifted, ZERO)) == Poly([-7, 1])
    twisted = ad_power(parse("D"), ZERO, Fraction(1))
    assert twisted == op_sum(D, RatFunc(1, Poly.x()), -1)
    assert prim(twisted) == parse("x*D - 1")


def test_ad_power_char_poly_shift_property():
    rng = random.Random(8)
    for _ in range(50):
        p = random_poly_op(rng)
        lam = random_fraction_nonzero(rng)
        c = rng.choice([ZERO, Fraction(1), Fraction(-2)])
        shifted = theta_expand(ad_power(p, c, lam), c)
        original = theta_expand(p, c)
        assert char_poly(shifted) == char_poly(original).shift(-lam)
        assert shifted.min_index == original.min_index


def random_fraction_nonzero(rng):
    while True:
        f = Fraction(rng.randint(-8, 8), rng.randint(1, 7))
        if f:
            return f


def test_ad_exp_examples():
    assert ad_exp_raw(parse("D"), INF, {1: Fraction(7)}) == parse("D - 7")
    twisted = ad_exp_raw(parse("D"), ZERO, {1: Fraction(-3)})
    assert twisted == op_sum(D, RatFunc(Poly([3]), Poly([0, 0, 1])))


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
        laplace(operator([RatFunc(1, Poly.x())]))


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
    assert char_poly(theta_expand(q, INF)).rational_roots() == {(1, 6): 1}


def test_euler_transforms_compose_as_convolutions():
    # middle convolution is additive, MC_a MC_b = MC_(a+b), and MC_(-a)
    # inverts MC_a (Dettweiler-Reiter, J. Symbolic Comput. 30, 2000); on
    # operators the laws hold up to the primitive component, here with
    # a = (k+1)/151 and b = (k+2)/157 on the forward draws of rank 2-8,
    # nF(n-1) for n = 2..5 with the ladder parameters and every corpus
    # entry at seeds 1-5
    ops = [draw[0] for draw in forward_draws() if draw and 2 <= draw[0].rank <= 8]
    assert len(ops) == 136
    ops += islice(ladder(False), 4)
    ops += [corpus.instantiate(name, corpus.params_for(name, seed))
            for name in corpus.names() for seed in range(1, 6)]
    for k, p in enumerate(ops):
        a, b = Fraction(k + 1, 151), Fraction(k + 2, 157)
        q = prim(euler(p, a))
        assert prim(euler(q, b)) == prim(euler(p, a + b)), (k, str(p))
        assert prim(euler(q, -a)) == prim(p), (k, str(p))
    assert len(ops) == 170


def test_deg_of_examples():
    assert deg_of(parse("x*D - 5")) == 1
    assert deg_of(corpus.instantiate("Heun")) == 3


def test_degree_change_under_addition():
    # operator with moderate factor chains (0; 2) and (1/3; 1) at 0:
    # theta form t(t-1)(t-1/3) + x * t
    lam = Fraction(1, 3)
    theta = X * D
    p0 = theta * op_sum(theta, 1, -1) * op_sum(theta, lam, -1)
    p = prim(op_sum(p0, X * theta))
    from irrkatz.formal import oshima_check

    exp = theta_expand(p, ZERO)
    char_roots = char_poly(exp).rational_roots()
    assert char_roots == {(0, 1): 1, (1, 1): 1, (1, 3): 1}
    assert oshima_check(exp, [((0, 1), 2), ((1, 3), 1)])
    q = prim(ad_power(p, ZERO, -lam))
    assert deg_of(q) - deg_of(p) == 2 - 1


def test_divisibility_pattern_both_directions():
    # theta form with r = 0: x^-2 P is polynomial iff p_0 vanishes at 0, 1
    # and p_1 vanishes at 0
    theta = X * D

    def build(p0, p1, p2):
        def poly_at(q):
            acc = operator()
            for c in reversed(q.coeffs):
                acc = op_sum(acc * theta, c)
            return acc

        return op_sum(op_sum(poly_at(p0), X * poly_at(p1)), X * X * poly_at(p2))

    good = build(falling_factorial(2), Poly([0, 1]), Poly([5]))
    assert all((c / RatFunc(Poly.x(2))).is_poly() for c in coeffs(good))
    bad1 = build(Poly([0, 1]) * Poly([-2, 1]), Poly([0, 1]), Poly([5]))
    assert not all((c / RatFunc(Poly.x(2))).is_poly() for c in coeffs(bad1))
    bad2 = build(falling_factorial(2), Poly([1, 1]), Poly([5]))
    assert not all((c / RatFunc(Poly.x(2))).is_poly() for c in coeffs(bad2))


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


#: Translation points: negative, and with denominators b != 1.
TRANSLATIONS = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(-3), Fraction(-7, 4))


def _rational_op(rng: random.Random, c: Fraction) -> DiffOperator:
    """A random operator whose coefficients have denominators: powers of
    x - c, times x + 1 or x^2 + 1 for some of them."""
    p = random_poly_op(rng, 3, 3)
    poles = [Poly([-c, 1]) ** rng.randint(0, 2) * rng.choice([UNIT, Poly([1, 1]), Poly([1, 0, 1])])
             for _ in coeffs(p)]
    return operator([a / RatFunc(q) for a, q in zip(coeffs(p), poles)])


def test_translate_matches_sympy():
    # coefficient i of translate(p, c) is a_i(x + c): SymPy composes each
    # numerator and denominator with x + c, and the two fractions agree
    # cross-multiplied, both denominators being nonzero
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def spoly(f: Poly):
        return sympy.Poly([sympy.Rational(a.numerator, a.denominator) for a in reversed(f.coeffs)]
                          or [0], x, domain="QQ")

    for k in range(200):
        rng = random.Random(k)
        c = TRANSLATIONS[k % len(TRANSLATIONS)]
        p = _rational_op(rng, c)
        shift = sympy.Poly(x + sympy.Rational(c.numerator, c.denominator), x, domain="QQ")
        got = coeffs(translate(p, c))
        assert len(got) == len(coeffs(p)), k
        for a, b in zip(coeffs(p), got):
            assert (spoly(b.num) * spoly(a.den).compose(shift)
                    == spoly(b.den) * spoly(a.num).compose(shift)), k


def test_translate_round_trip_zero_point_and_zero_operator():
    for k in range(100):
        rng = random.Random(700 + k)
        c = TRANSLATIONS[k % len(TRANSLATIONS)]
        p = _rational_op(rng, c) if k % 2 else random_poly_op(rng)
        assert translate(translate(p, c), -c) == p, k
        assert translate(p, ZERO) is p
    zero = operator()
    assert translate(zero, ZERO) is zero
    assert translate(zero, Fraction(1, 2)).is_zero()


def test_theta_expand_is_the_expansion_of_the_translate_at_0():
    # operators Laurent at c: polynomial ones, their coefficients over
    # powers of x - c, and twists at c
    for k in range(60):
        rng = random.Random(900 + k)
        c = TRANSLATIONS[k % len(TRANSLATIONS)]
        p = random_poly_op(rng, 4, 4)
        base = RatFunc(Poly([-c, 1]))
        cases = (p, operator([a * base ** rng.randint(-3, 3) for a in coeffs(p)]),
                 ad_exp_raw(p, c, {1: Fraction(k + 1, 3), 2: Fraction(-1, k + 2)}))
        for q in cases:
            assert theta_expand(q, c).terms == theta_expand(translate(q, c), ZERO).terms, k


# -- coordinate changes against the power-of-image oracle ----------------------------


def _substitute(p: DiffOperator, coeff_image, d_image: DiffOperator) -> DiffOperator:
    """The image of ``p`` under the algebra map c -> coeff_image(c), D ->
    d_image, by multiplying out the powers of d_image (the oracle)."""
    acc = operator()
    power = DiffOperator.of(1)
    for i, c in enumerate(coeffs(p)):
        if i:
            power = leibniz_product(power, d_image)
        if not c.is_zero():
            acc = op_sum(acc, leibniz_product(coeff_image(c), power))
    return acc


def _polynomial_image(x_image: DiffOperator):
    def image(c: RatFunc) -> DiffOperator:
        if not c.is_poly():
            raise ValueError("Fourier-Laplace transform needs polynomial coefficients")
        acc = operator()
        for coeff in reversed(c.as_poly().coeffs):
            acc = op_sum(acc * x_image, coeff)
        return acc

    return image


def _oracle_subst_infty(p):
    d_image = operator([RatFunc(0), RatFunc(Poly([0, 0, -1]))])
    return _substitute(p, lambda c: operator_of(subst_inverse(c)), d_image)


def _oracle_ad_power(p, c, lam):
    shift = RatFunc(Poly.const(lam), Poly([-c, 1]))
    return _substitute(p, operator_of, op_sum(D, shift, -1))


def _oracle_ad_exp_raw(p, at, w):
    f = RatFunc(0)
    for k, wk in w.items():
        if at is INF:
            f += RatFunc(Poly([0] * (k - 1) + [wk]))
        else:
            f += RatFunc(Poly.const(wk), Poly([-at, 1]) ** (k + 1))
    return _substitute(p, operator_of, op_sum(D, f, -1))


def _oracle_laplace(p):
    return _substitute(p, _polynomial_image(op_neg(D)), X)


def _oracle_laplace_inv(p):
    return _substitute(p, _polynomial_image(D), op_neg(X))


def _oracle_euler(p, lam):
    q = _oracle_laplace_inv(prim(p))
    return _oracle_laplace(prim(_oracle_ad_power(q, ZERO, lam)))


def _with_poles(rng: random.Random, p: DiffOperator, c: Fraction) -> DiffOperator:
    """``p`` with each coefficient divided by a power of (x - c) and, now
    and then, by a factor vanishing elsewhere."""
    out = []
    for a in coeffs(p):
        den = Poly([-c, 1]) ** rng.randint(0, 2)
        if rng.random() < 0.3:
            den = den * Poly([rng.choice([3, -5, Fraction(1, 2)]), 1])
        out.append(a / RatFunc(den))
    return operator(out)


def test_coordinate_changes_match_the_power_of_image_oracle():
    rng = random.Random(14)
    lams = (ZERO, Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(-7, 2))
    points = (ZERO, Fraction(1), Fraction(-2))
    refused = 0
    for n in range(300):
        p = operator() if n == 0 else random_poly_op(rng, 3, 3)
        q = _with_poles(rng, p, ZERO) if n % 2 else p
        assert subst_infty(q) == _oracle_subst_infty(q)
        c, lam = points[n % 3], lams[n % 5]
        q = _with_poles(rng, p, c) if n % 2 else p
        assert ad_power(q, c, lam) == _oracle_ad_power(q, c, lam)
        at = (Fraction(1), INF)[n % 2]
        if n % 4 == 1:
            q = _with_poles(rng, p, ZERO)     # poles away from infinity
        elif n % 4 == 2:
            q = _with_poles(rng, p, at)
        else:
            q = p
        w = {k: random_fraction_nonzero(rng) for k in rng.sample(range(1, 4), rng.randint(1, 3))}
        assert ad_exp_raw(q, at, w) == _oracle_ad_exp_raw(q, at, w)
        assert laplace(p) == _oracle_laplace(p)
        assert laplace_inv(p) == _oracle_laplace_inv(p)
        if p and n % 4 == 0:
            lam = random_fraction_nonzero(rng)
            assert euler(p, lam) == _oracle_euler(p, lam)
        if p and n % 10 == 0:
            q = operator([a / RatFunc(Poly([-1, 1])) for a in coeffs(p)])
            if not q.is_polynomial():
                refused += 1
                for transform, oracle in ((laplace, _oracle_laplace), (laplace_inv, _oracle_laplace_inv)):
                    with pytest.raises(ValueError) as new:
                        transform(q)
                    with pytest.raises(ValueError) as old:
                        oracle(q)
                    assert (type(new.value), str(new.value)) == (type(old.value), str(old.value))
    assert refused > 20


def test_coordinate_changes_make_no_operator_products(monkeypatch):
    products = []
    mul = DiffOperator.__mul__

    def counted(self, other):
        products.append((self, other))
        return mul(self, other)

    from irrkatz.reduce import reduce_operator

    gauss = corpus.instantiate("Gauss")
    heun = corpus.instantiate("Heun")
    rational = operator([a / RatFunc(Poly([-1, 1]) ** 2) for a in coeffs(heun)])
    monkeypatch.setattr(DiffOperator, "__mul__", counted)
    for p in (gauss, heun, rational):
        subst_infty(p)
        local_chart(p, INF)
        for c, lam in ((ZERO, Fraction(1, 3)), (Fraction(1), ZERO), (Fraction(-2), Fraction(-5, 2))):
            ad_power(p, c, lam)
        for at in (ZERO, Fraction(1), INF):
            ad_exp_raw(p, at, {1: Fraction(2), 2: Fraction(-1, 3), 3: Fraction(5)})
    for p in (gauss, heun):
        laplace(p)
        laplace_inv(p)
        euler(p, Fraction(1, 7))
    # a whole reduction, Euler step and cross-check included
    assert reduce_operator(gauss).transcript.euler_steps()
    assert products == []
    gauss * heun
    assert len(products) == 1
