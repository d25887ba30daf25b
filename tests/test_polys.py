import random
from fractions import Fraction
from math import isqrt

import pytest

from irrkatz import polys, weylalg
from irrkatz.polys import Poly, RatFunc, falling_factorial, poly_gcd
from oracles import subst_inverse


def test_divmod_and_gcd():
    rng = random.Random(1)
    for _ in range(50):
        a = Poly([Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 5))])
        b = Poly([Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))])
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree
        g = poly_gcd(a * b, b)
        assert (b % g).is_zero()


def test_rational_roots_with_multiplicity():
    p = Poly([-Fraction(1, 2), 1]) ** 2 * Poly([3, 1]) * Poly([0, 1])
    assert p.rational_roots() == {Fraction(1, 2): 2, Fraction(-3): 1, Fraction(0): 1}
    assert sum(p.rational_roots().values()) == p.degree
    assert sum(Poly([1, 0, 1]).rational_roots().values()) == 0     # x^2 + 1
    assert sum(Poly([-2, 0, 1]).rational_roots().values()) == 0    # x^2 - 2


def _divisors(n):
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _enumerate_roots(p):
    """Reference: try every divisor pair of a0 and an (rational root theorem)."""
    roots = {}
    low = 0
    while p[low] == 0:
        low += 1
    if low:
        roots[Fraction(0)] = low
        p = Poly(p.coeffs[low:])
    _, zp = p.int_content_and_primitive()
    if zp.degree == 0:
        return roots
    for p_div in _divisors(abs(int(zp.coeffs[0]))):
        for q_div in _divisors(abs(int(zp.leading()))):
            for cand in (Fraction(p_div, q_div), Fraction(-p_div, q_div)):
                if cand not in roots and zp.eval(cand) == 0:
                    roots[cand] = zp.order_at(cand)
    return roots


def random_root_poly(rng):
    """Product of linear factors b*x - a (multiplicities 1-2) with a
    rational content; sometimes x^k, x^2 + 1 (roots mod 5), x^2 - 2
    (roots mod 7) or x^2 - x - 9 (its 3-adic root reads back as -9, which
    divides 9: only the exact check rejects it), and leading coefficients
    divisible by 3, 5 and 7, so that the prime search has to pass them."""
    p = Poly([Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 6))])
    for _ in range(rng.randint(0, 3)):
        b = rng.choice([1, 2, 3, 4, 5, 7, 105])
        p = p * Poly([-rng.randint(-9, 9), b]) ** rng.randint(1, 2)
    for extra in (Poly.x(rng.randint(1, 3)), Poly([1, 0, 1]), Poly([-2, 0, 1]), Poly([-9, -1, 1])):
        if rng.random() < 0.2:
            p = p * extra
    return p


def test_rational_roots_match_divisor_enumeration():
    rng = random.Random(7)
    polys = [random_root_poly(rng) for _ in range(120)]
    polys += [
        Poly([5]),
        Poly([Fraction(-3, 4)]),
        Poly.x(3),
        Poly([1, 0, 1]) * Poly([-2, 0, 1]),
        Poly([-9, -1, 1]),
        Poly([-4, 0, 1]) * Poly([-1, 0, 4]),            # 1/2, -1/2, 2, -2
        Poly([1, 105]) * Poly([-2, 35]) ** 2 * Poly([1, 0, 1]),
    ]
    for p in polys:
        assert list(p.rational_roots().items()) == list(_enumerate_roots(p).items()), p
    assert Poly([5]).rational_roots() == {}
    assert Poly([-9, -1, 1]).rational_roots() == {}
    assert list((Poly([-4, 0, 1]) * Poly([-1, 0, 4])).rational_roots()) == [
        Fraction(1, 2), Fraction(-1, 2), Fraction(2), Fraction(-2)
    ]


def test_rational_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(8)
    for _ in range(40):
        p = random_root_poly(rng)
        if p.degree < 1:
            continue
        factors = sympy.Poly(list(reversed(p.coeffs)), x, domain="QQ").factor_list()[1]
        want = {}
        for f, mult in factors:
            if f.degree() == 1:
                c1, c0 = f.all_coeffs()
                root = -c0 / c1
                want[Fraction(int(root.p), int(root.q))] = mult
        assert p.rational_roots() == want, p


def _order_by_division(p, c):
    """Reference: divide by (x - c) while c is a root."""
    m = 0
    while p.eval(c) == 0:
        p = p // Poly([-c, 1])
        m += 1
    return m


def test_order_at_zero_counts_low_zero_coefficients():
    rng = random.Random(8)
    for _ in range(200):
        p = random_root_poly(rng) * Poly.x(rng.randint(0, 6))
        for c in (Fraction(0), 0, Fraction(1, 2), Fraction(-3)):
            assert p.order_at(c) == _order_by_division(p, Fraction(c))
    assert Poly.x(24).order_at(0) == 24
    assert Poly([Fraction(1, 3)]).order_at(0) == 0
    with pytest.raises(ValueError):
        Poly().order_at(0)


def test_shift_and_reverse():
    p = Poly([1, 2, 3])
    assert p.shift(Fraction(1)).eval(0) == p.eval(1)
    assert p.reverse() == Poly([3, 2, 1])
    assert p.reverse(4) == Poly([0, 0, 3, 2, 1])


def _shift_by_horner(p: Poly, c: Fraction) -> Poly:
    out = Poly()
    for coeff in reversed(p.coeffs):
        out = out * Poly([c, 1]) + Poly.const(coeff)
    return out


def test_shift_matches_the_horner_loop():
    rng = random.Random(15)
    for _ in range(100):
        p = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(0, 7))])
        for c in (Fraction(0), 0, Fraction(1), Fraction(-2), Fraction(3, 7)):
            assert p.shift(c) == _shift_by_horner(p, Fraction(c))
        # at 0 the polynomial itself comes back, without a loop
        assert p.shift(0) is p


def test_falling_factorial():
    assert falling_factorial(0) == Poly([1])
    assert falling_factorial(1) == Poly([0, 1])
    assert falling_factorial(2) == Poly([0, -1, 1])     # t(t-1)
    assert falling_factorial(3).eval(3) == 6


def test_ratfunc_canonical_form():
    f = RatFunc(Poly([0, 2]), Poly([0, 0, 4]))          # 2x / 4x^2 = (1/2)/x
    assert f.num == Poly([Fraction(1, 2)])
    assert f.den == Poly([0, 1])
    assert f == RatFunc(Poly([1]), Poly([0, 2]))


def test_polynomial_ratfuncs_share_the_unit_denominator():
    rng = random.Random(20)
    for _ in range(100):
        p = _random_poly(rng, rng.randint(-1, 4))
        q = _random_poly(rng, rng.randint(1, 3))
        q = q if q.degree > 0 else Poly([1, 1])
        built = [
            RatFunc(p), RatFunc(p, 1), RatFunc(p, Poly.const(3)), RatFunc(0, q),
            RatFunc(p) + RatFunc(q), RatFunc(p) * RatFunc(q), RatFunc(p * q, q),
            RatFunc(p, q) * RatFunc(q), RatFunc(p, q) - RatFunc(p, q), RatFunc(q) ** 0,
            RatFunc(q).derivative(),
        ]
        for f in built:
            assert f.den is polys.UNIT
            fresh = object.__new__(RatFunc)
            object.__setattr__(fresh, "num", f.num)
            object.__setattr__(fresh, "den", Poly.const(1))
            assert f == fresh and fresh == f
            assert hash(f) == hash(fresh)
            assert f.format() == fresh.format() and f.is_poly()
    assert polys.UNIT.coeffs == (1,)


def test_subst_inverse():
    f = RatFunc(Poly([1, 2]), Poly([0, 1]))             # (1+2x)/x
    g = subst_inverse(f)                                # (1+2/x)*x = x + 2
    assert g == RatFunc(Poly([2, 1]))


# -- fast paths against the normalization they skip ------------------------------


def _coerced(coeffs):
    """The constructor before the fast path: every entry through Fraction."""
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _schoolbook(a, b):
    out = [Fraction(0)] * max(0, len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return _coerced(out)


def _gcd_normalized(num, den):
    """(num, den) coefficients as RatFunc normalized them with a gcd on
    every call, then a monic denominator."""
    if num.is_zero():
        return (), (Fraction(1),)
    g = poly_gcd(num, den)
    num, den = num // g, den // g
    lead = den.leading()
    return tuple(c / lead for c in num.coeffs), tuple(c / lead for c in den.coeffs)


def _assert_normalized(f, num, den):
    assert (f.num.coeffs, f.den.coeffs) == _gcd_normalized(num, den)
    assert all(type(c) is Fraction for c in f.num.coeffs + f.den.coeffs)


def _random_poly(rng, degree):
    return Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree + 1)])


def test_fast_paths_match_gcd_normalization():
    rng = random.Random(12)
    one = Poly.const(1)
    scaled = shared = cancelled = 0
    for _ in range(300):
        num = _random_poly(rng, rng.randint(-1, 4))
        # a constant denominator, 1 or not
        c = Fraction(rng.choice([-7, -2, -1, 1, 1, 3, 6]), rng.choice([1, 1, 2, 5]))
        scaled += c != 1
        _assert_normalized(RatFunc(num, Poly([c])), num, Poly([c]))
        _assert_normalized(RatFunc(num, c), num, Poly([c]))
        # zero numerators over any denominator
        den = _random_poly(rng, rng.randint(0, 3)) or one
        _assert_normalized(RatFunc(Poly(), den), Poly(), den)
        _assert_normalized(RatFunc(num, den), num, den)
        # equal denominators (x - a)(x - b); half the time the second
        # numerator is chosen so that the sum of numerators keeps x - a
        a, b = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
        d = Poly([-a, 1]) * Poly([-b, 1])
        n1 = _random_poly(rng, rng.randint(0, 3))
        n2 = _random_poly(rng, rng.randint(0, 3))
        if rng.random() < 0.5:
            n2 = Poly([-a, 1]) * n2 - n1
        f1, f2 = RatFunc(n1, d), RatFunc(n2, d)
        if f1.den == f2.den and f1.den.degree > 0:
            shared += 1
            total = f1 + f2
            cancelled += total.den.degree < f1.den.degree
            _assert_normalized(total, f1.num * f2.den + f2.num * f1.den, f1.den * f2.den)
        # polynomials added as rational functions
        _assert_normalized(RatFunc(num) + RatFunc(n1), num + n1, one)
        # products with the constant 1 on either side
        for product in (num * one, one * num, num * 1, 1 * num):
            assert product.coeffs == _schoolbook(num, one)
            assert all(type(c) is Fraction for c in product.coeffs)
        assert (num * n1).coeffs == _schoolbook(num, n1)
        _assert_normalized(RatFunc(num) * RatFunc(one), num, one)
    assert scaled > 100 and shared - cancelled > 100 and cancelled > 100


def test_poly_constructor_coerces_only_non_fractions():
    for coeffs in (
        [1, 2], [True], [False], [0, 0], [Fraction(1, 2), 3, Fraction(0), -4, 0],
        [Fraction(-3), True, 7, Fraction(5, 9)], (c for c in [2, Fraction(1, 3)]),
    ):
        coeffs = list(coeffs)
        p = Poly(coeffs)
        assert p.coeffs == _coerced(coeffs)
        assert all(type(c) is Fraction for c in p.coeffs)
    assert Poly([True]) == Poly([1]) == 1


def _euclid_gcd(a, b):
    while not b.is_zero():
        a, b = b, a % b
    return a if a.is_zero() else a.monic()


def test_gcd_with_a_monomial_matches_euclid():
    rng = random.Random(16)
    for _ in range(200):
        mono = Poly.monomial(Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice([1, -1]), rng.randint(0, 6))
        other = _random_poly(rng, rng.randint(0, 5)) * Poly.x(rng.randint(0, 7))
        for a, b in ((mono, other), (other, mono), (mono, Poly()), (Poly(), mono), (mono, mono)):
            assert poly_gcd(a, b) == _euclid_gcd(a, b)
    assert poly_gcd(Poly(), Poly()) == Poly()


def test_polynomial_paths_make_no_gcd_calls(monkeypatch):
    # the gcd with a constant is 1: a constant denominator, a sum of
    # polynomials and the lcm loop of prim on a polynomial operator must
    # not ask for it
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr(polys, "poly_gcd", counted)
    monkeypatch.setattr(weylalg, "poly_gcd", counted)
    # nor do the products of polynomial operators, those of parse included
    op = weylalg.parse("x^2*D^2 + 3*x*D + x")
    assert op * op == op ** 2 and (op * op).is_polynomial()
    p, q = Poly([1, 2, 3]), Poly([Fraction(-1, 2), 0, 5])
    assert RatFunc(p, Poly([Fraction(3, 7)])).num == Poly([Fraction(7, 3), Fraction(14, 3), 7])
    assert RatFunc(p, 5).den == 1
    assert RatFunc(p) + RatFunc(q) == RatFunc(p + q)
    assert calls == []
    # prim of x (x D^2 + 3 D + 1): only the content loop over the three
    # coefficients x, 3x, x^2 calls the gcd
    assert weylalg.prim(op) == weylalg.parse("x*D^2 + 3*D + 1")
    x = Poly.x()
    assert calls == [(x, 3 * x), (x, x * x)]
