import random
from fractions import Fraction

from irrkatz.polys import Poly, RatFunc, falling_factorial, poly_gcd


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


def test_shift_and_reverse():
    p = Poly([1, 2, 3])
    assert p.shift(Fraction(1)).eval(0) == p.eval(1)
    assert p.reverse() == Poly([3, 2, 1])
    assert p.reverse(4) == Poly([0, 0, 3, 2, 1])


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


def test_laurent_coefficients():
    # 1/(1-x) = 1 + x + x^2 + ...
    f = RatFunc(Poly([1]), Poly([1, -1]))
    assert [f.laurent_coeff(Fraction(0), k) for k in range(4)] == [1, 1, 1, 1]
    # x^-2 * (1 + x)
    g = RatFunc(Poly([1, 1]), Poly([0, 0, 1]))
    assert g.laurent_coeff(Fraction(0), -2) == 1
    assert g.laurent_coeff(Fraction(0), -1) == 1
    assert g.laurent_coeff(Fraction(0), 0) == 0
    assert g.order_at(Fraction(0)) == -2
    # at a shifted point
    h = RatFunc(Poly([1]), Poly([-1, 1]) ** 2)
    assert h.laurent_coeff(Fraction(1), -2) == 1
    assert h.order_at(Fraction(1)) == -2


def test_subst_inverse():
    f = RatFunc(Poly([1, 2]), Poly([0, 1]))             # (1+2x)/x
    g = f.subst_inverse()                               # (1+2/x)*x = x + 2
    assert g == RatFunc(Poly([2, 1]))
