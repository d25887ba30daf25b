import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

import oracles
from irrkatz import polys, weylalg
from irrkatz.polys import Poly, falling_factorial, poly_gcd
from oracles import RatFunc, leading, subst_inverse


def test_divmod_and_gcd():
    rng = random.Random(1)
    for _ in range(50):
        a = Poly([Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 5))])
        b = Poly([Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))])
        if b.is_zero():
            continue
        g = poly_gcd(a * b, b)
        assert oracles.long_divmod(b, g)[1].is_zero()


def test_rational_roots_with_multiplicity():
    p = Poly([-Fraction(1, 2), 1]) ** 2 * Poly([3, 1]) * Poly([0, 1])
    assert p.rational_roots() == {(1, 2): 2, (-3, 1): 1, (0, 1): 1}
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
    zp = Poly(oracles.FractionPoly(p.coeffs).int_content_and_primitive()[1].coeffs)
    if zp.degree == 0:
        return roots
    for p_div in _divisors(abs(int(zp.coeffs[0]))):
        for q_div in _divisors(abs(int(leading(zp)))):
            for cand in (Fraction(p_div, q_div), Fraction(-p_div, q_div)):
                if cand not in roots and oracles.poly_eval(zp, cand) == 0:
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
        assert list(p.rational_roots().items()) == list(
            oracles.pair_keys(_enumerate_roots(p)).items()), p
    assert Poly([5]).rational_roots() == {}
    assert Poly([-9, -1, 1]).rational_roots() == {}
    assert list((Poly([-4, 0, 1]) * Poly([-1, 0, 4])).rational_roots()) == [
        (1, 2), (-1, 2), (2, 1), (-2, 1)
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
                want[int(root.p), int(root.q)] = mult
        assert p.rational_roots() == want, p


def test_rational_roots_with_hints_match_the_search(monkeypatch):
    # candidate roots change nothing but the work: for every hint set the
    # roots, their multiplicities and their order are those of the search,
    # and the search is skipped exactly when the hinted roots fill the degree
    rng = random.Random(28)
    searches = []
    searched_roots = polys._searched_roots

    def counted(f):
        searches.append(f)
        return searched_roots(f)

    monkeypatch.setattr(polys, "_searched_roots", counted)
    skipped = 0
    for _ in range(300):
        p = random_root_poly(rng)
        want = list(p.rational_roots().items())
        roots = [r for r, _ in want]
        split = sum(k for _, k in want) == p.degree
        non_roots = oracles.pairs(
            Fraction(rng.randint(-99, 99), rng.choice([1, 6, 11, 10**12 + 39]))
            for _ in range(3)
        )
        non_roots = [c for c in non_roots if c not in roots]
        hint_sets = {
            "all": roots,
            "subset": roots[: rng.randrange(len(roots))] if roots else [],
            "extra": non_roots + roots,
            "duplicates": roots + roots[::-1] + [(a, 1) for a, b in roots if b == 1],
            "zero": [(0, 1)] + roots,
            "empty": [],
        }
        for name, hints in hint_sets.items():
            rng.shuffle(hints)
            searches.clear()
            assert list(p.rational_roots(hints).items()) == want, (p, name)
            filled = split and set(hints) >= set(roots)
            assert (searches == []) == (filled or p.order_at(0) == p.degree), (p, name)
            skipped += filled
    assert skipped > 300


def _closed_form_polys(rng):
    """Polynomials whose part after x^k has degree 1 or 2: random ones
    with a rational content, then a negative, a non-square and a zero
    discriminant, and both roots of one sign."""
    out = []
    for _ in range(150):
        row = [rng.randint(-30, 30) or 1 for _ in range(rng.randint(2, 3))]
        if rng.random() < 0.5 and len(row) == 3:
            (a, b), (c, d) = [(rng.randint(-12, 12) or 1, rng.randint(1, 12)) for _ in range(2)]
            row = [a * c, -(a * d + b * c), b * d]        # (b x - a)(d x - c)
        content = Fraction(rng.choice([1, -1]) * rng.randint(1, 9), rng.randint(1, 9))
        out.append(Poly(row) * Poly.x(rng.randint(0, 3)) * content)
    out += [
        Poly([1, 1, 1]),                        # disc -3
        Poly([-3, 0, 1]) * Poly.x(2),           # disc 12
        Poly([4, -12, 9]),                      # (3x - 2)^2, disc 0
        Poly([6, 5, 1]),                        # -2, -3
        Poly([-5, 2]) * Poly.x(),
        Poly([-Fraction(2, 3), -1, Fraction(5, 2)]),
    ]
    return out


def test_closed_form_roots_match_enumeration_and_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(31)
    for p in _closed_form_polys(rng):
        want = list(oracles.pair_keys(_enumerate_roots(p)).items())
        assert list(p.rational_roots().items()) == want, p
        factors = sympy.Poly(list(reversed(p.coeffs)), x, domain="QQ").factor_list()[1]
        linear = {}
        for f, mult in factors:
            if f.degree() == 1:
                root = -f.all_coeffs()[1] / f.all_coeffs()[0]
                linear[int(root.p), int(root.q)] = mult
        assert p.rational_roots() == linear, p
        roots = [r for r, _ in want]
        for hints in ([], roots, roots[::-1] + [(7, 5), (0, 1)], roots[:1], [(-1, 3)]):
            assert list(p.rational_roots(hints).items()) == want, (p, hints)


def test_closed_form_roots_of_4000_digit_numerals():
    # roots with 2000-digit numerator and denominator, so the quadratic
    # has 4000-digit numerals; the p-adic oracle agrees on each
    rng = random.Random(4000)

    def numeral(digits):
        return rng.randrange(10 ** (digits - 1), 10**digits)

    (a, b), (c, d) = [(numeral(2000), numeral(2000)) for _ in range(2)]
    cases = {
        Poly([-a, b]) * Poly.x(2): {Fraction(0): 2, Fraction(a, b): 1},
        Poly([-a * c, a * d + b * c, -b * d]): {Fraction(a, b): 1, Fraction(c, d): 1},
        Poly([a * c, a * d + b * c, b * d]): {Fraction(-a, b): 1, Fraction(-c, d): 1},
        Poly([a * a, -2 * a * b, b * b]): {Fraction(a, b): 2},
        Poly([numeral(4000), numeral(4000), numeral(4000)]): {},        # disc < 0
        Poly([-numeral(4000), 0, 10**3999]): {},
    }
    for p, want in cases.items():
        want = dict(sorted(oracles.pair_keys(want).items(),
                           key=lambda item: polys._root_order(item[0])))
        assert list(p.rational_roots().items()) == list(want.items())
        assert p.rational_roots() == oracles.pair_keys(
            oracles.FractionPoly(p.coeffs).rational_roots())
        assert p.rational_roots(list(want)[::-1]) == want


def test_newton_lift_takes_one_inverse_per_residue(monkeypatch):
    # square-free products of 2-4 factors b x - a with 20-60 digit
    # numerals, times x^2 + 1 or x^2 - 2 (roots mod small primes that lift
    # to no rational root): the lift finds the known roots, and lifts each
    # root mod p with one modular inverse, taken mod p
    rng = random.Random(41)
    inverses = []

    def counted(base, exp, mod=None):
        if exp == -1:
            inverses.append(mod)
        return pow(base, exp, mod)

    monkeypatch.setattr(polys, "pow", counted, raising=False)
    lifted = 0
    for _ in range(40):
        roots = set()
        p = Poly([rng.choice((1, -1, 3))])
        for _ in range(rng.randint(2, 4)):
            a, b = (rng.randrange(10 ** rng.randint(20, 60)) + 1 for _ in range(2))
            root = Fraction(rng.choice((1, -1)) * a, b)
            if root not in roots:
                roots.add(root)
                p = p * Poly([-root.numerator, root.denominator])
        for extra in (Poly([1, 0, 1]), Poly([-2, 0, 1])):
            if rng.random() < 0.5:
                p = p * extra
        f = tuple(int(c) for c in p.coeffs)
        inverses.clear()
        got = polys._lifted_roots(f)
        assert sorted(Fraction(a, b) for a, b in got) == sorted(roots), p
        assert all(type(a) is int and type(b) is int and b > 0 for a, b in got), p
        prime = inverses[0]
        residues = [r for r in range(prime) if polys._eval_mod(list(f), r, prime) == 0]
        assert inverses == [prime] * len(residues), (p, prime, inverses)
        assert p.rational_roots() == oracles.pair_keys(dict.fromkeys(roots, 1)), p
        lifted += len(residues) > len(roots)
    # some of the residues lift to no rational root
    assert lifted > 5, lifted


def test_newton_lift_stops_at_the_least_power_above_the_bound(monkeypatch):
    # each root mod p is lifted to p^e, the least power of p above
    # 2|f(0)||lc(f)|, the last squaring cut down to it: no modulus the lift
    # evaluates at passes p^e, and the roots stay those planted, on x times
    # a quadratic with 4000-digit numerals times a linear factor with
    # 2000-digit ones, and on the quadratic of the 4000-digit case of
    # test_spectral_stage
    moduli, primes, eval_mod = [], [], polys._eval_mod

    def counted(f, r, m):
        moduli.append(m)
        return eval_mod(f, r, m)

    def inverse(base, exp, mod):
        primes.append(mod)
        return pow(base, exp, mod)

    monkeypatch.setattr(polys, "_eval_mod", counted)
    monkeypatch.setattr(polys, "pow", inverse, raising=False)
    for seed in (0, 2, 38):
        rng = random.Random(seed)
        a, b, c, d, e, f = (rng.randrange(10**1999, 10**2000) for _ in range(6))
        p = Poly([a * c, a * d + b * c, b * d])
        roots = [Fraction(-a, b), Fraction(-c, d)]
        if seed != 38:
            p = p * Poly([-e, f])
            roots.append(Fraction(e, f))
            assert (p * Poly.x()).rational_roots() == oracles.pair_keys(
                dict.fromkeys([Fraction(0)] + roots, 1)), seed
        row = [int(x) for x in p.coeffs]
        row = [x // gcd(*row) for x in row]
        moduli.clear()
        primes.clear()
        assert sorted(Fraction(*root) for root in polys._lifted_roots(row)) == sorted(roots)
        bound, prime = 2 * abs(row[0] * row[-1]), primes[0]
        top = prime
        while top <= bound:
            top *= prime
        assert max(moduli) == top, seed


def _order_by_division(p, c):
    """Reference: divide by (x - c) while c is a root."""
    m = 0
    while oracles.poly_eval(p, c) == 0:
        p = oracles.quo(p, Poly([-c, 1]))
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
    assert oracles.poly_eval(p.shift(Fraction(1)), 0) == oracles.poly_eval(p, 1)
    assert oracles.reverse(p) == Poly([3, 2, 1])
    assert oracles.reverse(p, 4) == Poly([0, 0, 3, 2, 1])


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
    assert oracles.poly_eval(falling_factorial(3), 3) == 6


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
    num, den = oracles.quo(num, g), oracles.quo(den, g)
    lead = leading(den)
    return tuple(c / lead for c in num.coeffs), tuple(c / lead for c in den.coeffs)


def _assert_normalized(f, num, den):
    assert (f.num.coeffs, f.den.coeffs) == _gcd_normalized(num, den)
    assert all(type(c) is Fraction for c in f.num.coeffs + f.den.coeffs)


def _random_poly(rng, degree):
    return Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree + 1)])


def _padded_sum(a, b):
    """The sum position by position, the shorter operand padded with zeros."""
    return _coerced([a[k] + b[k] for k in range(max(len(a.coeffs), len(b.coeffs)))])


def test_sums_of_unequal_length_match_the_padded_sum():
    rng = random.Random(17)
    for _ in range(100):
        a = _random_poly(rng, rng.randint(0, 6))
        b = _random_poly(rng, rng.randint(0, 6))
        # cancel's top coefficients cancel against a's, down to b
        cancel = Poly(_padded_sum(b, -a))
        for x, y in ((a, b), (b, a), (a, cancel), (cancel, a), (a, -a), (a, Poly())):
            assert (x + y).coeffs == _padded_sum(x, y)
            assert (x - y).coeffs == _padded_sum(x, -y)
        assert (a + cancel).coeffs == b.coeffs
        for c in (0, 3, Fraction(-2, 7)):
            assert (a + c).coeffs == (c + a).coeffs == _padded_sum(a, Poly([c]))
            assert (c - a).coeffs == _padded_sum(Poly([c]), -a)


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
        a, b = b, oracles.long_divmod(a, b)[1]
    return a if a.is_zero() else oracles.monic(a)


def test_gcd_with_a_monomial_matches_euclid():
    rng = random.Random(16)
    for _ in range(200):
        mono = Poly([0] * rng.randint(0, 6) + [Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice([1, -1])])
        other = _random_poly(rng, rng.randint(0, 5)) * Poly.x(rng.randint(0, 7))
        for a, b in ((mono, other), (other, mono), (mono, Poly()), (Poly(), mono), (mono, mono)):
            assert poly_gcd(a, b) == _euclid_gcd(a, b)
    assert poly_gcd(Poly(), Poly()) == Poly()


def _gcd_pairs(rng):
    """Pairs (a, b) with a planted common factor g: repeated factors, a
    constant gcd, a monomial side, a rational content, negative leading
    coefficients and 1000-bit coefficients."""

    def poly(degree, bits):
        top = rng.choice([1, -1]) * rng.randint(1, 2**bits)
        return Poly([rng.randint(-(2**bits), 2**bits) for _ in range(degree)] + [top])

    for _ in range(400):
        bits = rng.choice([1, 2, 4, 8, 1000])
        g = poly(rng.randint(0, 2), bits) ** rng.choice([1, 1, 2, 3])
        a, b = poly(rng.randint(0, 3), bits), poly(rng.randint(0, 3), bits)
        if rng.random() < 0.2:
            a = a * g                                   # g^2 divides a
        if rng.random() < 0.1:
            b = Poly([0] * rng.randint(0, 3) + [rng.randint(1, 9)])
        content = Fraction(rng.choice([1, -1]) * rng.randint(1, 50), rng.randint(1, 50))
        yield a * g * content, b * g


def _counted_heuristic(monkeypatch) -> list:
    """Spy on ``polys._heuristic_gcd``: the list of the pairs on which it
    failed, so that Euclid ran."""
    fallbacks, heuristic = [], polys._heuristic_gcd

    def counted(a, b):
        g = heuristic(a, b)
        fallbacks.extend([(a, b)] if g is None else [])
        return g

    monkeypatch.setattr(polys, "_heuristic_gcd", counted)
    return fallbacks


def test_gcd_matches_euclid(monkeypatch):
    # GCDHEU reads the gcd off one integer gcd and accepts it only after
    # exact division: it must equal Euclid's gcd on every pair, reject some
    # candidates (so the trial division is what decides), and never fail,
    # which would hand the pair to Euclid
    rejected, quotient = [], polys.exact_quotient

    def counted_quotient(f, g):
        q = quotient(f, g)
        rejected.extend([] if q is not None else [(g, f)])
        return q

    fallbacks = _counted_heuristic(monkeypatch)
    monkeypatch.setattr(polys, "exact_quotient", counted_quotient)
    rng = random.Random(32)
    pairs = list(_gcd_pairs(rng))
    f = Poly([1, -3, 1])
    pairs += [
        (f**3 * Poly([2, 1]), f**2 * Poly([-5, 1]) ** 2),              # repeated factors
        (Poly([1, 0, 1]), Poly([-2, 0, 1])),                            # gcd 1
        (Poly([0, 0, 0, 0, 3]), Poly([0, 0, 1, 1])),                     # monomial side
        (Poly([-3, 2, 1]) * Fraction(6, 35), Poly([5, -7, 2]) * Fraction(-10, 3)),
        (-Poly([-2, -1, 1]), -Poly([1, 3, 2])),                         # negative leads
    ]
    for a, b in pairs:
        want = _euclid_gcd(a, b)
        fallbacks.clear()
        assert poly_gcd(a, b) == want, (a, b)
        assert poly_gcd(b, a) == want, (a, b)
        assert fallbacks == [], (a, b)
    assert len(rejected) > 20
    assert [poly_gcd(*pair) for pair in pairs[-5:]] == [
        f**2, Poly([1]), Poly.x(2), Poly([-1, 1]), Poly([1, 1]),
    ]


def test_gcd_falls_back_to_euclid_above_the_evaluation_bound(monkeypatch):
    # coefficients of HEU_BITS/2 bits put xi * (degree + 1) past the bound:
    # GCDHEU gives up and Euclid computes the gcd
    fallbacks = _counted_heuristic(monkeypatch)
    rng = random.Random(33)
    A, B, C = (rng.getrandbits(polys.HEU_BITS // 4) for _ in range(3))
    a, b = Poly([A, 1]) * Poly([B, 1]), Poly([A, 1]) * Poly([-C, 1])
    assert poly_gcd(a, b) == Poly([A, 1])
    assert fallbacks
    # a planted failure: with one point allowed and GCDHEU's first point
    # rejected, Euclid also runs
    fallbacks.clear()
    monkeypatch.setattr(polys, "HEU_TRIES", 1)
    a, b = Poly([-6, -3, -2, 5, 0, 2]), Poly([6, 9, -4, 12, -2, 3])
    assert poly_gcd(a, b) == _euclid_gcd(a, b) == oracles.monic(Poly([3, 0, 1]))
    assert fallbacks


def test_euclid_fallback_matches_the_fraction_oracle(monkeypatch):
    # with GCDHEU failing on every pair, poly_gcd is its Euclid over Z (a
    # primitive remainder sequence), which must give the monic gcd that
    # Euclid over Q gives, on the planted pairs and on edge cases
    fallbacks = []
    # every GCDHEU call fails: list.append returns None
    monkeypatch.setattr(polys, "_heuristic_gcd", lambda a, b: fallbacks.append((a, b)))
    pairs = list(_gcd_pairs(random.Random(34)))
    f = Poly([1, -3, 1])
    pairs += [
        (f**3 * Poly([2, 1]), f**2 * Poly([-5, 1]) ** 2),              # repeated factors
        (f**4, f**2 * Poly([Fraction(-1, 3), 1])),
        (-Poly([-2, -1, 1]), -Poly([1, 3, 2]) * Fraction(7, 2)),       # negative leads
        (Poly(), f * Poly([0, 1])),                                     # a zero side
        (Poly([0, 3, 0, 2]) * f, Poly()),
        (Poly([Fraction(-5, 7)]), f),                                   # a constant side
        (Poly(), Poly()),                                               # both zero
    ]
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            want = oracles.fraction_poly_gcd(
                oracles.FractionPoly(x.coeffs), oracles.FractionPoly(y.coeffs))
            assert poly_gcd(x, y) == Poly(want.coeffs), (x, y)
    assert len(fallbacks) > 600


def test_polynomial_paths_make_no_gcd_calls(monkeypatch):
    # the gcd with a constant is 1: a constant denominator, a sum of
    # polynomials and prim of rows whose common factor is a power of x
    # must not ask for it
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr(polys, "poly_gcd", counted)
    monkeypatch.setattr(weylalg, "poly_gcd", counted)
    monkeypatch.setattr(oracles, "poly_gcd", counted)
    # nor do the products of polynomial operators, those of parse included
    op = weylalg.parse("x^2*D^2 + 3*x*D + x")
    assert op * op == op ** 2 and (op * op).is_polynomial()
    p, q = Poly([1, 2, 3]), Poly([Fraction(-1, 2), 0, 5])
    assert RatFunc(p, Poly([Fraction(3, 7)])).num == Poly([Fraction(7, 3), Fraction(14, 3), 7])
    assert RatFunc(p, 5).den == 1
    assert RatFunc(p) + RatFunc(q) == RatFunc(p + q)
    assert calls == []
    # prim of x (x D^2 + 3 D + 1): the common power of x is a slice of the
    # rows, which leaves the constant 1, so no gcd is asked for
    assert weylalg.prim(op) == weylalg.parse("x*D^2 + 3*D + 1")
    assert calls == []
    # prim of (x - 1)(x D + 2): the gcd of the rows 2x - 2 and x^2 - x,
    # shortest first, is x - 1 after one call, and divides both over Z
    assert weylalg.prim(weylalg.parse("(x - 1)*(x*D + 2)")) == weylalg.parse("x*D + 2")
    assert calls == [(Poly([-2, 2]), Poly([0, -1, 1]))]
