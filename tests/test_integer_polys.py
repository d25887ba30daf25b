"""``Poly`` on integer numerators over one denominator, and the row
kernels of ``weylalg`` on integer rows.

``Poly`` is checked against ``oracles.FractionPoly``, the same operations on
``Fraction`` tuples: every operation and ``poly_gcd``, on zero, constant and
monomial polynomials, negative leading coefficients, and points and
divisors whose denominators are not 1.  The kernels and ``prim`` are
checked by structure: under ``sys.setprofile`` a reduction of nF(4) makes
no call into ``fractions`` from their frames, so a return to ``Fraction``
rows fails here and not only in the benchmark.  Parse on the ``analyze_mix``
texts and that reduction run parse, its row helpers, the operator product
and power and the kernels; no module of the package defines a
``RatFunc``, so none of them can build one.
"""

import fractions
import importlib
import pkgutil
import random
import sys
from fractions import Fraction
from math import gcd

import irrkatz
import oracles
from irrkatz import weylalg
from conftest import bench_texts
from irrkatz.polys import Poly, from_row, poly_gcd, primitive
from irrkatz.reduce import reduce_operator
from oracles import FractionPoly, fraction_poly_gcd, leading, poly_eval

#: Points with denominator 1 and not; the roots planted in the test
#: polynomials are drawn from them.
POINTS = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-3, 4),
          Fraction(5, 3), Fraction(-7, 6)]


def _scalar(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        c = Fraction(rng.randint(-12, 12), rng.choice([1, 1, 2, 3, 6, 35]))
        if c or not nonzero:
            return c


def _coeffs(rng: random.Random, k: int) -> list[Fraction]:
    """By case number: zero, a constant, a monomial, a negative leading
    coefficient, a product of planted roots, or any dense polynomial."""
    kind = k % 6
    if kind == 0:
        return []
    if kind == 1:
        return [_scalar(rng, True)]
    if kind == 2:
        return [0] * rng.randint(1, 4) + [_scalar(rng, True)]
    if kind == 3:
        return [_scalar(rng) for _ in range(rng.randint(0, 4))] + [-abs(_scalar(rng, True))]
    if kind == 4:
        p = FractionPoly([_scalar(rng, True)])
        for _ in range(rng.randint(1, 4)):
            p = p * FractionPoly([-rng.choice(POINTS), 1])
        return list(p.coeffs)
    return [_scalar(rng) for _ in range(rng.randint(1, 7))]


def _pair(rng: random.Random, k: int) -> tuple[Poly, FractionPoly]:
    cs = _coeffs(rng, k)
    return Poly(cs), FractionPoly(cs)


def _same(new, old) -> None:
    """``new`` holds ``old``'s coefficients, in the unique normal form."""
    if isinstance(new, tuple):
        for a, b in zip(new, old, strict=True):
            _same(a, b)
        return
    assert new.coeffs == old.coeffs
    assert all(type(c) is Fraction for c in new.coeffs)
    n, d = new._n, new._d
    assert all(type(a) is int for a in n) and type(d) is int and d > 0
    assert (not n or n[-1] != 0) and gcd(d, *n) == 1
    assert new == Poly(old.coeffs) and hash(new) == hash(Poly(old.coeffs))


def test_poly_matches_the_fraction_tuple_oracle():
    for k in range(600):
        rng = random.Random(k)
        (p, fp), (q, fq) = _pair(rng, k), _pair(rng, k // 6 + rng.randint(0, 5))
        c = rng.choice([0, 1, -3, _scalar(rng), rng.choice(POINTS)])
        assert (p.degree, leading(p), p[0], p[2], p[-1]) == (
            fp.degree, fp.leading(), fp[0], fp[2], fp[-1]), k
        for new, old in (
            (p + q, fp + fq), (p - q, fp - fq), (-p, -fp), (p * q, fp * fq),
            (p + c, fp + c), (c + p, fp + c), (p - c, fp - c), (c - p, FractionPoly([c]) - fp),
            (p * c, fp * c), (c * p, fp * c), (p ** (k % 4), fp ** (k % 4)),
            (p.derivative(), fp.derivative()), (oracles.monic(p), fp.monic()),
            (oracles.reverse(p), fp.reverse()),
            (oracles.reverse(p, p.degree + 2), fp.reverse(fp.degree + 2)),
        ):
            _same(new, old)
        assert p + q - q == p and hash(p * q + q - q * (p + 1)) == hash(Poly())
        if not p.is_zero():
            _same(from_row(primitive(p._n)), fp.int_content_and_primitive()[1])
        for at in {*POINTS, c}:
            assert poly_eval(p, at) == fp.eval(at), k
            _same(p.shift(at), fp.shift(at))
            if not p.is_zero():
                assert p.order_at(at) == fp.order_at(at), k
        if not p.is_zero():
            assert p.rational_roots() == oracles.pair_keys(fp.rational_roots()), k
        # divisors: q itself, monomials with a leading coefficient not 1,
        # and x - c for a point c with a denominator
        divisors = [(q, fq), (Poly([0] * (k % 3) + [Fraction(-3, 5)]), FractionPoly(
            [0] * (k % 3) + [Fraction(-3, 5)])), (Poly([-c, 1]), FractionPoly([-c, 1]))]
        for (b, fb) in divisors:
            if b.is_zero():
                continue
            _same(poly_gcd(p, b), fraction_poly_gcd(fp, fb))
            _same(poly_gcd(b, p), fraction_poly_gcd(fb, fp))
            # a common factor with a denominator, so the gcd is not 1
            shared = Poly([rng.choice(POINTS), Fraction(2, 3)])
            _same(poly_gcd(p * shared, b * shared),
                  fraction_poly_gcd(fp * FractionPoly(shared.coeffs), fb * FractionPoly(shared.coeffs)))


#: The row kernels, and ``prim``: they read each ``Poly`` as integer
#: numerators over one denominator and build each output ``Poly`` once.
KERNELS = (weylalg._shift_d, weylalg.theta_expand, weylalg.subst_infty, weylalg._fourier,
           weylalg.DiffOperator.__mul__, weylalg._add_product, weylalg.prim)

#: nF(4) with parameters over 5, 3, 2, 7, 11, 13 and 17.
NF4 = ("x*D*(x*D - 4/5)*(x*D - 2/3)*(x*D - 1/2)"
       " - x*(x*D + 1/7)*(x*D + 2/11)*(x*D + 3/13)*(x*D + 5/17)")


def test_row_kernels_call_no_fraction_arithmetic():
    kernels = {f.__code__ for f in KERNELS}
    ran, calls = set(), []

    def profile(frame, event, arg):
        if event != "call":
            return
        ran.add(frame.f_code)
        caller = frame.f_back
        # a comprehension's frame belongs to the function it is written in
        while caller is not None and caller.f_code.co_name.startswith("<"):
            caller = caller.f_back
        if (caller is not None and caller.f_code in kernels
                and frame.f_code.co_filename == fractions.__file__):
            calls.append(f"{caller.f_code.co_name} -> fractions.{frame.f_code.co_name}")

    sys.setprofile(profile)
    try:
        result = reduce_operator(weylalg.parse(NF4))
    finally:
        sys.setprofile(None)
    assert result.final.rank == 1
    assert kernels <= ran
    assert calls == []


#: parse and its row helpers, the ring methods of ``DiffOperator`` and the
#: kernels: they read and write integer rows.
ROW_CODE = (
    weylalg.parse, weylalg._add_rows, weylalg._times, weylalg._power,
    weylalg.DiffOperator.__mul__, weylalg.DiffOperator.__pow__, weylalg.DiffOperator.of,
    *KERNELS,
)


def test_operator_rows_build_no_ratfunc():
    modules = [importlib.import_module(info.name)
               for info in pkgutil.iter_modules(irrkatz.__path__, "irrkatz.")]
    assert not [m.__name__ for m in modules if hasattr(m, "RatFunc")]
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    texts = bench_texts("analyze_mix")
    sys.setprofile(profile)
    try:
        for text in texts:
            weylalg.parse(text)
        result = reduce_operator(weylalg.parse(NF4))
    finally:
        sys.setprofile(None)
    assert result.final.rank == 1
    assert {f.__code__ for f in ROW_CODE} <= ran
