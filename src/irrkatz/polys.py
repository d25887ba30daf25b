"""Dense univariate polynomials and rational functions over exact rationals.

Internal plumbing for the operator algebra: nothing here knows about
differential operators.  Polynomials are dense coefficient tuples, lowest
degree first; rational functions are reduced fractions of polynomials with
a monic denominator, so equality is structural.  Rational roots are found
exactly by p-adic expansion (Loos, SIAM J. Comput. 12(2), 1983): roots
modulo a small prime, Hensel-lifted and read back by rational
reconstruction, each one checked over Z.

Normalization is skipped where it cannot change the result.  The gcd with
a nonzero constant is 1, so a constant denominator only divides the
numerator.  Two fractions over the same denominator add without a
cross-multiplication: the reduced form with a monic denominator is
unique.  A product with the constant 1 is the other factor, shared as
``Poly`` is immutable.  Coefficients that already are ``Fraction``s are
kept, not rebuilt.  Every polynomial ``RatFunc`` holds the one shared
denominator :data:`UNIT`, so building one allocates no denominator, and
one built over ``UNIT`` skips the normalization altogether.  Division by a
monomial ``a*x^d`` (the denominators of the chart at infinity and of the
twists at 0) is a slice: the quotient is ``coeffs[d:]/a``, the remainder
``coeffs[:d]``.  The Taylor shift and the order at a root are synthetic,
in place on one list of coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd as int_gcd, isqrt
from typing import Iterable, Union

Scalar = Union[Fraction, int]


def _trim(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def pow_by_squaring(base, n: int, one):
    """``base**n`` for n >= 0, ``one`` at 0: from the top bit of n down,
    (bit_length(n) - 1) squarings and (popcount(n) - 1) products by base."""
    result = one if n == 0 else base
    for bit in bin(n)[3:]:
        result = result * result
        if bit == "1":
            result = result * base
    return result


class Poly:
    """Polynomial in one variable over Q, dense, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        object.__setattr__(
            self, "coeffs",
            _trim([c if type(c) is Fraction else Fraction(c) for c in coeffs]),
        )

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def const(c: Scalar) -> "Poly":
        return Poly([c])

    @staticmethod
    def x(power: int = 1) -> "Poly":
        return Poly([0] * power + [1])

    @staticmethod
    def monomial(coeff: Scalar, power: int) -> "Poly":
        return Poly([0] * power + [coeff])

    # -- basics -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "PolyLike") -> "Poly":
        if not isinstance(other, _POLY_OPERANDS):
            return NotImplemented
        a, b = self.coeffs, as_poly(other).coeffs
        return Poly([x + y for x, y in zip(a, b)] + list(a[len(b):] or b[len(a):]))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "PolyLike") -> "Poly":
        if not isinstance(other, _POLY_OPERANDS):
            return NotImplemented
        return self + (-as_poly(other))

    def __rsub__(self, other: "PolyLike") -> "Poly":
        if not isinstance(other, _POLY_OPERANDS):
            return NotImplemented
        return as_poly(other) + (-self)

    def __mul__(self, other: "PolyLike") -> "Poly":
        if not isinstance(other, _POLY_OPERANDS):
            return NotImplemented
        other = as_poly(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        if other.coeffs == (1,):
            return self
        if self.coeffs == (1,):
            return other
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return pow_by_squaring(self, n, Poly.const(1))

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d = other.degree
        lead = other.leading()
        if not any(other.coeffs[:d]):
            # a monomial lead*x^d: the quotient and remainder are slices
            high = self.coeffs[d:]
            return Poly(high if lead == 1 else [a / lead for a in high]), Poly(self.coeffs[:d])
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(rem) - d)
        for k in range(len(rem) - 1 - d, -1, -1):
            factor = q[k] = rem[k + d] / lead
            for j in range(d):
                rem[k + j] -= factor * other.coeffs[j]
        return Poly(q), Poly(rem[:d])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def eval(self, point: Scalar) -> Fraction:
        point = Fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def shift(self, c: Scalar) -> "Poly":
        """The polynomial q with q(y) = p(y + c) (Taylor shift); p itself
        at c = 0.  Synthetic: pass i divides by y - c in place and leaves
        the i-th Taylor coefficient in slot i."""
        if c == 0:
            return self
        c = Fraction(c)
        a = list(self.coeffs)
        for i in range(len(a) - 1):
            for k in range(len(a) - 2, i - 1, -1):
                a[k] += c * a[k + 1]
        return Poly(a)

    def reverse(self, at_degree: int | None = None) -> "Poly":
        """Coefficient reversal: x^n * p(1/x) for n = at_degree (default deg p)."""
        n = self.degree if at_degree is None else at_degree
        if n < self.degree:
            raise ValueError("reversal degree below actual degree")
        out = [Fraction(0)] * (n + 1)
        for k, c in enumerate(self.coeffs):
            out[n - k] = c
        return Poly(out)

    def order_at(self, c: Scalar) -> int:
        """Multiplicity of the root x = c (0 if p(c) != 0); error on zero.
        At c = 0 it is the number of low zero coefficients."""
        if self.is_zero():
            raise ValueError("order of the zero polynomial")
        if c == 0:
            return next(k for k, a in enumerate(self.coeffs) if a)
        c = Fraction(c)
        a = list(self.coeffs)
        for m in range(len(a)):
            # synthetic division by x - c: the quotient in a[1:], p(c) in a[0]
            for k in range(len(a) - 2, -1, -1):
                a[k] += c * a[k + 1]
            if a[0]:
                return m
            del a[0]

    # -- integer structure --------------------------------------------------

    def int_content_and_primitive(self) -> tuple[Fraction, "Poly"]:
        """Write p = r * q with q in Z[x], content 1, positive leading coeff."""
        if self.is_zero():
            return Fraction(0), Poly()
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // int_gcd(den, c.denominator)
        ints = [c * den for c in self.coeffs]
        num = 0
        for c in ints:
            num = int_gcd(num, int(c))
        if ints[-1] < 0:
            num = -num
        r = Fraction(num, den)
        return r, Poly([c / r for c in self.coeffs])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading()
        return Poly([c / lead for c in self.coeffs])

    def rational_roots(self) -> dict[Fraction, int]:
        """All rational roots with multiplicities, by p-adic expansion.

        Loos, "Computing rational zeros of integral polynomials by p-adic
        expansion", SIAM J. Comput. 12(2), 1983: after the factor x^k, the
        square-free part f of the primitive part is reduced modulo the
        smallest odd prime p that leaves lc(f) a unit and every root mod p
        simple.  Each root mod p is Newton-lifted until p^e > 2|f(0)||lc(f)|
        and read back as a/b with |a| <= |f(0)| and 0 < b <= |lc(f)|; a
        candidate counts only if f(a/b) = 0 exactly.  The roots come 0
        first, then by (|a|, b, a < 0): the order of the rational root
        theorem's divisor enumeration.
        """
        if self.is_zero():
            raise ValueError("roots of the zero polynomial")
        low = 0
        while self.coeffs[low] == 0:
            low += 1
        roots = {Fraction(0): low} if low else {}
        _, zp = Poly(self.coeffs[low:]).int_content_and_primitive()
        if zp.degree == 0:
            return roots
        _, sf = (zp // poly_gcd(zp, zp.derivative())).int_content_and_primitive()
        found = _lifted_roots([int(c) for c in sf.coeffs])
        for root in sorted(found, key=lambda q: (abs(q.numerator), q.denominator, q < 0)):
            roots[root] = zp.order_at(root)
        return roots

    # -- text ---------------------------------------------------------------

    def format(self, var: str = "x") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                xk = var if k == 1 else f"{var}^{k}"
                body = xk if abs(c) == 1 else f"{abs(c)}*{xk}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Poly({self.format()})"


PolyLike = Union[Poly, Fraction, int]
#: The operands ``Poly`` arithmetic coerces; any other operand gets
#: ``NotImplemented``, so its own reflected method can answer.
_POLY_OPERANDS = (Poly, Fraction, int)


def as_poly(value: PolyLike) -> Poly:
    if isinstance(value, Poly):
        return value
    return Poly.const(value)


def _eval_mod(f: list[int], r: int, m: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * r + c) % m
    return acc


def _lifted_roots(f: list[int]) -> list[Fraction]:
    """Rational roots of a square-free f in Z[x] (lowest degree first,
    f(0) != 0), by lifting the roots modulo a good prime."""
    a0, lead = abs(f[0]), abs(f[-1])
    df = [k * c for k, c in enumerate(f)][1:]
    p = 3
    while True:
        if lead % p and all(p % q for q in range(3, isqrt(p) + 1, 2)):
            residues = [r for r in range(p) if _eval_mod(f, r, p) == 0]
            if all(_eval_mod(df, r, p) for r in residues):
                break
        p += 2
    bound = 2 * a0 * lead
    n = len(f) - 1
    out = []
    for r in residues:
        m = p
        while m <= bound:
            m *= m
            r = (r - _eval_mod(f, r, m) * pow(_eval_mod(df, r, m), -1, m)) % m
        # half-extended Euclid: the unique a = b*r (mod m) with |a| <= a0
        r0, r1, t0, t1 = m, r, 0, 1
        while r1 > a0:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        a, b = (r1, t1) if t1 > 0 else (-r1, -t1)
        if (
            a and b <= lead and a0 % a == 0 and lead % b == 0
            and sum(c * a**k * b ** (n - k) for k, c in enumerate(f)) == 0
        ):
            out.append(Fraction(a, b))
    return out


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q[x].  With a monomial c*x^k on one side it is
    x^min(k, v), v the order at 0 of the other side, without division."""
    for mono, other in ((a, b), (b, a)):
        if mono.coeffs and not any(mono.coeffs[:-1]) and other.coeffs:
            return Poly.x(min(mono.degree, other.order_at(0)))
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


@cache
def falling_factorial(j: int) -> Poly:
    """t (t-1) ... (t-j+1) as a polynomial in t; 1 for j = 0.  Memoized:
    one row per rank a θ-expansion reaches, filled on first use."""
    out = Poly.const(1)
    for k in range(j):
        out = out * Poly([-k, 1])
    return out


#: The denominator of every polynomial ``RatFunc``: one shared object.
UNIT = Poly.const(1)


class RatFunc:
    """Reduced fraction num/den of polynomials, den monic and nonzero; a
    constant denominator is always :data:`UNIT`."""

    __slots__ = ("num", "den")

    def __init__(self, num: PolyLike, den: PolyLike = UNIT):
        num = as_poly(num)
        if den is not UNIT:
            den = as_poly(den)
            if den.is_zero():
                raise ZeroDivisionError("rational function with zero denominator")
            if num.is_zero():
                den = UNIT
            else:
                if den.degree > 0:
                    g = poly_gcd(num, den)
                    if g.degree > 0:
                        num = num // g
                        den = den // g
                lead = den.leading()
                if lead != 1:
                    num = num * (1 / lead)
                    den = den.monic()
                if den.degree == 0:
                    den = UNIT
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @staticmethod
    def of(value: "RatLike") -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        return RatFunc(as_poly(value))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.degree == 0

    def as_poly(self) -> Poly:
        if not self.is_poly():
            raise ValueError(f"{self} is not a polynomial")
        return self.num

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Poly)):
            other = RatFunc.of(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other: "RatLike") -> "RatFunc":
        if not isinstance(other, _RAT_OPERANDS):
            return NotImplemented
        other = RatFunc.of(other)
        if self.den is other.den or self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatLike") -> "RatFunc":
        if not isinstance(other, _RAT_OPERANDS):
            return NotImplemented
        return self + (-RatFunc.of(other))

    def __rsub__(self, other: "RatLike") -> "RatFunc":
        if not isinstance(other, _RAT_OPERANDS):
            return NotImplemented
        return RatFunc.of(other) + (-self)

    def __mul__(self, other: "RatLike") -> "RatFunc":
        if not isinstance(other, _RAT_OPERANDS):
            return NotImplemented
        other = RatFunc.of(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RatLike") -> "RatFunc":
        if not isinstance(other, _RAT_OPERANDS):
            return NotImplemented
        other = RatFunc.of(other)
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: "RatLike") -> "RatFunc":
        if not isinstance(other, _RAT_OPERANDS):
            return NotImplemented
        return RatFunc.of(other) / self

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return RatFunc(self.den ** (-n), self.num ** (-n))
        return RatFunc(self.num ** n, self.den ** n)

    def derivative(self) -> "RatFunc":
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def format(self, var: str = "x") -> str:
        if self.is_poly():
            return self.num.format(var)
        return f"({self.num.format(var)})/({self.den.format(var)})"

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"RatFunc({self.format()})"


RatLike = Union[RatFunc, Poly, Fraction, int]
#: The operands ``RatFunc`` arithmetic coerces, as ``_POLY_OPERANDS``.
_RAT_OPERANDS = (RatFunc, Poly, Fraction, int)
