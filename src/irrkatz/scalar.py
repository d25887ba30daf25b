"""Exact scalars: rational numbers and affine expressions in named parameters.

Everything downstream works over the field Q extended by finitely many
formal parameters.  All the transforms we implement move characteristic
exponents by affine maps, so affine expressions ``c0 + sum(ci * name_i)``
with rational coefficients are closed under every operation we need.

Rationals entering and leaving the package are :class:`fractions.Fraction`
(always reduced, positive denominator).  :class:`ParamExpr`, the affine
expression type, is stored as ``polys.Poly`` is: integer numerators, the
constant's and one per parameter, over one positive denominator coprime to
their content.  Arithmetic runs on Python ints and normalizes each result
with one gcd; a sum with an integer needs none.  A ``Fraction`` is built
only where a value leaves the stage (:attr:`ParamExpr.const`,
:attr:`ParamExpr.terms`, :meth:`ParamExpr.as_rat`, the coefficients of
the text form), and a parameter-free value is read as its (numerator,
denominator) pair by :meth:`ParamExpr.as_pair` and built from one by
:meth:`ParamExpr.of_pair`.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Union

RatLike = Union[Fraction, int]


def _as_rat(value: RatLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational, got {value!r}")


class ParamExpr:
    """An affine expression ``const + sum(coeff[name] * name)``.

    Stored as ``(_c + sum(n * name for name, n in _t)) / _d``: the
    constant's numerator ``_c``, the (name, numerator) pairs ``_t`` sorted
    by name, and the denominator ``_d > 0``, with gcd 1 across all of them.
    Zero coefficients are never stored, so the triple is unique and
    structural equality is semantic equality.  Instances are immutable and
    hashable.
    """

    __slots__ = ("_c", "_t", "_d")

    def __init__(self, const: RatLike = 0, terms: Mapping[str, RatLike] | None = None):
        const = _as_rat(const)
        items = [(name, c) for name, c in sorted((terms or {}).items()) if _as_rat(c)]
        d = lcm(const.denominator, *(c.denominator for _, c in items))
        # the lcm of reduced denominators leaves the numerators coprime to it
        _SET_C(self, const.numerator * (d // const.denominator))
        _SET_T(self, tuple((name, c.numerator * (d // c.denominator)) for name, c in items))
        _SET_D(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("ParamExpr is immutable")

    @staticmethod
    def param(name: str) -> "ParamExpr":
        """The bare parameter ``name``."""
        return _expr(0, ((name, 1),), 1)

    @staticmethod
    def of_pair(a: int, b: int) -> "ParamExpr":
        """The constant a/b of a coprime pair with b > 0, as
        :meth:`as_pair` reads it back; no ``Fraction`` is built."""
        return _expr(a, (), b)

    @staticmethod
    def of(value: "ParamLike") -> "ParamExpr":
        if isinstance(value, ParamExpr):
            return value
        if type(value) is int:
            return _expr(value, (), 1)
        value = _as_rat(value)
        return _expr(value.numerator, (), value.denominator)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "ParamLike") -> "ParamExpr":
        if type(other) is int:
            # an integer keeps the numerators coprime to the denominator
            return _expr(self._c + other * self._d, self._t, self._d)
        return add_scaled(self, 1, ParamExpr.of(other))

    __radd__ = __add__

    def __neg__(self) -> "ParamExpr":
        return _expr(-self._c, tuple((name, -n) for name, n in self._t), self._d)

    def __sub__(self, other: "ParamLike") -> "ParamExpr":
        if type(other) is int:
            return _expr(self._c - other * self._d, self._t, self._d)
        return add_scaled(self, -1, ParamExpr.of(other))

    def __rsub__(self, other: "ParamLike") -> "ParamExpr":
        return -self + other

    def __mul__(self, scalar: RatLike) -> "ParamExpr":
        if type(scalar) is int:
            a, b = scalar, 1
        else:
            scalar = _as_rat(scalar)
            a, b = scalar.numerator, scalar.denominator
        if not a:
            return _expr(0, (), 1)
        return _reduced(self._c * a, _merged(self._t, (), a, 1), self._d * b)

    __rmul__ = __mul__

    # -- conversion -------------------------------------------------------

    @property
    def const(self) -> Fraction:
        """The constant term, a ``Fraction``."""
        return Fraction(self._c, self._d)

    @property
    def terms(self) -> dict[str, Fraction]:
        """The nonzero coefficients by parameter name, in name order, as
        ``Fraction``s."""
        return {name: Fraction(n, self._d) for name, n in self._t}

    def as_pair(self) -> tuple[int, int]:
        """The value of a parameter-free expression as its numerator and
        positive denominator, coprime."""
        if self._t:
            raise ValueError(f"{self} depends on parameters")
        return self._c, self._d

    def as_rat(self) -> Fraction:
        if self._t:
            raise ValueError(f"{self} depends on parameters")
        return self.const

    def residue_key(self) -> tuple:
        """A key that two expressions share exactly when they differ by an
        integer: the term numerators, the constant's numerator modulo the
        denominator, and the denominator.  (Equal terms and an integer
        difference of the constants give equal denominators.)"""
        return self._t, self._c % self._d, self._d

    def is_zero(self) -> bool:
        return not self._c and not self._t

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return not self._t and self._c == other.numerator and self._d == other.denominator
        if not isinstance(other, ParamExpr):
            return NotImplemented
        return self._c == other._c and self._d == other._d and self._t == other._t

    def __hash__(self):
        return hash((self._c, self._t, self._d))

    # -- text form --------------------------------------------------------

    def __str__(self) -> str:
        out = [_rat_text(self._c, self._d)]
        for name, coeff in self.terms.items():
            if coeff < 0:
                out.append(f"- {-coeff}*{name}")
            else:
                out.append(f"+ {coeff}*{name}")
        return " ".join(out)

    def __repr__(self) -> str:
        return f"ParamExpr({self!s})"


ParamLike = Union[ParamExpr, Fraction, int]

# the setters of the three slots, which the immutability guard does not see
_SET_C, _SET_T, _SET_D = (getattr(ParamExpr, slot).__set__ for slot in ParamExpr.__slots__)


def _rat_text(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for d > 0, without building the Fraction."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _expr(c: int, t: tuple[tuple[str, int], ...], d: int) -> ParamExpr:
    """The expression ``(c + sum(n * name)) / d`` of a triple already in
    the stored form."""
    expr = object.__new__(ParamExpr)
    _SET_C(expr, c)
    _SET_T(expr, t)
    _SET_D(expr, d)
    return expr


def _reduced(c: int, t: tuple[tuple[str, int], ...], d: int) -> ParamExpr:
    """``(c + sum(n * name)) / d`` for d > 0 and nonzero numerators in
    ``t``, sorted by name, divided by their gcd with ``d``: the one
    normalization of each operation."""
    if d != 1:
        g = gcd(d, c, *(n for _, n in t)) if t else gcd(d, c)
        if g != 1:
            c //= g
            d //= g
            if t:
                t = tuple((name, n // g) for name, n in t)
    return _expr(c, t, d)


def _merged(t1, t2, k1: int, k2: int) -> tuple[tuple[str, int], ...]:
    """The term numerators of ``k1 * t1 + k2 * t2`` for nonzero k1 and
    k2, the zeros of the sum dropped."""
    if not t2:
        return t1 if k1 == 1 else tuple((name, n * k1) for name, n in t1)
    if not t1:
        return t2 if k2 == 1 else tuple((name, n * k2) for name, n in t2)
    terms = {name: n * k1 for name, n in t1}
    for name, n in t2:
        terms[name] = terms.get(name, 0) + n * k2
    return tuple((name, n) for name, n in sorted(terms.items()) if n)


def add_scaled(value: ParamExpr, k: int, other: ParamExpr) -> ParamExpr:
    """``value + k * other`` for an integer k, on the stored integers: over
    a shared denominator the constant takes one multiply-add, otherwise
    both sides move to the product of the denominators; one gcd
    normalizes."""
    if not k:
        return value
    d1, d2 = value._d, other._d
    if d1 == d2:
        return _reduced(value._c + k * other._c, _merged(value._t, other._t, 1, k), d1)
    return _reduced(
        value._c * d2 + k * other._c * d1, _merged(value._t, other._t, d2, k * d1), d1 * d2
    )


_RAT_RE = r"-?\d+(?:/\d+)?"
_TERM_RE = re.compile(
    rf"^\s*({_RAT_RE})\s*(?:\*\s*([A-Za-z_][A-Za-z_0-9]*))?\s*"
)


def _numeral(text: str, field: str) -> Fraction:
    """The value of a numeral of the ``_RAT_RE`` grammar; a zero
    denominator or more digits than Python's limit on integer strings
    raises ``ValueError`` naming ``field``."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{field}: zero denominator in {text!r:.40}") from None
    except ValueError:
        raise ValueError(
            f"{field}: numeral with more than {sys.get_int_max_str_digits()} digits"
        ) from None


def parse_rat(text: str, field: str) -> Fraction:
    """Parse a rational ``p`` or ``p/q`` written in decimal digits, as a
    string.  Floats, decimals and exponent notation are refused, so
    Python's 4300-digit limit on integer strings bounds every numerator."""
    if not isinstance(text, str) or not re.fullmatch(_RAT_RE, text):
        raise ValueError(f"{field}: expected p or p/q in decimal digits, got {text!r:.40}")
    return _numeral(text, field)


def parse_param_expr(text: str, field: str) -> ParamExpr:
    """Parse the textual form ``<rat>`` or ``<rat> [+-] <rat>*<name> ...``;
    errors start with ``field``."""
    if not isinstance(text, str):
        raise ValueError(f"{field}: expected a string, got {text!r:.40}")
    rest = text.strip()
    if not rest:
        raise ValueError(f"{field}: empty scalar expression")
    const = Fraction(0)
    terms: dict[str, Fraction] = {}
    sign = 1
    first = True
    while rest:
        if not first:
            if rest[0] == "+":
                sign = 1
            elif rest[0] == "-":
                sign = -1
            else:
                raise ValueError(f"{field}: expected '+' or '-' in {text!r} at {rest!r}")
            rest = rest[1:]
        m = _TERM_RE.match(rest)
        if not m:
            raise ValueError(f"{field}: malformed scalar expression {text!r} at {rest!r}")
        coeff = _numeral(m.group(1), field) * sign
        name = m.group(2)
        if name is None:
            const += coeff
        else:
            terms[name] = terms.get(name, Fraction(0)) + coeff
        rest = rest[m.end():]
        first = False
        sign = 1
    return ParamExpr(const, terms)

