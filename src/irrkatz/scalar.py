"""Exact scalars: rational numbers and affine expressions in named parameters.

Everything downstream works over the field Q extended by finitely many
formal parameters.  All the transforms we implement move characteristic
exponents by affine maps, so affine expressions ``c0 + sum(ci * name_i)``
with rational coefficients are closed under every operation we need.

``Rat`` is an alias for :class:`fractions.Fraction` (always reduced,
positive denominator).  :class:`ParamExpr` is the affine expression type.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Mapping, Union

Rat = Fraction

RatLike = Union[Fraction, int]


def _as_rat(value: RatLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational, got {value!r}")


class ParamExpr:
    """An affine expression ``const + sum(coeff[name] * name)``.

    Zero coefficients are never stored, so structural equality is
    semantic equality.  Instances are immutable and hashable.
    """

    __slots__ = ("const", "terms")

    def __init__(self, const: RatLike = 0, terms: Mapping[str, RatLike] | None = None):
        object.__setattr__(self, "const", _as_rat(const))
        cleaned = {}
        if terms:
            for name, coeff in terms.items():
                coeff = _as_rat(coeff)
                if coeff != 0:
                    cleaned[name] = coeff
        object.__setattr__(self, "terms", dict(sorted(cleaned.items())))

    def __setattr__(self, name, value):
        raise AttributeError("ParamExpr is immutable")

    @staticmethod
    def param(name: str) -> "ParamExpr":
        """The bare parameter ``name``."""
        return ParamExpr(0, {name: 1})

    @staticmethod
    def of(value: "ParamLike") -> "ParamExpr":
        if isinstance(value, ParamExpr):
            return value
        return ParamExpr(_as_rat(value))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "ParamLike") -> "ParamExpr":
        other = ParamExpr.of(other)
        terms = dict(self.terms)
        for name, coeff in other.terms.items():
            terms[name] = terms.get(name, Fraction(0)) + coeff
        return ParamExpr(self.const + other.const, terms)

    __radd__ = __add__

    def __neg__(self) -> "ParamExpr":
        return ParamExpr(-self.const, {n: -c for n, c in self.terms.items()})

    def __sub__(self, other: "ParamLike") -> "ParamExpr":
        return self + (-ParamExpr.of(other))

    def __rsub__(self, other: "ParamLike") -> "ParamExpr":
        return ParamExpr.of(other) + (-self)

    def __mul__(self, scalar: RatLike) -> "ParamExpr":
        scalar = _as_rat(scalar)
        return ParamExpr(self.const * scalar, {n: c * scalar for n, c in self.terms.items()})

    __rmul__ = __mul__

    # -- conversion -------------------------------------------------------

    def as_rat(self) -> Fraction:
        if self.terms:
            raise ValueError(f"{self} depends on parameters")
        return self.const

    def is_zero(self) -> bool:
        return self.const == 0 and not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamExpr(other)
        if not isinstance(other, ParamExpr):
            return NotImplemented
        return self.const == other.const and self.terms == other.terms

    def __hash__(self):
        return hash((self.const, tuple(self.terms.items())))

    # -- text form --------------------------------------------------------

    def __str__(self) -> str:
        out = [str(self.const)]
        for name, coeff in self.terms.items():
            if coeff < 0:
                out.append(f"- {-coeff}*{name}")
            else:
                out.append(f"+ {coeff}*{name}")
        return " ".join(out)

    def __repr__(self) -> str:
        return f"ParamExpr({self!s})"


ParamLike = Union[ParamExpr, Fraction, int]

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


def is_generically_integer(e: ParamLike) -> bool:
    """True iff ``e`` is an integer for generic parameter values.

    Any parameter dependence makes the value non-integer: parameters stand
    for generic points of the ground field.
    """
    e = ParamExpr.of(e)
    return not e.terms and e.const.denominator == 1


def diff_in_integers(e1: ParamLike, e2: ParamLike) -> bool:
    """True iff ``e1 - e2`` is generically an integer."""
    return is_generically_integer(ParamExpr.of(e1) - ParamExpr.of(e2))


def diff_in_nonzero_integers(e1: ParamLike, e2: ParamLike) -> bool:
    """True iff ``e1 - e2`` is generically a *nonzero* integer.

    Companion to :func:`diff_in_integers`; some hypotheses in the
    literature exclude only nonzero integer differences.
    """
    d = ParamExpr.of(e1) - ParamExpr.of(e2)
    return is_generically_integer(d) and not d.is_zero()
