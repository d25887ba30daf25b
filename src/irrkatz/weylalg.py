"""Exact differential operators in one variable over Q.

Operators are sums ``a_0 + a_1*D + ... + a_n*D^n`` kept in normal form (all
powers of D commuted to the right) under the relation ``x*D - D*x = -1``.
Their coefficients are polynomials, so they lie in the Weyl algebra,
except just after a twist or the chart at infinity: those make rational
coefficients, which the twists, the translation, :func:`theta_expand` and
:func:`prim` read and nothing multiplies.  On top of the product this module provides the
local invariants (weights, characteristic polynomials, Newton polygons,
theta expansions) and the global transforms (primitive component,
additions, exponential twists, Fourier-Laplace, Euler).

Points are either finite rationals or the point at infinity (``INF``).
Local analysis runs at the point 0, on a chart operator
(:func:`local_chart`): a finite point c is brought there by the
translation ``x -> x + c`` (:func:`translate`), infinity by the involution
``x -> 1/x, D -> -x^2*D`` (:func:`subst_infty`).  :func:`theta_expand` is
the only local computation that reads an operator's coefficients; the
weight (``min_index``), :func:`char_poly`, :func:`newton_polygon` and
:func:`is_regular_singular` read the :class:`ThetaExpansion` it returns.

The coordinate changes (the charts, the twists, Fourier-Laplace and so
Euler) are coefficient formulas; none multiplies operators:

- the translation shifts every coefficient, ``a_i(x) -> a_i(x + c)``, by
  :meth:`Poly.shift`, the one Taylor shift;
- a twist D -> D - f is conjugation by e^F with F' = f, so
  ``(D - f)^i = sum_j C(i, j) Y_j D^(i-j)`` with ``Y_0 = 1`` and
  ``Y_(j+1) = Y_j' - f Y_j`` (:func:`_shift_d`, shared by :func:`ad_power`,
  where ``Y_j = (-lam)(-lam-1)...(-lam-j+1)/x^j``, and
  :func:`ad_exp_raw`); it runs at 0, so a twist at c is translated there
  and back;
- the chart at infinity uses ``(-x^2 D)^i = (-1)^i sum_k L(i, k) x^(i+k)
  D^k`` with the Lah numbers ``L(i, k) = C(i-1, k-1) i!/k!``;
- Fourier-Laplace sends ``a x^k D^i`` to ``+-a D^k x^i`` and normal-orders
  by ``D^k x^i = sum_j C(k, j) i(i-1)...(i-j+1) x^(i-j) D^(k-j)``
  (:func:`_fourier`, shared by :func:`laplace` and :func:`laplace_inv`).

Normal forms are unique, so these agree exactly with multiplying out the
images.

An operator ``sum_i N_i D^i / (d M)`` is held as one row of integer
coefficients per N_i, one integer d and one monic ``Poly`` M, 1 for
polynomial operators; this is its only form, and :func:`to_text` reads a
coefficient off its row.  The product, :func:`parse` and these kernels
work on the rows and normalize each result once (``_operator``);
:func:`_add_product` adds a scaled product of two rows at an offset.  The
twists and the chart at infinity keep pole orders away from 0, so only the
power of x dividing every row cancels, a slice of each row.  In
:func:`_shift_d` the numerators P_j of the Y_j are integer rows, one
integer scale M per step of their recurrence (integer constants for
:func:`ad_power`), and each term ``C(m+j, j) N_(m+j) P_j x^(e(J-j))``, J
the rank, is added at the offset ``e(J-j)``.  The chart at infinity adds
each Lah term, a reversed row times one integer, at the offset ``i + k``,
and the theta expansion each falling factorial times one integer, both
inline.

The product (``DiffOperator.__mul__``) is of polynomial operators: with
``P = sum_i N_i D^i`` and ``Q = sum_j K_j D^j``, the Leibniz rule ``D^i b =
sum_k C(i, k) b^(k) D^(i-k)`` makes the coefficient of D^m
``sum_(i-k+j=m) C(i, k) N_i K_j^(k)``.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain
from math import comb, factorial, gcd as int_gcd, lcm, perm
from typing import Iterable, Mapping, Union

from .polys import (
    UNIT, Poly, exact_quotient, falling_factorial, from_row, poly_gcd, pow_by_squaring, shift_row,
)
from .scalar import ParamExpr, parse_rat


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()

Location = Union[Fraction, _Infinity]


def location_key(at: Location) -> tuple:
    """Sort key putting infinity first, then finite points in order."""
    if at is INF:
        return (0,)
    return (1, at)


def format_location(at: Location) -> str:
    return "inf" if at is INF else str(at)


def parse_location(text: str) -> Location:
    if text == "inf":
        return INF
    return parse_rat(text, "location")


class OperatorSyntaxError(ValueError):
    """Raised on malformed operator text; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True, init=False, repr=False)
class DiffOperator:
    """A differential operator in normal form; immutable.

    ``sum_i N_i D^i / (d M)``: ``_rows`` are the N_i, trimmed integer rows;
    ``_d`` = d > 0; ``_den`` = M is monic, :data:`UNIT` for polynomial
    operators.  gcd(content, d) = 1 and gcd(M, N_0, ..., N_n) = 1, so the
    form is unique.  :func:`_operator` builds one from rows.
    """

    __slots__ = ("_rows", "_d", "_den")
    _rows: tuple[tuple[int, ...], ...]
    _d: int
    _den: Poly

    def __init__(self, *args, **kwargs):
        raise TypeError(
            "DiffOperator has no public constructor: build operators with parse, X, D "
            "and DiffOperator.of"
        )

    def _set(self, rows, d: int, den: Poly) -> "DiffOperator":
        """Hold ``sum_i rows[i] D^i / (d den)``, for d > 0 and den monic and
        coprime to the rows: trimmed, and reduced by one integer gcd."""
        out = []
        for row in rows:
            if row and not row[-1]:
                row = list(row)
                while row and not row[-1]:
                    row.pop()
            out.append(tuple(row))
        while out and not out[-1]:
            out.pop()
        g = int_gcd(d, *chain.from_iterable(out)) if d != 1 else 1
        if g != 1:
            out, d = [tuple(a // g for a in row) for row in out], d // g
        object.__setattr__(self, "_rows", tuple(out))
        object.__setattr__(self, "_d", d)
        object.__setattr__(self, "_den", den if out and den.degree > 0 else UNIT)
        return self

    @staticmethod
    def of(value: "OpLike") -> "DiffOperator":
        if isinstance(value, DiffOperator):
            return value
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"not an operator, int or Fraction: {value!r}")
        return _operator([(value.numerator,)], value.denominator)

    def is_zero(self) -> bool:
        return not self._rows

    @property
    def rank(self) -> int:
        """Degree in D; raises on the zero operator."""
        if not self._rows:
            raise ValueError("rank of the zero operator")
        return len(self._rows) - 1

    def leading(self) -> Poly:
        """The coefficient of the highest power of D, of a polynomial
        operator."""
        if not self._rows:
            raise ValueError("leading coefficient of the zero operator")
        if self._den is not UNIT:
            raise ValueError("leading coefficient of an operator with a denominator")
        return from_row(list(self._rows[-1]), self._d)

    def is_polynomial(self) -> bool:
        return self._den is UNIT

    def __bool__(self) -> bool:
        return bool(self._rows)

    # -- ring structure ---------------------------------------------------

    def __mul__(self, other: "OpLike") -> "DiffOperator":
        # the Leibniz rule of the module docstring on integer rows: each
        # K_j^(k) once, then added under every N_i with i >= k
        other = DiffOperator.of(other)
        if self._den is not UNIT or other._den is not UNIT:
            raise ValueError("operator product needs polynomial coefficients")
        if not self._rows or not other._rows:
            return _operator([])
        top = len(self._rows) - 1
        rights = []
        for j, r in enumerate(other._rows):
            for k in range(top + 1):
                if k:
                    r = [i * a for i, a in enumerate(r)][1:]
                if not r:
                    break
                rights.append((j, k, r))
        width = max(map(len, self._rows)) + max(len(r) for _, _, r in rights)
        rows = [[0] * width for _ in range(top + len(other._rows))]
        for j, k, right in rights:
            for i, a in enumerate(self._rows[k:], k):
                _add_product(rows[i - k + j], a, right, comb(i, k))
        return _operator(rows, self._d * other._d)

    def __pow__(self, n: int) -> "DiffOperator":
        if n < 0:
            raise ValueError("negative operator power")
        return pow_by_squaring(self, n, DiffOperator.of(1))

    # -- text -------------------------------------------------------------

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"DiffOperator({to_text(self)})"


OpLike = Union[DiffOperator, Fraction, int]


def _operator(rows: list, d: int = 1, den: Poly = UNIT) -> DiffOperator:
    """The operator ``sum_i rows[i] D^i / (d den)``: the one normalization
    of each operation (``DiffOperator._set``)."""
    return object.__new__(DiffOperator)._set(rows, d, den)


def _add_rows(a, da: int, b, db: int, sign: int) -> tuple[list, int]:
    """``a/da + sign*b/db`` for lists of coefficient rows: the rows over
    lcm(da, db), trimmed."""
    d = lcm(da, db)
    width = max(map(len, (*a, *b)), default=0)
    rows = [[0] * width for _ in range(max(len(a), len(b)))]
    for src, scale in ((a, d // da), (b, sign * (d // db))):
        for row, r in zip(rows, src):
            for k, x in enumerate(r):
                row[k] += scale * x
    for row in rows:
        while row and not row[-1]:
            row.pop()
    while rows and not rows[-1]:
        rows.pop()
    return rows, d


def _add_product(row: list, a, b, scale=1, offset: int = 0) -> list:
    """``row[offset + s + t] += scale * a[s] * b[t]`` over the nonzero
    entries: a scaled product of two coefficient rows, added in place."""
    b = [(t, y) for t, y in enumerate(b) if y]
    for s, x in enumerate(a, offset):
        if x:
            if scale != 1:
                x = scale * x
            for t, y in b:
                row[s + t] += x * y
    return row


def _product(a, b) -> list:
    """The product of two coefficient rows, as a new list; trimmed when
    both are."""
    return _add_product([0] * (len(a) + len(b) - 1), a, b)

X = _operator([(0, 1)])
D = _operator([(), (1,)])


def _coefficient(row, d: int, den: Poly) -> tuple[str, Poly]:
    """The coefficient ``row/(d den)`` of a nonzero row in lowest terms, by
    one gcd: its text, ``num`` or ``(num)/(den)``, and its monic
    denominator."""
    num = from_row(list(row), d)
    if den.degree > 0:
        g = poly_gcd(num, den)
        if g.degree > 0:
            num, den = num // g, den // g
    if den.degree > 0:
        return f"({num})/({den})", den
    return str(num), den


def to_text(p: DiffOperator) -> str:
    """Canonical serialization: ``(c)*D^i`` terms, lowest i first, each
    coefficient c in lowest terms (:func:`_coefficient`)."""
    if p.is_zero():
        return "0"
    parts = []
    for i, row in enumerate(p._rows):
        if not row:
            continue
        body = _coefficient(row, p._d, p._den)[0]
        if i == 0:
            parts.append(f"({body})")
        elif i == 1:
            parts.append(f"({body})*D")
        else:
            parts.append(f"({body})*D^{i}")
    return " + ".join(parts)


# -- parser ----------------------------------------------------------------

#: Largest rank and largest coefficient degree that operator text may
#: describe; larger input is an ``OperatorSyntaxError``.  Without it a few
#: characters (``x^1000000000``) ask for a dense power of any size.  The
#: bound limits the size of an operator, not the time its analysis takes.
MAX_DEGREE = 32

#: Most levels operator text may nest: each ``(`` and each unary sign opens
#: one until its factor is complete.  Deeper text is an ``OperatorSyntaxError``.
MAX_NESTING = 1000


def _size(rows) -> int:
    """max(rank, coefficient degree) of trimmed operator rows; 0 for zero."""
    return max((max(i, len(row) - 1) for i, row in enumerate(rows) if row), default=0)


def _times(a, da: int, b, db: int) -> tuple[list, int]:
    """The product of the operators ``a/da`` and ``b/db`` given by trimmed
    rows.  With no D on the left it multiplies b's rows by a's one row;
    otherwise it is the Leibniz product ``DiffOperator.__mul__``."""
    if len(a) > 1:
        p = _operator(a, da) * _operator(b, db)
        return p._rows, p._d
    return [_product(a[0], row) if row else () for row in b] if a else [], da * db


def _power(a, d: int, n: int) -> tuple[list, int]:
    """The n-th power of the operator ``a/d`` given by trimmed rows: by
    ``DiffOperator.__pow__`` when it has D, otherwise of its one row."""
    if len(a) > 1:
        p = _operator(a, d) ** n
        return p._rows, p._d
    value = [(1,)], 1
    for _ in range(n):
        value = _times(*value, a, d)
    return value


def _bounded(value: tuple[list, int], pos: int) -> tuple[list, int]:
    """``value``, trimmed rows over one integer, when that integer and
    every numerator have at most as many digits as a numeral may have
    (``sys.get_int_max_str_digits()``, L); otherwise an OperatorSyntaxError
    at ``pos``.  Only an integer of more than 3L bits can reach 10^L.

    ``parse`` bounds the base of each power and the whole text's value.  A
    sum or a product adds the digits of its operands, so only a power
    multiplies the size of what the text wrote, by at most MAX_DEGREE."""
    limit = sys.get_int_max_str_digits()
    rows, d = value
    if limit and max(map(int.bit_length, chain((d,), *rows))) > 3 * limit:
        big = 10**limit
        if d >= big or any(abs(a) >= big for a in chain(*rows)):
            raise OperatorSyntaxError(f"coefficient with more than {limit} digits", pos)
    return value


_TOKEN_RE = re.compile(r"\s*(?:(\d+)(?:/(\d+))?|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*^]))")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            if text[bad] == "/":
                raise OperatorSyntaxError(
                    "'/' is only allowed inside rational literals p/q", bad
                )
            raise OperatorSyntaxError(f"unexpected character {text[bad]!r}", bad)
        num, den, name, op = m.groups()
        pos = m.end()
        if num:
            # an integer numeral is an int, p/q a Fraction
            try:
                value = int(num)
                if den:
                    value = Fraction(value, int(den))
            except ZeroDivisionError:
                raise OperatorSyntaxError("zero denominator", m.start(1)) from None
            except ValueError:
                message = f"numeral with more than {sys.get_int_max_str_digits()} digits"
                raise OperatorSyntaxError(message, m.start(1)) from None
            tokens.append(("num", value, m.start(1)))
        elif name:
            tokens.append(("name", name, pos - len(name)))
        else:
            tokens.append(("op", op, pos - 1))
    tokens.append(("end", None, len(text)))
    return tokens


def parse(text: str) -> DiffOperator:
    """Parse operator text like ``"D^2 + (-x^2-7)*D + (-2*x+3)"``.

    Grammar: ``expr := term (('+'|'-') term)*``, ``term := factor ('*'
    factor)*``, ``factor := ('+'|'-')* atom ['^' n]`` and ``atom := number
    | x | D | '(' expr ')'``; signs apply after ``^``, so ``-x^2`` is
    ``-(x^2)``.  The whole text is tokenized first, so a bad character wins
    over an earlier grammar error.  One loop reads the tokens, with one
    frame per open parenthesis on an explicit stack.

    Each value is a pair (rows, d): trimmed integer rows, one per power of
    D, over one positive integer.  A sum adds rows over lcm of the two d
    (:func:`_add_rows`); a product whose left factor has no D multiplies
    rows by its one row, and only a left factor with D, or a power of
    one, goes through the Leibniz product ``DiffOperator.__mul__``
    (:func:`_times`, :func:`_power`).  The text's operator is normalized
    once, at the end.

    Rank and coefficient degrees are bounded by :data:`MAX_DEGREE`: a power
    is rejected before it is computed, a product as soon as its right
    factor is complete.  Each ``(`` and each unary sign opens a level until
    its factor is complete; the opener of level ``MAX_NESTING + 1`` is
    rejected, whatever the caller's stack depth.  The integers of the base
    of each power and of the text's value have at most as many digits as a
    numeral (:func:`_bounded`).
    """
    tokens = _tokenize(text)
    too_large = f"too large: rank and degree are limited to {MAX_DEGREE}"
    # a frame: the sum so far, the sign before the current term, the product
    # so far, the position of the '*' after it, the signs before the factor
    stack = []
    total = op = prod = star = None
    signs = ""
    depth = 0  # open parentheses plus pending signs, in all frames
    k = 0
    while True:
        kind, val, pos = tokens[k]
        k += 1
        if kind == "op" and val in "+-(":
            depth += 1
            if depth > MAX_NESTING:
                raise OperatorSyntaxError("operator text nested too deeply", pos)
            if val == "(":
                stack.append((total, op, prod, star, signs))
                total = op = prod = None
                signs = ""
            else:
                signs += val
            continue
        if kind == "num":
            value = [(val.numerator,)] if val else [], val.denominator
        elif kind == "name" and val in ("x", "D"):
            value = X._rows if val == "x" else D._rows, 1
        elif kind == "name":
            raise OperatorSyntaxError(f"unknown symbol {val!r}", pos)
        else:
            raise OperatorSyntaxError("expected a number, 'x', 'D' or '('", pos)
        # close the factor, term and expression the atom completes, and each
        # parenthesis that closes after them
        while True:
            if tokens[k][1] == "^":
                ekind, exp, epos = tokens[k + 1]
                k += 2
                if ekind != "num" or exp.denominator != 1:
                    raise OperatorSyntaxError("exponent must be a nonnegative integer", epos)
                if exp > MAX_DEGREE or exp * _size(value[0]) > MAX_DEGREE:
                    raise OperatorSyntaxError("power " + too_large, epos)
                value = _power(*_bounded(value, epos), int(exp))
            if signs.count("-") % 2:
                value = [[-a for a in row] for row in value[0]], value[1]
            depth -= len(signs)
            signs = ""
            if prod is not None:
                value = _times(*prod, *value)
                if _size(value[0]) > MAX_DEGREE:
                    raise OperatorSyntaxError("product " + too_large, star)
            kind, val, pos = tokens[k]
            k += 1
            if kind in ("num", "name") or val == "(":
                raise OperatorSyntaxError("implicit multiplication is not allowed", pos)
            if val == "*":
                prod, star = value, pos
                break
            prod = None
            if op is not None:
                value = _add_rows(*total, *value, 1 if op == "+" else -1)
            if val in ("+", "-"):
                total, op = value, val
                break
            if not stack:
                if kind != "end":
                    raise OperatorSyntaxError("trailing input", pos)
                return _operator(*_bounded(value, pos))
            if val != ")":
                raise OperatorSyntaxError("expected ')'", pos)
            depth -= 1
            total, op, prod, star, signs = stack.pop()


# -- local invariants --------------------------------------------------------


def translate(p: DiffOperator, c: Fraction) -> DiffOperator:
    """The operator with x -> x + c; D is unchanged.  ``p`` itself at c = 0.
    At c = a/b every row is Taylor-shifted over the one denominator b^m, m
    the largest row degree (:func:`polys.shift_row`, the shift of
    :meth:`Poly.shift`), and the denominator by :meth:`Poly.shift`."""
    if c == 0 or p.is_zero():
        return p
    a, b = c.numerator, c.denominator
    m = max(map(len, p._rows)) - 1
    return _operator([shift_row(row, a, b, m) for row in p._rows], p._d * b**m, p._den.shift(c))


def local_chart(p: DiffOperator, at: Location) -> DiffOperator:
    """The operator on which local analysis at ``at`` runs, at the point 0:
    the chart :func:`subst_infty` for infinity, :func:`translate` by ``at``
    for a finite point."""
    return subst_infty(p) if at is INF else translate(p, at)


@dataclass(frozen=True)
class ThetaExpansion:
    """Expansion ``P = sum_i (x-c)^i p_i(theta_c)`` with ``theta_c = (x-c)D``.

    It is read at 0, from the chart operator: ``translate(P, c)`` at a
    finite point, where it is ``sum_i x^i p_i(theta)`` with ``theta = xD``,
    and :func:`subst_infty` at infinity, which is the same as writing ``P =
    sum_i x^(-i) p_i(theta_inf)`` with ``theta_inf = -x*D``.  ``terms``
    lists the nonzero ``(i, p_i)`` by ascending i.  The monomial ``x^(i+j)
    D^j`` of the chart has weight i and puts the falling factorial of
    degree j into ``p_i``, so ``deg p_i`` is the largest D-degree of weight
    i, ``min_index`` is the weight of the operator, and the largest ``deg
    p_i`` is its rank.

    Every local invariant (characteristic polynomial, Newton polygon,
    regularity, slope-boundary polynomials) is read off
    this object; :func:`theta_expand` is the one place that reads the
    coefficients, and it requires them to be Laurent polynomials at the
    point, so every reader inherits that requirement.
    """

    point: Location
    terms: tuple[tuple[int, Poly], ...]

    @property
    def min_index(self) -> int:
        """The weight: the least index with a nonzero term."""
        return self.terms[0][0]

    def term(self, i: int) -> Poly:
        for k, q in self.terms:
            if k == i:
                return q
        return Poly()


def theta_expand(p: DiffOperator, at: Location) -> ThetaExpansion:
    """Theta expansion at a point.

    Coefficients must be Laurent polynomials in the local parameter, i.e.
    denominators must be powers of (x - c); this holds for polynomial
    operators and for everything produced by the extraction pipeline.
    Anything else raises ``ValueError``.

    At 0, over ``d x^s``, the entry gamma of x^m D^j has weight m - s - j
    and adds gamma times the falling factorial of degree j to the integer
    row of that weight, in place, one entry at a time; each row becomes a
    ``Poly`` once, and a row that cancels to zero is no term.
    """
    if p.is_zero():
        raise ValueError("theta expansion of the zero operator")
    q, c = (subst_infty(p), Fraction(0)) if at is INF else (p, at)
    # a monic denominator of degree s is (x-c)^s iff its order at c is s
    shift = q._den.degree
    if shift and q._den.order_at(c) != shift:
        # M is the lcm of the coefficients' reduced denominators, so one of
        # them is not a power of x - c either
        for row in filter(None, q._rows):
            text, den = _coefficient(row, q._d, q._den)
            if den.degree and den.order_at(c) != den.degree:
                raise ValueError(f"coefficient {text} is not a Laurent polynomial at {c}")
    # at 0 the denominator is x^s and the rows hold the Taylor coefficients
    q = translate(q, c)
    # the falling factorial of degree j >= 1 has constant term 0
    rows: dict[int, list[int]] = {}
    for j, row in enumerate(q._rows):
        ff = falling_factorial(j)._n
        for w, gamma in enumerate(row, -shift - j):
            if gamma:
                acc = rows.get(w)
                if acc is None:
                    acc = rows[w] = [0] * len(q._rows)
                for k in range(1 if j else 0, j + 1):
                    acc[k] += gamma * ff[k]
    terms = ((i, from_row(rows[i], q._d)) for i in sorted(rows))
    return ThetaExpansion(at, tuple((i, t) for i, t in terms if t))


def char_poly(expansion: ThetaExpansion) -> Poly:
    """Characteristic polynomial: the term of least index, the
    falling-factorial symbol of the lowest weight part; its roots are the
    characteristic exponents."""
    return expansion.terms[0][1]


def is_regular_singular(expansion: ThetaExpansion) -> bool:
    """Degree criterion: the characteristic polynomial has full degree,
    the rank being the largest term degree."""
    return char_poly(expansion).degree == max(q.degree for _, q in expansion.terms)


@dataclass(frozen=True)
class NewtonPolygon:
    """Relevant boundary of the weight diagram at a point.

    ``vertices`` are (D-degree, weight) pairs with strictly increasing
    slopes between them.  A point with no positive-slope edges (a regular
    singular point, in particular) has a single vertex and no slopes; at
    an irregular point with a moderate (slope-0) block, the leading
    horizontal edge is part of the boundary and contributes slope 0.
    Built by :func:`newton_polygon` from a :class:`ThetaExpansion`, so it
    needs the same Laurent coefficients.
    """

    vertices: tuple[tuple[int, int], ...]
    slopes: tuple[Fraction, ...]

    def slope_edge(self, slope: Fraction) -> tuple[tuple[int, int], tuple[int, int]]:
        k = self.slopes.index(slope)
        return self.vertices[k], self.vertices[k + 1]

    @property
    def regular_rank(self) -> int:
        """Total rank of the moderate part: where positive slopes begin."""
        if self.slopes and self.slopes[0] == 0:
            return self.vertices[1][0]
        return self.vertices[0][0]


def newton_polygon(expansion: ThetaExpansion) -> NewtonPolygon:
    """Newton polygon read off the theta expansion.

    Term i contributes the point (deg p_i, i), the rightmost monomial of
    weight i; each D-degree keeps its least weight.  Every vertex of the
    lower boundary of all monomials is such a point, since a monomial
    right of a vertex at the same weight would lie below a positive slope.
    """
    pts: dict[int, int] = {}
    for i, q in expansion.terms:
        pts.setdefault(q.degree, i)
    wt, lowest = expansion.terms[0]
    i0 = lowest.degree
    # lower convex hull rightwards from (i0, wt), by monotone chain
    vertices: list[tuple[int, int]] = [(i0, wt)]
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
        # an irregular point with a moderate block: the horizontal edge
        # up to the first positive slope belongs to the boundary
        vertices.insert(0, (0, wt))
    slopes = tuple(
        Fraction(vertices[k + 1][1] - vertices[k][1], vertices[k + 1][0] - vertices[k][0])
        for k in range(len(vertices) - 1)
    )
    return NewtonPolygon(tuple(vertices), slopes)


# -- transforms --------------------------------------------------------------


def prim(p: DiffOperator) -> DiffOperator:
    """The primitive component: polynomial coefficients with trivial common
    factor and monic top coefficient.  Unique in W(x) f-multiples.

    It reads the integer rows only.  The power x^v, v the least order at 0
    of a nonzero row, is sliced off.  Unless a row is then a nonzero
    constant, the gcd of the rows is taken by :func:`polys.poly_gcd`,
    shortest rows first, until it has degree 0; a gcd of degree > 0 divides
    every row over Z by its primitive numerators
    (:func:`polys.exact_quotient`), exactly by Gauss's lemma."""
    if p.is_zero():
        raise ValueError("primitive component of the zero operator")
    rows = p._rows
    if v := min(next(i for i, a in enumerate(row) if a) for row in rows if row):
        rows = [row[v:] for row in rows]
    if all(len(row) != 1 for row in rows):
        g = None
        for row in sorted(filter(None, rows), key=len):
            q = from_row(list(row))
            g = q if g is None else poly_gcd(g, q)
            if not g.degree:
                break
        if g.degree:
            content = int_gcd(*g._n) if g._n[-1] > 0 else -int_gcd(*g._n)
            g = [a // content for a in g._n]
            rows = [exact_quotient(row, g) if row else () for row in rows]
    if rows is p._rows and p._den is UNIT and rows[-1][-1] == p._d:
        return p  # polynomial, coprime rows and a monic top coefficient
    # a_i / lead is the ratio of integer numerators over one denominator
    sign = -1 if rows[-1][-1] < 0 else 1
    return _operator([[sign * a for a in row] for row in rows], sign * rows[-1][-1])


def _divide_out(rows: list, most: int) -> tuple[int, list]:
    """The largest k <= most such that x^k divides every integer row, and
    the rows divided by it: their slices from k."""
    k = min([most] + [next(i for i, a in enumerate(row) if a) for row in rows if any(row)])
    return k, [row[k:] for row in rows]


def _shift_d(p: DiffOperator, g: Poly, e: int) -> DiffOperator:
    """Image of ``p`` under the twist D -> D - f with f = g/x^e, a twist
    at 0; :func:`translate` brings any other finite point there.

    D - f is e^F D e^(-F) with F' = f, so ``(D - f)^i = sum_j C(i, j) Y_j
    D^(i-j)``, where ``Y_j e^(-F)`` is the j-th derivative of e^(-F):
    ``Y_0 = 1`` and ``Y_(j+1) = Y_j' - f Y_j``.  In numerators over
    ``x^(e j)``, ``Y_j = P_j/x^(e j)`` with ``P_0 = 1`` and ``P_(j+1) = x^e
    P_j' - (e j x^(e-1) + g) P_j``.  The coefficient of D^m is ``sum_j
    C(m+j, j) a_(m+j) Y_j``, summed over ``p``'s denominator times ``x^(e
    J)``, J the rank.  Away from 0 the twist keeps pole orders, so only a
    power of x can cancel.

    The P_j are integer rows: with ``g = G/M``, ``A = M x^e`` and
    ``R_(j+1) = A R_j' - (j A' + G) R_j`` from ``R_0 = 1`` give ``P_j =
    R_j/M^j``.  For g constant and e <= 1 (:func:`ad_power`) the R_j are
    the constants ``prod_(i<j) -(i e M + G)``.  Over ``M^J x^(e J)`` the
    coefficient of D^m is ``sum_j C(m+j, j) N_(m+j) R_j M^(J-j) x^(e(J-j))``:
    each term added at the offset ``e(J-j)``.
    """
    if p.is_zero():
        return p
    n = len(p._rows)
    scale, h = g._d, g._n
    rows = [[1]]
    if e <= 1 and len(h) <= 1:
        # A' = e M and R_j' = 0
        step, h0 = e * scale, h[0] if h else 0
        for j in range(n - 1):
            rows.append([-(j * step + h0) * rows[-1][0]])
    else:
        arow = [0] * e + [scale]
        drop = [k * x for k, x in enumerate(arow)][1:]
        for j in range(n - 1):
            r = rows[-1]
            nxt = [0] * (len(arow) + len(h) + len(r))
            _add_product(nxt, arow, [k * x for k, x in enumerate(r)][1:])
            _add_product(nxt, drop, r, -j)
            _add_product(nxt, h, r, -1)
            while nxt and not nxt[-1]:
                nxt.pop()
            rows.append(nxt)
    top = n - 1
    width = max(map(len, p._rows)) + max(map(len, rows)) + e * top
    out = [[0] * width for _ in range(n)]
    for m in range(n):
        for j in range(n - m):
            _add_product(out[m], p._rows[m + j], rows[j], comb(m + j, j) * scale ** (top - j),
                         e * (top - j))
    k, out = _divide_out(out, e * top + p._den.order_at(0)) if e else (0, out)
    t = e * top - k
    den = p._den * Poly.x(t) if t >= 0 else p._den // Poly.x(-t)
    return _operator(out, p._d * scale**top, den)


def ad_power(p: DiffOperator, c: Fraction, lam) -> DiffOperator:
    """Addition at x - c: the automorphism D -> D - lam/(x-c).

    Shifts the characteristic exponents at c by +lam.  The concrete engine
    requires a rational lam; parameter-carrying values are rejected.  The
    twist runs at 0 (:func:`translate`), where the ``Y_j`` of
    :func:`_shift_d` are ``(-lam)(-lam-1)...(-lam-j+1) / x^j``.
    """
    if not isinstance(lam, Fraction):
        lam = ParamExpr.of(lam).as_rat()
    return translate(_shift_d(translate(p, c), Poly.const(lam), 1), -c)


def ad_exp_raw(p: DiffOperator, at: Location, coeffs: Mapping[int, Fraction]) -> DiffOperator:
    """Exponential twist by the theta-form factor w = sum w_k (x-c)^(-k)
    (sum w_k x^k at infinity): D -> D - w/(x-c) (D -> D - w/x).

    At a finite point the twist runs at 0 (:func:`translate`), where f =
    g/x^(K+1) with ``g = sum w_k x^(K-k)``, K the largest order; at
    infinity f is the polynomial ``sum w_k x^(k-1)``."""
    if any(k < 1 for k in coeffs):
        raise ValueError("theta-form orders must be >= 1")
    top = max(coeffs, default=0)
    if at is INF:
        return _shift_d(p, Poly([coeffs.get(i + 1, 0) for i in range(top)]), 0)
    g = Poly([coeffs.get(top - i, 0) for i in range(top)])
    return translate(_shift_d(translate(p, at), g, top + 1), -at)


@cache
def _lah(i: int, k: int) -> int:
    """The Lah number ``L(i, k) = C(i-1, k-1) i!/k!`` (1 <= k <= i): the
    coefficient in ``(x^2 D)^i = sum_k L(i, k) x^(i+k) D^k``.  Memoized,
    as :func:`polys.falling_factorial` is."""
    return comb(i - 1, k - 1) * factorial(i) // factorial(k)


def subst_infty(p: DiffOperator) -> DiffOperator:
    """The chart operator at infinity: x -> 1/x, D -> -x^2 D (an involution).

    ``(-x^2 D)^i = (-1)^i sum_(k=1..i) L(i, k) x^(i+k) D^k`` for i >= 1, with
    the Lah numbers L (:func:`_lah`).  With ``a_i = N_i/M``
    and d the largest degree among M and the N_i, ``a_i(1/x) =
    rev_d(N_i)/rev_d(M)``, so the coefficient of D^k is
    ``sum_i (-1)^i L(i, k) x^(i+k) rev_d(N_i)`` over ``rev_d(M)``.

    It runs on the integer rows: each Lah term adds the reversed row N_i,
    times one integer, at the offset ``i + k`` plus the zeros that pad it to
    degree d; ``rev_d(M)`` is the reversed numerator row of M, padded the
    same way.  For a polynomial operator M = 1, so the denominator is the
    power x^(d - k) that remains after the common power x^k is sliced off.
    """
    if p.is_zero():
        return p
    den, ins = p._den, p._rows
    d = max(den.degree, *(len(row) - 1 for row in ins))
    rows = [[0] * (d + 1 - len(ins[0])) + list(ins[0][::-1])]
    rows += [[0] * (d + 2 * len(ins)) for _ in ins[1:]]
    for i in range(1, len(ins)):
        terms = [(s, x) for s, x in enumerate(reversed(ins[i]), d + 1 - len(ins[i]) + i) if x]
        for k in range(1, i + 1):
            lah, acc = (-_lah(i, k) if i % 2 else _lah(i, k)), rows[k]
            for s, x in terms:
                acc[s + k] += lah * x
    # rev_d(M) = x^(d - deg M) rev(M) is lead/R_d times its monic form; away
    # from 0 the involution keeps pole orders, so only powers of x cancel
    rev = [0] * (d - den.degree) + list(den._n[::-1])
    while not rev[-1]:
        rev.pop()
    lead = abs(rev[-1])
    sign = 1 if rev[-1] > 0 else -1
    k, rows = _divide_out(rows, d - den.degree)
    if (scale := sign * den._d) != 1:
        rows = [[scale * a for a in row] for row in rows]
    return _operator(rows, p._d * lead, from_row([sign * a for a in rev[k:]], lead))


def _fourier(p: DiffOperator, x_sign: int, d_sign: int) -> DiffOperator:
    """Image of ``p`` under x -> x_sign*D, D -> d_sign*x (polynomial
    coefficients only): ``x^k D^i`` goes to ``x_sign^k d_sign^i D^k x^i``,
    normal-ordered by ``D^k x^i = sum_j C(k, j) i(i-1)...(i-j+1) x^(i-j)
    D^(k-j)``."""
    if not p.is_polynomial():
        raise ValueError("Fourier-Laplace transform needs polynomial coefficients")
    rank = max((len(row) - 1 for row in p._rows), default=-1)
    out = [[0] * len(p._rows) for _ in range(rank + 1)]
    for i, row in enumerate(p._rows):
        for k, a in enumerate(row):
            if a == 0:
                continue
            a = a * x_sign ** k * d_sign ** i
            for j in range(min(i, k) + 1):
                out[k - j][i - j] += a * comb(k, j) * perm(i, j)
    return _operator(out, p._d)


def laplace(p: DiffOperator) -> DiffOperator:
    """Fourier-Laplace transform: x -> -D, D -> x (on W[x] only)."""
    return _fourier(p, -1, 1)


def laplace_inv(p: DiffOperator) -> DiffOperator:
    """Inverse Fourier-Laplace transform: x -> D, D -> -x."""
    return _fourier(p, 1, -1)


def euler(p: DiffOperator, lam) -> DiffOperator:
    """Euler transform with parameter lam:
    Laplace . Prim . Ad(x^lam) . Laplace^(-1) . Prim."""
    if not isinstance(lam, Fraction):
        lam = ParamExpr.of(lam).as_rat()
    q = prim(p)
    q = laplace_inv(q)
    q = ad_power(q, Fraction(0), lam)
    q = prim(q)
    return laplace(q)


class IrrationalSingularityError(ValueError):
    """The leading coefficient has a non-rational root; the desk-scale
    engine only handles rational singular locations."""


def singular_points(p: DiffOperator, hints: Iterable[Fraction] = ()) -> list[Fraction]:
    """Finite singular points of the primitive operator ``p`` (as
    :func:`prim` returns it), sorted: the roots of its leading
    coefficient, found with the candidate roots ``hints`` tried first
    (:meth:`Poly.rational_roots`)."""
    lead = p.leading()
    roots = lead.rational_roots((c.numerator, c.denominator) for c in hints)
    if sum(roots.values()) != lead.degree:
        raise IrrationalSingularityError(
            f"leading coefficient {lead} has irrational roots"
        )
    return sorted(Fraction(a, b) for a, b in roots)

