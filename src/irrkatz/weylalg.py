"""Exact noncommutative operator algebra over Q(x).

Operators are sums ``a_0 + a_1*D + ... + a_n*D^n`` with rational-function
coefficients, kept in normal form (all powers of D commuted to the right)
under the relation ``x*D - D*x = -1``.  On top of the ring structure this
module provides the local invariants (weights, characteristic polynomials,
Newton polygons, theta expansions) and the global transforms (primitive
component, additions, exponential twists, Fourier-Laplace, Euler).

Points are either finite rationals or the point at infinity (``INF``).
Local analysis goes through :func:`theta_expand`, the only local
computation that reads an operator's coefficients: it takes its operator
and finite point from :func:`local_chart`, which routes infinity through
the involution ``x -> 1/x, D -> -x^2*D`` (:func:`subst_infty`) to the
point 0.  The weight (``min_index``), :func:`char_poly`,
:func:`newton_polygon`, :func:`is_regular_singular` and
:func:`homogeneous_part` read the :class:`ThetaExpansion` it returns.

The coordinate changes (the chart at infinity, the twists, Fourier-Laplace
and so Euler) are coefficient formulas; none multiplies operators:

- a twist D -> D - f is conjugation by e^F with F' = f, so
  ``(D - f)^i = sum_j C(i, j) Y_j D^(i-j)`` with ``Y_0 = 1`` and
  ``Y_(j+1) = Y_j' - f Y_j`` (:func:`_shift_d`, shared by :func:`ad_power`,
  where ``Y_j = (-lam)(-lam-1)...(-lam-j+1)/(x-c)^j``, and
  :func:`ad_exp_raw`);
- the chart at infinity uses ``(-x^2 D)^i = (-1)^i sum_k L(i, k) x^(i+k)
  D^k`` with the Lah numbers ``L(i, k) = C(i-1, k-1) i!/k!``;
- Fourier-Laplace sends ``a x^k D^i`` to ``+-a D^k x^i`` and normal-orders
  by ``D^k x^i = sum_j C(k, j) i(i-1)...(i-j+1) x^(i-j) D^(k-j)``
  (:func:`_fourier`, shared by :func:`laplace` and :func:`laplace_inv`).

Normal forms are unique and coefficients are reduced with a monic
denominator, so these agree exactly with multiplying out the images.

The product itself (``DiffOperator.__mul__``) works on numerator rows over
common denominators, as :func:`_shift_d` does.  With ``P = sum_i N_i D^i / M``
and ``Q = sum_j K_j D^j / L``, the Leibniz rule ``D^i b = sum_k C(i, k)
b^(k) D^(i-k)`` needs ``(K_j/L)^(k) = R_jk / L^(k+1)``, where ``R_j0 = K_j``
and ``R_j(k+1) = R_jk' L - (k+1) R_jk L'``.  So the coefficient of D^m is
``sum_(i-k+j=m) C(i, k) N_i R_jk L^(I-k)`` over ``M L^(I+1)``, I the rank of
P.  For polynomial operators ``M = L = 1``, and the product is row
arithmetic over Q with no gcd.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, perm
from typing import Iterable, Mapping, Union

from .polys import (
    UNIT, Poly, RatFunc, RatLike, as_poly, falling_factorial, poly_gcd, pow_by_squaring,
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


class DiffOperator:
    """A differential operator in normal form; immutable.

    ``coeffs[i]`` is the rational-function coefficient of ``D^i``; the top
    coefficient is nonzero.  The zero operator has an empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [RatFunc.of(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("DiffOperator is immutable")

    @staticmethod
    def of(value: "OpLike") -> "DiffOperator":
        if isinstance(value, DiffOperator):
            return value
        return DiffOperator([RatFunc.of(value)])

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def rank(self) -> int:
        """Degree in D; raises on the zero operator."""
        if not self.coeffs:
            raise ValueError("rank of the zero operator")
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> RatFunc:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return RatFunc(0)

    def leading(self) -> RatFunc:
        if not self.coeffs:
            raise ValueError("leading coefficient of the zero operator")
        return self.coeffs[-1]

    def is_polynomial(self) -> bool:
        return all(c.is_poly() for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- ring structure ---------------------------------------------------

    def __add__(self, other: "OpLike") -> "DiffOperator":
        other = DiffOperator.of(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOperator([self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "DiffOperator":
        return DiffOperator([-c for c in self.coeffs])

    def __sub__(self, other: "OpLike") -> "DiffOperator":
        return self + (-DiffOperator.of(other))

    def __rsub__(self, other: "OpLike") -> "DiffOperator":
        return DiffOperator.of(other) + (-self)

    def __mul__(self, other: "OpLike") -> "DiffOperator":
        # the closed form of the module docstring, accumulated in place into
        # one row of numerator coefficients per power of D
        other = DiffOperator.of(other)
        if self.is_zero() or other.is_zero():
            return DiffOperator()
        den, nums = _over_common_denominator(self)
        lden, knums = _over_common_denominator(other)
        top = len(nums) - 1
        dl = lden.derivative()
        lpows = [UNIT]
        for _ in range(top):
            lpows.append(lpows[-1] * lden)
        # deg(R_jk L^(I-k)) <= deg K_j + I deg L bounds every row
        width = max(q.degree for q in nums) + max(q.degree for q in knums) + top * lden.degree + 1
        rows = [[_ZERO] * width for _ in range(top + len(knums))]
        left = [(i, [(s, a) for s, a in enumerate(q.coeffs) if a]) for i, q in enumerate(nums) if q]
        for j, r in enumerate(knums):
            for k in range(top + 1):
                if k:
                    # L' is zero when L is 1
                    r = r.derivative() * lden - r * dl * k if dl else r.derivative()
                if r.is_zero():
                    break
                right = [(t, b) for t, b in enumerate((r * lpows[top - k]).coeffs) if b]
                for i, terms in left:
                    if i < k:
                        continue
                    row = rows[i - k + j]
                    c = comb(i, k)
                    for s, a in terms:
                        ca = c * a
                        for t, b in right:
                            row[s + t] += ca * b
        out_den = den * lpows[top] * lden
        return DiffOperator([RatFunc(Poly(row), out_den) for row in rows])

    def __rmul__(self, other: "OpLike") -> "DiffOperator":
        # functions and scalars commute into the coefficients
        return DiffOperator.of(other) * self

    def __pow__(self, n: int) -> "DiffOperator":
        if n < 0:
            raise ValueError("negative operator power")
        return pow_by_squaring(self, n, DiffOperator.of(1))

    def apply(self, f: RatLike) -> RatFunc:
        """Apply the operator to a rational function."""
        f = RatFunc.of(f)
        acc = RatFunc(0)
        for a in self.coeffs:
            acc += a * f
            f = f.derivative()
        return acc

    # -- text -------------------------------------------------------------

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"DiffOperator({to_text(self)})"


OpLike = Union[DiffOperator, RatFunc, Poly, Fraction, int]

_ZERO = Fraction(0)

X = DiffOperator([RatFunc(Poly.x())])
D = DiffOperator([RatFunc(0), RatFunc(1)])


def to_text(p: DiffOperator) -> str:
    """Canonical serialization: ``(poly)*D^i`` terms, lowest i first."""
    if p.is_zero():
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
        if c.is_zero():
            continue
        body = c.format()
        if not c.is_poly():
            body = f"({c.num.format()})/({c.den.format()})"
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


def _size(p: DiffOperator) -> int:
    """max(rank, coefficient degree) of a polynomial operator; 0 for zero."""
    return max(
        (max(i, a.num.degree) for i, a in enumerate(p.coeffs) if not a.is_zero()),
        default=0,
    )


_TOKEN_RE = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*^]))")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            if text[bad] == "/":
                raise OperatorSyntaxError(
                    "'/' is only allowed inside rational literals p/q", bad
                )
            raise OperatorSyntaxError(f"unexpected character {text[bad]!r}", bad)
        if m.group(1):
            try:
                tokens.append(("num", Fraction(m.group(1)), m.start(1)))
            except ZeroDivisionError:
                raise OperatorSyntaxError("zero denominator", m.start(1)) from None
            except ValueError:
                message = f"numeral with more than {sys.get_int_max_str_digits()} digits"
                raise OperatorSyntaxError(message, m.start(1)) from None
        elif m.group(2):
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
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

    Rank and coefficient degrees are bounded by :data:`MAX_DEGREE`: a power
    is rejected before it is computed, a product as soon as its right
    factor is complete.  Each ``(`` and each unary sign opens a level until
    its factor is complete; the opener of level ``MAX_NESTING + 1`` is
    rejected, whatever the caller's stack depth.
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
            value = DiffOperator.of(val)
        elif kind == "name" and val in ("x", "D"):
            value = X if val == "x" else D
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
                if exp > MAX_DEGREE or exp * _size(value) > MAX_DEGREE:
                    raise OperatorSyntaxError("power " + too_large, epos)
                value = value ** int(exp)
            if signs.count("-") % 2:
                value = -value
            depth -= len(signs)
            signs = ""
            if prod is not None:
                value = prod * value
                if _size(value) > MAX_DEGREE:
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
                value = total + value if op == "+" else total - value
            if val in ("+", "-"):
                total, op = value, val
                break
            if not stack:
                if kind != "end":
                    raise OperatorSyntaxError("trailing input", pos)
                return value
            if val != ")":
                raise OperatorSyntaxError("expected ')'", pos)
            depth -= 1
            total, op, prod, star, signs = stack.pop()


# -- local invariants --------------------------------------------------------


def local_chart(p: DiffOperator, at: Location) -> tuple[DiffOperator, Fraction]:
    """The operator and finite point on which local analysis at ``at`` runs:
    the chart operator :func:`subst_infty` at 0 for infinity, ``p`` itself
    at a finite point."""
    if at is INF:
        return subst_infty(p), Fraction(0)
    return p, at


@dataclass(frozen=True)
class ThetaExpansion:
    """Expansion ``P = sum_i (x-c)^i p_i(theta_c)`` with ``theta_c = (x-c)D``.

    At infinity the terms are those of the chart operator at 0, which is
    the same as writing ``P = sum_i x^(-i) p_i(theta_inf)`` with
    ``theta_inf = -x*D``.  ``terms`` lists the nonzero ``(i, p_i)`` by
    ascending i.  The monomial ``(x-c)^(i+j) D^j`` has weight i and puts
    the falling factorial of degree j into ``p_i``, so ``deg p_i`` is the
    largest D-degree of weight i, ``min_index`` is the weight of the
    operator, and the largest ``deg p_i`` is its rank.

    Every local invariant (characteristic polynomial, Newton polygon,
    regularity, homogeneous parts, slope-boundary polynomials) is read off
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

    def reconstruct(self) -> DiffOperator:
        """Rebuild the operator at its own point from the terms:
        ``theta_c^j = sum_k S(j, k) (x-c)^k D^k`` (:func:`_stirling2`), so
        term i adds ``sum_j q_j S(j, k) (x-c)^(i+k)`` to the coefficient of
        D^k, a numerator in x-c over (x-c)^-lo with lo = min(0, min_index).
        At infinity the chart at 0 is sent back by :func:`subst_infty`."""
        if self.point is INF:
            return subst_infty(ThetaExpansion(Fraction(0), self.terms).reconstruct())
        lo = min(0, self.terms[0][0]) if self.terms else 0
        nums = [Poly()] * (max((q.degree for _, q in self.terms), default=-1) + 1)
        for i, q in self.terms:
            for k in range(q.degree + 1):
                s = sum(qj * _stirling2(j, k) for j, qj in enumerate(q.coeffs[k:], k))
                nums[k] += Poly.monomial(s, i + k - lo)
        den = Poly([-self.point, 1]) ** -lo
        return DiffOperator([RatFunc(num.shift(-self.point), den) for num in nums])


def _stirling2(j: int, k: int) -> int:
    """The Stirling number of the second kind, ``S(j, k) = sum_i (-1)^i
    C(k, i) (k-i)^j / k!``."""
    return sum((-1) ** i * comb(k, i) * (k - i) ** j for i in range(k + 1)) // factorial(k)


def theta_expand(p: DiffOperator, at: Location) -> ThetaExpansion:
    """Theta expansion at a point.

    Coefficients must be Laurent polynomials in the local parameter, i.e.
    denominators must be powers of (x - c); this holds for polynomial
    operators and for everything produced by the extraction pipeline.
    Anything else raises ``ValueError``.
    """
    if p.is_zero():
        raise ValueError("theta expansion of the zero operator")
    q, c = local_chart(p, at)
    buckets: dict[int, Poly] = {}
    for j, coeff in enumerate(q.coeffs):
        if coeff.is_zero():
            continue
        shift = coeff.den.order_at(c)
        if coeff.den != Poly([-c, 1]) ** shift:
            raise ValueError(
                f"coefficient {coeff} is not a Laurent polynomial at {c}"
            )
        num = coeff.num.shift(c)
        ff = falling_factorial(j)
        for m, gamma in enumerate(num.coeffs):
            if gamma == 0:
                continue
            w = (m - shift) - j
            buckets[w] = buckets.get(w, Poly()) + gamma * ff
    terms = tuple(
        (i, t) for i, t in sorted(buckets.items()) if not t.is_zero()
    )
    return ThetaExpansion(at, terms)


def homogeneous_part(expansion: ThetaExpansion, k: int) -> DiffOperator:
    """Sum of the monomials of weight exactly k (possibly zero): the term
    ``(x-c)^k p_k(theta)`` alone, as an operator at the expansion's point."""
    part = tuple((i, q) for i, q in expansion.terms if i == k)
    return ThetaExpansion(expansion.point, part).reconstruct()


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


def _over_common_denominator(p: DiffOperator) -> tuple[Poly, list[Poly]]:
    """``(M, [N_i])`` with ``a_i = N_i / M`` for every coefficient, M the
    monic lcm of the denominators."""
    den = UNIT
    for c in p.coeffs:
        if c.den.degree > 0:
            den = den * (c.den // poly_gcd(den, c.den))
    return den, [c.num if c.den == den else c.num * (den // c.den) for c in p.coeffs]


def prim(p: DiffOperator) -> DiffOperator:
    """The primitive component: polynomial coefficients with trivial common
    factor and monic top coefficient.  Unique in W(x) f-multiples."""
    if p.is_zero():
        raise ValueError("primitive component of the zero operator")
    _, nums = _over_common_denominator(p)
    g = Poly()
    for q in nums:
        if not q.is_zero():
            g = q if g.is_zero() else poly_gcd(g, q)
    nums = [q // g for q in nums]
    lead = nums[-1].leading()
    return DiffOperator([RatFunc(q * (1 / lead)) for q in nums])


def _shift_d(p: DiffOperator, g: Poly, e: int, c: Fraction) -> DiffOperator:
    """Image of ``p`` under the twist D -> D - f with f = g/(x-c)^e.

    D - f is e^F D e^(-F) with F' = f, so ``(D - f)^i = sum_j C(i, j) Y_j
    D^(i-j)``, where ``Y_j e^(-F)`` is the j-th derivative of e^(-F):
    ``Y_0 = 1`` and ``Y_(j+1) = Y_j' - f Y_j``.  In numerators over
    ``(x-c)^(e j)``, ``Y_j = P_j/(x-c)^(e j)`` with ``P_0 = 1`` and
    ``P_(j+1) = (x-c)^e P_j' - (e j (x-c)^(e-1) + g) P_j``.  The
    coefficient of D^m is ``sum_j C(m+j, j) a_(m+j) Y_j``, summed over the
    common denominator of the ``a_i`` times ``(x-c)^(e J)``, J the largest j.
    """
    den, nums = _over_common_denominator(p)
    u = Poly([-c, 1])
    ue = u ** e
    drop = e * u ** (e - 1) if e else Poly()
    ys = [Poly.const(1)]
    for j in range(len(nums) - 1):
        ys.append(ue * ys[-1].derivative() - (j * drop + g) * ys[-1])
    out = []
    for m in range(len(nums)):
        acc = Poly()
        for j in range(len(nums) - m):
            acc = acc * ue + comb(m + j, j) * nums[m + j] * ys[j]
        out.append(RatFunc(acc, den * ue ** (len(nums) - 1 - m)))
    return DiffOperator(out)


def ad_power(p: DiffOperator, c: Fraction, lam) -> DiffOperator:
    """Addition at x - c: the automorphism D -> D - lam/(x-c).

    Shifts the characteristic exponents at c by +lam.  The concrete engine
    requires a rational lam; parameter-carrying values are rejected.  Here
    the ``Y_j`` of :func:`_shift_d` are ``(-lam)(-lam-1)...(-lam-j+1) /
    (x-c)^j``.
    """
    lam = ParamExpr.of(lam).as_rat()
    return _shift_d(p, Poly.const(lam), 1, c)


def ad_exp_raw(p: DiffOperator, at: Location, coeffs: Mapping[int, Fraction]) -> DiffOperator:
    """Exponential twist by the theta-form factor w = sum w_k (x-c)^(-k)
    (sum w_k x^k at infinity): D -> D - w/(x-c) (D -> D - w/x).

    At a finite point f = g/(x-c)^(K+1) with ``g = sum w_k (x-c)^(K-k)``,
    K the largest order; at infinity f is the polynomial
    ``sum w_k x^(k-1)``."""
    if any(k < 1 for k in coeffs):
        raise ValueError("theta-form orders must be >= 1")
    if at is INF:
        g = sum((Poly.monomial(wk, k - 1) for k, wk in coeffs.items()), Poly())
        return _shift_d(p, g, 0, Fraction(0))
    top = max(coeffs, default=0)
    u = Poly([-at, 1])
    g = sum((wk * u ** (top - k) for k, wk in coeffs.items()), Poly())
    return _shift_d(p, g, top + 1, at)


def _lah(i: int, k: int) -> int:
    """The Lah number ``L(i, k) = C(i-1, k-1) i!/k!`` (1 <= k <= i): the
    coefficient in ``(x^2 D)^i = sum_k L(i, k) x^(i+k) D^k``."""
    return comb(i - 1, k - 1) * factorial(i) // factorial(k)


def subst_infty(p: DiffOperator) -> DiffOperator:
    """The chart operator at infinity: x -> 1/x, D -> -x^2 D (an involution).

    ``(-x^2 D)^i = (-1)^i sum_(k=1..i) L(i, k) x^(i+k) D^k`` for i >= 1, with
    the Lah numbers L (:func:`_lah`).  With ``a_i = N_i/M``
    and d the largest degree among M and the N_i, ``a_i(1/x) =
    rev_d(N_i)/rev_d(M)``, so the coefficient of D^k is
    ``sum_i (-1)^i L(i, k) x^(i+k) rev_d(N_i)`` over ``rev_d(M)``.
    """
    if p.is_zero():
        return p
    den, nums = _over_common_denominator(p)
    d = max(q.degree for q in [den, *nums])
    revs = [q.reverse(d) for q in nums]
    out = [revs[0]]
    for k in range(1, len(revs)):
        acc = Poly()
        for i in range(k, len(revs)):
            lah = (-1) ** i * _lah(i, k)
            acc = acc + Poly([0] * (i + k) + [lah * a for a in revs[i].coeffs])
        out.append(acc)
    rev_den = den.reverse(d)
    return DiffOperator([RatFunc(q, rev_den) for q in out])


def _fourier(p: DiffOperator, x_sign: int, d_sign: int) -> DiffOperator:
    """Image of ``p`` under x -> x_sign*D, D -> d_sign*x (polynomial
    coefficients only): ``x^k D^i`` goes to ``x_sign^k d_sign^i D^k x^i``,
    normal-ordered by ``D^k x^i = sum_j C(k, j) i(i-1)...(i-j+1) x^(i-j)
    D^(k-j)``."""
    if not p.is_polynomial():
        raise ValueError("Fourier-Laplace transform needs polynomial coefficients")
    rank = max((c.num.degree for c in p.coeffs), default=-1)
    out = [[Fraction(0)] * len(p.coeffs) for _ in range(rank + 1)]
    for i, c in enumerate(p.coeffs):
        for k, a in enumerate(c.num.coeffs):
            if a == 0:
                continue
            a = a * x_sign ** k * d_sign ** i
            for j in range(min(i, k) + 1):
                out[k - j][i - j] += a * comb(k, j) * perm(i, j)
    return DiffOperator([RatFunc(Poly(row)) for row in out])


def laplace(p: DiffOperator) -> DiffOperator:
    """Fourier-Laplace transform: x -> -D, D -> x (on W[x] only)."""
    return _fourier(p, -1, 1)


def laplace_inv(p: DiffOperator) -> DiffOperator:
    """Inverse Fourier-Laplace transform: x -> D, D -> -x."""
    return _fourier(p, 1, -1)


def euler(p: DiffOperator, lam) -> DiffOperator:
    """Euler transform with parameter lam:
    Laplace . Prim . Ad(x^lam) . Laplace^(-1) . Prim."""
    lam = ParamExpr.of(lam).as_rat()
    q = prim(p)
    q = laplace_inv(q)
    q = ad_power(q, Fraction(0), lam)
    q = prim(q)
    return laplace(q)


def deg_of(p: DiffOperator) -> int:
    """Maximum coefficient degree (for polynomial operators)."""
    if not p.is_polynomial():
        raise ValueError("degree is defined for polynomial operators")
    if p.is_zero():
        raise ValueError("degree of the zero operator")
    return max(c.as_poly().degree for c in p.coeffs if not c.is_zero())


class IrrationalSingularityError(ValueError):
    """The leading coefficient has a non-rational root; the desk-scale
    engine only handles rational singular locations."""


def singular_points(p: DiffOperator) -> list[Fraction]:
    """Finite singular points of the primitive component, sorted."""
    q = prim(p)
    lead = q.leading().as_poly()
    roots = lead.rational_roots()
    if sum(roots.values()) != lead.degree:
        raise IrrationalSingularityError(
            f"leading coefficient {lead} has irrational roots"
        )
    return sorted(roots)

