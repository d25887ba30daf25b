"""Dense univariate polynomials over exact rationals.

Internal plumbing for the operator algebra: nothing here knows about
differential operators.  A polynomial is a tuple of integer numerators,
lowest degree first, over one positive denominator coprime to their
content; the pair is unique, so equality is structural.  Arithmetic runs on
Python ints and normalizes each result once, with one gcd, instead of once
per coefficient product (von zur Gathen and Gerhard, *Modern Computer
Algebra*, §8.4).  ``Poly.coeffs``, the coefficients as ``Fraction``s, is a
read-only view built on first read; no arithmetic runs on it.  The row
kernels of ``weylalg`` read integer rows and build a ``Poly`` only where a
result leaves them, with :func:`from_row`; they share the Taylor shift
(:func:`shift_row`), the primitive part (:func:`primitive`) and the exact
division over Z (:func:`exact_quotient`) with the gcd and the root search
here.  Every division the pipeline makes is exact, so that one is the only
division: ``Poly`` has no quotient or remainder.
Rational roots are exact: in closed form up to degree 2 (the root of a
linear part, the square root of a discriminant by ``isqrt``), and above by
p-adic expansion (Loos, SIAM J. Comput. 12(2), 1983): roots modulo a small
prime, Hensel-lifted and read back by rational reconstruction, each one
checked over Z.  The gcd, which the square-free step of that expansion
needs, is the heuristic GCDHEU on integers (Char, Geddes and Gonnet, J.
Symbolic Comput. 7, 1989), accepted only after exact division, with Euclid
over Z, a primitive remainder sequence, as its fallback.

Normalization is skipped where it cannot change the result.  The gcd with
a nonzero constant is 1, so a constant denominator only divides the
numerator.  A product with the constant 1 is the other factor, shared as
``Poly`` is immutable.  The Taylor shift and the order at a point ``a/b``
run on integers, scaled by powers of ``b``.

A rational point is read as its numerator and denominator, a coprime
pair (a, b) with b > 0, and no ``Fraction`` is built to test it:
:func:`root_order` counts the exact divisions of the numerators by ``b*x -
a``, which is how candidate roots (the hints of :meth:`Poly.rational_roots`)
are tested, each distinct one once; :func:`scaled_value` is the integer
``b^m n(a/b)``, zero exactly at a root, which checks the p-adic roots,
evaluates GCDHEU's points (b = 1) and, as :meth:`Poly.vanishes_at`, checks
the vanishing conditions of
``formal.oshima_check``.  The roots themselves are such pairs, as hints and
as results: the callers build a ``Fraction`` only for a value that leaves
local analysis (a singular point, a factor coefficient).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd as int_gcd, isqrt, lcm, log
from typing import Iterable, Sequence, Union

Scalar = Union[Fraction, int]


def pow_by_squaring(base, n: int, one):
    """``base**n`` for n >= 0, ``one`` at 0: from the top bit of n down,
    (bit_length(n) - 1) squarings and (popcount(n) - 1) products by base."""
    result = one if n == 0 else base
    for bit in bin(n)[3:]:
        result = result * result
        if bit == "1":
            result = result * base
    return result


def from_row(n: list[int], d: int = 1) -> "Poly":
    """The polynomial n/d for d > 0, trimmed and reduced: the one
    normalization of each operation."""
    while n and not n[-1]:
        n.pop()
    if d != 1 and n:
        g = int_gcd(d, *n)
        if g != 1:
            n = [a // g for a in n]
            d //= g
    p = object.__new__(Poly)
    object.__setattr__(p, "_n", tuple(n))
    object.__setattr__(p, "_d", d if n else 1)
    return p


def shift_row(n: Sequence[int], a: int, b: int, m: int) -> list[int]:
    """The integer row b^m n(y + a/b), for an integer row n of degree at
    most m and b > 0: the one Taylor shift.  With s(z) = b^m n(z/b) in
    Z[z], b^m n(y + a/b) = s(b y + a), and the shift by a is synthetic:
    pass i divides by z - a in place and leaves the i-th Taylor coefficient
    in slot i."""
    s = [x * b ** (m - k) for k, x in enumerate(n)] if b != 1 else list(n)
    top = len(s) - 1
    for i in range(top):
        for k in range(top - 1, i - 1, -1):
            s[k] += a * s[k + 1]
    if b != 1:
        s = [x * b**k for k, x in enumerate(s)]
    return s


def linear_quotient(n: Sequence[int], a: int, b: int) -> list[int] | None:
    """n / (b*x - a) for a nonzero integer row n, when b*x - a divides it
    over Z, else None; b*x - a is primitive, so by Gauss's lemma this is
    divisibility over Q.  The quotient s_(k-1) = (n_k + a s_k)/b is found
    from the top, and n_0 = -a s_0 checks it."""
    s = [0] * (len(n) - 1)
    carry = 0
    for k in range(len(n) - 1, 0, -1):
        carry, r = divmod(n[k] + a * carry, b)
        if r:
            return None
        s[k - 1] = carry
    return s if n[0] + a * carry == 0 else None


def root_order(n: Sequence[int], a: int, b: int) -> int:
    """The multiplicity of the root a/b (b > 0, coprime to a) of a nonzero
    integer row n: at 0 the number of low zero coefficients, elsewhere the
    number of exact divisions by b*x - a over Z (:func:`linear_quotient`).
    A non-root costs one pass at most: b divides lc(n) at every root."""
    if not a:
        return next(k for k, c in enumerate(n) if c)
    m = 0
    while (n := linear_quotient(n, a, b)) is not None:
        m += 1
    return m


def primitive(n: Sequence[int]) -> list[int]:
    """A nonzero integer row over its content, with a positive leading
    coefficient: its primitive part."""
    g = int_gcd(*n)
    if n[-1] < 0:
        g = -g
    return [a // g for a in n]


def scaled_value(n: Sequence[int], a: int, b: int) -> int:
    """b^m n(a/b) for an integer row n of degree m and b > 0, by Horner's
    rule on integers: it has the sign of n(a/b), and is 0 exactly at a
    root."""
    acc, bk = 0, 1
    for c in reversed(n):
        acc = acc * a + c * bk
        bk *= b
    return acc


class Poly:
    """Polynomial in one variable over Q, dense, lowest degree first:
    integer numerators ``_n`` over one positive denominator ``_d``."""

    __slots__ = ("_n", "_d", "_coeffs")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if type(c) is int or type(c) is Fraction else Fraction(c) for c in coeffs]
        d = lcm(*(c.denominator for c in cs))
        p = from_row([c.numerator * (d // c.denominator) for c in cs], d)
        object.__setattr__(self, "_n", p._n)
        object.__setattr__(self, "_d", p._d)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def const(c: Scalar) -> "Poly":
        return Poly([c])

    @staticmethod
    def x(power: int = 1) -> "Poly":
        return from_row([0] * power + [1])

    # -- basics -----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as ``Fraction``s: a view built on first read."""
        try:
            return self._coeffs
        except AttributeError:
            object.__setattr__(self, "_coeffs", tuple(Fraction(a, self._d) for a in self._n))
            return self._coeffs

    def is_zero(self) -> bool:
        return not self._n

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._n) - 1

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self._n):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        return hash((self._n, self._d))

    def __bool__(self) -> bool:
        return bool(self._n)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "PolyLike") -> "Poly":
        if not isinstance(other, _POLY_OPERANDS):
            return NotImplemented
        other = as_poly(other)
        d = lcm(self._d, other._d)
        a, b = (q._n if q._d == d else [x * (d // q._d) for x in q._n] for q in (self, other))
        if len(a) < len(b):
            a, b = b, a
        return from_row([x + y for x, y in zip(a, b)] + list(a[len(b):]), d)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return from_row([-a for a in self._n], self._d)

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
        a, b = self._n, other._n
        if not a or not b:
            return from_row([])
        if b == (1,) and other._d == 1:
            return self
        if a == (1,) and self._d == 1:
            return other
        n = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    n[j] += x * y
        return from_row(n, self._d * other._d)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return pow_by_squaring(self, n, UNIT)

    def derivative(self) -> "Poly":
        return from_row([k * c for k, c in enumerate(self._n)][1:], self._d)

    def shift(self, c: Scalar) -> "Poly":
        """The polynomial q with q(y) = p(y + c) (Taylor shift); p itself
        at c = 0.  At c = a/b it is :func:`shift_row` of the numerators
        over ``_d b^m``, m the degree."""
        a, b = c.numerator, c.denominator
        if not a or not self._n:
            return self
        m = self.degree
        return from_row(shift_row(self._n, a, b, m), self._d * b**m)

    def vanishes_at(self, a: int, b: int) -> bool:
        """Whether p(a/b) = 0, for b > 0: :func:`scaled_value` of the
        numerators is 0."""
        return not scaled_value(self._n, a, b)

    def order_at(self, c: Scalar) -> int:
        """Multiplicity of the root x = c (0 if p(c) != 0); error on zero:
        :func:`root_order` of the numerators at c = a/b."""
        if self.is_zero():
            raise ValueError("order of the zero polynomial")
        return root_order(self._n, c.numerator, c.denominator)

    # -- roots --------------------------------------------------------------

    def rational_roots(self, hints: Iterable[tuple[int, int]] = ()) -> dict[tuple[int, int], int]:
        """All rational roots a/b with multiplicities, keyed by the coprime
        pair (a, b), b > 0: 0 first, then by (|a|, b, a < 0), the order of
        the rational root theorem's divisor enumeration.  After the factor
        x^k, :func:`_searched_roots` finds the roots of the rest: in closed
        form up to degree 2, by p-adic expansion above.

        ``hints`` are candidate roots, coprime pairs (a, b) with b > 0,
        tried first: each distinct one once, by :func:`root_order`.  When
        the multiplicities of those that are roots add up to the degree,
        there is no other root, and the search is skipped.  The result is
        the same for any hints.
        """
        if self.is_zero():
            raise ValueError("roots of the zero polynomial")
        n, degree = self._n, len(self._n) - 1
        hinted, seen, total = [], set(), 0
        for c in hints:
            if c in seen:
                continue
            seen.add(c)
            if k := root_order(n, *c):
                hinted.append((_root_order(c), c, k))
                total += k
                if total == degree:
                    return {root: k for _, root, k in sorted(hinted)}
        low = root_order(n, 0, 1)
        roots = {(0, 1): low} if low else {}
        if low < degree:
            roots.update(_searched_roots(n[low:]))
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


#: The constant 1: one shared object, the denominator of every polynomial
#: operator, so a test for one is an identity test.
UNIT = from_row([1])


PolyLike = Union[Poly, Fraction, int]
#: The operands ``Poly`` arithmetic coerces; any other operand gets
#: ``NotImplemented``, so its own reflected method can answer.
_POLY_OPERANDS = (Poly, Fraction, int)


def as_poly(value: PolyLike) -> Poly:
    if isinstance(value, Poly):
        return value
    return Poly.const(value)


def _root_order(root: tuple[int, int]) -> tuple:
    """The order of :meth:`Poly.rational_roots`: 0, then by (|a|, b, a < 0)."""
    a, b = root
    return abs(a), b, a < 0


def _pair(a: int, b: int) -> tuple[int, int]:
    """The rational a/b, b nonzero, as a coprime pair with a positive
    denominator."""
    g = int_gcd(a, b)
    return (a // g, b // g) if b > 0 else (-a // g, -b // g)


def _eval_mod(f: list[int], r: int, m: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * r + c) % m
    return acc


def _searched_roots(f: Sequence[int]) -> list[tuple[tuple[int, int], int]]:
    """The rational roots of a nonzero f in Z[x] of degree >= 1 with f(0)
    != 0 (lowest degree first), as pairs with their multiplicities, in the
    order of :meth:`Poly.rational_roots`: the one root search.

    Degree 1 is the root -f_0/f_1.  Degree 2 is c + b x + a x^2 with
    discriminant b^2 - 4ac: none when it is negative or not a square
    (``isqrt``), the double root -b/2a when it is 0.  Above, the square-free
    part of the primitive part is lifted p-adically (Loos, "Computing
    rational zeros of integral polynomials by p-adic expansion", SIAM J.
    Comput. 12(2), 1983; :func:`_lifted_roots`), and each root's
    multiplicity is its order.
    """
    if len(f) == 2:
        return [(_pair(-f[0], f[1]), 1)]
    if len(f) == 3:
        c, b, a = f
        disc = b * b - 4 * a * c
        if disc < 0 or (s := isqrt(disc)) ** 2 != disc:
            return []
        if not s:
            return [(_pair(-b, 2 * a), 2)]
        roots = (_pair(-b + s, 2 * a), _pair(-b - s, 2 * a))
        return [(root, 1) for root in sorted(roots, key=_root_order)]
    zp = from_row(primitive(f))
    # a monic gcd's numerators are primitive, so the quotient is too
    sf = exact_quotient(zp._n, poly_gcd(zp, zp.derivative())._n)
    return [
        (root, root_order(zp._n, *root)) for root in sorted(_lifted_roots(sf), key=_root_order)
    ]


def _lifted_roots(f: Sequence[int]) -> list[tuple[int, int]]:
    """Rational roots, as coprime pairs, of a square-free f in Z[x] (lowest
    degree first, f(0) != 0): the smallest odd prime p that leaves lc(f) a
    unit and every root mod p simple; each root mod p Newton-lifted to the
    least power p^e > 2|f(0)||lc(f)| and read back as a/b with |a| <= |f(0)|
    and 0 < b <= |lc(f)|; a candidate counts only if f(a/b) = 0 exactly.
    The lift squares the modulus m, the last square cut down to p^e, and
    carries z = 1/f'(r) mod m: one modular inverse mod p per root, then
    one Newton step z(2 - f'(r) z) per squaring of m."""
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
    # the float log is off by at most a rounding step, so at most two
    # products by p remain
    top = p ** int(log(bound, p))
    while top <= bound:
        top *= p
    out = []
    for r in residues:
        m, z = p, pow(_eval_mod(df, r, p), -1, p)
        while m < top:
            # f(r) = 0 and z f'(r) = 1 mod m, so both hold mod m^2, and mod
            # its divisor top, after the step
            m = min(m * m, top)
            r = (r - _eval_mod(f, r, m) * z) % m
            if m < top:
                z = z * (2 - _eval_mod(df, r, m) * z) % m
        # half-extended Euclid: the unique a = b*r (mod m) with |a| <= a0
        r0, r1, t0, t1 = m, r, 0, 1
        while r1 > a0:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        a, b = (r1, t1) if t1 > 0 else (-r1, -t1)
        if (
            a and b <= lead and a0 % a == 0 and lead % b == 0
            and scaled_value(f, a, b) == 0
        ):
            out.append(_pair(a, b))
    return out


#: Evaluation points GCDHEU tries before Euclid runs.
HEU_TRIES = 6
#: Largest bit size, (bits of xi) * (degree + 1), of an evaluation GCDHEU
#: makes; above it Euclid runs.  Two rows that ``parse`` accepts (at most
#: 33 numerators of at most 4300 digits) fit; the integer gcd, quadratic in
#: this size, takes about a second at the bound.
HEU_BITS = 1 << 19


def exact_quotient(f: Sequence[int], g: Sequence[int]) -> list[int] | None:
    """f/g for f and g in Z[x], g primitive with a positive leading
    coefficient, when g divides f (by Gauss's lemma, in Q[x] as in Z[x]),
    else None: long division over Z from the top, stopped at the first
    quotient coefficient that is not an integer."""
    d, lead = len(g) - 1, g[-1]
    if len(f) <= d:
        return None
    rem = list(f)
    q = [0] * (len(f) - d)
    for k in range(len(f) - 1 - d, -1, -1):
        c, r = divmod(rem[k + d], lead)
        if r:
            return None
        if c:
            q[k] = c
            for j in range(d):
                rem[k + j] -= c * g[j]
    return None if any(rem[:d]) else q


def _heuristic_gcd(a: Sequence[int], b: Sequence[int]) -> list[int] | None:
    """The primitive gcd, with a positive leading coefficient, of a and b
    in Z[x], primitive and of degree >= 1, by GCDHEU (Char, Geddes and
    Gonnet, J. Symbolic Comput. 7, 1989); None when it fails.

    Take the integer gcd of a(xi) and b(xi) and read it back xi-adically,
    with remainders in (-xi/2, xi/2].  With xi >= 2 min(|a|, |b|) + 2 (max
    norms), the primitive part of that polynomial is the gcd exactly when
    it divides both a and b.  Each failure grows xi by about 2.73 (the
    factor 73794/27011 of the paper), up to :data:`HEU_TRIES` points and
    an evaluation of :data:`HEU_BITS` bits.
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(HEU_TRIES):
        if xi.bit_length() * max(len(a), len(b)) > HEU_BITS:
            return None
        gamma, g = int_gcd(scaled_value(a, xi, 1), scaled_value(b, xi, 1)), []
        while gamma:
            c = gamma % xi
            if 2 * c > xi:
                c -= xi
            g.append(c)
            gamma = (gamma - c) // xi
        g = primitive(g)
        if exact_quotient(a, g) is not None and exact_quotient(b, g) is not None:
            return g
        xi = xi * 73794 // 27011
    return None


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q[x].  With a monomial c*x^k on one side it is
    x^min(k, v), v the order at 0 of the other side, without division.
    Otherwise GCDHEU (:func:`_heuristic_gcd`) runs on the primitive
    numerators; when it fails, Euclid over Z: each remainder a
    pseudo-remainder made primitive (the primitive remainder sequence of
    von zur Gathen and Gerhard, *Modern Computer Algebra*)."""
    for mono, other in ((a, b), (b, a)):
        if mono._n and not any(mono._n[:-1]) and other._n:
            return Poly.x(min(mono.degree, other.order_at(0)))
    f, g = (primitive(p._n) if p._n else [] for p in (a, b))
    if f and g and (h := _heuristic_gcd(f, g)) is not None:
        return from_row(h, h[-1])
    while g:
        # r = lc(g)^k f - q g, one top coefficient cancelled per pass
        r, top = f, len(g) - 1
        while len(r) > top:
            t, s = r[-1], len(r) - 1 - top
            r = [g[-1] * c for c in r[:-1]]
            for j in range(top):
                r[s + j] -= t * g[j]
            while r and not r[-1]:
                r.pop()
        f, g = g, primitive(r) if r else []
    return from_row(f, f[-1] if f else 1)


@cache
def falling_factorial(j: int) -> Poly:
    """t (t-1) ... (t-j+1) as a polynomial in t; 1 for j = 0.  Memoized:
    one row per rank a θ-expansion reaches, filled on first use."""
    out = Poly.const(1)
    for k in range(j):
        out = out * Poly([-k, 1])
    return out
