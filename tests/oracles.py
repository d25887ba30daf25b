"""Reference implementations and helpers that only the tests use.

Each is the direct, slow form of something ``irrkatz`` computes another
way (``ParamExpr`` on a ``Fraction`` constant and ``Fraction``
coefficients, the exponent action as one loop of ``ParamExpr`` sums,
the form entry by entry or block by block, a reflection from a Gram
row, the diagram's label from the whole Gram matrix, ker phi by Gaussian
elimination, the support tuples and the fundamental domain by the full
product, the operator product by the
Leibniz rule term by term, ``Poly`` and its gcd on ``Fraction`` tuples,
the operator and its kernels on reduced ``RatFunc`` coefficients, the
Taylor shift, the value at a point, the order at a root and the hinted
root loop on ``Fraction``s, the chain grouping, the triangular check and
the separation of chain bases on ``Fraction``s, the Euler step's
hypotheses on the twisted chain table, long division, the theta expansion,
the chart at infinity and the twists in ``Poly`` arithmetic, one new
``Poly`` per partial sum, the theta expansion and the chart at infinity
with one ``_add_product`` call per term, the twists' P_j as one new
``Poly`` each, the
primitive component, the translation and the division by (x - c)^k as
they were, the numerators of ``Poly``s over one denominator, the
tokenizer that read every numeral as a ``Fraction``), a check no pipeline code runs (ker phi in the radical of
the form, from its closed-form basis), or a small accessor no pipeline
code needs (the reversal and the monic form of a ``Poly``, rationals as
(numerator, denominator) pairs and back, the degree of an operator, the
sum and negation of
operators, and ``RatFunc`` with the operator built from and read back as
its coefficients, which the tests use to build and inspect operators; the
zero lattice vector, multiples of one and the test for zero; the
difference of two exponential factors; the test whether a parameter
expression, or the difference of two, is generically an integer), so it
lives here and not in ``src``; ``test_reach.py`` keeps it that way.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import compress, product
from math import comb, gcd, lcm, perm
from operator import mul, ne
from typing import Union

from irrkatz import corpus
from irrkatz.exponents import ExponentVector
from irrkatz.formal import ExponentialFactor, FormalData, OshimaCheckError, SpectralData
from irrkatz.lattice import IndexTuple, LatticeShape, LatticeVector
from irrkatz.polys import (
    UNIT, Poly, PolyLike, _lifted_roots, as_poly, from_row, linear_quotient, poly_gcd,
    pow_by_squaring,
)
from irrkatz.reduce import AssumptionViolatedError
from irrkatz.rootsys import Node, RootBasis, RootVector, build_basis, phi
from irrkatz.scalar import ParamExpr, ParamLike
from irrkatz.weylalg import (
    INF, DiffOperator, Location, OperatorSyntaxError, ThetaExpansion, _add_product, _coefficient,
    _divide_out, _lah, _operator, translate,
)

# -- rootsys ---------------------------------------------------------------------


def node_pairing(shape: LatticeShape, n1: Node, n2: Node) -> int:
    """The form on two nodes, entry by entry."""
    kind1, pay1 = n1
    kind2, pay2 = n2
    if kind1 == "t" and kind2 == "t":
        total = 0
        matches = 0
        for i in range(shape.num_points):
            total += shape.weights[i][pay1[i]][pay2[i]]
            if pay1[i] == pay2[i]:
                matches += 1
        return total - (shape.p - 1) + matches
    if kind1 == "c" and kind2 == "c":
        (i, j, s), (i2, j2, s2) = pay1, pay2
        if pay1 == pay2:
            return 2
        if (i, j) == (i2, j2) and abs(s - s2) == 1:
            return -1
        return 0
    if kind1 == "c":
        pay1, pay2 = pay2, pay1
    t, (i, j, s) = pay1, pay2
    return -1 if t[i] == j and s == 0 else 0


def basis_with_gram(shape: LatticeShape, nodes, gram) -> RootBasis:
    """A basis whose Gram matrix is ``gram``, set in place of the one
    ``RootBasis.gram`` builds on its first read."""
    basis = RootBasis(shape, tuple(nodes))
    basis.__dict__["gram"] = tuple(tuple(row) for row in gram)
    return basis


def classify_gram(gram) -> tuple[str, list[list[int]]]:
    """``classify_diagram``'s walk and labels read from a whole Gram matrix,
    the reference for the rows it builds on demand."""
    rest = set(range(len(gram)))
    labels = []
    components = []
    for start in range(len(gram)):
        if start in rest:
            component = _gram_component(gram, start, rest)
            labels.append(_gram_label(gram, component))
            components.append(component)
    return " + ".join(labels), components


def _gram_component(gram, start: int, rest: set[int]) -> list[int]:
    """Sorted positions of the component of ``start``, which are taken out
    of ``rest``, the nodes no component holds yet.  Each popped node adds
    the nonzero positions of its Gram row still in ``rest``."""
    nodes = range(len(gram))
    rest.remove(start)
    stack = [start]
    comp = [start]
    while stack and rest:
        new = rest.intersection(compress(nodes, gram[stack.pop()]))
        rest -= new
        stack += new
        comp += new
    return sorted(comp)


def _gram_label(gram, comp: list[int]) -> str:
    """Two nodes are A1(1) when joined by a double edge.  Otherwise the
    degrees (nonzero off-diagonal entries of a row) decide the candidate, a
    cycle or a 5-node star, and every edge must be simple."""
    if len(comp) == 2:
        a, b = comp
        return "A1(1)" if gram[a][b] == -2 else "unrecognized"
    n = len(gram)
    if all(n - 1 - gram[a].count(0) == 2 for a in comp):
        label = f"A{len(comp) - 1}(1)"
    elif len(comp) == 5 and sorted(n - 1 - gram[a].count(0) for a in comp) == [1, 1, 1, 1, 4]:
        label = "D4(1)"
    else:
        return "unrecognized"
    if any(min(gram[a]) != -1 for a in comp):
        return "unrecognized"
    return label


def reflect(alpha: RootVector, node: Node) -> RootVector:
    """Reflection in a basis node, its coefficient read from the node's
    Gram row."""
    basis = alpha.basis
    k = basis.node_index(node)
    coeff = sum(g * v for g, v in zip(basis.gram[k], alpha.coords))
    coords = list(alpha.coords)
    coords[k] -= coeff
    return RootVector(basis, coords)


def tuple_nodes(basis: RootBasis) -> list[int]:
    """Positions of the tuple nodes."""
    return [k for k, (kind, _) in enumerate(basis.nodes) if kind == "t"]


def chain_nodes(basis: RootBasis) -> list[int]:
    """Positions of the chain nodes."""
    return [k for k, (kind, _) in enumerate(basis.nodes) if kind == "c"]


def phi_of_tuple_node(shape: LatticeShape, t: IndexTuple) -> LatticeVector:
    """Image of a tuple node: multiplicity one in the first slot of the
    chosen factor at every point, a rank-1 vector."""
    basis = build_basis(shape)
    return phi(RootVector.unit(basis, ("t", tuple(t))))


def kernel_basis(basis: RootBasis) -> list[RootVector]:
    """The closed-form basis of ker phi, in tuple order.

    v_t = sum over U in S(t) of (-1)^|S(t) - U| e_(t|U), one vector per
    tuple t with two or more nonzero entries: S(t) is where t is nonzero
    and t|U is t on U and 0 off it.  A kernel vector has no chain
    coordinates (the last slot of a chain is reached only by its last
    chain node), so ker phi is the tuple-node vectors with zero marginals;
    each v_t is e_t plus tuples of smaller support, and there are
    prod k_i - 1 - sum (k_i - 1) of them, the dimension of that space.
    """
    vectors = []
    for t in basis.shape.index_tuples():
        if sum(map(bool, t)) >= 2:
            coords = [0] * len(basis.nodes)
            for u in product(*((0, j) if j else (0,) for j in t)):
                coords[basis.node_index(("t", u))] = (-1) ** sum(map(ne, t, u))
            vectors.append(RootVector(basis, coords))
    return vectors


def kernel_radical_check(shape: LatticeShape) -> bool:
    """The kernel of the surjection pairs to zero with every node, read
    from the Gram matrix: the proof that the form pulls back exactly."""
    basis = build_basis(shape)
    return all(
        is_zero_vector(phi(v)) and not any(sum(map(mul, row, v.coords)) for row in basis.gram)
        for v in kernel_basis(basis)
    )


def phi_matrix(basis: RootBasis) -> list[list[int]]:
    """The surjection as a (slots x nodes) integer matrix."""
    rows = []
    for node in basis.nodes:
        image = phi(RootVector.unit(basis, node))
        rows.append([v for point in image.entries for ch in point for v in ch])
    return [list(col) for col in zip(*rows)]


def rational_kernel(matrix: list[list[int]]) -> list[list[Fraction]]:
    """Kernel basis of an integer matrix over Q, by Gauss-Jordan elimination."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    ncols = len(matrix[0]) if matrix else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((k for k in range(r, len(rows)) if rows[k][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][c]
        rows[r] = [v / lead for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c] != 0:
                factor = rows[k][c]
                rows[k] = [v - factor * w for v, w in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for rr, pc in enumerate(pivots):
            vec[pc] = -rows[rr][fc]
        basis.append(vec)
    return basis


# -- scalar ----------------------------------------------------------------------


class RefParamExpr:
    """``scalar.ParamExpr`` as it was stored before its integer form: a
    ``Fraction`` constant and a dict of ``Fraction`` coefficients, zero
    coefficients dropped, every operation in ``Fraction`` arithmetic (on
    constants, one ``Fraction`` operation each)."""

    __slots__ = ("const", "terms")

    def __init__(self, const=0, terms=None):
        object.__setattr__(self, "const", _ref_rat(const))
        cleaned = {}
        if terms:
            for name, coeff in terms.items():
                coeff = _ref_rat(coeff)
                if coeff != 0:
                    cleaned[name] = coeff
        object.__setattr__(self, "terms", dict(sorted(cleaned.items())))

    def __setattr__(self, name, value):
        raise AttributeError("RefParamExpr is immutable")

    @staticmethod
    def param(name: str) -> "RefParamExpr":
        return RefParamExpr(0, {name: 1})

    @staticmethod
    def of(value) -> "RefParamExpr":
        if isinstance(value, RefParamExpr):
            return value
        return _ref_constant(_ref_rat(value))

    def __add__(self, other) -> "RefParamExpr":
        other = RefParamExpr.of(other)
        if not self.terms and not other.terms:
            return _ref_constant(self.const + other.const)
        terms = dict(self.terms)
        for name, coeff in other.terms.items():
            terms[name] = terms.get(name, Fraction(0)) + coeff
        return RefParamExpr(self.const + other.const, terms)

    __radd__ = __add__

    def __neg__(self) -> "RefParamExpr":
        if not self.terms:
            return _ref_constant(-self.const)
        return RefParamExpr(-self.const, {n: -c for n, c in self.terms.items()})

    def __sub__(self, other) -> "RefParamExpr":
        other = RefParamExpr.of(other)
        if not self.terms and not other.terms:
            return _ref_constant(self.const - other.const)
        return self + (-other)

    def __rsub__(self, other) -> "RefParamExpr":
        return RefParamExpr.of(other) - self

    def __mul__(self, scalar) -> "RefParamExpr":
        if type(scalar) is not int:
            scalar = _ref_rat(scalar)
        if not self.terms:
            return _ref_constant(self.const * scalar)
        return RefParamExpr(self.const * scalar, {n: c * scalar for n, c in self.terms.items()})

    __rmul__ = __mul__

    def as_rat(self) -> Fraction:
        if self.terms:
            raise ValueError(f"{self} depends on parameters")
        return self.const

    def is_zero(self) -> bool:
        return self.const == 0 and not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RefParamExpr(other)
        if not isinstance(other, RefParamExpr):
            return NotImplemented
        return self.const == other.const and self.terms == other.terms

    def __hash__(self):
        return hash((self.const, tuple(self.terms.items())))

    def __str__(self) -> str:
        out = [str(self.const)]
        for name, coeff in self.terms.items():
            if coeff < 0:
                out.append(f"- {-coeff}*{name}")
            else:
                out.append(f"+ {coeff}*{name}")
        return " ".join(out)


def _ref_rat(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational, got {value!r}")


def _ref_constant(value: Fraction) -> RefParamExpr:
    """The expression without terms whose value is ``value``, as
    ``RefParamExpr(value)`` builds it, with its own empty terms."""
    expr = object.__new__(RefParamExpr)
    object.__setattr__(expr, "const", value)
    object.__setattr__(expr, "terms", {})
    return expr


# -- lattice ---------------------------------------------------------------------


def block_sum(a: LatticeVector, i: int, j: int) -> int:
    """The sum of the chain of factor (i, j)."""
    return sum(a.entries[i][j])


def form(shape: LatticeShape, a: LatticeVector, b: LatticeVector) -> int:
    """B(a, b) = sum a.b + sum_i sum_{j != j'} w_i[j][j'] A_ij B_ij' - (p-1) n_a n_b,
    the polarization of idx, with A_ij and B_ij' the block sums."""
    total = sum(
        x * y
        for pa, pb in zip(a.entries, b.entries)
        for ca, cb in zip(pa, pb)
        for x, y in zip(ca, cb)
    )
    for i, table in enumerate(shape.weights):
        for j, row in enumerate(table):
            for j2, w in enumerate(row):
                if j != j2:
                    total += w * block_sum(a, i, j) * block_sum(b, i, j2)
    return total - (shape.p - 1) * a.rank * b.rank


def tuple_defect(a: LatticeVector, t: IndexTuple) -> int:
    """The defect of a tuple, block by block over the whole tuple."""
    total = 0
    for i, point in enumerate(a.entries):
        for j, chain in enumerate(point):
            total += ((1 if i else -1) - a.shape.weights[i][j][t[i]]) * sum(chain)
        total -= point[t[i]][0]
    return total


def zero_vector(shape: LatticeShape) -> LatticeVector:
    return LatticeVector(shape, [[[0] * l for l in lens] for lens in shape.chain_lengths])


def scaled(a: LatticeVector, k: int) -> LatticeVector:
    """k times ``a``, slot by slot; ``scaled(a, -1)`` is -a."""
    return LatticeVector(a.shape, [[[k * v for v in ch] for ch in point] for point in a.entries])


def is_zero_vector(a: LatticeVector) -> bool:
    return not any(v for point in a.entries for ch in point for v in ch)


def in_fundamental_domain(a: LatticeVector) -> bool:
    """Membership in the terminal set of the reduction: nonzero, all
    entries nonnegative, chains sorted descending, and no index tuple of
    the full product with negative defect."""
    if is_zero_vector(a) or not a.is_nonnegative():
        return False
    if any(list(ch) != sorted(ch, reverse=True) for point in a.entries for ch in point):
        return False
    return all(tuple_defect(a, t) >= 0 for t in a.shape.index_tuples())


def rank_one(shape: LatticeShape, t: IndexTuple) -> LatticeVector:
    """The rank-1 vector of an index tuple: 1 in the first slot of factor
    t_i at every point."""
    return LatticeVector(shape, [
        [[int(j == t[i] and s == 0) for s in range(l)] for j, l in enumerate(lens)]
        for i, lens in enumerate(shape.chain_lengths)
    ])


def support_tuples(a: LatticeVector) -> tuple[IndexTuple, ...]:
    """The full product filtered to factors with a nonzero chain entry."""
    return tuple(
        t for t in a.shape.index_tuples()
        if all(any(v != 0 for v in a.entries[i][j]) for i, j in enumerate(t))
    )


# -- polys -----------------------------------------------------------------------


def int_rows(polys) -> tuple[list, int]:
    """The numerators of ``polys`` over one denominator, the lcm of theirs."""
    d = lcm(*(q._d for q in polys))
    return [q._n if q._d == d else [a * (d // q._d) for a in q._n] for q in polys], d


class FractionPoly:
    """``Poly`` as it was before integer numerators: a trimmed tuple of
    ``Fraction`` coefficients, every operation coefficient by coefficient,
    the reference the differential test compares ``Poly`` against."""

    def __init__(self, coeffs=()):
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @staticmethod
    def of(value) -> "FractionPoly":
        return value if isinstance(value, FractionPoly) else FractionPoly([value])

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __eq__(self, other) -> bool:
        return self.coeffs == FractionPoly.of(other).coeffs

    def __add__(self, other) -> "FractionPoly":
        a, b = self.coeffs, FractionPoly.of(other).coeffs
        return FractionPoly([x + y for x, y in zip(a, b)] + list(a[len(b):] or b[len(a):]))

    def __neg__(self) -> "FractionPoly":
        return FractionPoly([-c for c in self.coeffs])

    def __sub__(self, other) -> "FractionPoly":
        return self + (-FractionPoly.of(other))

    def __mul__(self, other) -> "FractionPoly":
        other = FractionPoly.of(other)
        out = [Fraction(0)] * max(0, len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionPoly(out)

    def __pow__(self, n: int) -> "FractionPoly":
        out = FractionPoly([1])
        for _ in range(n):
            out = out * self
        return out

    def divmod(self, other: "FractionPoly") -> tuple["FractionPoly", "FractionPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d, lead = other.degree, other.leading()
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(rem) - d)
        for k in range(len(rem) - 1 - d, -1, -1):
            factor = q[k] = rem[k + d] / lead
            for j in range(d):
                rem[k + j] -= factor * other.coeffs[j]
        return FractionPoly(q), FractionPoly(rem[:d])

    def eval(self, point) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * Fraction(point) + c
        return acc

    def derivative(self) -> "FractionPoly":
        return FractionPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def shift(self, c) -> "FractionPoly":
        a = list(self.coeffs)
        for i in range(len(a) - 1):
            for k in range(len(a) - 2, i - 1, -1):
                a[k] += Fraction(c) * a[k + 1]
        return FractionPoly(a)

    def reverse(self, at_degree: int | None = None) -> "FractionPoly":
        n = self.degree if at_degree is None else at_degree
        if n < self.degree:
            raise ValueError("reversal degree below actual degree")
        return FractionPoly([0] * (n - self.degree) + list(reversed(self.coeffs)))

    def order_at(self, c) -> int:
        if self.is_zero():
            raise ValueError("order of the zero polynomial")
        p, m = self, 0
        while p.eval(c) == 0:
            p, m = p.divmod(FractionPoly([-Fraction(c), 1]))[0], m + 1
        return m

    def int_content_and_primitive(self) -> tuple[Fraction, "FractionPoly"]:
        if self.is_zero():
            return Fraction(0), FractionPoly()
        den = lcm(*(c.denominator for c in self.coeffs))
        num = gcd(*(int(c * den) for c in self.coeffs))
        r = Fraction(-num if self.coeffs[-1] < 0 else num, den)
        return r, FractionPoly([c / r for c in self.coeffs])

    def monic(self) -> "FractionPoly":
        return FractionPoly([c / self.leading() for c in self.coeffs])

    def rational_roots(self) -> dict[Fraction, int]:
        """The roots as ``Poly.rational_roots`` finds them, with the
        square-free part and the multiplicities in ``Fraction`` arithmetic."""
        if self.is_zero():
            raise ValueError("roots of the zero polynomial")
        low = self.order_at(0)
        roots = {Fraction(0): low} if low else {}
        _, zp = FractionPoly(self.coeffs[low:]).int_content_and_primitive()
        if zp.degree == 0:
            return roots
        _, sf = zp.divmod(fraction_poly_gcd(zp, zp.derivative()))[0].int_content_and_primitive()
        found = [Fraction(a, b) for a, b in _lifted_roots(tuple(int(c) for c in sf.coeffs))]
        for root in sorted(found, key=lambda q: (abs(q.numerator), q.denominator, q < 0)):
            roots[root] = zp.order_at(root)
        return roots


def fraction_poly_gcd(a: FractionPoly, b: FractionPoly) -> FractionPoly:
    """Monic gcd by Euclid's algorithm on ``FractionPoly``."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a if a.is_zero() else a.monic()


class RatFunc:
    """The coefficient of an operator as it was before integer rows: the
    reduced fraction num/den of polynomials, den monic and nonzero, a
    constant denominator always ``UNIT``.  The tests build operators from
    these (:func:`operator`) and read them back as these (:func:`coeffs`)."""

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
                lead = leading(den)
                if lead != 1:
                    num = num * (1 / lead)
                    den = monic(den)
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


def taylor_shift(p: Poly, c) -> Poly:
    """q(y) = p(y + c) by Horner's rule on ``Poly`` objects."""
    if c == 0:
        return p
    c = Fraction(c)
    out = Poly()
    for coeff in reversed(p.coeffs):
        out = out * Poly([c, 1]) + Poly.const(coeff)
    return out


def leading(p: Poly) -> Fraction:
    """The coefficient of the highest power of x; 0 for the zero polynomial."""
    return p[p.degree]


def reverse(p: Poly, at_degree: int | None = None) -> Poly:
    """Coefficient reversal: x^n * p(1/x) for n = at_degree (default deg p)."""
    n = p.degree if at_degree is None else at_degree
    if n < p.degree:
        raise ValueError("reversal degree below actual degree")
    return from_row([0] * (n - p.degree) + list(reversed(p._n)), p._d)


def monic(p: Poly) -> Poly:
    """p over its leading coefficient; the zero polynomial itself."""
    if p.is_zero():
        return p
    sign = -1 if p._n[-1] < 0 else 1
    return from_row([sign * a for a in p._n], sign * p._n[-1])


def long_divmod(p: Poly, other: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder by schoolbook long division."""
    if other.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    d = other.degree
    lead = leading(other)
    rem = list(p.coeffs)
    q = [Fraction(0)] * max(0, len(rem) - d)
    for k in range(len(rem) - 1 - d, -1, -1):
        factor = q[k] = rem[k + d] / lead
        for j in range(d):
            rem[k + j] -= factor * other.coeffs[j]
    return Poly(q), Poly(rem[:d])


def poly_eval(p: Poly, point) -> Fraction:
    """p(a/b) = (sum n_k a^k b^(m-k)) / (b^m d), m = deg p, by Horner's
    rule on integers: the value as a ``Fraction``."""
    if not p._n:
        return Fraction(0)
    point = Fraction(point)
    a, b = point.numerator, point.denominator
    acc, bk = 0, 1
    for c in reversed(p._n):
        acc = acc * a + c * bk
        bk *= b
    return Fraction(acc, p._d * (bk // b))


def order_at(p: Poly, c) -> int:
    """Multiplicity of the root c: evaluate, then divide by x - c, while
    p(c) = 0."""
    if p.is_zero():
        raise ValueError("order of the zero polynomial")
    c, m = Fraction(c), 0
    while poly_eval(p, c) == 0:
        p = long_divmod(p, Poly([-c, 1]))[0]
        m += 1
    return m


def pairs(values) -> list[tuple[int, int]]:
    """Rationals, ``Fraction``s or ints, as the coprime (numerator,
    denominator) pairs that ``Poly.rational_roots`` takes as hints."""
    return [(Fraction(c).numerator, Fraction(c).denominator) for c in values]


def pair_keys(roots) -> dict[tuple[int, int], int]:
    """A dict keyed by rationals, keyed by their pairs instead, in the same
    order: roots as ``Poly.rational_roots`` returns them."""
    return dict(zip(pairs(roots), roots.values()))


def fraction_keys(roots) -> dict[Fraction, int]:
    """A dict keyed by (numerator, denominator) pairs, keyed by the
    ``Fraction``s instead, in the same order."""
    return {Fraction(a, b): m for (a, b), m in roots.items()}


def hinted_rational_roots(p: Poly, hints) -> dict[Fraction, int]:
    """``Poly.rational_roots(hints)`` with the hints tried as ``Fraction``s
    and the roots keyed by ``Fraction``s: the order of each at
    :func:`order_at`, a linear scan for repeats, and the search
    (``rational_roots()`` without hints) when they do not fill the
    degree."""
    hinted, total = [], 0
    for c in hints:
        if (k := order_at(p, c)) and all(c != root for root, _ in hinted):
            hinted.append((Fraction(c), k))
            total += k
            if total == p.degree:
                return dict(sorted(hinted, key=lambda item: (
                    abs(item[0].numerator), item[0].denominator, item[0] < 0)))
    return fraction_keys(p.rational_roots())


def falling_factorial(j: int) -> Poly:
    """t (t-1) ... (t-j+1) as a product of ``Poly`` factors."""
    out = Poly.const(1)
    for k in range(j):
        out = out * Poly([-k, 1])
    return out


def over_common_denominator(p) -> tuple[Poly, list[Poly]]:
    """``(M, [N_i])`` with ``a_i = N_i / M`` for every coefficient, M the
    monic lcm of the denominators."""
    cs = coeffs(p)
    den = UNIT
    for c in cs:
        if c.den.degree > 0:
            den = den * (c.den // poly_gcd(den, c.den))
    return den, [c.num if c.den == den else c.num * (den // c.den) for c in cs]


def subst_infinity(p: DiffOperator) -> DiffOperator:
    """The chart at infinity, one new ``Poly`` per Lah term."""
    if p.is_zero():
        return p
    den, nums = over_common_denominator(p)
    d = max(q.degree for q in [den, *nums])
    revs = [reverse(q, d) for q in nums]
    out = [revs[0]]
    for k in range(1, len(revs)):
        acc = Poly()
        for i in range(k, len(revs)):
            lah = (-1) ** i * _lah(i, k)
            acc = acc + Poly([0] * (i + k) + [lah * a for a in revs[i].coeffs])
        out.append(acc)
    rev_den = reverse(den, d)
    return _like(p, [RatFunc(q, rev_den) for q in out])


def theta_expansion(p: DiffOperator, at: Location) -> ThetaExpansion:
    """The theta expansion in per-weight ``Poly`` buckets, the Laurent
    check by comparing with the power of x - c."""
    if p.is_zero():
        raise ValueError("theta expansion of the zero operator")
    q, c = (subst_infinity(p), Fraction(0)) if at is INF else (p, at)
    buckets: dict[int, Poly] = {}
    for j, coeff in enumerate(coeffs(q)):
        if coeff.is_zero():
            continue
        shift = order_at(coeff.den, c)
        if coeff.den != Poly([-c, 1]) ** shift:
            raise ValueError(f"coefficient {coeff} is not a Laurent polynomial at {c}")
        ff = falling_factorial(j)
        for m, gamma in enumerate(taylor_shift(coeff.num, c).coeffs):
            if gamma != 0:
                w = (m - shift) - j
                buckets[w] = buckets.get(w, Poly()) + gamma * ff
    return ThetaExpansion(at, tuple((i, t) for i, t in sorted(buckets.items()) if t))


def shift_d(p: DiffOperator, g: Poly, e: int, c: Fraction) -> DiffOperator:
    """The twist D -> D - g/(x-c)^e, Horner's rule on ``Poly`` objects."""
    den, nums = over_common_denominator(p)
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
    return _like(p, out)


def subst_inverse(f: RatFunc) -> RatFunc:
    """f(1/x) as a rational function of x."""
    n = max(f.num.degree, f.den.degree)
    if n < 0:
        return f
    return RatFunc(reverse(f.num, n), reverse(f.den, n))


# -- weylalg ---------------------------------------------------------------------


def operator(coeffs=()) -> DiffOperator:
    """The operator ``sum_i coeffs[i] D^i`` for ``RatFunc``, ``Poly`` or
    scalar coefficients: the rows of the numerators over the lcm of the
    denominators."""
    cs = [RatFunc.of(c) for c in coeffs]
    den = UNIT
    for c in cs:
        den = den * (c.den // poly_gcd(den, c.den))
    return _operator(*int_rows([c.num * (den // c.den) for c in cs]), den)


def operator_of(value) -> DiffOperator:
    """``value`` itself when it is an operator, else the rank-0 operator
    of a ``RatFunc``, ``Poly`` or scalar."""
    return value if isinstance(value, DiffOperator) else operator([value])


def coeffs(p) -> tuple[RatFunc, ...]:
    """The reduced coefficients of an operator, that of D^i at i; those of a
    ``RatFuncOperator`` as it holds them."""
    if isinstance(p, RatFuncOperator):
        return p.coeffs
    return tuple(RatFunc(from_row(list(row), p._d), p._den) for row in p._rows)


def _like(p, cs) -> DiffOperator:
    """The operator of the coefficients ``cs``, of the class of ``p``."""
    return RatFuncOperator(cs) if isinstance(p, RatFuncOperator) else operator(cs)


def apply(p: DiffOperator, f) -> RatFunc:
    """The operator applied to a rational function."""
    f = RatFunc.of(f)
    acc = RatFunc(0)
    for a in coeffs(p):
        acc += a * f
        f = f.derivative()
    return acc



def leibniz_product(p, q) -> DiffOperator:
    """The product of two operators, or of a function or scalar and an
    operator, term by term in ``RatFunc`` arithmetic: ``D^i b =
    sum_k C(i, k) b^(k) D^(i-k)``, each derivative of each coefficient of
    q taken once; on rational coefficients too, which ``DiffOperator``
    refuses to multiply."""
    pc, qc = coeffs(operator_of(p)), coeffs(operator_of(q))
    if not pc or not qc:
        return operator()
    out = [RatFunc(0)] * (len(pc) + len(qc) - 1)
    for j, b in enumerate(qc):
        if b.is_zero():
            continue
        derivs = [b]
        for _ in range(len(pc) - 1):
            derivs.append(derivs[-1].derivative())
        for i, a in enumerate(pc):
            if a.is_zero():
                continue
            for k in range(i + 1):
                if not derivs[k].is_zero():
                    out[i - k + j] += a * comb(i, k) * derivs[k]
    return operator(out)


def op_sum(p, q, sign: int = 1) -> DiffOperator:
    """``p + sign*q`` for operators, ``RatFunc``s, ``Poly``s or scalars,
    coefficient by coefficient on ``RatFuncOperator``.  No pipeline step
    adds operators; parse adds integer rows itself."""
    a, b = (RatFuncOperator(coeffs(operator_of(v))) for v in (p, q))
    return operator((a + b if sign == 1 else a - b).coeffs)


def op_neg(p: DiffOperator) -> DiffOperator:
    """``-p``: ``DiffOperator.__neg__`` as it was."""
    return _operator([[-a for a in row] for row in p._rows], p._d, p._den)


def prim_by_gcd(p: DiffOperator) -> DiffOperator:
    """``weylalg.prim`` without its test for primitive input: the gcd chain
    over every row, the division by it, then the division by the
    leading coefficient."""
    if p.is_zero():
        raise ValueError("primitive component of the zero operator")
    nums = [from_row(list(row)) for row in p._rows]
    g = Poly()
    for q in nums:
        if q and g.degree:
            g = poly_gcd(g, q) if g else q
    rows = int_rows([q // g for q in nums])[0] if g.degree > 0 else p._rows
    sign = -1 if rows[-1][-1] < 0 else 1
    return _operator([[sign * a for a in row] for row in rows], sign * rows[-1][-1])


def translate_by_polys(p: DiffOperator, c: Fraction) -> DiffOperator:
    """``weylalg.translate`` as it was: each row a ``Poly``, shifted by
    ``Poly.shift``, the rows over the lcm of their denominators."""
    if c == 0 or p.is_zero():
        return p
    rows, d = int_rows([from_row(list(row)).shift(c) if row else Poly() for row in p._rows])
    return _operator(rows, p._d * d, p._den.shift(c))


def divide_out_two_pass(rows: list, c, most: int) -> tuple[int, list, int]:
    """``weylalg._divide_out`` as it was: the order of each row at c by
    ``Poly.order_at``, then one division of each by (x - c)^k; the rows
    over one integer denominator."""
    nums = [from_row(list(row)) for row in rows]
    k = min([most] + [q.order_at(c) for q in nums if q])
    u = Poly.x(k) if c == 0 else (Poly.x() - c) ** k
    return (k, *int_rows([q // u for q in nums]))


def divide_out(rows: list, c, most: int) -> tuple[int, list]:
    """``weylalg._divide_out`` as it was while twists ran at any point: the
    largest k <= most such that (x - c)^k divides every integer row, and the
    rows divided by it, integer rows again.

    At c = 0 the quotients are slices.  At c = a/b each step divides every
    nonzero row by b*x - a over Z (``linear_quotient``) and keeps the
    quotients, until a row does not divide; the rows over (x - c)^k are the
    last quotients times b^k."""
    if c == 0:
        k = min([most] + [next(i for i, a in enumerate(row) if a) for row in rows if any(row)])
        return k, [row[k:] for row in rows]
    a, b = c.numerator, c.denominator
    for k in range(most):
        quotients = [linear_quotient(row, a, b) if any(row) else row for row in rows]
        if None in quotients:
            break
        rows = quotients
    else:
        k = most
    if b != 1 and k:
        scale = b**k
        rows = [[scale * x for x in row] for row in rows]
    return k, rows


def shift_d_by_polys(p: DiffOperator, g: Poly, e: int, c: Fraction) -> DiffOperator:
    """``weylalg._shift_d`` as it was while twists ran at any point: each P_j
    a new ``Poly``, from ``P_(j+1) = (x-c)^e P_j' - (e j (x-c)^(e-1) + g)
    P_j``, then Horner's rule in x - c on integer rows and the division by
    (x - c)^k of :func:`divide_out`."""
    if p.is_zero():
        return p
    n = len(p._rows)
    u = Poly.x() - c
    ue = u ** e
    drop = e * u ** (e - 1) if e else Poly()
    ys = [UNIT]
    for j in range(n - 1):
        ys.append(ue * ys[-1].derivative() - (j * drop + g) * ys[-1])
    yrows, dy = int_rows(ys)
    (urow,), du = int_rows([ue])
    width = max(map(len, p._rows)) + max(map(len, yrows)) + e * (n - 1)
    out = []
    for m in range(n):
        acc = ()
        for j in range(n):
            row = [0] * width
            _add_product(row, acc, urow)
            if j < n - m:
                _add_product(row, p._rows[m + j], yrows[j], comb(m + j, j) * du**j)
            acc = row
        out.append(acc)
    k, out = divide_out(out, c, e * (n - 1) + p._den.order_at(c)) if e else (0, out)
    t = e * (n - 1) - k
    den = p._den * u**t if t >= 0 else p._den // u ** -t
    return _operator(out, p._d * dy * du ** (n - 1), den)


_TOKEN_RE = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*^]))")


def theta_expand_by_products(p: DiffOperator, at: Location) -> ThetaExpansion:
    """``weylalg.theta_expand`` with one ``_add_product`` call per monomial,
    the falling factorial times a one-entry row, and the chart at infinity
    of :func:`subst_infty_by_products`."""
    if p.is_zero():
        raise ValueError("theta expansion of the zero operator")
    q, c = (subst_infty_by_products(p), Fraction(0)) if at is INF else (p, at)
    shift = q._den.degree
    if shift and q._den.order_at(c) != shift:
        for row in filter(None, q._rows):
            text, den = _coefficient(row, q._d, q._den)
            if den.degree and den.order_at(c) != den.degree:
                raise ValueError(f"coefficient {text} is not a Laurent polynomial at {c}")
    q = translate(q, c)
    rows: dict[int, list[int]] = {}
    for j, row in enumerate(q._rows):
        ff = falling_factorial(j)._n
        for m, gamma in enumerate(row):
            if gamma:
                w = (m - shift) - j
                if w not in rows:
                    rows[w] = [0] * len(q._rows)
                _add_product(rows[w], ff, (gamma,))
    terms = ((i, from_row(rows[i], q._d)) for i in sorted(rows))
    return ThetaExpansion(at, tuple((i, t) for i, t in terms if t))


def subst_infty_by_products(p: DiffOperator) -> DiffOperator:
    """``weylalg.subst_infty`` with one ``_add_product`` call per Lah term,
    on rows padded to degree d, and the denominator as ``Poly`` arithmetic:
    ``monic(rev_d(M)) // x^k``."""
    if p.is_zero():
        return p
    den = p._den
    d = max(den.degree, *(len(row) - 1 for row in p._rows))
    revs = [[0] * (d + 1 - len(row)) + list(row[::-1]) for row in p._rows]
    rows = [revs[0]] + [[0] * (d + 2 * len(revs)) for _ in revs[1:]]
    for i in range(1, len(revs)):
        for k in range(1, i + 1):
            _add_product(rows[k], revs[i], ((-1) ** i * _lah(i, k),), offset=i + k)
    rev = reverse(den, d)
    lead = rev._n[-1]
    scale = rev._d if lead > 0 else -rev._d
    k, rows = _divide_out(rows, d - den.degree)
    return _operator([[scale * a for a in row] for row in rows], p._d * abs(lead),
                     monic(rev) // Poly.x(k))


def tokenize(text: str) -> list[tuple[str, object, int]]:
    """The operator-text tokens, every numeral a ``Fraction``: the parser's
    tokenizer before it read integer numerals with ``int``."""
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


def deg_of(p: DiffOperator) -> int:
    """Maximum coefficient degree of a polynomial operator."""
    if not p.is_polynomial():
        raise ValueError("degree is defined for polynomial operators")
    if p.is_zero():
        raise ValueError("degree of the zero operator")
    return max(c.as_poly().degree for c in coeffs(p) if not c.is_zero())


# -- exponents -------------------------------------------------------------------


def act_sigma_t(nu: ExponentVector, t: IndexTuple) -> ExponentVector:
    """``exponents.act_sigma_t`` as one loop of ``ParamExpr`` arithmetic:
    each chain moves by the step ``euler_weight * shortfall``, and the
    chosen first slot back by the shortfall, whether the shortfall is
    constant or not."""
    shape = nu.shape
    shortfall = ParamExpr(1) - nu.tuple_sum(t)
    out = []
    for i, point in enumerate(nu.entries):
        blocks = []
        for j, chain in enumerate(point):
            step = shape.euler_weight(i, j, t[i]) * shortfall
            blocks.append([val - step for val in chain])
        blocks[t[i]][0] = blocks[t[i]][0] + shortfall
        out.append(blocks)
    return ExponentVector(shape, out)


# -- formal ----------------------------------------------------------------------


def group_chains(roots) -> list[tuple[Fraction, int]]:
    """``formal.group_chains`` on ``Fraction``s: each class keyed by the
    residue root - floor(root), and the gaps tested as differences."""
    classes: dict[Fraction, list[Fraction]] = {}
    for root, mult in roots.items():
        if mult != 1:
            raise OshimaCheckError(
                f"repeated characteristic exponent {root}; chain grouping is ambiguous"
            )
        residue = root - (root.numerator // root.denominator)
        classes.setdefault(residue, []).append(root)
    chains = []
    for members in classes.values():
        members.sort()
        for a, b in zip(members, members[1:]):
            if b - a != 1:
                raise OshimaCheckError(
                    f"exponents {a} and {b} differ by a non-unit integer; "
                    "no valid chain grouping"
                )
        chains.append((members[0], len(members)))
    chains.sort()
    return chains


def oshima_check(expansion: ThetaExpansion, data: SpectralData) -> bool:
    """``formal.oshima_check`` by evaluation: each term's value at each
    lam + v, a ``Fraction``, compared with 0."""
    r = expansion.min_index
    for lam, m in data.chains:
        base = lam.as_rat()
        for u in range(m):
            poly = expansion.term(r + u)
            for v in range(m - u):
                if poly_eval(poly, base + v) != 0:
                    return False
    return True


def is_generically_integer(e: ParamLike) -> bool:
    """True iff ``e`` is an integer for generic parameter values.

    Any parameter dependence makes the value non-integer: parameters stand
    for generic points of the ground field.
    """
    e = ParamExpr.of(e)
    return not e.terms and e.const.denominator == 1


def diff_in_integers(e1: ParamLike, e2: ParamLike) -> bool:
    """True iff ``e1 - e2`` is generically an integer; between constants,
    iff their difference is an integer."""
    return is_generically_integer(ParamExpr.of(e1) - e2)


def check_chain_bases(chains) -> None:
    """The separation check of ``SpectralData`` as a walk over all pairs:
    the first pair of bases that differ by an integer raises ValueError."""
    bases = [ParamExpr.of(lam) for lam, _ in chains]
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            if diff_in_integers(bases[i], bases[j]):
                raise ValueError(f"chain bases {bases[i]} and {bases[j]} differ by an integer")


# -- reduce ----------------------------------------------------------------------


def chain_table(factor_table, m: LatticeVector, nu, shifts) -> dict:
    """``reduce._chain_table`` with the exponents of point i shifted by
    ``shifts[i]``: ``{location: {factor: sorted (exponent, multiplicity)
    chains}}``, slots of multiplicity 0 left out."""
    table = {}
    for i, factors in enumerate(factor_table):
        point = table[factors[0].point] = {}
        shift = shifts[i]
        for j, w in enumerate(factors):
            chains = sorted(
                (lam.as_rat() + shift if shift else lam.as_rat(), mult)
                for lam, mult in zip(nu.entries[i][j], m.entries[i][j])
                if mult
            )
            if chains:
                point[w] = chains
    return table


def pair_table(table: dict) -> dict:
    """A chain table of ``Fraction`` exponents (:func:`chain_table`) in the
    form ``reduce._chain_table`` builds: each chain ((numerator,
    denominator), multiplicity), sorted."""
    return {
        loc: {
            w: sorted(((lam.numerator, lam.denominator), k) for lam, k in chains)
            for w, chains in point.items()
        }
        for loc, point in table.items()
    }


def factor_difference(w1: ExponentialFactor, w2: ExponentialFactor) -> ExponentialFactor:
    """``w1 - w2``, coefficient by coefficient, at their common point."""
    coeffs = w1.coeffs
    for k, v in w2.coeffs.items():
        coeffs[k] = coeffs.get(k, Fraction(0)) - v
    return ExponentialFactor(w1.point, coeffs)


def euler_hypotheses(factor_table, m: LatticeVector, nu, t: IndexTuple, lambdas) -> None:
    """``reduce._check_euler_hypotheses`` on the whole twisted chain table:
    each factor minus the chosen one, as an ``ExponentialFactor``, and its
    shifted chains sorted; the first chain that fails raises."""
    lam_sum = sum(lambdas, Fraction(0))
    if lam_sum.denominator == 1:
        raise AssumptionViolatedError(f"exponent sum {lam_sum} along {t} is an integer")
    twisted = [
        factors if factors[k].is_zero() else [factor_difference(w, factors[k]) for w in factors]
        for factors, k in zip(factor_table, t)
    ]
    shifts = [sum(lambdas[1:], Fraction(0))] + [-lam for lam in lambdas[1:]]
    for point in chain_table(twisted, m, nu, shifts).values():
        for w, chains in point.items():
            for base, _ in chains:
                if w.point is INF and w.degree <= 1 and base.denominator == 1:
                    raise AssumptionViolatedError(
                        f"integer exponent {base} in a low-degree factor at infinity"
                    )
                if (
                    w.point is not INF and w.is_zero() and base != 0
                    and (base + lam_sum).denominator == 1
                ):
                    raise AssumptionViolatedError(
                        f"resonance: exponent {base} at {w.point} plus {lam_sum} is an integer"
                    )


# -- corpus ----------------------------------------------------------------------


def _ev(e: ParamExpr, params) -> Fraction:
    acc = e.const
    for name, coeff in e.terms.items():
        acc += coeff * params[name]
    return acc


def instance_formal_data(name: str, params=None) -> FormalData:
    """Fully concrete formal datum of an instantiation, with chains in the
    canonical (sorted) order used by extraction."""
    entry = corpus.get(name)
    params = dict(entry.defaults) if params is None else dict(params)
    sym = entry.symbolic(params)
    points = []
    for loc, factors in sym.points:
        fs = []
        for w, s in factors:
            chains = sorted(
                ((_ev(lam, params), m) for lam, m in s.chains),
                key=lambda pair: (pair[0], pair[1]),
            )
            fs.append((w, SpectralData(chains)))
        points.append((loc, fs))
    return FormalData(points)


# -- the operator on reduced coefficients ------------------------------------------


class RatFuncOperator:
    """``DiffOperator`` as it was before integer rows over one denominator:
    a tuple of reduced ``RatFunc`` coefficients, the sum coefficient by
    coefficient and the product on numerator rows over each operand's
    common denominator, one ``RatFunc`` per output coefficient; the
    reference the differential test compares ``DiffOperator`` against."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [RatFunc.of(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def of(value) -> "RatFuncOperator":
        if isinstance(value, RatFuncOperator):
            return value
        return RatFuncOperator([RatFunc.of(value)])

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def rank(self) -> int:
        if not self.coeffs:
            raise ValueError("rank of the zero operator")
        return len(self.coeffs) - 1

    def is_polynomial(self) -> bool:
        return all(c.is_poly() for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatFuncOperator) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "RatFuncOperator":
        a, b = self.coeffs, RatFuncOperator.of(other).coeffs
        return RatFuncOperator([x + y for x, y in zip(a, b)] + list(a[len(b):] or b[len(a):]))

    def __neg__(self) -> "RatFuncOperator":
        return RatFuncOperator([-c for c in self.coeffs])

    def __sub__(self, other) -> "RatFuncOperator":
        return self + (-RatFuncOperator.of(other))

    def __mul__(self, other) -> "RatFuncOperator":
        other = RatFuncOperator.of(other)
        if self.is_zero() or other.is_zero():
            return RatFuncOperator()
        den, nums = over_common_denominator(self)
        lden, knums = over_common_denominator(other)
        top = len(nums) - 1
        dl = lden.derivative()
        lpows = [UNIT]
        for _ in range(top):
            lpows.append(lpows[-1] * lden)
        rights = []
        for j, r in enumerate(knums):
            for k in range(top + 1):
                if k:
                    r = r.derivative() * lden - r * dl * k if dl else r.derivative()
                if r.is_zero():
                    break
                rights.append((j, k, r * lpows[top - k]))
        lrows, ld = int_rows(nums)
        rrows, rd = int_rows([q for _, _, q in rights])
        width = max(q.degree for q in nums) + max(q.degree for q in knums) + top * lden.degree + 1
        rows = [[0] * width for _ in range(top + len(knums))]
        left = [(i, a) for i, a in enumerate(lrows) if a]
        for (j, k, _), right in zip(rights, rrows):
            for i, a in left:
                if i >= k:
                    _add_product(rows[i - k + j], a, right, comb(i, k))
        out_den = den * lpows[top] * lden
        return RatFuncOperator([RatFunc(from_row(row, ld * rd), out_den) for row in rows])

    def __pow__(self, n: int) -> "RatFuncOperator":
        return pow_by_squaring(self, n, RatFuncOperator.of(1))


def rat_text(p: RatFuncOperator) -> str:
    """``weylalg.to_text`` as it was: each reduced coefficient printed by
    ``RatFunc.format``."""
    parts = []
    for i, c in enumerate(p.coeffs):
        if not c.is_zero():
            parts.append(f"({c.format()})" + ("" if i == 0 else "*D" if i == 1 else f"*D^{i}"))
    return " + ".join(parts) or "0"


def rat_prim(p: RatFuncOperator) -> RatFuncOperator:
    """The primitive component, one ``poly_gcd`` per nonzero coefficient."""
    if p.is_zero():
        raise ValueError("primitive component of the zero operator")
    _, nums = over_common_denominator(p)
    g = Poly()
    for q in nums:
        if not q.is_zero():
            g = q if g.is_zero() else poly_gcd(g, q)
    if g.degree > 0:
        nums = [q // g for q in nums]
    lead = leading(nums[-1])
    return RatFuncOperator([RatFunc(q * (1 / lead)) for q in nums])


def rat_ad_power(p: RatFuncOperator, c: Fraction, lam) -> RatFuncOperator:
    return shift_d(p, Poly.const(lam), 1, c)


def rat_ad_exp_raw(p: RatFuncOperator, at: Location, coeffs) -> RatFuncOperator:
    if at is INF:
        return shift_d(p, sum((Poly([0] * (k - 1) + [wk]) for k, wk in coeffs.items()), Poly()), 0, 0)
    top = max(coeffs)
    u = Poly([-at, 1])
    return shift_d(p, sum((wk * u ** (top - k) for k, wk in coeffs.items()), Poly()), top + 1, at)


def rat_fourier(p: RatFuncOperator, x_sign: int, d_sign: int) -> RatFuncOperator:
    """x -> x_sign*D, D -> d_sign*x, term by term in ``RatFunc`` arithmetic."""
    if not p.is_polynomial():
        raise ValueError("Fourier-Laplace transform needs polynomial coefficients")
    out: list[RatFunc] = []
    for i, a in enumerate(p.coeffs):
        for k, coeff in enumerate(a.num.coeffs):
            t = coeff * x_sign ** k * d_sign ** i
            for j in range(min(i, k) + 1):
                while len(out) <= k - j:
                    out.append(RatFunc(0))
                out[k - j] += RatFunc(Poly([0] * (i - j) + [t * comb(k, j) * perm(i, j)]))
    return RatFuncOperator(out)


def rat_euler(p: RatFuncOperator, lam) -> RatFuncOperator:
    q = rat_fourier(rat_prim(p), 1, -1)
    return rat_fourier(rat_prim(rat_ad_power(q, Fraction(0), lam)), -1, 1)
