"""Discrete local invariants of an operator and their extraction.

A formal datum lists, per singular point (the point at infinity always
first), the exponential factors in theta form together with the spectral
data of each local factor: chains of exponents ``lam, lam+1, ...,
lam+m-1`` with multiplicities.

Extraction from a concrete operator proceeds point by point: the Newton
polygon supplies the positive slopes, the boundary polynomial of each
slope supplies candidate leading theta-form coefficients, and twisting a
candidate away recursively peels the factor down to its regular-singular
core, whose characteristic polynomial is grouped into integer chains and
certified by the triangular vanishing conditions on the theta expansion.

Roots and chain bases stay (numerator, denominator) pairs through the
root search, the chain grouping and the triangular check, and
:func:`extract_primitive` returns them as such; a ``Fraction`` is built
only for a factor coefficient and for the text of an error.  Only
:func:`extract_formal_data` builds :class:`SpectralData` and
:class:`FormalData` from them, through the constructors' checks.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Collection, Mapping, Sequence

from . import weylalg
from .lattice import LatticeShape, LatticeVector
from .exponents import ExponentVector
from .polys import Poly
from .scalar import ParamExpr, ParamLike, parse_param_expr, parse_rat
from .weylalg import (
    INF,
    DiffOperator,
    Location,
    ThetaExpansion,
    format_location,
    parse_location,
)

MAX_NODES = 1024
"""Bound on the root basis of formal data read from JSON: prod k_i index
tuples plus sum (l_ij - 1) interior chain slots.  Only ``diagram --gram``
and ``--dot`` build the whole Gram matrix on it, but it is dense, so 8
points with 3 factors each (6561 nodes) already exhausted a 3 GB memory
limit in ``diagram`` when its label built the matrix; the label still
builds the rows its walk reads, and ``reduce`` still lists the nodes to
lift m for ``idx``, so the bound holds for every command."""


class ExtractionError(Exception):
    """Base class for honest extraction failures."""


class RamifiedPointError(ExtractionError):
    """A Newton-polygon slope is not an integer: the local structure is
    ramified and out of scope for this engine."""


class NonSplitCharPolyError(ExtractionError):
    """A characteristic (or slope-boundary) polynomial does not split over
    the rationals at the chosen instance."""


class OshimaCheckError(ExtractionError):
    """The chain pattern could not be verified by the triangular vanishing
    conditions; the spectral data would be a guess."""


@dataclass(frozen=True, init=False, repr=False)
class ExponentialFactor:
    """Exponential factor in theta form at a point.

    ``coeffs`` maps order ``k >= 1`` to a nonzero rational: at a finite
    point c the factor is ``sum w_k (x-c)^(-k)``, at infinity it is
    ``sum w_k x^k``.  The empty map is the zero factor.  Solutions of the
    attached local factor grow like ``exp(integral of w/(x-c))`` (``w/x``
    at infinity).
    """

    __slots__ = ("point", "_items")
    point: Location
    _items: tuple[tuple[int, Fraction], ...]

    def __init__(self, point: Location, coeffs: Mapping[int, Fraction] | None = None):
        items = []
        for k, v in sorted((coeffs or {}).items()):
            v = Fraction(v)
            if v == 0:
                continue
            if k < 1:
                raise ValueError("theta-form orders must be >= 1 (no constant term)")
            items.append((int(k), v))
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "_items", tuple(items))

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return dict(self._items)

    def is_zero(self) -> bool:
        return not self._items

    @property
    def degree(self) -> int:
        """Top order (the Newton-polygon slope); 0 for the zero factor."""
        return self._items[-1][0] if self._items else 0

    def format(self) -> str:
        if not self._items:
            return "0"
        parts = []
        for k, v in self._items:
            if self.point is INF:
                var = "x" if k == 1 else f"x^{k}"
            elif self.point == 0:
                var = f"x^-{k}"
            elif self.point > 0:
                var = f"(x-{self.point})^-{k}"
            else:
                var = f"(x+{-self.point})^-{k}"
            parts.append(f"{v}*{var}")
        return " + ".join(parts)

    def __repr__(self):
        return f"ExponentialFactor({format_location(self.point)}: {self.format()})"


def factor_weight_diff(w1: ExponentialFactor, w2: ExponentialFactor) -> int:
    """wt of the difference of two factors at one point: minus the largest
    order at which their coefficients differ, and 0 when they are equal."""
    c1, c2 = w1.coeffs, w2.coeffs
    return -max((k for k in c1.keys() | c2.keys() if c1.get(k) != c2.get(k)), default=0)


@dataclass(frozen=True, init=False, repr=False)
class SpectralData:
    """Chains ``(lam_s, m_s)``: exponents lam, lam+1, ..., lam+m-1.

    Bases of distinct chains never differ by an integer (for parameter
    expressions this is the generic reading): exactly when their
    :meth:`ParamExpr.residue_key` agree.  The constructor groups the bases
    by key, when two share one, and names the first pair, in the order of
    the chains, that does.
    """

    __slots__ = ("chains",)
    chains: tuple[tuple[ParamExpr, int], ...]

    def __init__(self, chains: Sequence[tuple[ParamLike, int]]):
        parsed = tuple((ParamExpr.of(lam), int(m)) for lam, m in chains)
        if not parsed:
            raise ValueError("spectral data needs at least one chain")
        if any(m < 1 for _, m in parsed):
            raise ValueError("chain multiplicities must be positive")
        if len({lam.residue_key() for lam, _ in parsed}) < len(parsed):
            classes: dict[tuple, list[int]] = {}
            for i, (lam, _) in enumerate(parsed):
                classes.setdefault(lam.residue_key(), []).append(i)
            i, j = min(members[:2] for members in classes.values() if len(members) > 1)
            raise ValueError(f"chain bases {parsed[i][0]} and {parsed[j][0]} differ by an integer")
        object.__setattr__(self, "chains", parsed)

    @property
    def rank(self) -> int:
        return sum(m for _, m in self.chains)

    def format(self) -> str:
        lams = ",".join(str(l) for l, _ in self.chains)
        ms = ",".join(str(m) for _, m in self.chains)
        return f"{{({lams});({ms})}}"

    def __repr__(self):
        return f"SpectralData({self.format()})"


@dataclass(frozen=True, init=False, repr=False)
class FormalData:
    """Per-point factor lists; the point at infinity always comes first.

    Factor list order is significant: it fixes the slot indexing shared
    with lattice vectors and exponent vectors.
    """

    __slots__ = ("points",)
    points: tuple[tuple[Location, tuple[tuple[ExponentialFactor, SpectralData], ...]], ...]

    def __init__(
        self,
        points: Sequence[tuple[Location, Sequence[tuple[ExponentialFactor, SpectralData]]]],
    ):
        pts = tuple((loc, tuple(factors)) for loc, factors in points)
        if not pts or pts[0][0] is not INF:
            raise ValueError("the first point must be the point at infinity")
        locs = [loc for loc, _ in pts]
        if len(set(locs)) != len(locs):
            raise ValueError("duplicate points")
        ranks = []
        for loc, factors in pts:
            if not factors:
                raise ValueError(f"point {format_location(loc)} has no factors")
            # a single factor cannot repeat
            if len(factors) > 1 and len({w for w, _ in factors}) < len(factors):
                raise ValueError(f"duplicate exponential factors at {format_location(loc)}")
            for w, _ in factors:
                if w.point is not loc and w.point != loc:
                    raise ValueError("factor attached to the wrong point")
            ranks.append(sum(s.rank for _, s in factors))
        if len(set(ranks)) > 1:
            raise ValueError(f"unequal ranks across points: {ranks}")
        object.__setattr__(self, "points", pts)

    @property
    def rank(self) -> int:
        return sum(s.rank for _, s in self.points[0][1])

    def __repr__(self):
        rows = []
        for loc, factors in self.points:
            body = ", ".join(f"w={w.format()} {s.format()}" for w, s in factors)
            rows.append(f"{format_location(loc)}: {body}")
        return "FormalData(" + " | ".join(rows) + ")"


# -- bridges to the lattice side ---------------------------------------------


def to_shape(data: FormalData) -> LatticeShape:
    chain_lengths = tuple(
        tuple(len(s.chains) for _, s in factors) for _, factors in data.points
    )
    weights = tuple(
        tuple(
            tuple(factor_weight_diff(w1, w2) for w2, _ in factors)
            for w1, _ in factors
        )
        for _, factors in data.points
    )
    return LatticeShape(chain_lengths, weights)


def m_vector(data: FormalData) -> LatticeVector:
    return LatticeVector(
        to_shape(data),
        [
            [[m for _, m in s.chains] for _, s in factors]
            for _, factors in data.points
        ],
    )


def exponent_vector(data: FormalData, shape: LatticeShape | None = None) -> ExponentVector:
    """The exponents of ``data``; ``shape``, when given, is
    ``to_shape(data)``, built once by the caller."""
    return ExponentVector(
        to_shape(data) if shape is None else shape,
        [
            [[lam for lam, _ in s.chains] for _, s in factors]
            for _, factors in data.points
        ],
    )


# -- the Fuchs relation --------------------------------------------------------


def fuchs_defect(data: FormalData) -> ParamExpr:
    """Deviation from the weighted exponent-sum identity; zero iff the
    Fuchs relation holds."""
    m = m_vector(data)
    return fuchs_defect_of(m, exponent_vector(data, m.shape))


def fuchs_defect_of(m: LatticeVector, nu: ExponentVector) -> ParamExpr:
    """sum m.lam + idx(m)/2 - n, with idx(m) = :meth:`LatticeVector.form`
    of m with itself: the Fuchs relation reads sum m.lam = n - idx(m)/2."""
    total = ParamExpr(Fraction(m.form(m), 2) - m.rank)
    for point, lams in zip(m.entries, nu.entries):
        for chain, lam_chain in zip(point, lams):
            for ms, lam in zip(chain, lam_chain):
                total = total + ms * lam
    return total


# -- the triangular certification ----------------------------------------------

#: Chains ((a, b) of the base, length), as :func:`group_chains` returns them.
Chains = list[tuple[tuple[int, int], int]]


def oshima_check(expansion: ThetaExpansion, chains: Chains) -> bool:
    """Triangular vanishing pattern certifying the chain grouping.

    ``chains`` are ((a, b) of the base, length) as :func:`group_chains`
    returns them.  For each chain of base lam = a/b and length m: the term
    of minimal index vanishes at lam, ..., lam+m-1, the next at lam, ...,
    lam+m-2, and so on.  Each test is :meth:`Poly.vanishes_at` at
    (a + v b)/b, on integers.
    """
    r = expansion.min_index
    for (a, b), m in chains:
        for u in range(m):
            poly = expansion.term(r + u)
            for v in range(m - u):
                if not poly.vanishes_at(a + v * b, b):
                    return False
    return True


def group_chains(roots: Mapping[tuple[int, int], int]) -> Chains:
    """Group characteristic roots into integer chains.

    ``roots`` maps each root, a coprime pair (a, b) with b > 0, to its
    multiplicity, as :meth:`Poly.rational_roots` returns them; the chains
    are ((a, b) of the base, length), sorted by the value of the base.
    Each residue class modulo 1 must form a gap-free, multiplicity-free
    run lam, lam+1, ..., lam+m-1; anything else is not representable as
    spectral data and is reported honestly.  The class of a/b is the key
    (a mod b, b); its members share the denominator b, so they sort by
    numerator, and two neighbours are a unit apart when their numerators
    are b apart.  Bases compare by cross-multiplication: a/b < c/e exactly
    when a*e < c*b.  A ``Fraction`` is built only for an error's text.
    """
    classes: dict[tuple[int, int], list[int]] = {}
    for (a, b), mult in roots.items():
        if mult != 1:
            raise OshimaCheckError(
                f"repeated characteristic exponent {Fraction(a, b)}; chain grouping is ambiguous"
            )
        classes.setdefault((a % b, b), []).append(a)
    chains = []
    for (_, b), members in classes.items():
        members.sort()
        for lo, hi in zip(members, members[1:]):
            if hi - lo != b:
                raise OshimaCheckError(
                    f"exponents {Fraction(lo, b)} and {Fraction(hi, b)} differ by a non-unit "
                    "integer; no valid chain grouping"
                )
        chains.append(((members[0], b), len(members)))
    chains.sort(key=cmp_to_key(lambda x, y: x[0][0] * y[0][1] - y[0][0] * x[0][1]))
    return chains


# -- extraction ----------------------------------------------------------------


def extract_formal_data(p: DiffOperator) -> FormalData:
    """Compute the formal datum of an operator: the local data
    :func:`extract_primitive` peels from ``prim(p)``, built through the
    constructors' checks."""
    if p.is_zero():
        raise ValueError("extraction needs an operator of rank >= 1, got the zero operator")
    return FormalData([
        (at, [(w, SpectralData([(ParamExpr.of_pair(a, b), m) for (a, b), m in chains]))
              for w, chains in factors])
        for at, factors in extract_primitive(weylalg.prim(p))
    ])


def extract_primitive(
    p: DiffOperator, hints: Mapping[Location, Collection[tuple[int, int]]] | None = None
) -> list[tuple[Location, tuple[tuple[ExponentialFactor, Chains], ...]]]:
    """Peel the local data of a primitive operator: per point, infinity
    first, its exponential factors, each with its chains.

    Requires rational singular points, integer slopes and characteristic
    polynomials splitting over Q; failures raise the dedicated errors.
    ``hints`` maps points to candidate roots, coprime pairs (a, b) with b
    > 0, that the root searches there try first, and its finite points are
    candidates for the leading coefficient; they change the work, not the
    result (:meth:`Poly.rational_roots`).
    """
    if p.rank < 1:
        raise ValueError("extraction needs an operator of rank >= 1")
    points = []
    hints = hints or {}
    finite = weylalg.singular_points(p, [at for at in hints if at is not INF])
    for at in [INF] + finite:
        try:
            raw = _peel_factors(weylalg.local_chart(p, at), None, hints.get(at, ()))
        except ExtractionError as exc:
            # the same class, so the exit code does not change
            raise type(exc)(f"at {format_location(at)}: {exc}") from None
        total = sum(m for _, chains in raw for _, m in chains)
        if total != p.rank:
            raise ExtractionError(
                f"local ranks at {format_location(at)} sum to {total}, "
                f"expected {p.rank}"
            )
        factors = []
        for coeffs, chains in raw:
            if at is INF:
                coeffs = {k: -v for k, v in coeffs.items()}
            factors.append((ExponentialFactor(at, coeffs), chains))
        factors.sort(key=lambda fs: (fs[0].degree, fs[0]._items))
        points.append((at, tuple(factors)))
    return points


def _peel_factors(
    q: DiffOperator, max_degree: int | None, hints: Collection[tuple[int, int]]
) -> list[tuple[dict[int, Fraction], Chains]]:
    """Factors of the chart operator at 0 with theta-degree < max_degree.

    Returns raw coefficient maps in chart orientation; the caller flips
    signs for the point at infinity.  The chart is expanded once; the
    polygon, the boundary polynomials and the regular part read that
    expansion.  Every root search tries the candidates ``hints`` first.
    """
    theta = weylalg.theta_expand(q, Fraction(0))
    np = weylalg.newton_polygon(theta)
    out: list[tuple[dict[int, Fraction], Chains]] = []
    if np.regular_rank > 0:
        out.append(({}, _regular_chains(theta, np.regular_rank, hints)))
    for slope in np.slopes:
        if slope == 0 or (max_degree is not None and slope >= max_degree):
            continue
        if slope.denominator != 1:
            raise RamifiedPointError(
                f"Newton polygon slope {slope} is not an integer"
            )
        k = int(slope)
        edge = _edge_polynomial(theta, np, k)
        roots = edge.rational_roots(hints)
        if sum(roots.values()) != edge.degree:
            raise NonSplitCharPolyError(
                f"slope-{k} boundary polynomial {edge} does not split over Q"
            )
        for v0, mult in sorted((Fraction(a, b), m) for (a, b), m in roots.items()):
            twisted = weylalg.ad_exp_raw(q, Fraction(0), {k: -v0})
            sub = _peel_factors(twisted, k, hints)
            got = sum(m for _, chains in sub for _, m in chains)
            if got != mult:
                raise ExtractionError(
                    f"slope-{k} candidate {v0} produced rank {got}, expected {mult}"
                )
            for coeffs, chains in sub:
                coeffs = dict(coeffs)
                coeffs[k] = v0
                out.append((coeffs, chains))
    return out


def _regular_chains(
    theta: ThetaExpansion, expected_rank: int, hints: Collection[tuple[int, int]]
) -> Chains:
    char = weylalg.char_poly(theta)
    if char.degree != expected_rank:
        raise ExtractionError(
            f"characteristic polynomial degree {char.degree} != regular rank {expected_rank}"
        )
    roots = char.rational_roots(hints)
    if sum(roots.values()) != char.degree:
        raise NonSplitCharPolyError(
            f"characteristic polynomial {char.format('theta')} does not split over Q"
        )
    chains = group_chains(roots)
    if not oshima_check(theta, chains):
        data = SpectralData([(Fraction(a, b), m) for (a, b), m in chains])
        raise OshimaCheckError(
            f"triangular vanishing conditions fail for chains {data.format()}"
        )
    return chains


def _edge_polynomial(theta: ThetaExpansion, np: weylalg.NewtonPolygon, k: int) -> Poly:
    """Boundary polynomial of the slope-k edge.  Its coefficient at
    D-degree i is that of the monomial of weight y = ya + k(i - ia), which
    is the theta^i coefficient of p_y: no monomial of weight y lies right
    of the edge, so deg p_y <= i and only theta^i's own falling factorial
    reaches that degree."""
    (ia, ya), (ib, _) = np.slope_edge(k)
    return Poly([theta.term(ya + k * (i - ia))[i] for i in range(ia, ib + 1)])


# -- JSON ------------------------------------------------------------------------


def to_json(data: FormalData) -> str:
    """Canonical JSON form; bit-exact round trip with :func:`from_json`.

    A coefficient or exponent whose text would pass Python's limit on
    integer strings raises ValueError naming its point, and the order of
    a coefficient (:func:`bounded_str`); the limit is not lifted, so the
    file stays one that :func:`from_json` reads."""
    points = []
    for loc, factors in data.points:
        at = format_location(loc)
        exponent = f"at {at}: exponent"
        points.append({
            "location": at,
            "factors": [
                {
                    "w": [
                        [k, bounded_str(v, f"at {at}: exponential factor coefficient of order {k}")]
                        for k, v in w._items
                    ],
                    "spectral": [[bounded_str(lam, exponent), m] for lam, m in s.chains],
                }
                for w, s in factors
            ],
        })
    return json.dumps({"points": points}, separators=(",", ":"))


def bounded_str(value, what: str) -> str:
    """``str(value)``; a ValueError naming ``what`` when the text has more
    digits than Python's limit on integer strings
    (``sys.get_int_max_str_digits()``)."""
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"{what} with more than {limit} digits") from None


def from_json(text: str) -> FormalData:
    try:
        doc = _json_object(json.loads(text), "document")
        entries = _json_objects(_json_key(doc, "points"), "points")
        if len(entries) > weylalg.MAX_DEGREE + 1:
            # infinity plus the at most MAX_DEGREE finite singular points of
            # an operator within the text bound; one-factor, one-chain points
            # add no basis node, so MAX_NODES does not bound their count
            raise ValueError(f"more than MAX_DEGREE + 1 = {weylalg.MAX_DEGREE + 1} points")
        point_factors = [_json_objects(_json_key(e, "factors"), "factors") for e in entries]
        # no operator within the text bound has a larger rank
        rank = sum(
            _json_int(m, "spectral")
            for fs in point_factors[:1]
            for f in fs
            for _, m in _json_pairs(_json_key(f, "spectral"), "spectral")
        )
        if rank > weylalg.MAX_DEGREE:
            raise ValueError(f"rank {rank} is more than MAX_DEGREE = {weylalg.MAX_DEGREE}")
        _check_basis_size([
            [len(_json_list(_json_key(f, "spectral"), "spectral")) for f in fs]
            for fs in point_factors
        ])
        points = []
        for entry, fs in zip(entries, point_factors):
            loc = parse_location(_json_key(entry, "location"))
            factors = []
            for f in fs:
                coeffs = {}
                for k, v in _json_pairs(_json_key(f, "w"), "w"):
                    if _json_int(k, "w") in coeffs:
                        raise ValueError(f"w: order {k} appears twice")
                    coeffs[k] = parse_rat(v, "w")
                w = ExponentialFactor(loc, coeffs)
                s = SpectralData([
                    (parse_param_expr(lam, "spectral"), _json_int(m, "spectral"))
                    for lam, m in _json_pairs(f["spectral"], "spectral")
                ])
                factors.append((w, s))
            points.append((loc, factors))
        return FormalData(points)
    except (KeyError, TypeError, ValueError, ZeroDivisionError, RecursionError) as exc:
        raise ValueError(f"malformed formal-data JSON: {exc}") from exc


def _json_list(value, field: str) -> list:
    """A JSON list; an object or a string is refused rather than iterated."""
    if type(value) is not list:
        raise ValueError(f"{field}: expected a list, got {value!r:.40}")
    return value


def _json_object(value, field: str) -> dict:
    """A JSON object; any other value is refused rather than indexed."""
    if type(value) is not dict:
        raise ValueError(f"{field}: expected an object, got {value!r:.40}")
    return value


def _json_objects(value, field: str) -> list[dict]:
    """A JSON list of JSON objects."""
    for item in _json_list(value, field):
        _json_object(item, field)
    return value


def _json_key(obj: dict, key: str):
    """The value of ``key`` in a JSON object; a missing key is named."""
    if key not in obj:
        raise ValueError(f"{key}: missing")
    return obj[key]


def _json_pairs(items, field: str):
    """The items of a JSON list of pairs; any other item is refused, not unpacked."""
    for item in _json_list(items, field):
        if type(item) is not list or len(item) != 2:
            raise ValueError(f"{field}: expected a pair, got {item!r:.40}")
        yield item


def _json_int(value, field: str) -> int:
    """A JSON integer; a float, a string or a boolean is refused rather
    than truncated."""
    if type(value) is not int:
        raise ValueError(f"{field}: expected an integer, got {value!r:.40}")
    return value


def _check_basis_size(chain_counts: Sequence[Sequence[int]]) -> None:
    """Reject data whose root basis exceeds MAX_NODES, before any of it is
    built; ``chain_counts[i][j]`` is the chain length of factor j at point
    i.  The tuple count is multiplied up one point at a time and stops at
    the bound."""
    nodes = sum(l - 1 for counts in chain_counts for l in counts)
    tuples = 1
    for counts in chain_counts:
        tuples *= len(counts)
        if tuples + nodes > MAX_NODES:
            raise ValueError(f"more than MAX_NODES = {MAX_NODES} basis nodes")
