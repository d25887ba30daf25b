"""The space of local exponents and the affine action on it.

An exponent vector assigns a scalar (possibly parameter-carrying) to every
chain slot of a shape.  The twisted-Euler moves act on it by the affine
maps dual to the lattice reflections, with the same coefficients
:meth:`LatticeShape.euler_weight`; together with the slot permutations
they realize a Weyl group action whose pairwise orders are dictated by the
bilinear form: order 2, 3, 4, 6 or infinity according to E = 0, 1, 2, 3
or >= 4, where E, the coupling of two index tuples t and t2, is the defect
along t of the rank-1 vector of t2 (minus the pairing of the two tuple
nodes).
"""

from __future__ import annotations

from .lattice import IndexTuple, LatticeShape, SlotTable
from .scalar import ParamExpr

INFINITE_ORDER = float("inf")


class ExponentVector(SlotTable):
    """One scalar per chain slot of a shape."""

    __slots__ = ()
    _coerce = staticmethod(ParamExpr.of)

    def tuple_sum(self, t: IndexTuple) -> ParamExpr:
        """Sum of the first-slot exponents along an index tuple."""
        acc = ParamExpr(0)
        for i in range(self.shape.num_points):
            acc = acc + self.entries[i][t[i]][0]
        return acc


def act_sigma_t(nu: ExponentVector, t: IndexTuple) -> ExponentVector:
    """The affine involution on exponents matching the lattice move at t:
    slot (i, j, s) moves by -(euler_weight(i, j, t_i) - [j = t_i and s = 0])
    times the shortfall 1 - tuple_sum(t)."""
    shape = nu.shape
    shortfall = ParamExpr(1) - nu.tuple_sum(t)
    out = []
    for i, point in enumerate(nu.entries):
        blocks = []
        for j, chain in enumerate(point):
            step = shape.euler_weight(i, j, t[i]) * shortfall
            blocks.append(tuple(val - step for val in chain))
        first = blocks[t[i]]
        blocks[t[i]] = (first[0] + shortfall, *first[1:])
        out.append(tuple(blocks))
    return nu._derived(tuple(out))


def act_sigma_perm(nu: ExponentVector, i: int, j: int, s: int) -> ExponentVector:
    """Swap the exponents of chain slots s and s+1 of factor (i, j)."""
    return nu.swap_slots(i, j, s)


def pair_coupling(shape: LatticeShape, t: IndexTuple, t2: IndexTuple) -> int:
    """E, the defect along t of the rank-1 vector of t2:
    sum_i euler_weight(i, t2_i, t_i) - #{i : t_i = t2_i}."""
    return sum(shape.euler_weight(i, j, t[i]) - (j == t[i]) for i, j in enumerate(t2))


def coxeter_order(shape: LatticeShape, t: IndexTuple, t2: IndexTuple):
    """Claimed order of the composite of the two tuple moves.

    Returns 2, 3, 4 or 6 for E = 0, 1, 2, 3 and INFINITE_ORDER beyond.
    Caveat: iteration realizes 2 and 3 exactly, but for E >= 2 the
    composite is an affine map with unipotent linear part and never
    closes up, so 4 and 6 are the literature's table values, not
    observed orders (the symmetric Cartan product is E^2, putting
    E >= 2 in the infinite regime).
    """
    if t == t2:
        raise ValueError("coxeter_order needs two distinct index tuples")
    e = pair_coupling(shape, t, t2)
    return {0: 2, 1: 3, 2: 4, 3: 6}.get(e, INFINITE_ORDER)


def mu_sequence(
    shape: LatticeShape,
    t: IndexTuple,
    t2: IndexTuple,
    nu: ExponentVector,
    m: int,
) -> list[tuple[ParamExpr, ParamExpr]]:
    """Unroll the shift recursion driving the composite move m steps.

    For E <= 1 the partial sums of both columns vanish exactly at the
    order reported by :func:`coxeter_order` (2 or 3) and not before.  For
    E >= 2 they never vanish for generic exponents: the composite has
    infinite order, whatever the table value says.
    """
    if t == t2:
        raise ValueError("mu_sequence needs two distinct index tuples")
    e = pair_coupling(shape, t, t2)
    mu_t = ParamExpr(1) - nu.tuple_sum(t)
    mu_t2 = ParamExpr(1) - nu.tuple_sum(t2) + e * mu_t
    out = [(mu_t, mu_t2)]
    for _ in range(m - 1):
        mu_t = -mu_t + e * mu_t2
        mu_t2 = -mu_t2 + e * mu_t
        out.append((mu_t, mu_t2))
    return out
