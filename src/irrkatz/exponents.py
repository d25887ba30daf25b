"""The space of local exponents and the affine action on it.

An exponent vector assigns a scalar (possibly parameter-carrying) to every
chain slot of a shape.  The twisted-Euler moves act on it by affine maps;
together with the slot permutations they realize a Weyl group action whose
pairwise orders are dictated by the bilinear form: order 2, 3, 4, 6 or
infinity according to E = 0, 1, 2, 3 or >= 4, where E is minus the pairing
of the two tuple nodes.
"""

from __future__ import annotations

from typing import Sequence

from .lattice import IndexTuple, LatticeShape
from .rootsys import _pairing
from .scalar import ParamExpr, ParamLike

INFINITE_ORDER = float("inf")


class ExponentVector:
    """One scalar per chain slot of a shape."""

    __slots__ = ("shape", "entries")

    def __init__(self, shape: LatticeShape, entries: Sequence[Sequence[Sequence[ParamLike]]]):
        ent = tuple(
            tuple(tuple(ParamExpr.of(v) for v in chain) for chain in point)
            for point in entries
        )
        if len(ent) != shape.num_points:
            raise ValueError("exponent blocks do not match point count")
        for i, point in enumerate(ent):
            lens = shape.chain_lengths[i]
            if len(point) != len(lens) or any(len(ch) != l for ch, l in zip(point, lens)):
                raise ValueError(f"exponents at point {i} do not match chain lengths")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "entries", ent)

    def __setattr__(self, name, value):
        raise AttributeError("ExponentVector is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExponentVector):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries

    def __hash__(self):
        return hash((self.shape, self.entries))

    def slot(self, i: int, j: int, s: int) -> ParamExpr:
        return self.entries[i][j][s]

    def tuple_sum(self, t: IndexTuple) -> ParamExpr:
        """Sum of the first-slot exponents along an index tuple."""
        acc = ParamExpr(0)
        for i in range(self.shape.num_points):
            acc = acc + self.entries[i][t[i]][0]
        return acc

    def __repr__(self):
        body = "|".join(
            ";".join(",".join(str(v) for v in ch) for ch in point)
            for point in self.entries
        )
        return f"ExponentVector({body})"


def act_sigma_t(nu: ExponentVector, t: IndexTuple) -> ExponentVector:
    """The affine involution on exponents matching the lattice move at t."""
    shape = nu.shape
    w = shape.weights
    shortfall = ParamExpr(1) - nu.tuple_sum(t)
    out = []
    for i in range(shape.num_points):
        point = []
        for j in range(shape.factor_count(i)):
            chain = []
            for s, val in enumerate(nu.entries[i][j]):
                if i == 0:
                    if j == t[0] and s == 0:
                        chain.append(val + 2 * shortfall)
                    else:
                        chain.append(val - (-w[0][j][t[0]] - 1) * shortfall)
                else:
                    if j == t[i] and s == 0:
                        chain.append(val)
                    else:
                        chain.append(val - (-w[i][j][t[i]] + 1) * shortfall)
            point.append(chain)
        out.append(point)
    return ExponentVector(shape, out)


def act_sigma_perm(nu: ExponentVector, i: int, j: int, s: int) -> ExponentVector:
    """Swap the exponents of chain slots s and s+1 of factor (i, j)."""
    if not (0 <= s <= nu.shape.chain_lengths[i][j] - 2):
        raise IndexError(f"slot {s} out of range for chain (i={i}, j={j})")
    entries = [[list(ch) for ch in point] for point in nu.entries]
    entries[i][j][s], entries[i][j][s + 1] = entries[i][j][s + 1], entries[i][j][s]
    return ExponentVector(nu.shape, entries)


def pair_coupling(shape: LatticeShape, t: IndexTuple, t2: IndexTuple) -> int:
    """E = -sum_i wt(w_{t_i} - w_{t2_i}) + (p - 1) - #{i : t_i = t2_i},
    minus the pairing of the two tuple nodes."""
    return -_pairing(shape, ("t", t), ("t", t2))


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
