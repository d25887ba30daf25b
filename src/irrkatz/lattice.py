"""The multiplicity lattice attached to a configuration of singular points.

A shape records, per singular point, the list of exponential factors (only
through chain lengths and the table of pairwise weights of factor
differences).  A :class:`SlotTable` holds one immutable value per chain
slot of a shape.  A lattice vector is a slot table of integers with equal
block sums across points; the common sum is its rank.

The twisted-Euler move along an index tuple t is the reflection
s_t(m) = m - B(m, e_t) e_t, where e_t is the rank-1 vector of t and B is
the star-shaped quiver form (Crawley-Boevey, Duke Math. J. 118, 2003; in
the irregular version of Hiroe-Yamakawa, Adv. Math. 266, 2014).  Its
coefficients are :meth:`LatticeShape.euler_weight`: the defect -B(m, e_t)
sums euler_weight(i, j, t_i) times the block sum of factor (i, j), minus
the first slot of the chosen factor at every point.

Index conventions: points are numbered ``0..p`` with point 0 the point at
infinity; factors and chain slots are 0-based.  An index tuple picks one
factor per point and is stored as a tuple of factor indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul
from typing import Sequence

IndexTuple = tuple[int, ...]


@dataclass(frozen=True)
class LatticeShape:
    """Chain lengths ``l[i][j]`` and weight table ``w[i][j][j']``.

    The weight table holds the weights of differences of exponential
    factors at each point: symmetric, zero diagonal, and at most -1 off
    the diagonal (distinct factors differ at some order >= 1).
    """

    chain_lengths: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if len(self.weights) != len(self.chain_lengths):
            raise ValueError("weight table does not match point count")
        for i, (lens, table) in enumerate(zip(self.chain_lengths, self.weights)):
            k = len(lens)
            if k == 0 or min(lens) < 1:
                raise ValueError(f"point {i} needs factors with chains of length >= 1")
            if [*map(len, table)] != [k] * k:
                raise ValueError(f"weight table at point {i} is not {k}x{k}")
            for j, row in enumerate(table):
                if row[j] != 0:
                    raise ValueError("weight table diagonal must be zero")
                for j2 in range(j + 1, k):
                    if row[j2] != table[j2][j]:
                        raise ValueError("weight table must be symmetric")
                    if row[j2] > -1:
                        raise ValueError("distinct factors must have weight <= -1")

    @property
    def num_points(self) -> int:
        return len(self.chain_lengths)

    @property
    def p(self) -> int:
        """Number of finite singular points."""
        return self.num_points - 1

    def factor_count(self, i: int) -> int:
        return len(self.chain_lengths[i])

    def index_tuples(self) -> tuple[IndexTuple, ...]:
        """The product of per-point factor indices, lexicographic."""
        return tuple(product(*[range(len(ls)) for ls in self.chain_lengths]))

    def euler_weight(self, i: int, j: int, k: int) -> int:
        """Coefficient of the block sum of factor (i, j) in the defect along
        a tuple choosing factor ``k`` at point i: 1 at a finite point and -1
        at infinity, minus the weight of the difference of factors j and k."""
        return (1 if i else -1) - self.weights[i][j][k]


@dataclass(frozen=True, init=False, repr=False)
class SlotTable:
    """One immutable value per chain slot of a shape, as
    ``entries[i][j][s]``; a subclass sets ``_coerce`` to its value type.

    The constructor coerces every slot to that type and checks the table
    against the shape (a :class:`LatticeVector` also its block sums), so
    tables read from input or built by callers are checked.  The moves
    (:meth:`swap_slots`, :meth:`LatticeVector.sigma_t` and
    ``exponents.act_sigma_t``) build their tables from checked ones, keep
    every chain length and, on lattice vectors, keep the block sums equal;
    they assemble the tuples themselves (:meth:`_derived`) and skip both.
    """

    __slots__ = ("shape", "entries")
    shape: LatticeShape
    entries: tuple[tuple[tuple, ...], ...]

    def __init__(self, shape: LatticeShape, entries: Sequence[Sequence[Sequence]]):
        coerce = self._coerce
        ent = tuple(
            tuple(tuple(map(coerce, chain)) for chain in point)
            for point in entries
        )
        if len(ent) != shape.num_points:
            raise ValueError("entry blocks do not match point count")
        for i, (point, lens) in enumerate(zip(ent, shape.chain_lengths)):
            if [*map(len, point)] != [*lens]:
                raise ValueError(f"entries at point {i} do not match chain lengths")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "entries", ent)

    def _derived(self, entries: tuple[tuple[tuple, ...], ...]):
        """A table of the same type and shape holding ``entries``, nested
        tuples of values of the type, which a move has built so that they
        fit the shape: neither coerced nor checked again."""
        table = object.__new__(type(self))
        object.__setattr__(table, "shape", self.shape)
        object.__setattr__(table, "entries", entries)
        return table

    def slot(self, i: int, j: int, s: int):
        return self.entries[i][j][s]

    def swap_slots(self, i: int, j: int, s: int):
        """Swap chain slots s and s+1 of factor (i, j); an involution.  It
        keeps every chain length and block sum."""
        if not (0 <= s <= self.shape.chain_lengths[i][j] - 2):
            raise IndexError(f"slot {s} out of range for chain (i={i}, j={j})")
        point = list(self.entries[i])
        chain = point[j]
        point[j] = (*chain[:s], chain[s + 1], chain[s], *chain[s + 2:])
        return self._derived((*self.entries[:i], tuple(point), *self.entries[i + 1:]))

    def to_text(self) -> str:
        """Blocks per point joined by '|'; factors by ';'; slots by ','."""
        return "|".join(
            ";".join(",".join(str(v) for v in ch) for ch in point)
            for point in self.entries
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_text()})"


class LatticeVector(SlotTable):
    """Integer multiplicities per chain slot, equal block sums per point."""

    __slots__ = ()
    _coerce = int

    def __init__(self, shape: LatticeShape, entries: Sequence[Sequence[Sequence[int]]]):
        super().__init__(shape, entries)
        sums = [sum(map(sum, point)) for point in self.entries]
        if len(set(sums)) > 1:
            raise ValueError(f"unequal block sums {sums}")

    @property
    def rank(self) -> int:
        """The common block sum."""
        return sum(sum(ch) for ch in self.entries[0])

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for point in self.entries for ch in point for v in ch)

    # -- the twisted-Euler endomorphisms ----------------------------------

    def point_defects(self) -> list[list[int]]:
        """``g[i][k]``, the share of point i in the defect of a tuple that
        chooses factor k there: the sum over j of euler_weight(i, j, k)
        times the block sum of factor (i, j), minus the first slot of
        factor (i, k).  The defect along t is the sum of ``g[i][t_i]``.

        The table is symmetric, so euler_weight(i, j, k) is +-1 minus entry
        j of row k, and the sum is +-n, n the rank (+ at a finite point, -
        at infinity), minus row k of the table times the block sums."""
        shares = []
        for i, (point, table) in enumerate(zip(self.entries, self.shape.weights)):
            blocks = [sum(chain) for chain in point]
            n = sum(blocks) if i else -sum(blocks)
            shares.append([
                n - sum(map(mul, row, blocks)) - chain[0] for row, chain in zip(table, point)
            ])
        return shares

    def form(self, other: "LatticeVector") -> int:
        """The form B(m, m'): the slot-by-slot product minus, per factor
        (i, k), ``g[i][k]`` plus the first slot of m there, times the block
        sum of factor (i, k) of m', with g = :meth:`point_defects`.  It
        equals sum m.m' + sum_i sum_jj' w_i[j][j'] B_ij B'_ij' - (p - 1) n n',
        so B(m, e_t) = -defect(t) and B(m, m) = idx(m)."""
        total = 0
        for g, point, other_point in zip(self.point_defects(), self.entries, other.entries):
            for share, chain, other_chain in zip(g, point, other_point):
                total += sum(map(mul, chain, other_chain)) - (share + chain[0]) * sum(other_chain)
        return total

    def defect(self, t: IndexTuple) -> int:
        """Rank change effected by the twisted-Euler move along ``t``;
        minus the form B(m, e_t) with the rank-1 vector of ``t``."""
        self._check_tuple(t)
        return sum(g[k] for g, k in zip(self.point_defects(), t))

    def sigma_t(self, t: IndexTuple) -> "LatticeVector":
        """Add the defect to the first chain slot of the chosen factor at
        every point; an involution that changes the rank by the defect."""
        d = self.defect(t)
        entries = []
        for point, k in zip(self.entries, t):
            point = list(point)
            point[k] = (point[k][0] + d, *point[k][1:])
            entries.append(tuple(point))
        # the same defect at every point keeps the block sums equal
        return self._derived(tuple(entries))

    sigma_perm = SlotTable.swap_slots

    def support_factors(self) -> list[list[int]]:
        """Per point, the factors with a nonzero chain entry, ascending."""
        return [[j for j, chain in enumerate(point) if any(chain)] for point in self.entries]

    def _check_tuple(self, t: IndexTuple):
        if len(t) != self.shape.num_points or any(
            not (0 <= t[i] < self.shape.factor_count(i))
            for i in range(self.shape.num_points)
        ):
            raise IndexError(f"index tuple {t} out of range")

    def __str__(self) -> str:
        return self.to_text()
