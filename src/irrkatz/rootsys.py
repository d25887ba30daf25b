"""The root-lattice side: basis, bilinear form, reflections, and the
surjection onto the multiplicity lattice.

The basis has one node e_t per index tuple t and one node c_ijs per
interior chain slot (s < l_ij - 1).  The symmetric bilinear form is the
star-shaped quiver form (Crawley-Boevey, Duke Math. J. 118, 2003; in its
irregular form, Hiroe-Yamakawa, Adv. Math. 266, 2014).  Its Gram matrix
has diagonal 2 and, block by block,

    B(e_t, e_t')        = sum_i (w_i[t_i][t'_i] + [t_i = t'_i]) - (p - 1)
    B(e_t, c_ijs)        = -1 if t_i = j and s = 0, else 0
    B(c_ijs, c_i'j's')   = -1 if (i', j') = (i, j) and |s - s'| = 1, else 0
                           (off the diagonal)

with w_i the weight table at point i and p the number of finite points.
The surjection intertwines reflections in tuple nodes with the
twisted-Euler moves and reflections in chain nodes with the slot
permutations, which is what lets root-theoretic language classify
operators.  Its kernel has a closed-form basis, one alternating sum of
tuple nodes per tuple with two or more nonzero entries, and lies in the
radical of the form.

So the form is the pullback of :meth:`LatticeVector.form` along the
surjection: :func:`pairing`, :func:`reflect` and :func:`idx` evaluate it
on the images and never read the Gram matrix.  A :class:`RootBasis` is
its nodes; the Gram matrix is built on its first read, which only the
texts of the diagram make (:func:`dot_text`, :func:`cartan_matrix_text`).
:func:`classify_diagram` builds each Gram row only when its walk reads it.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import compress
from typing import Callable, Sequence

from .lattice import IndexTuple, LatticeShape, LatticeVector

Node = tuple[str, tuple]


class Verdict(Enum):
    REAL_ROOT = "RealRoot"
    IMAGINARY_ROOT = "ImaginaryRoot"
    NOT_ROOT = "NotRoot"


@dataclass(frozen=True)
class RootBasis:
    """Ordered nodes, tuple nodes first and then chain nodes; the Gram
    matrix of the bilinear form is built on its first read, which only
    :func:`dot_text` and :func:`cartan_matrix_text` make."""

    shape: LatticeShape
    nodes: tuple[Node, ...]

    @cached_property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        return _gram(self.shape, self.nodes)

    @cached_property
    def _positions(self) -> dict[Node, int]:
        return {node: k for k, node in enumerate(self.nodes)}

    def node_index(self, node: Node) -> int:
        """Position of a node; any other value raises ``ValueError``."""
        with suppress(KeyError, TypeError):
            return self._positions[node]
        raise ValueError(f"{node!r} is not a node of this basis")

    def node_label(self, k: int) -> str:
        kind, payload = self.nodes[k]
        if kind == "t":
            return "c_t[" + ",".join(str(j) for j in payload) + "]"
        i, j, s = payload
        return f"c({i},{j},{s})"


def build_basis(shape: LatticeShape) -> RootBasis:
    """The nodes of a shape: the index tuples in lexicographic order, then
    the interior chain slots in (i, j, s) order."""
    chains = [
        ("c", (i, j, s))
        for i, lens in enumerate(shape.chain_lengths)
        for j, l in enumerate(lens)
        for s in range(l - 1)
    ]
    return RootBasis(shape, tuple([("t", t) for t in shape.index_tuples()] + chains))


def _gram(shape: LatticeShape, nodes: tuple[Node, ...]) -> tuple[tuple[int, ...], ...]:
    """The Gram matrix on the nodes of :func:`build_basis`, the rows of
    :func:`_gram_rows`.

    Off-diagonal entries are checked to be <= 0, and a violation is
    reported for the first pair (a, b) with a < b in row-major order.  A
    validated :class:`LatticeShape` has none: every off-diagonal weight is
    <= -1, so B(e_t, e_t') <= 2 - 2d with d >= 1 the number of points at
    which t and t' differ, and the chain entries are -1 or 0.  Only a shape
    that skipped its own validation reaches the error.
    """
    row = _gram_rows(shape, nodes)
    gram = tuple(tuple(row(a)) for a in range(len(nodes)))
    for a, entries in enumerate(gram):
        if max(entries[a + 1:], default=0) > 0:
            b = next(b for b in range(a + 1, len(nodes)) if entries[b] > 0)
            raise ValueError(
                f"positive off-diagonal pairing {entries[b]} between {nodes[a]} and {nodes[b]}"
            )
    return gram


def _gram_rows(shape: LatticeShape, nodes: tuple[Node, ...]) -> Callable[[int], list[int]]:
    """The function that builds row a of the Gram matrix on the nodes of
    :func:`build_basis` as a new list, set block by block in closed form:

    - tuple-tuple: B(e_t, e_t') = sum_i ([t_i = t'_i] - euler_weight(i, t'_i, t_i)),
      the outer sum over the points of these rows (see :func:`_suffix_row`),
      equal to the module docstring's form as the signs sum to p - 1;
    - tuple-chain: -1 between e_t and chain node (i, j, 0) when t_i = j, and
      0 for every other chain node;
    - chain-chain: 2 on the diagonal, -1 between adjacent slots of one
      chain, 0 otherwise.

    The rows share one suffix memo, which lives as long as the function.
    """
    tuples = [t for kind, t in nodes if kind == "t"]
    nt = len(tuples)
    chains = [c for _, c in nodes[nt:]]
    first_slot = {c[:2]: q for q, c in enumerate(chains) if c[2] == 0}
    per_point = [
        [[(j == j2) - shape.euler_weight(i, j2, j) for j2 in range(k)] for j in range(k)]
        for i, k in enumerate(map(len, shape.chain_lengths))
    ]
    memo: dict[tuple[IndexTuple, int], list[int]] = {}

    def row(a: int) -> list[int]:
        coupling = [0] * len(chains)
        if a < nt:
            t = tuples[a]
            for i, j in enumerate(t):
                q = first_slot.get((i, j))
                if q is not None:
                    coupling[q] = -1
            return _suffix_row(per_point, memo, t, 0) + coupling
        q = a - nt
        i, j, s = chains[q]
        coupling[q] = 2
        if s:
            coupling[q - 1] = -1
        if q + 1 < len(chains) and chains[q + 1][2] == s + 1:
            coupling[q + 1] = -1
        if s == 0:
            return [-1 if t[i] == j else 0 for t in tuples] + coupling
        return [0] * nt + coupling

    return row


def _suffix_row(per_point, memo, u: IndexTuple, c: int) -> list[int]:
    """The row of e_u over the last ``len(u)`` points, every entry shifted
    by ``c``: the outer sum of the per-point rows ``per_point[i][u_i]`` =
    ``[u_i = .] - euler_weight(i, ., u_i)``, in ``index_tuples`` order.

    It is the concatenation, over the entries x of the first per-point
    row, of the row of ``u[1:]`` shifted by c + x.  A row of a proper
    suffix depends only on (suffix, c), so ``memo`` keeps it and every
    longer row that reaches it shares it: a Gram row costs about one
    pointer copy per entry, and equal entries share one int object.  A
    whole row is never shared and comes back as a new list.
    """
    row = memo.get((u, c))
    if row is None:
        if u:
            row = []
            for x in per_point[-len(u)][u[0]]:
                row += _suffix_row(per_point, memo, u[1:], c + x)
        else:
            row = [c]
        if len(u) < len(per_point):
            memo[u, c] = row
    return row


@dataclass(frozen=True, init=False, repr=False)
class RootVector:
    """Integer coordinates over a root basis."""

    __slots__ = ("basis", "coords")
    basis: RootBasis
    coords: tuple[int, ...]

    def __init__(self, basis: RootBasis, coords: Sequence[int]):
        coords = tuple(int(v) for v in coords)
        if len(coords) != len(basis.nodes):
            raise ValueError("coordinate count does not match basis")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coords", coords)

    @staticmethod
    def unit(basis: RootBasis, node: Node) -> "RootVector":
        coords = [0] * len(basis.nodes)
        coords[basis.node_index(node)] = 1
        return RootVector(basis, coords)

    def __sub__(self, other: "RootVector") -> "RootVector":
        return RootVector(self.basis, [a - b for a, b in zip(self.coords, other.coords)])

    def scale(self, k: int) -> "RootVector":
        return RootVector(self.basis, [k * a for a in self.coords])

    def __repr__(self):
        body = ", ".join(
            f"{v}*{self.basis.node_label(k)}" for k, v in enumerate(self.coords) if v
        )
        return f"RootVector({body or '0'})"


def pairing(alpha: RootVector, beta: RootVector) -> int:
    """alpha^T G beta, as the form of the images under :func:`phi`: the
    form on the nodes is the pullback of :meth:`LatticeVector.form`."""
    return phi(alpha).form(phi(beta))


def reflect(alpha: RootVector, node: Node) -> RootVector:
    """Reflection in a basis node (all nodes have self-pairing 2):
    alpha - B(e, alpha) e with e the node's unit vector."""
    unit = RootVector.unit(alpha.basis, node)
    return alpha - unit.scale(pairing(unit, alpha))


def phi(alpha: RootVector) -> LatticeVector:
    """The surjection onto the multiplicity lattice, one node at a time: a
    tuple node t adds its coordinate to the first slot of factor t_i at
    every point, and a chain node (i, j, s) moves its coordinate from slot
    s to slot s+1 of factor (i, j)."""
    basis = alpha.basis
    entries = [[[0] * l for l in lens] for lens in basis.shape.chain_lengths]
    for (kind, payload), v in zip(basis.nodes, alpha.coords):
        if not v:
            continue
        if kind == "t":
            for i, j in enumerate(payload):
                entries[i][j][0] += v
        else:
            i, j, s = payload
            entries[i][j][s] -= v
            entries[i][j][s + 1] += v
    return LatticeVector(basis.shape, entries)


def canonical_lift(a: LatticeVector, tau: IndexTuple) -> RootVector:
    """An explicit preimage of ``a`` built from the index tuple ``tau``: the
    tau node starts at -p * rank, each factor (i, j) adds its block sum to
    the tuple that is tau with j at point i, and chain node (i, j, s) gets
    that block sum minus the first s+1 entries.

    Total in tau (any tuple works); when tau minimizes the defect over the
    support of a nonnegative ``a`` with idx + rank > 0, the lift has
    nonnegative coordinates.
    """
    basis = build_basis(a.shape)
    tau = tuple(tau)
    coords = [0] * len(basis.nodes)
    coords[basis.node_index(("t", tau))] = -a.shape.p * a.rank
    for i, point in enumerate(a.entries):
        for j, chain in enumerate(point):
            rest = sum(chain)
            coords[basis.node_index(("t", tau[:i] + (j,) + tau[i + 1:]))] += rest
            for s, v in enumerate(chain[:-1]):
                rest -= v
                coords[basis.node_index(("c", (i, j, s)))] = rest
    return RootVector(basis, coords)


def idx(a: LatticeVector) -> int:
    """Self-pairing of any preimage; well-defined because the kernel of
    the surjection is in the radical of the form."""
    support = a.support_factors()
    tau = tuple(js[0] for js in support) if all(support) else (0,) * len(support)
    lift = canonical_lift(a, tau)
    return pairing(lift, lift)


# -- diagram emission & classification --------------------------------------------


def dot_text(basis: RootBasis) -> str:
    """Graphviz text; parallel edges are rendered once with a label.  The
    edge lines of one Gram row are joined before the next row is read, so
    a dense diagram never holds one string object per edge."""
    parts = ["graph diagram {"]
    for k in range(len(basis.nodes)):
        parts.append(f'  n{k} [label="{basis.node_label(k)}"];')
    for a, row in enumerate(basis.gram):
        lines = []
        for b in range(a + 1, len(row)):
            mult = -row[b]
            if mult == 1:
                lines.append(f"  n{a} -- n{b};")
            elif mult >= 2:
                lines.append(f'  n{a} -- n{b} [label="{mult}"];')
        if lines:
            parts.append("\n".join(lines))
    parts.append("}")
    return "\n".join(parts)


def cartan_matrix_text(basis: RootBasis) -> str:
    width = max(
        len(str(v)) for row in basis.gram for v in row
    )
    return "\n".join(
        " ".join(f"{v:>{width}}" for v in row) for row in basis.gram
    )


def classify_diagram(basis: RootBasis) -> tuple[str, list[list[int]]]:
    """Label from the catalog {cycle, 5-node star, double edge, disjoint
    unions}, with "unrecognized" as the honest fallback, plus the connected
    components it labelled: sorted lists of node positions, one per term of
    the label and in its order.  Each Gram row is built when the walk reads
    it (:func:`_gram_rows`), so the dense Gram matrix is never built.  DOT
    text is :func:`dot_text`."""
    return _classify(_gram_rows(basis.shape, basis.nodes), len(basis.nodes))


def _classify(row: Callable[[int], Sequence[int]], n: int) -> tuple[str, list[list[int]]]:
    """:func:`classify_diagram` on the n nodes whose Gram rows ``row(a)``
    gives.  Each component is found from its first node: every popped node
    adds the nonzero positions of its row not yet in a component."""
    nodes = range(n)
    rest = set(nodes)
    labels = []
    components = []
    for start in nodes:
        if start in rest:
            rest.remove(start)
            stack = [start]
            comp = [start]
            while stack and rest:
                new = rest.intersection(compress(nodes, row(stack.pop())))
                rest -= new
                stack += new
                comp += new
            comp.sort()
            labels.append(_classify_component(row, comp))
            components.append(comp)
    return " + ".join(labels), components


def _classify_component(row: Callable[[int], Sequence[int]], comp: list[int]) -> str:
    """Two nodes are A1(1) when joined by a double edge.  Otherwise the
    degrees (nonzero off-diagonal entries of a row) decide the candidate, a
    cycle or a 5-node star, each row read once.  Off-diagonal entries are
    <= 0 (see :func:`_gram`), so every edge is simple when every row's least
    entry is -1."""
    if len(comp) == 2:
        a, b = comp
        return "A1(1)" if row(a)[b] == -2 else "unrecognized"
    degrees = []
    for a in comp:
        entries = row(a)
        degree = len(entries) - 1 - entries.count(0)
        if min(entries) != -1 or (degree != 2 and len(comp) != 5):
            return "unrecognized"
        degrees.append(degree)
    if degrees == [2] * len(comp):
        return f"A{len(comp) - 1}(1)"
    if sorted(degrees) == [1, 1, 1, 1, 4]:
        return "D4(1)"
    return "unrecognized"

