"""The root-lattice side: basis, bilinear form, reflections, and the
surjection onto the multiplicity lattice.

The basis has one node per index tuple and one node per interior chain
slot.  The symmetric bilinear form has diagonal 2; the off-diagonal
entries come from weights of factor differences and from shared tuple
coordinates.  The surjection intertwines reflections in tuple nodes with
the twisted-Euler moves and reflections in chain nodes with the slot
permutations, which is what lets root-theoretic language classify
operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .lattice import IndexTuple, LatticeShape, LatticeVector

Node = tuple[str, tuple]


class Verdict(Enum):
    REAL_ROOT = "RealRoot"
    IMAGINARY_ROOT = "ImaginaryRoot"
    NOT_ROOT = "NotRoot"


@dataclass(frozen=True)
class RootBasis:
    """Ordered nodes (tuple nodes first, then chain nodes) plus the Gram
    matrix of the bilinear form."""

    shape: LatticeShape
    nodes: tuple[Node, ...]
    gram: tuple[tuple[int, ...], ...]

    def node_index(self, node: Node) -> int:
        return self.nodes.index(node)

    def tuple_nodes(self) -> list[int]:
        """Positions of the tuple nodes (oracle for tests)."""
        return [k for k, (kind, _) in enumerate(self.nodes) if kind == "t"]

    def chain_nodes(self) -> list[int]:
        """Positions of the chain nodes (oracle for tests)."""
        return [k for k, (kind, _) in enumerate(self.nodes) if kind == "c"]

    def node_label(self, k: int) -> str:
        kind, payload = self.nodes[k]
        if kind == "t":
            return "c_t[" + ",".join(str(j) for j in payload) + "]"
        i, j, s = payload
        return f"c({i},{j},{s})"


def build_basis(shape: LatticeShape) -> RootBasis:
    """Basis and Gram matrix for a shape.

    Off-diagonal entries are checked to be <= 0; a violation would leave
    root-system territory and is reported rather than silently accepted.
    """
    nodes: list[Node] = [("t", t) for t in shape.index_tuples()]
    for i in range(shape.num_points):
        for j in range(shape.factor_count(i)):
            for s in range(shape.chain_lengths[i][j] - 1):
                nodes.append(("c", (i, j, s)))
    n = len(nodes)
    gram = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            v = _pairing(shape, nodes[a], nodes[b])
            gram[a][b] = gram[b][a] = v
            if a != b and v > 0:
                raise ValueError(
                    f"positive off-diagonal pairing {v} between {nodes[a]} and {nodes[b]}"
                )
    return RootBasis(shape, tuple(nodes), tuple(tuple(row) for row in gram))


def _pairing(shape: LatticeShape, n1: Node, n2: Node) -> int:
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
        n1, n2 = n2, n1
        pay1, pay2 = pay2, pay1
    t, (i, j, s) = pay1, pay2
    return -1 if t[i] == j and s == 0 else 0


class RootVector:
    """Integer coordinates over a root basis."""

    __slots__ = ("basis", "coords")

    def __init__(self, basis: RootBasis, coords: Sequence[int]):
        coords = tuple(int(v) for v in coords)
        if len(coords) != len(basis.nodes):
            raise ValueError("coordinate count does not match basis")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("RootVector is immutable")

    @staticmethod
    def unit(basis: RootBasis, node: Node) -> "RootVector":
        coords = [0] * len(basis.nodes)
        coords[basis.node_index(node)] = 1
        return RootVector(basis, coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootVector):
            return NotImplemented
        return self.basis == other.basis and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __add__(self, other: "RootVector") -> "RootVector":
        return RootVector(self.basis, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "RootVector") -> "RootVector":
        return RootVector(self.basis, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "RootVector":
        return RootVector(self.basis, [-a for a in self.coords])

    def scale(self, k: int) -> "RootVector":
        return RootVector(self.basis, [k * a for a in self.coords])

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self.coords)

    def __repr__(self):
        body = ", ".join(
            f"{v}*{self.basis.node_label(k)}" for k, v in enumerate(self.coords) if v
        )
        return f"RootVector({body or '0'})"


def pairing(alpha: RootVector, beta: RootVector) -> int:
    gram = alpha.basis.gram
    return sum(
        a * sum(g * b for g, b in zip(row, beta.coords))
        for a, row in zip(alpha.coords, gram)
    )


def reflect(alpha: RootVector, node: Node) -> RootVector:
    """Reflection in a basis node (all nodes have self-pairing 2)."""
    basis = alpha.basis
    k = basis.node_index(node)
    coeff = sum(g * v for g, v in zip(basis.gram[k], alpha.coords))
    coords = list(alpha.coords)
    coords[k] -= coeff
    return RootVector(basis, coords)


def phi(alpha: RootVector) -> LatticeVector:
    """The surjection onto the multiplicity lattice.

    First slots collect the tuple coordinates through the factor minus the
    first chain coordinate; later slots telescope consecutive chain
    coordinates.
    """
    basis = alpha.basis
    shape = basis.shape
    tuple_coeff = {t: alpha.coords[k] for k, (kind, t) in enumerate(basis.nodes) if kind == "t"}
    chain_coeff = {pay: alpha.coords[k] for k, (kind, pay) in enumerate(basis.nodes) if kind == "c"}

    def chain(i, j, s):
        return chain_coeff.get((i, j, s), 0)

    entries = []
    for i in range(shape.num_points):
        point = []
        for j in range(shape.factor_count(i)):
            l = shape.chain_lengths[i][j]
            through = sum(v for t, v in tuple_coeff.items() if t[i] == j)
            ch = [through - chain(i, j, 0)]
            for s in range(1, l):
                ch.append(chain(i, j, s - 1) - chain(i, j, s))
            point.append(ch)
        entries.append(point)
    return LatticeVector(shape, entries)


def canonical_lift(a: LatticeVector, tau: IndexTuple) -> RootVector:
    """An explicit preimage of ``a`` built from the index tuple ``tau``.

    Total in tau (any tuple works); when tau minimizes the defect over the
    support of a nonnegative ``a`` with idx + rank > 0, the lift has
    nonnegative coordinates.
    """
    shape = a.shape
    basis = build_basis(shape)
    m = a.rank
    coords = [0] * len(basis.nodes)
    block = [
        [a.block_sum(i, j) for j in range(shape.factor_count(i))]
        for i in range(shape.num_points)
    ]
    for i in range(shape.num_points):
        for j in range(shape.factor_count(i)):
            if j == tau[i]:
                continue
            t = tuple(j if k == i else tau[k] for k in range(shape.num_points))
            coords[basis.node_index(("t", t))] += block[i][j]
    coords[basis.node_index(("t", tuple(tau)))] += (
        sum(block[i][tau[i]] for i in range(shape.num_points)) - shape.p * m
    )
    for i in range(shape.num_points):
        for j in range(shape.factor_count(i)):
            partial = 0
            for s in range(shape.chain_lengths[i][j] - 1):
                partial += a.entries[i][j][s]
                coords[basis.node_index(("c", (i, j, s)))] += block[i][j] - partial
    return RootVector(basis, coords)


def idx(a: LatticeVector) -> int:
    """Self-pairing of any preimage; well-defined because the kernel of
    the surjection is in the radical of the form."""
    support = a.support_tuples()
    tau = support[0] if support else a.shape.index_tuples()[0]
    lift = canonical_lift(a, tau)
    return pairing(lift, lift)


def phi_of_tuple_node(shape: LatticeShape, t: IndexTuple) -> LatticeVector:
    """Image of a tuple node: multiplicity one in the first slot of the
    chosen factor at every point, a rank-1 vector (oracle for tests)."""
    basis = build_basis(shape)
    return phi(RootVector.unit(basis, ("t", tuple(t))))


# -- kernel & radical -----------------------------------------------------------


def _phi_matrix(shape: LatticeShape, basis: RootBasis) -> list[list[int]]:
    rows = []
    for node in basis.nodes:
        image = phi(RootVector.unit(basis, node))
        rows.append([v for point in image.entries for ch in point for v in ch])
    # columns are slots; transpose to slots x nodes
    return [list(col) for col in zip(*rows)]


def _rational_kernel(matrix: list[list[int]]) -> list[list[Fraction]]:
    """Kernel basis of a (slots x nodes) integer matrix over Q."""
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


def kernel_radical_check(shape: LatticeShape) -> bool:
    """The kernel of the surjection pairs to zero with every node, and its
    dimension matches the rank bookkeeping of the two lattices."""
    basis = build_basis(shape)
    kernel = _rational_kernel(_phi_matrix(shape, basis))
    ks = [shape.factor_count(i) for i in range(shape.num_points)]
    expected = 1
    for k in ks:
        expected *= k
    expected += -sum(ks) + shape.p
    if len(kernel) != expected:
        return False
    for vec in kernel:
        for row in basis.gram:
            if sum(g * v for g, v in zip(row, vec)) != 0:
                return False
    return True


# -- diagram emission & classification --------------------------------------------


def _adjacency(basis: RootBasis, nodes: Sequence[int]) -> dict[int, list[int]]:
    """Neighbours among the given nodes, in increasing order, read from the
    upper triangle of the Gram matrix once.  Off-diagonal entries are <= 0
    (``build_basis``), so an edge has multiplicity ``-gram[a][b]``."""
    adjacency: dict[int, list[int]] = {a: [] for a in nodes}
    for k, a in enumerate(nodes):
        row = basis.gram[a]
        for b in nodes[k + 1:]:
            if row[b]:
                adjacency[a].append(b)
                adjacency[b].append(a)
    return adjacency


def dot_text(basis: RootBasis) -> str:
    """Graphviz text; parallel edges are rendered once with a label."""
    lines = ["graph diagram {"]
    for k in range(len(basis.nodes)):
        lines.append(f'  n{k} [label="{basis.node_label(k)}"];')
    for a, row in enumerate(basis.gram):
        for b in range(a + 1, len(row)):
            mult = -row[b]
            if mult == 1:
                lines.append(f"  n{a} -- n{b};")
            elif mult >= 2:
                lines.append(f'  n{a} -- n{b} [label="{mult}"];')
    lines.append("}")
    return "\n".join(lines)


def cartan_matrix_text(basis: RootBasis) -> str:
    width = max(
        len(str(v)) for row in basis.gram for v in row
    )
    return "\n".join(
        " ".join(f"{v:>{width}}" for v in row) for row in basis.gram
    )


def classify_diagram(basis: RootBasis) -> tuple[str, str]:
    """Label from the catalog {cycle, 5-node star, double edge, disjoint
    unions}, with "unrecognized" as the honest fallback; plus DOT text."""
    adjacency = _adjacency(basis, range(len(basis.nodes)))
    seen: set[int] = set()
    labels = []
    for start in adjacency:
        if start in seen:
            continue
        component = _component(adjacency, start)
        seen |= set(component)
        labels.append(_classify_component(basis, component, adjacency))
    return " + ".join(labels), dot_text(basis)


def _component(adjacency, start):
    stack = [start]
    comp = []
    seen = {start}
    while stack:
        k = stack.pop()
        comp.append(k)
        for b in adjacency[k]:
            if b not in seen:
                seen.add(b)
                stack.append(b)
    return sorted(comp)


def _classify_component(basis: RootBasis, comp: list[int], adjacency) -> str:
    mults = [-basis.gram[a][b] for a in comp for b in adjacency[a] if a < b]
    if len(comp) == 2 and mults == [2]:
        return "A1(1)"
    if mults and any(m != 1 for m in mults):
        return "unrecognized"
    degrees = sorted(len(adjacency[a]) for a in comp)
    if len(comp) >= 3 and degrees == [2] * len(comp):
        return f"A{len(comp) - 1}(1)"
    if len(comp) == 5 and degrees == [1, 1, 1, 1, 4]:
        return "D4(1)"
    return "unrecognized"


def support_connected(alpha: RootVector) -> bool:
    """Connectivity of the support under the Gram adjacency."""
    support = [k for k, v in enumerate(alpha.coords) if v != 0]
    if not support:
        return False
    adjacency = _adjacency(alpha.basis, support)
    return len(_component(adjacency, support[0])) == len(support)


def is_phi_root(a: LatticeVector) -> Verdict:
    """Classify a lattice vector by running the reduction.

    Nonpositive vectors are classified through their negation; vectors of
    mixed sign are never roots.
    """
    from . import reduce as _reduce

    if a.is_zero():
        return Verdict.NOT_ROOT
    if a.is_nonnegative():
        return _reduce.reduce_vector(a).verdict
    if (-a).is_nonnegative():
        return _reduce.reduce_vector(-a).verdict
    return Verdict.NOT_ROOT
