"""Reference implementations and helpers that only the tests use.

Each is either the direct, slow form of something ``irrkatz`` computes
another way (the form entry by entry or block by block, a reflection
from a Gram row, ker phi by Gaussian elimination, the support tuples by
filtering the full product, the operator product by the Leibniz rule
term by term) or a small accessor no pipeline code needs, so it lives
here and not in ``src``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from irrkatz import corpus
from irrkatz.formal import FormalData, SpectralData
from irrkatz.lattice import IndexTuple, LatticeShape, LatticeVector
from irrkatz.polys import RatFunc
from irrkatz.rootsys import Node, RootBasis, RootVector, build_basis, phi
from irrkatz.scalar import ParamExpr
from irrkatz.weylalg import DiffOperator, OpLike

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


def subst_inverse(f: RatFunc) -> RatFunc:
    """f(1/x) as a rational function of x."""
    n = max(f.num.degree, f.den.degree)
    if n < 0:
        return f
    return RatFunc(f.num.reverse(n), f.den.reverse(n))


# -- weylalg ---------------------------------------------------------------------


def leibniz_product(p: DiffOperator, q: OpLike) -> DiffOperator:
    """The product term by term in ``RatFunc`` arithmetic: ``D^i b =
    sum_k C(i, k) b^(k) D^(i-k)``, each derivative of each coefficient of
    q taken once."""
    q = DiffOperator.of(q)
    if p.is_zero() or q.is_zero():
        return DiffOperator()
    out = [RatFunc(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for j, b in enumerate(q.coeffs):
        if b.is_zero():
            continue
        derivs = [b]
        for _ in range(len(p.coeffs) - 1):
            derivs.append(derivs[-1].derivative())
        for i, a in enumerate(p.coeffs):
            if a.is_zero():
                continue
            for k in range(i + 1):
                if not derivs[k].is_zero():
                    out[i - k + j] += a * comb(i, k) * derivs[k]
    return DiffOperator(out)


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
