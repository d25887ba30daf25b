import random
from fractions import Fraction

import pytest

from irrkatz import corpus, formal
from irrkatz.lattice import LatticeShape, LatticeVector
from irrkatz.rootsys import (
    RootBasis,
    RootVector,
    Verdict,
    build_basis,
    canonical_lift,
    cartan_matrix_text,
    classify_diagram,
    dot_text,
    idx,
    is_phi_root,
    kernel_radical_check,
    pairing,
    phi,
    phi_of_tuple_node,
    reflect,
    support_connected,
    _pairing,
)


def shape_of(name):
    return formal.to_shape(corpus.symbolic_formal_data(name))


def m_of(name):
    return formal.m_vector(corpus.symbolic_formal_data(name))


# -- basis construction -----------------------------------------------------------


def test_heun_basis_is_star():
    basis = build_basis(shape_of("Heun"))
    assert len(basis.nodes) == 5
    degrees = sorted(
        sum(1 for b in range(5) if b != a and basis.gram[a][b] < 0) for a in range(5)
    )
    assert degrees == [1, 1, 1, 1, 4]
    assert all(basis.gram[k][k] == 2 for k in range(5))


def test_triconfluent_gram():
    basis = build_basis(shape_of("tHeun"))
    assert basis.gram == ((2, -2), (-2, 2))


def test_doubly_confluent_gram_structure():
    basis = build_basis(shape_of("dHeun"))
    # tuples sharing a coordinate pair to 0, fully differing tuples to -2
    tuples = basis.shape.index_tuples()
    for a, ta in enumerate(tuples):
        for b, tb in enumerate(tuples):
            if a == b:
                continue
            shared = sum(1 for i in range(2) if ta[i] == tb[i])
            assert basis.gram[a][b] == (0 if shared else -2)


def test_positive_off_diagonal_rejected():
    # a weight table violating the factor-difference bound is caught at
    # shape construction time already
    with pytest.raises(ValueError):
        LatticeShape(((1, 1), (1,)), (((0, 1), (1, 0)), ((0,),)))


def _pairwise_basis(shape):
    """Reference: the basis filled pair by pair from ``_pairing``."""
    nodes = [("t", t) for t in shape.index_tuples()]
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


def _random_tables(rng, factors, values):
    tables = []
    for k in factors:
        table = [[0] * k for _ in range(k)]
        for j in range(k):
            for j2 in range(j + 1, k):
                table[j][j2] = table[j2][j] = rng.choice(values)
        tables.append(tuple(tuple(row) for row in table))
    return tuple(tables)


def random_shape(rng, max_nodes=300):
    """2-5 points, 1-4 factors per point, chains of length 1-3."""
    while True:
        factors = [rng.randint(1, 4) for _ in range(rng.randint(2, 5))]
        chain_lengths = tuple(tuple(rng.randint(1, 3) for _ in range(k)) for k in factors)
        shape = LatticeShape(chain_lengths, _random_tables(rng, factors, (-1, -1, -2, -3)))
        size = len(shape.index_tuples()) + sum(l - 1 for ls in chain_lengths for l in ls)
        if size <= max_nodes:
            return shape


def test_gram_matches_pairwise_oracle():
    rng = random.Random(36)
    shapes = [random_shape(rng) for _ in range(110)]
    shapes += [shape_of(name) for name in corpus.names()]
    assert max(len(s.index_tuples()) for s in shapes) > 200
    for shape in shapes:
        basis = build_basis(shape)
        reference = _pairwise_basis(shape)
        assert basis.nodes == reference.nodes
        nodes = basis.nodes
        for a, row in enumerate(basis.gram):
            assert row == tuple(_pairing(shape, nodes[a], node) for node in nodes)
        assert basis == reference
        assert dot_text(basis) == dot_text(reference)
        assert cartan_matrix_text(basis) == cartan_matrix_text(reference)
        assert classify_diagram(basis)[0] == classify_diagram(reference)[0]
        for k, node in enumerate(nodes):
            assert basis.node_index(node) == k


def test_node_index_rejects_foreign_nodes():
    basis = build_basis(shape_of("Gauss"))
    for node in [("t", (0, 0)), ("t", (0, 0, 2)), ("t", (0, 0, 0, 0)), ("t", (-1, 0, 0)),
                 ("c", (0, 0, 1)), ("c", (0, 1, 0)), ("c", (5, 0, 0)), ("x", (0,))]:
        with pytest.raises(ValueError):
            basis.node_index(node)


def test_positive_off_diagonal_message_matches_pairwise_oracle():
    # weight tables that skip the shape's own validation reach the check
    rng = random.Random(37)
    raised = 0
    for _ in range(60):
        factors = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        shape = object.__new__(LatticeShape)
        object.__setattr__(
            shape, "chain_lengths", tuple(tuple(rng.randint(1, 2) for _ in range(k)) for k in factors)
        )
        object.__setattr__(shape, "weights", _random_tables(rng, factors, (-2, -1, -1, 0, 1)))
        try:
            expected = _pairwise_basis(shape)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                build_basis(shape)
            assert str(got.value) == str(exc)
            raised += 1
        else:
            assert build_basis(shape) == expected
    assert 10 < raised < 60


def test_pairing_skips_zero_coordinates_only():
    rng = random.Random(38)
    basis = build_basis(random_shape(rng))
    n = len(basis.nodes)
    for _ in range(20):
        alpha = RootVector(basis, [rng.choice((0, 0, 0, rng.randint(-3, 3))) for _ in range(n)])
        beta = RootVector(basis, [rng.randint(-3, 3) for _ in range(n)])
        dense = sum(
            alpha.coords[a] * basis.gram[a][b] * beta.coords[b] for a in range(n) for b in range(n)
        )
        assert pairing(alpha, beta) == dense == pairing(beta, alpha)


# -- reflections -------------------------------------------------------------------


def test_reflect_examples():
    basis = build_basis(shape_of("Heun"))
    for node in basis.nodes:
        c = RootVector.unit(basis, node)
        assert reflect(c, node) == -c
    rng = random.Random(30)
    for _ in range(50):
        alpha = RootVector(basis, [rng.randint(-4, 4) for _ in basis.nodes])
        beta = RootVector(basis, [rng.randint(-4, 4) for _ in basis.nodes])
        node = rng.choice(basis.nodes)
        assert pairing(reflect(alpha, node), reflect(beta, node)) == pairing(alpha, beta)
        assert reflect(reflect(alpha, node), node) == alpha


def test_heun_delta_invariant():
    basis = build_basis(shape_of("Heun"))
    delta = RootVector(basis, [2, 1, 1, 1, 1])
    for node in basis.nodes:
        assert reflect(delta, node) == delta
    assert pairing(delta, delta) == 0


# -- the surjection ------------------------------------------------------------------


def test_phi_examples():
    shape = shape_of("Heun")
    basis = build_basis(shape)
    delta = RootVector(basis, [2, 1, 1, 1, 1])
    assert phi(delta) == m_of("Heun")
    # a tuple node maps to first slots
    assert phi_of_tuple_node(shape, (0, 0, 0, 0)).to_text() == "1,0|1,0|1,0|1,0"
    # a chain node telescopes
    chain = RootVector.unit(basis, ("c", (0, 0, 0)))
    assert phi(chain).entries[0][0] == (-1, 1)


def test_phi_block_sums_are_tuple_sum():
    rng = random.Random(31)
    for name in corpus.names():
        basis = build_basis(shape_of(name))
        for _ in range(10):
            alpha = RootVector(basis, [rng.randint(-3, 3) for _ in basis.nodes])
            image = phi(alpha)
            expected = sum(alpha.coords[k] for k in basis.tuple_nodes())
            assert image.rank == expected


def test_canonical_lift_examples():
    gauss = m_of("Gauss")
    lift = canonical_lift(gauss, (0, 0, 0))
    basis = lift.basis
    assert lift.coords[basis.node_index(("t", (0, 0, 0)))] == 2
    assert all(lift.coords[k] == 1 for k in basis.chain_nodes())
    assert phi(lift) == gauss

    heun = m_of("Heun")
    lift_h = canonical_lift(heun, (0, 0, 0, 0))
    assert lift_h.coords == (2, 1, 1, 1, 1)

    zero = LatticeVector.zero(shape_of("Heun"))
    assert canonical_lift(zero, (0, 0, 0, 0)).coords == (0, 0, 0, 0, 0)


def test_canonical_lift_total_in_tau():
    rng = random.Random(32)
    for name in ("cHeun", "dHeun"):
        shape = shape_of(name)
        for _ in range(20):
            a = random_vector(rng, shape)
            for tau in shape.index_tuples():
                assert phi(canonical_lift(a, tau)) == a


def test_idx_examples():
    assert idx(m_of("Heun")) == 0
    assert idx(m_of("Gauss")) == 2
    assert idx(m_of("tHeun")) == 0


def test_idx_well_defined_across_lifts():
    rng = random.Random(33)
    for name in ("cHeun", "dHeun", "bHeun"):
        shape = shape_of(name)
        for _ in range(10):
            a = random_vector(rng, shape)
            values = {
                pairing(canonical_lift(a, tau), canonical_lift(a, tau))
                for tau in shape.index_tuples()
            }
            assert len(values) == 1


# -- kernel and radical -----------------------------------------------------------------


def test_kernel_checks():
    for name in corpus.names():
        assert kernel_radical_check(shape_of(name)), name


def test_doubly_confluent_kernel_vector():
    shape = shape_of("dHeun")
    basis = build_basis(shape)
    tuples = list(shape.index_tuples())     # (0,0), (0,1), (1,0), (1,1)
    coords = [0] * len(basis.nodes)
    for t, v in [((0, 0), 1), ((0, 1), -1), ((1, 0), -1), ((1, 1), 1)]:
        coords[basis.node_index(("t", t))] = v
    kernel_vec = RootVector(basis, coords)
    assert phi(kernel_vec).is_zero()
    for node in basis.nodes:
        assert pairing(kernel_vec, RootVector.unit(basis, node)) == 0


def test_heun_phi_injective():
    # all factor counts 1: kernel must be trivial
    shape = shape_of("Heun")
    basis = build_basis(shape)
    from irrkatz.rootsys import _phi_matrix, _rational_kernel

    assert _rational_kernel(_phi_matrix(shape, basis)) == []


# -- diagrams ----------------------------------------------------------------------------


def test_classify_examples():
    labels = {
        "Heun": "D4(1)",
        "cHeun": "A3(1)",
        "bHeun": "A2(1)",
        "tHeun": "A1(1)",
        "dHeun": "A1(1) + A1(1)",
        "Gauss": "unrecognized",
    }
    for name, expected in labels.items():
        label, dot = classify_diagram(build_basis(shape_of(name)))
        assert label == expected, name
        assert dot.startswith("graph")


def test_dot_output_contains_multiplicity():
    dot = dot_text(build_basis(shape_of("tHeun")))
    assert 'label="2"' in dot
    assert "c_t[0]" in dot and "c_t[1]" in dot
    text = cartan_matrix_text(build_basis(shape_of("tHeun")))
    assert text.splitlines()[0].split() == ["2", "-2"]


def test_support_connected():
    basis = build_basis(shape_of("Heun"))
    assert support_connected(RootVector(basis, [2, 1, 1, 1, 1]))
    assert not support_connected(RootVector(basis, [0, 1, 1, 0, 0]))
    assert support_connected(RootVector(basis, [1, 0, 0, 0, 0]))


# -- equivariance (the central identities) ---------------------------------------------------


def test_equivariance_with_both_generator_families():
    rng = random.Random(34)
    for name in corpus.names():
        shape = shape_of(name)
        basis = build_basis(shape)
        for _ in range(40):
            alpha = RootVector(basis, [rng.randint(-5, 5) for _ in basis.nodes])
            image = phi(alpha)
            for kind, payload in basis.nodes:
                reflected = phi(reflect(alpha, (kind, payload)))
                if kind == "t":
                    assert reflected == image.sigma_t(payload)
                    unit = RootVector.unit(basis, (kind, payload))
                    assert image.defect(payload) == -pairing(unit, alpha)
                else:
                    assert reflected == image.sigma_perm(*payload)


def test_positivity_of_minimizing_lift():
    # sorted nonnegative vectors with idx + rank > 0 admit a support tuple
    # of nonpositive defect whose lift stays in the positive cone (the
    # sortedness matters: 2,2|1,3|2,2|2,2 on the 5-node star shape has
    # idx 2 but only positive defects)
    rng = random.Random(35)
    for name in corpus.names():
        shape = shape_of(name)
        checked = 0
        for _ in range(60):
            a = _sorted_chains(random_vector(rng, shape))
            if idx(a) + a.rank <= 0:
                continue
            support = a.support_tuples()
            defects = {t: a.defect(t) for t in support}
            best = min(defects.values())
            assert best <= 0
            tau = min(t for t, d in defects.items() if d == best)
            assert canonical_lift(a, tau).is_nonnegative()
            checked += 1
        assert checked > 10


# -- root classification ------------------------------------------------------------------


def test_is_phi_root_examples():
    assert is_phi_root(m_of("Gauss")) is Verdict.REAL_ROOT
    assert is_phi_root(m_of("Heun")) is Verdict.IMAGINARY_ROOT
    assert is_phi_root(-m_of("Heun")) is Verdict.IMAGINARY_ROOT
    assert is_phi_root(LatticeVector.zero(shape_of("Heun"))) is Verdict.NOT_ROOT
    mixed = LatticeVector(
        shape_of("Heun"), [[[2, -1]], [[1, 0]], [[1, 0]], [[1, 0]]]
    )
    assert is_phi_root(mixed) is Verdict.NOT_ROOT


def test_is_phi_root_matches_orbit_search():
    # modified multiplicity vector from the 5-node star shape; the oracle
    # explores the orbit exhaustively within a box
    shape = shape_of("Heun")
    a = LatticeVector(shape, [[[3, 1]], [[2, 2]], [[2, 2]], [[2, 2]]])
    verdict = is_phi_root(a)
    assert verdict is _orbit_search_oracle(a)
    assert verdict is Verdict.REAL_ROOT
    assert idx(a) == 2


def _orbit_search_oracle(a, bound=12):
    from irrkatz.lattice import in_fundamental_domain

    shape = a.shape
    seen = set()
    frontier = [a]
    result = None
    while frontier:
        cur = frontier.pop()
        if cur in seen:
            continue
        seen.add(cur)
        if cur.is_nonnegative():
            if cur.rank == 1 and any(
                cur == phi_of_tuple_node(shape, t) for t in shape.index_tuples()
            ):
                return Verdict.REAL_ROOT
            if in_fundamental_domain(cur):
                result = Verdict.IMAGINARY_ROOT
        images = [cur.sigma_t(t) for t in shape.index_tuples()]
        for i in range(shape.num_points):
            for j in range(shape.factor_count(i)):
                for s in range(shape.chain_lengths[i][j] - 1):
                    images.append(cur.sigma_perm(i, j, s))
        for nxt in images:
            if nxt not in seen and all(
                abs(v) <= bound for pt in nxt.entries for ch in pt for v in ch
            ):
                frontier.append(nxt)
    return result or Verdict.NOT_ROOT


def random_vector(rng, shape, max_rank=5):
    rank = rng.randint(1, max_rank)
    entries = []
    for lens in shape.chain_lengths:
        point = [[0] * l for l in lens]
        for _ in range(rank):
            j = rng.randrange(len(lens))
            s = rng.randrange(lens[j])
            point[j][s] += 1
        entries.append(point)
    return LatticeVector(shape, entries)


def _sorted_chains(a):
    return LatticeVector(
        a.shape,
        [[sorted(ch, reverse=True) for ch in point] for point in a.entries],
    )
