import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from irrkatz import cli, corpus, formal, rootsys
from irrkatz.lattice import LatticeShape, LatticeVector
from irrkatz.reduce import reduce_vector
from irrkatz.rootsys import (
    RootVector,
    Verdict,
    build_basis,
    canonical_lift,
    cartan_matrix_text,
    classify_diagram,
    dot_text,
    idx,
    pairing,
    phi,
    reflect,
)
from oracles import (
    basis_with_gram,
    block_sum,
    chain_nodes,
    classify_gram,
    in_fundamental_domain,
    is_zero_vector,
    kernel_basis,
    kernel_radical_check,
    node_pairing,
    phi_matrix,
    phi_of_tuple_node,
    rational_kernel,
    support_tuples,
    tuple_nodes,
    zero_vector,
)
from oracles import reflect as reflect_oracle


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
    """Reference: the basis filled pair by pair from ``node_pairing``."""
    nodes = [("t", t) for t in shape.index_tuples()]
    for i in range(shape.num_points):
        for j in range(shape.factor_count(i)):
            for s in range(shape.chain_lengths[i][j] - 1):
                nodes.append(("c", (i, j, s)))
    n = len(nodes)
    gram = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            v = node_pairing(shape, nodes[a], nodes[b])
            gram[a][b] = gram[b][a] = v
            if a != b and v > 0:
                raise ValueError(
                    f"positive off-diagonal pairing {v} between {nodes[a]} and {nodes[b]}"
                )
    return basis_with_gram(shape, nodes, gram)


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
            assert row == tuple(node_pairing(shape, nodes[a], node) for node in nodes)
        assert basis == reference
        assert basis.gram == reference.gram
        assert dot_text(basis) == dot_text(reference)
        assert cartan_matrix_text(basis) == cartan_matrix_text(reference)
        assert classify_diagram(basis) == classify_gram(reference.gram)
        for k, node in enumerate(nodes):
            assert basis.node_index(node) == k


def test_node_index_rejects_foreign_nodes():
    basis = build_basis(shape_of("Gauss"))
    for node in [("t", (0, 0)), ("t", (0, 0, 2)), ("t", (0, 0, 0, 0)), ("t", (-1, 0, 0)),
                 ("c", (0, 0, 1)), ("c", (0, 1, 0)), ("c", (5, 0, 0)), ("x", (0,)),
                 ("t", [0, 0, 0]), ("c", [0, 0, 0])]:
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
                build_basis(shape).gram
            assert str(got.value) == str(exc)
            raised += 1
        else:
            assert build_basis(shape) == expected
            assert build_basis(shape).gram == expected.gram
    assert 10 < raised < 60


def test_pairing_skips_zero_coordinates_only():
    rng = random.Random(38)
    with_chains = 0
    for _ in range(100):
        basis = build_basis(random_shape(rng, max_nodes=80))
        n = len(basis.nodes)
        with_chains += basis.nodes[-1][0] == "c"
        for _ in range(4):
            alpha = RootVector(basis, [rng.choice((0, 0, 0, rng.randint(-3, 3))) for _ in range(n)])
            beta = RootVector(basis, [rng.randint(-3, 3) for _ in range(n)])
            dense = sum(
                alpha.coords[a] * basis.gram[a][b] * beta.coords[b] for a in range(n) for b in range(n)
            )
            assert pairing(alpha, beta) == dense == pairing(beta, alpha)
    assert with_chains > 80


def test_only_the_diagram_readers_build_the_gram(monkeypatch, tmp_path, capsys):
    def refuse(shape, nodes):
        raise AssertionError("Gram matrix built")

    monkeypatch.setattr(rootsys, "_gram", refuse)
    for name in corpus.names():
        data = corpus.symbolic_formal_data(name)
        m = formal.m_vector(data)
        lift = canonical_lift(m, (0,) * m.shape.num_points)
        assert phi(lift) == m
        assert pairing(lift, lift) == idx(m) == m.form(m)
        for node in lift.basis.nodes:
            reflect(lift, node)
        assert formal.fuchs_defect(data).is_zero()
        path = tmp_path / f"{name}.json"
        path.write_text(formal.to_json(data), encoding="utf-8")
        classify_diagram(lift.basis)
        for command in ("reduce", "fuchs", "diagram"):
            assert cli.main([command, "--formal", str(path)]) == 0
    assert cli.main(["examples", "--run"]) == 0
    capsys.readouterr()
    basis = build_basis(shape_of("dHeun"))
    readers = [dot_text, cartan_matrix_text, lambda b: kernel_radical_check(b.shape)]
    for reader in readers:
        with pytest.raises(AssertionError, match="Gram matrix built"):
            reader(basis)


def test_classify_diagram_keeps_no_gram():
    # 4^5 tuple nodes; every row the walk reads is dropped after the call
    shape = LatticeShape(((1, 1, 1, 1),) * 5, (((0, -1, -1, -1), (-1, 0, -1, -1),
                                                (-1, -1, 0, -1), (-1, -1, -1, 0)),) * 5)
    basis = build_basis(shape)
    assert len(basis.nodes) >= 1000
    assert classify_diagram(basis) == ("unrecognized", [list(range(len(basis.nodes)))])
    assert "gram" not in basis.__dict__


# -- reflections -------------------------------------------------------------------


def test_reflect_examples():
    basis = build_basis(shape_of("Heun"))
    for node in basis.nodes:
        c = RootVector.unit(basis, node)
        assert reflect(c, node) == c.scale(-1)
    rng = random.Random(30)
    for _ in range(50):
        alpha = RootVector(basis, [rng.randint(-4, 4) for _ in basis.nodes])
        beta = RootVector(basis, [rng.randint(-4, 4) for _ in basis.nodes])
        node = rng.choice(basis.nodes)
        assert pairing(reflect(alpha, node), reflect(beta, node)) == pairing(alpha, beta)
        assert reflect(reflect(alpha, node), node) == alpha


def test_reflect_matches_the_gram_row_oracle():
    rng = random.Random(39)
    shapes = [random_shape(rng, max_nodes=60) for _ in range(100)]
    shapes += [shape_of(name) for name in corpus.names()]
    for shape in shapes:
        basis = build_basis(shape)
        alpha = RootVector(basis, [rng.randint(-3, 3) for _ in basis.nodes])
        for node in basis.nodes:
            assert reflect(alpha, node) == reflect_oracle(alpha, node)


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
            expected = sum(alpha.coords[k] for k in tuple_nodes(basis))
            assert image.rank == expected


def test_canonical_lift_examples():
    gauss = m_of("Gauss")
    lift = canonical_lift(gauss, (0, 0, 0))
    basis = lift.basis
    assert lift.coords[basis.node_index(("t", (0, 0, 0)))] == 2
    assert all(lift.coords[k] == 1 for k in chain_nodes(basis))
    assert phi(lift) == gauss

    heun = m_of("Heun")
    lift_h = canonical_lift(heun, (0, 0, 0, 0))
    assert lift_h.coords == (2, 1, 1, 1, 1)

    zero = zero_vector(shape_of("Heun"))
    assert canonical_lift(zero, (0, 0, 0, 0)).coords == (0, 0, 0, 0, 0)


def test_canonical_lift_total_in_tau():
    rng = random.Random(32)
    for name in ("cHeun", "dHeun"):
        shape = shape_of(name)
        for _ in range(20):
            a = random_vector(rng, shape)
            for tau in shape.index_tuples():
                assert phi(canonical_lift(a, tau)) == a


# The surjection and its lift as they were written before the one-pass
# forms: phi scans the coordinates once per slot, the lift fills a block
# table and adds the tau node's share after the other tuples.


def _phi_oracle(alpha):
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
            through = sum(v for t, v in tuple_coeff.items() if t[i] == j)
            ch = [through - chain(i, j, 0)]
            for s in range(1, shape.chain_lengths[i][j]):
                ch.append(chain(i, j, s - 1) - chain(i, j, s))
            point.append(ch)
        entries.append(point)
    return LatticeVector(shape, entries)


def _canonical_lift_oracle(a, tau):
    shape = a.shape
    basis = build_basis(shape)
    coords = [0] * len(basis.nodes)
    block = [
        [block_sum(a, i, j) for j in range(shape.factor_count(i))]
        for i in range(shape.num_points)
    ]
    for i in range(shape.num_points):
        for j in range(shape.factor_count(i)):
            if j == tau[i]:
                continue
            t = tuple(j if k == i else tau[k] for k in range(shape.num_points))
            coords[basis.node_index(("t", t))] += block[i][j]
    coords[basis.node_index(("t", tuple(tau)))] += (
        sum(block[i][tau[i]] for i in range(shape.num_points)) - shape.p * a.rank
    )
    for i in range(shape.num_points):
        for j in range(shape.factor_count(i)):
            partial = 0
            for s in range(shape.chain_lengths[i][j] - 1):
                partial += a.entries[i][j][s]
                coords[basis.node_index(("c", (i, j, s)))] += block[i][j] - partial
    return RootVector(basis, coords)


def test_phi_and_lift_match_the_slot_scan_oracles():
    rng = random.Random(37)
    shapes = [random_shape(rng, max_nodes=80) for _ in range(120)]
    shapes += [shape_of(name) for name in corpus.names()]
    lifts = 0
    for shape in shapes:
        basis = build_basis(shape)
        for _ in range(3):
            alpha = RootVector(basis, [rng.randint(-3, 3) for _ in basis.nodes])
            assert phi(alpha) == _phi_oracle(alpha)
        for a in (zero_vector(shape), random_vector(rng, shape)):
            for tau in shape.index_tuples():
                lift = canonical_lift(a, tau)
                assert lift == _canonical_lift_oracle(a, tau)
                assert phi(lift) == _phi_oracle(lift) == a
                lifts += 1
    assert lifts > 2000


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


def _rank(vectors):
    """Rank over Q of a list of coordinate vectors."""
    return len(vectors) - len(rational_kernel([list(row) for row in zip(*vectors)]))


def test_closed_form_kernel_basis_matches_gaussian_elimination():
    rng = random.Random(38)
    shapes = []
    for _ in range(150):
        factors = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        lengths = tuple(tuple(rng.randint(1, 3) for _ in range(k)) for k in factors)
        shapes.append(LatticeShape(lengths, _random_tables(rng, factors, (-1, -1, -2, -3))))
    assert sum(s.num_points == 1 for s in shapes) > 20
    assert sum(1 in map(len, s.chain_lengths) for s in shapes) > 50
    shapes += [shape_of(name) for name in corpus.names()]
    for shape in shapes:
        basis = build_basis(shape)
        closed = kernel_basis(basis)
        oracle = rational_kernel(phi_matrix(basis))
        coords = [v.coords for v in closed]
        assert len(closed) == len(oracle) == _rank(coords) == _rank(coords + oracle)
        for v in closed:
            assert is_zero_vector(phi(v))
            support = [k for k, c in enumerate(v.coords) if c]
            for node in basis.nodes:
                assert sum(
                    v.coords[k] * node_pairing(shape, basis.nodes[k], node) for k in support
                ) == 0
        assert kernel_radical_check(shape)


def test_doubly_confluent_kernel_vector():
    shape = shape_of("dHeun")
    basis = build_basis(shape)
    tuples = list(shape.index_tuples())     # (0,0), (0,1), (1,0), (1,1)
    coords = [0] * len(basis.nodes)
    for t, v in [((0, 0), 1), ((0, 1), -1), ((1, 0), -1), ((1, 1), 1)]:
        coords[basis.node_index(("t", t))] = v
    kernel_vec = RootVector(basis, coords)
    assert is_zero_vector(phi(kernel_vec))
    for node in basis.nodes:
        assert pairing(kernel_vec, RootVector.unit(basis, node)) == 0


def test_heun_phi_injective():
    # all factor counts 1: kernel must be trivial
    shape = shape_of("Heun")
    basis = build_basis(shape)
    assert rational_kernel(phi_matrix(basis)) == []


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
        basis = build_basis(shape_of(name))
        label, components = classify_diagram(basis)
        assert label == expected, name
        assert len(components) == label.count(" + ") + 1
        assert dot_text(basis).startswith("graph")


def test_dot_output_contains_multiplicity():
    dot = dot_text(build_basis(shape_of("tHeun")))
    assert 'label="2"' in dot
    assert "c_t[0]" in dot and "c_t[1]" in dot
    text = cartan_matrix_text(build_basis(shape_of("tHeun")))
    assert text.splitlines()[0].split() == ["2", "-2"]


def _oracle_adjacency(gram, nodes):
    """Reference: neighbours from one Python pass over the upper triangle."""
    nodes = list(nodes)
    adjacency = {a: [] for a in nodes}
    for k, a in enumerate(nodes):
        row = gram[a]
        for b in nodes[k + 1:]:
            if row[b]:
                adjacency[a].append(b)
                adjacency[b].append(a)
    return adjacency


def _oracle_component(adjacency, start):
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


def _oracle_classify_component(gram, comp, adjacency):
    """Reference: every multiplicity first, then the degrees."""
    mults = [-gram[a][b] for a in comp for b in adjacency[a] if a < b]
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


def _oracle_classify(gram):
    adjacency = _oracle_adjacency(gram, range(len(gram)))
    seen = set()
    labels, components = [], []
    for start in adjacency:
        if start in seen:
            continue
        component = _oracle_component(adjacency, start)
        seen |= set(component)
        labels.append(_oracle_classify_component(gram, component, adjacency))
        components.append(component)
    return " + ".join(labels), components


def graph_gram(n, edges):
    """A Gram matrix with no shape: diagonal 2 and -m on each edge (a, b, m)."""
    gram = [[0] * n for _ in range(n)]
    for a in range(n):
        gram[a][a] = 2
    for a, b, m in edges:
        gram[a][b] = gram[b][a] = -m
    return tuple(tuple(row) for row in gram)


def classify_rows(gram):
    """The walk of ``classify_diagram`` handed the rows of ``gram``."""
    return rootsys._classify(gram.__getitem__, len(gram))


def bench_lattice_shapes():
    """The shapes of the first ``lattice_ladder`` pass of the benchmark at
    seeds 0-40, up to 1051 nodes."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [
        LatticeShape(tuple(map(tuple, inst["chain_lengths"])),
                     tuple(tuple(map(tuple, table)) for table in inst["weights"]))
        for seed in range(41)
        for inst in next(workloads.GENERATORS["lattice_ladder"](seed))
    ]


def relabel(edges, perm):
    return [(perm[a], perm[b], m) for a, b, m in edges]


def cycle(nodes, m=1):
    return [(a, nodes[(k + 1) % len(nodes)], m) for k, a in enumerate(nodes)]


def star(centre, leaves, mults=(1, 1, 1, 1)):
    return [(centre, leaf, m) for leaf, m in zip(leaves, mults)]


def test_classify_catalog_shapes():
    rng = random.Random(40)
    cases = [
        (2, [(0, 1, 2)], "A1(1)"),
        (2, [(0, 1, 1)], "unrecognized"),
        (2, [(0, 1, 3)], "unrecognized"),
        (1, [], "unrecognized"),
        (5, star(2, (0, 1, 3, 4)), "D4(1)"),
        (5, star(0, (1, 2, 3, 4), (1, 2, 1, 1)), "unrecognized"),
        (5, star(4, (0, 1, 2, 3), (1, 1, 1, 2)), "unrecognized"),
        (5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)], "unrecognized"),
        (6, star(0, (1, 2, 3, 4)) + [(4, 5, 1)], "unrecognized"),
        (4, star(0, (1, 2, 3)), "unrecognized"),
        (4, cycle([0, 1, 2, 3]) + [(0, 2, 1)], "unrecognized"),
        (6, cycle([0, 1, 2]) + cycle([3, 4, 5]), "A2(1) + A2(1)"),
        (7, [(0, 1, 2)] + star(2, (3, 4, 5, 6)), "A1(1) + D4(1)"),
        (8, [(0, 7, 2)] + cycle([1, 3, 5]) + [(2, 4, 1)],
         "A1(1) + A2(1) + unrecognized + unrecognized"),
    ]
    for n in range(3, 9):
        cases.append((n, cycle(list(range(n))), f"A{n - 1}(1)"))
        cases.append((n, cycle(list(range(n)), 2), "unrecognized"))
        double = cycle(list(range(n)))
        k = rng.randrange(n)
        double[k] = (*double[k][:2], 2)
        cases.append((n, double, "unrecognized"))
    for n, edges, expected in cases:
        for _ in range(4):
            perm = list(range(n))
            rng.shuffle(perm)
            gram = graph_gram(n, relabel(edges, perm))
            label, components = classify_rows(gram)
            # the terms come in the order of each component's first node
            assert sorted(label.split(" + ")) == sorted(expected.split(" + ")), (n, edges)
            assert (label, components) == _oracle_classify(gram) == classify_gram(gram)
            assert sorted(k for comp in components for k in comp) == list(range(n))


def random_graph_gram(rng):
    """Sparse Gram matrices, whose components are often cycles, stars and
    small pieces, with an occasional double or triple edge."""
    n = rng.randint(1, 40)
    edges = []
    for _ in range(rng.randint(0, n + 2)):
        a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if a != b:
            edges.append((a, b, rng.choice((1, 1, 1, 1, 2, 3))))
    for _ in range(rng.randint(0, 3)):
        size = rng.randint(2, 8)
        start = n
        n += size
        if size == 5 and rng.random() < 0.5:
            mults = rng.choice(((1, 1, 1, 1), (1, 1, 2, 1)))
            edges += star(start, range(start + 1, start + 5), mults)
        elif size == 2:
            edges.append((start, start + 1, rng.choice((1, 2))))
        else:
            edges += cycle(list(range(start, n)), rng.choice((1, 1, 1, 2)))
    perm = list(range(n))
    rng.shuffle(perm)
    return graph_gram(n, relabel(edges, perm))


def test_classify_matches_oracle():
    rng = random.Random(41)
    shapes = [random_shape(rng) for _ in range(300)]
    shapes += [shape_of(name) for name in corpus.names()]
    labels = set()
    for shape in shapes:
        basis = build_basis(shape)
        got = classify_diagram(basis)
        assert "gram" not in basis.__dict__
        assert got == classify_gram(basis.gram) == _oracle_classify(basis.gram)
        labels.update(got[0].split(" + "))
    for _ in range(400):
        gram = random_graph_gram(rng)
        got = classify_rows(gram)
        assert got == classify_gram(gram) == _oracle_classify(gram)
        labels.update(got[0].split(" + "))
    assert {"A1(1)", "A2(1)", "A3(1)", "D4(1)", "unrecognized"} <= labels


def test_classify_matches_the_gram_walk_on_the_bench_shapes():
    sizes = []
    for shape in bench_lattice_shapes():
        basis = build_basis(shape)
        assert classify_diagram(basis) == classify_gram(basis.gram)
        sizes.append(len(basis.nodes))
    assert max(sizes) > 1000


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
            support = support_tuples(a)
            defects = {t: a.defect(t) for t in support}
            best = min(defects.values())
            assert best <= 0
            tau = min(t for t, d in defects.items() if d == best)
            assert min(canonical_lift(a, tau).coords) >= 0
            checked += 1
        assert checked > 10


# -- root classification ------------------------------------------------------------------


def test_root_verdict_examples():
    assert reduce_vector(m_of("Gauss")).verdict is Verdict.REAL_ROOT
    assert reduce_vector(m_of("Heun")).verdict is Verdict.IMAGINARY_ROOT


def test_root_verdict_matches_orbit_search():
    # modified multiplicity vector from the 5-node star shape; the oracle
    # explores the orbit exhaustively within a box
    shape = shape_of("Heun")
    a = LatticeVector(shape, [[[3, 1]], [[2, 2]], [[2, 2]], [[2, 2]]])
    verdict = reduce_vector(a).verdict
    assert verdict is _orbit_search_oracle(a)
    assert verdict is Verdict.REAL_ROOT
    assert idx(a) == 2


def _orbit_search_oracle(a, bound=12):
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
