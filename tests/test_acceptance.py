"""Acceptance suite: one test per criterion, one pass/fail line each.

All checks are exact (integer or symbolic equality); nothing is
tolerance-based.  Run with ``pytest tests/test_acceptance.py -s`` to see
the per-criterion lines.

Criterion 6 is asserted exactly as stated and is an expected, documented
failure for couplings E = 2, 3: the composite move on exponent space has
a unipotent linear part there and never closes up (the symmetric Cartan
product is E^2, which puts E >= 2 in the infinite-order regime), so the
claimed orders 4 and 6 are not attainable.  The low couplings E = 0, 1
realize their orders 2 and 3 exactly.
"""

import random
from fractions import Fraction

from irrkatz import corpus, formal
from irrkatz.exponents import (
    ExponentVector,
    act_sigma_t,
    coxeter_order,
    mu_sequence,
)
from irrkatz.formal import extract_formal_data, fuchs_defect, fuchs_defect_of
from irrkatz.lattice import LatticeShape, LatticeVector
from irrkatz.polys import Poly, falling_factorial
from irrkatz.reduce import reduce_operator, reduce_vector
from irrkatz.rootsys import (
    RootVector,
    Verdict,
    build_basis,
    canonical_lift,
    classify_diagram,
    idx,
    pairing,
    phi,
    reflect,
)
from irrkatz.scalar import ParamExpr
from irrkatz.weylalg import (
    D,
    INF,
    X,
    ad_power,
    char_poly,
    deg_of,
    newton_polygon,
    parse,
    prim,
    theta_expand,
)
from conftest import random_poly_op
from oracles import phi_matrix, rational_kernel

ZERO = Fraction(0)


def _report(number, description, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def shape_of(name):
    return formal.to_shape(corpus.symbolic_formal_data(name))


def m_of(name):
    return formal.m_vector(corpus.symbolic_formal_data(name))


def edge_multiplicities(basis):
    n = len(basis.nodes)
    return {
        (a, b): -basis.gram[a][b]
        for a in range(n)
        for b in range(a + 1, n)
        if basis.gram[a][b] < 0
    }


def test_criterion_1_heun():
    def body():
        basis = build_basis(shape_of("Heun"))
        label, _ = classify_diagram(basis)
        assert label == "D4(1)"
        edges = edge_multiplicities(basis)
        assert all(m == 1 for m in edges.values()) and len(edges) == 4
        degrees = sorted(
            sum(1 for (a, b) in edges if k in (a, b)) for k in range(5)
        )
        assert degrees == [1, 1, 1, 1, 4]
        m = m_of("Heun")
        lift = canonical_lift(m, (0, 0, 0, 0))
        assert lift.coords == (2, 1, 1, 1, 1)
        assert phi(lift) == m
        assert idx(m) == 0
        assert m.sigma_t((0, 0, 0, 0)) == m

    _report(1, "5-node star, preimage 2c_t + sum of chain nodes, idx 0, fixed", body)


def test_criterion_2_confluent_heun():
    def body():
        basis = build_basis(shape_of("cHeun"))
        label, _ = classify_diagram(basis)
        assert label == "A3(1)"
        edges = edge_multiplicities(basis)
        assert len(basis.nodes) == 4 and len(edges) == 4
        assert all(m == 1 for m in edges.values())
        degrees = [sum(1 for (a, b) in edges if k in (a, b)) for k in range(4)]
        assert degrees == [2, 2, 2, 2]
        delta = RootVector(basis, [1, 1, 1, 1])
        m = m_of("cHeun")
        assert phi(delta) == m
        for node in basis.nodes:
            assert reflect(delta, node) == delta
        assert idx(m) == 0

    _report(2, "4-cycle, delta = sum of all nodes, idx 0", body)


def test_criterion_3_remaining_confluences():
    def body():
        basis_b = build_basis(shape_of("bHeun"))
        edges_b = edge_multiplicities(basis_b)
        assert len(basis_b.nodes) == 3 and len(edges_b) == 3
        assert all(m == 1 for m in edges_b.values())
        assert classify_diagram(basis_b)[0] == "A2(1)"

        basis_t = build_basis(shape_of("tHeun"))
        assert basis_t.gram == ((2, -2), (-2, 2))
        assert classify_diagram(basis_t)[0] == "A1(1)"

        shape_d = shape_of("dHeun")
        basis_d = build_basis(shape_d)
        assert classify_diagram(basis_d)[0] == "A1(1) + A1(1)"
        edges_d = edge_multiplicities(basis_d)
        assert sorted(edges_d.values()) == [2, 2]
        (a1, b1), (a2, b2) = sorted(edges_d)
        assert {a1, b1} | {a2, b2} == {0, 1, 2, 3} and {a1, b1} & {a2, b2} == set()
        # rank-1 kernel pairing to zero with every node
        kernel = rational_kernel(phi_matrix(basis_d))
        assert len(kernel) == 1
        for row in basis_d.gram:
            assert sum(g * v for g, v in zip(row, kernel[0])) == 0

    _report(3, "triangle, double edge, two double edges with radical kernel", body)


def test_criterion_4_gauss_rigid_case():
    def body():
        m = m_of("Gauss")
        assert idx(m) == 2
        transcript = reduce_vector(m)
        assert transcript.verdict is Verdict.REAL_ROOT
        steps = transcript.euler_steps()
        assert len(steps) == 1 and steps[0].defect == -1
        op = corpus.instantiate(
            "Gauss",
            {"a": Fraction(1, 7), "b": Fraction(2, 11), "c": Fraction(3, 5)},
        )
        # every intermediate extraction is checked against the lattice and
        # exponent predictions inside the driver (it raises on mismatch)
        result = reduce_operator(op)
        assert result.final.rank == 1
        assert len(result.operators) == 1
        assert result.transcript.verdict is Verdict.REAL_ROOT

    _report(4, "idx 2, one twisted-Euler step of defect -1, operator rank 1", body)


def test_criterion_5_equivariance_suite():
    def body():
        rng = random.Random(105)
        total = 0
        for name in corpus.names():
            shape = shape_of(name)
            basis = build_basis(shape)
            for _ in range(40):
                alpha = RootVector(basis, [rng.randint(-5, 5) for _ in basis.nodes])
                image = phi(alpha)
                for node in basis.nodes:
                    kind, payload = node
                    reflected = phi(reflect(alpha, node))
                    if kind == "t":
                        assert reflected == image.sigma_t(payload)
                        unit = RootVector.unit(basis, node)
                        assert image.defect(payload) == -pairing(unit, alpha)
                    else:
                        assert reflected == image.sigma_perm(*payload)
                total += 1
        assert total == 240

    _report(5, "phi intertwines both generator families on 240 random vectors", body)


def test_criterion_6_coxeter_orders():
    def body():
        for coupling, order in [(0, 2), (1, 3), (2, 4), (3, 6)]:
            degree = coupling + 1
            shape = LatticeShape(
                ((1, 1),), (((0, -degree), (-degree, 0)),)
            )
            t, t2 = (0,), (1,)
            assert coxeter_order(shape, t, t2) == order
            nu = ExponentVector(
                shape, [[[ParamExpr.param("u")], [ParamExpr.param("v")]]]
            )
            seq = mu_sequence(shape, t, t2, nu, order)
            for m in range(1, order):
                partial = sum((mu for mu, _ in seq[:m]), ParamExpr(0))
                assert not partial.is_zero(), (coupling, m)
            total_t = sum((mu for mu, _ in seq), ParamExpr(0))
            total_t2 = sum((mu2 for _, mu2 in seq), ParamExpr(0))
            assert total_t.is_zero(), (
                f"E={coupling}: sum of first {order} shifts is {total_t}, not 0; "
                "the composite never closes up for E >= 2 (see decisions ledger)"
            )
            assert total_t2.is_zero()
            cur = nu
            for step in range(1, order + 1):
                cur = act_sigma_t(act_sigma_t(cur, t), t2)
                if step < order:
                    assert cur != nu
            assert cur == nu

    _report(6, "symbolic orders 2, 3, 4, 6 at couplings E = 0, 1, 2, 3", body)


def test_criterion_7_fuchs_suite():
    def body():
        for name in corpus.names():
            sym = corpus.symbolic_formal_data(name)
            assert fuchs_defect(sym).is_zero(), name
            assert fuchs_defect(extract_formal_data(corpus.instantiate(name))).is_zero()
            shape = formal.to_shape(sym)
            m = formal.m_vector(sym)
            nu = formal.exponent_vector(sym)
            for t in shape.index_tuples():
                assert fuchs_defect_of(
                    shape, m.sigma_t(t), act_sigma_t(nu, t)
                ).is_zero(), (name, t)

    _report(7, "zero defect on the corpus, preserved by every joint move", body)


def test_criterion_8_operator_engine_conformance():
    def body():
        rng = random.Random(108)
        # characteristic-polynomial shift under additions
        for _ in range(50):
            p = random_poly_op(rng)
            lam = Fraction(rng.randint(1, 9), rng.randint(2, 9))
            c = rng.choice([ZERO, Fraction(1)])
            assert char_poly(theta_expand(ad_power(p, c, lam), c)) == char_poly(
                theta_expand(p, c)
            ).shift(-lam)

        # divisibility pattern, both directions
        theta = X * D

        def poly_at(q):
            acc = parse("0")
            for coeff in reversed(q.coeffs):
                acc = acc * theta + coeff
            return acc

        def build(p0, p1, p2):
            return poly_at(p0) + X * poly_at(p1) + X * X * poly_at(p2)

        def divisible(op, s):
            from irrkatz.polys import RatFunc

            return all((c / RatFunc(Poly.x(s))).is_poly() for c in op.coeffs)

        good = build(falling_factorial(2), Poly([0, 1]), Poly([5]))
        assert divisible(good, 2)
        assert not divisible(build(Poly([0, 1]) * Poly([-2, 1]), Poly([0, 1]), Poly([5])), 2)
        assert not divisible(build(falling_factorial(2), Poly([1, 1]), Poly([5])), 2)

        # degree change under an addition targeting the second chain
        lam = Fraction(1, 3)
        p = prim(build(Poly([0, 1]) * Poly([-1, 1]) * Poly([-lam, 1]), Poly([0, 1]), Poly()))
        q = prim(ad_power(p, ZERO, -lam))
        assert deg_of(q) - deg_of(p) == 2 - 1

        # Newton-polygon degree and weight formulas on the whole corpus
        for name in corpus.names():
            op = corpus.instantiate(name)
            data = extract_formal_data(op)
            n = op.rank
            lead_deg = op.leading().as_poly().degree
            factors_inf = [(w.degree, s.rank) for w, s in data.factors(0)]
            assert deg_of(op) == lead_deg + sum(
                (d - 1) * r for d, r in factors_inf if d > 1
            )
            at_inf = theta_expand(op, INF)
            assert at_inf.min_index == n - lead_deg - sum(
                d * r for d, r in factors_inf if d >= 1
            )
            np = newton_polygon(at_inf)
            pairs = list(zip(np.vertices, np.slopes)) + [(np.vertices[-1], None)]
            a_vertex = next(
                v for k, (v, s) in enumerate(pairs)
                if all(s2 > 1 for s2 in np.slopes[k:])
            )
            assert deg_of(op) == a_vertex[0] - a_vertex[1]
            assert at_inf.min_index == np.vertices[0][1]

    _report(8, "shift, divisibility, degree and Newton-polygon identities", body)


def test_criterion_9_verdict_index_implications():
    def body():
        rng = random.Random(109)
        for name in corpus.names():
            shape = shape_of(name)
            vectors = [m_of(name)]
            for _ in range(100):
                rank = rng.randint(1, 6)
                entries = []
                for lens in shape.chain_lengths:
                    point = [[0] * l for l in lens]
                    for _ in range(rank):
                        j = rng.randrange(len(lens))
                        s = rng.randrange(lens[j])
                        point[j][s] += 1
                    entries.append(point)
                vectors.append(LatticeVector(shape, entries))
            for a in vectors:
                transcript = reduce_vector(a)
                if transcript.verdict is Verdict.REAL_ROOT:
                    assert idx(a) == 2, a.to_text()
                elif transcript.verdict is Verdict.IMAGINARY_ROOT:
                    assert idx(a) <= 0, a.to_text()
                assert transcript.replay() == transcript.final

    _report(9, "RealRoot implies idx 2, ImaginaryRoot implies idx <= 0 (606 runs)", body)
