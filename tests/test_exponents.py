import random
from fractions import Fraction

import pytest

from irrkatz import corpus, formal
from irrkatz.exponents import (
    INFINITE_ORDER,
    ExponentVector,
    act_sigma_perm,
    act_sigma_t,
    coxeter_order,
    mu_sequence,
    pair_coupling,
)
from irrkatz.formal import fuchs_defect_of
from irrkatz.lattice import LatticeShape
from irrkatz.scalar import ParamExpr
from oracles import block_sum, form, node_pairing, rank_one, scaled


def shape_of(name):
    return formal.to_shape(corpus.symbolic_formal_data(name))


def symbolic_nu(shape, prefix="n"):
    """Fresh parameter per slot: fully generic exponents."""
    entries = [
        [
            [ParamExpr.param(f"{prefix}{i}_{j}_{s}") for s in range(l)]
            for j, l in enumerate(lens)
        ]
        for i, lens in enumerate(shape.chain_lengths)
    ]
    return ExponentVector(shape, entries)


def two_factor_shape(degree):
    """One point, two factors whose difference has the given degree."""
    return LatticeShape(((1, 1),), (((0, -degree), (-degree, 0)),))


# -- the affine action -----------------------------------------------------------


def test_act_sigma_t_involutive_symbolically():
    for name in corpus.names():
        shape = shape_of(name)
        nu = symbolic_nu(shape)
        for t in shape.index_tuples():
            assert act_sigma_t(act_sigma_t(nu, t), t) == nu


def test_act_sigma_t_fixed_point():
    shape = shape_of("Heun")
    entries = [[[Fraction(1), ParamExpr.param("u")]]] + [
        [[Fraction(0), ParamExpr.param(f"v{i}")]] for i in range(3)
    ]
    nu = ExponentVector(shape, entries)
    assert nu.tuple_sum((0, 0, 0, 0)) == ParamExpr(1)
    assert act_sigma_t(nu, (0, 0, 0, 0)) == nu


def test_act_sigma_t_heun_keeps_fuchs():
    data = corpus.symbolic_formal_data("Heun")
    shape = formal.to_shape(data)
    nu = formal.exponent_vector(data)
    m = formal.m_vector(data)
    t = (0, 0, 0, 0)
    assert nu.tuple_sum(t) == ParamExpr.param("a")
    image = act_sigma_t(nu, t)
    assert fuchs_defect_of(m.sigma_t(t), image).is_zero()


def test_act_sigma_perm():
    shape = shape_of("Heun")
    nu = symbolic_nu(shape)
    swapped = act_sigma_perm(nu, 1, 0, 0)
    assert swapped.slot(1, 0, 0) == nu.slot(1, 0, 1)
    assert act_sigma_perm(swapped, 1, 0, 0) == nu
    with pytest.raises(IndexError):
        act_sigma_perm(nu, 0, 0, 5)


def test_perm_commutes_with_sigma_t_away_from_its_block():
    # swapping inside a factor not chosen by t and not at slot 0 commutes
    shape = shape_of("cHeun")
    nu = symbolic_nu(shape)
    t = (0, 0, 0)
    a = act_sigma_perm(act_sigma_t(nu, t), 1, 0, 0)
    b = act_sigma_t(act_sigma_perm(nu, 1, 0, 0), t)
    # slot (1,0,0) is the chosen factor's first slot, so these differ
    assert a != b
    # a swap in a *different* factor block at infinity commutes
    shape2 = LatticeShape(((1, 2), (1,)), (((0, -1), (-1, 0)), ((0,),)))
    nu2 = symbolic_nu(shape2)
    t2 = (0, 0)
    left = act_sigma_perm(act_sigma_t(nu2, t2), 0, 1, 0)
    right = act_sigma_t(act_sigma_perm(nu2, 0, 1, 0), t2)
    assert left == right


# -- Coxeter orders ----------------------------------------------------------------


def test_pair_coupling_examples():
    dshape = shape_of("dHeun")
    assert pair_coupling(dshape, (0, 0), (1, 1)) == 2      # fully differing
    assert pair_coupling(dshape, (0, 0), (0, 1)) == 0      # share one slot
    bshape = shape_of("bHeun")
    assert pair_coupling(bshape, (0, 0), (1, 0)) == 1


def test_coxeter_order_table():
    for degree, order in [(1, 2), (2, 3), (3, 4), (4, 6)]:
        shape = two_factor_shape(degree)
        assert coxeter_order(shape, (0,), (1,)) == order
    assert coxeter_order(two_factor_shape(5), (0,), (1,)) == INFINITE_ORDER
    assert coxeter_order(shape_of("dHeun"), (0, 0), (1, 1)) == 4
    assert coxeter_order(shape_of("dHeun"), (0, 0), (0, 1)) == 2
    assert coxeter_order(shape_of("bHeun"), (0, 0), (1, 0)) == 3


def test_mu_sequence_partial_sums_vanish_exactly_at_low_orders():
    for degree, order in [(1, 2), (2, 3)]:
        shape = two_factor_shape(degree)
        t, t2 = (0,), (1,)
        assert coxeter_order(shape, t, t2) == order
        nu = symbolic_nu(shape)
        seq = mu_sequence(shape, t, t2, nu, order)
        for m in range(1, order):
            partial_t = sum((mu for mu, _ in seq[:m]), ParamExpr(0))
            partial_t2 = sum((mu2 for _, mu2 in seq[:m]), ParamExpr(0))
            assert not partial_t.is_zero()
            assert not partial_t2.is_zero()
        total_t = sum((mu for mu, _ in seq), ParamExpr(0))
        total_t2 = sum((mu2 for _, mu2 in seq), ParamExpr(0))
        assert total_t.is_zero()
        assert total_t2.is_zero()


def test_mu_sequence_never_vanishes_for_high_coupling():
    # the claimed finite orders 4 and 6 at E = 2, 3 are not realized: for
    # a symmetric pairing the product of Cartan integers is E^2, so the
    # composite is infinite-order as soon as E >= 2 and the shift sums
    # never return to zero (see decisions ledger / acceptance notes)
    for degree in (3, 4, 5):
        shape = two_factor_shape(degree)
        nu = symbolic_nu(shape)
        seq = mu_sequence(shape, (0,), (1,), nu, 12)
        for m in range(1, 13):
            assert not sum((mu for mu, _ in seq[:m]), ParamExpr(0)).is_zero()


def test_composite_action_realizes_low_orders_exactly():
    for degree, order in [(1, 2), (2, 3)]:
        shape = two_factor_shape(degree)
        t, t2 = (0,), (1,)
        nu = symbolic_nu(shape)
        cur = nu
        for step in range(1, order + 1):
            cur = act_sigma_t(act_sigma_t(cur, t), t2)
            if step < order:
                assert cur != nu, (degree, step)
        assert cur == nu


def test_composite_action_high_coupling_keeps_moving():
    # E >= 2: the composite has unipotent linear part and never returns
    for degree in (3, 4, 5):
        shape = two_factor_shape(degree)
        nu = symbolic_nu(shape)
        cur = nu
        for _ in range(12):
            cur = act_sigma_t(act_sigma_t(cur, (0,)), (1,))
            assert cur != nu


# -- Fuchs compatibility on randomized shapes ------------------------------------------


def random_shape(rng, max_factors=2, max_length=2):
    num_points = rng.randint(1, 3)
    lengths = []
    weights = []
    for i in range(num_points):
        k = rng.randint(1, max_factors)
        lengths.append(tuple(rng.randint(1, max_length) for _ in range(k)))
        table = [[0] * k for _ in range(k)]
        for a in range(k):
            for b in range(a + 1, k):
                table[a][b] = table[b][a] = -rng.randint(1, 3)
        weights.append(tuple(tuple(row) for row in table))
    return LatticeShape(tuple(lengths), tuple(weights))


def test_fuchs_defect_transforms_proportionally():
    # the defect is affine in the exponents and the joint move maps the
    # zero locus to the zero locus, so the transformed defect must be an
    # exact rational multiple of the original
    rng = random.Random(40)
    tested = 0
    for _ in range(50):
        shape = random_shape(rng)
        nu = symbolic_nu(shape)
        m = random_balanced(rng, shape)
        base = fuchs_defect_of(m, nu)
        if base.is_zero():
            continue
        for t in shape.index_tuples():
            moved = fuchs_defect_of(m.sigma_t(t), act_sigma_t(nu, t))
            ratio = None
            for name, coeff in base.terms.items():
                ratio = moved.terms.get(name, Fraction(0)) / coeff
                break
            assert ratio is not None
            assert moved == base * ratio, (shape, t)
            tested += 1
    assert tested > 40


def random_balanced(rng, shape, max_rank=4):
    from irrkatz.lattice import LatticeVector

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


def _fuchs_defect_oracle(shape, m, nu):
    """The defect as it was written before the one-pass form: a triple
    loop over the slots and over the ordered pairs of distinct factors."""
    n = m.rank
    total = ParamExpr(0)
    for i in range(shape.num_points):
        for j in range(shape.factor_count(i)):
            for s in range(shape.chain_lengths[i][j]):
                ms = m.entries[i][j][s]
                lam = nu.entries[i][j][s]
                total = total + Fraction(ms, 2) * (2 * lam + (ms - 1))
        for j in range(shape.factor_count(i)):
            for j2 in range(shape.factor_count(i)):
                if j == j2:
                    continue
                total = total + Fraction(
                    shape.weights[i][j][j2] * block_sum(m, i, j) * block_sum(m, i, j2), 2
                )
    total = total - Fraction((shape.p + 1) * n * (n - 1), 2)
    return total + n * (n - 1)


def test_fuchs_defect_matches_the_triple_loop_oracle():
    rng = random.Random(41)
    shapes = [shape_of(name) for name in corpus.names()]
    shapes += [random_shape(rng, max_factors=4, max_length=3) for _ in range(200)]
    for shape in shapes:
        nu = ExponentVector(shape, [
            [
                [
                    ParamExpr(
                        Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                        {f"n{i}_{j}_{s}": rng.choice((0, 1, -2, Fraction(1, 3)))},
                    )
                    for s in range(l)
                ]
                for j, l in enumerate(lens)
            ]
            for i, lens in enumerate(shape.chain_lengths)
        ])
        m = random_balanced(rng, shape)
        for vec in (m, scaled(m, -1), scaled(m, 3), m.sigma_t(shape.index_tuples()[0])):
            assert fuchs_defect_of(vec, nu) == _fuchs_defect_oracle(shape, vec, nu)


# -- one bilinear form behind defect, pair_coupling, idx and act_sigma_t -------------


def act_sigma_t_reference(nu, t):
    """The four-branch form of the exponent action: infinity and the finite
    points apart, the chosen first slot apart from the others."""
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


def form_shape(rng):
    num_points = rng.randint(1, 4)
    lengths, weights = [], []
    for _ in range(num_points):
        k = rng.randint(1, 3)
        lengths.append(tuple(rng.randint(1, 3) for _ in range(k)))
        table = [[0] * k for _ in range(k)]
        for a in range(k):
            for b in range(a + 1, k):
                table[a][b] = table[b][a] = -rng.randint(1, 3)
        weights.append(tuple(tuple(row) for row in table))
    return LatticeShape(tuple(lengths), tuple(weights))


def test_defect_coupling_idx_and_action_come_from_one_form():
    from irrkatz.rootsys import idx

    rng = random.Random(6)
    pairs = idx_checked = 0
    for _ in range(150):
        shape = form_shape(rng)
        tuples = shape.index_tuples()
        if len(tuples) > 36:
            continue
        m = random_balanced(rng, shape)
        nu = symbolic_nu(shape)
        e = {t: rank_one(shape, t) for t in tuples}
        for t in tuples:
            assert m.defect(t) == -form(shape, m, e[t]), (shape, m, t)
            assert act_sigma_t(nu, t) == act_sigma_t_reference(nu, t), (shape, t)
            for t2 in tuples:
                expected = -node_pairing(shape, ("t", t), ("t", t2))
                assert pair_coupling(shape, t, t2) == expected == -form(shape, e[t], e[t2])
                pairs += 1
        if len(tuples) <= 12:
            assert idx(m) == form(shape, m, m), (shape, m)
            idx_checked += 1
    assert pairs > 5000 and idx_checked > 50
