import random
from itertools import product

import pytest

from irrkatz import corpus, formal, rootsys
from irrkatz.lattice import LatticeShape, LatticeVector, in_fundamental_domain
from oracles import form, rank_one, support_tuples


def shape_of(name):
    return formal.to_shape(corpus.symbolic_formal_data(name))


def m_of(name):
    return formal.m_vector(corpus.symbolic_formal_data(name))


def test_shape_validation():
    with pytest.raises(ValueError):
        LatticeShape(((1, 1),), (((0, 0), (0, 0)),))     # zero off-diagonal
    with pytest.raises(ValueError):
        LatticeShape(((1, 1),), (((0, -1), (-2, 0)),))   # asymmetric
    shape = LatticeShape(((1, 1),), (((0, -3), (-3, 0)),))
    assert shape.p == 0
    assert shape.index_tuples() == ((0,), (1,))


def test_vector_block_sums():
    shape = shape_of("Heun")
    with pytest.raises(ValueError):
        LatticeVector(shape, [[[1, 1]], [[1, 1]], [[1, 0]], [[1, 1]]])
    m = m_of("Heun")
    assert m.rank == 2
    assert LatticeVector.zero(shape).rank == 0
    assert m_of("Gauss").rank == 2


def test_defect_examples():
    assert m_of("Heun").defect((0, 0, 0, 0)) == 0
    assert m_of("Gauss").defect((0, 0, 0)) == -1
    tri = m_of("tHeun")
    assert tri.defect((0,)) == 0
    assert tri.defect((1,)) == 0


def test_sigma_t_examples():
    gauss = m_of("Gauss")
    image = gauss.sigma_t((0, 0, 0))
    assert image.to_text() == "0,1|0,1|0,1"
    assert image.rank == 1
    heun = m_of("Heun")
    assert heun.sigma_t((0, 0, 0, 0)) == heun


def test_sigma_t_involutive_and_rank_change():
    rng = random.Random(20)
    for name in corpus.names():
        shape = shape_of(name)
        for _ in range(20):
            a = random_vector(rng, shape)
            for t in shape.index_tuples():
                image = a.sigma_t(t)
                assert image.sigma_t(t) == a
                assert image.rank == a.rank + a.defect(t)


def test_sigma_perm_examples():
    shape = shape_of("Heun")
    a = LatticeVector(shape, [[[2, 1]], [[1, 2]], [[3, 0]], [[2, 1]]])
    b = a.sigma_perm(1, 0, 0)
    assert b.entries[1][0] == (2, 1)
    assert b.sigma_perm(1, 0, 0) == a
    assert b.rank == a.rank
    with pytest.raises(IndexError):
        a.sigma_perm(0, 0, 1)


def test_support_tuples():
    heun = m_of("Heun")
    assert support_tuples(heun) == ((0, 0, 0, 0),)
    assert support_tuples(LatticeVector.zero(shape_of("Heun"))) == ()
    dshape = shape_of("dHeun")
    a = LatticeVector(dshape, [[[1], [0]], [[1], [0]]])
    assert support_tuples(a) == ((0, 0),)
    b = LatticeVector(dshape, [[[1], [1]], [[2], [0]]])
    assert support_tuples(b) == ((0, 0), (1, 0))


def test_text_round_trip():
    shape = shape_of("dHeun")
    a = LatticeVector(shape, [[[3], [1]], [[2], [2]]])
    assert a.to_text() == "3;1|2;2"


def test_fundamental_domain():
    assert in_fundamental_domain(m_of("Heun"))
    assert in_fundamental_domain(m_of("Heun").scale(2))
    assert not in_fundamental_domain(m_of("Gauss"))          # defect -1
    assert not in_fundamental_domain(LatticeVector.zero(shape_of("Heun")))
    shape = shape_of("Heun")
    unsorted = LatticeVector(shape, [[[1, 2]], [[1, 2]], [[1, 2]], [[1, 2]]])
    assert not in_fundamental_domain(unsorted)


# -- the per-point defect shares against the full-product search -----------------


def _oracle_defect(a, t):
    """The per-block defect loop over the whole tuple t."""
    total = 0
    for i, point in enumerate(a.entries):
        for j, chain in enumerate(point):
            total += ((1 if i else -1) - a.shape.weights[i][j][t[i]]) * sum(chain)
        total -= point[t[i]][0]
    return total


def _oracle_in_fundamental_domain(a):
    if a.is_zero() or not a.is_nonnegative():
        return False
    if any(list(ch) != sorted(ch, reverse=True) for point in a.entries for ch in point):
        return False
    return all(_oracle_defect(a, t) >= 0 for t in a.shape.index_tuples())


def random_shape(rng, equal_rows=False):
    """1-5 points, 1-4 factors per point, chains of length 1-3; with
    ``equal_rows`` every weight is -1, so factors of a point tie."""
    factors = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
    tables = []
    for k in factors:
        table = [[0] * k for _ in range(k)]
        for j in range(k):
            for j2 in range(j + 1, k):
                table[j][j2] = table[j2][j] = -1 if equal_rows else rng.choice((-1, -2, -3))
        tables.append(tuple(tuple(row) for row in table))
    chain_lengths = tuple(tuple(rng.randint(1, 3) for _ in range(k)) for k in factors)
    return LatticeShape(chain_lengths, tuple(tables))


def mixed_vector(rng, shape):
    """A random vector with, at some points, two units moved from one slot
    to another: unsorted chains and negative entries, equal block sums."""
    a = random_vector(rng, shape)
    entries = [[list(ch) for ch in point] for point in a.entries]
    for i, lens in enumerate(shape.chain_lengths):
        if rng.random() < 0.5:
            slots = [(j, s) for j, l in enumerate(lens) for s in range(l)]
            (j, s), (j2, s2) = rng.choice(slots), rng.choice(slots)
            entries[i][j][s] -= 2
            entries[i][j2][s2] += 2
    return LatticeVector(shape, entries)


def sorted_vector(a):
    return LatticeVector(
        a.shape, [[sorted(ch, reverse=True) for ch in point] for point in a.entries]
    )


def oracle_cases(seed, count):
    rng = random.Random(seed)
    shapes = [shape_of(name) for name in corpus.names()]
    shapes += [random_shape(rng, equal_rows=k % 3 == 0) for k in range(count)]
    for shape in shapes:
        for _ in range(4):
            a = random_vector(rng, shape, max_rank=6)
            yield from (a, sorted_vector(a), mixed_vector(rng, shape))
        yield LatticeVector.zero(shape)


def test_point_defects_sum_to_the_full_tuple_defect():
    for a in oracle_cases(70, 40):
        shares = a.point_defects()
        assert tuple(product(*a.support_factors())) == support_tuples(a)
        for t in a.shape.index_tuples():
            assert sum(g[k] for g, k in zip(shares, t)) == _oracle_defect(a, t) == a.defect(t)


def test_fundamental_domain_matches_full_product_search():
    outcomes = set()
    for a in oracle_cases(71, 60):
        got = in_fundamental_domain(a)
        assert got == _oracle_in_fundamental_domain(a), a
        outcomes.add((got, a.is_nonnegative()))
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_tuples_off_the_support_have_nonnegative_defect():
    # For a nonnegative vector of rank n, a factor with zero block has share
    # sum_j (1 - w_i[j][k]) B_ij >= 2n at a finite point and >= 0 at infinity,
    # while any share is >= 0 at a finite point and >= -2n at infinity.  So
    # the reduction, which minimizes over all factors, picks support tuples.
    checked = 0
    for a in oracle_cases(73, 60):
        if a.is_nonnegative():
            support = set(support_tuples(a))
            for t in a.shape.index_tuples():
                if t not in support:
                    assert _oracle_defect(a, t) >= 0
                    checked += 1
    assert checked > 1000


def rank_zero_vector(rng, shape):
    """Random entries in -3..3, every block sum made zero at the first slot."""
    entries = []
    for lens in shape.chain_lengths:
        point = [[rng.randint(-3, 3) for _ in range(l)] for l in lens]
        point[0][0] -= sum(map(sum, point))
        entries.append(point)
    return LatticeVector(shape, entries)


def test_form_matches_the_block_sum_oracle():
    rng = random.Random(74)
    shape = None
    shapes = with_units = 0
    for a in oracle_cases(74, 100):
        if a.shape is not shape:
            shape = a.shape
            shapes += 1
            tuples = shape.index_tuples()
            # every tuple, on the shapes with at most 48 of them
            units = {t: rank_one(shape, t) for t in tuples} if len(tuples) <= 48 else {}
            with_units += bool(units)
        zero_rank = rank_zero_vector(rng, shape)
        for b in (a, zero_rank, random_vector(rng, shape), mixed_vector(rng, shape)):
            assert a.form(b) == form(shape, a, b) == b.form(a)
        assert a.form(a) == rootsys.idx(a)
        assert zero_rank.form(zero_rank) == rootsys.idx(zero_rank)
        for t, unit in units.items():
            assert a.form(unit) == -a.defect(t) == unit.form(a)
    assert shapes > 100 and with_units > 80


def test_idx_lifts_from_the_first_support_tuple(monkeypatch):
    taus = []
    lift = rootsys.canonical_lift
    monkeypatch.setattr(rootsys, "canonical_lift", lambda a, tau: taus.append(tau) or lift(a, tau))
    cases = list(oracle_cases(72, 20))
    heun = shape_of("Heun")
    cases.append(LatticeVector(heun, [[[1, -1]], [[0, 0]], [[2, -2]], [[0, 0]]]))
    for a in cases:
        rootsys.idx(a)
        support = support_tuples(a)
        assert taus.pop() == (support[0] if support else (0,) * a.shape.num_points)


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
