import random

import pytest

from irrkatz import corpus, formal
from irrkatz.lattice import LatticeShape, LatticeVector, in_fundamental_domain


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
    assert heun.support_tuples() == ((0, 0, 0, 0),)
    assert LatticeVector.zero(shape_of("Heun")).support_tuples() == ()
    dshape = shape_of("dHeun")
    a = LatticeVector(dshape, [[[1], [0]], [[1], [0]]])
    assert a.support_tuples() == ((0, 0),)
    b = LatticeVector(dshape, [[[1], [1]], [[2], [0]]])
    assert b.support_tuples() == ((0, 0), (1, 0))


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
