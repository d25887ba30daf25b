"""The protocol of the immutable value classes: no field can be assigned
or deleted and no other attribute added, equal values compare and hash
equal, and a lattice vector never equals an exponent vector."""

from fractions import Fraction

import pytest

from irrkatz import corpus, formal, rootsys, weylalg
from irrkatz.exponents import ExponentVector
from irrkatz.scalar import ParamExpr
from oracles import scaled


def _root(node):
    basis = rootsys.build_basis(formal.to_shape(corpus.symbolic_formal_data("Heun")))
    return rootsys.RootVector.unit(basis, node)


#: name -> (builder of a fresh value, builder of a different value)
VALUES = {
    "DiffOperator": (
        lambda: weylalg.parse("x*D^2 + (1/13 - x)*D - 1/7"),
        lambda: weylalg.parse("x*D^2 + (1/13 - x)*D - 1/5"),
    ),
    "ExponentialFactor": (
        lambda: formal.ExponentialFactor(Fraction(1), {2: Fraction(1, 3), 1: 2}),
        lambda: formal.ExponentialFactor(weylalg.INF, {2: Fraction(1, 3), 1: 2}),
    ),
    "SpectralData": (
        lambda: formal.SpectralData([(Fraction(1, 3), 2), (ParamExpr(0, {"a": 1}), 1)]),
        lambda: formal.SpectralData([(Fraction(1, 3), 2), (ParamExpr(0, {"b": 1}), 1)]),
    ),
    "FormalData": (
        lambda: formal.extract_formal_data(corpus.instantiate("Gauss")),
        lambda: corpus.symbolic_formal_data("Gauss"),
    ),
    "LatticeVector": (
        lambda: formal.m_vector(corpus.symbolic_formal_data("Heun")),
        lambda: scaled(formal.m_vector(corpus.symbolic_formal_data("Heun")), 2),
    ),
    "ExponentVector": (
        lambda: formal.exponent_vector(corpus.symbolic_formal_data("Heun")),
        lambda: formal.exponent_vector(corpus.symbolic_formal_data("Heun")).swap_slots(0, 0, 0),
    ),
    "RootVector": (
        lambda: _root(("t", (0, 0, 0, 0))),
        lambda: _root(("c", (0, 0, 0))),
    ),
}


def _slot_names(value):
    return [name for cls in type(value).__mro__ for name in getattr(cls, "__slots__", ())]


@pytest.mark.parametrize("name", sorted(VALUES))
def test_fields_cannot_be_set_or_deleted_nor_names_added(name):
    make, _ = VALUES[name]
    value = make()
    fields = _slot_names(value)
    assert fields
    for field in fields + ["unknown"]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == make() and not hasattr(value, "unknown")


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_values_compare_and_hash_equal(name):
    make, make_other = VALUES[name]
    a, b, other = make(), make(), make_other()
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != other and not a == other and len({a, other}) == 2


def test_lattice_and_exponent_vectors_never_compare_equal():
    # the same shape and integer entries, which ParamExpr compares equal
    m = formal.m_vector(corpus.symbolic_formal_data("Heun"))
    nu = ExponentVector(m.shape, m.entries)
    assert nu.entries == m.entries
    assert m != nu and nu != m and not m == nu and len({m, nu}) == 2
