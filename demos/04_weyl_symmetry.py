"""The Weyl-group action behind the twisted Euler transform.

Three experiments on the confluent Heun configuration:

1. the lattice surjection intertwines reflections with the twisted-Euler
   moves and slot permutations (checked on random vectors);
2. the multiplicity vector is fixed while the exponents move, and the
   Fuchs relation is preserved symbolically along every move;
3. the exponent-space composite of two moves realizes its Coxeter order
   (here the biconfluent pair, coupling E = 1, order 3).
"""

import random

from irrkatz import (
    ExponentVector,
    ParamExpr,
    RootVector,
    act_sigma_t,
    build_basis,
    coxeter_order,
    exponent_vector,
    fuchs_defect,
    m_vector,
    phi,
    reflect,
    to_shape,
)
from irrkatz.formal import fuchs_defect_of
from irrkatz import corpus

sym = corpus.symbolic_formal_data("cHeun")
shape = to_shape(sym)
basis = build_basis(shape)
print("confluent Heun shape: chain lengths", shape.chain_lengths)

rng = random.Random(0)
checked = 0
for _ in range(100):
    alpha = RootVector(basis, [rng.randint(-5, 5) for _ in basis.nodes])
    image = phi(alpha)
    for kind, payload in basis.nodes:
        reflected = phi(reflect(alpha, (kind, payload)))
        expected = (
            image.sigma_t(payload) if kind == "t" else image.sigma_perm(*payload)
        )
        assert reflected == expected
        checked += 1
print(f"equivariance checked on {checked} (vector, generator) pairs")

m = m_vector(sym)
nu = exponent_vector(sym)
print("Fuchs defect of the symbolic table:", fuchs_defect(sym))
for t in shape.index_tuples():
    assert m.sigma_t(t) == m
    moved = act_sigma_t(nu, t)
    assert moved != nu
    assert fuchs_defect_of(m, moved).is_zero()
print("every move fixes the multiplicities, moves the exponents,")
print("and preserves the Fuchs relation symbolically")

bshape = to_shape(corpus.symbolic_formal_data("bHeun"))
t1, t2 = bshape.index_tuples()
order = coxeter_order(bshape, t1, t2)
print(f"biconfluent pair: coupling order {order}")
nu_b = ExponentVector(
    bshape,
    [
        [[ParamExpr.param("p")], [ParamExpr.param("q")]],
        [[ParamExpr.param("r"), ParamExpr.param("s")]],
    ],
)
cur = nu_b
for step in range(1, order + 1):
    cur = act_sigma_t(act_sigma_t(cur, t1), t2)
    print(f"  after {step} composite move(s): returned = {cur == nu_b}")
