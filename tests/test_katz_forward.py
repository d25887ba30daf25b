"""Katz's algorithm run forwards: random rigid irregular operators built
from the rank-1 operator ``D`` by the moves the reduction inverts.

Each round twists at 1-3 of the points of ``test_random_operators``
(``ad_exp_raw`` of order 1-2 with probability 0.3, then ``ad_power``),
twists at infinity with probability 0.3 (``ad_exp_raw`` of order 1), and
ends in ``prim(euler(p, mu))``.  The twists and the middle convolution keep rigidity and, for
generic parameters, irreducibility (Katz, *Rigid local systems*, 1996;
Dettweiler-Reiter, J. Symbolic Comput. 30, 2000; Arinkin, Compositio 146,
2010).  Each parameter is k/p with its own prime p from ``PRIMES``, so no
sum of distinct parameters with signs +-1 is an integer.

So every draw must be accepted by the extraction, its vector m must be a
real root with idx 2, and ``reduce_operator`` must bring it back to rank 1
in at most as many Euler steps as the draw took.  Unlike the Kummer
ladder and the Heun confluences, the draws have several irregular points,
finite and at infinity, and reductions of more than one step through them.
"""

import random
from fractions import Fraction
from functools import cache

from irrkatz import formal
from irrkatz.reduce import reduce_operator
from irrkatz.rootsys import Verdict, idx
from irrkatz.weylalg import INF, DiffOperator, ad_exp_raw, ad_power, euler, parse, prim
from test_random_operators import POINTS

PRIMES = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113)

#: The seed, the draws and the most rounds of one: about 2.5 s.
SEED, DRAWS, ROUNDS = 1, 300, 3

#: A draw is dropped as soon as its rank passes this.
MAX_RANK = 12


def forward_draw(rng: random.Random) -> tuple[DiffOperator, int] | None:
    """An operator built from ``D`` by 1 to ``ROUNDS`` rounds, and its
    number of Euler steps; None when its rank passes ``MAX_RANK`` or the
    primes run out."""
    primes = iter(rng.sample(PRIMES, len(PRIMES)))

    def param() -> Fraction:
        p = next(primes)
        return Fraction(rng.choice([k for k in range(1 - p, p) if k]), p)

    p = parse("D")
    try:
        for steps in range(1, rng.randint(1, ROUNDS) + 1):
            for c in rng.sample(POINTS, rng.randint(1, 3)):
                if rng.random() < 0.3:
                    p = ad_exp_raw(p, c, {j: param() for j in range(1, rng.randint(1, 2) + 1)})
                p = ad_power(p, c, param())
            if rng.random() < 0.3:
                p = ad_exp_raw(p, INF, {1: param()})
            p = prim(euler(p, param()))
            if p.rank > MAX_RANK:
                return None
    except StopIteration:
        return None
    return p, steps


@cache
def forward_draws() -> tuple[tuple[DiffOperator, int] | None, ...]:
    """The ``DRAWS`` draws from ``SEED``, in order: drawn once, and shared
    by the tests that read them."""
    rng = random.Random(SEED)
    return tuple(forward_draw(rng) for _ in range(DRAWS))


def test_forward_operators_reduce_back_to_rank_one():
    ranks, taken_counts, irregular = set(), set(), 0
    for k, draw in enumerate(forward_draws()):
        if draw is None or draw[0].rank == 1:
            continue
        p, steps = draw
        data = formal.extract_formal_data(p)
        assert idx(formal.m_vector(data)) == 2, (k, str(p))
        result = reduce_operator(p, data=data)
        assert result.transcript.verdict is Verdict.REAL_ROOT, (k, str(p))
        assert result.final.rank == 1, (k, str(p))
        taken = len(result.transcript.euler_steps())
        assert taken <= steps, (k, taken, steps, str(p))
        ranks.add(p.rank)
        taken_counts.add(taken)
        irregular += sum(any(not w.is_zero() for w, _ in factors) for _, factors in data.points) > 1
    # every rank from 2 to 12, reductions of one to three steps, and many
    # draws with more than one irregular point
    assert ranks == set(range(2, MAX_RANK + 1)), sorted(ranks)
    assert taken_counts == {1, 2, 3} and irregular >= 20, (taken_counts, irregular)
