"""The paper's theorem as a property of random operators: if P is
irreducible, m(P) is a root.  So every operator whose formal data
``analyze`` extracts must get the verdict ``RealRoot`` or
``ImaginaryRoot`` from the reduction of m, or else be reducible.

The generator draws operators of rank 2-4 whose leading coefficient is a
product of (x - c)^e over 1-3 points c of ``POINTS``, e <= 2 rank, and
whose lower coefficients hold up to three random rational monomials, of
degree capped so that infinity is at most of slope 1.  An operator
without a D^0 term is D times something on the right, so reducible, and
is skipped.  Each ``NotRoot`` drawn must be a known product ``REDUCIBLE``:
its two first-order factors, found by hand, multiply back to it exactly.
Each ``RealRoot`` drawn is reduced on the operator itself: it must reach
rank 1, or stop at a genericity hypothesis the instance breaks, and never
fail a cross-check.
"""

import random
from fractions import Fraction

from irrkatz import formal
from irrkatz.formal import ExtractionError
from irrkatz.reduce import AssumptionViolatedError, reduce_operator, reduce_vector
from irrkatz.rootsys import Verdict
from irrkatz.weylalg import IrrationalSingularityError, parse, prim

POINTS = tuple(map(Fraction, (0, 1, -1, 2, -2, 3))) + (Fraction(1, 2),)

#: The seed and the number of texts drawn: about 3 s.
SEED, DRAWS = 2, 1500

#: Operator text -> (left, right): the operator is prim(left * right).  The
#: first is the one ``NotRoot`` of ``SEED``; the generator drew the last two
#: at seed 3, past 5000 texts, and the second is the example of ROADMAP
#: item 16.
REDUCIBLE = {
    # y = x is a solution
    "(x - (0))^3*(x - (1))^1*D^2 + ((-2)*x^1)*D^0 + ((2)*x^2)*D^1":
        ("x^2*(x - 1)*D + 2*x", "x*D - 1"),
    # theta = (x - 1) D: (theta - 2)(theta + 2/3)
    "(x - 1)^2*D^2 + (1/3 - 1/3*x)*D - 4/3": ("(x - 1)*D - 2", "(x - 1)*D + 2/3"),
    # q = (x - 1/2)(x + 2): q^2 D^2 + 1 = (q D - x - 3/2)(q D - x)
    "(x - (1/2))^2*(x - (-2))^2*D^2 + ((1)*x^0)*D^0":
        ("(x - 1/2)*(x + 2)*D - x - 3/2", "(x - 1/2)*(x + 2)*D - x"),
    # y = x is a solution
    "(x - (0))^3*D^2 + ((-1)*x^0)*D^0 + ((1)*x^1)*D^1": ("x^2*D + 1", "x*D - 1"),
}


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def random_operator_text(rng: random.Random) -> str:
    rank = rng.randint(2, 4)
    points = rng.sample(POINTS, rng.randint(1, 3))
    powers = [rng.randint(1, 2 * rank) for _ in points]
    lead = "*".join(f"(x - ({c}))^{e}" for c, e in zip(points, powers))
    slack = rng.randint(0, 1)
    terms = [f"{lead}*D^{rank}"]
    for i in range(rank):
        cap = max(0, sum(powers) - rank + i + slack)
        monomials = {rng.randint(0, cap): _rational(rng) for _ in range(rng.randint(1, 3))}
        body = " + ".join(f"({v})*x^{k}" for k, v in monomials.items() if v)
        if body:
            terms.append(f"({body})*D^{i}")
    return " + ".join(terms)


def test_reducible_examples_are_their_products():
    for text, (left, right) in REDUCIBLE.items():
        assert prim(parse(left) * parse(right)) == prim(parse(text)), text


def test_accepted_random_operators_are_roots_or_reducible():
    rng = random.Random(SEED)
    verdicts = {verdict: 0 for verdict in Verdict}
    refused = skipped = 0
    irregular = 0  # accepted operators with a nonzero exponential factor at 1/2
    reduced = violated = 0  # RealRoot draws reduced to rank 1, or stopped by a hypothesis
    for _ in range(DRAWS):
        text = random_operator_text(rng)
        p = parse(text)
        if not p._rows[0]:
            skipped += 1
            continue
        try:
            data = formal.extract_formal_data(p)
        except (ExtractionError, IrrationalSingularityError):
            refused += 1
            continue
        irregular += any(not w.is_zero() for at, factors in data.points if at == Fraction(1, 2)
                         for w, _ in factors)
        verdict = reduce_vector(formal.m_vector(data)).verdict
        verdicts[verdict] += 1
        if verdict is Verdict.NOT_ROOT:
            assert text in REDUCIBLE, text
            left, right = REDUCIBLE[text]
            assert prim(parse(left) * parse(right)) == prim(p), text
        if verdict is Verdict.REAL_ROOT:
            try:
                result = reduce_operator(p, data=data)
            except AssumptionViolatedError:
                violated += 1
            else:
                assert result.final.rank == 1, text
                reduced += 1
    # both ends of a reduction occur: rank 1 reached, and a resonant instance
    assert reduced >= 1 and violated >= 1, (reduced, violated)
    assert verdicts[Verdict.IMAGINARY_ROOT] > 150 and verdicts[Verdict.REAL_ROOT] >= 5, verdicts
    assert verdicts[Verdict.NOT_ROOT] >= 1 and refused > 500 and skipped > 20
    # irregular points off the integers: extraction peeled a factor at 1/2
    assert irregular >= 1, irregular
