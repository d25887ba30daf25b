"""The irregular reduction algorithm.

Lattice level: normalize chains to descending order, then repeatedly apply
the twisted-Euler move of most negative defect (lexicographically least
tuple on ties; it runs through the support, since no tuple through a
zero block has negative defect).  Each such move strictly decreases
the rank, so the loop ends at rank <= 1 (a real-root terminal), at a
stable sorted vector (an imaginary-root fundamental representative), or
leaves the nonnegative cone (not a root).

Operator level: replay the lattice transcript on a concrete operator,
one :func:`step` per move, which pairs the lattice move with its operator
move.  A slot swap moves the exponents only.  Each Euler step is one
conjugation around ``weylalg.euler``: twist the chosen factors to
exponential part and first exponent zero, transform, twist back.  Before the step the genericity hypotheses are read off the
shape's weights and the exponent slots, without building the twisted
operand's data.  After it the transformed operator is checked against
one predicted chain table (factor -> (exponent, multiplicity) chains at
every point), built from the lattice and exponent moves.  The check is an
extraction whose root searches try the predicted roots first, so a step
that keeps its prediction runs no p-adic root search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from . import formal, weylalg
from .exponents import ExponentVector, act_sigma_perm, act_sigma_t
from .formal import ExponentialFactor, FormalData, extract_formal_data
from .lattice import IndexTuple, LatticeVector
from .rootsys import Verdict
from .scalar import ParamExpr, ParamLike
from .weylalg import INF, DiffOperator, Location


class AssumptionViolatedError(Exception):
    """A genericity hypothesis of the twisted Euler step fails at the
    chosen instance (an integer resonance)."""


class CrossCheckError(Exception):
    """Operator-level invariants disagree with the lattice prediction."""


@dataclass(frozen=True)
class ReductionStep:
    kind: str                      # "twisted_euler" | "permutation"
    index: tuple                   # index tuple t, or slot (i, j, s)
    before: LatticeVector
    after: LatticeVector
    defect: int | None = None      # for twisted_euler steps

    def apply(self, a: LatticeVector) -> LatticeVector:
        if self.kind == "twisted_euler":
            return a.sigma_t(self.index)
        return a.sigma_perm(*self.index)

    def to_json(self) -> str:
        doc = {
            "kind": self.kind,
            ("t" if self.kind == "twisted_euler" else "slot"): list(self.index),
            "before": self.before.to_text(),
            "after": self.after.to_text(),
        }
        if self.defect is not None:
            doc["defect"] = self.defect
        return json.dumps(doc, separators=(",", ":"))


@dataclass(frozen=True)
class Transcript:
    initial: LatticeVector
    steps: tuple[ReductionStep, ...]
    verdict: Verdict
    fundamental: LatticeVector | None = None

    @property
    def final(self) -> LatticeVector:
        return self.steps[-1].after if self.steps else self.initial

    def euler_steps(self) -> list[ReductionStep]:
        return [s for s in self.steps if s.kind == "twisted_euler"]

    def replay(self) -> LatticeVector:
        """Re-apply every step from the initial vector (bit-exact check)."""
        cur = self.initial
        for step in self.steps:
            if step.before != cur:
                raise CrossCheckError(f"step {step} does not start at {cur}")
            cur = step.apply(cur)
            if step.after != cur:
                raise CrossCheckError(f"step {step} does not produce {cur}")
        return cur

    def to_json_lines(self) -> str:
        return "\n".join(step.to_json() for step in self.steps)


def normalize(a: LatticeVector) -> tuple[LatticeVector, list[ReductionStep]]:
    """Sort every chain descending by recorded adjacent swaps (bubble
    order, so the swap count is the inversion count)."""
    steps: list[ReductionStep] = []
    cur = a
    shape = a.shape
    for i in range(shape.num_points):
        for j in range(shape.factor_count(i)):
            l = shape.chain_lengths[i][j]
            changed = True
            while changed:
                changed = False
                for s in range(l - 1):
                    if cur.entries[i][j][s] < cur.entries[i][j][s + 1]:
                        nxt = cur.sigma_perm(i, j, s)
                        steps.append(
                            ReductionStep("permutation", (i, j, s), cur, nxt)
                        )
                        cur = nxt
                        changed = True
    return cur, steps


def reduce_vector(a: LatticeVector) -> Transcript:
    """Run the reduction loop on a nonnegative vector of positive rank."""
    if not a.is_nonnegative():
        raise ValueError("reduction starts from a nonnegative vector")
    if a.rank < 1:
        raise ValueError("reduction needs positive rank")
    steps: list[ReductionStep] = []
    cur = a
    while True:
        cur, perm_steps = normalize(cur)
        steps += perm_steps
        if not cur.is_nonnegative():
            return Transcript(a, tuple(steps), Verdict.NOT_ROOT)
        if cur.rank <= 1:
            if cur.rank == 0:
                return Transcript(a, tuple(steps), Verdict.NOT_ROOT)
            return Transcript(a, tuple(steps), Verdict.REAL_ROOT)
        # the defect is a sum of per-point shares: the least minimizer at each
        # point gives the lexicographically least tuple of most negative
        # defect.  Factors off the support need no filter: for nonnegative
        # m a tuple through a zero block has defect >= 0 (at a finite point
        # that block's share is sum_{j != t_i} (1 - w) B_ij >= 2n, finite
        # shares are >= 0 and the share at infinity is >= -2n; a zero block
        # at infinity makes every share >= 0), so when the best defect is
        # negative every support minimizer is below every off-support factor
        picks = [min((d, j) for j, d in enumerate(g)) for g in cur.point_defects()]
        best = sum(d for d, _ in picks)
        if best >= 0:
            return Transcript(a, tuple(steps), Verdict.IMAGINARY_ROOT, cur)
        t = tuple(j for _, j in picks)
        nxt = cur.sigma_t(t)
        steps.append(ReductionStep("twisted_euler", t, cur, nxt, best))
        cur = nxt


# -- operator level ------------------------------------------------------------


def twisted_euler(
    p: DiffOperator,
    factors: Sequence[Sequence[ExponentialFactor]],
    t: IndexTuple,
    lambdas: Sequence[ParamLike],
) -> DiffOperator:
    """Twisted Euler transform along the index tuple ``t``: one
    conjugation around the Euler transform.

    ``factors[i]`` lists the exponential factors at point i (infinity
    first), and each factor names its point.  ``lambdas[i]`` is the
    first-slot exponent of the chosen factor at point i; it becomes a
    ``Fraction`` only where a twist or the transform takes it.
    :func:`_conjugate` moves the chosen factors to exponential part zero
    and first exponent zero, the Euler transform with parameter
    ``1 - sum(lambdas)`` acts, and the same conjugation undoes the move.
    An integer exponent sum raises AssumptionViolatedError here; the
    hypotheses on the chains of the twisted operand, and the check of the
    result, are run around it by :func:`step`.
    """
    n, d = _exponent_sum(t, [ParamExpr.of(lam).as_pair() for lam in lambdas])
    q = weylalg.euler(_conjugate(p, factors, t, lambdas, -1), Fraction(d - n, d))
    return weylalg.prim(_conjugate(q, factors, t, lambdas, 1))


def _conjugate(
    q: DiffOperator,
    factors: Sequence[Sequence[ExponentialFactor]],
    t: IndexTuple,
    lambdas: Sequence[ParamLike],
    sign: int,
) -> DiffOperator:
    """Twist ``q`` at every point by ``sign`` times the chosen factor
    ``factors[i][t[i]]`` and, at finite points, add ``sign * lambdas[i]``
    to the exponents.  All these twists commute, so ``sign = -1`` before
    the Euler transform and ``+1`` after it undo each other."""
    for i, j in enumerate(t):
        w = factors[i][j]
        if not w.is_zero():
            q = weylalg.ad_exp_raw(q, w.point, {k: sign * v for k, v in w.coeffs.items()})
        if w.point is not INF and lambdas[i] != 0:
            q = weylalg.ad_power(q, w.point, sign * lambdas[i])
    return q


#: A rational as its numerator and positive denominator.
Pair = tuple[int, int]


def _pair_sum(pairs: Sequence[Pair]) -> Pair:
    """The sum of rationals given as pairs, over the product of their
    denominators, reduced by one gcd."""
    n, d = 0, 1
    for a, b in pairs:
        n, d = n * b + a * d, d * b
    g = gcd(n, d)
    return n // g, d // g


def _exponent_sum(t: IndexTuple, pairs: Sequence[Pair]) -> Pair:
    n, d = _pair_sum(pairs)
    if d == 1:
        raise AssumptionViolatedError(f"exponent sum {n} along {t} is an integer")
    return n, d


#: Predicted chains per factor, keyed by location (see :func:`_chain_table`):
#: each chain is ((numerator, denominator) of its base, multiplicity).
ChainTable = dict[Location, dict[ExponentialFactor, list[tuple[Pair, int]]]]


def _chain_table(
    factor_table: Sequence[Sequence[ExponentialFactor]],
    m: LatticeVector,
    nu: ExponentVector,
) -> ChainTable:
    """Predicted formal data as ``{location: {factor: chains}}``, keyed by
    the location itself: factor ``factor_table[i][j]`` carries the sorted
    (exponent pair, multiplicity) chains of slot (i, j); only slots of
    nonzero multiplicity appear."""
    table = {}
    for i, factors in enumerate(factor_table):
        point = table[factors[0].point] = {}
        for j, w in enumerate(factors):
            chains = sorted(
                (lam.as_pair(), mult)
                for lam, mult in zip(nu.entries[i][j], m.entries[i][j])
                if mult
            )
            if chains:
                point[w] = chains
    return table


def _check_euler_hypotheses(
    factor_table: Sequence[Sequence[ExponentialFactor]],
    m: LatticeVector,
    nu: ExponentVector,
    t: IndexTuple,
    lambdas: Sequence[ParamLike],
):
    """Genericity hypotheses of the Euler step, read off the twisted
    operand: factor j at point i moves to ``w_ij - w_it_i``, exponents shift
    by the sum of the finite ``lambdas`` at infinity (point 0) and by
    ``-lambdas[i]`` at finite points.  Low-degree factors at infinity must
    avoid integer exponents, and the nonzero chains of the zero factor at
    finite points must stay off the integer resonance with the exponent
    sum.  The degree of ``w_ij - w_it_i`` is minus the shape's weight
    ``weights[i][j][t_i]``; the slots of nonzero multiplicity are checked
    point by point and factor by factor, and a failure names the least
    exponent of its factor that fails.  Each shifted exponent is an
    unreduced pair (a, b), integral when b divides a; a ``Fraction`` is
    built only for the message of a failure."""
    pairs = [ParamExpr.of(lam).as_pair() for lam in lambdas]
    ln, ld = _exponent_sum(t, pairs)
    weights = m.shape.weights
    for i, factors in enumerate(factor_table):
        sn, sd = _pair_sum(pairs[1:]) if i == 0 else (-pairs[i][0], pairs[i][1])
        for j in range(len(factors)):
            weight = weights[i][j][t[i]]
            if weight < -1 or (i and weight):
                continue
            bases = []
            for lam, mult in zip(nu.entries[i][j], m.entries[i][j]):
                if mult:
                    a, b = lam.as_pair()
                    bases.append((a * sd + sn * b, b * sd))
            if i == 0:
                if bad := [Fraction(a, b) for a, b in bases if a % b == 0]:
                    raise AssumptionViolatedError(
                        f"integer exponent {min(bad)} in a low-degree factor at infinity"
                    )
            elif bad := [Fraction(a, b) for a, b in bases if a and (a * ld + ln * b) % (b * ld) == 0]:
                raise AssumptionViolatedError(
                    f"resonance: exponent {min(bad)} at {factors[0].point} plus "
                    f"{Fraction(ln, ld)} is an integer"
                )


@dataclass(frozen=True)
class OperatorReduction:
    transcript: Transcript
    initial: FormalData
    operators: tuple[DiffOperator, ...]   # after each twisted-Euler step
    final: DiffOperator


def reduce_operator(p: DiffOperator, data: FormalData | None = None) -> OperatorReduction:
    """Drive the lattice reduction on a concrete operator.

    Runs :func:`step` on every move of the lattice transcript: each
    twisted Euler move is applied to the operator and its result checked
    against the predicted multiplicities and exponents.  A failed
    hypothesis or check raises at the operator given.  ``data``, when
    given, must be the formal data extracted from ``p``; ``p`` is then
    not extracted again.

    The work is done by :func:`_reduce_operator_once`.  The two names stay
    apart only because the bench traces each (``reduce.reduce_operator``
    and ``reduce.attempts``); they can be folded into one together with
    the bench's span list, and ``reduce.retries`` reads 0 by construction.
    """
    return _reduce_operator_once(p, data)


def _reduce_operator_once(p: DiffOperator, data: FormalData | None) -> OperatorReduction:
    if data is None:
        data = extract_formal_data(p)
    factor_table = [[w for w, _ in factors] for _, factors in data.points]
    m = formal.m_vector(data)
    nu = formal.exponent_vector(data, m.shape)
    transcript = reduce_vector(m)
    cur_op = p
    ops = []
    for move in transcript.steps:
        cur_op, nu = step(cur_op, factor_table, nu, move)
        if move.kind == "twisted_euler":
            ops.append(cur_op)
    return OperatorReduction(transcript, data, tuple(ops), cur_op)


def step(
    op: DiffOperator,
    factors: Sequence[Sequence[ExponentialFactor]],
    nu: ExponentVector,
    move: ReductionStep,
) -> tuple[DiffOperator, ExponentVector]:
    """Apply the lattice move ``move`` to ``op``, whose factor table is
    ``factors`` and exponents ``nu``: the next (operator, exponents).

    A slot swap moves the exponents only.  A twisted Euler move along
    ``t`` checks the hypotheses at ``move.before``, applies
    :func:`twisted_euler`, moves the exponents by sigma_t and checks the
    result against the chain table of ``move.after``; the multiplicities
    are read from the move, not recomputed.  A failure raises
    AssumptionViolatedError or CrossCheckError."""
    if move.kind == "permutation":
        return op, act_sigma_perm(nu, *move.index)
    t = move.index
    lambdas = [nu.slot(i, j, 0) for i, j in enumerate(t)]
    _check_euler_hypotheses(factors, move.before, nu, t, lambdas)
    op = twisted_euler(op, factors, t, lambdas)
    nu = act_sigma_t(nu, t)
    _check_prediction(op, _chain_table(factors, move.after, nu), move.after.rank)
    return op, nu


def _check_prediction(op: DiffOperator, predicted: ChainTable, rank: int):
    """Extract ``op``, primitive as :func:`twisted_euler` returns it, and
    compare it, point by point, with the predicted chain table, whose keys
    are the points in order.  A point the extraction omits is
    non-singular: it must be predicted as the zero factor with the single
    chain (0, rank).  Such a point is finite, since extraction always
    lists infinity.

    The extraction tries the roots the prediction names first: the
    predicted points for the leading coefficient and, at each point, every
    predicted exponent and factor coefficient.  When the prediction holds
    they are all the roots, and no search for others runs.  The chains
    are compared as the pairs extraction returns; a failure prints them as
    sorted ``Fraction`` lists.  The hints are coprime pairs too: the
    exponents (a + v b, b) of each chain of base (a, b), and each factor
    coefficient n/d as the chart reads it, (n, d) at a finite point and
    (-n, d) at infinity, whose chart flips the sign."""
    hints = {}
    for loc, point in predicted.items():
        sign = -1 if loc is INF else 1
        hints[loc] = [
            (a + v * b, b)
            for chains in point.values() for (a, b), mult in chains for v in range(mult)
        ] + [(sign * v.numerator, v.denominator) for w in point for v in w.coeffs.values()]
    extracted = dict(formal.extract_primitive(op, hints))
    for loc, point in predicted.items():
        factors = extracted.pop(loc, None)
        if factors is None:
            got = {ExponentialFactor(loc, {}): [((0, 1), rank)]}
        else:
            got = {w: sorted(chains) for w, chains in factors}
        if got != point:
            got, want = (
                {w: sorted((Fraction(a, b), k) for (a, b), k in chains) for w, chains in table.items()}
                for table in (got, point)
            )
            raise CrossCheckError(
                f"at {weylalg.format_location(loc)}: extracted {got}, predicted {want}"
            )
    if extracted:
        extra = ", ".join(weylalg.format_location(loc) for loc in extracted)
        raise CrossCheckError(f"unpredicted singular points: {extra}")

