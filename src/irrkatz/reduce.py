"""The irregular reduction algorithm.

Lattice level: normalize chains to descending order, then repeatedly apply
the twisted-Euler move of most negative defect (lexicographically least
tuple on ties; it runs through the support, since no tuple through a
zero block has negative defect).  Each such move strictly decreases
the rank, so the loop ends at rank <= 1 (a real-root terminal), at a
stable sorted vector (an imaginary-root fundamental representative), or
leaves the nonnegative cone (not a root).

Operator level: replay the lattice transcript on a concrete operator.
Each Euler step is one conjugation around ``weylalg.euler``: twist the
chosen factors to exponential part and first exponent zero, transform,
twist back.  Before the step the genericity hypotheses are read off the
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
from typing import Sequence

from . import formal, weylalg
from .exponents import ExponentVector, act_sigma_perm, act_sigma_t
from .formal import ExponentialFactor, FormalData, extract_formal_data
from .lattice import IndexTuple, LatticeVector
from .rootsys import Verdict
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
    locations: Sequence[Location],
    factors: Sequence[Sequence[ExponentialFactor]],
    t: IndexTuple,
    lambdas: Sequence[Fraction],
) -> DiffOperator:
    """Twisted Euler transform along the index tuple ``t``: one
    conjugation around the Euler transform.

    ``lambdas[i]`` is the first-slot exponent of the chosen factor at
    point i.  :func:`_conjugate` moves the chosen factors to exponential
    part zero and first exponent zero, the Euler transform with parameter
    ``1 - sum(lambdas)`` acts, and the same conjugation undoes the move.
    An integer exponent sum raises AssumptionViolatedError here; the
    hypotheses on the chains of the twisted operand are checked by
    :func:`reduce_operator` on its predicted chain table, before the step.
    """
    lam_sum = _exponent_sum(t, lambdas)
    q = weylalg.euler(_conjugate(p, locations, factors, t, lambdas, -1), 1 - lam_sum)
    return weylalg.prim(_conjugate(q, locations, factors, t, lambdas, 1))


def _conjugate(
    q: DiffOperator,
    locations: Sequence[Location],
    factors: Sequence[Sequence[ExponentialFactor]],
    t: IndexTuple,
    lambdas: Sequence[Fraction],
    sign: int,
) -> DiffOperator:
    """Twist ``q`` at every point by ``sign`` times the chosen factor
    ``factors[i][t[i]]`` and, at finite points, add ``sign * lambdas[i]``
    to the exponents.  All these twists commute, so ``sign = -1`` before
    the Euler transform and ``+1`` after it undo each other."""
    for i, loc in enumerate(locations):
        w = factors[i][t[i]]
        if not w.is_zero():
            q = weylalg.ad_exp_raw(q, loc, {k: sign * v for k, v in w.coeffs.items()})
        if loc is not INF and lambdas[i] != 0:
            q = weylalg.ad_power(q, loc, sign * lambdas[i])
    return q


def _exponent_sum(t: IndexTuple, lambdas: Sequence[Fraction]) -> Fraction:
    lam_sum = sum(lambdas, Fraction(0))
    if lam_sum.denominator == 1:
        raise AssumptionViolatedError(
            f"exponent sum {lam_sum} along {t} is an integer"
        )
    return lam_sum


#: Predicted chains per factor, keyed by location (see :func:`_chain_table`).
ChainTable = dict[Location, dict[ExponentialFactor, list[tuple[Fraction, int]]]]


def _chain_table(
    factor_table: Sequence[Sequence[ExponentialFactor]],
    m: LatticeVector,
    nu: ExponentVector,
) -> ChainTable:
    """Predicted formal data as ``{location: {factor: chains}}``, keyed by
    the location itself: factor ``factor_table[i][j]`` carries the sorted
    (exponent, multiplicity) chains of slot (i, j); only slots of nonzero
    multiplicity appear."""
    table = {}
    for i, factors in enumerate(factor_table):
        point = table[factors[0].point] = {}
        for j, w in enumerate(factors):
            chains = sorted(
                (lam.as_rat(), mult)
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
    lambdas: Sequence[Fraction],
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
    exponent of its factor that fails."""
    lam_sum = _exponent_sum(t, lambdas)
    weights = m.shape.weights
    for i, factors in enumerate(factor_table):
        shift = sum(lambdas[1:], Fraction(0)) if i == 0 else -lambdas[i]
        for j in range(len(factors)):
            weight = weights[i][j][t[i]]
            if weight < -1 or (i and weight):
                continue
            bases = [
                lam.as_rat() + shift
                for lam, mult in zip(nu.entries[i][j], m.entries[i][j])
                if mult
            ]
            if i == 0:
                if bad := [base for base in bases if base.denominator == 1]:
                    raise AssumptionViolatedError(
                        f"integer exponent {min(bad)} in a low-degree factor at infinity"
                    )
            elif bad := [base for base in bases if base and (base + lam_sum).denominator == 1]:
                raise AssumptionViolatedError(
                    f"resonance: exponent {min(bad)} at {factors[0].point} plus {lam_sum} "
                    "is an integer"
                )


@dataclass(frozen=True)
class OperatorReduction:
    transcript: Transcript
    initial: FormalData
    operators: tuple[DiffOperator, ...]   # after each twisted-Euler step
    final: DiffOperator


def reduce_operator(p: DiffOperator, data: FormalData | None = None) -> OperatorReduction:
    """Drive the lattice reduction on a concrete operator.

    Applies the operator-level twisted Euler transform for every lattice
    step and checks the invariants of the result against the predicted
    multiplicities and exponents.  A failed hypothesis or check raises at
    the operator given.  ``data``, when given, must be the formal data
    extracted from ``p``; ``p`` is then not extracted again.

    The work is done by :func:`_reduce_operator_once`.  The two names stay
    apart only because the bench traces each (``reduce.reduce_operator``
    and ``reduce.attempts``); they can be folded into one together with
    the bench's span list, and ``reduce.retries`` reads 0 by construction.
    """
    return _reduce_operator_once(p, data)


def _reduce_operator_once(p: DiffOperator, data: FormalData | None) -> OperatorReduction:
    if data is None:
        data = extract_formal_data(p)
    locations = data.locations()
    factor_table = [[w for w, _ in factors] for _, factors in data.points]
    m = formal.m_vector(data)
    nu = formal.exponent_vector(data, m.shape)
    transcript = reduce_vector(m)

    cur_op = p
    cur_nu = nu
    ops = []
    for step in transcript.steps:
        if step.kind == "permutation":
            cur_nu = act_sigma_perm(cur_nu, *step.index)
            continue
        t = step.index
        lambdas = [cur_nu.slot(i, t[i], 0).as_rat() for i in range(len(locations))]
        _check_euler_hypotheses(factor_table, step.before, cur_nu, t, lambdas)
        cur_op = twisted_euler(cur_op, locations, factor_table, t, lambdas)
        cur_nu = act_sigma_t(cur_nu, t)
        predicted = _chain_table(factor_table, step.after, cur_nu)
        _check_prediction(cur_op, locations, predicted, step.after.rank)
        ops.append(cur_op)
    return OperatorReduction(transcript, data, tuple(ops), cur_op)


def _check_prediction(
    op: DiffOperator,
    locations: Sequence[Location],
    predicted: ChainTable,
    rank: int,
):
    """Extract ``op``, primitive as :func:`twisted_euler` returns it, and
    compare it, point by point, with the predicted chain table.  A point
    the extraction omits is non-singular: it must be predicted as the zero
    factor with the single chain (0, rank).  Such a point is finite, since
    ``FormalData`` always lists infinity.

    The extraction tries the roots the prediction names first: the
    locations for the leading coefficient and, at each point, every
    predicted exponent and factor coefficient.  When the prediction holds
    they are all the roots, and no search for others runs."""
    hints = {}
    for loc in locations:
        point = predicted[loc]
        hints[loc] = [
            lam + v for chains in point.values() for lam, mult in chains for v in range(mult)
        ] + [s * v for w in point for v in w.coeffs.values() for s in (1, -1)]
    extracted = dict(formal.extract_primitive(op, hints).points)
    for loc in locations:
        factors = extracted.pop(loc, None)
        if factors is None:
            got = {ExponentialFactor(loc, {}): [(Fraction(0), rank)]}
        else:
            got = {w: sorted((lam.as_rat(), k) for lam, k in s.chains) for w, s in factors}
        if got != predicted[loc]:
            raise CrossCheckError(
                f"at {weylalg.format_location(loc)}: extracted {got}, predicted {predicted[loc]}"
            )
    if extracted:
        extra = ", ".join(weylalg.format_location(loc) for loc in extracted)
        raise CrossCheckError(f"unpredicted singular points: {extra}")

