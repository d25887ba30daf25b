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
twist back.  Its data are predicted as one chain table per operator
(factor -> (exponent, multiplicity) chains at every point): before the
step the genericity hypotheses are read off the table of the twisted
operand, and after it the transformed operator is extracted, once, and
compared with the table predicted from the lattice and exponent moves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import formal, weylalg
from .exponents import ExponentVector, act_sigma_perm, act_sigma_t
from .formal import (
    ExponentialFactor,
    ExtractionError,
    FormalData,
    extract_formal_data,
)
from .lattice import IndexTuple, LatticeVector
from .rootsys import Verdict
from .weylalg import INF, DiffOperator, Location


class AssumptionViolatedError(Exception):
    """A genericity hypothesis of the twisted Euler step fails at the
    chosen instance (an integer resonance)."""


class CrossCheckError(Exception):
    """Operator-level invariants disagree with the lattice prediction."""


RETRIES = 3   # fresh instances drawn after a failed operator-level reduction


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


ChainTable = dict[tuple, dict[ExponentialFactor, list[tuple[Fraction, int]]]]


def _chain_table(
    factor_table: Sequence[Sequence[ExponentialFactor]],
    m: LatticeVector,
    nu: ExponentVector,
    shifts: Sequence[Fraction],
) -> ChainTable:
    """Predicted formal data as ``{location_key: {factor: chains}}``:
    factor ``factor_table[i][j]`` carries the sorted (exponent,
    multiplicity) chains of slot (i, j), exponents shifted by
    ``shifts[i]``; only slots of nonzero multiplicity appear."""
    table = {}
    for i, factors in enumerate(factor_table):
        point = table[weylalg.location_key(factors[0].point)] = {}
        for j, w in enumerate(factors):
            chains = sorted(
                (nu.slot(i, j, s).as_rat() + shifts[i], mult)
                for s, mult in enumerate(m.entries[i][j])
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
    """Genericity hypotheses of the Euler step, read off the predicted
    chain table of the twisted operand: factor j at point i moves to
    ``w_ij - w_it_i``, exponents shift by the sum of the finite
    ``lambdas`` at infinity (point 0) and by ``-lambdas[i]`` at finite
    points.  Low-degree factors at infinity must avoid integer exponents,
    and the nonzero chains of the zero factor at finite points must stay
    off the integer resonance with the exponent sum."""
    lam_sum = _exponent_sum(t, lambdas)
    twisted = [[w - factors[t[i]] for w in factors] for i, factors in enumerate(factor_table)]
    shifts = [sum(lambdas[1:], Fraction(0))] + [-lam for lam in lambdas[1:]]
    for point in _chain_table(twisted, m, nu, shifts).values():
        for w, chains in point.items():
            for base, _ in chains:
                if w.point is INF and w.degree <= 1 and base.denominator == 1:
                    raise AssumptionViolatedError(
                        f"integer exponent {base} in a low-degree factor at infinity"
                    )
                if (
                    w.point is not INF and w.is_zero() and base != 0
                    and (base + lam_sum).denominator == 1
                ):
                    raise AssumptionViolatedError(
                        f"resonance: exponent {base} at {w.point} plus {lam_sum} is an integer"
                    )


@dataclass(frozen=True)
class OperatorReduction:
    transcript: Transcript
    initial: FormalData
    operators: tuple[DiffOperator, ...]   # after each twisted-Euler step
    final: DiffOperator


def reduce_operator(
    p: DiffOperator,
    reinstantiate: Callable[[int], DiffOperator] | None = None,
    data: FormalData | None = None,
) -> OperatorReduction:
    """Drive the lattice reduction on a concrete operator.

    Applies the operator-level twisted Euler transform for every lattice
    step and checks the extracted invariants against the predicted
    multiplicities and exponents.  On an integer resonance the instance is
    re-drawn through ``reinstantiate`` (attempt number passed in), up to
    ``RETRIES`` times.  ``data``, when given, must be the formal data
    extracted from ``p``; the first attempt then does not extract ``p``
    again.
    """
    attempt = 0
    while True:
        try:
            return _reduce_operator_once(p, data)
        except (AssumptionViolatedError, ExtractionError, CrossCheckError):
            if reinstantiate is None or attempt >= RETRIES:
                raise
            p, data = reinstantiate(attempt), None
            attempt += 1


def _reduce_operator_once(p: DiffOperator, data: FormalData | None) -> OperatorReduction:
    if data is None:
        data = extract_formal_data(p)
    locations = data.locations()
    factor_table = [[w for w, _ in factors] for _, factors in data.points]
    no_shift = [Fraction(0)] * len(locations)
    m = formal.m_vector(data)
    nu = formal.exponent_vector(data)
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
        predicted = _chain_table(factor_table, step.after, cur_nu, no_shift)
        _check_prediction(cur_op, locations, predicted, step.after.rank)
        ops.append(cur_op)
    return OperatorReduction(transcript, data, tuple(ops), cur_op)


def _check_prediction(
    op: DiffOperator,
    locations: Sequence[Location],
    predicted: ChainTable,
    rank: int,
):
    """Extract ``op`` and compare it, point by point, with the predicted
    chain table.  A point the extraction omits is non-singular: it must be
    predicted as the zero factor with the single chain (0, rank).  Such a
    point is finite, since ``FormalData`` always lists infinity."""
    extracted = {
        weylalg.location_key(loc): (loc, factors)
        for loc, factors in extract_formal_data(op).points
    }
    for loc in locations:
        key = weylalg.location_key(loc)
        _, factors = extracted.pop(key, (loc, None))
        if factors is None:
            got = {ExponentialFactor(loc, {}): [(Fraction(0), rank)]}
        else:
            got = {w: sorted((lam.as_rat(), k) for lam, k in s.chains) for w, s in factors}
        if got != predicted[key]:
            raise CrossCheckError(
                f"at {weylalg.format_location(loc)}: extracted {got}, predicted {predicted[key]}"
            )
    if extracted:
        extra = ", ".join(weylalg.format_location(loc) for loc, _ in extracted.values())
        raise CrossCheckError(f"unpredicted singular points: {extra}")

