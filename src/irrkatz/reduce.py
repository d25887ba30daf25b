"""The irregular reduction algorithm.

Lattice level: normalize chains to descending order, then repeatedly apply
the twisted-Euler move of most negative defect (lexicographically least
tuple on ties, support tuples only).  Each such move strictly decreases
the rank, so the loop ends at rank <= 1 (a real-root terminal), at a
stable sorted vector (an imaginary-root fundamental representative), or
leaves the nonnegative cone (not a root).

Operator level: replay the lattice transcript on a concrete operator via
the twisted Euler transform.  Before each step the genericity hypotheses
are checked on the predicted formal data of the twisted operand; after it
the transformed operator is extracted, once, and its invariants are
checked against the lattice and exponent predictions.
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
    SpectralData,
    extract_formal_data,
)
from .lattice import IndexTuple, LatticeVector
from .rootsys import Verdict
from .scalar import ParamExpr
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
        support = cur.support_tuples()
        defects = {t: cur.defect(t) for t in support}
        best = min(defects.values())
        if best >= 0:
            return Transcript(a, tuple(steps), Verdict.IMAGINARY_ROOT, cur)
        t = min(t for t, d in defects.items() if d == best)
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
    """Twisted Euler transform along the index tuple ``t``.

    ``lambdas[i]`` is the first-slot exponent of the chosen factor at
    point i.  Twists move the chosen factors to exponential part zero and
    first exponent zero, the Euler transform with parameter
    ``1 - sum(lambdas)`` acts, and the twists are undone.  An integer
    exponent sum raises AssumptionViolatedError here; the hypotheses on
    the chains of the twisted operand are checked by
    :func:`reduce_operator` on its predicted formal data, before the step.
    """
    lam_sum = _exponent_sum(t, lambdas)
    q = p
    for i, loc in enumerate(locations):
        w = factors[i][t[i]]
        if not w.is_zero():
            q = weylalg.ad_exp_raw(q, loc, {k: -v for k, v in w.coeffs.items()})
    for i, loc in enumerate(locations):
        if loc is not INF and lambdas[i] != 0:
            q = weylalg.ad_power(q, loc, -lambdas[i])
    q = weylalg.euler(q, 1 - lam_sum)
    for i, loc in enumerate(locations):
        if loc is not INF and lambdas[i] != 0:
            q = weylalg.ad_power(q, loc, lambdas[i])
    for i, loc in enumerate(locations):
        w = factors[i][t[i]]
        if not w.is_zero():
            q = weylalg.ad_exp_raw(q, loc, w.coeffs)
    return weylalg.prim(q)


def _exponent_sum(t: IndexTuple, lambdas: Sequence[Fraction]) -> Fraction:
    lam_sum = sum(lambdas, Fraction(0))
    if lam_sum.denominator == 1:
        raise AssumptionViolatedError(
            f"exponent sum {lam_sum} along {t} is an integer"
        )
    return lam_sum


def _check_euler_hypotheses(
    factor_table: Sequence[Sequence[ExponentialFactor]],
    m: LatticeVector,
    nu: ExponentVector,
    t: IndexTuple,
    lambdas: Sequence[Fraction],
):
    """Genericity hypotheses of the Euler step, read off the predicted
    formal data of the twisted operand: low-degree factors at infinity
    avoid integer exponents, and the nonzero chains of the zero factor at
    finite points stay off the integer resonance with the exponent sum."""
    lam_sum = _exponent_sum(t, lambdas)
    for w, chains in _twisted_chains(factor_table, m, nu, t, lambdas):
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


def _twisted_chains(
    factor_table: Sequence[Sequence[ExponentialFactor]],
    m: LatticeVector,
    nu: ExponentVector,
    t: IndexTuple,
    lambdas: Sequence[Fraction],
) -> list[tuple[ExponentialFactor, list[tuple[Fraction, int]]]]:
    """Predicted factors with their sorted (exponent, multiplicity) chains
    after the twists of :func:`twisted_euler`, point by point.

    Factor j at point i moves to ``w_ij - w_it_i``; exponents shift by
    ``-lambdas[i]`` at finite points and by the sum of the finite
    ``lambdas`` at infinity (point 0); only slots of nonzero multiplicity
    appear.
    """
    out = []
    for i, factors in enumerate(factor_table):
        shift = sum(lambdas[1:], Fraction(0)) if i == 0 else -lambdas[i]
        for j, w in enumerate(factors):
            chains = sorted(
                (nu.slot(i, j, s).as_rat() + shift, mult)
                for s, mult in enumerate(m.entries[i][j])
                if mult
            )
            if chains:
                out.append((w - factors[t[i]], chains))
    return out


@dataclass(frozen=True)
class OperatorReduction:
    transcript: Transcript
    initial: FormalData
    operators: tuple[DiffOperator, ...]   # after each twisted-Euler step
    final: DiffOperator


def reduce_operator(
    p: DiffOperator,
    reinstantiate: Callable[[int], DiffOperator] | None = None,
    retries: int = 3,
    data: FormalData | None = None,
) -> OperatorReduction:
    """Drive the lattice reduction on a concrete operator.

    Applies the operator-level twisted Euler transform for every lattice
    step and checks the extracted invariants against the predicted
    multiplicities and exponents.  On an integer resonance the instance is
    re-drawn through ``reinstantiate`` (attempt number passed in), up to
    ``retries`` times.  ``data``, when given, must be the formal data
    extracted from ``p``; the first attempt then does not extract ``p``
    again.
    """
    attempt = 0
    while True:
        try:
            return _reduce_operator_once(p, data)
        except (AssumptionViolatedError, ExtractionError, CrossCheckError):
            if reinstantiate is None or attempt >= retries:
                raise
            p, data = reinstantiate(attempt), None
            attempt += 1


def _reduce_operator_once(p: DiffOperator, data: FormalData | None) -> OperatorReduction:
    if data is None:
        data = extract_formal_data(p)
    shape = formal.to_shape(data)
    locations = data.locations()
    factor_table = [[w for w, _ in factors] for _, factors in data.points]
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
        lambdas = [
            cur_nu.slot(i, t[i], 0).as_rat() for i in range(shape.num_points)
        ]
        _check_euler_hypotheses(factor_table, step.before, cur_nu, t, lambdas)
        cur_op = twisted_euler(cur_op, locations, factor_table, t, lambdas)
        cur_nu = act_sigma_t(cur_nu, t)
        _check_prediction(cur_op, locations, factor_table, step.after, cur_nu)
        ops.append(cur_op)
    return OperatorReduction(transcript, data, tuple(ops), cur_op)


def _check_prediction(
    op: DiffOperator,
    locations: Sequence[Location],
    factor_table: Sequence[Sequence[ExponentialFactor]],
    m_pred: LatticeVector,
    nu_pred: ExponentVector,
):
    """Extract the transformed operator and compare, factor by factor,
    with the predicted (multiplicity, exponent) chains."""
    extracted = extract_formal_data(op)
    ext_points = {weylalg.location_key(loc): factors for loc, factors in extracted.points}
    rank = m_pred.rank
    for i, loc in enumerate(locations):
        ext = ext_points.pop(weylalg.location_key(loc), None)
        if ext is None:
            ext = [_trivial_point_data(loc, rank)]
        ext_by_w = {w: s for w, s in ext}
        for j, w in enumerate(factor_table[i]):
            expected = sorted(
                (nu_pred.slot(i, j, s).as_rat(), m_pred.entries[i][j][s])
                for s in range(len(m_pred.entries[i][j]))
                if m_pred.entries[i][j][s] != 0
            )
            got = ext_by_w.pop(w, None)
            got_chains = (
                sorted((lam.as_rat(), m) for lam, m in got.chains)
                if got is not None
                else []
            )
            if got_chains != expected:
                raise CrossCheckError(
                    f"at {weylalg.format_location(loc)}, factor {w.format()}: "
                    f"extracted {got_chains}, predicted {expected}"
                )
        if ext_by_w:
            extra = ", ".join(w.format() for w in ext_by_w)
            raise CrossCheckError(
                f"unpredicted factors at {weylalg.format_location(loc)}: {extra}"
            )
    if ext_points:
        raise CrossCheckError(f"unpredicted singular points: {sorted(ext_points)}")


def _trivial_point_data(loc: Location, rank: int):
    """Formal datum of a non-singular point: exponents 0..rank-1 at a
    finite point, 1-rank..0 at infinity, one chain, zero factor."""
    base = 1 - rank if loc is INF else 0
    return (ExponentialFactor(loc, {}), SpectralData([(ParamExpr(base), rank)]))
