import random
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest

from irrkatz import cli, corpus, formal, polys, weylalg
from irrkatz import reduce as reduction
from irrkatz.exponents import ExponentVector, act_sigma_perm, act_sigma_t
from irrkatz.lattice import LatticeShape, LatticeVector
from irrkatz.reduce import (
    AssumptionViolatedError,
    CrossCheckError,
    ReductionStep,
    Transcript,
    normalize,
    reduce_operator,
    reduce_vector,
    twisted_euler,
    _chain_table,
    _check_prediction,
    _conjugate,
)
from irrkatz.rootsys import Verdict, idx
from irrkatz.weylalg import (
    INF,
    D,
    DiffOperator,
    X,
    ad_exp_raw,
    ad_power,
    euler,
    format_location,
    prim,
    subst_infty,
    to_text,
)
import oracles
import test_katz_forward
from conftest import outcome
from oracles import in_fundamental_domain, op_sum, scaled, support_tuples, zero_vector


def shape_of(name):
    return formal.to_shape(corpus.symbolic_formal_data(name))


def m_of(name):
    return formal.m_vector(corpus.symbolic_formal_data(name))


# -- normalize ----------------------------------------------------------------


def test_normalize_examples():
    shape = shape_of("Heun")
    a = LatticeVector(shape, [[[1, 2]], [[2, 1]], [[3, 0]], [[0, 3]]])
    sorted_a, steps = normalize(a)
    assert sorted_a.entries[0][0] == (2, 1)
    assert sorted_a.entries[3][0] == (3, 0)
    assert len(steps) == 2
    again, steps2 = normalize(sorted_a)
    assert again == sorted_a and steps2 == []


def test_normalize_swap_count_is_inversion_count():
    rng = random.Random(50)
    shape = formal.to_shape(corpus.symbolic_formal_data("Heun"))
    for _ in range(30):
        chains = [[rng.randint(0, 4) for _ in range(2)] for _ in range(4)]
        total = sum(sum(ch) for ch in chains)
        # rebalance by padding the first slot
        target = max(sum(ch) for ch in chains)
        for ch in chains:
            ch[0] += target - sum(ch)
        a = LatticeVector(shape, [[ch] for ch in chains])
        _, steps = normalize(a)
        inversions = sum(
            1
            for point in a.entries
            for ch in point
            for i in range(len(ch))
            for j in range(i + 1, len(ch))
            if ch[i] < ch[j]
        )
        assert len(steps) == inversions


# -- lattice reduction -----------------------------------------------------------


def test_reduce_gauss():
    transcript = reduce_vector(m_of("Gauss"))
    assert transcript.verdict is Verdict.REAL_ROOT
    euler_steps = transcript.euler_steps()
    assert len(euler_steps) == 1
    assert euler_steps[0].defect == -1
    assert transcript.final.to_text() == "1,0|1,0|1,0"
    assert transcript.replay() == transcript.final


def test_reduce_heun_family_fixed():
    for name in ("Heun", "cHeun", "bHeun", "tHeun", "dHeun"):
        m = m_of(name)
        transcript = reduce_vector(m)
        assert transcript.verdict is Verdict.IMAGINARY_ROOT, name
        assert transcript.fundamental == m
        assert transcript.euler_steps() == []


def test_reduce_doubled_heun():
    transcript = reduce_vector(scaled(m_of("Heun"), 2))
    assert transcript.verdict is Verdict.IMAGINARY_ROOT
    assert transcript.fundamental == scaled(m_of("Heun"), 2)


def test_reduce_rejects_bad_input():
    shape = shape_of("Heun")
    with pytest.raises(ValueError):
        reduce_vector(zero_vector(shape))
    with pytest.raises(ValueError):
        reduce_vector(LatticeVector(shape, [[[2, -1]], [[1, 0]], [[1, 0]], [[1, 0]]]))
    with pytest.raises(ValueError):
        LatticeVector(shape, [[[1, 1]], [[1, 0]], [[1, 0]], [[1, 0]]])


def test_reduce_idx_conserved_and_verdict_implications():
    rng = random.Random(51)
    for name in corpus.names():
        shape = shape_of(name)
        for _ in range(25):
            a = random_balanced(rng, shape)
            transcript = reduce_vector(a)
            assert transcript.replay() == transcript.final
            euler_steps = transcript.euler_steps()
            assert len(euler_steps) <= a.rank
            assert all(s.after.rank < s.before.rank for s in euler_steps)
            for step in transcript.steps:
                assert idx(step.before) == idx(step.after)
            if transcript.verdict is Verdict.REAL_ROOT:
                assert idx(a) == 2
            elif transcript.verdict is Verdict.IMAGINARY_ROOT:
                assert idx(a) <= 0


def test_transcript_json_lines():
    transcript = reduce_vector(m_of("Gauss"))
    lines = transcript.to_json_lines().splitlines()
    assert len(lines) == len(transcript.steps)
    import json

    first = json.loads(lines[0])
    assert first["kind"] == "twisted_euler"
    assert first["defect"] == -1
    assert first["before"] == "1,1|1,1|1,1"


def _oracle_reduce_vector(a):
    """The reduction loop searching the support tuples of the full product:
    the defect of each, then the least tuple of most negative defect."""
    steps = []
    cur = a
    while True:
        cur, perm_steps = normalize(cur)
        steps += perm_steps
        if not cur.is_nonnegative():
            return Transcript(a, tuple(steps), Verdict.NOT_ROOT)
        if cur.rank <= 1:
            verdict = Verdict.REAL_ROOT if cur.rank == 1 else Verdict.NOT_ROOT
            return Transcript(a, tuple(steps), verdict)
        defects = {t: cur.defect(t) for t in support_tuples(cur)}
        best = min(defects.values())
        if best >= 0:
            return Transcript(a, tuple(steps), Verdict.IMAGINARY_ROOT, cur)
        t = min(t for t, d in defects.items() if d == best)
        nxt = cur.sigma_t(t)
        steps.append(ReductionStep("twisted_euler", t, cur, nxt, best))
        cur = nxt


def random_lattice_shape(rng, points, factors, equal_rows=False):
    """Chains of length 1-3; with ``equal_rows`` every weight is -1, so
    the factors of a point tie."""
    tables = []
    for _ in range(points):
        table = [[0] * factors for _ in range(factors)]
        for j in range(factors):
            for j2 in range(j + 1, factors):
                table[j][j2] = table[j2][j] = -1 if equal_rows else rng.choice((-1, -1, -2))
        tables.append(tuple(tuple(row) for row in table))
    chain_lengths = tuple(
        tuple(rng.choice((1, 2, 2, 3)) for _ in range(factors)) for _ in range(points)
    )
    return LatticeShape(chain_lengths, tuple(tables))


def raised_root(rng, shape, moves):
    """A real root built backwards from a rank-1 vector: each move raises
    the rank along the tuple of least positive defect among a sample, then
    swaps two slots of one chain."""
    tuples = list(product(*[range(len(lens)) for lens in shape.chain_lengths]))
    entries = [[[0] * l for l in lens] for lens in shape.chain_lengths]
    for i, j in enumerate(rng.choice(tuples)):
        entries[i][j][0] = 1
    a = LatticeVector(shape, entries)
    for _ in range(moves):
        sample = rng.sample(tuples, min(32, len(tuples)))
        rises = [(d, t) for t in sample if (d := a.defect(t)) > 0]
        if not rises:
            break
        a = a.sigma_t(min(rises)[1])
        slots = [(i, j, s) for i, lens in enumerate(shape.chain_lengths)
                 for j, l in enumerate(lens) for s in range(l - 1)]
        if slots:
            a = a.sigma_perm(*rng.choice(slots))
    return a


def test_reduce_vector_matches_full_product_search():
    rng = random.Random(56)
    cases = []
    for name in corpus.names():
        shape = shape_of(name)
        cases += [m_of(name), scaled(m_of(name), 3)]
        cases += [random_balanced(rng, shape, max_rank=8) for _ in range(10)]
    for k in range(150):
        points, factors = rng.randint(1, 5), rng.randint(1, 4)
        shape = random_lattice_shape(rng, points, factors, equal_rows=k % 3 == 0)
        cases += [random_balanced(rng, shape, max_rank=6), raised_root(rng, shape, 3)]
    ties = 0
    verdicts = set()
    for a in cases:
        got, want = reduce_vector(a), _oracle_reduce_vector(a)
        assert got.to_json_lines() == want.to_json_lines()
        assert got.verdict is want.verdict
        assert got.fundamental == want.fundamental
        verdicts.add(got.verdict)
        for step in want.euler_steps():
            support = support_tuples(step.before)
            ties += sum(step.before.defect(t) == step.defect for t in support) > 1
    assert max(len(a.shape.index_tuples()) for a in cases) == 1024
    assert ties > 20
    assert verdicts == set(Verdict)


def test_reduction_enumerates_no_index_tuples(monkeypatch):
    rng = random.Random(57)
    shape = random_lattice_shape(rng, 5, 4)
    real = raised_root(rng, shape, 4)
    balanced = LatticeVector(
        shape, [[[1] + [0] * (l - 1) for l in lens] for lens in shape.chain_lengths]
    )

    # the oracle searches the full product, so it runs before the patch
    assert not in_fundamental_domain(normalize(real)[0])
    assert in_fundamental_domain(balanced)

    def refuse(*args):
        raise AssertionError("index tuples enumerated")

    monkeypatch.setattr(LatticeShape, "index_tuples", refuse)
    transcript = reduce_vector(real)
    assert transcript.verdict is Verdict.REAL_ROOT and transcript.euler_steps()
    assert reduce_vector(balanced).verdict is Verdict.IMAGINARY_ROOT


# -- operator-level reduction ----------------------------------------------------


def test_reduce_operator_gauss_end_to_end():
    op = corpus.instantiate("Gauss")
    result = reduce_operator(op)
    assert result.transcript.verdict is Verdict.REAL_ROOT
    assert len(result.transcript.euler_steps()) == 1
    assert result.final.rank == 1
    data = formal.extract_formal_data(result.final)
    a, b, c = (corpus.get("Gauss").defaults[k] for k in "abc")
    chains_inf = [(lam.as_rat(), m) for lam, m in data.points[0][1][0][1].chains]
    assert chains_inf == [(b + 1 - a, 1)]


def test_reduce_operator_heun_unchanged():
    op = corpus.instantiate("Heun")
    result = reduce_operator(op)
    assert result.transcript.verdict is Verdict.IMAGINARY_ROOT
    assert result.final == op
    assert result.operators == ()


def test_reduce_operator_confluent_heun_unchanged():
    op = corpus.instantiate("cHeun")
    result = reduce_operator(op)
    assert result.transcript.verdict is Verdict.IMAGINARY_ROOT
    assert result.final == op


def test_twisted_euler_integer_resonance_guard():
    # exponent sum along the tuple must stay away from the integers
    op = corpus.instantiate("Gauss", {"a": Fraction(1), "b": Fraction(2, 11), "c": Fraction(3, 5)})
    with pytest.raises(AssumptionViolatedError):
        reduce_operator(op)


@pytest.mark.parametrize(
    "a, b, c, message",
    [
        ("1", "2", "2", "exponent sum -1 along (0, 0, 0) is an integer"),
        ("1", "1/2", "2", "integer exponent 0 in a low-degree factor at infinity"),
        ("1", "0", "1/2", "resonance: exponent 1/2 at 0 plus -1/2 is an integer"),
        ("1", "3/2", "2/11", "resonance: exponent 51/22 at 1 plus -29/22 is an integer"),
    ],
)
def test_euler_hypotheses_on_resonant_gauss(a, b, c, message):
    # each hypothesis, read off predicted data, fails with the message the
    # extraction of the twisted operand gave
    op = corpus.instantiate("Gauss", {k: Fraction(v) for k, v in zip("abc", (a, b, c))})
    with pytest.raises(AssumptionViolatedError) as info:
        reduce_operator(op)
    assert str(info.value) == message


def test_euler_hypotheses_match_the_chain_table_oracle():
    # the hypotheses read the shape's weights and the chains slot by slot;
    # the oracle builds the twisted factors and the shifted chain table: on
    # corpus data at small parameters, many of them resonant, each index
    # tuple of the start (also on scrambled exponents) and each step of the
    # reduction gives both the same verdict and message
    rng = random.Random(40)
    values = [Fraction(k, d) for k in range(-3, 4) for d in (1, 2, 3)]
    # rank 4, so that one factor can hold several failing exponents
    ladder = formal.extract_formal_data(hypergeometric(
        [Fraction(k + 1, p) for k, p in enumerate((7, 11, 13, 17))],
        [Fraction(1, p) for p in (19, 23, 29)]))
    outcomes = {}
    for _ in range(600):
        name, params, data = rng.choice(corpus.names() + ["4F3"]), {}, ladder
        if name != "4F3":
            params = {k: rng.choice(values) for k in corpus.get(name).defaults}
            try:
                data = oracles.instance_formal_data(name, params)
            except ValueError:
                continue
        factor_table = [[w for w, _ in factors] for _, factors in data.points]
        m = formal.m_vector(data)
        nu = formal.exponent_vector(data, m.shape)
        # and each tuple on random exponents, often several integers per factor
        scrambled = ExponentVector(m.shape, [
            [[rng.choice(values) for _ in chain] for chain in point] for point in nu.entries])
        states = [(m, exps, t) for t in m.shape.index_tuples() for exps in (nu, scrambled)]
        for step in reduce_vector(m).steps:
            if step.kind == "permutation":
                nu = act_sigma_perm(nu, *step.index)
            else:
                states.append((step.before, nu, step.index))
                nu = act_sigma_t(nu, step.index)
        for before, cur, t in states:
            lambdas = [cur.slot(i, t[i], 0).as_rat() for i in range(len(factor_table))]
            args = (factor_table, before, cur, t, lambdas)
            got = outcome(reduction._check_euler_hypotheses, *args)
            assert got == outcome(oracles.euler_hypotheses, *args), (name, params, t)
            kind = got[1].split(":")[0].split(" ")[0] if got[0] is AssumptionViolatedError else "ok"
            outcomes[kind] = outcomes.get(kind, 0) + 1
    assert set(outcomes) == {"ok", "exponent", "integer", "resonance"}, outcomes
    assert min(outcomes.values()) > 40, outcomes


def test_reduce_operator_rank_three_rigid():
    # rank-3 operator with spectral type (1,1,1 | 1,1,1 | 2,1): rigid, so
    # the reduction takes two steps of defect -1 through a rank-2 stage,
    # exercising a multiplicity-2 chain at a finite point along the way
    from irrkatz.weylalg import DiffOperator, X, D, prim

    a1, a2, a3 = Fraction(1, 7), Fraction(2, 11), Fraction(3, 13)
    b1, b2 = Fraction(1, 5), Fraction(1, 3)
    th = X * D
    p = prim(
        op_sum(th * op_sum(th, b1 - 1) * op_sum(th, b2 - 1),
               X * op_sum(th, a1) * op_sum(th, a2) * op_sum(th, a3), -1)
    )
    data = formal.extract_formal_data(p)
    point_one = {w.is_zero(): s for w, s in data.points[2][1]}
    chains = sorted((lam.as_rat(), m) for lam, m in point_one[True].chains)
    assert chains == [(b1 + b2 - a1 - a2 - a3, 1), (Fraction(0), 2)]
    m = formal.m_vector(data)
    assert idx(m) == 2
    result = reduce_operator(p)
    assert [op.rank for op in result.operators] == [2, 1]
    assert [s.defect for s in result.transcript.euler_steps()] == [-1, -1]
    assert result.final.rank == 1


def test_twisted_euler_through_exponential_twist():
    # a confluent rigid operator where the move picks the factor with a
    # nonzero exponential part: the conjugation by the twist is exercised
    # together with a rank drop and a vanishing factor
    from irrkatz.weylalg import parse

    a, c = Fraction(1, 7), Fraction(1, 3)
    op = parse(f"x*D^2 + (({c}) - x)*D - ({a})")
    data = formal.extract_formal_data(op)
    shape = formal.to_shape(data)
    m = formal.m_vector(data)
    assert idx(m) == 2
    assert {t: m.defect(t) for t in shape.index_tuples()} == {(0, 0): -1, (1, 0): -1}
    locations = data.locations()
    factor_table = [[w for w, _ in factors] for _, factors in data.points]
    nu = formal.exponent_vector(data)
    t = (1, 0)
    assert not factor_table[0][1].is_zero()
    lambdas = [nu.slot(i, t[i], 0).as_rat() for i in range(2)]
    moved = twisted_euler(op, locations, factor_table, t, lambdas)
    assert moved.rank == 1
    check_after_step(moved, locations, factor_table, m, nu, t)


def check_after_step(moved, locations, factor_table, m, nu, t):
    """Extraction of the moved operator equals the chain table predicted
    by sigma_t on the multiplicities and the exponents."""
    after = m.sigma_t(t)
    predicted = _chain_table(factor_table, after, act_sigma_t(nu, t))
    _check_prediction(moved, locations, predicted, after.rank)


def test_twisted_euler_is_an_involution_on_operators():
    # applying the same move twice recovers the original operator exactly
    op = corpus.instantiate("Gauss")
    data = formal.extract_formal_data(op)
    shape = formal.to_shape(data)
    locations = data.locations()
    factor_table = [[w for w, _ in factors] for _, factors in data.points]
    nu = formal.exponent_vector(data)
    t = (0, 0, 0)
    lam1 = [nu.slot(i, t[i], 0).as_rat() for i in range(3)]
    once = twisted_euler(op, locations, factor_table, t, lam1)
    assert once.rank == 1
    nu2 = act_sigma_t(nu, t)
    lam2 = [nu2.slot(i, t[i], 0).as_rat() for i in range(3)]
    twice = twisted_euler(once, locations, factor_table, t, lam2)
    assert twice == op


def test_twisted_euler_matches_prediction_on_all_tuples():
    # exercises the cross-factor exponent coefficients at every weight
    # appearing in the corpus (0, -1, -2): apply the move for each index
    # tuple of each irregular entry and compare extraction to prediction
    for name in ("cHeun", "bHeun", "dHeun"):
        op = corpus.instantiate(name)
        data = formal.extract_formal_data(op)
        shape = formal.to_shape(data)
        locations = data.locations()
        factor_table = [[w for w, _ in factors] for _, factors in data.points]
        m = formal.m_vector(data)
        nu = formal.exponent_vector(data)
        for t in shape.index_tuples():
            lambdas = [nu.slot(i, t[i], 0).as_rat() for i in range(shape.num_points)]
            moved = twisted_euler(op, locations, factor_table, t, lambdas)
            check_after_step(moved, locations, factor_table, m, nu, t)


def four_loop_twisted_euler(p, locations, factors, t, lambdas):
    """twisted_euler as it was first written: each kind of twist in its
    own loop over the points, undone in reverse order after euler."""
    q = p
    for i, loc in enumerate(locations):
        w = factors[i][t[i]]
        if not w.is_zero():
            q = ad_exp_raw(q, loc, {k: -v for k, v in w.coeffs.items()})
    for i, loc in enumerate(locations):
        if loc is not INF and lambdas[i] != 0:
            q = ad_power(q, loc, -lambdas[i])
    q = euler(q, 1 - sum(lambdas, Fraction(0)))
    for i, loc in enumerate(locations):
        if loc is not INF and lambdas[i] != 0:
            q = ad_power(q, loc, lambdas[i])
    for i, loc in enumerate(locations):
        w = factors[i][t[i]]
        if not w.is_zero():
            q = ad_exp_raw(q, loc, w.coeffs)
    return prim(q)


def test_twisted_euler_matches_four_loop_oracle():
    # one conjugation per side of euler gives the very operator the four
    # separate loops gave: on every index tuple of the irregular entries
    # and on every Euler step of Gauss and nF(n-1), n = 2..4
    cases = []
    for name in ("cHeun", "bHeun", "dHeun"):
        op = corpus.instantiate(name)
        data = formal.extract_formal_data(op)
        nu = formal.exponent_vector(data)
        cases += [(op, data, nu, t) for t in formal.to_shape(data).index_tuples()]
    for p in [corpus.instantiate("Gauss")] + [hypergeometric(a, b) for a, b in HYPERGEOMETRIC]:
        result = reduce_operator(p)
        cases += [(op, result.initial, nu, t) for op, _, nu, t in euler_step_states(p, result)]
    assert len(cases) == 2 + 2 + 4 + 1 + 1 + 2 + 3
    for op, data, nu, t in cases:
        locations = data.locations()
        factor_table = [[w for w, _ in factors] for _, factors in data.points]
        lambdas = [nu.slot(i, t[i], 0).as_rat() for i in range(len(locations))]
        got = twisted_euler(op, locations, factor_table, t, lambdas)
        want = four_loop_twisted_euler(op, locations, factor_table, t, lambdas)
        assert to_text(got) == to_text(want), t


def gauss_after_step():
    """The Gauss operator after its one Euler step, with the locations,
    the predicted chain table and the rank the cross-check is given."""
    op = corpus.instantiate("Gauss")
    data = formal.extract_formal_data(op)
    locations = data.locations()
    factor_table = [[w for w, _ in factors] for _, factors in data.points]
    m, nu = formal.m_vector(data), formal.exponent_vector(data)
    t = (0, 0, 0)
    lambdas = [nu.slot(i, 0, 0).as_rat() for i in range(3)]
    moved = twisted_euler(op, locations, factor_table, t, lambdas)
    after = m.sigma_t(t)
    predicted = _chain_table(factor_table, after, act_sigma_t(nu, t))
    return moved, locations, predicted, after.rank


def test_cross_check_rejects_wrong_exponent():
    moved, locations, predicted, rank = gauss_after_step()
    _check_prediction(moved, locations, predicted, rank)
    point = predicted[Fraction(1)]
    for w, chains in point.items():
        point[w] = [((a + b, b), k) for (a, b), k in chains]
    with pytest.raises(CrossCheckError, match=r"^at 1: extracted "):
        _check_prediction(moved, locations, predicted, rank)


def test_cross_check_rejects_unpredicted_factor():
    moved, locations, predicted, rank = gauss_after_step()
    predicted[INF] = {}
    with pytest.raises(CrossCheckError, match=r"^at inf: extracted \{ExponentialFactor\(inf: 0\)"):
        _check_prediction(moved, locations, predicted, rank)


def test_cross_check_rejects_unpredicted_singular_point():
    moved, locations, predicted, rank = gauss_after_step()
    del predicted[Fraction(1)]
    with pytest.raises(CrossCheckError, match=r"^unpredicted singular points: 1$"):
        _check_prediction(moved, locations[:2], predicted, rank)


def test_cross_check_accepts_point_made_non_singular():
    # x*D - 1/3 is singular at 0 and infinity only: a predicted point 1 is
    # accepted exactly when it carries the zero factor with chain (0, rank);
    # infinity is never omitted, formal data without it cannot be built
    op = op_sum(X * D, Fraction(1, 3), -1)
    data = formal.extract_formal_data(op)
    assert data.locations() == (INF, Fraction(0))
    with pytest.raises(ValueError, match="first point must be the point at infinity"):
        formal.FormalData(data.points[1:])
    locations = [INF, Fraction(0), Fraction(1)]
    predicted = table_of(data)
    zero = formal.ExponentialFactor(Fraction(1))
    predicted[Fraction(1)] = {zero: [((0, 1), 1)]}
    _check_prediction(op, locations, predicted, 1)
    predicted[Fraction(1)] = {zero: [((1, 1), 1)]}
    with pytest.raises(CrossCheckError, match=r"^at 1: "):
        _check_prediction(op, locations, predicted, 1)


# -- predicted data of the twisted operand -----------------------------------------


def assert_twisted_chains_extracted(op, data, m, nu, t):
    """Predicted twisted formal data equals extraction of the operand the
    Euler transform acts on inside twisted_euler: factor j at point i
    moves to w_ij - w_it_i, exponents shift by the sum of the finite
    lambdas at infinity and by -lambda_i at finite points.  A point the
    twists make non-singular must be predicted as (0, rank) on the zero
    factor."""
    locations = data.locations()
    factor_table = [[w for w, _ in factors] for _, factors in data.points]
    lambdas = [nu.slot(i, t[i], 0).as_rat() for i in range(len(locations))]
    twisted = [[oracles.factor_difference(w, ws[t[i]]) for w in ws] for i, ws in enumerate(factor_table)]
    shifts = [sum(lambdas[1:], Fraction(0))] + [-lam for lam in lambdas[1:]]
    predicted = oracles.pair_table(oracles.chain_table(twisted, m, nu, shifts))
    operand = _conjugate(op, locations, factor_table, t, lambdas, -1)
    _check_prediction(operand, locations, predicted, m.rank)


def euler_step_states(p, result):
    """(operator, multiplicities, exponents, tuple) before each Euler step."""
    nu = formal.exponent_vector(result.initial)
    ops = iter((p,) + result.operators)
    cur = next(ops)
    states = []
    for step in result.transcript.steps:
        if step.kind == "permutation":
            nu = act_sigma_perm(nu, *step.index)
            continue
        states.append((cur, step.before, nu, step.index))
        nu = act_sigma_t(nu, step.index)
        cur = next(ops)
    return states


def hypergeometric(a, b):
    """theta * prod(theta + b_j - 1) - x * prod(theta + a_i), made primitive."""
    th = X * D
    left, right = th, X
    for bj in b:
        left = left * op_sum(th, bj - 1)
    for ai in a:
        right = right * op_sum(th, ai)
    return prim(op_sum(left, right, -1))


HYPERGEOMETRIC = [
    ([Fraction(1, 7), Fraction(2, 11)], [Fraction(1, 5)]),
    ([Fraction(1, 7), Fraction(2, 11), Fraction(3, 13)], [Fraction(1, 5), Fraction(1, 3)]),
    (
        [Fraction(1, 7), Fraction(2, 11), Fraction(3, 13), Fraction(5, 17)],
        [Fraction(1, 5), Fraction(1, 3), Fraction(1, 2)],
    ),
]


def test_twisted_chains_match_extraction_at_every_euler_step():
    # the hypotheses of each Euler step are read off predicted data; here
    # the prediction is checked against extraction of the twisted operand
    ops = [
        corpus.instantiate(name, corpus.params_for(name, seed, {}))
        for seed in range(8)
        for name in corpus.names()
    ]
    ops += [hypergeometric(a, b) for a, b in HYPERGEOMETRIC]
    steps = 0
    for p in ops:
        result = reduce_operator(p)
        for op, m, nu, t in euler_step_states(p, result):
            assert_twisted_chains_extracted(op, result.initial, m, nu, t)
            steps += 1
    assert steps == 8 + 1 + 2 + 3



PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def test_reduce_operator_high_rank_hypergeometric():
    # nF(n-1) at ranks 5 to 8: generic a_i, b_j with distinct prime denominators
    for n in range(5, 9):
        a = [Fraction(k + 1, PRIMES[k]) for k in range(n)]
        b = [Fraction(1, PRIMES[n + k]) for k in range(n - 1)]
        result = reduce_operator(hypergeometric(a, b))
        assert result.final.rank == 1
        assert result.transcript.verdict is Verdict.REAL_ROOT


def test_reduce_operator_irregular_kummer_ladder():
    # theta * prod(theta + b_j - 1) - x * prod(theta + a_i), n - 1 factors
    # each: at infinity the factor 0 with exponents a_i and the factor x
    # with exponent sum(b) - sum(a); at 0 the exponents 0 and 1 - b_j
    for n in range(2, 9):
        a = [Fraction(k + 1, PRIMES[k]) for k in range(n - 1)]
        b = [Fraction(1, PRIMES[n + k]) for k in range(n - 1)]
        op = hypergeometric(a, b)
        assert formal_table(op) == hypergeometric_formal_data(a, b, kummer=True), n
        result = reduce_operator(op)
        assert result.final.rank == 1
        assert result.transcript.verdict is Verdict.REAL_ROOT


def formal_table(op):
    """The extracted formal data of ``op``: (location, factor) -> sorted
    (exponent, multiplicity) chains."""
    return {
        (format_location(loc), tuple(sorted(w.coeffs.items()))): sorted(
            (lam.as_rat(), m) for lam, m in s.chains
        )
        for loc, factors in formal.extract_formal_data(op).points
        for w, s in factors
    }


def hypergeometric_formal_data(a, b, kummer):
    """The closed form of ``formal_table``: the a_i at infinity, 0 and
    1 - b_j at 0; for nF(n-1) the chain 0 of length n - 1 and sum(b) -
    sum(a) at 1, for the Kummer operator the factor x at infinity with
    sum(b) - sum(a)."""
    table = {
        ("inf", ()): sorted((ai, 1) for ai in a),
        ("0", ()): sorted([(Fraction(0), 1)] + [(1 - bj, 1) for bj in b]),
    }
    if kummer:
        table[("inf", ((1, 1),))] = [(sum(b) - sum(a), 1)]
    else:
        table[("1", ())] = sorted([(Fraction(0), len(b)), (sum(b) - sum(a), 1)])
    return table


def test_top_rung_of_the_reach_ladder():
    # nF(n-1) and the Kummer operator at n = 31, the largest rank whose
    # text x * prod(theta + a_i) parse accepts (degree 32 in x), built from
    # text with the parameters of the ladders in tools/digest.py: a_k =
    # (k + 1)/p_k and b_k = 1/p_(n+k), the primes from 7 on continued past 181
    n = 31
    primes = [p for p in range(7, 400) if all(p % q for q in range(2, isqrt(p) + 1))]
    assert len(primes) >= 2 * n - 1 and primes[38] == 181
    for kummer in (False, True):
        a = [Fraction(k + 1, primes[k]) for k in range(n - kummer)]
        b = [Fraction(1, primes[n + k]) for k in range(n - 1)]
        left = "".join(f"*(x*D + ({bj - 1}))" for bj in b)
        right = "".join(f"*(x*D + ({ai}))" for ai in a)
        op = prim(weylalg.parse(f"x*D{left} - x{right}"))
        assert op.rank == n
        assert formal_table(op) == hypergeometric_formal_data(a, b, kummer), kummer
        result = reduce_operator(op)
        assert result.final.rank == 1
        assert result.transcript.verdict is Verdict.REAL_ROOT


def test_twisted_chains_match_extraction_on_all_tuples():
    # every index tuple of the irregular entries, so that twists at
    # infinity and factors of every weight are predicted too
    for name in ("cHeun", "bHeun", "tHeun", "dHeun"):
        op = corpus.instantiate(name)
        data = formal.extract_formal_data(op)
        m, nu = formal.m_vector(data), formal.exponent_vector(data)
        for t in formal.to_shape(data).index_tuples():
            assert_twisted_chains_extracted(op, data, m, nu, t)


# -- the per-step cross-check --------------------------------------------------


def record_checks(monkeypatch):
    """Wrap the per-step cross-check: each call appends (operator,
    locations, predicted table, rank, root searches it ran) to the
    returned list."""
    calls, searches = [], []
    searched_roots, check = polys._searched_roots, reduction._check_prediction

    def counted(f):
        searches.append(f)
        return searched_roots(f)

    def record(op, locations, predicted, rank):
        before = len(searches)
        check(op, locations, predicted, rank)
        calls.append((op, locations, predicted, rank, len(searches) - before))

    monkeypatch.setattr(polys, "_searched_roots", counted)
    monkeypatch.setattr(reduction, "_check_prediction", record)
    return calls


def ladder(kummer):
    """nF(n-1), or the Kummer ladder with n - 1 parameters a_i, n = 2..8."""
    for n in range(2, 9):
        a = [Fraction(k + 1, PRIMES[k]) for k in range(n - kummer)]
        b = [Fraction(1, PRIMES[n + k]) for k in range(n - 1)]
        yield hypergeometric(a, b)


def test_euler_steps_run_no_root_search(monkeypatch, capsys):
    # every Euler step is checked by extraction, and that extraction
    # finds the predicted roots without a root search: on nF(n-1), on
    # the Kummer ladder, whose steps keep the factor x at infinity, on
    # its mirror image under x -> 1/x, whose steps keep the factor -1/x
    # at 0 (each factor hint carries the one sign the chart reads: the
    # coefficient at 0, its negative at infinity, where the chart runs in
    # the opposite orientation), on the corpus at seeds 0-40 and on the
    # forward draws of test_katz_forward
    calls = record_checks(monkeypatch)
    for op in ladder(False):
        reduce_operator(op)
    assert len(calls) == sum(range(1, 8))
    for op in ladder(True):
        reduce_operator(op)
    assert len(calls) == 2 * sum(range(1, 8))
    for op in ladder(True):
        mirrored = prim(subst_infty(op))
        assert formal.extract_formal_data(mirrored).points[1][1][-1][0].coeffs == {1: -1}
        reduce_operator(mirrored)
    assert len(calls) == 3 * sum(range(1, 8))
    for seed in range(41):
        assert cli.main(["examples", "--run", "--json", "--seed", str(seed)]) == 0
    capsys.readouterr()
    assert len(calls) == 3 * sum(range(1, 8)) + 41
    draws = 0
    for draw in test_katz_forward.forward_draws():
        if draw is not None and draw[0].rank > 1:
            reduce_operator(draw[0])
            draws += 1
    assert draws == 159 and len(calls) > 3 * sum(range(1, 8)) + 41 + draws
    assert [searches for *_, searches in calls] == [0] * len(calls)


def test_euler_step_checks_run_no_prim(monkeypatch):
    # twisted_euler returns a primitive operator, and its check extracts
    # it as it is
    prims, checks = [], []
    original, check = weylalg.prim, reduction._check_prediction

    def counted(p):
        prims.append(p)
        return original(p)

    def record(*args):
        before = len(prims)
        check(*args)
        checks.append(len(prims) - before)

    monkeypatch.setattr(weylalg, "prim", counted)
    monkeypatch.setattr(reduction, "_check_prediction", record)
    for op in ladder(False):
        reduce_operator(op)
    assert checks == [0] * sum(range(1, 8))
    assert len(prims) >= len(checks)


def table_of(data):
    """The chain table of extracted formal data."""
    return {
        loc: {w: sorted((lam.as_pair(), k) for lam, k in s.chains) for w, s in factors}
        for loc, factors in data.points
    }


def first_step_of_4f3(monkeypatch):
    """The first Euler step of 4F3: (operator, locations, predicted table,
    rank); at 1 the table reads [((a, b), 1), ((0, 1), 2)], beta = a/b < 0."""
    calls = record_checks(monkeypatch)
    reduce_operator(hypergeometric(*HYPERGEOMETRIC[2]))
    monkeypatch.undo()
    op, locations, predicted, rank, _ = calls[0]
    assert rank == 3
    return op, list(locations), predicted, rank


ONE = Fraction(1)


def shifted(table, locations):
    table[ONE] = {w: [((a + b, b), k) for (a, b), k in chains] for w, chains in table[ONE].items()}
    return locations


def swapped(table, locations):
    (w, [(beta, k1), (zero, k2)]), = table[ONE].items()
    table[ONE] = {w: [(beta, k2), (zero, k1)]}
    return locations


def split(table, locations):
    (w, [(beta, _), ((a, b), _)]), = table[ONE].items()
    table[ONE] = {w: [(beta, 1), ((a, b), 1), ((a + b, b), 1)]}
    return locations


def dropped(table, locations):
    (w, [chain, _]), = table[ONE].items()
    table[ONE] = {w: [chain]}
    return locations


def irregular(table, locations):
    (_, chains), = table[INF].items()
    table[INF] = {formal.ExponentialFactor(INF, {1: Fraction(1)}): chains}
    return locations


def missing(table, locations):
    del table[ONE]
    return locations[:2]


@pytest.mark.parametrize("wrong, message", [
    (shifted, r"^at 1: extracted "),
    (swapped, r"^at 1: extracted "),
    (split, r"^at 1: extracted "),
    (dropped, r"^at 1: extracted "),
    (irregular, r"^at inf: extracted \{ExponentialFactor\(inf: 0\)"),
    (missing, r"^unpredicted singular points: 1$"),
])
def test_wrong_prediction_fails_the_cross_check(monkeypatch, wrong, message):
    # the roots a wrong table names change the work of the extraction, not
    # its result: the message is the one an extraction without them gives
    op, locations, predicted, rank = first_step_of_4f3(monkeypatch)
    locations = wrong(predicted, locations)
    with pytest.raises(CrossCheckError, match=message) as hinted:
        _check_prediction(op, locations, predicted, rank)
    extract = formal.extract_primitive
    monkeypatch.setattr(formal, "extract_primitive", lambda op, hints: extract(op))
    with pytest.raises(CrossCheckError) as unhinted:
        _check_prediction(op, locations, predicted, rank)
    assert str(hinted.value) == str(unhinted.value)


def test_extra_root_of_the_leading_coefficient_fails_the_cross_check():
    # composing with x - 5 adds the root 5 to the leading coefficient; the
    # prediction is the extraction everywhere else
    moved, locations, _, rank = gauss_after_step()
    op = prim(moved * op_sum(X, 5, -1))
    data = formal.extract_formal_data(op)
    assert data.locations() == tuple(locations) + (Fraction(5),)
    predicted = table_of(data)
    _check_prediction(op, data.locations(), predicted, rank)
    with pytest.raises(CrossCheckError, match=r"^unpredicted singular points: 5$"):
        _check_prediction(op, locations, predicted, rank)


def random_balanced(rng, shape, max_rank=5):
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
