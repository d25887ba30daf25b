import random
from fractions import Fraction

import pytest

from conftest import random_poly_op
from irrkatz import corpus, formal, weylalg
from irrkatz.formal import (
    ExponentialFactor,
    FormalData,
    OshimaCheckError,
    RamifiedPointError,
    SpectralData,
    exponent_vector,
    extract_formal_data,
    factor_weight_diff,
    from_json,
    fuchs_defect,
    group_chains,
    m_vector,
    oshima_check,
    to_json,
    to_shape,
)
from irrkatz.polys import Poly
from irrkatz.scalar import ParamExpr
from irrkatz.weylalg import INF, ThetaExpansion, ad_power, parse, prim
from oracles import RatFunc, factor_difference, instance_formal_data, leibniz_product, operator

ZERO = Fraction(0)


# -- domain types -------------------------------------------------------------


def test_exponential_factor_invariants():
    w = ExponentialFactor(INF, {1: Fraction(2), 3: Fraction(1)})
    assert w.degree == 3
    assert ExponentialFactor(INF).degree == 0
    with pytest.raises(ValueError):
        ExponentialFactor(INF, {0: Fraction(1)})
    w2 = ExponentialFactor(INF, {1: Fraction(2)})
    assert factor_weight_diff(w, w2) == -3
    assert factor_weight_diff(w, w) == 0
    assert factor_weight_diff(w, ExponentialFactor(INF, {1: Fraction(5), 3: Fraction(1)})) == -1


def test_factor_weight_diff_is_the_degree_of_the_difference():
    # the closed form against the factor w1 - w2 built coefficient by
    # coefficient: equal, disjoint and shared orders, equal and unequal tops
    rng = random.Random(36)
    for point in (INF, Fraction(0), Fraction(-1, 2)):
        factors = [
            ExponentialFactor(point, {
                k: Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                for k in rng.sample(range(1, 5), rng.randint(0, 3))
            })
            for _ in range(40)
        ]
        for w1 in factors:
            for w2 in factors:
                assert factor_weight_diff(w1, w2) == -factor_difference(w1, w2).degree, (w1, w2)


def test_spectral_data_separation():
    a = ParamExpr.param("a")
    SpectralData([(a, 1), (a + Fraction(1, 2), 2)])
    with pytest.raises(ValueError):
        SpectralData([(a, 1), (a + 2, 1)])
    with pytest.raises(ValueError):
        SpectralData([(Fraction(0), 0)])


def test_formal_data_requires_balanced_ranks():
    w0 = ExponentialFactor(INF)
    wf = ExponentialFactor(ZERO)
    with pytest.raises(ValueError):
        FormalData([
            (INF, [(w0, SpectralData([(Fraction(1, 2), 2)]))]),
            (ZERO, [(wf, SpectralData([(Fraction(1, 3), 1)]))]),
        ])
    data = FormalData([
        (INF, [(w0, SpectralData([(Fraction(1, 2), 1)]))]),
        (ZERO, [(wf, SpectralData([(Fraction(1, 3), 1)]))]),
    ])
    assert data.rank == 1


def test_index_set_sizes():
    assert len(to_shape(corpus.symbolic_formal_data("Heun")).index_tuples()) == 1
    assert len(to_shape(corpus.symbolic_formal_data("cHeun")).index_tuples()) == 2
    assert len(to_shape(corpus.symbolic_formal_data("dHeun")).index_tuples()) == 4


# -- chain grouping and the triangular check -------------------------------------


def test_group_chains():
    assert group_chains({Fraction(0): 1, Fraction(1): 1, Fraction(1, 2): 1}) == [
        (Fraction(0), 2),
        (Fraction(1, 2), 1),
    ]
    with pytest.raises(OshimaCheckError):
        group_chains({Fraction(0): 2})
    with pytest.raises(OshimaCheckError):
        group_chains({Fraction(0): 1, Fraction(2): 1})


def test_oshima_check_examples():
    exp = ThetaExpansion(ZERO, ((0, Poly([0, -1, 1])), (1, Poly([0, 1]))))
    assert oshima_check(exp, SpectralData([(Fraction(0), 2)]))
    # m = 1 chains impose only root conditions
    exp2 = ThetaExpansion(ZERO, ((0, Poly([0, 1]) * Poly([-Fraction(1, 2), 1])),))
    assert oshima_check(exp2, SpectralData([(Fraction(0), 1), (Fraction(1, 2), 1)]))
    # violating witness: p_{r+1}(lam_1) != 0 with m_1 = 2
    bad = ThetaExpansion(ZERO, ((0, Poly([0, -1, 1])), (1, Poly([1, 1]))))
    assert not oshima_check(bad, SpectralData([(Fraction(0), 2)]))


# -- extraction -------------------------------------------------------------------


def test_extract_first_order():
    data = extract_formal_data(parse("x*D - 5"))
    assert data.locations() == (INF, ZERO)
    (w_inf, s_inf), = data.points[0][1]
    (w_0, s_0), = data.points[1][1]
    assert w_inf.is_zero() and w_0.is_zero()
    assert s_0.chains == ((ParamExpr(5), 1),)
    assert s_inf.chains == ((ParamExpr(-5), 1),)


def test_extract_confluent_heun_instance():
    # c = 1/3, d = 1/5, a = 1/7, t = 2
    data = extract_formal_data(corpus.instantiate("cHeun"))
    factors = data.points[0][1]
    assert factors[0][0].is_zero()
    assert factors[0][1].chains == ((ParamExpr(Fraction(1, 7)), 1),)
    assert factors[1][0] == ExponentialFactor(INF, {1: Fraction(2)})
    assert factors[1][1].chains == ((ParamExpr(Fraction(41, 105)), 1),)


def test_extract_triconfluent_factor_degrees():
    data = extract_formal_data(parse("D^2 + (-x^2-7)*D + (-2*x+3)"))
    assert data.locations() == (INF,)
    degrees = sorted(w.degree for w, _ in data.points[0][1])
    assert degrees == [0, 3]
    by_degree = {w.degree: s for w, s in data.points[0][1]}
    assert by_degree[0].chains == ((ParamExpr(2), 1),)
    assert by_degree[3].chains == ((ParamExpr(0), 1),)


def test_extract_multiplicity_two_chain():
    # D^2 has exponents 0 and -1 at infinity: a single chain of length 2
    data = extract_formal_data(parse("D^2"))
    assert data.locations() == (INF,)
    (w, s), = data.points[0][1]
    assert w.is_zero()
    assert s.chains == ((ParamExpr(-1), 2),)


def test_extract_multiple_factors_on_one_slope():
    # the slope-2 boundary polynomial has the two roots +-1, giving two
    # distinct degree-2 factors plus the moderate one
    data = extract_formal_data(parse("D^3 - x^2*D"))
    ws = [w.coeffs for w, _ in data.points[0][1]]
    assert ws == [{}, {2: Fraction(-1)}, {2: Fraction(1)}]
    assert [s.rank for _, s in data.points[0][1]] == [1, 1, 1]
    assert fuchs_defect(data).is_zero()


def test_extract_matches_symbolic_tables():
    for name in corpus.names():
        data = extract_formal_data(corpus.instantiate(name))
        assert data == instance_formal_data(name), name


def test_extraction_expands_each_chart_once(monkeypatch):
    calls = {"theta_expand": 0, "_peel_factors": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(weylalg, "theta_expand")
    counted(formal, "_peel_factors")
    ops = [corpus.instantiate(name) for name in corpus.names()]
    ops += [parse("D^2 + (-x^2-7)*D + (-2*x+3)"), parse("D^3 - x^2*D")]
    points = 0
    for op in ops:
        data = extract_formal_data(op)
        points += len(data.locations())
    # the twisted charts of the irregular points are peeled too
    assert calls["_peel_factors"] > points
    assert calls["theta_expand"] == calls["_peel_factors"]


def test_extract_ramified_rejected():
    with pytest.raises(RamifiedPointError):
        extract_formal_data(parse("D^2 - x"))       # Airy, slope 3/2


def test_extract_stable_under_prim_and_shifts():
    p = corpus.instantiate("Gauss")
    data = extract_formal_data(p)
    scaled = leibniz_product(operator([RatFunc(Poly([3, 1]), Poly([0, 1]))]), p)
    assert extract_formal_data(scaled) == data
    # integer shift at 0 keeps the residue classes, moving chain structure
    shifted = extract_formal_data(prim(ad_power(p, ZERO, Fraction(1, 9))))
    chains0 = {lam.as_rat() for lam, _ in shifted.points[1][1][0][1].chains}
    original = {lam.as_rat() for lam, _ in data.points[1][1][0][1].chains}
    assert chains0 == {lam + Fraction(1, 9) for lam in original}


def test_extract_integer_shift_keeps_residues():
    p = corpus.instantiate("Gauss")
    data = extract_formal_data(p)
    shifted = extract_formal_data(prim(ad_power(p, ZERO, Fraction(2))))

    def residues(factors):
        out = set()
        for _, s in factors:
            for lam, _ in s.chains:
                r = lam.as_rat()
                out.add(r - (r.numerator // r.denominator))
        return out

    assert residues(shifted.points[1][1]) == residues(data.points[1][1])


def test_extract_shift_at_other_points_fixed():
    p = corpus.instantiate("Gauss")
    data = extract_formal_data(p)
    shifted = extract_formal_data(prim(ad_power(p, Fraction(1), Fraction(1, 9))))
    assert shifted.points[1][1] == data.points[1][1][0:0] + shifted.points[1][1]
    # exponents at 1 move by exactly the shift
    moved = {lam.as_rat() for lam, _ in shifted.points[2][1][0][1].chains}
    base = {lam.as_rat() for lam, _ in data.points[2][1][0][1].chains}
    assert moved == {lam + Fraction(1, 9) for lam in base}


def test_extraction_fuzz_total_and_fuchs():
    # on arbitrary random operators, extraction either succeeds (and then
    # the exponent-sum relation holds, ranks balance and JSON round-trips)
    # or fails through one of the designated error classes
    import random

    from irrkatz.formal import ExtractionError
    from irrkatz.weylalg import IrrationalSingularityError

    rng = random.Random(99)
    succeeded = 0
    for _ in range(200):
        op = operator(
            Poly([Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))])
            for _ in range(rng.randint(2, 4))
        )
        if op.is_zero() or op.rank < 1:
            continue
        try:
            data = extract_formal_data(op)
        except (ExtractionError, IrrationalSingularityError):
            continue
        succeeded += 1
        assert fuchs_defect(data).is_zero()
        assert len({sum(s.rank for _, s in fs) for _, fs in data.points}) == 1
        assert from_json(to_json(data)) == data
    assert succeeded > 40


def test_laplace_image_local_data():
    # the Laplace transform trades a finite point c carrying a moderate
    # factor with a zero-based chain for a factor with exponential part
    # -c*x at infinity; the zero chain drops, the other chains survive
    # with their multiplicities and exponents shifted by -1 (exponents
    # compared modulo the integers: spectra are classes mod Z)
    from irrkatz.weylalg import laplace

    op = corpus.instantiate("Gauss")
    a, b, c = (corpus.get("Gauss").defaults[k] for k in "abc")
    data = extract_formal_data(prim(laplace(op)))
    by_w = {w: s for w, s in data.points[0][1]}
    zero = by_w[ExponentialFactor(INF)]
    minus_x = by_w[ExponentialFactor(INF, {1: Fraction(-1)})]
    assert zero.rank == 1 and minus_x.rank == 1
    # from x = 0 with chains (0, 1-c): survivor is 1-c, shifted by -1
    assert (zero.chains[0][0].as_rat() - (-c)).denominator == 1
    # from x = 1 with chains (0, c-a-b): survivor is c-a-b, shifted by -1
    assert (minus_x.chains[0][0].as_rat() - (c - a - b - 1)).denominator == 1


def test_rank_consistency_across_points():
    for name in corpus.names():
        data = extract_formal_data(corpus.instantiate(name))
        ranks = {sum(s.rank for _, s in factors) for _, factors in data.points}
        assert ranks == {2}


# -- Fuchs relation ---------------------------------------------------------------


def test_fuchs_defect_examples():
    assert fuchs_defect(corpus.symbolic_formal_data("Heun")).is_zero()
    rank1 = FormalData([
        (INF, [(ExponentialFactor(INF), SpectralData([(Fraction(0), 1)]))]),
        (ZERO, [(ExponentialFactor(ZERO), SpectralData([(Fraction(0), 1)]))]),
    ])
    assert fuchs_defect(rank1).is_zero()
    eps = ParamExpr.param("eps")
    sym = corpus.symbolic_formal_data("Heun")
    perturbed_points = []
    for loc, factors in sym.points:
        fs = []
        for w, s in factors:
            chains = list(s.chains)
            if loc is INF:
                chains[0] = (chains[0][0] + eps, chains[0][1])
            fs.append((w, SpectralData(chains)))
        perturbed_points.append((loc, fs))
    assert fuchs_defect(FormalData(perturbed_points)) == eps


def test_fuchs_defect_zero_on_extracted_corpus():
    for name in corpus.names():
        data = extract_formal_data(corpus.instantiate(name))
        assert fuchs_defect(data).is_zero(), name


# -- JSON ---------------------------------------------------------------------------


def test_json_round_trip_bit_exact():
    for name in corpus.names():
        data = extract_formal_data(corpus.instantiate(name))
        text = to_json(data)
        assert from_json(text) == data
        assert to_json(from_json(text)) == text


def test_json_golden_first_order():
    data = extract_formal_data(parse("x*D - 5"))
    assert to_json(data) == (
        '{"points":[{"location":"inf","factors":[{"w":[],"spectral":[["-5",1]]}]},'
        '{"location":"0","factors":[{"w":[],"spectral":[["5",1]]}]}]}'
    )


def test_json_malformed():
    with pytest.raises(ValueError):
        from_json("{}")
    with pytest.raises(ValueError):
        from_json('{"points": [{"location": "nope", "factors": []}]}')


# -- bridges ----------------------------------------------------------------------


def test_shape_and_vectors_from_formal_data():
    data = corpus.symbolic_formal_data("cHeun")
    shape = to_shape(data)
    assert shape.chain_lengths == ((1, 1), (2,), (2,))
    assert shape.weights[0][0][1] == -1
    m = m_vector(data)
    assert m.to_text() == "1;1|1,1|1,1"
    nu = exponent_vector(data)
    assert nu.slot(0, 0, 0) == ParamExpr.param("a")
