"""The spectral stage on integer pairs, against its ``Fraction`` forms.

``group_chains``, ``oshima_check``, the hinted loop of
``Poly.rational_roots`` with ``Poly.order_at``, and the separation check
of ``SpectralData`` work on the numerator and denominator of each value;
roots, hints and chain bases are coprime (numerator, denominator) pairs.
``tests/oracles.py`` keeps each as it was on ``Fraction`` values.  Every
case here compares the result, or the exception class and message, of
the two on seeded random inputs: root dicts with repeated roots, unit and
non-unit gaps, negative and integer roots and denominators up to 10^12 +
39, and bases a float cannot tell apart; theta expansions built with
known chains and of random operators, each also with one term perturbed;
shuffled hint lists with repeats, non-roots and 0, and roots of
4000-digit numerals; and chain bases, constant and with parameters, some
a whole number apart.

Extraction returns its local data as pairs; the last test builds
everything it peels from the corpus, the bench's analyze texts, the
random operators, the forward draws and the step checks of two ladders
through the constructors' checks.
"""

import contextlib
import random
from fractions import Fraction
from itertools import product

import pytest

import oracles
import test_katz_forward
import test_random_operators
from conftest import bench_texts, outcome
from irrkatz import corpus, formal, polys, weylalg
from irrkatz.formal import ExtractionError, FormalData, SpectralData, group_chains, oshima_check
from irrkatz.polys import Poly
from irrkatz.reduce import reduce_operator
from irrkatz.scalar import ParamExpr
from irrkatz.weylalg import INF, IrrationalSingularityError, ThetaExpansion, parse
from test_polys import random_root_poly
from test_random_operators import random_operator_text
from test_row_kernels import _hypergeometric

#: Denominators of random roots and bases, one of them a 40-bit prime.
DENOMINATORS = (1, 1, 2, 3, 6, 10, 10**12 + 39)


def _random_roots(rng: random.Random) -> dict[Fraction, int]:
    """Chains of roots, a unit apart, in a few residue classes, some with a
    gap of 2-3 or a repeated root, inserted in shuffled order."""
    roots = {}
    for _ in range(rng.randint(1, 4)):
        b = rng.choice(DENOMINATORS)
        start = Fraction(rng.randint(-5 * b, 5 * b), b)
        for v in range(rng.randint(1, 3)):
            roots[start + v] = 1
        if rng.random() < 0.15:
            roots[start + rng.randint(3, 5)] = 1
    items = list(roots.items())
    if rng.random() < 0.1:
        k = rng.randrange(len(items))
        items[k] = (items[k][0], 2)
    rng.shuffle(items)
    return dict(items)


def _same_grouping(roots: dict[Fraction, int]):
    """``group_chains`` of the roots as pairs, checked against the oracle
    on the ``Fraction``s: the same chains, bases as coprime pairs, or the
    same error."""
    got = outcome(group_chains, oracles.pair_keys(roots))
    want = outcome(oracles.group_chains, roots)
    if want[0] == "ok":
        want = "ok", [((lam.numerator, lam.denominator), m) for lam, m in want[1]]
    assert got == want, roots
    if got[0] == "ok":
        assert all(type(a) is int and type(b) is int for (a, b), _ in got[1]), roots
    return got


def test_group_chains_matches_the_fraction_oracle():
    rng = random.Random(35)
    outcomes = {}
    for _ in range(3000):
        got = _same_grouping(_random_roots(rng))
        outcomes[got[0]] = outcomes.get(got[0], 0) + 1
    # both refusals and many groupings are exercised
    assert outcomes["ok"] > 1000 and outcomes[formal.OshimaCheckError] > 300, outcomes


def test_group_chains_orders_bases_no_float_tells_apart():
    # (10^30 + 2)/(10^30 + 1) < (10^30 + 1)/10^30, both 1.0 as floats, each
    # with a chain, in both insertion orders and beside 1
    big = 10**30
    lo, hi = Fraction(big + 2, big + 1), Fraction(big + 1, big)
    assert float(lo) == float(hi) and lo < hi
    for roots in ([lo, hi], [hi, lo], [hi + 1, lo, hi, lo + 1, Fraction(1)]):
        got = _same_grouping(dict.fromkeys(roots, 1))
        assert got[0] == "ok" and [Fraction(*base) for base, _ in got[1]][-2:] == [lo, hi]
    # a non-unit gap in such a class is named with the same text
    assert _same_grouping({hi: 1, hi + 2: 1})[0] is formal.OshimaCheckError


def _theta_with_chains(rng: random.Random, chains) -> ThetaExpansion:
    """Terms r, r + 1, ...: term r + u vanishes at lam, ..., lam + m - u - 1
    of every chain (lam, m), times a random factor; one more random term."""
    r = rng.randint(-2, 2)
    terms = []
    for u in range(max(m for _, m in chains) + 1):
        term = Poly([Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)), rng.randint(0, 2)])
        for lam, m in chains:
            for v in range(m - u):
                term = term * Poly([-(lam + v), 1])
        terms.append((r + u, term))
    return ThetaExpansion(0, tuple(terms))


def _perturbed(rng: random.Random, theta: ThetaExpansion, data: SpectralData) -> ThetaExpansion:
    """``theta`` with a random nonzero constant added to one of the terms
    that the check of ``data`` reads."""
    terms = list(theta.terms)
    depth = max(m for _, m in data.chains)
    k = rng.randrange(sum(i < theta.min_index + depth for i, _ in terms))
    i, term = terms[k]
    terms[k] = (i, term + Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3)))
    return ThetaExpansion(theta.point, tuple(terms))


def _same_check(theta, data):
    """``oshima_check`` of the chains of ``data`` as pairs against the
    oracle on ``data``; a base with a parameter has no pair, and reading
    one is refused with the oracle's error."""
    got = outcome(lambda: oshima_check(theta, [(lam.as_pair(), m) for lam, m in data.chains]))
    assert got == outcome(oracles.oshima_check, theta, data), (theta, data)
    return got


def test_oshima_check_matches_the_evaluation_oracle_on_built_expansions():
    rng = random.Random(36)
    for _ in range(600):
        chains = [(Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS)), rng.randint(1, 3))]
        if rng.random() < 0.8:
            got = outcome(oracles.group_chains, _random_roots(rng))
            chains = got[1] if got[0] == "ok" else chains
        data = SpectralData(chains)
        theta = _theta_with_chains(rng, chains)
        assert _same_check(theta, data) == ("ok", True)
        # a term the check reads no longer vanishes at any point
        assert _same_check(_perturbed(rng, theta, data), data) == ("ok", False)
    # a base with a parameter is refused by both, with one message
    theta = _theta_with_chains(rng, [(Fraction(1, 2), 1)])
    data = SpectralData([(ParamExpr.param("a"), 1)])
    assert _same_check(theta, data)[0] is ValueError


def test_oshima_check_matches_the_evaluation_oracle_on_random_operators():
    rng = random.Random(2)
    verdicts = dict.fromkeys(product((True, False), repeat=2), 0)
    failed = 0
    for _ in range(400):
        p = parse(random_operator_text(rng))
        if not p._rows[0]:
            continue
        p = weylalg.prim(p)
        try:
            points = [INF] + weylalg.singular_points(p)
        except (ExtractionError, IrrationalSingularityError):
            continue
        for at in points:
            theta = weylalg.theta_expand(weylalg.local_chart(p, at), 0)
            char = weylalg.char_poly(theta)
            roots = char.rational_roots()
            if not roots or sum(roots.values()) != char.degree:
                continue
            try:
                chains = group_chains(roots)
            except formal.OshimaCheckError:
                continue
            data = SpectralData([(Fraction(a, b), m) for (a, b), m in chains])
            verdicts[_same_check(theta, data)[1], max(m for _, m in data.chains) > 1] += 1
            failed += _same_check(_perturbed(rng, theta, data), data) == ("ok", False)
    # passes with chains of length 1 and longer, and failures with longer
    # ones (chains of length 1 impose only the roots)
    assert failed > 500 and verdicts.pop((False, False)) == 0, (failed, verdicts)
    assert min(verdicts.values()) > 100, verdicts


def test_hinted_roots_and_orders_match_the_fraction_oracle(monkeypatch):
    rng = random.Random(37)
    searches = []
    searched_roots = polys._searched_roots

    def counted(f):
        searches.append(f)
        return searched_roots(f)

    monkeypatch.setattr(polys, "_searched_roots", counted)

    def same(p, hints):
        """The roots of ``p`` with the hints as pairs against the oracle on
        ``Fraction``s; whether the search ran."""
        searches.clear()
        got = p.rational_roots(oracles.pairs(hints))
        new_searches = len(searches)
        searches.clear()
        want = oracles.pair_keys(oracles.hinted_rational_roots(p, hints))
        assert list(got.items()) == list(want.items()), (p, hints)
        assert new_searches == len(searches), (p, hints)
        return new_searches

    skipped = 0
    for _ in range(400):
        p = random_root_poly(rng)
        roots = list(oracles.fraction_keys(p.rational_roots()))
        non_roots = [Fraction(rng.randint(-99, 99), rng.choice(DENOMINATORS)) for _ in range(3)]
        hints = roots * rng.randint(0, 2) + non_roots[: rng.randint(0, 3)]
        hints += [int(r) for r in roots if r.denominator == 1 and rng.random() < 0.5]
        hints += [0] * rng.randint(0, 1)
        hints = hints[: rng.randint(0, len(hints))] if rng.random() < 0.3 else hints
        rng.shuffle(hints)
        skipped += not same(p, hints)
        assert p.rational_roots() == oracles.pair_keys(
            oracles.FractionPoly(p.coeffs).rational_roots()), p
        for c in hints + [0, Fraction(0)]:
            assert p.order_at(c) == oracles.order_at(p, c), (p, c)
    assert skipped > 100, skipped
    # the negative roots of 2000-digit numerators and denominators of a
    # quadratic with 4000-digit numerals, times x; c/d is no root
    a, b, c, d = (rng.randrange(10**1999, 10**2000) for _ in range(4))
    p = Poly([a * c, a * d + b * c, b * d]) * Poly.x()
    assert p.rational_roots() == oracles.pair_keys(oracles.FractionPoly(p.coeffs).rational_roots())
    roots = [Fraction(-a, b), Fraction(-c, d), Fraction(0)]
    for hints in (roots, roots[::-1] * 2, [Fraction(c, d)] + roots, roots[1:], []):
        same(p, hints)


def _random_bases(rng: random.Random) -> list:
    """Chain bases: constants and a + c, a + b + c, 2a + c, some a whole
    number apart from an earlier one."""
    params = [ParamExpr(), ParamExpr.param("a"), ParamExpr.param("a") + ParamExpr.param("b"),
              ParamExpr.param("a") * 2]
    bases = []
    for _ in range(rng.randint(1, 5)):
        if bases and rng.random() < 0.3:
            base = ParamExpr.of(rng.choice(bases)) + rng.randint(-3, 3)
        else:
            base = rng.choice(params) + Fraction(rng.randint(-20, 20), rng.choice(DENOMINATORS))
        bases.append(base if base.terms or rng.random() < 0.5 else base.as_rat())
    return bases


def test_spectral_data_separation_matches_the_pairwise_oracle():
    rng = random.Random(38)
    refused = 0
    for _ in range(2000):
        chains = [(lam, rng.randint(1, 3)) for lam in _random_bases(rng)]
        got = outcome(SpectralData, chains)
        want = outcome(oracles.check_chain_bases, chains)
        if want[0] == "ok":
            assert got[0] == "ok" and got[1].chains == tuple(
                (ParamExpr.of(lam), m) for lam, m in chains), chains
        else:
            assert got == want, chains
            refused += 1
    assert refused > 300, refused


def test_spectral_data_names_the_first_pair():
    # A, B, B', A': the pairs (0, 3) and (1, 2) both differ by an integer;
    # the message names (0, 3), as the walk over all pairs finds it first
    a = ParamExpr.param("a")
    for bases in ([Fraction(1, 3), Fraction(1, 2), Fraction(-1, 2), Fraction(4, 3)],
                  [a + Fraction(1, 3), a, a + 5, a - Fraction(2, 3)]):
        with pytest.raises(ValueError) as info:
            SpectralData([(lam, 1) for lam in bases])
        assert str(info.value) == (
            f"chain bases {ParamExpr.of(bases[0])} and {ParamExpr.of(bases[3])} "
            "differ by an integer")


def test_extracted_data_passes_the_constructors_checks(monkeypatch):
    # extraction returns its local data as pairs; every datum peeled here
    # builds through the checking constructors and reads back as the same
    # pairs: the corpus at seeds 0-40, the accepted analyze texts of the
    # bench at seeds 0-4, the random operators and the forward draws of
    # their tests, and every step check of nF(n-1) and Kummer for n = 2..8
    extracted = []
    extract = formal.extract_primitive

    def kept(*args):
        points = extract(*args)
        extracted.append(points)
        return points

    monkeypatch.setattr(formal, "extract_primitive", kept)
    refused = (ExtractionError, IrrationalSingularityError)
    for name in corpus.names():
        for seed in range(41):
            formal.extract_formal_data(corpus.instantiate(name, corpus.params_for(name, seed)))
    for text in bench_texts("analyze_mix", seeds=range(5)):
        with contextlib.suppress(refused):
            formal.extract_formal_data(parse(text))
    rng = random.Random(test_random_operators.SEED)
    for _ in range(test_random_operators.DRAWS):
        p = parse(random_operator_text(rng))
        if p._rows[0]:
            with contextlib.suppress(refused):
                formal.extract_formal_data(p)
    for draw in test_katz_forward.forward_draws():
        if draw:
            formal.extract_formal_data(draw[0])
    steps = len(extracted)
    for kummer in (False, True):
        for n in range(2, 9):
            reduce_operator(_hypergeometric(n, kummer))
    assert len(extracted) - steps > 60 and steps > 600, (steps, len(extracted))
    for points in extracted:
        data = FormalData([
            (at, [(w, SpectralData([(Fraction(a, b), m) for (a, b), m in chains]))
                  for w, chains in factors])
            for at, factors in points
        ])
        assert [
            (at, [(w, [(lam.as_pair(), m) for lam, m in s.chains]) for w, s in factors])
            for at, factors in data.points
        ] == [(at, list(factors)) for at, factors in points]
