"""Seeded input generators for the four benchmark workloads.

Nothing here imports irrkatz: every instance is plain text or nested
integer tuples, and every expected result is computed from a closed form
in this file.  The same seed gives the same instances on every commit, so
only the program under test changes between two runs.

Each generator yields passes without end; a pass is a list of instances,
each a JSON-serializable dict that is enough to rerun it by hand.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from itertools import product
from typing import Iterator

# Denominators of the hypergeometric parameters: the seven smallest primes.
# A rank-n instance draws 2n-1 distinct ones, so rank 4 always uses the
# whole pool and its coefficient sizes are the same for every seed.
HYP_PRIMES = (2, 3, 5, 7, 11, 13, 17)
# Ranks of one hyp_ladder pass.
HYP_PASS = (2, 3, 4)

# Corpus instances in analyze_mix use large prime denominators, as the
# built-in corpus does for its own random seeds.
CORPUS_PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149)
LOCATION_POOL = (2, 3, 4, 5, -1, -2, -3)

# examples --run passes at corpus seeds 1..40 (seed 0 is the default).  A
# 25 s run at this commit makes about 45 passes, so it covers all of 1..30.
CORPUS_SEEDS = range(1, 31)
CORPUS_NAMES = ("Heun", "cHeun", "bHeun", "tHeun", "dHeun", "Gauss")

# Lattice ladder rungs: (number of points, factors per point, instances per
# pass).  Tuple nodes number factors^points: 8, 16, 81, 243, 729, 1024.
LATTICE_RUNGS = ((3, 2, 2), (4, 2, 2), (4, 3, 2), (5, 3, 2), (6, 3, 1), (5, 4, 1))


# -- formal-data JSON in the program's canonical form ---------------------------


def formal_json(points) -> str:
    """``points``: [(location text, [(w items, [(lam, m), ...]), ...]), ...]
    with infinity first and finite points ascending; factors and chains are
    sorted here the way extraction sorts them."""
    doc = {"points": []}
    for loc, factors in points:
        factors = sorted(factors, key=lambda f: (f[0][-1][0] if f[0] else 0, f[0]))
        doc["points"].append({
            "location": loc,
            "factors": [
                {
                    "w": [[k, str(v)] for k, v in w],
                    "spectral": [[str(lam), m] for lam, m in sorted(chains)],
                }
                for w, chains in factors
            ],
        })
    return json.dumps(doc, separators=(",", ":"))


def _finite(points):
    """Infinity first, then finite points in ascending order."""
    inf = [p for p in points if p[0] == "inf"]
    fin = sorted((p for p in points if p[0] != "inf"), key=lambda p: Fraction(p[0]))
    return inf + [(str(loc), f) for loc, f in fin]


def _generic(rng: random.Random, primes, count: int) -> list[Fraction]:
    """``count`` rationals in (0, 1) with distinct prime denominators, so
    no signed sum of distinct ones is an integer."""
    return [Fraction(rng.randint(1, d - 1), d) for d in rng.sample(primes, count)]


# -- generalized hypergeometric operators --------------------------------------


def hyp_text(a, b) -> str:
    """theta * prod(theta + b_j - 1) - x * prod(theta + a_i)."""
    text = "(x*D)"
    for bj in b:
        text += f"*(x*D + ({bj - 1}))"
    text += " - x"
    for ai in a:
        text += f"*(x*D + ({ai}))"
    return text


def hyp_formal(a, b) -> str:
    """a_i at infinity; 0 and 1 - b_j at 0; a chain at 0 of length n - 1
    and sum(b) - sum(a) at 1."""
    n = len(a)
    return formal_json([
        ("inf", [((), [(ai, 1) for ai in a])]),
        ("0", [((), [(Fraction(0), 1)] + [(1 - bj, 1) for bj in b])]),
        ("1", [((), [(Fraction(0), n - 1), (sum(b) - sum(a), 1)])]),
    ])


def hyp_instance(rng: random.Random, n: int) -> dict:
    vals = _generic(rng, HYP_PRIMES, 2 * n - 1)
    a, b = vals[:n], vals[n:]
    return {
        "rank": n,
        "a": [str(v) for v in a],
        "b": [str(v) for v in b],
        "op": hyp_text(a, b),
        "formal": hyp_formal(a, b),
    }


def gen_hyp_ladder(seed: int) -> Iterator[list[dict]]:
    """Each pass: the ranks of HYP_PASS, ascending."""
    rng = random.Random(seed)
    while True:
        yield [hyp_instance(rng, n) for n in HYP_PASS]


# -- the built-in corpus --------------------------------------------------------


def gen_corpus(seed: int) -> Iterator[list[dict]]:
    """Every corpus entry once per pass, at one corpus seed per pass; the
    corpus seeds come in seed-shuffled order without repeats, and the
    entry order is shuffled per pass."""
    rng = random.Random(seed)
    while True:
        for s in rng.sample(CORPUS_SEEDS, len(CORPUS_SEEDS)):
            names = list(CORPUS_NAMES)
            rng.shuffle(names)
            yield [{"name": name, "seed": s} for name in names]


# Templates of the corpus operators and their formal data in closed form.
_TEMPLATES = {
    "Heun": (
        "x*(x-1)*(x-t)*D^2"
        " + (c*(x-1)*(x-t) + d*x*(x-t) + (a+b+1-c-d)*x*(x-1))*D"
        " + (a*b*x - lam)"
    ),
    "cHeun": "x*(x-1)*D^2 + (-t*x*(x-1) + c*(x-1) + d*x)*D + (-t*a*x + lam)",
    "bHeun": "x*D^2 + (-x^2 - t*x + c)*D + (-a*x + lam)",
    "tHeun": "D^2 + (-x^2 - t)*D + (-a*x + lam)",
    "dHeun": "x^2*D^2 + (-x^2 + c*x + t)*D + (-a*x + lam)",
    "Gauss": "x*(x-1)*D^2 + ((a+b+1)*x - c)*D + a*b",
}
_PARAMS = {
    "Heun": "abcd", "cHeun": "acd", "bHeun": "ac", "tHeun": "a",
    "dHeun": "ac", "Gauss": "abc",
}


def _corpus_formal(name: str, p: dict) -> str:
    a, b, c, d, t = (p.get(k) for k in "abcdt")
    zero = Fraction(0)
    moderate = lambda *lams: ((), [(lam, 1) for lam in lams])  # noqa: E731
    if name == "Heun":
        points = [
            ("inf", [moderate(a, b)]), (0, [moderate(zero, 1 - c)]),
            (1, [moderate(zero, 1 - d)]), (t, [moderate(zero, c + d - a - b)]),
        ]
    elif name == "cHeun":
        points = [
            ("inf", [moderate(a), (((1, t),), [(c + d - a, 1)])]),
            (0, [moderate(zero, 1 - c)]), (1, [moderate(zero, 1 - d)]),
        ]
    elif name == "bHeun":
        points = [
            ("inf", [moderate(a), (((1, t), (2, Fraction(1))), [(c + 1 - a, 1)])]),
            (0, [moderate(zero, 1 - c)]),
        ]
    elif name == "tHeun":
        points = [("inf", [moderate(a), (((1, t), (3, Fraction(1))), [(2 - a, 1)])])]
    elif name == "dHeun":
        points = [
            ("inf", [moderate(a), (((1, Fraction(1)),), [(c - a, 1)])]),
            (0, [moderate(zero), (((1, -t),), [(2 - c, 1)])]),
        ]
    else:
        points = [
            ("inf", [moderate(a, b)]), (0, [moderate(zero, 1 - c)]),
            (1, [moderate(zero, c - a - b)]),
        ]
    return formal_json(_finite(points))


def _subst(template: str, params: dict) -> str:
    names = sorted(params, key=len, reverse=True)
    pattern = r"\b(" + "|".join(re.escape(n) for n in names) + r")\b"
    return re.sub(pattern, lambda m: f"({params[m.group(0)]})", template)


def corpus_instance(rng: random.Random, name: str) -> dict:
    keys = _PARAMS[name]
    vals = _generic(rng, CORPUS_PRIMES, len(keys) + 1)
    params = dict(zip(keys, vals))
    params["lam"] = vals[-1]
    params["t"] = Fraction(rng.choice(LOCATION_POOL))
    return {
        "kind": name,
        "op": _subst(_TEMPLATES[name], params),
        "exit": 0,
        "formal": _corpus_formal(name, params),
    }


# -- analyze mix: accepted and rejected operators -------------------------------


def _nonsplit(rng: random.Random) -> dict:
    """theta^2 + q with q > 0 has no rational root: exit 4."""
    q = Fraction(rng.randint(1, 10**4), rng.randint(1, 10**4))
    return {"kind": "nonsplit", "op": f"x^2*D^2 + x*D + ({q})", "exit": 4}


def _ramified(rng: random.Random) -> dict:
    """Airy type D^2 - c*x^k, k odd: slope (k+2)/2 at infinity, exit 3."""
    c = Fraction(rng.randint(1, 50), rng.randint(1, 50))
    k = rng.choice((1, 3))
    return {"kind": "ramified", "op": f"D^2 - ({c})*x^{k}", "exit": 3}


def _irrational(rng: random.Random) -> dict:
    """Leading coefficient x^2 - q with q not a rational square: exit 3."""
    q = rng.choice((2, 3, 5, 6, 7, 10, 11, 13, 14, 15))
    c = Fraction(rng.randint(1, 50), rng.randint(1, 50))
    return {"kind": "irrational", "op": f"(x^2 - {q})*D + ({c})", "exit": 3}


def _triangular(rng: random.Random) -> dict:
    """Gauss operator at c = 0: exponents 0, 1 at x = 0 form one chain whose
    triangular certificate fails (a logarithmic point), exit 4."""
    a, b = _generic(rng, CORPUS_PRIMES, 2)
    return {
        "kind": "triangular",
        "op": _subst(_TEMPLATES["Gauss"], {"a": a, "b": b, "c": Fraction(0)}),
        "exit": 4,
    }


def gen_analyze_mix(seed: int) -> Iterator[list[dict]]:
    """Per pass: the six corpus operators and nF(n-1) for n = 2, 3, 4, 4
    (accepted), and two each of four rejection kinds; order shuffled."""
    rng = random.Random(seed)
    while True:
        ops = [corpus_instance(rng, name) for name in CORPUS_NAMES]
        for n in (2, 3, 4, 4):
            inst = hyp_instance(rng, n)
            ops.append({"kind": f"nF{n}", "op": inst["op"], "exit": 0, "formal": inst["formal"]})
        for make in (_nonsplit, _ramified, _irrational, _triangular):
            ops += [make(rng), make(rng)]
        rng.shuffle(ops)
        yield ops


# -- lattice ladder --------------------------------------------------------------
#
# A plain-integer copy of the lattice moves: defect, the twisted-Euler move
# sigma_t and the slot swap sigma_perm, plus idx in closed form
#     idx(m) = sum m_ijs^2 + sum_i sum_{j != j'} w_i[j][j'] B_ij B_ij' - (p-1) n^2
# with B_ij the block sums and n the rank.  Both moves are Weyl reflections,
# so they keep idx and the root verdict.


def _defect(weights, entries, t) -> int:
    total = 0
    for i, point in enumerate(entries):
        for j, chain in enumerate(point):
            shift = 1 if i else -1
            total += (-weights[i][j][t[i]] + shift) * sum(chain)
    return total - sum(entries[i][t[i]][0] for i in range(len(entries)))


def _sigma_t(weights, entries, t):
    d = _defect(weights, entries, t)
    out = [[list(ch) for ch in point] for point in entries]
    for i in range(len(out)):
        out[i][t[i]][0] += d
    return out


def closed_form_idx(weights, entries) -> int:
    p = len(entries) - 1
    n = sum(sum(ch) for ch in entries[0])
    total = sum(v * v for point in entries for ch in point for v in ch)
    for i, point in enumerate(entries):
        blocks = [sum(ch) for ch in point]
        for j, bj in enumerate(blocks):
            for j2, bj2 in enumerate(blocks):
                if j != j2:
                    total += weights[i][j][j2] * bj * bj2
    return total - (p - 1) * n * n


def _freeze(entries):
    return tuple(tuple(tuple(ch) for ch in point) for point in entries)


def _shape(rng: random.Random, points: int, factors: int):
    chain_lengths = [[rng.choice((1, 2, 2, 3)) for _ in range(factors)] for _ in range(points)]
    weights = []
    for _ in range(points):
        table = [[0] * factors for _ in range(factors)]
        for j in range(factors):
            for j2 in range(j + 1, factors):
                table[j][j2] = table[j2][j] = rng.choice((-1, -1, -2))
        weights.append(table)
    return chain_lengths, weights


def _fundamental(rng: random.Random, chain_lengths, points: int, factors: int):
    """Balanced block sums n/k with descending chains: every defect is
    nonnegative and idx <= 0, so this is a fundamental imaginary root."""
    block = rng.choice((1, 2))
    entries = []
    for i in range(points):
        point = []
        for j in range(factors):
            chain = [0] * chain_lengths[i][j]
            if block == 2 and len(chain) > 1 and rng.random() < 0.5:
                chain[0] = chain[1] = 1
            else:
                chain[0] = block
            point.append(chain)
        entries.append(point)
    return entries


def lattice_instance(rng: random.Random, points: int, factors: int, real: bool) -> dict:
    chain_lengths, weights = _shape(rng, points, factors)
    tuples = list(product(range(factors), repeat=points))
    if real:
        entries = [[[0] * l for l in lens] for lens in chain_lengths]
        for i, j in enumerate(rng.choice(tuples)):
            entries[i][j][0] = 1
        moves = rng.randint(2, 4)
    else:
        entries = _fundamental(rng, chain_lengths, points, factors)
        moves = rng.randint(1, 2)
    expected_idx = closed_form_idx(weights, entries)
    if expected_idx != 2 if real else expected_idx > 0:
        raise AssertionError("generator bug: start vector has the wrong idx")
    for _ in range(moves):
        # backwards through the reduction: a move that raises the rank,
        # then a slot swap somewhere in a chain of length >= 2
        # the smallest rise among a sample of tuples keeps ranks modest
        rises = [(d, t) for t in rng.sample(tuples, min(32, len(tuples)))
                 if (d := _defect(weights, entries, t)) > 0]
        if not rises:
            break
        entries = _sigma_t(weights, entries, min(rises)[1])
        slots = [(i, j) for i in range(points) for j in range(factors)
                 if chain_lengths[i][j] > 1]
        if slots:
            i, j = rng.choice(slots)
            s = rng.randrange(chain_lengths[i][j] - 1)
            ch = entries[i][j]
            ch[s], ch[s + 1] = ch[s + 1], ch[s]
    if closed_form_idx(weights, entries) != expected_idx:
        raise AssertionError("generator bug: moves changed idx")
    return {
        "points": points,
        "factors": factors,
        "chain_lengths": [list(l) for l in chain_lengths],
        "weights": weights,
        "entries": _freeze(entries),
        "rank": sum(sum(ch) for ch in entries[0]),
        "idx": expected_idx,
        "verdict": "RealRoot" if real else "ImaginaryRoot",
    }


def gen_lattice_ladder(seed: int) -> Iterator[list[dict]]:
    """The rungs in ascending order, each with its count of (shape, vector)
    pairs; the seed picks chain lengths, weights, real or imaginary, and
    the moves."""
    rng = random.Random(seed)
    while True:
        yield [
            lattice_instance(rng, pts, fac, rng.random() < 0.5)
            for pts, fac, count in LATTICE_RUNGS
            for _ in range(count)
        ]


GENERATORS = {
    "corpus": gen_corpus,
    "hyp_ladder": gen_hyp_ladder,
    "lattice_ladder": gen_lattice_ladder,
    "analyze_mix": gen_analyze_mix,
}
