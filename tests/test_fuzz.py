"""A seeded mutation fuzz of the operator texts of the benchmark.

Each text of the first passes of ``analyze_mix`` and ``hyp_ladder`` is
mutated (a numeral replaced, a sign flipped, a character deleted, a token
inserted, a slice repeated) and read by ``analyze --op``: every run must end
in a documented exit code (0-5) without a traceback.  The mutated texts
that parse are reduced by ``reduce_operator``, which may raise only the
exception classes the CLI maps to an exit code; the only bare
``ValueError`` is the refusal of an operator of rank 0.
"""

import random
import re
from collections import Counter

import pytest

from conftest import bench_texts
from irrkatz import cli
from irrkatz.reduce import reduce_operator
from irrkatz.weylalg import OperatorSyntaxError, parse

NUMERAL = re.compile(r"\d+(?:/\d+)?")
NUMERALS = ["0", "1", "2", "3", "1/2", "7/3", "-5/4", "33", "12345678901234567890"]
TOKENS = ["x", "D", "1", "(", ")", "+", "-", "*", "^", "^2", "^33", "/", "y"]
RANK_REFUSAL = "extraction needs an operator of rank >= 1"


def mutate(rng: random.Random, text: str) -> str:
    """One or two edits of ``text``; most keep it well-formed."""
    for _ in range(rng.randint(1, 2)):
        r = rng.random()
        i = rng.randint(0, len(text))
        numerals = list(NUMERAL.finditer(text))
        signs = [k for k, ch in enumerate(text) if ch in "+-"]
        if r < 0.4 and numerals:
            m = rng.choice(numerals)
            text = text[:m.start()] + rng.choice(NUMERALS) + text[m.end():]
        elif r < 0.55 and signs:
            k = rng.choice(signs)
            text = text[:k] + "+-"[text[k] == "+"] + text[k + 1:]
        elif r < 0.7 and text:
            text = text[:i] + text[i + 1:]
        elif r < 0.85:
            text = text[:i] + rng.choice(TOKENS) + text[i:]
        else:
            j = rng.randint(i, min(len(text), i + 8))
            text = text[:j] + text[i:j] + text[j:]
    return text


def test_mutated_bench_texts_end_in_documented_outcomes(capsys):
    texts = bench_texts("analyze_mix", "hyp_ladder")
    if not texts:
        pytest.skip("no bench/ in this checkout")
    rng = random.Random(2026)
    codes, outcomes = Counter(), Counter()
    for _ in range(3000):
        text = mutate(rng, rng.choice(texts))
        code = cli.main(["analyze", "--op", text])
        _, err = capsys.readouterr()
        assert 0 <= code <= 5 and "Traceback" not in err, text
        codes[code] += 1
        try:
            op = parse(text)
        except OperatorSyntaxError:
            continue
        try:
            reduce_operator(op)
            outcomes["reduced"] += 1
        except Exception as exc:
            assert isinstance(exc, cli._HANDLED), (text, exc)
            assert type(exc) is not ValueError or str(exc).startswith(RANK_REFUSAL), (text, exc)
            outcomes[type(exc).__name__] += 1
    # the fuzz reaches every exit code of analyze but 1 and 5, and each
    # kind of refusal of reduce_operator
    assert {0, 2, 3, 4} <= set(codes)
    assert {"reduced", "ValueError", "AssumptionViolatedError", "NonSplitCharPolyError",
            "OshimaCheckError", "RamifiedPointError", "IrrationalSingularityError"} <= set(outcomes)
