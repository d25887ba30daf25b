"""The operator-text parser against the recursive-descent parser it
replaced, which is kept here as the oracle, and the parser's verdict at
different stack depths.

The oracle shares no code with the parser: it reads the text with
``oracles.tokenize``, every numeral a ``Fraction``, and computes on
``oracles.RatFuncOperator``, reduced ``RatFunc`` coefficients."""

import random
from fractions import Fraction

import pytest

from irrkatz import cli, corpus
from irrkatz.polys import Poly
from irrkatz.weylalg import (
    MAX_DEGREE,
    MAX_NESTING,
    DiffOperator,
    OperatorSyntaxError,
    X,
    parse,
)
from oracles import RatFuncOperator, op_neg, operator, tokenize


# -- the oracle: the recursive-descent parser as it was ------------------------


def _size(p: RatFuncOperator) -> int:
    """max(rank, coefficient degree) of a polynomial operator; 0 for zero."""
    return max((max(i, c.num.degree) for i, c in enumerate(p.coeffs) if c), default=0)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, symbol: str):
        kind, val, pos = self.next()
        if kind != "op" or val != symbol:
            raise OperatorSyntaxError(f"expected {symbol!r}", pos)

    def parse(self) -> DiffOperator:
        expr = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise OperatorSyntaxError("trailing input", pos)
        return operator(expr.coeffs)

    def expr(self) -> RatFuncOperator:
        acc = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                acc = acc + rhs if val == "+" else acc - rhs
            else:
                return acc

    def term(self) -> RatFuncOperator:
        acc = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.next()
                acc = acc * self.factor()
                if _size(acc) > MAX_DEGREE:
                    raise OperatorSyntaxError(
                        f"product too large: rank and degree are limited to {MAX_DEGREE}", pos
                    )
            elif kind in ("num", "name") or (kind == "op" and val == "("):
                raise OperatorSyntaxError("implicit multiplication is not allowed", pos)
            else:
                return acc

    def factor(self) -> RatFuncOperator:
        kind, val, pos = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            inner = self.factor()
            return inner if val == "+" else -inner
        return self.power()

    def power(self) -> RatFuncOperator:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            ekind, exp, epos = self.next()
            if ekind != "num" or not isinstance(exp, Fraction) or exp.denominator != 1 or exp < 0:
                raise OperatorSyntaxError("exponent must be a nonnegative integer", epos)
            if exp > MAX_DEGREE or exp * _size(base) > MAX_DEGREE:
                raise OperatorSyntaxError(
                    f"power too large: rank and degree are limited to {MAX_DEGREE}", epos
                )
            return base ** int(exp)
        return base

    def atom(self) -> RatFuncOperator:
        kind, val, pos = self.next()
        if kind == "num":
            return RatFuncOperator.of(val)
        if kind == "name":
            if val == "x":
                return RatFuncOperator([Poly.x()])
            if val == "D":
                return RatFuncOperator([0, 1])
            raise OperatorSyntaxError(f"unknown symbol {val!r}", pos)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise OperatorSyntaxError("expected a number, 'x', 'D' or '('", pos)


def outcome(parser, text: str):
    """The operator ``parser`` reads from ``text``, or its error's message
    and position."""
    try:
        return parser(text)
    except OperatorSyntaxError as exc:
        return (str(exc), exc.pos)


def oracle(text: str):
    return outcome(lambda t: _Parser(t).parse(), text)


# -- texts ---------------------------------------------------------------------


def corpus_texts():
    return [
        corpus._subst(corpus.get(name).template, corpus.params_for(name, seed))
        for name in corpus.names()
        for seed in range(41)
    ]


TOKENS = [
    "x", "D", "0", "1", "7", "2/3", "1/0", "32", "33", "(", ")", "+", "-", "*", "^",
    "y", "/", "$", "x1", "  ",
]


def random_token_text(rng: random.Random) -> str:
    return "".join(
        rng.choice(TOKENS) + rng.choice(["", "", " "]) for _ in range(rng.randint(0, 14))
    )


def random_expression(rng: random.Random, depth: int = 0) -> str:
    """A random operator text of bounded size; large powers and long
    products only on ``x`` and ``D``, so some exceed MAX_DEGREE cheaply."""
    r = rng.random()
    if depth > 3 or r < 0.3:
        atom = rng.choice(["x", "D", "1", "3/4", "0", "12"])
        if rng.random() < 0.3:
            atom += f"^{rng.choice([0, 1, 2, 5, 17, 32, 33, 1000])}"
        return atom
    inner = random_expression(rng, depth + 1)
    if r < 0.45:
        return rng.choice("+-") * rng.randint(1, 3) + inner
    if r < 0.6:
        return f"({inner})" + (f"^{rng.randint(0, 3)}" if rng.random() < 0.4 else "")
    if r < 0.7:
        return "*".join(["x"] * rng.randint(2, 34))
    op = rng.choice([" + ", " - ", "*", "-", "+"])
    return inner + op + random_expression(rng, depth + 1)


def mutate(rng: random.Random, text: str) -> str:
    """Delete a character of ``text`` or insert a token into it."""
    i = rng.randint(0, len(text))
    if text and rng.random() < 0.5:
        return text[:i] + text[i + 1:]
    return text[:i] + rng.choice(TOKENS) + text[i:]


def fuzz_texts(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        r = rng.random()
        if r < 0.35:
            texts.append(random_token_text(rng))
        else:
            text = random_expression(rng)
            if rng.random() < 0.5:
                # an operator of rank one or more, so analysis runs past prim
                text = f"({text})*D + {random_expression(rng, 2)}"
            texts.append(mutate(rng, text) if r < 0.6 else text)
    return texts


# operator texts that tests/test_cli.py and tests/test_weylalg.py pass to
# parse, besides the 10,000-deep ones that the oracle refuses at a depth
# that depends on its stack
TEST_TEXTS = [
    "x*D - 5", "D*x", "D^2 + (-x^2-7)*D + (-2*x+3)", "D^2 + )", "2 x", "x^(1/2)",
    "1/x", "D - 1/" + "3" * 4301, "D - " + "7" * 4301, "(" * 20 + "x*D" + ")" * 20,
    "-" * 20 + "x*D", "D^2 - x", "(x^2 - 2)*D - 1", "x^2*D^2 + x*D + 1",
    "x^1000000000", "x^33", "(x^11)^3", "x*" * 33 + "D - 1", "x^32*D - 1", "D^24", "D",
    "1/0*D", "x^2*D^2 + 3*x*D + 1", "D + x", "x*D - 1/3", "(x^2 - 2)*D - 1",
]


# -- the new parser against the oracle -----------------------------------------


def test_parse_matches_the_oracle_on_corpus_texts():
    for text in corpus_texts():
        assert outcome(parse, text) == oracle(text), text


def test_parse_matches_the_oracle_on_test_texts():
    for text in TEST_TEXTS:
        assert outcome(parse, text) == oracle(text), text


def test_parse_matches_the_oracle_on_fuzzed_texts():
    texts = fuzz_texts(16, 2500)
    results = [outcome(parse, text) for text in texts]
    for text, result in zip(texts, results):
        assert result == oracle(text), text
    # the fuzz reaches operators and each kind of error
    messages = {r[0].split(" (at")[0] for r in results if isinstance(r, tuple)}
    assert sum(isinstance(r, DiffOperator) for r in results) > 500
    assert {
        "trailing input",
        "expected ')'",
        "implicit multiplication is not allowed",
        "expected a number, 'x', 'D' or '('",
        "exponent must be a nonnegative integer",
        f"power too large: rank and degree are limited to {MAX_DEGREE}",
        f"product too large: rank and degree are limited to {MAX_DEGREE}",
        "unknown symbol 'y'",
        "unexpected character '$'",
        "'/' is only allowed inside rational literals p/q",
        "zero denominator",
    } <= messages


def test_a_bad_character_wins_over_an_earlier_grammar_error():
    assert outcome(parse, "x + ) $") == oracle("x + ) $") == ("unexpected character '$' (at position 6)", 6)


def test_signs_bind_looser_than_powers():
    assert parse("-x^2") == op_neg(X ** 2) == parse("-(x^2)")
    assert parse("(-x)^2") == X ** 2


# -- the same verdict at every stack depth --------------------------------------


def deeper(frames: int, fn, *args):
    """``fn(*args)`` called ``frames`` Python frames deeper."""
    if frames == 0:
        return fn(*args)
    return deeper(frames - 1, fn, *args)


def nested(opening: str, levels: int) -> str:
    """``x*D`` inside ``levels`` levels: parentheses, minus signs or
    alternating ``+-`` signs, each character one level."""
    if opening == "(":
        return "(" * levels + "x*D" + ")" * levels
    return (opening * levels)[:levels] + "x*D"


def test_the_verdict_does_not_depend_on_the_stack_depth():
    text = nested("(", 196)
    assert outcome(parse, text) == deeper(300, outcome, parse, text) == parse("x*D")
    for opening in ("(", "-", "+-"):
        text = nested(opening, MAX_NESTING)
        assert parse(text) == deeper(300, parse, text) == parse("x*D")
        for levels in (MAX_NESTING + 1, 10000):
            text = nested(opening, levels)
            expected = (f"operator text nested too deeply (at position {MAX_NESTING})", MAX_NESTING)
            assert outcome(parse, text) == deeper(300, outcome, parse, text) == expected


def test_nesting_counts_open_levels_only():
    # a level closes with its factor, so long flat texts are not nested
    flat = " + ".join(["(-x)"] * 3 * MAX_NESTING)
    assert parse(flat) == DiffOperator.of(-3 * MAX_NESTING) * X
    assert parse("(" * 600 + "-" * 399 + "x" + ")" * 600) == op_neg(X)
    with pytest.raises(OperatorSyntaxError, match=r"nested too deeply \(at position 1000\)"):
        parse("(" * 600 + "-" * 401 + "x" + ")" * 600)


def test_analyze_fuzz_ends_with_a_documented_exit_code(capsys):
    codes = set()
    for text in fuzz_texts(17, 1500):
        code = cli.main(["analyze", f"--op={text}"])
        _, err = capsys.readouterr()
        assert 0 <= code <= 5 and "Traceback" not in err, text
        codes.add(code)
    assert {0, 2, 3, 4} <= codes
