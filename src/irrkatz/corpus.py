"""Built-in operator corpus: the Heun confluence family plus the
hypergeometric operator.

Each entry carries the operator as a parameterized template, a default
(generic) instantiation, the symbolic formal datum, and the expected
classification results.  Parameters are instantiated at rationals with
large prime denominators so that every genericity hypothesis holds; seed
0 means the documented defaults, any other seed draws fresh values.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

from .formal import ExponentialFactor, FormalData, SpectralData
from .scalar import ParamExpr
from .weylalg import INF, DiffOperator, location_key, parse

Params = Mapping[str, Fraction]

_A, _B, _C, _D = (ParamExpr.param(n) for n in "abcd")

_DENOMINATORS = [101, 103, 107, 109, 113, 127, 131, 137, 139, 149]
_LOCATION_POOL = [2, 3, 4, 5, -1, -2, -3]


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    template: str
    defaults: dict[str, Fraction]
    symbolic: Callable[[Params], FormalData]
    expected_diagram: str
    expected_m: str
    expected_idx: int
    expected_verdict: str
    location_params: frozenset[str] = field(default_factory=frozenset)


def _subst(template: str, params: Params) -> str:
    def repl(match):
        return f"({params[match.group(0)]})"

    names = sorted(params, key=len, reverse=True)
    pattern = r"\b(" + "|".join(re.escape(n) for n in names) + r")\b"
    return re.sub(pattern, repl, template)


def _point(loc, factors):
    return (loc, [(ExponentialFactor(loc, w), SpectralData(chains)) for w, chains in factors])


def _sorted_points(points):
    return FormalData(sorted(points, key=lambda pf: location_key(pf[0])))


def _heun_symbolic(params: Params) -> FormalData:
    t = params["t"]
    return _sorted_points([
        _point(INF, [({}, [(_A, 1), (_B, 1)])]),
        _point(Fraction(0), [({}, [(ParamExpr(0), 1), (1 - _C, 1)])]),
        _point(Fraction(1), [({}, [(ParamExpr(0), 1), (1 - _D, 1)])]),
        _point(t, [({}, [(ParamExpr(0), 1), (_C + _D - _A - _B, 1)])]),
    ])


def _cheun_symbolic(params: Params) -> FormalData:
    t = params["t"]
    return _sorted_points([
        _point(INF, [({}, [(_A, 1)]), ({1: t}, [(_C + _D - _A, 1)])]),
        _point(Fraction(0), [({}, [(ParamExpr(0), 1), (1 - _C, 1)])]),
        _point(Fraction(1), [({}, [(ParamExpr(0), 1), (1 - _D, 1)])]),
    ])


def _bheun_symbolic(params: Params) -> FormalData:
    t = params["t"]
    return _sorted_points([
        _point(INF, [({}, [(_A, 1)]), ({2: Fraction(1), 1: t}, [(_C + 1 - _A, 1)])]),
        _point(Fraction(0), [({}, [(ParamExpr(0), 1), (1 - _C, 1)])]),
    ])


def _theun_symbolic(params: Params) -> FormalData:
    t = params["t"]
    return _sorted_points([
        _point(INF, [({}, [(_A, 1)]), ({3: Fraction(1), 1: t}, [(2 - _A, 1)])]),
    ])


def _dheun_symbolic(params: Params) -> FormalData:
    t = params["t"]
    return _sorted_points([
        _point(INF, [({}, [(_A, 1)]), ({1: Fraction(1)}, [(_C - _A, 1)])]),
        _point(Fraction(0), [({}, [(ParamExpr(0), 1)]), ({1: -t}, [(2 - _C, 1)])]),
    ])


def _gauss_symbolic(params: Params) -> FormalData:
    return _sorted_points([
        _point(INF, [({}, [(_A, 1), (_B, 1)])]),
        _point(Fraction(0), [({}, [(ParamExpr(0), 1), (1 - _C, 1)])]),
        _point(Fraction(1), [({}, [(ParamExpr(0), 1), (_C - _A - _B, 1)])]),
    ])


CORPUS: dict[str, CorpusEntry] = {
    entry.name: entry
    for entry in [
        CorpusEntry(
            name="Heun",
            template=(
                "x*(x-1)*(x-t)*D^2"
                " + (c*(x-1)*(x-t) + d*x*(x-t) + (a+b+1-c-d)*x*(x-1))*D"
                " + (a*b*x - lam)"
            ),
            defaults={
                "a": Fraction(1, 7), "b": Fraction(2, 11), "c": Fraction(3, 5),
                "d": Fraction(5, 13), "t": Fraction(3), "lam": Fraction(1, 2),
            },
            symbolic=_heun_symbolic,
            expected_diagram="D4(1)",
            expected_m="1,1|1,1|1,1|1,1",
            expected_idx=0,
            expected_verdict="ImaginaryRoot",
            location_params=frozenset({"t"}),
        ),
        CorpusEntry(
            name="cHeun",
            template="x*(x-1)*D^2 + (-t*x*(x-1) + c*(x-1) + d*x)*D + (-t*a*x + lam)",
            defaults={
                "a": Fraction(1, 7), "c": Fraction(1, 3), "d": Fraction(1, 5),
                "t": Fraction(2), "lam": Fraction(1, 2),
            },
            symbolic=_cheun_symbolic,
            expected_diagram="A3(1)",
            expected_m="1;1|1,1|1,1",
            expected_idx=0,
            expected_verdict="ImaginaryRoot",
        ),
        CorpusEntry(
            name="bHeun",
            template="x*D^2 + (-x^2 - t*x + c)*D + (-a*x + lam)",
            defaults={
                "a": Fraction(1, 7), "c": Fraction(1, 3),
                "t": Fraction(2), "lam": Fraction(1, 2),
            },
            symbolic=_bheun_symbolic,
            expected_diagram="A2(1)",
            expected_m="1;1|1,1",
            expected_idx=0,
            expected_verdict="ImaginaryRoot",
        ),
        CorpusEntry(
            name="tHeun",
            template="D^2 + (-x^2 - t)*D + (-a*x + lam)",
            defaults={
                "a": Fraction(1, 7), "t": Fraction(2), "lam": Fraction(1, 3),
            },
            symbolic=_theun_symbolic,
            expected_diagram="A1(1)",
            expected_m="1;1",
            expected_idx=0,
            expected_verdict="ImaginaryRoot",
        ),
        CorpusEntry(
            name="dHeun",
            template="x^2*D^2 + (-x^2 + c*x + t)*D + (-a*x + lam)",
            defaults={
                "a": Fraction(1, 7), "c": Fraction(1, 3),
                "t": Fraction(2), "lam": Fraction(1, 2),
            },
            symbolic=_dheun_symbolic,
            expected_diagram="A1(1) + A1(1)",
            expected_m="1;1|1;1",
            expected_idx=0,
            expected_verdict="ImaginaryRoot",
        ),
        CorpusEntry(
            name="Gauss",
            template="x*(x-1)*D^2 + ((a+b+1)*x - c)*D + a*b",
            defaults={
                "a": Fraction(1, 7), "b": Fraction(2, 11), "c": Fraction(3, 5),
            },
            symbolic=_gauss_symbolic,
            expected_diagram="unrecognized",
            expected_m="1,1|1,1|1,1",
            expected_idx=2,
            expected_verdict="RealRoot",
        ),
    ]
}


def names() -> list[str]:
    return list(CORPUS)


def get(name: str) -> CorpusEntry:
    if name not in CORPUS:
        raise KeyError(f"unknown corpus entry {name!r}; have {', '.join(CORPUS)}")
    return CORPUS[name]


def params_for(
    name: str, seed: int = 0, overrides: Params | None = None
) -> dict[str, Fraction]:
    """Parameter values: the documented defaults at seed 0, otherwise
    fresh generic rationals with large prime denominators."""
    entry = get(name)
    params = dict(entry.defaults)
    if seed != 0:
        rng = random.Random(seed)
        # distinct prime denominators keep sums and differences of
        # parameters away from the integers
        dens = rng.sample(_DENOMINATORS, len(params))
        for key, den in zip(params, dens):
            if key in entry.location_params:
                params[key] = Fraction(rng.choice(_LOCATION_POOL))
            else:
                params[key] = Fraction(rng.randint(1, den - 1), den)
    if overrides:
        params.update(overrides)
    return params


def instantiate(name: str, params: Params | None = None) -> DiffOperator:
    entry = get(name)
    params = dict(entry.defaults) if params is None else dict(params)
    return parse(_subst(entry.template, params))


def symbolic_formal_data(name: str, params: Params | None = None) -> FormalData:
    """Formal datum with symbolic exponents (parameters a, b, c, d) and
    concrete exponential factors taken from the given instantiation."""
    entry = get(name)
    params = dict(entry.defaults) if params is None else dict(params)
    return entry.symbolic(params)


def reinstantiator(name: str, seed: int, overrides: Params | None = None):
    """Fresh-instance callback for the operator-level reduction retries;
    retry k draws from seed*991 + k + 1 (documented scheme)."""

    def draw(attempt: int) -> DiffOperator:
        return instantiate(name, params_for(name, seed * 991 + attempt + 1, overrides))

    return draw
