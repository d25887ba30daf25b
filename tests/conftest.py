from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from irrkatz import corpus
from irrkatz.polys import Poly
from irrkatz.weylalg import DiffOperator
from oracles import operator


def random_poly_op(rng: random.Random, max_rank: int = 3, max_deg: int = 3) -> DiffOperator:
    """Random nonzero operator with small integer polynomial coefficients."""
    while True:
        coeffs = []
        for _ in range(rng.randint(1, max_rank + 1)):
            coeffs.append(Poly([Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, max_deg + 1))]))
        op = operator(coeffs)
        if not op.is_zero():
            return op


def bench_texts(*workloads: str, seeds=range(3)) -> list[str]:
    """The operator texts of the first pass of each workload of
    ``bench/workloads.py`` at each seed; none without ``bench/``."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    if not path.is_file():
        return []
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [inst["op"] for name in workloads for seed in seeds
            for inst in next(module.GENERATORS[name](seed))]


def outcome(f, *args):
    """What ``f(*args)`` gives: ("ok", its value), or the class and message
    of the exception it raises, so two implementations compare as one."""
    try:
        return "ok", f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-12, 12), rng.randint(1, 9))


@pytest.fixture(scope="session")
def corpus_ops():
    """Default instantiation of every corpus entry."""
    return {name: corpus.instantiate(name) for name in corpus.names()}


@pytest.fixture(scope="session")
def corpus_shapes():
    from irrkatz import formal

    shapes = {}
    for name in corpus.names():
        shapes[name] = formal.to_shape(corpus.symbolic_formal_data(name))
    return shapes
