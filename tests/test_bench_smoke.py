"""One traced pass of the benchmark's lattice ladder, run in-process from
the bench's own files: its correctness checks pass and every span it
requires fires (including the ``canonical_lift`` and ``pairing`` gate)."""

import importlib.util
import sys
from pathlib import Path

import pytest

import irrkatz
import irrkatz.cli  # noqa: F401  (the tracer patches every irrkatz module)

BENCH = Path(__file__).resolve().parent.parent / "bench"

pytestmark = pytest.mark.skipif(not (BENCH / "run.py").is_file(), reason="no bench/ in this checkout")


@pytest.fixture(scope="module")
def bench_run():
    """``bench/run.py`` as a module; it imports ``spans`` and ``workloads``
    from its own directory, which leaves ``sys.path`` afterwards."""
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def test_lattice_ladder_pass_is_correct_and_fully_traced(bench_run):
    spans, workloads = bench_run.spans, bench_run.workloads
    one_pass = next(workloads.GENERATORS["lattice_ladder"](0))
    tracer = spans.Tracer()
    unpatched = tracer.install()
    tracer.active = True
    try:
        _, records = bench_run.run_loop(irrkatz, "lattice_ladder", [one_pass], tracer=tracer)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert unpatched == []
    # each record's error is what check_lattice returned (or the exception)
    assert [r["error"] for r in records] == [None] * len(one_pass)
    fired = {span for span, stat in tracer.stats.items() if stat.calls}
    assert set(bench_run.EXPECTED_SPANS["lattice_ladder"]) <= fired
