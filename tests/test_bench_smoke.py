"""One traced pass of each benchmark workload, run in-process from the
bench's own files: its correctness checks pass, the tracer wraps every
call site, every span the workload requires fires (among them the
``ad_exp_raw`` and ``ad_power`` twists of the Euler step and the
``canonical_lift`` and ``pairing`` gate of the lattice ladder), and the
bench's ``check_trace`` reports no problem."""

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


@pytest.mark.parametrize("workload", ["corpus", "hyp_ladder", "lattice_ladder", "analyze_mix"])
def test_workload_pass_is_correct_and_fully_traced(bench_run, workload):
    spans, workloads = bench_run.spans, bench_run.workloads
    one_pass = next(workloads.GENERATORS[workload](0))
    tracer = spans.Tracer()
    unpatched = tracer.install()
    tracer.active = True
    try:
        _, records = bench_run.run_loop(irrkatz, workload, [one_pass], tracer=tracer)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert unpatched == []
    # each record's error is what the workload's check returned (or the exception)
    assert [r["error"] for r in records] == [None] * len(one_pass)
    fired = {span for span, stat in tracer.stats.items() if stat.calls}
    assert set(bench_run.EXPECTED_SPANS[workload]) <= fired
    # the bench's own gate on a traced run: every expected span fires, self
    # times add up, and program spans cover 95 % of the traced op time
    problems, _ = bench_run.check_trace(tracer, workload, sum(r["wall_s"] for r in records))
    assert problems == []
