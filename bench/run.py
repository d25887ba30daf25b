#!/usr/bin/env python3
"""irrkatz benchmark: one closed-loop client, one process, one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads: corpus, hyp_ladder, lattice_ladder, analyze_mix
(see README.md).  Every operation's result is checked exactly; a wrong
result, an unexpected exception or an unexpected exit code is a failure
and the run carries on.

Times are corrected for the speed of the host: every timed step sits
between two runs of a fixed probe (probe.py) and is scaled to the probe's
reference time, so a busy neighbour on a shared host does not read as a
slower program.  Wall times are kept in the run record.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
operations twice, first untraced and then with every layer wrapped in
spans, and reports the per-layer metrics (span times are wall times) and
the tracing overhead.  The last line of standard output is one JSON
object; a full record (provenance, every instance, every latency) goes to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
COVERAGE_SLACK = 0.05       # program spans must cover 95% of traced op time

# The tail percentile of each workload: at this commit a run of 25 s puts at
# least 10 samples beyond it, and it falls inside one band of the mix (the
# slowest corpus entries, rank 4, the 5x3 shapes, nF4 extraction), so the
# same percentile is reported on every commit.
TAIL_PERCENTILE = {"corpus": 90, "hyp_ladder": 80, "lattice_ladder": 70, "analyze_mix": 95}


# -- the program -----------------------------------------------------------------


def import_program():
    """Fresh import of irrkatz from ``src/`` (dropping any earlier copy)."""
    for name in [n for n in sys.modules if n == "irrkatz" or n.startswith("irrkatz.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    prog = importlib.import_module("irrkatz")
    importlib.import_module("irrkatz.cli")
    return prog


def setup(workload: str, seed: int):
    """Import the program SETUP_REPEATS times and build the first pass of
    inputs each time; returns the program, the pass iterator and the
    median set-up time."""
    src = ROOT / "src"
    if not (src / "irrkatz" / "__init__.py").is_file():
        raise SystemExit(f"error: no irrkatz sources under {src}")
    sys.path.insert(0, str(src))
    times = []
    for _ in range(SETUP_REPEATS):
        before = probe.probe()
        start = time.perf_counter()
        prog = import_program()
        passes = workloads.GENERATORS[workload](seed)
        first = next(passes)
        wall = time.perf_counter() - start
        times.append(wall * probe.REF_S / ((before + probe.probe()) / 2))
    if not Path(prog.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: irrkatz imported from {prog.__file__}, not {src}")
    return prog, _chain(first, passes), statistics.median(times)


def _chain(first, rest):
    yield first
    yield from rest


# -- operations and their oracles ------------------------------------------------
#
# Each workload has an op, which calls the program and is timed, and a
# check, which inspects what the op returned and gives an error message or
# None.


def _cli(prog, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = prog.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def op_corpus(prog, inst):
    return _cli(prog, ["examples", "--run", "--only", inst["name"], "--seed", str(inst["seed"])])


def check_corpus(prog, inst, res):
    code, out, err = res
    words = out.split()
    if code != 0 or words[:2] != [inst["name"], "ok"]:
        return f"exit {code}: {out.strip()} {err.strip()}"
    return None


def op_hyp(prog, inst):
    return prog.reduce_operator(prog.parse(inst["op"]))


def check_hyp(prog, inst, res):
    if res.final.rank != 1:
        return f"final rank {res.final.rank}"
    if res.transcript.verdict.value != "RealRoot":
        return f"verdict {res.transcript.verdict.value}"
    got = prog.formal.to_json(res.initial)
    if got != inst["formal"]:
        return f"formal data {got}"
    return None


def op_lattice(prog, inst):
    shape = prog.LatticeShape(
        tuple(tuple(l) for l in inst["chain_lengths"]),
        tuple(tuple(tuple(row) for row in table) for table in inst["weights"]),
    )
    vec = prog.LatticeVector(shape, inst["entries"])
    transcript = prog.reduce_vector(vec)
    index = prog.idx(vec)
    basis = prog.build_basis(shape)
    label, _ = prog.classify_diagram(basis)
    return transcript, index, basis, label


def check_lattice(prog, inst, res):
    transcript, index, basis, _ = res
    if transcript.verdict.value != inst["verdict"]:
        return f"verdict {transcript.verdict.value}"
    if index != inst["idx"]:
        return f"idx {index}"
    if transcript.replay() != transcript.final:
        return "transcript replay differs"
    return None


def op_analyze(prog, inst):
    return _cli(prog, ["analyze", "--op", inst["op"]])


def check_analyze(prog, inst, res):
    code, out, err = res
    if code != inst["exit"]:
        return f"exit {code}, expected {inst['exit']}: {err.strip()}"
    if code == 0 and out.splitlines()[0] != inst["formal"]:
        return f"formal data {out.splitlines()[0]}"
    return None


OPS = {
    "corpus": (op_corpus, check_corpus),
    "hyp_ladder": (op_hyp, check_hyp),
    "lattice_ladder": (op_lattice, check_lattice),
    "analyze_mix": (op_analyze, check_analyze),
}

# Spans that must fire at least once on each workload (the completeness
# check): a patch that misses a call site would otherwise zero a layer.
_EXTRACTION = (
    "weylalg.parse", "weylalg.prim", "weylalg.singular_points",
    "weylalg.newton_polygon", "weylalg.char_poly", "weylalg.theta_expand",
    "weylalg.subst_infty", "weylalg.DiffOperator.mul", "polys.rational_roots",
    "polys.poly_gcd", "formal.extract_formal_data", "formal.oshima_check",
    "formal.group_chains",
)
_REDUCTION = (
    "reduce.reduce_operator", "reduce.attempts", "reduce.twisted_euler",
    "reduce.reduce_vector", "weylalg.ad_power", "weylalg.euler",
    "lattice.defect", "lattice.sigma_t", "exponents.act_sigma_t",
)
_LATTICE = (
    "reduce.reduce_vector", "lattice.defect", "lattice.sigma_t",
    "lattice.sigma_perm", "rootsys.build_basis", "rootsys.idx",
    "rootsys.canonical_lift", "rootsys.pairing", "rootsys.classify_diagram",
)
EXPECTED_SPANS = {
    "corpus": _EXTRACTION + _REDUCTION + (
        "cli.main", "corpus.instantiate", "weylalg.ad_exp_raw",
        "rootsys.build_basis", "rootsys.idx", "rootsys.canonical_lift",
        "rootsys.pairing", "rootsys.classify_diagram",
    ),
    "hyp_ladder": _EXTRACTION + _REDUCTION,
    "lattice_ladder": _LATTICE,
    "analyze_mix": _EXTRACTION + ("cli.main", "weylalg.ad_exp_raw", "formal.to_json"),
}


# -- the closed loop -------------------------------------------------------------


def run_loop(prog, workload, passes, deadline=None, tracer=None):
    """Run whole passes, one operation after another, starting a new pass
    only before ``deadline`` (perf_counter seconds).  Returns the passes
    run and one record per operation."""
    op, check = OPS[workload]
    records, done = [], []
    speed = probe.probe()
    for one_pass in passes:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        done.append(one_pass)
        for inst in one_pass:
            record, speed = _run_one(prog, op, check, inst, tracer, speed)
            records.append(record)
    return done, records


def _run_one(prog, op, check, inst, tracer, before):
    """Time one operation (traced when a tracer is given) between two
    speed probes, then check its result with tracing paused.  ``before``
    is the probe time taken just before; returns the record and the probe
    time taken just after, which serves the next operation."""
    start = time.perf_counter()
    try:
        if tracer is None:
            res = op(prog, inst)
        else:
            res = tracer.call(spans.ROOT_SPAN, op, (prog, inst), {})
        error = None
    except Exception as exc:  # an unexpected exception is a failure
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    after = probe.probe()
    if error is None:
        try:
            error = check(prog, inst, res)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    if tracer is not None:
        tracer.active = True
    record = {
        "latency_s": wall * probe.REF_S / ((before + after) / 2),
        "wall_s": wall,
        "error": error,
    }
    return record, after


def pass_rates(done, records):
    """Verified operations per second of each pass."""
    rates, k = [], 0
    for one_pass in done:
        chunk = records[k:k + len(one_pass)]
        k += len(one_pass)
        ok = sum(1 for r in chunk if r["error"] is None)
        rates.append(ok / sum(r["latency_s"] for r in chunk))
    return rates


def end_to_end(workload, done, records, setup_s):
    lat = [r["latency_s"] for r in records]
    ok = sum(1 for r in records if r["error"] is None)
    pct = TAIL_PERCENTILE[workload]
    value = statistics.quantiles(lat, n=100, method="inclusive")[pct - 1]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(pass_rates(done, records)), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1000 * value, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "fail_frac": (len(records) - ok) / len(records),
        "tail_percentile": pct,
        "tail_samples_beyond": sum(1 for v in lat if v > value),
        "samples": len(records),
        "passes": len(done),
        "ops_per_s_overall": ok / sum(lat),
    }
    return metrics, info


# -- per-layer metrics -------------------------------------------------------------

PER_LAYER_STATS = (
    ("polys.rational_roots", ("calls", "self_s")),
    ("polys.poly_gcd", ("calls", "self_s")),
    *((f"weylalg.{n}", ("self_s",)) for n in (
        "parse", "singular_points", "newton_polygon", "char_poly",
        "theta_expand", "subst_infty",
    )),
    *((f"weylalg.{n}", ("calls", "self_s")) for n in ("prim", "ad_exp_raw", "ad_power", "euler")),
    ("weylalg.DiffOperator.mul", ("calls",)),
    ("formal.extract_formal_data", ("calls", "self_s", "total_s")),
    *((f"formal.{n}", ("self_s",)) for n in ("oshima_check", "group_chains", "to_json")),
    ("reduce.reduce_operator", ("calls", "total_s")),
    ("reduce.twisted_euler", ("calls", "self_s")),
    ("reduce.reduce_vector", ("calls", "self_s")),
    *((f"lattice.{n}", ("calls",)) for n in ("defect", "sigma_t", "sigma_perm")),
    *((f"rootsys.{n}", ("self_s",)) for n in ("build_basis", "idx", "canonical_lift", "classify_diagram")),
    ("rootsys.pairing", ("calls",)),
    *((f"exponents.{n}", ("calls",)) for n in ("act_sigma_t", "act_sigma_perm")),
    ("corpus.instantiate", ("self_s",)),
    ("cli.main", ("self_s",)),
)


def per_layer(tracer, ops: int, untraced_s: float, traced_s: float):
    """Per-operation calls and seconds, module self-time totals, counters
    and the tracing overhead."""
    stats, counters = tracer.stats, tracer.counters
    get = lambda span: stats.get(span, spans.SpanStat())  # noqa: E731
    out = {}
    for span, fields in PER_LAYER_STATS:
        for field in fields:
            unit = "count/op" if field == "calls" else "s/op"
            out[f"{span}.{field}"] = (getattr(get(span), field) / ops, unit)
    roots = get("polys.rational_roots")
    out["polys.rational_roots.max_bits"] = (counters.get("polys.rational_roots.max_bits", 0), "bits")
    out["polys.rational_roots.split_frac"] = (
        counters.get("polys.rational_roots.split", 0) / roots.calls if roots.calls else 0.0, "ratio")
    extract = get("formal.extract_formal_data")
    out["formal.extract_formal_data.reject_frac"] = (
        extract.errors / extract.calls if extract.calls else 0.0, "ratio")
    steps = counters.get("reduce.euler_steps", 0)
    extractions = counters.get("reduce.extractions", 0)
    out["reduce.euler_steps"] = (steps / ops, "count/op")
    out["reduce.extractions"] = (extractions / ops, "count/op")
    out["reduce.extractions_per_step"] = (extractions / steps if steps else 0.0, "ratio")
    out["reduce.retries"] = (
        (get("reduce.attempts").calls - get("reduce.reduce_operator").calls) / ops, "count/op")
    out["reduce.reduce_vector.steps"] = (counters.get("reduce.reduce_vector.steps", 0) / ops, "count/op")
    out["rootsys.build_basis.max_nodes"] = (counters.get("rootsys.build_basis.max_nodes", 0), "count")
    for module in ("lattice", "exponents"):
        total = sum(s.self_s for name, s in stats.items() if name.startswith(module + "."))
        out[f"{module}.self_s"] = (total / ops, "s/op")
    out["trace.overhead_frac"] = (traced_s / untraced_s - 1, "ratio")
    return out


def check_trace(tracer, workload, traced_s):
    """Completeness and self-time checks; returns a list of problems."""
    problems = [
        f"span {span} never fired"
        for span in EXPECTED_SPANS[workload]
        if tracer.stats.get(span, spans.SpanStat()).calls == 0
    ]
    timed = {n: s for n, s in tracer.stats.items() if s.total_s > 0 or n == spans.ROOT_SPAN}
    self_sum = sum(s.self_s for s in timed.values())
    root = tracer.stats[spans.ROOT_SPAN]
    if abs(self_sum - root.total_s) > 1e-6 * max(1.0, root.total_s):
        problems.append(f"self times sum to {self_sum:.6f} s, root spans to {root.total_s:.6f} s")
    program = self_sum - root.self_s
    if program < (1 - COVERAGE_SLACK) * traced_s:
        problems.append(
            f"program spans cover {program:.3f} s of {traced_s:.3f} s traced op time")
    return problems, program / traced_s


# -- provenance ----------------------------------------------------------------------


def provenance(args):
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "irrkatz").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def workload_info(workload, instances, records):
    """Mix facts: per-rank op counts, rejected share, and the like."""
    info = {}
    if workload == "hyp_ladder":
        for n in sorted(set(workloads.HYP_PASS)):
            info[f"ops_rank_{n}"] = sum(1 for i in instances if i["rank"] == n)
    elif workload == "analyze_mix":
        info["rejected_share"] = sum(1 for i in instances if i["exit"] != 0) / len(instances)
    elif workload == "lattice_ladder":
        info["max_rank"] = max(i["rank"] for i in instances)
    elif workload == "corpus":
        info["corpus_seeds"] = sorted({i["seed"] for i in instances})
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prog, passes, setup_s = setup(args.workload, args.seed)
    if args.trace == 0:
        done, records = run_loop(prog, args.workload, passes,
                                 time.perf_counter() + args.seconds)
        metrics, info = end_to_end(args.workload, done, records, setup_s)
    else:
        # the same operations untraced, then traced: per-layer numbers come
        # from the second run and the ratio of the two is the overhead
        done, plain = run_loop(prog, args.workload, passes,
                               time.perf_counter() + args.seconds / 2)
        tracer = spans.Tracer()
        unpatched = tracer.install()
        tracer.active = True
        _, records = run_loop(prog, args.workload, done, tracer=tracer)
        tracer.active = False
        tracer.uninstall()
        # the first pass warms the interpreter, so the overhead skips it
        warm = len(done[0]) if len(done) > 1 else 0
        untraced_s = sum(r["latency_s"] for r in plain[warm:])
        traced_s = sum(r["latency_s"] for r in records[warm:])
        metrics = per_layer(tracer, len(records), untraced_s, traced_s)
        problems, coverage = check_trace(
            tracer, args.workload, sum(r["wall_s"] for r in records))
        problems += [f"module {m} still holds an unwrapped function" for m in unpatched]
        records = plain + records
        info = {"trace_problems": problems, "span_coverage": coverage,
                "untraced_s": untraced_s, "traced_s": traced_s}

    done = [inst for one_pass in done for inst in one_pass]
    failed = sum(1 for r in records if r["error"] is not None)
    correct = failed == 0 and not info.get("trace_problems")
    info.update(workload_info(args.workload, done, records))
    record = {
        "provenance": provenance(args),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
        "attempted": len(records),
        "failed": failed,
        "failures": [dict(r, instance=i) for r, i in zip(records, done + done)
                     if r["error"] is not None][:20],
        "instances": [dict(i, latency_s=r["latency_s"], wall_s=r["wall_s"])
                      for i, r in zip(done, records)],
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    for key, value in info.items():
        print(f"# {key}: {value}")
    print(f"# record: {out_path.relative_to(ROOT) if out_path.is_relative_to(ROOT) else out_path}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
