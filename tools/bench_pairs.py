"""Run ``bench/run.py`` in two checkouts as alternating pairs and compare
the end-to-end metrics of the two sides.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seed S --pairs N --seconds T

PARENT and CHANGE are the roots of two checkouts with the same ``bench/``.
Pair k runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` once in each, the parent first in odd pairs and the change
first in even ones, one run at a time.  Every run is printed as it ends.
Then, for each end-to-end metric of PARENT's ``BENCHMARK.json``: each
side's median and quartiles (``statistics.quantiles(n=4,
method="inclusive")``), the parent's interquartile range, the pairs the
change wins (ties count for neither side), and how much worse the
change's median reads than the parent's, relative to the parent's and in
the metric's worse direction (negative is better), beside the metric's
bound.  The last line of standard output is one JSON object with all of
it, every run included, in the form of the ``end_to_end`` entries of the
``BENCH_*.json`` files.

Nothing under ``bench/`` is changed, except that each run writes its
record to its own checkout's ``bench/results/`` as ``bench/run.py`` does.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def first_sides(pairs: int) -> list[str]:
    """Which side runs first in each pair: the parent in odd pairs."""
    return ["parent" if k % 2 == 0 else "change" for k in range(pairs)]


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The statistics of one metric over pairs (``parent[k]`` and
    ``change[k]`` ran in pair k); ``better`` is "higher" or "lower"."""
    sign = 1 if better == "higher" else -1
    pm, cm = statistics.median(parent), statistics.median(change)
    pq, cq = _quartiles(parent), _quartiles(change)
    worse_by = sign * (pm - cm) / pm if pm else 0.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    return {
        "parent": parent,
        "change": change,
        "parent_median": pm,
        "change_median": cm,
        "parent_quartiles": pq,
        "change_quartiles": cq,
        "parent_iqr": pq[1] - pq[0],
        "change_worse_by": worse_by,
        "bound": bound,
        "within_bound": worse_by <= bound,
        "change_wins": f"{wins}/{len(parent)}",
        # a gain: nine tenths of the pairs won and the medians further apart
        # than the parent's quartiles
        "gain_met": wins >= 0.9 * len(parent) and sign * (cm - pm) > pq[1] - pq[0],
    }


def summarize(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """``runs[side]`` is the list of the last-line JSON objects of that
    side's runs, in pair order; ``metrics`` the ``end_to_end`` entries of
    ``BENCHMARK.json``."""
    out = {
        side: {
            "runs": len(records),
            "failed": sum(r["failed"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "correct": all(r["correct"] for r in records),
        }
        for side, records in runs.items()
    }
    values = {m["name"]: {side: [r["metrics"][m["name"]]["value"] for r in records]
                          for side, records in runs.items()} for m in metrics}
    out["metrics"] = {
        m["name"]: compare(values[m["name"]]["parent"], values[m["name"]]["change"],
                           m["better"], m["bound"])
        for m in metrics
    }
    return out


def run_once(checkout: Path, args) -> dict:
    """One bench run in ``checkout``; its last line of output, parsed."""
    cmd = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    metrics = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    checkouts = {"parent": args.parent, "change": args.change}
    first = first_sides(args.pairs)
    runs = {"parent": [], "change": []}
    for k, side in enumerate(first):
        for s in (side, "change" if side == "parent" else "parent"):
            record = run_once(checkouts[s], args)
            runs[s].append(record)
            values = " ".join(f"{m['name']}={record['metrics'][m['name']]['value']:.6g}"
                              for m in metrics)
            print(f"pair {k + 1} {s:6s} failed={record['failed']}/{record['attempted']} {values}",
                  flush=True)
    summary = summarize(runs, metrics)
    for name, stat in summary["metrics"].items():
        print(f"{name:16s} parent {stat['parent_median']:.6g} {stat['parent_quartiles']} "
              f"iqr {stat['parent_iqr']:.4g} | change {stat['change_median']:.6g} "
              f"{stat['change_quartiles']} | wins {stat['change_wins']} | worse by "
              f"{stat['change_worse_by']:+.4f} (bound {stat['bound']})")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
                      "seconds": args.seconds, "first": first, **summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
