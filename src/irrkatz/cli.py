"""Command-line surface.

Subcommands: ``analyze`` (operator -> formal-data JSON), ``diagram``
(formal data -> classification + DOT), ``reduce`` (formal data ->
transcript, optionally cross-checked against a concrete operator),
``fuchs`` (defect report) and ``examples`` (built-in corpus).

Exit codes: 0 success; 1 failed check (nonzero defect, corpus mismatch,
cross-check failure); 2 malformed input; 3 ramified or otherwise
unsupported local structure; 4 unverifiable spectral data; 5 genericity
assumption violated after retries.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from . import corpus, formal, reduce as reduction, rootsys, weylalg
from .formal import (
    ExtractionError,
    NonSplitCharPolyError,
    OshimaCheckError,
    RamifiedPointError,
)
from .reduce import AssumptionViolatedError, CrossCheckError
from .scalar import parse_rat
from .weylalg import IrrationalSingularityError

EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_UNVERIFIED = 4
EXIT_ASSUMPTION = 5


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# Exit code of each exception class ``main`` handles.  The first matching
# row wins, so IrrationalSingularityError, a ValueError, comes before
# ValueError; OperatorSyntaxError, also one, takes the ValueError row.
_EXIT_CODES = (
    ((RamifiedPointError, IrrationalSingularityError), EXIT_UNSUPPORTED),
    ((OshimaCheckError, NonSplitCharPolyError), EXIT_UNVERIFIED),
    ((AssumptionViolatedError,), EXIT_ASSUMPTION),
    ((ExtractionError,), EXIT_UNSUPPORTED),
    ((CrossCheckError,), EXIT_CHECK_FAILED),
    ((ValueError, OSError, KeyError), EXIT_BAD_INPUT),
)
_HANDLED = tuple(cls for classes, _ in _EXIT_CODES for cls in classes)


def _load_operator(args) -> weylalg.DiffOperator:
    if args.op is not None:
        text = args.op
    else:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    return weylalg.parse(text)


def _load_formal(path: str) -> formal.FormalData:
    with open(path, encoding="utf-8") as handle:
        return formal.from_json(handle.read())


def cmd_analyze(args) -> int:
    op = _load_operator(args)
    data = formal.extract_formal_data(op)
    print(formal.to_json(data))
    print(f"rank {data.rank}, {len(data.points)} points", file=sys.stderr)
    for loc, factors in data.points:
        for w, s in factors:
            print(
                f"  {weylalg.format_location(loc):>8}  w = {w.format():<20} {s.format()}",
                file=sys.stderr,
            )
    return 0


def cmd_diagram(args) -> int:
    data = _load_formal(args.formal)
    basis = rootsys.build_basis(formal.to_shape(data))
    label, _ = rootsys.classify_diagram(basis)
    print(label)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(rootsys.dot_text(basis) + "\n")
    if args.gram:
        print(rootsys.cartan_matrix_text(basis))
    return 0


def cmd_reduce(args) -> int:
    data = _load_formal(args.formal)
    m = formal.m_vector(data)
    transcript = reduction.reduce_vector(m)
    if transcript.steps:
        print(transcript.to_json_lines())
    index = rootsys.idx(m)
    summary = f"verdict={transcript.verdict.value} idx={index}"
    if transcript.fundamental is not None:
        summary += f" fundamental={transcript.fundamental.to_text()}"
    print(summary)
    if args.operator is not None:
        op = weylalg.parse(args.operator)
        extracted = formal.extract_formal_data(op)
        if extracted != data:
            raise CliError(
                "operator does not match the formal data file", EXIT_CHECK_FAILED
            )
        result = reduction.reduce_operator(op, data=extracted)
        final_rank = result.final.rank
        print(f"operator cross-check passed; final rank {final_rank}")
    return 0


def cmd_fuchs(args) -> int:
    data = _load_formal(args.formal)
    defect = formal.fuchs_defect(data)
    print(defect)
    return 0 if defect.is_zero() else EXIT_CHECK_FAILED


def _parse_overrides(pairs) -> dict[str, Fraction]:
    overrides = {}
    for pair in pairs or []:
        name, _, value = pair.partition("=")
        if not name or not value:
            raise CliError(f"malformed --param {pair!r}", EXIT_BAD_INPUT)
        overrides[name] = parse_rat(value, f"--param {name}")
    return overrides


def _run_entry(name: str, seed: int, overrides) -> dict:
    entry = corpus.get(name)
    params = corpus.params_for(name, seed, overrides)
    op = corpus.instantiate(name, params)
    result = reduction.reduce_operator(
        op, reinstantiate=corpus.reinstantiator(name, seed, overrides)
    )
    basis = rootsys.build_basis(formal.to_shape(result.initial))
    label, _ = rootsys.classify_diagram(basis)
    m = result.transcript.initial
    verdict = result.transcript.verdict.value
    checks = {
        "diagram": (label, entry.expected_diagram),
        "m": (m.to_text(), entry.expected_m),
        "idx": (rootsys.idx(m), entry.expected_idx),
        "verdict": (verdict, entry.expected_verdict),
        "operator_verdict": (verdict, entry.expected_verdict),
    }
    failures = {k: v for k, v in checks.items() if v[0] != v[1]}
    return {
        "name": name,
        "ok": not failures,
        "got": {k: str(v[0]) for k, v in checks.items()},
        "failures": {k: [str(v[0]), str(v[1])] for k, v in failures.items()},
    }


def cmd_examples(args) -> int:
    overrides = _parse_overrides(args.param)
    selected = [corpus.get(args.only).name] if args.only else corpus.names()
    known = {key for name in selected for key in corpus.get(name).defaults}
    unknown = ", ".join(sorted(overrides.keys() - known))
    if unknown:
        raise CliError(f"--param {unknown}: no selected corpus entry has it", EXIT_BAD_INPUT)
    if not args.run:
        for name in selected:
            entry = corpus.get(name)
            print(
                f"{name:8s} diagram={entry.expected_diagram:15s} "
                f"m={entry.expected_m:18s} idx={entry.expected_idx} "
                f"verdict={entry.expected_verdict}"
            )
        return 0
    results = [_run_entry(name, args.seed, overrides) for name in selected]
    if args.json:
        print(json.dumps(results, indent=2))
    else:
        for res in results:
            status = "ok" if res["ok"] else "FAIL"
            got = res["got"]
            print(
                f"{res['name']:8s} {status:4s} diagram={got['diagram']:15s} "
                f"m={got['m']:18s} idx={got['idx']} verdict={got['verdict']}"
            )
            for key, (got_v, want) in res.get("failures", {}).items():
                print(f"  {key}: got {got_v}, expected {want}")
    return 0 if all(res["ok"] for res in results) else EXIT_CHECK_FAILED


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="irrkatz",
        description=(
            "Weyl-group structure of Euler transforms of differential "
            "operators with unramified irregular singularities"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="extract formal data from an operator")
    group = p_an.add_mutually_exclusive_group(required=True)
    group.add_argument("--op", help="operator expression")
    group.add_argument("--file", help="file containing an operator expression")
    p_an.set_defaults(func=cmd_analyze)

    p_di = sub.add_parser("diagram", help="classify and emit the Dynkin diagram")
    p_di.add_argument("--formal", required=True, help="formal-data JSON file")
    p_di.add_argument("--dot", help="write DOT text to this file")
    p_di.add_argument("--gram", action="store_true", help="print the Cartan matrix")
    p_di.set_defaults(func=cmd_diagram)

    p_re = sub.add_parser("reduce", help="run the reduction algorithm")
    p_re.add_argument("--formal", required=True, help="formal-data JSON file")
    p_re.add_argument("--operator", help="cross-check against this operator")
    p_re.set_defaults(func=cmd_reduce)

    p_fu = sub.add_parser("fuchs", help="report the Fuchs-relation defect")
    p_fu.add_argument("--formal", required=True, help="formal-data JSON file")
    p_fu.set_defaults(func=cmd_fuchs)

    p_ex = sub.add_parser("examples", help="list or run the built-in corpus")
    p_ex.add_argument("--run", action="store_true", help="run all checks")
    p_ex.add_argument("--only", help="restrict to one corpus entry")
    p_ex.add_argument("--seed", type=int, default=0)
    p_ex.add_argument("--param", action="append", help="override name=rat")
    p_ex.add_argument("--json", action="store_true", help="machine-readable results")
    p_ex.set_defaults(func=cmd_examples)

    return parser


def _bind_operator_text(argv) -> list[str]:
    """Join ``--op``, ``--operator`` or an abbreviation of them and the next
    word, which is always its value: argparse would read text that starts
    with "-", such as "-x*D", as an option."""
    words = []
    for word in argv:
        if words and len(words[-1]) > 2 and "--operator".startswith(words[-1]):
            words[-1] += "=" + word
        else:
            words.append(word)
    return words


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_bind_operator_text(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except _HANDLED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for classes, code in _EXIT_CODES if isinstance(exc, classes))


if __name__ == "__main__":
    sys.exit(main())
