"""Every function in ``irrkatz``, at module level or in a class body, is
reached by what the package is for: the CLI commands on the built-in
corpus, the demos, and one checked pass of each benchmark workload (when
the checkout has ``bench/``).

A function only the tests call belongs in ``tests/oracles.py``, not in
``src``.  The walk below runs in-process under ``sys.setprofile`` and
records the code object of every Python call; a function whose code
object never ran, and that is not in ``ALLOWED`` with its reason, fails
the test; so does an ``ALLOWED`` entry that the walk reaches, since its
reason no longer holds.  Methods that ``@dataclass`` generates (the
``__eq__``, ``__hash__`` and ``__setattr__`` of a frozen value class) are
compiled from text built at import, not from the source files, so the walk
does not list them.
"""


import contextlib
import importlib
import importlib.util
import inspect
import io
import pkgutil
import runpy
import sys
from pathlib import Path

import irrkatz
from irrkatz import cli, corpus, polys, weylalg

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCH = ROOT / "bench"

#: Functions no CLI command, demo or bench pass reaches, each with the
#: reason it stays.
ALLOWED = {
    "irrkatz.exponents.mu_sequence":
        "the shift sequence of a Coxeter element, read by the criterion-6 test",
    **{
        f"irrkatz.corpus.{name}": "the closed-form formal data of one corpus entry, "
        "which the tests check extraction against"
        for name in ("_heun_symbolic", "_theun_symbolic", "_dheun_symbolic", "_gauss_symbolic")
    },
    # methods, by reason
    **dict.fromkeys(
        [f"irrkatz.{cls}.__setattr__" for cls in ("polys.Poly", "scalar.ParamExpr")],
        "the guard of an immutable value: only an assignment, a caller's bug, reaches it"),
    **dict.fromkeys(
        [f"irrkatz.{cls}.__hash__" for cls in ("polys.Poly", "scalar.ParamExpr")]
        + [f"irrkatz.{cls}.__repr__" for cls in (
            "formal.ExponentialFactor", "formal.SpectralData", "lattice.SlotTable", "polys.Poly",
            "rootsys.RootVector", "scalar.ParamExpr", "weylalg.DiffOperator",
            "weylalg._Infinity")]
        + ["irrkatz.polys.Poly.__eq__"]
        + ["irrkatz.lattice.LatticeVector.__str__", "irrkatz.weylalg.DiffOperator.__bool__"],
        "the value protocol: a value compares, is false when zero and hashes, and every "
        "value shows in a debugger; nothing the walk runs compares, tests, hashes or "
        "prints these"),
    **dict.fromkeys(
        ["irrkatz.cli.CliError.__init__", "irrkatz.weylalg.OperatorSyntaxError.__init__"],
        "raised on malformed input (a bad --param, bad operator text), which the walk "
        "does not give; test_cli and test_parse do"),
    "irrkatz.weylalg._Infinity.__new__": "runs once, when weylalg is imported, before the walk",
    "irrkatz.weylalg.DiffOperator.__init__":
        "the guard of the class: operators are built by parse, X, D, DiffOperator.of and the "
        "transforms, so only a caller's bug calls the class",
    **dict.fromkeys(
        [f"irrkatz.polys.Poly.{name}" for name in (
            "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__pow__")],
        "the arithmetic protocol: a Poly adds, subtracts, negates and raises to a power as "
        "it multiplies; the pipeline works on integer rows and twists at 0, so none of its "
        "steps does, but the tests and oracles build their polynomials with these"),
    "irrkatz.reduce.Transcript.euler_steps":
        "the bench's reduce_operator span counts a traced run's Euler steps with it; the "
        "walk's bench pass is untraced",
}


def _code(value):
    """The code object of a function, method, static or class method,
    property getter or cached property in the source; None otherwise."""
    value = getattr(value, "fget", None) or getattr(value, "func", None) or value
    fn = inspect.unwrap(getattr(value, "__func__", value))
    return fn.__code__ if inspect.isfunction(fn) else None


def _functions():
    """``module.name`` and ``module.Class.name`` of every function defined
    in the source of a module of the package, with its code object."""
    out = {}
    for info in pkgutil.iter_modules(irrkatz.__path__, "irrkatz."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            members = vars(value).items() if inspect.isclass(value) else [("", value)]
            for attr, member in members:
                code = _code(member)
                if code is not None and code.co_filename == module.__file__:
                    out[".".join(filter(None, (module.__name__, name, attr)))] = code
    return out


def _bench_pass():
    """One pass of each benchmark workload, each operation checked by the
    bench's own check; nothing without ``bench/``."""
    if not (BENCH / "run.py").is_file():
        return
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(bench_run)
    finally:
        sys.path[:] = saved
    for workload, (op, check) in bench_run.OPS.items():
        for inst in next(bench_run.workloads.GENERATORS[workload](0)):
            assert check(irrkatz, inst, op(irrkatz, inst)) is None, (workload, inst)


#: An operator outside the corpus: the Kummer operator, whose Euler step
#: keeps the factor x at infinity, so that step's check peels an irregular
#: factor.
KUMMER = "x*D^2 + (-x + 1/13)*D - 1/7"


def _walk(tmp_path):
    """The CLI commands on every corpus entry and on ``KUMMER``, the four
    demos, one bench pass."""
    runs = [["examples"], ["examples", "--run", "--seed", "0"]]
    texts = {name: weylalg.to_text(corpus.instantiate(name)) for name in corpus.names()}
    for name, text in {**texts, "Kummer": KUMMER}.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["analyze", "--op", text]) == 0
        path = tmp_path / f"{name}.json"
        path.write_text(out.getvalue(), encoding="utf-8")
        runs += [
            ["diagram", "--formal", str(path), "--gram", "--dot", str(tmp_path / f"{name}.dot")],
            ["reduce", "--formal", str(path), "--operator", text],
            ["fuchs", "--formal", str(path)],
        ]
    for argv in runs:
        assert cli.main(argv) == 0, argv
    for demo in DEMOS:
        runpy.run_path(str(demo), run_name="__main__")
    _bench_pass()


def test_every_src_function_is_reached(tmp_path):
    functions = _functions()
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    # memos fill once per process: drop an earlier test's so the walk fills them
    cli.build_parser.cache_clear()
    polys.falling_factorial.cache_clear()
    weylalg._lah.cache_clear()
    sink = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            _walk(tmp_path)
    finally:
        sys.setprofile(None)
    unreached = sorted(
        name for name, code in functions.items() if code not in reached and name not in ALLOWED
    )
    assert not unreached, "no CLI command, demo or bench pass reaches " + ", ".join(unreached)
    assert set(ALLOWED) <= set(functions), "an allowlisted function is gone"
    stale = sorted(name for name in ALLOWED if functions[name] in reached)
    assert not stale, "the walk reaches these allowlisted functions: " + ", ".join(stale)
