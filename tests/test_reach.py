"""Every module-level function in ``irrkatz`` is reached by what the
package is for: the CLI commands on the built-in corpus and the demos.

A function only the tests call belongs in ``tests/oracles.py``, not in
``src``.  The walk below runs in-process under ``sys.setprofile`` and
records the code object of every Python call; a function whose code
object never ran, and that is not in ``ALLOWED`` with its reason, fails
the test.
"""


import contextlib
import importlib
import inspect
import io
import pkgutil
import runpy
import sys
from pathlib import Path

import irrkatz
from irrkatz import cli, corpus, weylalg

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: Functions no CLI command or demo reaches, each with the reason it stays.
ALLOWED = {
    "irrkatz.rootsys.is_phi_root":
        "the verdict on a bare lattice vector: public API for the planned "
        "construction of operators from formal data (ROADMAP)",
    "irrkatz.exponents.mu_sequence":
        "the shift sequence of a Coxeter element, read by the criterion-6 test",
    **{
        f"irrkatz.corpus.{name}": "the closed-form formal data of one corpus entry, "
        "which the tests check extraction against; demo 04 reads only two of them"
        for name in ("_heun_symbolic", "_cheun_symbolic", "_bheun_symbolic",
                     "_theun_symbolic", "_dheun_symbolic", "_gauss_symbolic")
    },
}


def _functions():
    """``module.name`` of every function defined at the top level of a
    module of the package, with its code object."""
    out = {}
    for info in pkgutil.iter_modules(irrkatz.__path__, "irrkatz."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            fn = inspect.unwrap(value)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                out[f"{module.__name__}.{name}"] = fn.__code__
    return out


def _walk(tmp_path):
    """The CLI commands on every corpus entry, then the four demos."""
    runs = [["examples"], ["examples", "--run", "--seed", "0"]]
    for name in corpus.names():
        text = weylalg.to_text(corpus.instantiate(name))
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


def test_every_src_function_is_reached(tmp_path):
    functions = _functions()
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    # the parser is built once per process: drop an earlier test's so the walk builds it
    cli.build_parser.cache_clear()
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
    assert not unreached, "no CLI command or demo reaches " + ", ".join(unreached)
    assert set(ALLOWED) <= set(functions), "an allowlisted function is gone"
