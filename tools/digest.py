"""Print one SHA-256 per output family of irrkatz, to check that two
checkouts produce byte-identical results.

Run it from the root of each checkout and compare the lines:

    python3 tools/digest.py            # one "<sha256>  <section>" line each
    python3 tools/digest.py --show S   # the text of section S, to diff

The program is imported from this checkout's ``src/``; the operator texts
of ``analyze`` and the shapes of ``diagrams`` come from
``bench/workloads.py`` (left out without ``bench/``), those of
``parse_fuzz`` from the fuzz of ``tests/test_parse.py`` and those of
``random_operators`` from the generator of
``tests/test_random_operators.py``.  Nothing is
written: the commands that read a formal-data file are replayed through
the functions they call.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import random
import runpy
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from irrkatz import cli, corpus, formal, reduce as reduction, rootsys, weylalg  # noqa: E402
from irrkatz.exponents import act_sigma_perm, act_sigma_t, mu_sequence  # noqa: E402
from irrkatz.lattice import LatticeShape  # noqa: E402

#: Seeds of ``examples --run --json``, of the bench texts and of the bench
#: lattice shapes, and the ranks of the hypergeometric and Kummer ladders.
EXAMPLE_SEEDS = range(41)
BENCH_SEEDS = range(5)
LATTICE_SEEDS = range(41)
LADDER = range(2, 21)
#: Denominators of the ladder parameters, as in ``tests/test_reduce.py``:
#: rank n reads the first 2n - 1.
PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89,
          97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179,
          181)


def _cli(*argv: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return f"$ {' '.join(argv)}\n{out.getvalue()}{err.getvalue()}exit {code}\n"


def _module(name: str, path: Path):
    """The module at ``path``, or None without the file."""
    if not path.is_file():
        return None
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def examples() -> str:
    text = _cli("examples")
    for seed in EXAMPLE_SEEDS:
        text += _cli("examples", "--run", "--json", "--seed", str(seed))
    return text


def demos() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for demo in sorted((ROOT / "demos").glob("*.py")):
            print(f"== {demo.name}")
            runpy.run_path(str(demo), run_name="__main__")
    return out.getvalue()


def bench_texts() -> list[str]:
    workloads = _module("bench_workloads", ROOT / "bench" / "workloads.py")
    if workloads is None:
        return []
    texts = []
    for name in ("analyze_mix", "hyp_ladder"):
        for seed in BENCH_SEEDS:
            texts += [inst["op"] for inst in next(workloads.GENERATORS[name](seed))]
    return texts


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def diagrams() -> str:
    """The label and components of ``classify_diagram``, and a SHA-256 each
    of ``dot_text`` and ``cartan_matrix_text``, on the shapes of the first
    ``lattice_ladder`` pass at ``LATTICE_SEEDS`` and on the corpus shapes."""
    workloads = _module("bench_workloads", ROOT / "bench" / "workloads.py")
    shapes = [
        (f"lattice_ladder {seed}", LatticeShape(
            tuple(map(tuple, inst["chain_lengths"])),
            tuple(tuple(map(tuple, table)) for table in inst["weights"])))
        for seed in (LATTICE_SEEDS if workloads else ())
        for inst in next(workloads.GENERATORS["lattice_ladder"](seed))
    ]
    shapes += [(name, formal.to_shape(corpus.symbolic_formal_data(name)))
               for name in corpus.names()]
    out = io.StringIO()
    for name, shape in shapes:
        basis = rootsys.build_basis(shape)
        label, components = rootsys.classify_diagram(basis)
        print(f"== {name}: {len(basis.nodes)} nodes\n{label} {components}", file=out)
        print("dot", _sha(rootsys.dot_text(basis)), file=out)
        print("gram", _sha(rootsys.cartan_matrix_text(basis)), file=out)
    return out.getvalue()


def analyze() -> str:
    return "".join(_cli("analyze", "--op", text) for text in bench_texts())


def corpus_texts() -> str:
    """``to_text(parse(t))`` on the bench texts and the corpus operators,
    then ``diagram --gram --dot``, ``reduce`` and ``fuchs`` on the corpus
    formal data."""
    out = io.StringIO()
    for text in bench_texts():
        print(weylalg.to_text(weylalg.parse(text)), file=out)
    for name in corpus.names():
        text = weylalg.to_text(corpus.instantiate(name))
        print(f"== {name}\n{weylalg.to_text(weylalg.parse(text))}", file=out)
        data = formal.from_json(formal.to_json(formal.extract_formal_data(weylalg.parse(text))))
        basis = rootsys.build_basis(formal.to_shape(data))
        print(rootsys.classify_diagram(basis)[0], file=out)
        print(rootsys.cartan_matrix_text(basis), file=out)
        print(rootsys.dot_text(basis), file=out)
        m = formal.m_vector(data)
        transcript = reduction.reduce_vector(m)
        print(transcript.to_json_lines(), transcript.verdict.value, rootsys.idx(m), file=out)
        if transcript.fundamental is not None:
            print(transcript.fundamental.to_text(), file=out)
        print(formal.fuchs_defect(data), file=out)
    return out.getvalue()


def _hypergeometric(a, b) -> weylalg.DiffOperator:
    """theta * prod(theta + b_j - 1) - x * prod(theta + a_i), made primitive."""
    left = "".join(f"*(x*D + ({bj - 1}))" for bj in b)
    right = "".join(f"*(x*D + ({ai}))" for ai in a)
    return weylalg.prim(weylalg.parse(f"x*D{left} - x{right}"))


def ladders() -> str:
    """``reduce_operator`` transcripts and operators on nF(n-1) and on the
    Kummer ladder (n - 1 parameters a_i), n = 2..20."""
    out = io.StringIO()
    for kummer in (False, True):
        for n in LADDER:
            a = [Fraction(k + 1, PRIMES[k]) for k in range(n - kummer)]
            b = [Fraction(1, PRIMES[n + k]) for k in range(n - 1)]
            result = reduction.reduce_operator(_hypergeometric(a, b))
            print(f"== {'kummer' if kummer else 'nF'} {n}", file=out)
            print(result.transcript.to_json_lines(), result.transcript.verdict.value, file=out)
            for op in (*result.operators, result.final):
                print(weylalg.to_text(op), file=out)
    return out.getvalue()


#: Operator texts past the parser's bounds or malformed (a power, a power
#: of a power and a 33-factor product past MAX_DEGREE, nesting past
#: MAX_NESTING, implicit multiplication, a numeral past 4300 digits, a zero
#: denominator, an unknown symbol), then the two texts at the size bound.
PARSE_TEXTS = (
    "x^33", "(x^11)^3", "x*" * 33 + "D - 1",
    "(" * (weylalg.MAX_NESTING + 1) + "x*D" + ")" * (weylalg.MAX_NESTING + 1),
    "2 x", "D - " + "7" * 4301, "1/0*D", "D + y", "x^32*D - 1", "D^32",
)


def parse_errors() -> str:
    """The ``OperatorSyntaxError`` text, with its position, of each refused
    text of ``PARSE_TEXTS`` and ``to_text(parse(t))`` of each accepted one."""
    out = io.StringIO()
    for text in PARSE_TEXTS:
        try:
            result = weylalg.to_text(weylalg.parse(text))
        except weylalg.OperatorSyntaxError as exc:
            result = f"OperatorSyntaxError: {exc}"
        label = text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"
        print(f"{label} -> {result}", file=out)
    return out.getvalue()


#: Seeds and counts of the fuzz texts of ``tests/test_parse.py``.
FUZZ = ((16, 2500), (17, 1500))


def _test_module(name: str):
    """The module ``tests/<name>.py``, imported with ``tests/`` on the path."""
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        return _module(name, ROOT / "tests" / f"{name}.py")
    finally:
        sys.path.remove(str(ROOT / "tests"))


def parse_fuzz() -> str:
    """``to_text(parse(t))``, or the ``OperatorSyntaxError`` text with its
    position, of each fuzz text of ``tests/test_parse.py``."""
    tests = _test_module("test_parse")
    out = io.StringIO()
    for seed, count in FUZZ:
        for text in tests.fuzz_texts(seed, count):
            try:
                result = weylalg.to_text(weylalg.parse(text))
            except weylalg.OperatorSyntaxError as exc:
                result = f"OperatorSyntaxError: {exc}"
            print(f"{text!r} -> {result}", file=out)
    return out.getvalue()


def random_operators() -> str:
    """Exit code, stdout and stderr of ``analyze --op`` on the texts that
    ``tests/test_random_operators.random_operator_text`` draws at that
    test's seed and count: accepted data, and refusals that name every
    message of the spectral stage."""
    tests = _test_module("test_random_operators")
    rng = random.Random(tests.SEED)
    return "".join(
        _cli("analyze", "--op", tests.random_operator_text(rng)) for _ in range(tests.DRAWS)
    )


#: Seeds of the corpus instances whose twists ``twists`` prints.
TWIST_SEEDS = range(41)


def twists() -> str:
    """``to_text`` of operators with a denominator, on each corpus entry at
    ``TWIST_SEEDS``: ``ad_power`` at each finite singular point,
    ``ad_exp_raw`` at infinity and at the last finite singular point (1/3
    without one), ``subst_infty``, and the ``theta_expand`` error one unit
    right of that finite point, where the twist's denominator is not a
    power of x - c."""
    out = io.StringIO()
    for name in corpus.names():
        for seed in TWIST_SEEDS:
            p = weylalg.prim(corpus.instantiate(name, corpus.params_for(name, seed)))
            lam = Fraction(2 * seed + 1, 5)
            w = {1: Fraction(seed + 1, 3), 2: Fraction(-1, seed + 2)}
            print(f"== {name} {seed}", file=out)
            points = weylalg.singular_points(p)
            for c in points:
                print(f"ad_power {c}:", weylalg.ad_power(p, c, lam), file=out)
            c = points[-1] if points else Fraction(1, 3)
            for at in (weylalg.INF, c):
                print(f"ad_exp_raw {at}:", weylalg.ad_exp_raw(p, at, w), file=out)
            print("subst_infty:", weylalg.subst_infty(p), file=out)
            try:
                theta = weylalg.theta_expand(weylalg.ad_exp_raw(p, c, w), c + 1)
                print("theta_expand:", theta.terms[0][1], file=out)
            except ValueError as exc:
                print(f"theta_expand: ValueError: {exc}", file=out)
    return out.getvalue()


#: Points off the integers (and one on them) at which ``rational_twists``
#: twists every corpus instance.
RATIONAL_POINTS = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(3))


def rational_twists() -> str:
    """``to_text`` of ``ad_power`` and of ``ad_exp_raw`` with orders 1-3 at
    each of ``RATIONAL_POINTS``, on each corpus entry at ``TWIST_SEEDS``,
    and ``min_index`` and the first three terms of the ``theta_expand`` of
    each at that point."""
    out = io.StringIO()
    for name in corpus.names():
        for seed in TWIST_SEEDS:
            p = weylalg.prim(corpus.instantiate(name, corpus.params_for(name, seed)))
            lam = Fraction(2 * seed + 1, 5)
            w = {1: Fraction(seed + 1, 3), 2: Fraction(-1, seed + 2), 3: Fraction(seed + 2, 7)}
            print(f"== {name} {seed}", file=out)
            for c in RATIONAL_POINTS:
                for label, q in (("ad_power", weylalg.ad_power(p, c, lam)),
                                 ("ad_exp_raw", weylalg.ad_exp_raw(p, c, w))):
                    theta = weylalg.theta_expand(q, c)
                    print(f"{label} {c}:", q, file=out)
                    print(f"theta_expand: {theta.min_index}",
                          *(f"{i}: {t}" for i, t in theta.terms[:3]), sep="; ", file=out)
    return out.getvalue()


def exponents() -> str:
    """The exponent action on the symbolic formal data of each corpus entry:
    ``act_sigma_perm``, ``act_sigma_t`` and ``fuchs_defect_of`` along its
    ``reduce_vector`` transcript, then ``act_sigma_t`` along every index
    tuple, ``act_sigma_perm`` at every slot of the start and ``mu_sequence``
    (six steps) for every ordered pair of distinct tuples."""
    out = io.StringIO()
    for name in corpus.names():
        data = corpus.symbolic_formal_data(name)
        m = formal.m_vector(data)
        nu = formal.exponent_vector(data, m.shape)
        print(f"== {name}\n{nu.to_text()}\nfuchs {formal.fuchs_defect_of(m, nu)}", file=out)
        cur = nu
        for step in reduction.reduce_vector(m).steps:
            if step.kind == "twisted_euler":
                cur = act_sigma_t(cur, step.index)
            else:
                cur = act_sigma_perm(cur, *step.index)
            print(step.kind, step.index, cur.to_text(), file=out)
            print("fuchs", formal.fuchs_defect_of(step.after, cur), file=out)
        tuples = m.shape.index_tuples()
        for t in tuples:
            moved = act_sigma_t(nu, t)
            print("t", t, moved.to_text(), formal.fuchs_defect_of(m.sigma_t(t), moved), file=out)
        for i, lens in enumerate(m.shape.chain_lengths):
            for j, length in enumerate(lens):
                for s in range(length - 1):
                    print("perm", (i, j, s), act_sigma_perm(nu, i, j, s).to_text(), file=out)
        for t in tuples:
            for t2 in tuples:
                if t != t2:
                    pairs = mu_sequence(m.shape, t, t2, nu, 6)
                    print("mu", t, t2, "; ".join(f"{a}, {b}" for a, b in pairs), file=out)
    return out.getvalue()


#: Corpus entries and ``--param`` overrides that ``overrides`` runs.
OVERRIDES = (
    ("Gauss", "a=2/13"), ("Gauss", "a=1"), ("Gauss", "a=3/5"), ("Gauss", "c=0"),
    ("Heun", "t=1"), ("Heun", "c=1"),
)


def overrides() -> str:
    """Exit code, stdout and stderr of ``examples --run --only E --param P``
    for each pair of ``OVERRIDES``: each run reduces the instance asked
    for, whether it passes or fails."""
    return "".join(
        _cli("examples", "--run", "--only", name, "--param", param) for name, param in OVERRIDES
    )


SECTIONS = {
    "examples": examples,
    "demos": demos,
    "analyze": analyze,
    "diagrams": diagrams,
    "texts": corpus_texts,
    "ladders": ladders,
    "parse_errors": parse_errors,
    "parse_fuzz": parse_fuzz,
    "random_operators": random_operators,
    "twists": twists,
    "rational_twists": rational_twists,
    "exponents": exponents,
    "overrides": overrides,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--show", choices=sorted(SECTIONS), help="print this section's text")
    args = parser.parse_args(argv)
    if args.show:
        sys.stdout.write(SECTIONS[args.show]())
        return 0
    for name, make in SECTIONS.items():
        print(_sha(make()), name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
