import json
from fractions import Fraction

import pytest

from irrkatz import cli, corpus, formal, rootsys
from irrkatz.weylalg import to_text


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_analyze_emits_formal_json(capsys):
    code, out, err = run(capsys, "analyze", "--op", "x*D - 5")
    assert code == 0
    data = formal.from_json(out)
    assert data.rank == 1
    assert "w = 0" in err


def test_analyze_file_input(tmp_path, capsys):
    path = tmp_path / "op.txt"
    path.write_text("D^2 + (-x^2-7)*D + (-2*x+3)", encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "--file", str(path))
    assert code == 0
    assert formal.from_json(out).rank == 2


def test_analyze_exit_codes(capsys):
    assert run(capsys, "analyze", "--op", "D^2 + )")[0] == 2
    assert run(capsys, "analyze", "--op", "D^2 - x")[0] == 3          # ramified
    assert run(capsys, "analyze", "--op", "(x^2 - 2)*D - 1")[0] == 3  # irrational point
    assert run(capsys, "analyze", "--op", "x^2*D^2 + x*D + 1")[0] == 4  # x^2 + 1 does not split


@pytest.mark.parametrize("option, text", [("--op", "-x*D"), ("--op", "-D"), ("--o", "-D")])
def test_analyze_reads_operator_text_that_starts_with_minus(capsys, option, text):
    code, out, err = run(capsys, "analyze", option, text)
    assert code == 0 and formal.from_json(out).rank == 1
    assert (code, out, err) == run(capsys, "analyze", f"--op={text}")


def test_reduce_reads_operator_text_that_starts_with_minus(tmp_path, capsys):
    path = tmp_path / "minus_d.json"
    path.write_text(run(capsys, "analyze", "--op", "-D")[1], encoding="utf-8")
    for option in ("--operator", "--op"):
        code, out, _ = run(capsys, "reduce", "--formal", str(path), option, "-D")
        assert code == 0 and "operator cross-check passed" in out
    gauss = run(capsys, "analyze", "--op", to_text(corpus.instantiate("Gauss")))[1]
    path.write_text(gauss, encoding="utf-8")
    code, _, err = run(capsys, "reduce", "--formal", str(path), "--operator", "-D")
    assert code == 1 and "does not match" in err


def test_unverified_chains_exit_code(capsys):
    # at c = 0 the exponents 0 and 1 - c at x = 0 differ by an integer and
    # the triangular vanishing conditions fail
    code, _, err = run(capsys, "examples", "--run", "--only", "Gauss", "--param", "c=0")
    assert code == 4
    assert "triangular vanishing conditions fail" in err


@pytest.mark.parametrize("text", ["x^1000000000", "x^33", "(x^11)^3", "x*" * 33 + "D - 1"])
def test_analyze_rejects_oversized_operator(capsys, text):
    # rejected while parsing, before any dense power or product is built
    code, _, err = run(capsys, "analyze", "--op", text)
    assert code == 2
    assert "limited to 32" in err


def test_analyze_accepts_operator_at_size_bound(capsys):
    code, out, _ = run(capsys, "analyze", "--op", "x^32*D - 1")
    assert code == 0
    assert formal.from_json(out).rank == 1



def test_analyze_high_power_of_d(capsys):
    # the characteristic polynomial at infinity has degree 24 and the
    # roots -23..0, so its rational roots must not be found by trying
    # divisor pairs of its coefficients
    code, out, _ = run(capsys, "analyze", "--op", "D^24")
    assert code == 0
    assert formal.from_json(out).rank == 24


def test_analyze_trivial_rank_one(capsys):
    code, out, _ = run(capsys, "analyze", "--op", "D")
    assert code == 0
    assert json.loads(out)["points"][0]["location"] == "inf"


def test_diagram_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "analyze", "--op", to_text(corpus.instantiate("Heun")))
    assert code == 0
    path = tmp_path / "heun.json"
    path.write_text(out, encoding="utf-8")
    dot_path = tmp_path / "heun.dot"
    code, out, _ = run(
        capsys, "diagram", "--formal", str(path), "--dot", str(dot_path), "--gram"
    )
    assert code == 0
    assert out.splitlines()[0] == "D4(1)"
    assert dot_path.read_text(encoding="utf-8").startswith("graph")
    assert "2" in out


def test_diagram_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert run(capsys, "diagram", "--formal", str(path))[0] == 2
    assert run(capsys, "diagram", "--formal", str(tmp_path / "missing.json"))[0] == 2


def star_json(points, factors, chain=1):
    """Formal data with the given counts of points and of factors per
    point; factor j has pole order 1 and coefficient j."""
    return json.dumps({"points": [
        {
            "location": "inf" if i == 0 else str(i - 1),
            "factors": [
                {
                    "w": [[1, str(j)]] if j else [],
                    "spectral": [[f"{j + 1}/{k + 7}", 1] for k in range(chain)],
                }
                for j in range(factors)
            ],
        }
        for i in range(points)
    ]})


def test_diagram_rejects_formal_data_above_node_bound(tmp_path, capsys):
    # 3^8 = 6561 basis nodes: rejected before any basis or Gram matrix exists
    path = tmp_path / "big.json"
    path.write_text(star_json(8, 3), encoding="utf-8")
    code, _, err = run(capsys, "diagram", "--formal", str(path))
    assert code == 2
    assert f"MAX_NODES = {formal.MAX_NODES}" in err
    # the bound is inclusive: 2^10 tuple nodes pass, 20 more chain nodes do not
    assert len(formal.to_shape(formal.from_json(star_json(10, 2))).index_tuples()) == 1024
    with pytest.raises(ValueError, match="MAX_NODES"):
        formal.from_json(star_json(10, 2, chain=2))
    assert formal.from_json(star_json(5, 2, chain=2)).rank == 4    # valid below the bound


@pytest.mark.parametrize("name", corpus.names())
def test_diagram_accepts_corpus_formal_data(tmp_path, capsys, name):
    path = tmp_path / "entry.json"
    path.write_text(formal.to_json(corpus.symbolic_formal_data(name)), encoding="utf-8")
    assert run(capsys, "diagram", "--formal", str(path))[0] == 0


def test_diagram_writes_dot_text_only_for_dot(tmp_path, capsys, monkeypatch):
    for name in corpus.names():
        data = corpus.symbolic_formal_data(name)
        path = tmp_path / "entry.json"
        path.write_text(formal.to_json(data), encoding="utf-8")
        dot_path = tmp_path / "entry.dot"
        code, out, _ = run(
            capsys, "diagram", "--formal", str(path), "--dot", str(dot_path), "--gram"
        )
        basis = rootsys.build_basis(formal.to_shape(data))
        assert code == 0
        assert dot_path.read_text(encoding="utf-8") == rootsys.dot_text(basis) + "\n"
        assert out == (
            rootsys.classify_diagram(basis)[0] + "\n" + rootsys.cartan_matrix_text(basis) + "\n"
        )
    calls = []
    monkeypatch.setattr(rootsys, "dot_text", lambda basis: calls.append(basis) or "")
    path.write_text(formal.to_json(corpus.symbolic_formal_data("Heun")), encoding="utf-8")
    code, out, _ = run(capsys, "diagram", "--formal", str(path), "--gram")
    assert code == 0 and out.startswith("D4(1)\n")
    code, out, _ = run(capsys, "examples", "--run")
    assert code == 0 and out.count(" ok ") == len(corpus.names())
    assert calls == []


@pytest.mark.parametrize(
    "command, code_at_bound", [("diagram", 0), ("reduce", 0), ("fuchs", 1)]
)
def test_formal_data_point_bound(tmp_path, capsys, command, code_at_bound):
    # one-factor, one-chain points add no basis node, so MAX_NODES lets any
    # number of them through; the point count has its own bound
    path = tmp_path / "points.json"
    for points in (34, 1000):
        path.write_text(star_json(points, 1), encoding="utf-8")
        code, _, err = run(capsys, command, "--formal", str(path))
        assert code == 2
        assert "more than MAX_DEGREE + 1 = 33 points" in err
    # at the bound the data are read; fuchs exits 1 on their nonzero defect
    path.write_text(star_json(33, 1), encoding="utf-8")
    assert run(capsys, command, "--formal", str(path))[0] == code_at_bound


def d4_star_json(first, second):
    """Four points with one zero factor each and two chains of the given
    multiplicities: rank first + second."""
    return json.dumps({"points": [
        {
            "location": location,
            "factors": [{"w": [], "spectral": [[f"1/{k + 7}", first], [f"1/{k + 11}", second]]}],
        }
        for k, location in enumerate(("inf", "0", "1", "2"))
    ]})


@pytest.mark.parametrize(
    "command, code_at_bound", [("reduce", 0), ("diagram", 0), ("fuchs", 1)]
)
def test_formal_data_rank_bound(tmp_path, capsys, command, code_at_bound):
    # rank 200001 used to run a reduction of 500,000 steps; the rank is
    # read from the raw JSON, before any object is built
    path = tmp_path / "rank.json"
    for first, second in ((10**5 + 1, 10**5), (17, 16)):
        path.write_text(d4_star_json(first, second), encoding="utf-8")
        code, _, err = run(capsys, command, "--formal", str(path))
        assert code == 2
        assert f"rank {first + second} is more than MAX_DEGREE = 32" in err
    path.write_text(d4_star_json(17, 15), encoding="utf-8")
    assert formal.from_json(path.read_text(encoding="utf-8")).rank == 32
    assert run(capsys, command, "--formal", str(path))[0] == code_at_bound


def test_reduce_unbalanced_formal_data(tmp_path, capsys):
    path = tmp_path / "unbalanced.json"
    path.write_text(
        '{"points":[{"location":"inf","factors":[{"w":[],"spectral":[["1/2",2]]}]},'
        '{"location":"0","factors":[{"w":[],"spectral":[["1/3",1]]}]}]}',
        encoding="utf-8",
    )
    assert run(capsys, "reduce", "--formal", str(path))[0] == 2


def test_reduce_pipeline(tmp_path, capsys):
    gauss = corpus.instantiate("Gauss")
    code, out, _ = run(capsys, "analyze", "--op", to_text(gauss))
    path = tmp_path / "gauss.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "reduce", "--formal", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert "verdict=RealRoot idx=2" in lines[-1]
    assert json.loads(lines[0])["defect"] == -1
    code, out, _ = run(
        capsys, "reduce", "--formal", str(path), "--operator", to_text(gauss)
    )
    assert code == 0
    assert "final rank 1" in out


def test_reduce_operator_mismatch(tmp_path, capsys):
    code, out, _ = run(capsys, "analyze", "--op", to_text(corpus.instantiate("Gauss")))
    path = tmp_path / "gauss.json"
    path.write_text(out, encoding="utf-8")
    code, _, err = run(capsys, "reduce", "--formal", str(path), "--operator", "x*D - 5")
    assert code == 1
    assert "does not match" in err


def test_fuchs_command(tmp_path, capsys):
    code, out, _ = run(capsys, "analyze", "--op", to_text(corpus.instantiate("cHeun")))
    path = tmp_path / "cheun.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "fuchs", "--formal", str(path))
    assert code == 0
    assert out.strip() == "0"
    # perturb one exponent: defect becomes nonzero, exit 1
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["points"][1]["factors"][0]["spectral"][1][0] = "1/9"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "fuchs", "--formal", str(path))
    assert code == 1
    assert out.strip() != "0"


def test_fuchs_builds_the_shape_once(tmp_path, capsys, monkeypatch):
    to_shape = formal.to_shape
    shapes = []

    def counted(data):
        shapes.append(data)
        return to_shape(data)

    path = tmp_path / "data.json"
    nonzero = 0
    for name in corpus.names():
        doc = json.loads(formal.to_json(formal.extract_formal_data(corpus.instantiate(name))))
        for perturbed in (False, True):
            if perturbed:
                doc["points"][-1]["factors"][0]["spectral"][0][0] = "1/9"
            path.write_text(json.dumps(doc), encoding="utf-8")
            data = formal.from_json(path.read_text(encoding="utf-8"))
            # the defect as fuchs_defect composed it before building the shape once
            expected = formal.fuchs_defect_of(
                to_shape(data), formal.m_vector(data), formal.exponent_vector(data)
            )
            monkeypatch.setattr(formal, "to_shape", counted)
            shapes.clear()
            code, out, _ = run(capsys, "fuchs", "--formal", str(path))
            monkeypatch.setattr(formal, "to_shape", to_shape)
            assert len(shapes) == 1
            assert out == f"{expected}\n"
            assert code == (0 if expected.is_zero() else 1)
            nonzero += not expected.is_zero()
    assert nonzero == len(corpus.names())


def test_examples_listing_and_run(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    assert len(out.strip().splitlines()) == 6
    code, out, _ = run(capsys, "examples", "--run", "--only", "tHeun")
    assert code == 0
    assert "tHeun" in out and "ok" in out


def test_examples_run_json(capsys):
    code, out, _ = run(capsys, "examples", "--run", "--only", "dHeun", "--json")
    assert code == 0
    results = json.loads(out)
    assert results[0]["ok"] is True
    assert results[0]["got"]["diagram"] == "A1(1) + A1(1)"


def test_examples_param_override(capsys):
    code, out, _ = run(
        capsys, "examples", "--run", "--only", "Gauss", "--param", "a=2/13"
    )
    assert code == 0


def test_examples_unknown_entry(capsys):
    assert run(capsys, "examples", "--run", "--only", "nope")[0] == 2


def test_assumption_violation_exit_code(tmp_path, capsys):
    # integer exponent at infinity: the twisted Euler hypotheses fail and
    # no retry hook is available for a bare operator
    op = corpus.instantiate("Gauss", {"a": 1, "b": corpus.get("Gauss").defaults["b"], "c": corpus.get("Gauss").defaults["c"]})
    code, out, _ = run(capsys, "analyze", "--op", to_text(op))
    assert code == 0
    path = tmp_path / "res.json"
    path.write_text(out, encoding="utf-8")
    code, _, err = run(capsys, "reduce", "--formal", str(path), "--operator", to_text(op))
    assert code == 5


def test_examples_run_extracts_once_per_operator(monkeypatch, capsys):
    # one extraction of the input and one after the single Euler step
    from irrkatz import reduce as reduction

    calls = []
    original = formal.extract_formal_data

    def counting(op):
        calls.append(op)
        return original(op)

    monkeypatch.setattr(formal, "extract_formal_data", counting)
    monkeypatch.setattr(reduction, "extract_formal_data", counting)
    code, out, _ = run(capsys, "examples", "--run", "--only", "Gauss")
    assert code == 0 and "ok" in out
    assert len(calls) == 2



def test_reduce_operator_extracts_input_once(tmp_path, monkeypatch, capsys):
    # the operator is extracted once for the comparison with the file and
    # that extraction seeds the reduction; one more after the Euler step
    from irrkatz import reduce as reduction

    gauss = corpus.instantiate("Gauss")
    code, out, _ = run(capsys, "analyze", "--op", to_text(gauss))
    path = tmp_path / "gauss.json"
    path.write_text(out, encoding="utf-8")
    calls, steps = [], []
    original, original_euler = formal.extract_formal_data, reduction.twisted_euler

    def counting(op):
        calls.append(op)
        return original(op)

    def counting_euler(*args):
        steps.append(args)
        return original_euler(*args)

    monkeypatch.setattr(formal, "extract_formal_data", counting)
    monkeypatch.setattr(reduction, "extract_formal_data", counting)
    monkeypatch.setattr(reduction, "twisted_euler", counting_euler)
    code, out, _ = run(capsys, "reduce", "--formal", str(path), "--operator", to_text(gauss))
    assert code == 0 and "final rank 1" in out
    assert calls.count(gauss) == 1 and len(calls) == 2 and len(steps) == 1
    calls.clear()
    steps.clear()
    code, _, err = run(capsys, "reduce", "--formal", str(path), "--operator", "x*D - 5")
    assert code == 1 and "does not match" in err
    assert len(calls) == 1 and steps == []


def test_analyze_zero_denominator(capsys):
    code, _, err = run(capsys, "analyze", "--op", "1/0*D")
    assert code == 2
    assert "zero denominator" in err


def test_examples_param_zero_denominator(capsys):
    code, _, err = run(capsys, "examples", "--run", "--param", "a=1/0")
    assert code == 2
    assert "--param a: zero denominator in '1/0'" in err


@pytest.mark.parametrize(
    "location, w, exponent",
    [("1/0", "[]", "1/3"), ("0", '[[1,"1/0"]]', "1/3"), ("0", "[]", "1/0")],
)
def test_formal_json_zero_denominator(tmp_path, capsys, location, w, exponent):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"points":[{"location":"inf","factors":[{"w":[],"spectral":[["1/2",1]]}]},'
        f'{{"location":"{location}","factors":[{{"w":{w},"spectral":[["{exponent}",1]]}}]}}]}}',
        encoding="utf-8",
    )
    for command in ("diagram", "reduce", "fuchs"):
        code, _, err = run(capsys, command, "--formal", str(path))
        assert code == 2
        assert "malformed formal-data JSON" in err


# JSON text of values that are not p or p/q in decimal digits as a string:
# exponent notation, a decimal, a JSON float and a JSON int
NOT_RATIONAL = ['"1e3"', '"0.1"', "0.1", "1"]


@pytest.mark.parametrize("value", NOT_RATIONAL)
@pytest.mark.parametrize(
    "point, field",
    [
        ('"location":{},"factors":[{{"w":[],"spectral":[["1/3",1]]}}]', "location:"),
        ('"location":"0","factors":[{{"w":[[1,{}]],"spectral":[["1/3",1]]}}]', "w:"),
        ('"location":"0","factors":[{{"w":[],"spectral":[[{},1]]}}]', "spectral:"),
    ],
)
def test_formal_json_rejects_non_rational_text(tmp_path, capsys, value, point, field):
    # spectral values are scalar expressions; their errors quote the text
    path = tmp_path / "bad.json"
    path.write_text(
        '{"points":[{"location":"inf","factors":[{"w":[],"spectral":[["1/2",1]]}]},'
        f"{{{point.format(value)}}}]}}",
        encoding="utf-8",
    )
    for command in ("diagram", "reduce", "fuchs"):
        code, _, err = run(capsys, command, "--formal", str(path))
        assert code == 2
        assert f"malformed formal-data JSON: {field}" in err


ONE_AT_INF = '{"w":[],"spectral":[["1/2",1]]}'


@pytest.mark.parametrize(
    "inf_factor, zero_factor, field",
    [
        # read with int(), both truncate to 1: reduce reported RealRoot idx=2
        ('{"w":[],"spectral":[["1/2",1.9]]}', '{"w":[],"spectral":[["1/3",true]]}', "spectral:"),
        ('{"w":[],"spectral":[["1/2",true]]}', '{"w":[],"spectral":[["1/3",1]]}', "spectral:"),
        (ONE_AT_INF, '{"w":[],"spectral":[["1/3",true]]}', "spectral:"),
        (ONE_AT_INF, '{"w":[],"spectral":[["1/3","1"]]}', "spectral:"),
        (ONE_AT_INF, '{"w":[[1.7,"2"]],"spectral":[["1/3",1]]}', "w:"),
        (ONE_AT_INF, '{"w":[[true,"2"]],"spectral":[["1/3",1]]}', "w:"),
    ],
)
def test_formal_json_requires_integer_counts(tmp_path, capsys, inf_factor, zero_factor, field):
    # multiplicities and w orders are JSON integers; nothing is truncated
    path = tmp_path / "bad.json"
    path.write_text(
        f'{{"points":[{{"location":"inf","factors":[{inf_factor}]}},'
        f'{{"location":"0","factors":[{zero_factor}]}}]}}',
        encoding="utf-8",
    )
    for command in ("diagram", "reduce", "fuchs"):
        code, _, err = run(capsys, command, "--formal", str(path))
        assert code == 2
        assert f"malformed formal-data JSON: {field} expected an integer" in err


def test_formal_json_huge_exponent_exits_at_once(tmp_path, capsys):
    # "1e10000000" used to be expanded to a ten-million-digit numerator
    data = json.loads(formal.to_json(formal.extract_formal_data(corpus.instantiate("cHeun"))))
    w = next(f for e in data["points"] for f in e["factors"] if f["w"])
    w["w"] = [[1, "1e10000000"]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run(capsys, "reduce", "--formal", str(path))
    assert code == 2
    assert "w: expected p or p/q in decimal digits, got '1e10000000'" in err
    # one digit past Python's limit on integer strings is refused too
    w["w"] = [[1, "1" * 4301]]
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(capsys, "reduce", "--formal", str(path))[0] == 2


@pytest.mark.parametrize("value", ["1e3", "1e3000000", "0.1", ".5", "1/2.0", " 1", "+1", "0x10"])
def test_examples_param_rejects_non_rational_text(capsys, value):
    code, _, err = run(capsys, "examples", "--run", "--only", "Gauss", "--param", f"a={value}")
    assert code == 2
    assert f"--param a: expected p or p/q in decimal digits, got {value!r}" in err


# numerals that match the p/q grammar but have no value: a zero denominator
# and more digits than Python converts from a string (4300 by default)
LONG_NUMERAL = "7" * 4301
NO_VALUE = [
    ("1/0", "zero denominator in '1/0'"),
    (f"1/{LONG_NUMERAL}", "numeral with more than 4300 digits"),
    (LONG_NUMERAL, "numeral with more than 4300 digits"),
]


@pytest.mark.parametrize("value, message", NO_VALUE)
@pytest.mark.parametrize(
    "point, field",
    [
        ('"location":"{}","factors":[{{"w":[],"spectral":[["1/3",1]]}}]', "location:"),
        ('"location":"0","factors":[{{"w":[[1,"{}"]],"spectral":[["1/3",1]]}}]', "w:"),
        ('"location":"0","factors":[{{"w":[],"spectral":[["{}",1]]}}]', "spectral:"),
        ('"location":"0","factors":[{{"w":[],"spectral":[["1/3 + {}*a",1]]}}]', "spectral:"),
    ],
)
def test_formal_json_numeral_without_value_names_the_field(tmp_path, capsys, value, message, point, field):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"points":[{"location":"inf","factors":[{"w":[],"spectral":[["1/2",1]]}]},'
        f"{{{point.format(value)}}}]}}",
        encoding="utf-8",
    )
    for command in ("diagram", "reduce", "fuchs"):
        code, _, err = run(capsys, command, "--formal", str(path))
        assert code == 2
        assert f"malformed formal-data JSON: {field} {message}" in err


@pytest.mark.parametrize("value, message", NO_VALUE)
def test_examples_param_numeral_without_value_names_the_field(capsys, value, message):
    code, _, err = run(capsys, "examples", "--run", "--only", "Gauss", "--param", f"a={value}")
    assert code == 2
    assert f"--param a: {message}" in err


def test_param_accepts_integers_and_fractions():
    assert cli._parse_overrides(["a=3", "b=-2/7", "c=0"]) == {
        "a": 3, "b": Fraction(-2, 7), "c": 0
    }


# -- nesting, repeated w orders and unknown parameters ---------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["--op=" + "(" * 10000 + "D" + ")" * 10000],
        ["--op=" + "-" * 10000 + "D"],
        ["--op=" + "+-" * 5000 + "D"],
        ["--op", "-" * 10000 + "D"],
    ],
    ids=["parentheses", "minus", "signs", "minus-separate"],
)
def test_analyze_deep_nesting_names_the_position(capsys, argv):
    code, out, err = run(capsys, "analyze", *argv)
    assert code == 2 and out == ""
    assert "error: operator text nested too deeply (at position " in err


@pytest.mark.parametrize("numeral", [f"1/{'3' * 4301}", "7" * 4301], ids=["denominator", "numerator"])
def test_analyze_overlong_numeral_names_the_position(capsys, numeral):
    code, _, err = run(capsys, "analyze", "--op", f"D - {numeral}")
    assert code == 2
    assert "numeral with more than 4300 digits (at position 4)" in err


@pytest.mark.parametrize("depth", [1000, 100000])
def test_formal_json_deep_nesting_is_malformed(tmp_path, capsys, depth):
    path = tmp_path / "deep.json"
    path.write_text('{"points": ' + "[" * depth + "]" * depth + "}", encoding="utf-8")
    for command in ("diagram", "reduce", "fuchs"):
        code, _, err = run(capsys, command, "--formal", str(path))
        assert code == 2
        assert "malformed formal-data JSON: " in err


@pytest.mark.parametrize("w", ['[[1,"1"],[1,"2"]]', '[[2,"1"],[1,"3"],[2,"1"]]', '[[1,"0"],[1,"2"]]'])
def test_formal_json_repeated_w_order(tmp_path, capsys, w):
    # two factors at infinity: the second one's w names an order twice
    doc = (
        '{"points":[{"location":"inf","factors":[{"w":[],"spectral":[["1/2",1]]},'
        '{"w":%s,"spectral":[["1/3",1]]}]},'
        '{"location":"0","factors":[{"w":[],"spectral":[["1/5",1],["1/7",1]]}]}]}'
    )
    path = tmp_path / "w.json"
    path.write_text(doc % '[[1,"2"]]', encoding="utf-8")
    assert run(capsys, "diagram", "--formal", str(path))[0] == 0
    path.write_text(doc % w, encoding="utf-8")
    order = json.loads(w)[-1][0]
    for command in ("diagram", "reduce", "fuchs"):
        code, out, err = run(capsys, command, "--formal", str(path))
        assert code == 2 and out == ""
        assert f"malformed formal-data JSON: w: order {order} appears twice" in err


@pytest.mark.parametrize("param", ["A=2/13", "zz=1", "t=3"])
def test_examples_param_unknown_to_the_selected_entry(capsys, param):
    code, out, err = run(capsys, "examples", "--run", "--only", "Gauss", "--param", param)
    assert code == 2 and out == ""
    assert f"--param {param.split('=')[0]}: no selected corpus entry has it" in err


def test_examples_param_unknown_to_every_entry(capsys):
    code, out, err = run(capsys, "examples", "--run", "--param", "zz=1", "--param", "A=2")
    assert code == 2 and out == ""
    assert "--param A, zz: no selected corpus entry has it" in err
    # t is a parameter of the Heun family, though not of Gauss
    code, out, _ = run(capsys, "examples", "--param", "t=3")
    assert code == 0 and len(out.splitlines()) == 6


@pytest.mark.parametrize(
    "inf_factor, zero_factor, field, item",
    [
        (ONE_AT_INF, '{"w":[[1,"2","3"]],"spectral":[["1/3",1]]}', "w:", "[1, '2', '3']"),
        (ONE_AT_INF, '{"w":[1],"spectral":[["1/3",1]]}', "w:", "1"),
        # read by the rank bound at the first point, then by the spectral
        # loop at any point
        ('{"w":[],"spectral":[["1/2",1,7]]}', '{"w":[],"spectral":[["1/3",1]]}', "spectral:", "['1/2', 1, 7]"),
        (ONE_AT_INF, '{"w":[],"spectral":[["1/3",1,7]]}', "spectral:", "['1/3', 1, 7]"),
        ('{"w":[],"spectral":[1]}', '{"w":[],"spectral":[["1/3",1]]}', "spectral:", "1"),
    ],
)
def test_formal_json_items_must_be_pairs(tmp_path, capsys, inf_factor, zero_factor, field, item):
    # each w item is an [order, value] pair and each spectral item an
    # [exponent, multiplicity] pair; other items are refused, not unpacked
    path = tmp_path / "pairs.json"
    path.write_text(
        f'{{"points":[{{"location":"inf","factors":[{inf_factor}]}},'
        f'{{"location":"0","factors":[{zero_factor}]}}]}}',
        encoding="utf-8",
    )
    for command in ("diagram", "fuchs"):
        code, out, err = run(capsys, command, "--formal", str(path))
        assert code == 2 and out == ""
        assert f"malformed formal-data JSON: {field} expected a pair, got {item}" in err


def test_parser_is_built_once_and_reused_safely(capsys):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    first = parser.parse_args(["examples", "--param", "a=1"])
    second = parser.parse_args(["examples", "--param", "b=2"])
    assert (first.param, second.param) == (["a=1"], ["b=2"])
    with pytest.raises(SystemExit):
        parser.parse_args(["analyze", "--op", "D", "--file", "op.txt"])
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"points":[{"location":"inf","factors":[{"w":{},"spectral":[["1/2",1]]}]}]}',
         "w: expected a list, got {}"),
        ('{"points":[{"location":"inf","factors":{}}]}', "factors: expected a list, got {}"),
        ('{"points":[{"location":"inf","factors":[5]}]}', "factors: expected an object, got 5"),
        ('{"points":[{"location":"inf","factors":[{"w":[],"spectral":"ab"}]}]}',
         "spectral: expected a list, got 'ab'"),
        ('{"points":{}}', "points: expected a list, got {}"),
        ('{"points":[5]}', "points: expected an object, got 5"),
        ("[]", "document: expected an object, got []"),
        ('"x"', "document: expected an object, got 'x'"),
        ("5", "document: expected an object, got 5"),
        ("null", "document: expected an object, got None"),
        ("{}", "points: missing"),
        ('{"points":[{"factors":[{"w":[],"spectral":[["1/2",1]]}]}]}', "location: missing"),
        ('{"points":[{"location":"inf"}]}', "factors: missing"),
        ('{"points":[{"location":"inf","factors":[{"spectral":[["1/2",1]]}]}]}', "w: missing"),
        ('{"points":[{"location":"inf","factors":[{"w":[]}]}]}', "spectral: missing"),
    ],
    ids=["w", "factors", "factor", "spectral", "points", "point", "list-document",
         "string-document", "number-document", "null-document", "no-points", "no-location",
         "no-factors", "no-w", "no-spectral"],
)
def test_formal_json_containers_must_be_lists_and_objects(tmp_path, capsys, doc, message):
    path = tmp_path / "containers.json"
    path.write_text(doc, encoding="utf-8")
    for command in ("diagram", "reduce", "fuchs"):
        code, out, err = run(capsys, command, "--formal", str(path))
        assert code == 2 and out == ""
        assert f"malformed formal-data JSON: {message}" in err
