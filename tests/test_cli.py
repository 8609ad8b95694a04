import contextlib
import functools
import importlib.util
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import forget_memos
from helpers import stability_by_characters
from derlie.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_OK,
    EXIT_RESOURCE_CAP,
    EXIT_VALIDATION,
    JobSpec,
    ParseError,
    ValidationError,
    _compute_cell,
    _predicted_cost,
    bundled_model_names,
    emit_report,
    load_model,
    main,
    parse_bracket_expression,
    parse_model_text,
    parse_range,
    partition_from_str,
    partition_str,
    resolve_model_path,
    run,
)
from derlie.dermodel import Mode
from derlie.gradedlie import (GeneratorSet, ModelSpec, free_product_generators,
                              lie_dim, validate_model)
from derlie.reptheory import stability_report

F = Fraction


# ---- model file parsing ---------------------------------------------------------

def test_bundled_models_present():
    names = bundled_model_names()
    for expected in ("sphere2", "sphere3", "sphere4", "s2xs2", "s3xs3",
                     "s3xs3-product", "cp2"):
        assert expected in names


def test_load_bundled_sphere2():
    model = load_model("sphere2")
    assert model.name == "sphere2"
    assert model.generators == (("x", 1),)
    assert not model.has_pairing


def test_load_bundled_s2xs2_with_omega_selftest():
    model = load_model("s2xs2")
    assert model.ambient_dim == 4
    from derlie.gradedlie import omega  # omega runs its own postcondition checks
    w = omega(model, 1)
    assert w != {}


def test_degree_zero_generator_rejected(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text("name: bad\ngenerators:\n  a: 0\n")
    with pytest.raises(ValidationError) as err:
        load_model(str(path))
    assert any("simple-connectivity" in p for p in err.value.problems)


@pytest.mark.parametrize("body,argv,degree", [
    # Lyndon words of thousands of letters, which recursed past the limit
    ("generators:\n  a: 1\n  b: 3000\n", ["--k", "1"], 3000),
    ("generators:\n  a: 1\n  b: 899\n", ["--k", "100"], 899),
    ("ambient_dim: 3003\ngenerators:\n  a: 1\n  b: 3000\npairing:\n"
     "  a b: 1\n", ["--mode", "boundary", "--k", "1"], 3000),
    # the largest degree with the largest k: words of about 200 letters
    ("generators:\n  a: 1\n  b: 100\n", ["--k", "100"], None),
])
def test_generator_degree_is_at_most_100(tmp_path, capsys, body, argv,
                                         degree):
    path = tmp_path / "deep.model"
    path.write_text("name: deep\n" + body)
    code = main(["compute", "--model", str(path), "--n", "1", *argv])
    out, err = capsys.readouterr()
    assert err == ""
    if degree is None:
        assert code == EXIT_OK
    else:
        assert code == EXIT_VALIDATION
        assert out.endswith(f"\n\nerror: generator 'b' has degree {degree} "
                            "> 100\nstatus: validation-error\n")


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text("name: bad\ngenerators:\n  a 1\n")
    with pytest.raises(ParseError) as err:
        load_model(str(path))
    assert err.value.line == 3


CP3_HEAD = "name: cp3\nambient_dim: 6\ngenerators:\n  a: 1\n  b: 3\n"


@pytest.mark.parametrize("text,line,col", [
    # the value starts at column 6, and '%' is its ninth character
    (CP3_HEAD + "differential:\n  b: 1/2 [a, %]\n", 7, 14),
    # the key starts at column 3, and '.' is its second character
    ("name: x\ngenerators:\n  b.c: 3\n", 3, 4),
], ids=["in-value", "in-key"])
def test_parse_error_column_counts_from_the_line_start(text, line, col):
    with pytest.raises(ParseError) as err:
        parse_model_text(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert text.splitlines()[line - 1][col - 1] in "%."
    assert str(err.value).startswith(f"line {line}, col {col}: ")


def test_parse_expression_terms():
    terms = parse_bracket_expression("[a, b]")
    assert terms == [(F(1), ("a", "b"))]
    terms = parse_bracket_expression("1/2 [a, [b, c]] - [b, b]")
    assert terms == [(F(1, 2), ("a", ("b", "c"))), (F(-1), ("b", "b"))]
    terms = parse_bracket_expression("-2*[a,b] + 3 c")
    assert terms == [(F(-2), ("a", "b")), (F(3), "c")]


def test_bracket_of_a_sum_evaluates_bilinearly():
    # the parser keeps a sum inside a bracket as a sum; evaluation
    # distributes it
    assert parse_bracket_expression("[a + b, c]") == \
        [(F(1), ([(F(1), "a"), (F(1), "b")], "c"))]
    generators = [("a", 1), ("b", 1), ("c", 1), ("e", 2), ("h", 3)]
    tensors = []
    for e, h in (("[a + b, c]", "[2 a - 1/2 b, [b, c]]"),
                 ("[a, c] + [b, c]", "2 [a, [b, c]] - 1/2 [b, [b, c]]")):
        model = ModelSpec("t", generators, {
            "e": parse_bracket_expression(e),
            "h": parse_bracket_expression(h)}, minimal=False)
        tensors.append(GeneratorSet(model, 1)._diff_tensor)
    assert tensors[0] == tensors[1] and len(tensors[0]) == 2


@pytest.mark.parametrize("name,fixture", [
    ("s3xs3-product", "product_model"), ("cp3", "cp3"), ("s2xs2", "s2xs2"),
    ("sphere2", "sphere2")])
def test_fixture_models_equal_the_bundled_files(request, name, fixture):
    # a differential given as one bracket or as a list of terms equals the
    # parsed file's
    assert request.getfixturevalue(fixture) == load_model(name)


def test_parse_expression_errors():
    with pytest.raises(ParseError):
        parse_bracket_expression("[a", 7)
    with pytest.raises(ParseError):
        parse_bracket_expression("a ]", 7)
    with pytest.raises(ParseError):
        parse_bracket_expression("1/0 a", 7)


def _model_file(tmp_path, differential, generators="a: 2\n  e: 3"):
    path = tmp_path / "t.model"
    path.write_text(f"name: t\ngenerators:\n  {generators}\n"
                    f"differential:\n  e: {differential}\n")
    return path


def test_nesting_beyond_the_cap_is_a_parse_error(tmp_path, capsys):
    # the parser recursed three times per level and overflowed near 330
    # levels; a deeper expression is refused at the '[' that goes too deep
    from derlie.cli import MAX_BRACKET_DEPTH
    col = len("  e: ") + 1 + len("[a, ") * MAX_BRACKET_DEPTH
    for depth in (MAX_BRACKET_DEPTH, MAX_BRACKET_DEPTH + 1, 400):
        path = _model_file(tmp_path, "[a, " * depth + "a" + "]" * depth)
        code = main(["compute", "--model", str(path), "--k", "1", "--n", "1"])
        out, err = capsys.readouterr()
        assert code == EXIT_VALIDATION and err == ""
        if depth == MAX_BRACKET_DEPTH:  # parsed, then refused by degree
            assert "error: differential of 'e' is not homogeneous" in out
            continue
        assert f"error: line 6, col {col}: brackets nest more than " \
               f"{MAX_BRACKET_DEPTH} deep\n" in out
        assert path.read_text().splitlines()[5][col - 1] == "["


def _left_normed(depth):
    expr = "a"
    for i in range(depth):
        expr = f"[{expr}, {'abcd'[(i + 1) % 4]}]"
    return expr


def _nested_sum(depth):
    return "[a + b, " * depth + "c" + "]" * depth


@pytest.mark.parametrize("differential", [
    _left_normed(18), _nested_sum(22), "[[a, b], c]", "[a, b] + [[a, b], c]",
    "[a, b] + [[a, b] + c, d]", "0 [[a, b], c]",
    "[f, f]",  # vanishes, since |f| is even
], ids=["nested-18", "nested-sum-22", "degree-3", "mixed", "mixed-inside",
        "zero-coefficient", "vanishing"])
def test_term_degrees_are_checked_before_expansion(tmp_path, capsys,
                                                   monkeypatch, cold_caches,
                                                   differential):
    # nested 18 deep, the line took about 1 s and 140 MB to expand before
    # it was refused, and a sum nested 16 deep was multiplied out into 2^16
    # terms by the parser; now nothing of a wrong degree is expanded.
    # cold_caches: the valid model must not be served from the memo of an
    # earlier case
    from derlie import gradedlie
    calls = []
    real = gradedlie.tensor_commutator
    monkeypatch.setattr(gradedlie, "tensor_commutator",
                        lambda *a: calls.append(a) or real(*a))
    generators = "a: 1\n  b: 1\n  c: 1\n  d: 1\n  f: 2\n  e: 3"
    for expr, expected in ((differential, EXIT_VALIDATION),
                           ("[a, b]", EXIT_OK)):
        path = _model_file(tmp_path, expr, generators)
        code = main(["compute", "--model", str(path), "--k", "1", "--n", "1"])
        out, _ = capsys.readouterr()
        assert code == expected, out
        if expected == EXIT_VALIDATION:
            assert out.endswith("error: differential of 'e' is not "
                                "homogeneous of degree 2\n"
                                "status: validation-error\n")
            assert calls == []
    assert calls  # the spy sees the expansion of a term of the right degree


def _over_limit_models():
    """Generators and right-degree differentials whose expansion, or the
    d o d pass over it, has 2^depth tensor words, one doubling above
    gradedlie.MAX_EXPANSION_WORDS."""
    from derlie.gradedlie import MAX_EXPANSION_WORDS
    depth = MAX_EXPANSION_WORDS.bit_length()
    letters = "  a: 1\n  b: 1\n  c: 1\n  d: 1\n"
    yield depth, letters + f"  e: {depth + 2}", f"e: {_left_normed(depth)}"
    # d(x) has 2^8 words and d(e) 2^(depth - 8); d o d on e has 2^depth
    e = "x"
    for _ in range(depth - 8):
        e = f"[{e}, a]"
    yield (depth, letters + f"  x: 10\n  e: {depth + 3}",
           f"x: {_left_normed(8)}\n  e: {e}")


@pytest.mark.parametrize("depth,generators,differential",
                         list(_over_limit_models()), ids=["words", "d-o-d"])
def test_expansion_is_counted_before_it_is_built(tmp_path, capsys,
                                                 monkeypatch, cold_caches,
                                                 depth, generators,
                                                 differential):
    # a left-normed bracket of 18 letters took 0.45 s / 47 MB to expand
    # before --max-dim refused it, about 4x more per two letters
    from derlie import gradedlie
    calls = []
    real = gradedlie.tensor_commutator
    monkeypatch.setattr(gradedlie, "tensor_commutator",
                        lambda *a: calls.append(a) or real(*a))
    path = tmp_path / "t.model"
    path.write_text(f"name: t\ngenerators:\n{generators}\n"
                    f"differential:\n  {differential}\n")
    assert main(["compute", "--model", str(path), "--k", "1", "--n", "1",
                 "--max-dim", "10"]) == EXIT_VALIDATION
    out, _ = capsys.readouterr()
    assert f"error: differential of 'e' or d o d on it expands to " \
           f"{2 ** depth} tensor words, more than " \
           f"{gradedlie.MAX_EXPANSION_WORDS}\n" in out
    assert calls == []


def test_each_differential_is_evaluated_once_at_arity_one(monkeypatch,
                                                         cold_caches):
    # every other arity copies the arity-1 values onto its summands
    from derlie import gradedlie
    arities = []
    real = gradedlie._evaluate_expr
    monkeypatch.setattr(gradedlie, "_evaluate_expr",
                        lambda g, x: arities.append(g.arity) or real(g, x))
    assert main(["compute", "--model", "s3xs3-product", "--k", "1..2",
                 "--n", "1..4", "--decompose", "--check-generation",
                 "--format", "json"]) == EXIT_OK
    assert arities == [1, 1, 1]  # one call per generator


def test_parse_model_rejects_unknown_field(tmp_path):
    with pytest.raises(ParseError):
        parse_model_text("name: x\nfoo: 3\ngenerators:\n  a: 1\n")


CP3 = ("name: cp3\nambient_dim: 6\ngenerators:\n  a: 1\n  b: 3\n"
       "differential:\n  b: 1/2 [a, a]\npairing:\n  a b: 1\n")


@pytest.mark.parametrize("text,line", [
    # a second right-hand side would silently replace the first
    (CP3.replace("pairing:", "  b: 0 [a, a]\npairing:"), 8),
    (CP3 + "name: cp3-again\n", 10),
    (CP3.replace("generators:", "ambient_dim: 6\ngenerators:"), 3),
    # symbols that no bracket expression can refer to
    (CP3.replace("  b: 3", "  a b: 3"), 5),
    (CP3.replace("  b: 3", "  [x]: 3"), 5),
    (CP3.replace("  b: 3", "  : 3"), 5),
    (CP3.replace("  b: 3", "  1b: 3"), 5),
    # int() refuses this digit, so the tokenizer must not take it for one
    (CP3.replace("1/2 [a, a]", "² [a, a]"), 7),
], ids=["second-differential", "second-name", "second-ambient-dim",
        "spaced-symbol", "bracket-symbol", "empty-symbol", "digit-symbol",
        "superscript-digit"])
def test_parse_model_rejects_ambiguous_files(tmp_path, capsys, text, line):
    with pytest.raises(ParseError) as err:
        parse_model_text(text)
    assert err.value.line == line
    path = tmp_path / "bad.model"
    path.write_text(text, encoding="utf-8")
    assert main(["compute", "--model", str(path), "--k", "1", "--n", "1",
                 "--format", "json"]) == EXIT_VALIDATION
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "parse-error"
    assert report["error"].startswith(f"line {line}, ")


@pytest.mark.parametrize("old,new,line,col", [
    ("  a: 1", "  a: 1_0", 4, 6),
    ("  a: 1", "  a: +1", 4, 6),
    ("  a: 1", "  a: 1 0", 4, 6),
    ("  a: 1", "  a: \u00b2", 4, 6),
    ("ambient_dim: 6", "ambient_dim: 0_6", 2, 14),
    ("ambient_dim: 6", "ambient_dim: +6", 2, 14),
    ("  a b: 1", "  a b: 1_0", 9, 8),
    ("  a b: 1", "  a b: -1/-2", 9, 8),
    ("  a b: 1", "  a b: 1/+2", 9, 8),
    ("  a b: 1", "  a b: 1 / 2", 9, 8),
    ("  a b: 1", "  a b: 1/0", 9, 8),
    ("  a b: 1", "  a b: 1/2/3", 9, 8),
    # more digits than int() converts
    ("  a: 1", "  a: " + "1" * 5000, 4, 6),
    ("  b: 1/2 [a, a]", "  b: " + "1" * 5000 + " [a, a]", 7, 6),
], ids=["degree-underscore", "degree-plus", "degree-space",
        "degree-superscript", "ambient-underscore", "ambient-plus",
        "pairing-underscore", "pairing-negative-denominator",
        "pairing-plus-denominator", "pairing-spaced-slash",
        "pairing-zero-denominator", "pairing-two-slashes",
        "degree-too-long", "coefficient-too-long"])
def test_numbers_have_one_grammar(tmp_path, capsys, old, new, line, col):
    # an optional '-' and decimal digits, and for a pairing value an
    # optional '/' and more digits, as in a differential's coefficients
    text = CP3.replace(old, new)
    assert text.splitlines()[line - 1][col - 1:] == new.partition(": ")[2]
    path = tmp_path / "bad.model"
    path.write_text(text, encoding="utf-8")
    assert main(["compute", "--model", str(path), "--k", "1", "--n", "1",
                 "--format", "json"]) == EXIT_VALIDATION
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "parse-error"
    assert report["error"].startswith(f"line {line}, col {col}: bad number ")


def test_numbers_in_the_grammar_parse():
    model = parse_model_text(CP3.replace("  a b: 1", "  a b: -3/2")
                             .replace("ambient_dim: 6", "ambient_dim: \u0666")
                             .replace("  b: 3", "  b: -3"))
    assert model.pairing == (("a", "b", F(-3, 2)),)
    assert model.ambient_dim == 6  # an Arabic-Indic six, a decimal digit
    assert model.generators == (("a", 1), ("b", -3))
    # a negative degree parses, and validation reports it
    assert any("simple-connectivity" in p for p in validate_model(model))


MUTATIONS = ("drop", "duplicate", "swap", "splice", "insert")
# separators and digits that the grammar refuses or reads, letters outside
# ASCII, a digit run that makes a degree or a coefficient large, and whole
# generator lines: one edit gives a valid model with a degree-99 generator,
# which a zero differential counts, or a degree above the bound (exit 2)
INSERTS = (*"_+\u00b2\u0661\u00e9\u03bb\u0416", "000", "\n  z: 99",
           "\n  z: 1000")


@st.composite
def mutated_model_text(draw):
    """A bundled model file after one to three line edits: a line dropped,
    duplicated or swapped with another, a token of one line spliced into
    another, or one character inserted."""
    _, raw = resolve_model_path(draw(st.sampled_from(bundled_model_names())))
    lines = raw.decode("utf-8").splitlines()
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(MUTATIONS))
        i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        if op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(j, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op in ("splice", "insert"):
            piece = draw(st.sampled_from(lines[i].split() or [""])) \
                if op == "splice" else draw(st.sampled_from(INSERTS))
            at = draw(st.integers(0, len(lines[j])))
            lines[j] = lines[j][:at] + piece + lines[j][at:]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(text=mutated_model_text())
def test_mutated_model_files_exit_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutant.model")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = ["compute", "--model", path, "--k", "1", "--n", "1..2",
                "--max-dim", "2000"]
        runs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            runs.append((code, out.getvalue(), err.getvalue()))
    assert runs[0][0] in (EXIT_OK, EXIT_VALIDATION, EXIT_CHECK_FAILURE,
                          EXIT_RESOURCE_CAP)
    assert "Traceback" not in runs[0][2]
    assert runs[0] == runs[1]


def test_parse_model_keeps_tokenizer_symbols():
    model = parse_model_text("name: t\ngenerators:\n  x_1': 1\n  _B2: 3\n"
                             "differential:\n  _B2: [x_1', x_1']\n")
    assert model.generators == (("x_1'", 1), ("_B2", 3))


def test_parse_model_differential_roundtrip():
    text = ("name: prod\ngenerators:\n  a: 2\n  b: 2\n  c: 5\n"
            "differential:\n  c: [a, b]\n")
    model = parse_model_text(text)
    from derlie.gradedlie import (GeneratorSet, ModelSpec, free_product_generators,
                              lie_dim, validate_model)
    assert validate_model(model) == []


# ---- ranges ---------------------------------------------------------------------

def test_parse_range():
    assert parse_range("1..3") == (1, 2, 3)
    assert parse_range("2") == (2,)
    with pytest.raises(ValueError):
        parse_range("3..1")
    from derlie.cli import MAX_RANGE_VALUES
    assert len(parse_range(f"1..{MAX_RANGE_VALUES}")) == MAX_RANGE_VALUES
    with pytest.raises(ValueError):
        parse_range(f"0..{MAX_RANGE_VALUES}")


@pytest.mark.parametrize("flag", ["--k", "--n"])
def test_huge_range_is_a_usage_error(capsys, flag):
    # refused before the range is built: 10^11 values do not fit in memory
    argv = {"--k": "1", "--n": "1", flag: "1..99999999999"}
    code = main(["compute", "--model", "sphere2",
                 *[x for kv in argv.items() for x in kv]])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("usage error:") and "1..99999999999" in lines[0]


@pytest.mark.parametrize("argv", [
    ("sphere2", "--k", "99999999999999999999", "--n", "1"),
    ("sphere2", "--k", "1", "--n", "99999999999999999999"),
    ("sphere2", "--k", "3000", "--n", "1..2"),
    ("sphere2", "--k", "1", "--n", "10000000"),
    ("s2xs2", "--mode", "boundary", "--k", "99999999999999999999", "--n", "1"),
    ("cp3", "--mode", "boundary", "--k", "100", "--n", "1..2"),
    ("sphere2", "--k", "1", "--n", "100", "--decompose"),
])
def test_huge_value_exits_cleanly(argv):
    # pricing such a cell took seconds, or never returned
    import derlie
    from derlie.cli import MAX_VALUE
    src = str(Path(derlie.__file__).resolve().parents[1])
    code = "import sys, derlie.cli; sys.exit(derlie.cli.main())"
    out = subprocess.run(
        [sys.executable, "-c", code, "compute", "--format", "json",
         "--model", *argv],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": src})
    if out.returncode == EXIT_VALIDATION:
        assert out.stdout == ""
        assert out.stderr == \
            f"usage error: k and n values are at most {MAX_VALUE}\n"
    else:
        assert out.returncode == EXIT_RESOURCE_CAP, out.stderr
        assert out.stderr == ""
        assert json.loads(out.stdout)["status"] == "resource-cap"


def test_job_rejects_k_zero():
    with pytest.raises(ValueError):
        JobSpec("sphere2", Mode.POINTED, (0, 1), (1,))


# ---- run ------------------------------------------------------------------------

def job(**kw):
    base = dict(model_path="sphere2", mode=Mode.POINTED, k_values=(1, 2),
                n_values=(1, 2, 3), fmt="json")
    base.update(kw)
    return JobSpec(**base)


def test_run_sphere_dimension_table():
    report, code = run(job())
    assert code == EXIT_OK
    cells = {(c["k"], c["n"]): c["dim"] for c in report["cells"]}
    assert cells[(1, 1)] == 1
    assert cells[(2, 1)] == 0
    assert cells[(1, 2)] == 6
    assert cells[(1, 3)] == 18


def test_run_boundary_dimension():
    report, code = run(job(model_path="s2xs2", mode=Mode.BOUNDARY,
                           k_values=(1,), n_values=(1,)))
    assert code == EXIT_OK
    assert report["cells"][0]["dim"] == 4


def test_run_boundary_requires_pairing():
    report, code = run(job(model_path="sphere2", mode=Mode.BOUNDARY,
                           k_values=(1,), n_values=(1,)))
    assert code == EXIT_VALIDATION
    assert report["status"] == "validation-error"


def test_cli_boundary_without_pairing_is_one_error_line(capsys):
    code = main(["compute", "--model", "sphere2", "--mode", "boundary",
                 "--k", "1", "--n", "1"])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [line for line in captured.out.splitlines()
            if line.startswith("error")] == [
        "error: boundary mode requires a model with pairing and ambient_dim"]
    assert "Traceback" not in captured.out


def test_wrong_boundary_count_is_a_check_failure(monkeypatch, cold_caches):
    from derlie import dermodel
    der_trace = dermodel.der_trace
    monkeypatch.setattr(dermodel, "der_trace", lambda *a: der_trace(*a) + 1)
    report, code = run(job(model_path="s2xs2", mode=Mode.BOUNDARY,
                           k_values=(1,), n_values=(1, 2, 3),
                           check_consistency=True))
    assert code == EXIT_CHECK_FAILURE
    assert report["status"] == "check-failure"
    assert report["error"] == (
        "ClosureViolation: omega constraint kernel has dimension 4, the "
        "count gives 5 at (n=1, k=1)")


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
def test_run_missing_model(tmp_path, case):
    (tmp_path / "latin1.model").write_bytes(
        "name: caf\u00e9\ngenerators:\n  x: 1\n".encode("latin-1"))
    path, status = {
        "missing": ("/nonexistent/foo.model", "validation-error"),
        "directory": (str(tmp_path), "validation-error"),
        "not-utf8": (str(tmp_path / "latin1.model"), "parse-error")}[case]
    report, code = run(job(model_path=path))
    assert code == EXIT_VALIDATION
    assert report["status"] == status


def largest_listed(monkeypatch, spec) -> int:
    """Run a one-k job with a spy on dermodel.derivation_basis; the largest
    pointed dimension of the degree-k and k + 1 slices listed at one arity
    (a block lists the full slices it filters)."""
    from derlie import dermodel
    forget_memos()  # a memo hit would not reach the spy
    (k,) = spec.k_values
    real, seen = dermodel.derivation_basis, set()

    def spy(model, n, kk, mode=Mode.POINTED, block=False):
        seen.add((model, n, kk))
        return real(model, n, kk, mode, **dermodel._flag(block))

    with monkeypatch.context() as patch:
        patch.setattr(dermodel, "derivation_basis", spy)
        assert run(spec)[1] == EXIT_OK
    return max((sum(real(model, n, kk).pointed_dim for kk in (k, k + 1)
                    if (model, n, kk) in seen) for model, n, _ in seen),
               default=0)


def test_cost_guard_counts_only_built_slices(monkeypatch):
    # zero differential: a cell is counted and lists no slice, so its price
    # is 0 (the n = 5 cell has dimension 75)
    assert _predicted_cost(load_model("sphere2"), 5, 1, Mode.POINTED) == 0
    report, code = run(job(k_values=(1,), n_values=(2, 5), max_dim=1))
    assert code == EXIT_OK
    assert [c["dim"] for c in report["cells"]] == [6, 75]
    assert largest_listed(monkeypatch, job(k_values=(1,),
                                           n_values=(2, 5))) == 0
    # the consistency check builds the full cells, of degree k only; the
    # generation flags are counted like the cells
    report, code = run(job(k_values=(1,), n_values=(4, 5), max_dim=74,
                           check_consistency=True))
    assert code == EXIT_RESOURCE_CAP
    assert "(n=5, k=1) too large: predicted dimension 75" in report["error"]
    report, code = run(job(k_values=(1,), n_values=(4, 5), max_dim=74,
                           check_generation=True))
    assert code == EXIT_OK  # W_4(1) = 0 above the support bound 3
    assert {"name": "generation", "outcome": "info",
            "flags": {"k=1": {"4": True, "5": True}}} in report["checks"]
    # the sampled bracket-closure slice is a full one (288 at n = 4)
    report, code = run(job(model_path="s2xs2", mode=Mode.BOUNDARY,
                           k_values=(1,), n_values=(4, 5), max_dim=200))
    assert code == EXIT_OK
    assert {"name": "bracket-closure", "outcome": "skipped",
            "detail": "slice at n=4, k=1 above max-dim"} in report["checks"]
    # a character has one value per cycle type: p(12) = 77
    report, code = run(job(k_values=(1,), n_values=(12,), max_dim=76,
                           decompose=True))
    assert code == EXIT_RESOURCE_CAP
    assert "predicted dimension 77" in report["error"]
    assert run(job(k_values=(1,), n_values=(12,), max_dim=76))[1] == EXIT_OK
    # nonzero differential: degrees k and k + 1 are both built
    model = load_model("s3xs3-product")
    assert _predicted_cost(model, 2, 1, Mode.POINTED) == 80
    report, code = run(job(model_path="s3xs3-product", k_values=(1,),
                           n_values=(2,), max_dim=79))
    assert code == EXIT_RESOURCE_CAP
    assert "predicted dimension 80" in report["error"]
    # an empty degree-k block builds no degree-(k + 1) slice: the (4, 2)
    # block of s3xs3-product is empty, so the arity-3 slices of degrees 2
    # and 3 are the largest listed, not the arity-4 ones (352 + 4,064)
    spec = job(model_path="s3xs3-product", k_values=(2,),
               n_values=tuple(range(1, 9)))
    assert _predicted_cost(model, 8, 2, Mode.POINTED) == 1107
    assert largest_listed(monkeypatch, spec) == 1107
    spec.max_dim = 1106
    assert run(spec)[1] == EXIT_RESOURCE_CAP
    # in boundary mode the block is counted without omega's image: the
    # (1, 2) boundary block of cp3 is empty, its 2 pointed coordinates not
    spec = job(model_path="cp3", mode=Mode.BOUNDARY, k_values=(2,),
               n_values=(1,))
    assert _predicted_cost(load_model("cp3"), 1, 2, Mode.BOUNDARY) == 2
    assert largest_listed(monkeypatch, spec) == 2
    # the price is never below what a job lists; the bracket-closure
    # sample of a boundary job lists a full slice, priced as one
    for kw in (dict(k_values=(1,), n_values=(5,)),
               dict(model_path="s3xs3-product", k_values=(1,),
                    n_values=(2, 3), check_consistency=True),
               dict(model_path="s3xs3-product", k_values=(3,),
                    n_values=(1, 2, 3, 4, 5)),
               dict(model_path="s2xs2", mode=Mode.BOUNDARY, k_values=(1,),
                    n_values=(1, 2, 3, 4)),
               dict(model_path="cp3", mode=Mode.BOUNDARY, k_values=(2,),
                    n_values=(1, 2, 3), decompose=True)):
        spec = job(**kw)
        full = spec.check_consistency or spec.mode is Mode.BOUNDARY
        price = max(_predicted_cost(load_model(spec.model_path), n,
                                    spec.k_values[0], spec.mode, f)
                    for n in spec.n_values for f in {full, False})
        assert largest_listed(monkeypatch, spec) <= price, kw


def test_cost_guard_prices_exactly_what_the_engine_lists(monkeypatch):
    # the price of a cell is the largest, over the arities it lists, of the
    # pointed dimensions of its listed degrees k and above, counted from Lie
    # dimensions: a cell lists blocks, the consistency check full cells, and
    # a zero-differential cell lists nothing, at price 0
    from derlie import dermodel
    from derlie.cli import _compute_cell
    real, listed = dermodel.derivation_basis, set()

    def spy(model, n, kk, mode=Mode.POINTED, block=False):
        listed.add((n, kk))
        return real(model, n, kk, mode, **dermodel._flag(block))

    def pointed(model, j, kk):
        genset = free_product_generators(model, j)
        return sum(lie_dim(genset, d + kk) for d in genset.degrees)

    monkeypatch.setattr(dermodel, "derivation_basis", spy)
    cases = 0
    for name in bundled_model_names():
        model = load_model(name)
        for mode in [Mode.POINTED] + [Mode.BOUNDARY] * model.has_pairing:
            for k, n, full in itertools.product((1, 2, 3), (1, 2, 3, 4, 5),
                                                (False, True)):
                price = _predicted_cost(model, n, k, mode, full)
                if price > 50000:
                    continue
                forget_memos()  # a memo hit would not reach the spy
                listed.clear()
                if full:
                    dermodel.homology(model, n, k, mode)
                else:
                    _compute_cell(model, mode, n, k, False)
                assert price == max(
                    (sum(pointed(model, j, kk) for j, kk in listed
                         if j == arity and kk >= k)
                     for arity, _ in listed), default=0), \
                    (name, mode, k, n, full)
                cases += 1
    assert cases == 356


def test_cost_guard_ignores_unreachable_degrees():
    # a generator of degree 10^6 reaches no degree between 10^6 and 2*10^6,
    # so the counts cost no more than for a small degree; a model file may
    # not declare that degree, so the model is built here
    model = ModelSpec("huge", [("x", 10**6)])
    start = time.process_time()
    assert _predicted_cost(model, 2, 1, Mode.POINTED) == 0
    cells = [_compute_cell(model, Mode.POINTED, n, 1, False) for n in (1, 2)]
    assert time.process_time() - start < 0.5
    assert [c["dim"] for c in cells] == [0, 0]


def test_zero_differential_job_lists_no_lyndon_word(monkeypatch,
                                                    cold_caches):
    # cells, characters and generation flags are counted; a boundary job
    # lists only its bracket-closure sample, at n = 1
    arities = []
    real = GeneratorSet._lyndon_words

    def spy(genset, degree):
        arities.append(genset.arity)
        return real(genset, degree)

    monkeypatch.setattr(GeneratorSet, "_lyndon_words", spy)
    report, code = run(job(k_values=(1, 2, 3), n_values=tuple(range(1, 9)),
                           decompose=True, check_generation=True))
    assert code == EXIT_OK and arities == []
    report, code = run(job(model_path="s2xs2", mode=Mode.BOUNDARY,
                           k_values=(1,), n_values=(1, 2, 3, 4, 5)))
    assert code == EXIT_OK
    assert report["checks"][-1]["detail"] == "5 sampled pairs at n=1, k=1"
    assert arities and set(arities) == {1}
    # nothing is priced but the character: k = 8 was refused at this
    # max-dim, and k = 100 is counted up to n = 100
    assert run(job(k_values=(8,), n_values=tuple(range(1, 13)),
                   decompose=True, max_dim=10**8))[1] == EXIT_OK
    start = time.process_time()
    report, code = run(job(k_values=(100,), n_values=tuple(range(1, 101))))
    assert time.process_time() - start < 1
    assert code == EXIT_OK and len(report["cells"]) == 100


def test_cache_dir_that_is_a_file_is_rejected_first(tmp_path, monkeypatch):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_bytes(b"x")

    def no_cell(*args):
        raise AssertionError("no cell may be computed")

    monkeypatch.setattr("derlie.cli._compute_cell", no_cell)
    report, code = run(job(cache_dir=str(not_a_dir)))
    assert code == EXIT_VALIDATION
    assert report["status"] == "validation-error"
    assert not_a_dir.read_bytes() == b"x"


def test_output_in_missing_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "report.txt"
    code = main(["compute", "--model", "sphere2", "--k", "1", "--n", "1",
                 "--output", str(out)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.parent.exists()


@pytest.mark.parametrize("where", ["missing-parent", "directory"])
def test_unwritable_output_rejected_before_any_cell(tmp_path, capsys,
                                                    monkeypatch, where):
    from derlie import cli as climod

    def refuse(*args, **kwargs):
        raise AssertionError("a cell was computed")

    monkeypatch.setattr(climod, "_compute_cell", refuse)
    out = tmp_path / "missing" / "report.txt"
    if where == "directory":
        out = tmp_path
    code = main(["compute", "--model", "sphere2", "--k", "1", "--n", "1",
                 "--output", str(out)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_existing_output_kept_until_the_report_is_written(tmp_path,
                                                          monkeypatch):
    from derlie import cli as climod
    out = tmp_path / "report.txt"
    out.write_bytes(b"old report")
    seen = []

    def spy(*args, **kwargs):
        seen.append(out.read_bytes())
        return real(*args, **kwargs)

    real = climod._compute_cell
    monkeypatch.setattr(climod, "_compute_cell", spy)
    assert main(["compute", "--model", "sphere2", "--k", "1", "--n", "1",
                 "--output", str(out)]) == EXIT_OK
    assert seen == [b"old report"]
    assert out.read_bytes().startswith(b"derlie")


@pytest.mark.parametrize("module", ["concurrent.futures.process",
                                    "dataclasses", "inspect", "_hashlib",
                                    "importlib.resources", "typing"])
def test_import_does_not_load(module):
    # start-up is most of a small job (OpenSSL's libcrypto, which _hashlib
    # maps, alone is about 3.5 MB of peak RSS); -S keeps the .pth files of
    # site-packages from importing a module or hiding one
    import derlie
    src = str(Path(derlie.__file__).resolve().parents[1])
    code = ("import sys, derlie.cli, derlie.fistab, derlie.reptheory; "
            f"print({module!r} in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


CHARACTER_LAYER = {"derlie.fistab", "derlie.reptheory"}


def _isolated_job(argv, out):
    """The exit code of cli.main(argv + ["--output", out]) in a new
    interpreter, and the derlie modules it loaded."""
    import derlie
    src = str(Path(derlie.__file__).resolve().parents[1])
    code = ("import sys; from derlie import cli; code = cli.main(sys.argv[1:])"
            "; print(code, *(m for m in sys.modules if m[:7] == 'derlie.'))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv, "--output", str(out)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    exit_code, *modules = proc.stdout.split()
    return int(exit_code), set(modules)


@pytest.mark.parametrize("model_path", ["sphere2", "s3xs3-product"])
def test_generation_check_builds_only_blocks(monkeypatch, model_path):
    # every homology or slice the job asks for, through any module's
    # binding, is a full-support block; a zero differential asks for none
    from derlie import cli as climod, dermodel, fistab
    calls = []
    for name in ("homology", "derivation_basis"):
        def spy(model, n, k, mode=Mode.POINTED, block=False, _name=name,
                _real=getattr(dermodel, name)):
            calls.append((_name, n, k, block))
            return _real(model, n, k, mode, **dermodel._flag(block))
        for module in (dermodel, fistab, climod):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    report, code = run(job(model_path=model_path, n_values=(1, 2, 3, 4),
                           check_generation=True))
    assert code == EXIT_OK
    assert any(c["name"] == "generation" for c in report["checks"])
    assert bool(calls) == (model_path == "s3xs3-product")
    assert [c for c in calls if not c[3]] == []


def _same_report_in_process(argv, out, tmp_path):
    expected = tmp_path / "in-process.out"
    assert main(argv + ["--workers", "1", "--output", str(expected)]) == \
        EXIT_OK
    return out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("argv", [
    ["--model", "s3xs3-product", "--k", "1..2", "--n", "1..4"],
    ["--model", "s2xs2", "--mode", "boundary", "--k", "1", "--n", "1..5"],
])
def test_dimension_only_job_loads_no_character_layer(tmp_path, argv):
    out = tmp_path / "report.out"
    code, modules = _isolated_job(["compute", *argv], out)
    assert code == EXIT_OK
    assert not modules & CHARACTER_LAYER
    assert _same_report_in_process(["compute", *argv], out, tmp_path)


@pytest.mark.parametrize("flags,loaded", [
    # a zero differential's character is counted, with no action
    (["--decompose"], {"derlie.reptheory"}),
    (["--decompose", "--format", "json"], {"derlie.reptheory"}),
    (["--check-consistency"], CHARACTER_LAYER),
    # the generation flags read the blocks, with no action or FI map
    (["--check-generation"], set()),
    # cells run in the job's own process whatever --workers says
    (["--decompose", "--workers", "2"], {"derlie.reptheory"}),
    # a later --model replaces sphere2: a nonzero differential's character
    # is the trace of the block actions
    (["--model", "s3xs3-product", "--decompose"], CHARACTER_LAYER),
])
def test_character_layer_loads_where_a_job_uses_it(tmp_path, flags, loaded):
    argv = ["compute", "--model", "sphere2", "--k", "1..2", "--n", "1..4",
            *flags]
    out = tmp_path / "report.out"
    code, modules = _isolated_job(argv, out)
    assert code == EXIT_OK
    assert modules & CHARACTER_LAYER == loaded
    assert _same_report_in_process(argv, out, tmp_path)


def test_warm_replay_loads_no_fistab(tmp_path):
    argv = ["compute", "--model", "sphere2", "--k", "1..2", "--n", "1..5",
            "--decompose", "--cache-dir", str(tmp_path / "cache")]
    cold, warm = tmp_path / "cold.out", tmp_path / "warm.out"
    assert main(argv + ["--output", str(cold)]) == EXIT_OK
    code, modules = _isolated_job(argv, warm)
    assert code == EXIT_OK
    assert "derlie.fistab" not in modules
    assert warm.read_bytes() == cold.read_bytes()


@pytest.mark.parametrize("name", bundled_model_names())
def test_digests_match_hashlib(name):
    import hashlib
    from derlie import ENGINE_VERSION, cli as climod
    _, raw = climod.resolve_model_path(name)
    digest = hashlib.sha256(raw).hexdigest()
    report, _ = run(job(model_path=name, k_values=(1,), n_values=(1,)))
    assert report["model"]["sha256"] == digest
    blob = f"{digest}|{ENGINE_VERSION}|pointed|1|1|0".encode()
    assert climod._cell_key(digest, Mode.POINTED, 1, 1, False) == \
        hashlib.sha256(blob).hexdigest()
    cell = report["cells"][0]
    assert climod._checksum(cell) == hashlib.sha256(
        json.dumps(cell, sort_keys=True).encode()).hexdigest()


def test_run_resource_cap():
    report, code = run(job(model_path="s3xs3-product", max_dim=2))
    assert code == EXIT_RESOURCE_CAP
    assert report["status"] == "resource-cap"
    assert "too large" in report["error"]
    # zero-differential cells are counted, and list nothing to cap
    assert run(job(max_dim=1))[1] == EXIT_OK


def test_cli_usage_error_k_zero(capsys):
    code = main(["compute", "--model", "sphere2", "--k", "0..1",
                 "--n", "1..2"])
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_usage_error_workers_below_one(capsys, workers):
    code = main(["compute", "--model", "sphere2", "--k", "1", "--n", "1",
                 "--workers", workers])
    assert code == EXIT_VALIDATION
    assert "usage error" in capsys.readouterr().err


def test_cli_models_listing(capsys):
    assert main(["models"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "sphere2" in out


# Edge values for every option that takes a number or a range.
EDGE_VALUES = ("0", "-1", "100", "101", str(10**6 + 1), "3..1", "1..", "",
               "1.." + str(10**6 + 1))
# k or n = 100 is refused by the guard before any cell runs on the models
# with a differential, whose every cell at k = 100, or at n = 100 with
# k <= 3, prices above 101; s2xs2 counts its cells, so there only the
# consistency check's full cells and a character at n = 100 are refused
ARGV_MODELS = ("s2xs2", "cp3", "s3xs3-product")


@st.composite
def drawn_argv(draw, tmp):
    """A compute command line over the real option set: each option is left
    out or given a small valid value or an edge value, k and n stay at most
    3 unless refused, and --max-dim stays at most 101."""
    def pick(valid, edges=EDGE_VALUES):
        # one value in ten is an edge value, so that many lines get past
        # argument parsing
        return draw(st.sampled_from(valid if draw(st.integers(0, 9))
                                    else edges))

    options = {
        "--model": pick(ARGV_MODELS, ("",)),
        "--mode": pick(("pointed", "boundary"), ("",)),
        "--k": pick(("1", "2..3", "1..3")),
        "--n": pick(("1", "1..2", "2..3")),
        "--format": pick(("table", "json"), ("",)),
        "--cache-dir": pick((os.path.join(tmp, "cache"),), ("",)),
        "--seed": pick(("7",)),
        "--max-dim": pick(("30", "101"), ("0", "-1", "100", "3..1", "1..",
                                         "")),
        "--workers": pick(("1", "2")),
        "--output": pick((os.path.join(tmp, "out"),), ("",)),
    }
    argv = ["compute"]
    for option, value in options.items():
        if draw(st.integers(0, 19)):  # now and then an option is left out
            argv += [option, value]
    for flag in ("--decompose", "--check-consistency", "--check-generation",
                 "--check-pbw"):
        if draw(st.booleans()):
            argv.append(flag)
    return argv


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_drawn_command_lines_exit_cleanly(data):
    # a cold and then a warm run on one cache dir give the same bytes
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(drawn_argv(tmp))
        runs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            written = Path(tmp, "out").read_bytes() \
                if Path(tmp, "out").exists() else None
            runs.append((code, out.getvalue(), err.getvalue(), written))
    assert runs[0][0] in (EXIT_OK, EXIT_VALIDATION, EXIT_CHECK_FAILURE,
                          EXIT_RESOURCE_CAP)
    assert "Traceback" not in runs[0][1] + runs[0][2]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("argv,code", [
    (["compute", "--model", "cp3", "--k", "1", "--n", "1", "--max-dim", ""],
     EXIT_VALIDATION),
    (["compute", "--model", "cp3", "--n", "1"], EXIT_VALIDATION),
    (["frobnicate"], EXIT_VALIDATION),
    (["--help"], EXIT_OK),
    (["compute", "--help"], EXIT_OK)])
def test_argparse_exit_codes_are_returned(capsys, argv, code):
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert "usage: derlie" in (err if code else out)


# ---- reports --------------------------------------------------------------------

def test_emit_empty_results():
    report = {"schema": "derlie-report/1", "engine": "0.1.0",
              "model": {"name": "sphere2", "sha256": "00" * 32},
              "job": {"mode": "pointed", "k": [1], "n": [1],
                      "decompose": False, "check_consistency": False,
                      "check_generation": False, "check_pbw": False,
                      "seed": 0, "max_dim": 10},
              "cells": [], "stability": [], "checks": [], "status": "ok"}
    text = emit_report(report, "table").decode()
    assert "status: ok" in text
    assert "[k=" not in text


def test_table_contains_totals():
    report, _ = run(job(fmt="table", decompose=True))
    text = emit_report(report, "table").decode()
    assert "[k=1]" in text
    assert "verdict:" in text
    k1_block = text.split("[k=1]")[1].split("[k=2]")[0]
    first_row = [line for line in k1_block.splitlines()
                 if line.strip().startswith("1 ")][0]
    assert first_row.split()[:2] == ["1", "1"]  # n=1 row shows total dim 1


def test_table_dots_the_columns_that_pad_to_no_partition():
    # a column p of row n shows "." iff (n - |p|, p) is not a partition,
    # otherwise the padded multiplicity, 0 when absent
    report, code = run(job(k_values=(1, 2), n_values=tuple(range(1, 7)),
                           decompose=True))
    assert code == EXIT_OK
    text = emit_report(report, "table").decode()
    seen = set()
    for k in (1, 2):
        block = text.split(f"[k={k}]\n")[1].split("  verdict:")[0]
        header, *rows = block.splitlines()
        columns = [partition_from_str(s) for s in header.split()[2:]]
        padded = {c["n"]: c["padded"] for c in report["cells"]
                  if c["k"] == k}
        for row in rows:
            n, _, *entries = row.split()
            n = int(n)
            assert len(entries) == len(columns)
            for p, entry in zip(columns, entries):
                dotted = bool(p) and n - sum(p) < p[0]
                assert entry == ("." if dotted else str(
                    padded[n].get(partition_str(p), 0))), (k, n, p)
                seen.add((dotted, entry == "0"))
    assert seen == {(True, False), (False, False), (False, True)}


def test_json_round_trip():
    report, _ = run(job(decompose=True))
    blob = emit_report(report, "json")
    assert json.loads(blob.decode()) == report


def test_cold_and_warm_cache_are_byte_identical(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["compute", "--model", "s2xs2", "--mode", "boundary",
            "--k", "1", "--n", "1..2", "--decompose", "--format", "json",
            "--cache-dir", str(cache)]
    assert main(args + ["--output", str(out1)]) == EXIT_OK
    assert any(cache.iterdir())

    def no_character(*args):
        raise AssertionError("a warm run must not recompute characters")

    monkeypatch.setattr("derlie.fistab.character", no_character)
    assert main(args + ["--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_extending_n_on_a_warm_cache_computes_only_the_new_cells(
        tmp_path, monkeypatch):
    from derlie import cli as climod
    cache = tmp_path / "cache"
    cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
    args = ["compute", "--model", "sphere2", "--k", "1..2", "--decompose",
            "--format", "json"]
    assert main(args + ["--n", "1..5", "--output", str(cold)]) == EXIT_OK
    assert main(args + ["--n", "1..3", "--cache-dir", str(cache), "--output",
                        str(tmp_path / "short.json")]) == EXIT_OK
    computed = []
    compute = climod._compute_cell

    def spy(model, mode, n, k, decompose):
        computed.append((k, n))
        return compute(model, mode, n, k, decompose)

    monkeypatch.setattr(climod, "_compute_cell", spy)
    assert main(args + ["--n", "1..5", "--cache-dir", str(cache), "--output",
                        str(warm)]) == EXIT_OK
    assert sorted(computed) == [(1, 4), (1, 5), (2, 4), (2, 5)]
    assert warm.read_bytes() == cold.read_bytes()
    assert len(list(cache.iterdir())) == 10


# well-formed JSON under a valid checksum, with one malformed table
RESEALED = {
    "reseal-padded": lambda entry: {**entry, "padded": {"(x)": 1}},
    "reseal-count": lambda entry: {**entry, "padded": {"()": -1}},
    "reseal-character": lambda entry: {
        **entry, "character": {mu: "1/0" for mu in entry["character"]}},
}


@pytest.mark.parametrize("damage", ["truncate", "other-cell", "drop-dim",
                                    "drop-padded", "tamper-dim", *RESEALED])
def test_damaged_cache_entry_is_recomputed(tmp_path, damage):
    cache = tmp_path / "cache"
    cold = tmp_path / "cold.json"
    rerun = tmp_path / "rerun.json"
    args = ["compute", "--model", "sphere2", "--k", "1", "--n", "1..3",
            "--decompose", "--format", "json", "--cache-dir", str(cache)]
    assert main(args + ["--output", str(cold)]) == EXIT_OK
    entries = sorted(cache.iterdir())
    assert len(entries) == 3
    victim, other = entries[0], entries[1]
    original = victim.read_bytes()
    if damage == "truncate":
        victim.write_bytes(original[:10])
    elif damage == "other-cell":
        victim.write_bytes(other.read_bytes())
    elif damage == "tamper-dim":  # the stored checksum is left as it was
        entry = json.loads(original)
        entry["dim"] += 1
        victim.write_text(json.dumps(entry), encoding="utf-8")
    elif damage in RESEALED:
        from derlie.cli import _cache_write
        entry = json.loads(original)
        key = entry.pop("key")
        del entry["sha256"]
        _cache_write(str(cache), key, RESEALED[damage](entry))
    else:
        entry = json.loads(original)
        del entry[damage.removeprefix("drop-")]
        victim.write_text(json.dumps(entry), encoding="utf-8")
    assert main(args + ["--output", str(rerun)]) == EXIT_OK
    assert rerun.read_bytes() == cold.read_bytes()
    assert victim.read_bytes() == original
    assert sorted(cache.iterdir()) == entries


def test_deeply_nested_cache_entry_is_recomputed(tmp_path):
    # json.load raises RecursionError on such an entry: a miss, rewritten
    cache = tmp_path / "cache"
    cold = tmp_path / "cold.json"
    warm = tmp_path / "warm.json"
    args = ["compute", "--model", "sphere2", "--k", "1", "--n", "1..2",
            "--format", "json", "--cache-dir", str(cache)]
    assert main(args + ["--output", str(cold)]) == EXIT_OK
    entries = {p: p.read_bytes() for p in cache.iterdir()}
    for p in entries:
        p.write_text("[" * 100000 + "]" * 100000)
    assert main(args + ["--output", str(warm)]) == EXIT_OK
    assert warm.read_bytes() == cold.read_bytes()
    assert {p: p.read_bytes() for p in cache.iterdir()} == entries


# JSON leaves, with huge ints, a numeral Fraction would expand, and strings
# shaped like partitions
JSON_LEAVES = (st.none() | st.booleans() | st.floats() | st.integers()
               | st.text(max_size=5)
               | st.sampled_from([0, 10**40, -10**40, "1e999999", "1/0",
                                  "-1", "()", "(0)", "(x)", "(1,2)", "(01)"]))
# dict keys hold no digit, so no random table holds a partition of n >= 1
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.lists(
    inner, max_size=3) | st.dictionaries(st.text("(),x -", max_size=4),
                                         inner, max_size=3), max_leaves=6)
# no partition of n <= 3, the property's arities, and some with the tail of
# one, so that a wrong key can still yield the right padded name
BAD_KEYS = st.sampled_from(["()", "(0)", "(x)", "(1,2)", "(01)", "(1,)",
                            "( 1)", "(9)", "(9,1)", "(9,1,1)", "(0,1)",
                            "1e999999", ""])
# the property gives the entries distinct damages from a random order of
# this flat list, so that every kind is drawn about as often
DAMAGES = ["drop", "add", "field", "retype"] + [
    f"{table}:{action}" for table in ("character", "decomposition", "padded")
    for action in ("add", "empty", "drop", "rename", "retype", "value")]


def _retyped(value):
    """value as JSON of another type: a bool, float, string or list."""
    return st.sampled_from([float(value), str(value), [value]]
                           + ([bool(value)] if value in (0, 1) else []))


def _no_numeral(v):
    return not (isinstance(v, str) and v and set(v) <= set("-/0123456789"))


@st.composite
def malformed_entry(draw, cell, damage):
    """The cell after one damage that takes it out of the form
    _compute_cell writes: a field dropped, added, replaced by a random value
    (dim by no count) or by its value as another JSON type; or in one table
    an item added under a key that is no partition of n, the table emptied,
    or an item dropped, renamed to such a key, retyped or given a random
    value (a character value no numeral)."""
    entry = json.loads(json.dumps(cell))
    field = draw(st.sampled_from(["n", "k", "dim"] if damage == "retype"
                                 else sorted(entry)))
    name, _, action = damage.partition(":")
    table = entry.get(name)
    if action and (action in ("add", "empty") or not table):
        bad = draw(BAD_KEYS.filter(lambda key: key not in table))
        entry[name] = {} if action == "empty" and table else \
            {**table, bad: draw(JSON_VALUES)}
    elif action:
        key = draw(st.sampled_from(sorted(table)))
        value = table.pop(key)
        if action == "rename":
            table[draw(BAD_KEYS.filter(lambda k: k not in table))] = value
        elif action == "retype":
            table[key] = draw(_retyped(value if name != "character"
                                       else int(Fraction(value))))
        elif action == "value":
            table[key] = draw(JSON_VALUES.filter(
                lambda v: name != "character" or _no_numeral(v)))
    elif damage == "drop":
        del entry[field]
    elif damage == "add":
        entry[draw(st.text(max_size=5).filter(
            lambda f: f not in entry))] = draw(JSON_VALUES)
    elif damage == "field":
        entry[field] = draw(JSON_VALUES.filter(
            lambda v: field != "dim" or type(v) is not int or v < 0))
    else:
        entry[field] = draw(_retyped(entry[field]))
    return entry


@functools.cache
def _warm_replay_cells():
    """The cold report of the property below, and its cells by key."""
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "cold.json")
        assert main(CACHE_PROPERTY_ARGV + ["--cache-dir", tmp, "--output",
                                           report]) == EXIT_OK
        with open(report, "rb") as fh:
            cold = fh.read()
        cells = {}
        for name in sorted(os.listdir(tmp)):
            if name != "cold.json":
                with open(os.path.join(tmp, name), encoding="utf-8") as fh:
                    entry = json.load(fh)
                cells[entry.pop("key")] = entry
                del entry["sha256"]
    return cold, cells


CACHE_PROPERTY_ARGV = ["compute", "--model", "sphere2", "--k", "1..2",
                       "--n", "1..3", "--decompose", "--format", "json"]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_resealed_malformed_cache_entries_are_recomputed(data):
    # every entry of a warm run is replaced by a malformed one under its
    # valid key and checksum: each is a miss, recomputed and rewritten
    from derlie.cli import _cache_write
    cold, cells = _warm_replay_cells()
    assert len(cells) == 6
    damages = data.draw(st.permutations(DAMAGES))
    with tempfile.TemporaryDirectory() as tmp:
        cache = os.path.join(tmp, "cache")
        os.mkdir(cache)
        for (key, cell), damage in zip(cells.items(), damages):
            _cache_write(cache, key, data.draw(malformed_entry(cell, damage)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(CACHE_PROPERTY_ARGV + ["--cache-dir", cache])
        assert (code, err.getvalue()) == (EXIT_OK, "")
        assert out.getvalue().encode() == cold
        for key, cell in cells.items():
            with open(os.path.join(cache, key + ".json"),
                      encoding="utf-8") as fh:
                entry = json.load(fh)
            assert {f: entry[f] for f in cell} == cell


def test_unwritable_cache_entry_is_skipped(tmp_path):
    cache = tmp_path / "cache"
    plain = tmp_path / "plain.json"
    rerun = tmp_path / "rerun.json"
    args = ["compute", "--model", "sphere2", "--k", "1", "--n", "1..2",
            "--format", "json"]
    assert main(args + ["--output", str(plain)]) == EXIT_OK
    cached = args + ["--cache-dir", str(cache)]
    assert main(cached) == EXIT_OK
    victim = sorted(cache.iterdir())[0]
    victim.unlink()
    victim.mkdir()  # the entry can be neither read nor replaced
    assert main(cached + ["--output", str(rerun)]) == EXIT_OK
    assert rerun.read_bytes() == plain.read_bytes()
    assert victim.is_dir()
    assert not [p for p in cache.iterdir() if ".tmp" in p.name]


def test_stability_entry_built_from_cells():
    report, code = run(job(model_path="sphere3", k_values=(1,),
                           decompose=True))
    assert code == EXIT_OK
    assert [c["padded"] for c in report["cells"]] == [{}, {}, {}]
    rows, _ = stability_by_characters(load_model("sphere3"), Mode.POINTED,
                                      1, (1, 2, 3))
    assert report["stability"] == [stability_report(1, (1, 2, 3), rows)]
    assert report["stability"][0]["stabilized_at"] == 1


def test_worker_count_does_not_change_output(tmp_path):
    out1 = tmp_path / "w1.json"
    out2 = tmp_path / "w2.json"
    args = ["compute", "--model", "sphere2", "--k", "1..2", "--n", "1..3",
            "--decompose", "--format", "json"]
    assert main(args + ["--workers", "1", "--output", str(out1)]) == EXIT_OK
    assert main(args + ["--workers", "3", "--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_engine_version_participates_in_cache_key(tmp_path, monkeypatch):
    from derlie import cli as climod
    key1 = climod._cell_key("m", Mode.POINTED, 1, 1, False)
    monkeypatch.setattr(climod, "ENGINE_VERSION", "999.0")
    key2 = climod._cell_key("m", Mode.POINTED, 1, 1, False)
    assert key1 != key2


def test_checks_reported_in_json():
    report, code = run(job(model_path="s2xs2", mode=Mode.BOUNDARY,
                           k_values=(1,), n_values=(1, 2),
                           check_pbw=True, check_consistency=True))
    assert code == EXIT_OK
    names = {c["name"]: c.get("outcome") for c in report["checks"]}
    assert names["pbw"] == "pass"
    assert names["consistency"] == "pass"
    assert names["bracket-closure"] == "pass"


def _closure_check(report):
    return next(c for c in report["checks"]
                if c["name"] == "bracket-closure")


def test_closure_check_samples_the_least_nonempty_slice():
    # the degree-2 boundary slice of cp2 is empty at n = 1
    report, code = run(job(model_path="cp2", mode=Mode.BOUNDARY,
                           k_values=(2,), n_values=(1, 2, 3)))
    assert code == EXIT_OK
    assert report["cells"][0]["dim"] == 0
    assert _closure_check(report) == {
        "name": "bracket-closure", "outcome": "pass",
        "detail": "1 sampled pairs at n=2, k=2"}
    report, _ = run(job(model_path="s2xs2", mode=Mode.BOUNDARY,
                        k_values=(1,), n_values=(1, 2)))
    assert _closure_check(report)["detail"] == "5 sampled pairs at n=1, k=1"


def test_closure_check_moves_on_to_the_next_degree():
    # every degree-1 boundary slice of s3xs3 is empty; degree 2 is not
    report, code = run(job(model_path="s3xs3", mode=Mode.BOUNDARY,
                           k_values=(1, 2), n_values=(1, 2, 3, 4)))
    assert code == EXIT_OK
    dims = {(c["k"], c["n"]): c["dim"] for c in report["cells"]}
    assert [dims[(1, n)] for n in (1, 2, 3, 4)] == [0, 0, 0, 0]
    assert [dims[(2, n)] for n in (2, 3, 4)] == [4, 20, 56]
    assert _closure_check(report) == {
        "name": "bracket-closure", "outcome": "pass",
        "detail": "5 sampled pairs at n=2, k=2"}


def test_closure_check_builds_no_second_kernel():
    # the degree-4 target slice at n = 2 (816) is above max-dim, but only
    # the sampled degree-2 slice and its kernel are built
    report, code = run(job(model_path="s2xs2", mode=Mode.BOUNDARY,
                           k_values=(2,), n_values=(2,), max_dim=500))
    assert code == EXIT_OK
    assert _closure_check(report) == {
        "name": "bracket-closure", "outcome": "pass",
        "detail": "5 sampled pairs at n=2, k=2"}


def test_closure_check_fails_outside_the_omega_kernel(monkeypatch):
    from helpers import apply_derivation, pointed_to_derivation
    from derlie.dermodel import derivation_basis
    from derlie.gradedlie import LieBasisElement, omega
    from derlie.ratlinalg import SubspaceBasis
    model = load_model("s2xs2")
    sl = derivation_basis(model, 1, 1, Mode.BOUNDARY)
    # the pointed coordinate (b -> [a, b]) sends omega = [a, b] to -[a, [a, b]]
    outside = {sl.coord_index[(1, LieBasisElement(False, (0, 1)))]: 1}
    assert apply_derivation(pointed_to_derivation(sl, outside),
                            omega(model, 1)) != {}
    # planted as the first basis vector of the sampled slice; seed 0 draws
    # it in a pair whose bracket misses the omega kernel
    planted = [outside, *sl.basis.vectors[1:]]
    monkeypatch.setattr(sl, "basis", SubspaceBasis(
        sl.pointed_dim, planted, sl.basis.pivots))
    report, code = run(job(model_path="s2xs2", mode=Mode.BOUNDARY,
                           k_values=(1,), n_values=(1, 2)))
    assert code == EXIT_CHECK_FAILURE
    assert report["status"] == "check-failure"
    assert _closure_check(report) == {
        "name": "bracket-closure", "outcome": "fail",
        "detail": "bracket image misses omega kernel at n=1"}


@pytest.mark.parametrize("name", ["s2xs2", "cp2", "cp3"])
def test_closure_bracket_matches_the_derivation_route(name):
    # the sample's bracket on pointed coordinates against the reference
    # route through derivation objects: on boundary slices, where both
    # annihilate omega, and on pointed slices, where their images of omega
    # must agree
    import random
    from helpers import (apply_derivation, basis_derivation,
                         derivation_bracket)
    from derlie.cli import _basis_bracket
    from derlie.dermodel import derivation_basis
    from derlie.gradedlie import apply_values_tensor, omega
    model = load_model(name)
    rng = random.Random(2026)
    nonzero = 0
    for mode in (Mode.BOUNDARY, Mode.POINTED):
        for n, k in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            sl = derivation_basis(model, n, k, mode)
            if not sl.dim or sl.pointed_dim > 150:
                continue
            genset = sl.genset
            w = omega(model, n)
            for _ in range(6):
                i, j = rng.randrange(sl.dim), rng.randrange(sl.dim)
                br = _basis_bracket(sl, i, j)
                ref = derivation_bracket(basis_derivation(sl, i),
                                         basis_derivation(sl, j))
                assert {g: genset.from_tensor(genset.degrees[g] + 2 * k, v)
                        for g, v in br.items()} == ref.values, (n, k, i, j)
                image = apply_values_tensor(genset, 2 * k, br,
                                            genset.to_tensor(w))
                assert image == genset.to_tensor(apply_derivation(ref, w))
                assert not image or mode is Mode.POINTED
                nonzero += bool(image)
    assert nonzero


def test_closure_check_skipped_when_every_slice_is_empty():
    report, code = run(job(model_path="s3xs3", mode=Mode.BOUNDARY,
                           k_values=(1,), n_values=(1, 2, 3, 4)))
    assert code == EXIT_OK
    assert all(c["dim"] == 0 for c in report["cells"])
    assert _closure_check(report) == {
        "name": "bracket-closure", "outcome": "skipped",
        "detail": "degree-1 slice empty at every n"}
    report, _ = run(job(model_path="s3xs3", mode=Mode.BOUNDARY,
                        k_values=(1, 2), n_values=(1,)))
    assert all(c["dim"] == 0 for c in report["cells"])
    assert _closure_check(report)["detail"] == (
        "degree-1..2 slice empty at every n")


def test_bench_tracer_installs_on_the_package():
    # the benchmark's layer tracer wraps named functions of every module; a
    # rename that hides one from it fails here, not only in a traced run
    root = Path(__file__).resolve().parents[1]
    code = ("from tracer import Tracer; "
            "t = Tracer(); t.install(); t.uninstall()")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, cwd=root,
        env={**os.environ, "PYTHONPATH": f"{root / 'src'}:{root / 'bench'}"})
    assert out.returncode == 0, out.stderr


def _bench_run():
    """bench/run.py as a module, read only: its workloads and goldens."""
    path = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up
    spec.loader.exec_module(module)
    return module


BENCH_RUN = _bench_run()


@pytest.mark.parametrize("name", sorted(BENCH_RUN.WORKLOADS))
def test_benchmark_jobs_reproduce_their_goldens(tmp_path, name):
    # each workload's job as the benchmark starts it, run in process with
    # new memos; a warm replay runs cold first, to fill its cache dir
    workload = BENCH_RUN.WORKLOADS[name]
    golden = json.loads((BENCH_RUN.GOLDENS / f"{workload.golden}.json")
                        .read_text("utf-8"))
    args = ["compute", *workload.args, "--format", "json", "--workers", "1",
            "--seed", "0"]
    if workload.cache != "none":
        args += ["--cache-dir", str(tmp_path / "cache")]
    for i in range(2 if workload.cache == "warm" else 1):
        forget_memos()
        report = tmp_path / f"report{i}.json"
        assert main([*args, "--output", str(report)]) == EXIT_OK
        assert BENCH_RUN.check_report(report, golden) == "", i
