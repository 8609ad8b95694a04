import concurrent.futures
import contextlib
import io
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
from derlie.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_OK,
    EXIT_RESOURCE_CAP,
    EXIT_VALIDATION,
    JobSpec,
    ParseError,
    ValidationError,
    _predicted_cost,
    bundled_model_names,
    emit_report,
    load_model,
    main,
    parse_bracket_expression,
    parse_model_text,
    parse_range,
    resolve_model_path,
    run,
)
from derlie.dermodel import Mode
from derlie.gradedlie import validate_model
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


def test_parse_expression_bilinear_sums():
    terms = parse_bracket_expression("[a + b, c]")
    assert terms == [(F(1), ("a", "c")), (F(1), ("b", "c"))]


def test_parse_expression_errors():
    with pytest.raises(ParseError):
        parse_bracket_expression("[a", 7)
    with pytest.raises(ParseError):
        parse_bracket_expression("a ]", 7)
    with pytest.raises(ParseError):
        parse_bracket_expression("1/0 a", 7)


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
# separators and digits that the grammar refuses or reads, and letters
# outside ASCII
INSERTS = "_+\u00b2\u0661\u00e9\u03bb\u0416"


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
    from derlie.gradedlie import validate_model
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
    from derlie.gradedlie import lie_dim
    monkeypatch.setattr(dermodel, "lie_dim", lambda *a: lie_dim(*a) - 1)
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
    return max(sum(real(model, n, kk).pointed_dim for kk in (k, k + 1)
                   if (model, n, kk) in seen) for model, n, _ in seen)


def test_cost_guard_counts_only_built_slices(monkeypatch):
    # zero differential: only degree k is built (dim 6; degree k + 1 was
    # counted before, predicting 10)
    report, code = run(job(k_values=(1,), n_values=(2,), max_dim=8))
    assert code == EXIT_OK
    assert report["cells"][0]["dim"] == 6
    # a cell is built from blocks of arity at most support_bound (3 for
    # sphere2 at k = 1): the n = 5 cell of dimension 75 builds no slice
    # larger than the arity-3 one of dimension 18
    report, code = run(job(k_values=(1,), n_values=(5,), max_dim=18))
    assert code == EXIT_OK
    assert report["cells"][0]["dim"] == 75
    # the consistency check builds the full cells; the generation flags
    # read the blocks the cells are built from
    report, code = run(job(k_values=(1,), n_values=(4, 5), max_dim=74,
                           check_consistency=True))
    assert code == EXIT_RESOURCE_CAP
    assert "(n=5, k=1) too large: predicted dimension 75" in report["error"]
    report, code = run(job(k_values=(1,), n_values=(4, 5), max_dim=74,
                           check_generation=True))
    assert code == EXIT_OK
    assert {"name": "generation", "outcome": "info",
            "flags": {"k=1": {"4": False, "5": True}}} in report["checks"]
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
    # the price is never below what a job lists
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
        full = spec.check_consistency
        price = max(_predicted_cost(load_model(spec.model_path), n,
                                    spec.k_values[0], spec.mode, full)
                    for n in spec.n_values)
        assert largest_listed(monkeypatch, spec) <= price, kw


def test_cost_guard_ignores_unreachable_degrees(tmp_path):
    # a generator of degree 10^6 reaches no degree between 10^6 and 2*10^6,
    # so the counts cost no more than for a small degree
    path = tmp_path / "huge.model"
    path.write_text("name: huge\ngenerators:\n  x: 1000000\n")
    model = load_model(str(path))
    start = time.process_time()
    assert _predicted_cost(model, 2, 1, Mode.POINTED) == 0
    report, code = run(job(model_path=str(path), k_values=(1,),
                           n_values=(1, 2)))
    assert time.process_time() - start < 0.5
    assert code == EXIT_OK
    assert [c["dim"] for c in report["cells"]] == [0, 0]


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
    # binding, is a full-support block
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
    assert calls
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
    (["--decompose"], CHARACTER_LAYER),
    (["--decompose", "--format", "json"], CHARACTER_LAYER),
    (["--check-consistency"], CHARACTER_LAYER),
    # the generation flags read the blocks, with no action or FI map
    (["--check-generation"], {"derlie.reptheory"}),
    # the pool's workers load fistab; the job's own process may not
    (["--decompose", "--workers", "2"], None),
])
def test_character_layer_loads_where_a_job_uses_it(tmp_path, flags, loaded):
    argv = ["compute", "--model", "sphere2", "--k", "1..2", "--n", "1..4",
            *flags]
    out = tmp_path / "report.out"
    code, modules = _isolated_job(argv, out)
    assert code == EXIT_OK
    assert loaded is None or modules & CHARACTER_LAYER == loaded
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
    report, code = run(job(max_dim=2))
    assert code == EXIT_RESOURCE_CAP
    assert report["status"] == "resource-cap"
    assert "too large" in report["error"]


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


def test_worker_pool_capped_at_pending_cells_and_cores(monkeypatch):
    from derlie import cli as climod
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(climod.os, "cpu_count", lambda: 64)
    report, code = run(job(k_values=(1,), n_values=(1, 2),
                           workers=10 ** 6))
    assert code == EXIT_OK and len(report["cells"]) == 2
    monkeypatch.setattr(climod.os, "cpu_count", lambda: 3)
    report, code = run(job(k_values=(1,), n_values=(1, 2, 3, 4),
                           workers=10 ** 6))
    assert code == EXIT_OK and len(report["cells"]) == 4
    assert sizes == [2, 3]


def test_cli_models_listing(capsys):
    assert main(["models"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "sphere2" in out


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
    expected = stability_report(load_model("sphere3"), Mode.POINTED, 1,
                                (1, 2, 3), with_generation=False)
    assert report["stability"] == [{"k": 1, "stabilized_at": 1,
                                    "verdict": expected.verdict_text()}]


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
