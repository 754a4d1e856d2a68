"""End-to-end command-line behaviour and exit codes."""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hasseschmidt
from hasseschmidt import (
    GF,
    QQ,
    HSDerivation,
    Series,
    TSeries,
    integrate,
    taylor_basis,
)
from hasseschmidt import cli, serialize, series
from hasseschmidt.cli import main
from hasseschmidt.derivations import taylor_derivation

from conftest import as_json


def worked_problem():
    field = QQ
    x = Series.variable(1, field, 0)
    target = HSDerivation([TSeries([x, x, Series.one(1, field)])], name="target")
    return serialize.Problem(
        field=field, nvars=1, length=2, truncation=6, seed=42,
        derivations=[taylor_derivation(1, 2, field, 0)], target=target,
    )


def char2_problem():
    field = GF(2)
    return serialize.Problem(
        field=field, nvars=1, length=4, truncation=5, seed=7,
        derivations=[taylor_derivation(1, 4, field, 0)],
    )


def write_problem(path, problem):
    path.write_text(serialize.dumps(serialize.problem_to_json(problem)))
    return str(path)


# -- decompose ----------------------------------------------------------------

def test_decompose_worked_file(tmp_path, capsys):
    input_path = write_problem(tmp_path / "worked.json", worked_problem())
    out_path = tmp_path / "report.json"
    assert main(["decompose", input_path, "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert report["witness"] is None
    assert report["verified_to_degree"] == 6
    assert report["C"]["m"] == 2 and report["C"]["n"] == 1
    assert report["C"]["C"][0][0]["terms"] == [[1, "1"]]   # C[1] = X
    assert report["C"]["C"][1][0]["terms"] == [[0, "1"]]   # C[2] = 1


def test_decompose_is_byte_deterministic(tmp_path):
    input_path = write_problem(tmp_path / "worked.json", worked_problem())
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["decompose", input_path, "--out", str(a)]) == 0
    assert main(["decompose", input_path, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_decompose_singular_family_exits_2(tmp_path):
    field = QQ
    x = Series.variable(1, field, 0)
    target = HSDerivation([TSeries([x, x, Series.one(1, field)])])
    problem = serialize.Problem(
        field=field, nvars=1, length=2, truncation=6, seed=0,
        derivations=[integrate([x], 2)], target=target,
    )
    input_path = write_problem(tmp_path / "singular.json", problem)
    assert main(["decompose", input_path]) == 2


def test_decompose_missing_target_exits_1(tmp_path):
    input_path = write_problem(tmp_path / "notarget.json", char2_problem())
    assert main(["decompose", input_path]) == 1


def test_malformed_json_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    assert main(["decompose", str(path)]) == 1
    assert main(["kernel", str(path)]) == 1
    assert main(["verify", str(path)]) == 1


def rewritten(tmp_path, name, problem, **changes):
    """A problem file with some top-level fields replaced by raw JSON values."""
    obj = as_json(serialize.problem_to_json(problem))
    obj.update(changes)
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_19_digit_prime_field_is_accepted_quickly(tmp_path):
    import time

    start = time.perf_counter()
    path = rewritten(tmp_path, "big.json", char2_problem(), field="F1000000000000000003")
    out = tmp_path / "out.json"
    assert main(["kernel", path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["dimension"] == 1
    # trial division up to the square root would take minutes
    assert time.perf_counter() - start < 5


def test_40_digit_prime_field_exits_1(tmp_path, capsys):
    path = rewritten(tmp_path, "huge.json", char2_problem(),
                     field="F1000000000000000000000000000000000000003")
    for command in ("decompose", "kernel", "verify"):
        assert main([command, path]) == 1
        assert "2**64" in capsys.readouterr().err


@pytest.mark.parametrize("coeff", ["3_0", "1e3", " 2 ", "+1"])
def test_loose_scalar_exits_1(tmp_path, capsys, coeff):
    obj = as_json(serialize.problem_to_json(worked_problem()))
    obj["target"]["images"][0][1]["terms"][0][-1] = coeff
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 1
    assert "not a scalar" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["F1_3", "F 5", "F+5", "F\u0665", "F05", "F5 "])
def test_loose_field_name_exits_1(tmp_path, capsys, name):
    path = rewritten(tmp_path, "loose.json", char2_problem(), field=name)
    for command in ("decompose", "kernel", "verify"):
        assert main([command, path]) == 1
        assert "unknown field" in capsys.readouterr().err


def test_decompose_through_a_degree_3000_image(tmp_path):
    """E_B(X2) has an X1^3000 term; the images of its powers are built
    without recursion, so the decomposition goes through."""
    field = QQ
    x1, x2 = Series.variable(2, field, 0), Series.variable(2, field, 1)
    one, zero = Series.one(2, field), Series.zero(2, field)
    A = HSDerivation([TSeries([x1, one, zero]), TSeries([x2, zero, zero])], name="A")
    B = HSDerivation([TSeries([x1, zero, zero]), TSeries([x2, one + x1 ** 3000, zero])],
                     name="B")
    target = HSDerivation([TSeries([x, x, one]) for x in (x1, x2)], name="target")
    problem = serialize.Problem(
        field=field, nvars=2, length=2, truncation=6, seed=0, derivations=[A, B], target=target,
    )
    path = write_problem(tmp_path / "deep.json", problem)
    out = tmp_path / "out.json"
    assert main(["decompose", path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["witness"] is None


def test_a_huge_exponent_exits_1_quickly(tmp_path, capsys):
    """E_B(X2) = X2 + (1 + X1^10000000) t would need gigabytes of monomial
    images; the exponent cap rejects the file before any is built."""
    field = QQ
    x1, x2 = Series.variable(2, field, 0), Series.variable(2, field, 1)
    one, zero = Series.one(2, field), Series.zero(2, field)
    A = HSDerivation([TSeries([x1, one, zero]), TSeries([x2, zero, zero])], name="A")
    B = HSDerivation([TSeries([x1, zero, zero]), TSeries([x2, one, zero])], name="B")
    problem = serialize.Problem(
        field=field, nvars=2, length=2, truncation=6, seed=0, derivations=[A, B], target=A,
    )
    obj = as_json(serialize.problem_to_json(problem))
    obj["derivations"][1]["images"][1][1]["terms"].append([10 ** 7, 0, "1"])
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    for command in ("decompose", "kernel", "verify"):
        start = time.perf_counter()
        assert main([command, str(path)]) == 1
        assert time.perf_counter() - start < 1.0
        assert "cap" in capsys.readouterr().err


def test_a_product_at_the_degree_limit_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    """No file the caps admit reaches the degree limit of packed monomial
    keys (tests/test_engine.py derives that from the caps), so the limit
    is lowered to 8 here: E(X^2) for E(X) = X + (1 + X^5) t has degree
    10 at t^2, and the Leibniz check stops there with one message."""
    monkeypatch.setattr(series, "DEGREE_LIMIT", 8)
    obj = as_json(serialize.problem_to_json(char2_problem()))
    obj["derivations"][0]["images"][0][1]["terms"] = [[0, "1"], [5, "1"]]
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "total degree 8" in captured.err


def test_a_problem_past_the_nvars_cap_exits_1_before_building(tmp_path, capsys):
    """A Taylor file in NVARS_CAP + 1 variables is refused with one stderr
    line and nothing on stdout; NVARS_CAP variables still run."""
    field = GF(3)

    def taylor_file(n):
        problem = serialize.Problem(field=field, nvars=n, length=1, truncation=2, seed=0,
                                    derivations=taylor_basis(n, 1, field))
        return write_problem(tmp_path / f"taylor{n}.json", problem)

    cap = serialize.NVARS_CAP
    path = taylor_file(cap + 1)
    for command in ("decompose", "kernel", "verify"):
        assert main([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: problem too large: {cap + 1} variables, more than the cap of {cap}\n"
    assert main(["kernel", taylor_file(cap)]) == 0
    assert json.loads(capsys.readouterr().out)["N"] == 2


def test_kernel_at_truncation_one_is_the_constants(tmp_path, capsys):
    path = rewritten(tmp_path, "order1.json", char2_problem(), truncation=1)
    assert main(["kernel", path]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "N": 1, "dimension": 1, "basis": [{"prec": "exact", "terms": [[0, "1"]]}]
    }


# -- kernel --------------------------------------------------------------------

def test_kernel_full_and_degree1_modes(tmp_path):
    input_path = write_problem(tmp_path / "char2.json", char2_problem())
    out_full = tmp_path / "full.json"
    out_d1 = tmp_path / "d1.json"
    assert main(["kernel", input_path, "--out", str(out_full)]) == 0
    assert main(["kernel", input_path, "--degree1-only", "--out", str(out_d1)]) == 0
    full = json.loads(out_full.read_text())
    d1 = json.loads(out_d1.read_text())
    assert full == {"N": 5, "dimension": 1, "basis": [{"prec": "exact", "terms": [[0, "1"]]}]}
    assert d1["dimension"] == 3
    assert [t["terms"] for t in d1["basis"]] == [[[0, "1"]], [[2, "1"]], [[4, "1"]]]


def test_kernel_rational_degree1_only_is_constants(tmp_path):
    field = QQ
    problem = serialize.Problem(
        field=field, nvars=1, length=4, truncation=5, seed=1,
        derivations=[taylor_derivation(1, 4, field, 0)],
    )
    input_path = write_problem(tmp_path / "rational.json", problem)
    out = tmp_path / "out.json"
    assert main(["kernel", input_path, "--degree1-only", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["dimension"] == 1


def test_kernel_degree1_only_on_a_truncation_1_file_is_the_constants(tmp_path):
    """On the order-1 quotient no weight acts, so both modes report the
    whole quotient, which is the constants."""
    problem = serialize.Problem(
        field=GF(3), nvars=2, length=1, truncation=1, seed=0,
        derivations=taylor_basis(2, 1, GF(3)),
    )
    input_path = write_problem(tmp_path / "order1.json", problem)
    for flags in ([], ["--degree1-only"]):
        out = tmp_path / "out.json"
        assert main(["kernel", input_path, *flags, "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == {
            "N": 1, "dimension": 1, "basis": [{"prec": "exact", "terms": [[0, 0, "1"]]}]
        }


def test_kernel_with_fewer_derivations_than_variables_exits_2(tmp_path, capsys):
    field = QQ
    problem = serialize.Problem(
        field=field, nvars=2, length=3, truncation=4, seed=0,
        derivations=[taylor_derivation(2, 3, field, 0)],
    )
    path = write_problem(tmp_path / "fewer.json", problem)
    assert main(["kernel", path]) == 2
    assert capsys.readouterr().err == "not a basis: 1 derivation(s) cannot span 2 variables\n"


def hostile_kernel_problems():
    """(name, problem, flags, exit code) for kernel inputs at the edges."""
    f2, f3 = GF(2), GF(3)
    shift = taylor_derivation(1, 4, f2, 0)
    return [
        ("fewer-derivations-than-variables",
         serialize.Problem(field=QQ, nvars=2, length=3, truncation=4, seed=0,
                           derivations=[taylor_derivation(2, 3, QQ, 1)]), [], 2),
        ("more-derivations-than-variables",
         serialize.Problem(field=f2, nvars=1, length=4, truncation=5, seed=0,
                           derivations=[shift, shift]), [], 0),
        ("order-1",
         serialize.Problem(field=f3, nvars=2, length=1, truncation=1, seed=0,
                           derivations=taylor_basis(2, 1, f3)), [], 0),
        ("order-2-degree1-only",
         serialize.Problem(field=f3, nvars=2, length=1, truncation=2, seed=0,
                           derivations=taylor_basis(2, 1, f3)), ["--degree1-only"], 0),
        ("length-below-N-1",
         serialize.Problem(field=f2, nvars=1, length=2, truncation=5, seed=0,
                           derivations=[taylor_derivation(1, 2, f2, 0)]), [], 1),
    ]


@pytest.mark.parametrize("name, problem, flags, code", hostile_kernel_problems(),
                         ids=[case[0] for case in hostile_kernel_problems()])
def test_kernel_answers_hostile_inputs_with_an_exit_code(tmp_path, capsys, name, problem,
                                                         flags, code):
    path = write_problem(tmp_path / "problem.json", problem)
    assert main(["kernel", path] + flags) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert "Traceback" not in captured.err
    else:
        assert captured.err == ""
        assert json.loads(captured.out)["dimension"] >= 1


def _coeff(terms, prec="exact"):
    return {"prec": prec, "terms": terms}


X1, ONE = [1, "1"], [0, "1"]

# (id, the image E(X1) as raw JSON, exit code, stderr line); the loader
# drops zero terms before the t^0 check, but refuses a duplicate even
# where the tag drops it
IMAGE_REFUSALS = [
    ("not-a-list", 5, 1, "error: a t-series must be a nonempty array of series"),
    ("empty", [], 1, "error: a t-series must be a nonempty array of series"),
    ("coefficient-not-an-object", [_coeff([X1]), 3], 1,
     "error: series must be an object with a 'terms' array, got 3"),
    ("negative-precision", [_coeff([X1]), _coeff([ONE], -1)], 1, "error: bad precision -1"),
    ("mixed-precisions", [_coeff([X1]), _coeff([ONE], 3)], 1,
     "error: t-coefficients carry different precisions"),
    ("all-at-precision-3", [_coeff([X1], 3), _coeff([ONE], 3)], 1,
     "error: variable images must be exact polynomials"),
    ("all-at-precision-1", [_coeff([X1], 1), _coeff([ONE], 1)], 1,
     "error: variable images must be exact polynomials"),
    ("one-coefficient", [_coeff([X1])], 1,
     "error: image has 1 t-coefficients, expected length 1"),
    ("t0-is-1", [_coeff([ONE]), _coeff([ONE])], 1,
     "error: t^0 coefficient of image 0 must be the variable X1"),
    ("t0-is-x-plus-1", [_coeff([X1, ONE]), _coeff([ONE])], 1,
     "error: t^0 coefficient of image 0 must be the variable X1"),
    ("t0-is-2x", [_coeff([[1, "2"]]), _coeff([ONE])], 1,
     "error: t^0 coefficient of image 0 must be the variable X1"),
    ("t0-with-a-zero-term", [_coeff([X1, [2, "0"]]), _coeff([ONE])], 1,
     "error: derivation of length 1 has no component 2"),
    ("duplicate", [_coeff([X1]), _coeff([ONE, [0, "2"]])], 1,
     "error: duplicate exponent (0,) in series"),
    ("duplicate-above-the-tag", [_coeff([X1]), _coeff([X1, [1, "2"]], 1)], 1,
     "error: duplicate exponent (1,) in series"),
    ("exponent-past-the-cap", [_coeff([X1]), _coeff([[5000, "1"]])], 1,
     "error: exponent above the cap 4096 in term [5000]"),
    ("x-at-t1", [_coeff([X1]), _coeff([X1])], 2,
     "not a basis: degree-1 values have non-unit determinant"),
]


@pytest.mark.parametrize("image, code, line", [case[1:] for case in IMAGE_REFUSALS],
                         ids=[case[0] for case in IMAGE_REFUSALS])
def test_kernel_refuses_each_bad_derivation_image_with_one_line(tmp_path, capsys, image, code,
                                                                line):
    """A one-variable GF(5) problem of length 1 and truncation 3 whose only
    image is ``image``: each refusal keeps its exit code and message."""
    obj = {"field": "F5", "nvars": 1, "length": 1, "truncation": 3, "seed": 0,
           "derivations": [{"name": "D1", "nvars": 1, "length": 1, "images": [image]}]}
    path = tmp_path / "image.json"
    path.write_text(json.dumps(obj))
    assert main(["kernel", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"


# -- verify ----------------------------------------------------------------------

def test_verify_valid_file_passes(tmp_path, capsys):
    input_path = write_problem(tmp_path / "worked.json", worked_problem())
    assert main(["verify", input_path]) == 0
    out = capsys.readouterr().out
    assert "verify: pass" in out
    assert "seed=42" in out


def test_verify_seed_override_is_reported(tmp_path, capsys):
    input_path = write_problem(tmp_path / "worked.json", worked_problem())
    assert main(["verify", input_path, "--seed", "9"]) == 0
    assert "seed=9" in capsys.readouterr().out


def test_verify_with_correct_table_passes(tmp_path, capsys):
    problem = worked_problem()
    x = Series.variable(1, QQ, 0)
    from hasseschmidt import CoeffTable

    problem.coefficients = CoeffTable([[x], [Series.one(1, QQ)]])
    input_path = write_problem(tmp_path / "with_table.json", problem)
    assert main(["verify", input_path]) == 0
    assert "reconstruction: pass" in capsys.readouterr().out


def test_verify_with_corrupted_table_exits_3(tmp_path, capsys):
    problem = worked_problem()
    x = Series.variable(1, QQ, 0)
    from hasseschmidt import CoeffTable

    problem.coefficients = CoeffTable([[x], [x]])  # level 2 should be 1
    input_path = write_problem(tmp_path / "corrupt.json", problem)
    assert main(["verify", input_path]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=repr)
def test_verify_pins_a_loaded_table_with_mixed_tags(field, tmp_path, capsys):
    """A table read from the file, not made by decompose: exact entries,
    entries trusted to degrees 2, 3 and 5, and a zero trusted to degree
    2.  It reproduces the target below weight 3; at weight 3 its X_1
    entry is off by X_1, which shows modulo (X)^2, the least tag of the
    entries at levels <= 3.  The witness carries that tag."""
    from hasseschmidt import CoeffTable

    n = 2
    x1, x2 = (Series.variable(n, field, j) for j in range(n))
    one = Series.one(n, field)
    target = HSDerivation([TSeries([x1, x1 * x2 + one, x2, x1 * x1]),
                           TSeries([x2, x1, one + x2 * x2, x1 * x2])], name="target")
    table = CoeffTable([
        [x1 * x2 + one, x1.truncate(3)],
        [x2.truncate(2), x2 * x2 + one],
        [(x1 * x1 + x1).truncate(5), Series.zero(n, field, 2)],
    ])
    problem = serialize.Problem(
        field=field, nvars=n, length=3, truncation=8, seed=3,
        derivations=taylor_basis(n, 3, field), target=target, coefficients=table,
    )
    path = write_problem(tmp_path / "mixed_tags.json", problem)
    assert main(["verify", path]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "taylor1: leibniz: pass (61 pairs, all weights <= 3) [seed=3]",
        "taylor2: leibniz: pass (61 pairs, all weights <= 3) [seed=3]",
        "target: leibniz: pass (61 pairs, all weights <= 3) [seed=3]",
        "reconstruction: FAIL at weight 3 on X^(1, 0): target gives X1^2, "
        "table gives X1 + O(deg 2)",
        "verify: FAIL",
    ]


def test_verify_table_without_target_exits_1(tmp_path):
    problem = char2_problem()
    from hasseschmidt import CoeffTable

    one = Series.one(1, GF(2))
    problem.coefficients = CoeffTable([[one]] * 4)
    input_path = write_problem(tmp_path / "broken.json", problem)
    assert main(["verify", input_path]) == 1


def test_verify_table_with_extra_derivations_exits_1_before_any_check(tmp_path, capsys):
    """A table needs exactly n derivations: the file is refused before any
    Leibniz check runs, so nothing reaches stdout."""
    problem = worked_problem()
    from hasseschmidt import CoeffTable

    problem.derivations.append(taylor_derivation(1, 2, QQ, 0, name="extra"))
    problem.coefficients = CoeffTable([[Series.variable(1, QQ, 0)], [Series.one(1, QQ)]])
    input_path = write_problem(tmp_path / "extra.json", problem)
    assert main(["verify", input_path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: reconstruction check needs exactly 1 derivations\n"


def test_verify_table_with_too_few_levels_exits_1(tmp_path, capsys):
    problem = worked_problem()  # length 2
    from hasseschmidt import CoeffTable

    problem.coefficients = CoeffTable([[Series.variable(1, QQ, 0)]])
    input_path = write_problem(tmp_path / "short.json", problem)
    assert main(["verify", input_path, "--max-degree", "0"]) == 1
    assert "m=1" in capsys.readouterr().err


# -- demo ---------------------------------------------------------------------------

def test_demo_writes_and_runs(tmp_path, capsys):
    assert main(["demo", "--out", str(tmp_path / "demo")]) == 0
    out = capsys.readouterr().out
    assert "C = [X1, 1]" in out
    assert "dimension 1" in out and "dimension 3" in out
    worked = json.loads((tmp_path / "demo" / "worked_one_variable.json").read_text())
    assert worked["field"] == "Q"
    char2 = json.loads((tmp_path / "demo" / "char2_kernel.json").read_text())
    assert char2["field"] == "F2"
    # the demo files themselves load and run through the main commands
    assert main(["decompose", str(tmp_path / "demo" / "worked_one_variable.json")]) == 0
    assert main(["kernel", str(tmp_path / "demo" / "char2_kernel.json")]) == 0


# -- the argument boundary -----------------------------------------------------------

def test_the_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    try:
        worked = write_problem(tmp_path / "worked.json", worked_problem())
        char2 = write_problem(tmp_path / "char2.json", char2_problem())
        assert main(["kernel", char2]) == 0
        per_build = len(built)
        assert per_build == 5  # the parser and its four subcommands
        for argv in (["decompose", worked], ["verify", worked, "--trials", "2"],
                     ["kernel", char2, "--degree1-only"], ["bogus"], ["--help"]):
            main(argv)
        assert len(built) == per_build
    finally:
        cli.build_parser.cache_clear()


def no_leak_calls(tmp_path):
    """A sequence of calls in which each flag given once must be gone on
    the next call."""
    worked = write_problem(tmp_path / "worked.json", worked_problem())
    char2 = write_problem(tmp_path / "char2.json", char2_problem())
    out = str(tmp_path / "report.json")
    return [
        ["verify", worked, "--seed", "9", "--trials", "3", "--max-degree", "0"],
        ["verify", worked],
        ["kernel", char2, "--degree1-only", "--out", out],
        ["kernel", char2],
        ["decompose", worked, "--max-degree", "0"],
        ["decompose", worked, "--out", out],
        ["decompose", worked],
        ["verify", worked, "--trials", "-1"],
        ["verify", worked, "--seed", "3"],
        ["kernel", char2, "--bogus"],
        ["kernel", char2, "--degree1-only"],
    ]


def test_calls_in_one_process_do_not_leak_into_each_other(tmp_path, capsys, monkeypatch):
    """Each in-process call prints what a fresh interpreter prints."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    calls = no_leak_calls(tmp_path)
    out = tmp_path / "report.json"
    in_process = []
    for argv in calls:
        out.unlink(missing_ok=True)
        code = main(argv)
        captured = capsys.readouterr()
        written = out.read_text() if out.exists() else None
        in_process.append((code, captured.out, captured.err, written))
    src = str(Path(hasseschmidt.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    for argv, expected in zip(calls, in_process):
        out.unlink(missing_ok=True)
        proc = subprocess.run([sys.executable, "-m", "hasseschmidt", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        written = out.read_text() if out.exists() else None
        assert (proc.returncode, proc.stdout, proc.stderr, written) == expected, argv


@pytest.mark.parametrize("argv", [
    ["bogus"],
    [],
    ["decompose"],
    ["decompose", "{input}", "--max-degree", "x"],
    ["decompose", "{input}", "--max-degree", "-1"],
    ["verify", "{input}", "--max-degree", "-1"],
    ["verify", "{input}", "--trials", "-1"],
    ["verify", "{input}", "--trials", str(cli.MAX_TRIALS + 1)],
    ["verify", "{input}", "--trials", "2.5"],
    ["verify", "{input}", "--trials", "1" * 5000],
    ["verify", "{input}", "--seed", "x"],
    ["verify", "{input}", "--seed", " 7"],
    ["verify", "{input}", "--seed", "+7"],
    ["verify", "{input}", "--seed", "7_0"],
    ["verify", "{input}", "--seed", "\u0667"],  # Arabic-Indic seven
    ["kernel", "{input}", "--bogus"],
], ids=lambda argv: " ".join(a[:12] for a in argv) or "no-arguments")
def test_usage_errors_exit_1_with_argparse_s_message(tmp_path, capsys, argv):
    path = write_problem(tmp_path / "worked.json", worked_problem())
    assert main([a.replace("{input}", path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: hasseschmidt")
    last = captured.err.rstrip("\n").rsplit("\n", 1)[-1]
    assert last.startswith("hasseschmidt") and ": error: " in last
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["decompose", "--help"],
                                  ["verify", "x.json", "-h"]])
def test_help_exits_0(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: hasseschmidt")
    assert captured.err == ""


def test_the_bounds_are_inclusive(tmp_path, capsys):
    path = write_problem(tmp_path / "worked.json", worked_problem())
    assert main(["verify", path, "--trials", "0", "--max-degree", "0"]) == 0
    assert "(9 pairs" in capsys.readouterr().out  # the basis pairs alone
    assert main(["decompose", path, "--max-degree", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["verified_to_degree"] == 0


def test_a_negative_seed_is_accepted(tmp_path, capsys):
    path = write_problem(tmp_path / "worked.json", worked_problem())
    assert main(["verify", path, "--seed", "-7", "--trials", "1"]) == 0
    assert "[seed=-7]" in capsys.readouterr().out


def test_the_largest_trial_count_is_accepted():
    args = cli.build_parser().parse_args(["verify", "x.json", "--trials", str(cli.MAX_TRIALS)])
    assert args.trials == cli.MAX_TRIALS


def hostile_files(tmp_path):
    """name -> (path, expected stderr fragment) for files that once crashed
    or ran without bound."""
    def raw(name, data):
        path = tmp_path / name
        path.write_bytes(data)
        return str(path)

    huge = as_json(serialize.problem_to_json(worked_problem()))
    huge["derivations"][0]["images"][0][1]["terms"] = [[0, "1"], [1, "1"]]  # 1 + X
    huge["truncation"] = 10 ** 7
    long_verify = as_json(serialize.problem_to_json(
        serialize.Problem(field=GF(5), nvars=1, length=serialize.MONOMIAL_CAP, truncation=2,
                          seed=0, derivations=[taylor_derivation(1, serialize.MONOMIAL_CAP,
                                                                 GF(5), 0)])))
    named = as_json(serialize.problem_to_json(worked_problem()))
    named["derivations"][0]["name"] = json.loads("[" * 900 + "]" * 900)
    return {
        "deep-nesting": (raw("deep.json", b"[" * 200_000), "too deeply"),
        "not-utf8": (raw("bytes.json", b"\xff\xfe"), "not UTF-8"),
        "integer-past-the-digit-limit": (raw("long.json", b"1" * 5000), "malformed JSON"),
        "truncation-past-the-cap": (raw("huge.json", json.dumps(huge).encode()), "cap"),
        "length-past-the-cap": (raw("verify.json", json.dumps(long_verify).encode()), "cap"),
        "name-not-a-string": (raw("named.json", json.dumps(named).encode()), "name"),
        "directory": (str(tmp_path), "cannot read"),
        "missing": (str(tmp_path / "missing.json"), "cannot read"),
    }


@pytest.mark.parametrize("name", [
    "deep-nesting", "not-utf8", "integer-past-the-digit-limit", "truncation-past-the-cap",
    "length-past-the-cap", "name-not-a-string", "directory", "missing"])
def test_hostile_files_exit_1_with_one_line(tmp_path, capsys, name):
    path, fragment = hostile_files(tmp_path)[name]
    for command in ("decompose", "kernel", "verify"):
        start = time.perf_counter()
        assert main([command, path]) == 1, command
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert fragment in captured.err and "Traceback" not in captured.err


HUGE = 10 ** 4300 - 1  # 4300 nines, the most digits the JSON loader reads


@pytest.mark.parametrize("path, value", [
    (("length",), HUGE), (("truncation",), HUGE), (("length",), -HUGE),
    (("derivations", 0, "length"), HUGE)],
    ids=["length", "truncation", "negative-length", "derivation-length"])
def test_numbers_at_the_digit_limit_exit_1_with_one_short_line(tmp_path, capsys, path, value):
    """As the length, HUGE makes an order the interpreter will not write
    out; elsewhere it is written in 4300 digits.  No refusal writes it in
    full: each is one short line."""
    obj = as_json(serialize.problem_to_json(worked_problem()))
    *parents, key = path
    entry = obj
    for step in parents:
        entry = entry[step]
    entry[key] = value
    problem = tmp_path / "huge.json"
    problem.write_text(json.dumps(obj))
    for command in ("decompose", "kernel", "verify"):
        assert main([command, str(problem)]) == 1, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert captured.err.startswith("error: ") and len(captured.err.encode()) < 300


def test_a_coefficient_too_long_to_write_exits_1(tmp_path, capsys):
    """The table squares a 2500-digit coefficient; Python will not write
    the 5000-digit result, so decompose stops with a message."""
    obj = as_json(serialize.problem_to_json(worked_problem()))
    obj["derivations"][0]["images"][0][1]["terms"] = [[0, "1"], [1, "1"]]
    obj["derivations"][0]["images"][0][2]["terms"] = [[0, "1"], [1, "1"]]
    obj["target"]["images"][0][1]["terms"] = [[1, "1" * 2500]]
    obj["target"]["images"][0][2]["terms"] = [[1, "1" * 2500]]
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(obj))
    assert main(["decompose", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "digits" in captured.err


# -- the file cap, the loader's refusals and the failing verdicts ---------------

def assert_refused_by_every_command(path, fragment, capsys):
    """decompose, kernel and verify each exit 1 on path with one stderr
    line holding fragment and nothing on stdout."""
    for command in ("decompose", "kernel", "verify"):
        assert main([command, str(path)]) == 1, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert fragment in captured.err, captured.err


def test_a_file_past_the_cap_exits_1_and_a_file_at_the_cap_loads(tmp_path, capsys, monkeypatch):
    """The cap counts characters, not bytes: a name with a non-ASCII
    letter, written unescaped, makes the file longer in UTF-8 than in
    characters."""
    obj = as_json(serialize.problem_to_json(worked_problem()))
    obj["derivations"][0]["name"] = "tayé"
    text = json.dumps(obj, ensure_ascii=False)
    monkeypatch.setattr(serialize, "FILE_CAP", len(text))
    at_cap = tmp_path / "at.json"
    at_cap.write_text(text, encoding="utf-8")
    assert len(at_cap.read_bytes()) > len(text)
    for command in ("decompose", "verify"):  # the worked problem is no kernel problem
        assert main([command, str(at_cap)]) == 0, command
    capsys.readouterr()
    past = tmp_path / "past.json"
    past.write_text(text + " ", encoding="utf-8")
    assert_refused_by_every_command(past, f"is larger than the cap of {len(text)} characters",
                                    capsys)


def table_problem():
    """The worked problem with its correct table C = [X, 1]."""
    from hasseschmidt import CoeffTable

    problem = worked_problem()
    problem.coefficients = CoeffTable([[Series.variable(1, QQ, 0)], [Series.one(1, QQ)]])
    return as_json(serialize.problem_to_json(problem))


_DROP = object()


def edited(*path, value=_DROP):
    """An edit of a problem's JSON: the entry at path set to value, or
    dropped; an empty path replaces the whole problem."""
    def edit(obj):
        if not path:
            return value
        *parents, key = path
        entry = obj
        for step in parents:
            entry = entry[step]
        if value is _DROP:
            del entry[key]
        else:
            entry[key] = value
        return obj
    return edit


@pytest.mark.parametrize("edit, fragment", [
    (edited(value=[1]), "problem file must contain a JSON object"),
    (edited("seed"), "missing problem field: 'seed'"),
    (edited("field"), "missing problem field: 'field'"),
    (edited("derivations", value=[]), "derivations must be a nonempty array"),
    (edited("derivations", value={}), "derivations must be a nonempty array"),
    (edited("derivations", 0, "nvars"), "derivation needs nvars, length, images: 'nvars'"),
    (edited("derivations", 0, "length"), "derivation needs nvars, length, images: 'length'"),
    (edited("derivations", 0, "images"), "derivation needs nvars, length, images: 'images'"),
    (edited("target", value=5), "derivation must be an object, got 5"),
    (edited("coefficients", value=[]), "coefficient table must be an object, got []"),
    (edited("coefficients", "m"), "coefficient table needs m, n, C: 'm'"),
    (edited("coefficients", "n"), "coefficient table needs m, n, C: 'n'"),
    (edited("coefficients", "C"), "coefficient table needs m, n, C: 'C'"),
    (edited("coefficients", "C", value=[[]]), "expected 2 coefficient rows"),
    (edited("coefficients", "C", 0, value=[]), "expected 1 entries per coefficient row"),
], ids=["not-an-object", "no-seed", "no-field", "no-derivations", "derivations-not-an-array",
        "derivation-without-nvars", "derivation-without-length", "derivation-without-images",
        "target-not-an-object", "table-not-an-object", "table-without-m", "table-without-n",
        "table-without-C", "table-row-count", "table-row-width"])
def test_each_loader_refusal_exits_1_with_one_line(tmp_path, capsys, edit, fragment):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(edit(table_problem())))
    assert_refused_by_every_command(path, fragment, capsys)


def test_a_table_the_engine_refuses_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    """No table that passes the loader's checks is refused by
    ``CoeffTable`` today, so a refusal is put in its place: it reaches the
    CLI as the loader's one-line format error."""
    from hasseschmidt.errors import IncompatibleAmbient

    def refuse(*args, **kwargs):
        raise IncompatibleAmbient("table entries live in different ambient rings")

    path = tmp_path / "table.json"
    path.write_text(json.dumps(table_problem()))
    monkeypatch.setattr(serialize, "CoeffTable", refuse)
    assert_refused_by_every_command(path, "table entries live in different ambient rings",
                                    capsys)


def test_decompose_exits_3_with_the_witness_when_reconstruction_fails(
        tmp_path, capsys, monkeypatch):
    """Only an engine fault makes the reconstruction fail, so one
    coordinate of every solve is moved by 1: the report, with its
    witness, is still written to stdout, and stderr has one line."""
    module = sys.modules["hasseschmidt.decompose"]
    solve = module.solve_derivation_coords

    def perturbed(values, matrix, out_precision):
        row = solve(values, matrix, out_precision)
        row[0] = row[0] + 1
        return row

    monkeypatch.setattr(module, "solve_derivation_coords", perturbed)
    path = write_problem(tmp_path / "worked.json", worked_problem())
    assert main(["decompose", path]) == 3
    captured = capsys.readouterr()
    assert captured.err == "reconstruction failed; see witness in report\n"
    report = json.loads(captured.out)
    assert report["witness"] is not None
    assert set(report["witness"]) == {"i", "beta", "lhs", "rhs"}
    assert report["C"]["C"][0][0]["terms"] == [[0, "1"], [1, "1"]]  # X + 1, not X


def test_verify_exits_3_on_a_derivation_that_breaks_leibniz(tmp_path, capsys, monkeypatch):
    """A family member corrupted as in tests/test_derivations.py (1 added
    to D_2(X^2)) fails the Leibniz check at weight 2 on f = g = X, and
    verify says so on stdout with exit code 3."""
    from test_derivations import Corrupted

    x = Series.variable(1, QQ, 0)
    load = serialize.load_problem

    def corrupted(path):
        problem = load(path)
        problem.derivations = [Corrupted(D, lambda i, f: i == 2 and f == x * x)
                               for D in problem.derivations]
        return problem

    monkeypatch.setattr(serialize, "load_problem", corrupted)
    path = write_problem(tmp_path / "worked.json", worked_problem())
    assert main(["verify", path]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    first, target, last = captured.out.splitlines()
    assert ": leibniz: FAIL at weight 2 on f=" in first
    assert target.startswith("target: leibniz: pass")
    assert last == "verify: FAIL"
