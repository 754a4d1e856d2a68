"""End-to-end command-line behaviour and exit codes."""

import json

import pytest

from hasseschmidt import GF, QQ, Derivation, HSDerivation, Series, TSeries, integrate
from hasseschmidt import serialize
from hasseschmidt.cli import main
from hasseschmidt.derivations import taylor_derivation


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
        derivations=[integrate(Derivation([x]), 2)], target=target,
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
    obj = serialize.problem_to_json(problem)
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
    obj = serialize.problem_to_json(worked_problem())
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


def test_verify_table_without_target_exits_1(tmp_path):
    problem = char2_problem()
    from hasseschmidt import CoeffTable

    one = Series.one(1, GF(2))
    problem.coefficients = CoeffTable([[one]] * 4)
    input_path = write_problem(tmp_path / "broken.json", problem)
    assert main(["verify", input_path]) == 1


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
