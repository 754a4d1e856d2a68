"""JSON round trips and format validation."""

import pytest

from hasseschmidt import GF, QQ, CoeffTable, HSDerivation, Series, TSeries
from hasseschmidt.errors import ProblemFormatError
from hasseschmidt import serialize
from hasseschmidt.derivations import taylor_derivation

from conftest import random_hsd, random_series


def test_field_strings():
    assert serialize.field_to_str(QQ) == "Q"
    assert serialize.field_to_str(GF(7)) == "F7"
    assert serialize.field_from_str("Q") is QQ
    assert serialize.field_from_str("F5").p == 5
    for bad in ("R", "F6", "F", 3, "GF(5)",
                "F1_3", "F 5", "F+5", "F\u0665", "F05", "F5 ", "F-5", "f5", "F1"):
        with pytest.raises(ProblemFormatError):
            serialize.field_from_str(bad)


def test_series_round_trip(rng):
    for field in (QQ, GF(3)):
        for prec in (None, 4):
            f = random_series(rng, 2, field, max_degree=3, max_terms=4, precision=prec)
            obj = serialize.series_to_json(f)
            assert serialize.series_from_json(obj, 2, field) == f


def test_series_json_shape():
    x = Series.variable(2, QQ, 0)
    f = (x * x + 1).truncate(5)
    assert serialize.series_to_json(f) == {
        "prec": 5,
        "terms": [[0, 0, "1"], [2, 0, "1"]],
    }


def test_series_json_rejects_garbage():
    with pytest.raises(ProblemFormatError):
        serialize.series_from_json({"terms": [[0, "1"]]}, 2, QQ)  # wrong arity
    with pytest.raises(ProblemFormatError):
        serialize.series_from_json({"terms": [[0, 0, "1"], [0, 0, "2"]]}, 2, QQ)
    with pytest.raises(ProblemFormatError):
        serialize.series_from_json({"terms": [[-1, 0, "1"]]}, 2, QQ)
    with pytest.raises(ProblemFormatError):
        serialize.series_from_json({"terms": [[0, 0, "1/0"]]}, 2, QQ)
    with pytest.raises(ProblemFormatError):
        serialize.series_from_json({"prec": -2, "terms": []}, 2, QQ)


@pytest.mark.parametrize("obj", [
    {"terms": [[True, 0, "1"]]},          # true would load as exponent 1
    {"terms": [[0, False, "1"]]},
    {"prec": True, "terms": []},          # and as precision 1
    {"terms": [[0, 0, "3_0"]]},
    {"terms": [[0, 0, "1e3"]]},
    {"terms": [[0, 0, " 2 "]]},
])
def test_series_json_rejects_loose_values(obj):
    for field in (QQ, GF(5)):
        with pytest.raises(ProblemFormatError):
            serialize.series_from_json(obj, 2, field)


def test_derivation_round_trip(rng):
    D = random_hsd(rng, 2, 3, GF(5))
    obj = serialize.derivation_to_json(D)
    assert serialize.derivation_from_json(obj, GF(5)) == D


def test_derivation_json_validates_identity_part():
    D = taylor_derivation(1, 2, QQ, 0)
    obj = serialize.derivation_to_json(D)
    # corrupt the t^0 coefficient: no longer the variable itself
    obj["images"][0][0]["terms"] = [[0, "1"]]
    with pytest.raises(ProblemFormatError):
        serialize.derivation_from_json(obj, QQ)


def test_table_round_trip(rng):
    rows = [[random_series(rng, 2, QQ, 2, 2) for _ in range(2)] for _ in range(3)]
    table = CoeffTable(rows, nvars=2, field=QQ)
    assert serialize.table_from_json(serialize.table_to_json(table), QQ) == table


def test_problem_round_trip(tmp_path):
    field = GF(2)
    problem = serialize.Problem(
        field=field,
        nvars=1,
        length=4,
        truncation=5,
        seed=7,
        derivations=[taylor_derivation(1, 4, field, 0)],
    )
    text = serialize.dumps(serialize.problem_to_json(problem))
    path = tmp_path / "problem.json"
    path.write_text(text)
    loaded = serialize.load_problem(path)
    assert loaded.field == field
    assert loaded.nvars == 1 and loaded.length == 4
    assert loaded.truncation == 5 and loaded.seed == 7
    assert loaded.derivations == problem.derivations
    assert loaded.target is None and loaded.coefficients is None


def test_problem_rejects_mismatched_derivation():
    obj = {
        "field": "Q",
        "nvars": 2,
        "length": 2,
        "truncation": 5,
        "seed": 0,
        "derivations": [
            {"name": "d1", **serialize.derivation_to_json(taylor_derivation(1, 2, QQ, 0))}
        ],
    }
    with pytest.raises(ProblemFormatError):
        serialize.problem_from_json(obj)


def worked_problem_json():
    field = QQ
    x = Series.variable(1, field, 0)
    target = HSDerivation([TSeries([x, x, Series.one(1, field)])])
    problem = serialize.Problem(
        field=field, nvars=1, length=2, truncation=6, seed=42,
        derivations=[taylor_derivation(1, 2, field, 0)], target=target,
        coefficients=CoeffTable([[x], [Series.one(1, field)]]),
    )
    return serialize.problem_to_json(problem)


@pytest.mark.parametrize("bad", [6.9, 2.0, True, "2"])
@pytest.mark.parametrize("path", [
    ("nvars",), ("length",), ("truncation",), ("seed",),
    ("derivations", 0, "nvars"), ("derivations", 0, "length"),
    ("target", "nvars"), ("coefficients", "m"), ("coefficients", "n"),
])
def test_problem_integers_must_be_json_integers(path, bad):
    obj = worked_problem_json()
    assert serialize.problem_from_json(obj).truncation == 6
    *outer, key = path
    node = obj
    for step in outer:
        node = node[step]
    node[key] = bad
    with pytest.raises(ProblemFormatError, match=repr(key)):
        serialize.problem_from_json(obj)


def test_empty_ambient_is_rejected():
    with pytest.raises(ProblemFormatError):
        serialize.derivation_from_json({"nvars": 0, "length": 2, "images": []}, QQ)
    with pytest.raises(ProblemFormatError):
        serialize.table_from_json({"m": 1, "n": 0, "C": [[]]}, QQ)


def test_problem_table_levels_must_match_length():
    obj = worked_problem_json()
    for rows in (obj["coefficients"]["C"][:1], obj["coefficients"]["C"] * 2):
        obj["coefficients"]["C"] = rows
        obj["coefficients"]["m"] = len(rows)
        with pytest.raises(ProblemFormatError, match="length=2"):
            serialize.problem_from_json(obj)


def test_load_problem_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ProblemFormatError):
        serialize.load_problem(path)
    with pytest.raises(ProblemFormatError):
        serialize.load_problem(tmp_path / "missing.json")


def test_dumps_is_canonical():
    assert serialize.dumps({"b": 1, "a": [2]}) == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'
