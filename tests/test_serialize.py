"""JSON round trips and format validation."""

import functools
import json
import math
import sys
from fractions import Fraction
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hasseschmidt import GF, QQ, CoeffTable, HSDerivation, Series, TSeries, taylor_basis
from hasseschmidt.coefffield import KernelReport, coefficient_field
from hasseschmidt.decompose import DecompositionResult, Witness, decompose, verify_decomposition
from hasseschmidt.errors import CoefficientTooLarge, ProblemFormatError
from hasseschmidt.fields import EXPONENT_CAP
from hasseschmidt import serialize
from hasseschmidt.derivations import taylor_derivation

import reference
from conftest import FIELDS, as_json, random_hsd, random_series


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
            obj = as_json(f)
            assert serialize.series_from_json(obj, 2, field) == f


def test_series_json_shape():
    x = Series.variable(2, QQ, 0)
    f = (x * x + 1).truncate(5)
    assert as_json(f) == reference.series_to_json(f) == {
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
    for terms in (None, 3, {"0": "1"}):
        with pytest.raises(ProblemFormatError, match="'terms' array"):
            serialize.series_from_json({"terms": terms}, 2, QQ)


def test_series_json_caps_exponents():
    capped = serialize.series_from_json({"terms": [[EXPONENT_CAP, 0, "1"]]}, 2, QQ)
    assert capped == Series.monomial(2, QQ, (EXPONENT_CAP, 0))
    for exps in ([EXPONENT_CAP + 1, 0], [0, 10 ** 7]):
        with pytest.raises(ProblemFormatError, match="cap"):
            serialize.series_from_json({"terms": [exps + ["1"]]}, 2, QQ)


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
    obj = as_json(serialize.derivation_to_json(D))
    assert serialize.derivation_from_json(obj, GF(5)) == D


def test_derivation_json_validates_identity_part():
    D = taylor_derivation(1, 2, QQ, 0)
    obj = as_json(serialize.derivation_to_json(D))
    # corrupt the t^0 coefficient: no longer the variable itself
    obj["images"][0][0]["terms"] = [[0, "1"]]
    with pytest.raises(ProblemFormatError):
        serialize.derivation_from_json(obj, QQ)


def test_table_round_trip(rng):
    rows = [[random_series(rng, 2, QQ, 2, 2) for _ in range(2)] for _ in range(3)]
    table = CoeffTable(rows, nvars=2, field=QQ)
    assert serialize.table_from_json(as_json(serialize.table_to_json(table)), QQ) == table


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
            {"name": "d1", **as_json(serialize.derivation_to_json(taylor_derivation(1, 2, QQ, 0)))}
        ],
    }
    with pytest.raises(ProblemFormatError):
        serialize.problem_from_json(obj)


@pytest.mark.parametrize("path, message", [
    (("derivations", 0), "^derivation 'taylor1' does not match the problem's nvars/length$"),
    (("target",), "^target does not match the problem's nvars/length$"),
])
@pytest.mark.parametrize("declared", [{"nvars": 2}, {"length": 3}, {"nvars": 4000}])
def test_a_mismatched_derivation_is_refused_before_its_images(monkeypatch, path, message,
                                                               declared):
    """A declared nvars or length other than the problem's is refused
    before any image is read, so a mismatched entry whose images are also
    malformed gets the mismatch message, however many images it has."""
    obj = worked_problem_json()
    entry = obj
    for step in path:
        entry = entry[step]
    entry.update(declared)
    entry["images"] = [[{"terms": "not a list"}]] * entry["nvars"]
    read = []
    load = serialize.tseries_from_json
    monkeypatch.setattr(serialize, "tseries_from_json",
                        lambda *args: read.append(args) or load(*args))
    with pytest.raises(ProblemFormatError, match=message):
        serialize.problem_from_json(obj)
    assert len(read) == (path == ("target",))  # the one image of the valid member only


@pytest.mark.parametrize("declared", [{"n": 2}, {"m": 3}, {"n": 4000}])
def test_a_mismatched_table_is_refused_before_its_entries(monkeypatch, declared):
    obj = worked_problem_json()
    table = obj["coefficients"]
    table.update(declared)
    table["C"] = [[None] * table["n"]] * table["m"]
    monkeypatch.setattr(serialize, "series_from_json", None)  # no entry may be read
    with pytest.raises(ProblemFormatError, match=(
            f"^coefficient table has n={table['n']}, m={table['m']}; "
            "the problem has nvars=1, length=2$")):
        serialize.problem_from_json(obj)


def test_load_problem_refuses_mixed_tags_as_a_format_error(tmp_path, capsys):
    """An image whose t-coefficients carry different tags is refused as
    a ProblemFormatError, as ``load_problem`` promises for every failure,
    and the CLI writes one error line and exits 1."""
    from hasseschmidt.cli import main

    obj = worked_problem_json()
    obj["target"]["images"][0][1]["prec"] = 4
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ProblemFormatError, match="^t-coefficients carry different precisions$"):
        serialize.load_problem(path)
    capsys.readouterr()
    assert main(["decompose", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: t-coefficients carry different precisions\n")


def worked_problem():
    field = QQ
    x = Series.variable(1, field, 0)
    target = HSDerivation([TSeries([x, x, Series.one(1, field)])])
    return serialize.Problem(
        field=field, nvars=1, length=2, truncation=6, seed=42,
        derivations=[taylor_derivation(1, 2, field, 0)], target=target,
        coefficients=CoeffTable([[x], [Series.one(1, field)]]),
    )


def worked_problem_json():
    return as_json(serialize.problem_to_json(worked_problem()))


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


# -- the canonical writer against the stdlib encoder ---------------------------------

def stdlib_dumps(value) -> str:
    """The oracle ``serialize.dumps`` must match byte for byte."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


# quotes, backslashes, control characters, non-ASCII (BMP and astral),
# line separators, a byte-order mark and lone surrogates
AWKWARD_CHARS = st.sampled_from(
    ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "\u00e9", "\u2028", "\ufeff",
     "\ud800", "\udfff", "\U0001f600"])
JSON_STRINGS = st.text(st.one_of(st.characters(exclude_categories=()), AWKWARD_CHARS),
                       max_size=8)
JSON_INTS = st.one_of(
    st.integers(), st.integers(-10 ** 300, 10 ** 300),
    st.sampled_from([2 ** 63, -2 ** 64, 10 ** 4000]),
)
JSON_TREES = st.recursive(
    st.none() | st.booleans() | JSON_INTS | JSON_STRINGS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_STRINGS, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(JSON_TREES)
def test_dumps_writes_the_bytes_of_the_stdlib_encoder(value):
    assert serialize.dumps(value) == stdlib_dumps(value)


def emitted_forms(rng):
    """A decomposition with a witness, kernel reports, and a problem with
    a target and coefficients."""
    field = QQ
    T = random_hsd(rng, 2, 2, field)
    family = taylor_basis(2, 2, field)
    result = decompose(T, family, out_precision=6, verify_degree=3)
    rows = [list(row) for row in result.table.rows]
    rows[1][0] = rows[1][0] + Series.constant(2, field, Fraction(-7, 3))
    table = CoeffTable(rows)
    report = verify_decomposition(T, family, table, 3)
    assert report.witness is not None
    failed = DecompositionResult(table, report.verified_to_degree, result.basis_order,
                                 report.witness)
    kernel_family = taylor_basis(2, 3, GF(2))
    return [
        serialize.decomposition_to_json(failed),
        serialize.decomposition_to_json(result),
        serialize.kernel_report_to_json(coefficient_field(kernel_family, 4)),
        serialize.kernel_report_to_json(coefficient_field(kernel_family, 4, degree1_only=True)),
        serialize.problem_to_json(worked_problem()),
    ]


def test_dumps_writes_every_emitted_form_as_the_stdlib_encoder_does(rng):
    forms = emitted_forms(rng)
    assert forms[0]["witness"] is not None and "target" in forms[-1]
    for form in forms:
        assert serialize.dumps(form) == stdlib_dumps(reference.json_form(form))


# -- Series leaves: every depth, field, tag and size ------------------------------

Q_SCALARS = st.one_of(
    st.fractions(max_denominator=12), st.integers(-10 ** 40, 10 ** 40),
    st.builds(Fraction, st.integers(-10 ** 60, 10 ** 60), st.integers(1, 10 ** 60)))
EXPONENTS = st.one_of(st.integers(0, 3), st.sampled_from([EXPONENT_CAP - 1, EXPONENT_CAP]),
                      st.integers(0, EXPONENT_CAP))
SERIES_FIELDS = st.sampled_from([QQ, GF(2), GF(3), GF(5), GF(7)])


@functools.cache
def term_lists(p, nvars):
    """Up to six (exponents, coefficient) pairs, built once per field and
    nvars: building a strategy costs more than drawing from it."""
    coeffs = Q_SCALARS if p is None else st.integers(-3 * p, 3 * p)
    return st.lists(st.tuples(st.tuples(*[EXPONENTS] * nvars), coeffs), max_size=6)


@functools.cache
def series_tags(nvars):
    return st.one_of(st.none(), st.just(0), st.integers(1, 4),
                     st.integers(1, nvars * EXPONENT_CAP + 1))


@st.composite
def series_leaves(draw, field, nvars, exact=False):
    """A series with up to six terms, possibly none: tag exact, 0 or a
    finite N; exponents up to EXPONENT_CAP, and over Q negative and large
    fractions."""
    terms = dict(draw(term_lists(field.p, nvars)))
    prec = None if exact else draw(series_tags(nvars))
    return Series(nvars, field, {e: field.coerce(c) for e, c in terms.items()}, prec)


@st.composite
def emitted_series_forms(draw):
    """A decomposition report with a witness, a kernel report and a problem
    file, sharing one field and nvars, with drawn series as table entries,
    witness sides, kernel basis members and derivation images."""
    field = draw(SERIES_FIELDS)
    nvars = draw(st.integers(1, serialize.NVARS_CAP))
    leaf = series_leaves(field, nvars)
    levels = draw(st.integers(1, 2))
    table = CoeffTable([[draw(leaf) for _ in range(nvars)] for _ in range(levels)],
                       nvars=nvars, field=field)
    witness = draw(st.one_of(st.none(), st.builds(
        Witness, st.integers(1, levels), st.tuples(*[st.integers(0, 4)] * nvars), leaf, leaf)))
    decomposition = DecompositionResult(table, draw(st.integers(-1, 6)), list(range(nvars)),
                                        witness)
    basis = draw(st.lists(leaf, max_size=3))
    kernel = KernelReport(len(basis), basis, "drawn", draw(st.integers(0, 9)))
    images = [
        TSeries([Series.variable(nvars, field, j)]
                + [draw(series_leaves(field, nvars, exact=True)) for _ in range(levels)])
        for j in range(nvars)
    ]
    problem = serialize.Problem(
        field=field, nvars=nvars, length=levels, truncation=draw(st.integers(1, 9)), seed=0,
        derivations=[HSDerivation(images, name=draw(JSON_STRINGS))],
        target=draw(st.one_of(st.none(), st.just(HSDerivation(images)))),
        coefficients=draw(st.one_of(st.none(), st.just(table))),
    )
    return [
        serialize.decomposition_to_json(decomposition),
        serialize.kernel_report_to_json(kernel),
        serialize.problem_to_json(problem),
        draw(leaf),
    ]


@settings(max_examples=60, deadline=None)
@given(emitted_series_forms())
def test_dumps_writes_series_leaves_as_the_stdlib_encoder_writes_their_dicts(forms):
    """Each Series leaf is written as the stdlib encoder writes the dict
    form of ``reference.series_to_json``, at every depth a series takes
    in a report or a problem file, and on its own."""
    for form in forms:
        assert serialize.dumps(form) == stdlib_dumps(reference.json_form(form))
    assert serialize.dumps(forms) == stdlib_dumps(reference.json_form(forms))


def test_dumps_writes_series_of_several_ambients_in_one_call():
    """A term head depends on nvars as well as on the key: the constant 1
    has key 0 in every ambient."""
    mixed = [[Series.one(n, GF(3)), Series.variable(n, GF(3), 0) + 2] for n in (1, 3, 2, 1)]
    assert serialize.dumps(mixed) == stdlib_dumps(reference.json_form(mixed))


def test_a_coefficient_past_the_digit_limit_raises_from_every_depth():
    """``format_scalar`` writes every coefficient, so a number longer than
    the interpreter's digit limit raises CoefficientTooLarge wherever its
    series sits; the limit is lowered for the test and then restored."""
    big = Series.constant(1, QQ, Fraction(10 ** 700 + 1, 3))
    x = Series.variable(1, QQ, 0)
    forms = [
        big,
        serialize.table_to_json(CoeffTable([[x], [big]])),
        serialize.kernel_report_to_json(KernelReport(2, [x, big], "", 3)),
        serialize.decomposition_to_json(DecompositionResult(
            CoeffTable([[x]]), 0, [0], Witness(1, (1,), x, big))),
        serialize.derivation_to_json(HSDerivation([TSeries([x, x, big])])),
    ]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for form in forms:
            with pytest.raises(CoefficientTooLarge, match="640 digits"):
                serialize.dumps(form)
    finally:
        sys.set_int_max_str_digits(limit)
    assert all(serialize.dumps(form) == stdlib_dumps(reference.json_form(form))
               for form in forms)


def test_dumps_keeps_no_state_between_calls(rng):
    """The memo of term heads lives for one call: no container of the
    module grows, and writing 20,000 distinct terms leaves well under the
    1 MB or more that a memo kept across calls would hold (the margin
    is for the interpreter's free lists)."""
    import tracemalloc

    def containers():
        return {name: len(value) for name, value in vars(serialize).items()
                if isinstance(value, (dict, list, set))}

    before = containers()
    for form in emitted_forms(rng):
        serialize.dumps(form)
    rounds = [Series(3, GF(5), {(a, b, r): 1 for a in range(100) for b in range(50)})
              for r in range(4)]
    tracemalloc.start()
    try:
        first = tracemalloc.take_snapshot()
        for f in rounds:
            serialize.dumps(f)
        second = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    only = [tracemalloc.Filter(True, serialize.__file__)]
    grown = sum(stat.size_diff for stat in
                second.filter_traces(only).compare_to(first.filter_traces(only), "filename"))
    assert grown < 100_000
    assert containers() == before


@pytest.mark.parametrize("value", [
    1.5, (1, 2), {1: "a"}, {"a": 1, 2: "b"}, [[0, 0.0]], {"terms": [(0, "1")]}, [0, 1, b"x"],
])
def test_dumps_refuses_types_outside_the_canonical_forms(value):
    with pytest.raises(TypeError):
        serialize.dumps(value)


# -- the load path against the validating constructor --------------------------------

COEFFICIENTS = st.sampled_from(
    ["1", "-2", "7", "0", "-0", "0/3", "3/4", "-6/4", "1/2", "2/4", 2, 0, 1, -9])
PRECISIONS = st.sampled_from([None, "exact", 0, 1, 2, 3, 5])  # None: no "prec" key
BAD_EXPONENTS = st.sampled_from([-1, True, False, 4097, 1.0, "1", None])
BAD_COEFFICIENTS = st.sampled_from(["1/0", "x", "1.5", " 2", "+1", True, 1.5, None, [1]])
BAD_PRECISIONS = st.sampled_from([-1, True, 2.0, "3", None, [2]])
BAD_ROWS = st.sampled_from([None, "x", 3, {}])


@st.composite
def json_series(draw, nvars):
    """A JSON series with terms below and above the precision and zero
    coefficients; in about half the draws one mistake is put in: a wrong
    arity, a bad exponent, coefficient or precision, a duplicate exponent
    or a row that is not a list."""
    rows = [[draw(st.integers(0, 3)) for _ in range(nvars)] + [draw(COEFFICIENTS)]
            for _ in range(draw(st.integers(0, 5)))]
    obj = {"terms": rows}
    prec = draw(PRECISIONS)
    if prec is not None:
        obj["prec"] = prec
    mistake = draw(st.sampled_from(
        [None] * 7 + ["arity", "exponent", "coefficient", "duplicate", "row", "prec", "cap"]))
    at = draw(st.integers(0, max(len(rows) - 1, 0)))
    if mistake in ("arity", "exponent", "coefficient", "duplicate", "cap") and rows:
        row = rows[at]
        if mistake == "arity" and draw(st.booleans()):
            row.insert(0, 0)
        elif mistake == "arity":
            row.pop(0)
        elif mistake == "exponent":
            row[draw(st.integers(0, nvars - 1))] = draw(BAD_EXPONENTS)
        elif mistake == "cap":
            row[draw(st.integers(0, nvars - 1))] = draw(st.sampled_from([4096, 4097, 10 ** 9]))
        elif mistake == "coefficient":
            row[-1] = draw(BAD_COEFFICIENTS)
        else:
            rows.insert(draw(st.integers(0, len(rows))), row[:-1] + [draw(COEFFICIENTS)])
    elif mistake == "row":
        rows.insert(at, draw(BAD_ROWS))
    elif mistake == "prec":
        obj["prec"] = draw(BAD_PRECISIONS)
    return obj


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 3), st.data())
def test_series_from_json_agrees_with_the_validating_constructor(field, nvars, data):
    obj = data.draw(json_series(nvars))
    try:
        expected = reference.series_from_json(obj, nvars, field)
    except ProblemFormatError as exc:
        with pytest.raises(ProblemFormatError) as info:
            serialize.series_from_json(obj, nvars, field)
        assert str(info.value) == str(exc)
        return
    assert serialize.series_from_json(obj, nvars, field) == expected  # terms and tag


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 3), st.data())
def test_tseries_from_json_agrees_with_the_validating_constructors(field, nvars, data):
    """Each t-coefficient read by ``reference.series_from_json``, then the
    public TSeries constructor: the same t-series, or the same refusal
    message, always as a ProblemFormatError (the constructor refuses
    mixed tags as IncompatibleAmbient).  In most draws every
    t-coefficient carries the first one's tag."""
    from hasseschmidt.errors import HasseSchmidtError

    objs = data.draw(st.lists(json_series(nvars), min_size=1, max_size=4))
    if data.draw(st.integers(0, 3)):
        for obj in objs[1:]:
            obj.pop("prec", None)
            if "prec" in objs[0]:
                obj["prec"] = objs[0]["prec"]
    try:
        expected = TSeries([reference.series_from_json(obj, nvars, field) for obj in objs])
    except HasseSchmidtError as exc:
        with pytest.raises(ProblemFormatError) as info:
            serialize.tseries_from_json(objs, nvars, field)
        assert str(info.value) == str(exc)
        return
    loaded = serialize.tseries_from_json(objs, nvars, field)
    assert loaded == expected  # flat terms, t-length and tag
    assert loaded.coeffs == expected.coeffs


@pytest.mark.parametrize("field", FIELDS)
def test_tseries_from_json_parses_each_text_once(field, monkeypatch):
    """A whole t-series whose coefficients repeat their texts, "1" next
    to the JSON int 1 and, over Q, "2/4" next to "1/2", loads as the
    reference reads it.  Each distinct text is parsed once, a JSON int
    each time; a bool after "1" is still refused."""
    from hasseschmidt.fields import FieldSpec

    texts = ["1", 1, "1", "3", "-1", "1", 1, "3", "0", "1"]
    if field.p is None:
        texts += ["2/4", "1/2", "2/4", "-3/6"]
    objs = [{"terms": []} for _ in range(3)]
    for at, text in enumerate(texts):
        objs[at % 3]["terms"].append([at // 3, at % 2, text])
    expected = TSeries([reference.series_from_json(obj, 2, field) for obj in objs])
    calls = []
    parse = FieldSpec.parse_scalar
    monkeypatch.setattr(FieldSpec, "parse_scalar",
                        lambda self, text: calls.append(text) or parse(self, text))
    loaded = serialize.tseries_from_json(objs, 2, field)
    assert loaded == expected and loaded.coeffs == expected.coeffs
    assert sorted(map(str, calls)) == sorted(
        [str(t) for t in texts if type(t) is int] + list({t for t in texts if type(t) is str}))
    objs[1]["terms"].append([9, 0, True])
    with pytest.raises(ProblemFormatError, match="^bad coefficient True"):
        serialize.tseries_from_json(objs, 2, field)


def test_series_from_json_drops_high_and_zero_terms_but_not_duplicates():
    obj = {"prec": 2, "terms": [[0, 0, "1"], [1, 1, "2"], [0, 3, "5"], [1, 0, "0/4"]]}
    loaded = serialize.series_from_json(obj, 2, QQ)
    assert (loaded.tuple_terms(), loaded.precision) == ({(0, 0): Fraction(1)}, 2)
    assert serialize.series_from_json({"terms": [[1, 0, "10"]]}, 2, GF(5)).terms == {}
    for exps in ([1, 1], [0, 0]):  # a duplicate above the precision, and one below it
        obj = {"prec": 2, "terms": [exps + ["1"], [0, 1, "1"], exps + ["2"]]}
        with pytest.raises(ProblemFormatError, match=r"^duplicate exponent \(\d, \d\) in series$"):
            serialize.series_from_json(obj, 2, QQ)


def taylor_problem_json(nvars, length, truncation):
    problem = serialize.Problem(
        field=GF(3), nvars=nvars, length=length, truncation=truncation, seed=0,
        derivations=[taylor_derivation(nvars, length, GF(3), j) for j in range(nvars)],
    )
    return as_json(serialize.problem_to_json(problem))


def test_the_monomial_cap_bounds_truncation_and_length():
    """The order max(truncation, length + 1) may have at most
    MONOMIAL_CAP monomials below it; one more is refused."""
    cap = serialize.MONOMIAL_CAP
    order = next(N for N in range(1, cap) if math.comb(N + 1, 2) > cap)
    accepted = [(1, 1, cap), (1, cap - 1, 1), (2, 1, order - 1)]
    refused = [(1, 1, cap + 1), (1, cap, 1), (2, 1, order), (2, order - 1, 2)]
    for nvars, length, truncation in accepted:
        problem = serialize.problem_from_json(taylor_problem_json(nvars, length, truncation))
        assert (problem.length, problem.truncation) == (length, truncation)
    for nvars, length, truncation in refused:
        with pytest.raises(ProblemFormatError, match=f"cap of {cap} monomials"):
            serialize.problem_from_json(taylor_problem_json(nvars, length, truncation))


def test_the_monomial_count_is_one_binomial_at_the_cap():
    """In every admitted number of variables the largest order with at
    most MONOMIAL_CAP monomials below it, C(order - 1 + nvars, nvars), is
    accepted and the next one refused; a huge order, up to the digit
    limit, is refused fast, and a huge nvars by its own cap."""
    cap, top = serialize.MONOMIAL_CAP, serialize.NVARS_CAP
    for nvars in range(1, top + 1):
        order = max(N for N in range(1, cap + 2) if math.comb(N - 1 + nvars, nvars) <= cap)
        assert serialize.problem_from_json(taylor_problem_json(nvars, 1, order)).truncation == order
        with pytest.raises(ProblemFormatError, match=f"cap of {cap} monomials"):
            serialize.problem_from_json(taylor_problem_json(nvars, 1, order + 1))
    for nvars, key, value, fragment in (
            (2, "truncation", 10 ** 7, "monomials"),
            (top, "truncation", 10 ** 100, "monomials"),
            (top, "truncation", 10 ** 4300 - 1, "monomials"),
            (top, "length", 10 ** 4300 - 1, "monomials"),
            (1, "nvars", 10 ** 9, "variables")):
        obj = taylor_problem_json(nvars, 1, 2)
        obj[key] = value
        start = time.perf_counter()
        with pytest.raises(ProblemFormatError, match=fragment):
            serialize.problem_from_json(obj)
        assert time.perf_counter() - start < 0.02


def test_the_cap_is_checked_before_the_derivations():
    obj = worked_problem_json()
    obj["truncation"] = 10 ** 7
    obj["derivations"] = [{"name": "broken"}]
    with pytest.raises(ProblemFormatError, match="cap"):
        serialize.problem_from_json(obj)


def test_the_nvars_cap_is_checked_before_the_derivations():
    """NVARS_CAP variables load; one more, or 10**9, is refused at once,
    before a derivation is parsed."""
    cap = serialize.NVARS_CAP
    problem = serialize.problem_from_json(taylor_problem_json(cap, 1, 2))
    assert problem.nvars == len(problem.derivations) == cap
    for nvars in (cap + 1, 10 ** 9):
        obj = worked_problem_json()
        obj["nvars"] = nvars
        obj["derivations"] = [{"name": "broken"}]
        start = time.perf_counter()
        with pytest.raises(ProblemFormatError, match=f"{nvars} variables, more than the cap of {cap}$"):
            serialize.problem_from_json(obj)
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("name, data, message", [
    ("deep-nesting", b"[" * 200_000, "too deeply"),
    ("not-utf8", b"\xff\xfe", "not UTF-8"),
    ("long-integer", b"1" * 5000, "malformed JSON"),
])
def test_load_problem_maps_hostile_bytes_to_a_format_error(tmp_path, name, data, message):
    path = tmp_path / f"{name}.json"
    path.write_bytes(data)
    with pytest.raises(ProblemFormatError, match=message) as info:
        serialize.load_problem(path)
    assert "\n" not in str(info.value)


def test_error_messages_shorten_the_values_they_quote():
    """A deeply nested or long value is quoted by reprlib, so the message
    stays one short line and building it cannot recurse."""
    obj = worked_problem_json()
    obj["target"]["images"][0][1]["prec"] = json.loads("[" * 900 + "]" * 900)
    with pytest.raises(ProblemFormatError, match=r"bad precision \[\[") as info:
        serialize.problem_from_json(obj)
    assert len(str(info.value)) < 100
    obj = worked_problem_json()
    obj["target"]["images"][0][1]["terms"][0][-1] = "x" * 10 ** 6
    with pytest.raises(ProblemFormatError, match="not a scalar") as info:
        serialize.problem_from_json(obj)
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("name", [3, None, ["D1"], {"a": 1}])
def test_derivation_names_must_be_strings(name):
    obj = worked_problem_json()
    obj["derivations"][0]["name"] = name
    with pytest.raises(ProblemFormatError, match="name"):
        serialize.problem_from_json(obj)


def test_every_benchmark_corpus_problem_is_under_the_cap():
    """The default-seed corpora of bench/corpus.py (largest: 165 monomials)
    all load."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import corpus
    finally:
        sys.path.pop(0)
    largest = 0
    for workload in sorted(corpus.WORKLOADS):
        files, _ = corpus.generate(workload, corpus.DEFAULT_SEED)
        for text in files.values():
            problem = serialize.problem_from_json(json.loads(text))
            order = max(problem.truncation, problem.length + 1)
            largest = max(largest, math.comb(order - 1 + problem.nvars, problem.nvars))
    assert largest == 165 < serialize.MONOMIAL_CAP
