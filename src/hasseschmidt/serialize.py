"""JSON forms of every value the CLI reads or writes.

Formats:
  field        "Q" or "F<p>", e.g. "F5"
  series       {"prec": N or "exact", "terms": [[e1, .., en, "coeff"], ..]}
  tseries      [series, ..] indexed by t-degree
  derivation   {"nvars": n, "length": m, "images": [tseries, ..]}
               (the t^0 entry is the variable itself and is validated)
  table        {"m": levels, "n": nvars, "C": [[series, ..], ..]} as C[l-1][d]
  kernel       {"N": order, "dimension": d, "basis": [series, ..]}
  problem      {"field", "nvars", "length", "truncation", "seed",
                "derivations": [{"name", ..derivation..}, ..],
                "target": derivation or absent,
                "coefficients": table or absent}

Emission is canonical (sorted keys, graded-lex term order) so identical
inputs produce byte-identical reports.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .errors import HasseSchmidtError, ProblemFormatError
from .fields import GF, QQ, FieldSpec
from .series import Series, TSeries, grlex_key
from .derivations import HSDerivation
from .formula import CoeffTable
from .coefffield import KernelReport
from .decompose import DecompositionResult


def field_to_str(field: FieldSpec) -> str:
    return "Q" if field.p is None else f"F{field.p}"


_GF_NAME = re.compile(r"F[1-9][0-9]*")


def field_from_str(text) -> FieldSpec:
    """'Q' or ASCII 'F<p>' with p a prime written without a leading zero."""
    if not isinstance(text, str):
        raise ProblemFormatError(f"field must be a string, got {text!r}")
    if text == "Q":
        return QQ
    if _GF_NAME.fullmatch(text):
        try:
            return GF(int(text[1:], 10))
        except ValueError as exc:
            raise ProblemFormatError(f"bad prime field {text!r}: {exc}") from exc
    raise ProblemFormatError(f"unknown field {text!r} (expected 'Q' or 'F<p>')")


def _int_field(obj: dict, key: str, minimum: int | None = None) -> int:
    """obj[key] as a JSON integer (KeyError if absent); floats, bools and
    strings are rejected, as are values below minimum."""
    value = obj[key]
    if type(value) is not int:
        raise ProblemFormatError(f"{key!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ProblemFormatError(f"{key!r} must be >= {minimum}, got {value}")
    return value


def series_to_json(f: Series) -> dict:
    terms = [
        list(e) + [f.field.format_scalar(f.terms[e])]
        for e in sorted(f.terms, key=grlex_key)
    ]
    return {"prec": "exact" if f.precision is None else f.precision, "terms": terms}


def series_from_json(obj, nvars: int, field: FieldSpec) -> Series:
    if not isinstance(obj, dict) or "terms" not in obj:
        raise ProblemFormatError(f"series must be an object with 'terms', got {obj!r}")
    prec = obj.get("prec", "exact")
    if prec == "exact":
        prec = None
    elif type(prec) is not int or prec < 0:
        raise ProblemFormatError(f"bad precision {prec!r}")
    terms = {}
    for row in obj["terms"]:
        if not isinstance(row, list) or len(row) != nvars + 1:
            raise ProblemFormatError(
                f"term {row!r} must list {nvars} exponents and one coefficient"
            )
        exps, coeff = row[:-1], row[-1]
        if not all(type(e) is int and e >= 0 for e in exps):
            raise ProblemFormatError(f"bad exponents in term {row!r}")
        try:
            value = field.parse_scalar(coeff)
        except (ValueError, ZeroDivisionError) as exc:
            raise ProblemFormatError(f"bad coefficient {coeff!r}: {exc}") from exc
        key = tuple(exps)
        if key in terms:
            raise ProblemFormatError(f"duplicate exponent {key} in series")
        terms[key] = value
    try:
        return Series(nvars, field, terms, prec)
    except HasseSchmidtError as exc:
        raise ProblemFormatError(str(exc)) from exc


def tseries_to_json(ts: TSeries) -> list:
    return [series_to_json(c) for c in ts.coeffs]


def tseries_from_json(obj, nvars: int, field: FieldSpec) -> TSeries:
    if not isinstance(obj, list) or not obj:
        raise ProblemFormatError("a t-series must be a nonempty array of series")
    return TSeries([series_from_json(c, nvars, field) for c in obj])


def derivation_to_json(D: HSDerivation) -> dict:
    return {
        "nvars": D.nvars,
        "length": D.length,
        "images": [tseries_to_json(img) for img in D.images],
    }


def derivation_from_json(obj, field: FieldSpec, name=None) -> HSDerivation:
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"derivation must be an object, got {obj!r}")
    try:
        nvars = _int_field(obj, "nvars", 1)
        length = _int_field(obj, "length", 1)
        images_json = obj["images"]
    except KeyError as exc:
        raise ProblemFormatError(f"derivation needs nvars, length, images: {exc}") from exc
    if not isinstance(images_json, list) or len(images_json) != nvars:
        raise ProblemFormatError(f"expected {nvars} images")
    images = [tseries_from_json(img, nvars, field) for img in images_json]
    for img in images:
        if img.tlen != length:
            raise ProblemFormatError(
                f"image has {img.tlen + 1} t-coefficients, expected length {length}"
            )
    try:
        return HSDerivation(images, name=name)
    except HasseSchmidtError as exc:
        raise ProblemFormatError(str(exc)) from exc


def table_to_json(table: CoeffTable) -> dict:
    return {
        "m": table.levels,
        "n": table.nvars,
        "C": [[series_to_json(c) for c in row] for row in table.rows],
    }


def table_from_json(obj, field: FieldSpec) -> CoeffTable:
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"coefficient table must be an object, got {obj!r}")
    try:
        m, n, rows_json = _int_field(obj, "m", 0), _int_field(obj, "n", 1), obj["C"]
    except KeyError as exc:
        raise ProblemFormatError(f"coefficient table needs m, n, C: {exc}") from exc
    if not isinstance(rows_json, list) or len(rows_json) != m:
        raise ProblemFormatError(f"expected {m} coefficient rows")
    rows = []
    for row in rows_json:
        if not isinstance(row, list) or len(row) != n:
            raise ProblemFormatError(f"expected {n} entries per coefficient row")
        rows.append([series_from_json(c, n, field) for c in row])
    try:
        return CoeffTable(rows, nvars=n, field=field)
    except HasseSchmidtError as exc:
        raise ProblemFormatError(str(exc)) from exc


def kernel_report_to_json(report: KernelReport) -> dict:
    return {
        "N": report.order,
        "dimension": report.dimension,
        "basis": [series_to_json(b) for b in report.basis],
    }


def decomposition_to_json(result: DecompositionResult, field: FieldSpec) -> dict:
    witness = None
    if result.witness is not None:
        w = result.witness
        witness = {
            "i": w.i,
            "beta": list(w.beta),
            "lhs": series_to_json(w.lhs),
            "rhs": series_to_json(w.rhs),
        }
    return {
        "C": table_to_json(result.table),
        "verified_to_degree": result.verified_to_degree,
        "witness": witness,
    }


@dataclass
class Problem:
    """A parsed problem file."""

    field: FieldSpec
    nvars: int
    length: int
    truncation: int
    seed: int
    derivations: list  # of HSDerivation (named)
    target: HSDerivation | None = None
    coefficients: CoeffTable | None = None


def problem_to_json(problem: Problem) -> dict:
    out = {
        "field": field_to_str(problem.field),
        "nvars": problem.nvars,
        "length": problem.length,
        "truncation": problem.truncation,
        "seed": problem.seed,
        "derivations": [
            {"name": D.name or f"D{i + 1}", **derivation_to_json(D)}
            for i, D in enumerate(problem.derivations)
        ],
    }
    if problem.target is not None:
        out["target"] = derivation_to_json(problem.target)
    if problem.coefficients is not None:
        out["coefficients"] = table_to_json(problem.coefficients)
    return out


def problem_from_json(obj) -> Problem:
    if not isinstance(obj, dict):
        raise ProblemFormatError("problem file must contain a JSON object")
    try:
        field = field_from_str(obj["field"])
        nvars = _int_field(obj, "nvars", 1)
        length = _int_field(obj, "length", 1)
        truncation = _int_field(obj, "truncation", 1)
        seed = _int_field(obj, "seed")
        derivations_json = obj["derivations"]
    except KeyError as exc:
        raise ProblemFormatError(f"missing problem field: {exc}") from exc
    if not isinstance(derivations_json, list) or not derivations_json:
        raise ProblemFormatError("derivations must be a nonempty array")
    derivations = []
    for i, entry in enumerate(derivations_json):
        if not isinstance(entry, dict):
            raise ProblemFormatError(f"derivation entry {i} must be an object")
        name = entry.get("name", f"D{i + 1}")
        D = derivation_from_json(entry, field, name=name)
        if D.nvars != nvars or D.length != length:
            raise ProblemFormatError(
                f"derivation {name!r} does not match the problem's nvars/length"
            )
        derivations.append(D)
    target = None
    if "target" in obj:
        target = derivation_from_json(obj["target"], field, name="target")
        if target.nvars != nvars or target.length != length:
            raise ProblemFormatError("target does not match the problem's nvars/length")
    coefficients = None
    if "coefficients" in obj:
        coefficients = table_from_json(obj["coefficients"], field)
        if coefficients.nvars != nvars or coefficients.levels != length:
            raise ProblemFormatError(
                f"coefficient table has n={coefficients.nvars}, m={coefficients.levels}; "
                f"the problem has nvars={nvars}, length={length}"
            )
    return Problem(field, nvars, length, truncation, seed, derivations, target, coefficients)


def dumps(obj) -> str:
    """Canonical JSON emission: sorted keys, two-space indent, newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_problem(path) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"malformed JSON in {path}: {exc}") from exc
    return problem_from_json(raw)
