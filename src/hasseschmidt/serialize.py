"""JSON forms of every value the CLI reads or writes.

Formats:
  field        "Q" or "F<p>", e.g. "F5"
  series       {"prec": N or "exact", "terms": [[e1, .., en, "coeff"], ..]}
               (exponents are integers from 0 to fields.EXPONENT_CAP)
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
inputs produce byte-identical reports.  ``dumps`` is a small writer of
its own for the values these forms hold (dicts with str keys, lists,
str, int, bool and None); it gives the bytes of
``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline, at less
than half the cost of the stdlib's pure-Python indenting encoder.

A problem's order is the larger of its truncation and length + 1: the
kernel works on k[X]/(X)^truncation, decompose keeps the table to that
precision, and verify runs every weight up to the length.  A problem
with more than NVARS_CAP variables, or with more than MONOMIAL_CAP
monomials below its order, is refused before anything is built.  Each
term of a series is checked once, in ``series_from_json``.  Every
refusal is a ProblemFormatError whose message is one line, with input
values shortened by ``reprlib``.
"""

from __future__ import annotations

import json
import re
import reprlib
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .errors import HasseSchmidtError, ProblemFormatError
from .fields import EXPONENT_CAP, GF, QQ, FieldSpec
from .series import Series, TSeries, grlex_sorted, pack, unpack
from .derivations import HSDerivation
from .formula import CoeffTable
from .coefffield import KernelReport
from .decompose import DecompositionResult


# The most monomials of degree below a problem's order (see above).  The
# benchmark corpora reach 165 (three variables, truncation 9).  The cap
# bounds size, not time: at it, the kernel of a dense one-variable GF(2)
# family of length 499 took 322 s and 129 MB, and decompose time grows
# with about the cube of the length (CHANGES.md).
MONOMIAL_CAP = 500

# The most variables a problem may have.  decompose takes the degree-1
# determinant by an exact Laplace expansion whose cost grows exponentially
# with nvars, not with the monomial count: for a dense GF(5) family with
# entries of degree 1 and 2 at length 2 and order 3 it took 1.1 to 3.2 s
# at n = 6 and 21 to 35 s at n = 7 on a Xeon under CPython 3.11.  Only
# decompose still pays it; the kernel decides the basis from the constant
# terms alone (7 ms at n = 7).  The benchmark corpora reach 4.
NVARS_CAP = 7


def monomials_below(order: int, nvars: int, cap: int) -> int:
    """C(order - 1 + nvars, nvars), the number of monomials in nvars
    variables of degree below order, or cap + 1 once it exceeds cap.
    Every step at least doubles the count, so a huge order or nvars
    costs about log2(cap) steps."""
    low, high = sorted((order - 1, nvars))
    count = 1
    for i in range(1, low + 1):
        count = count * (high + i) // i
        if count > cap:
            return cap + 1
    return count


def field_to_str(field: FieldSpec) -> str:
    return "Q" if field.p is None else f"F{field.p}"


_GF_NAME = re.compile(r"F[1-9][0-9]*")


def field_from_str(text) -> FieldSpec:
    """'Q' or ASCII 'F<p>' with p a prime written without a leading zero."""
    if not isinstance(text, str):
        raise ProblemFormatError(f"field must be a string, got {reprlib.repr(text)}")
    if text == "Q":
        return QQ
    if _GF_NAME.fullmatch(text):
        try:
            return GF(int(text[1:], 10))
        except ValueError as exc:
            raise ProblemFormatError(f"bad prime field {reprlib.repr(text)}: {exc}") from exc
    raise ProblemFormatError(f"unknown field {reprlib.repr(text)} (expected 'Q' or 'F<p>')")


def _int_field(obj: dict, key: str, minimum: int | None = None) -> int:
    """obj[key] as a JSON integer (KeyError if absent); floats, bools and
    strings are rejected, as are values below minimum."""
    value = obj[key]
    if type(value) is not int:
        raise ProblemFormatError(f"{key!r} must be an integer, got {reprlib.repr(value)}")
    if minimum is not None and value < minimum:
        raise ProblemFormatError(f"{key!r} must be >= {minimum}, got {value}")
    return value


def series_to_json(f: Series) -> dict:
    n = f.nvars
    terms = [
        list(unpack(e, n)) + [f.field.format_scalar(f.terms[e])]
        for e in grlex_sorted(f.terms, n)
    ]
    return {"prec": "exact" if f.precision is None else f.precision, "terms": terms}


def series_from_json(obj, nvars: int, field: FieldSpec) -> Series:
    """The series of a JSON object, every term checked here and only here:
    its length, its exponents (integers from 0 to EXPONENT_CAP), its
    coefficient (``field.parse_scalar``) and that no exponent repeats,
    also among the terms that are dropped.  Zero coefficients are
    dropped by ``Series._of``, which wraps the packed terms without a
    second check, and terms at or above the precision by
    ``Series.truncate``, as ``Series(...)`` would have dropped them."""
    if not isinstance(obj, dict) or not isinstance(obj.get("terms"), list):
        raise ProblemFormatError(
            f"series must be an object with a 'terms' array, got {reprlib.repr(obj)}")
    prec = obj.get("prec", "exact")
    if prec == "exact":
        prec = None
    elif type(prec) is not int or prec < 0:
        raise ProblemFormatError(f"bad precision {reprlib.repr(prec)}")
    terms = {}
    for row in obj["terms"]:
        if not isinstance(row, list) or len(row) != nvars + 1:
            raise ProblemFormatError(
                f"term {reprlib.repr(row)} must list {nvars} exponents and one coefficient"
            )
        exps, coeff = row[:-1], row[-1]
        if not all(type(e) is int and e >= 0 for e in exps):
            raise ProblemFormatError(f"bad exponents in term {reprlib.repr(row)}")
        if max(exps, default=0) > EXPONENT_CAP:
            raise ProblemFormatError(
                f"exponent above the cap {EXPONENT_CAP} in term {reprlib.repr(row[:-1])}"
            )
        try:
            value = field.parse_scalar(coeff)
        except (ValueError, ZeroDivisionError) as exc:
            raise ProblemFormatError(f"bad coefficient {reprlib.repr(coeff)}: {exc}") from exc
        key = pack(exps)
        if key in terms:
            raise ProblemFormatError(f"duplicate exponent {tuple(exps)} in series")
        terms[key] = value
    f = Series._of(nvars, field, terms, None)
    # only now: a duplicate above prec is still refused
    return f if prec is None else f.truncate(prec)


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
        raise ProblemFormatError(f"derivation must be an object, got {reprlib.repr(obj)}")
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
        raise ProblemFormatError(f"coefficient table must be an object, got {reprlib.repr(obj)}")
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
    if nvars > NVARS_CAP:
        raise ProblemFormatError(
            f"problem too large: {reprlib.repr(nvars)} variables, more than the cap of "
            f"{NVARS_CAP}"
        )
    order = max(truncation, length + 1)
    if monomials_below(order, nvars, MONOMIAL_CAP) > MONOMIAL_CAP:
        raise ProblemFormatError(
            f"problem too large: more than the cap of {MONOMIAL_CAP} monomials below "
            f"degree {order} = max(truncation, length + 1) in {nvars} variable(s)"
        )
    if not isinstance(derivations_json, list) or not derivations_json:
        raise ProblemFormatError("derivations must be a nonempty array")
    derivations = []
    for i, entry in enumerate(derivations_json):
        if not isinstance(entry, dict):
            raise ProblemFormatError(f"derivation entry {i} must be an object")
        name = entry.get("name", f"D{i + 1}")
        if not isinstance(name, str):
            raise ProblemFormatError(f"derivation entry {i} has a name that is not a string")
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


# the text of each scalar type the canonical forms hold; str through the
# escaper json.dumps uses by default (ASCII output, \uXXXX escapes)
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _text(value, newline: str) -> str:
    """value as indented JSON, its nested lines starting with newline."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = newline + "  "
    if type(value) is list:
        if not value:
            return "[]"
        try:  # a row of scalars, such as a term, in one pass
            items = [_SCALARS[type(v)](v) for v in value]
        except KeyError:
            items = [_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if type(value) is dict:
        if not value:
            return "{}"
        # a key that is not a str fails in sorted() or in the escaper
        items = [encode_basestring_ascii(k) + ": " + _text(value[k], inner)
                 for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"cannot write a {type(value).__name__} as canonical JSON")


def dumps(obj) -> str:
    """Canonical JSON emission: the bytes of
    ``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline, without
    the stdlib's pure-Python indenting encoder.  obj is built from dicts
    with str keys (written in sorted order), lists, str, int, bool and
    None; any other type, a float or a tuple included, is a TypeError."""
    return _text(obj, "\n") + "\n"


def load_problem(path) -> Problem:
    """Read and validate a problem file; every failure, I/O included, is a
    ProblemFormatError with a one-line message."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise ProblemFormatError(f"{path} nests JSON arrays or objects too deeply") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ProblemFormatError(f"malformed JSON in {path}: {exc}") from exc
    return problem_from_json(raw)
