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
inputs produce byte-identical reports.  The ``*_to_json`` builders put
each series in as the ``Series`` itself, a leaf of the form, and
``dumps`` is the one writer of its text: a small writer of its own for
dicts with str keys, lists, str, int, bool, None and Series.  It gives
the bytes of ``json.dumps(obj, indent=2, sort_keys=True)`` plus a
newline, each Series written as its dict above, at less than half the
cost of the stdlib's pure-Python indenting encoder.  A series is
written in one pass over its sorted keys: each term is a head, the text
of its exponents at that depth, plus its coefficient from
``field.format_scalar``.  Heads are kept in a memo that belongs to one
``dumps`` call, so no state outlives it.  The dict form of a series is
kept only in ``tests/reference.py``, as the oracle of this writer.

A problem's order is the larger of its truncation and length + 1: the
kernel works on k[X]/(X)^truncation, decompose keeps the table to that
precision, and verify runs every weight up to the length.  A file of
more than FILE_CAP characters is refused once one past the cap is read,
before it is parsed.  A problem with more than NVARS_CAP variables, or
with more than MONOMIAL_CAP monomials below its order, is refused
before anything is built, and the declared nvars and length of each
derivation, of the target and of the table before any of their series
is read.  A file is read in one pass per t-series: one loop,
``_series_terms``, checks every term of all its t-coefficients
(coefficient tables read through the same loop), and
``TSeries._of_terms`` keys them into one flat dict in one call.
Each distinct coefficient text is parsed once per ``problem_from_json``
call: its memo belongs to that call, like the heads memo of ``dumps``,
so no state outlives it.  Every refusal is a ProblemFormatError whose
message is one line, with input values shortened by ``reprlib``.
"""

from __future__ import annotations

import json
import math
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
# bounds size, not time: decompose time grows with about the cube of the
# length (CHANGES.md), while the kernel of a dense one-variable GF(2)
# family of length 499, built from its weight-1 rows, takes about 0.1 s.
MONOMIAL_CAP = 500

# The most variables a problem may have.  decompose takes the degree-1
# determinant by an exact Laplace expansion whose cost grows exponentially
# with nvars, not with the monomial count: for a dense GF(5) family with
# entries of degree 1 and 2 at length 2 and order 3 it took 1.1 to 3.2 s
# at n = 6 and 21 to 35 s at n = 7 on a Xeon under CPython 3.11.  Only
# decompose still pays it; the kernel decides the basis from the constant
# terms alone (7 ms at n = 7).  The benchmark corpora reach 4.
NVARS_CAP = 7

# The most characters a problem file may hold; no more than one past it
# is read.  The benchmark corpora reach 3,260.  On a Xeon under CPython
# 3.11 a file at the cap took 0.8 s and 76 MB to parse as one derivation
# of 4,000 variables, and 3.5 s and 433 MB as an array of empty arrays.
FILE_CAP = 16 * 2 ** 20


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
        raise ProblemFormatError(f"{key!r} must be >= {minimum}, got {reprlib.repr(value)}")
    return value


def _series_terms(objs, nvars: int, field: FieldSpec, memo: dict) -> tuple:
    """The packed terms (X-key -> coefficient) and the precision (None:
    exact) of each JSON series in ``objs``, as two lists, read in one loop
    that checks every term here and only here: its length, its exponents
    (integers from 0 to EXPONENT_CAP), its coefficient
    (``field.parse_scalar``) and that no exponent repeats, also among the
    zeros and terms at or above the precision, which the caller drops.
    Each distinct coefficient text is parsed once: ``memo`` maps the
    texts read so far to their values, immutable ints or Fractions."""
    parse, width = field.parse_scalar, nvars + 1
    slots, precisions = [], []
    for obj in objs:
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
            if not isinstance(row, list) or len(row) != width:
                raise ProblemFormatError(
                    f"term {reprlib.repr(row)} must list {nvars} exponents and one coefficient"
                )
            exps, coeff = row[:-1], row[-1]
            for e in exps:
                if type(e) is not int or not 0 <= e <= EXPONENT_CAP:
                    _refuse_exponents(row)
            value = memo.get(coeff) if type(coeff) is str else None
            if value is None:
                try:
                    value = parse(coeff)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ProblemFormatError(
                        f"bad coefficient {reprlib.repr(coeff)}: {exc}") from exc
                if type(coeff) is str:
                    memo[coeff] = value
            key = pack(exps)
            if key in terms:
                raise ProblemFormatError(f"duplicate exponent {tuple(exps)} in series")
            terms[key] = value
        slots.append(terms)
        precisions.append(prec)
    return slots, precisions


def _refuse_exponents(row) -> None:
    """The refusal of a term with an exponent that is not an integer from
    0 to EXPONENT_CAP (a bool is not an integer)."""
    if not all(type(e) is int and e >= 0 for e in row[:-1]):
        raise ProblemFormatError(f"bad exponents in term {reprlib.repr(row)}")
    raise ProblemFormatError(
        f"exponent above the cap {EXPONENT_CAP} in term {reprlib.repr(row[:-1])}")


def series_from_json(obj, nvars: int, field: FieldSpec, memo: dict | None = None) -> Series:
    """The series of a JSON object, read by ``_series_terms``:
    ``Series._of`` drops the zeros and ``Series.truncate`` the terms at
    or above the precision."""
    (terms,), (prec,) = _series_terms((obj,), nvars, field, {} if memo is None else memo)
    return Series._of(nvars, field, terms, None).truncate(prec)


def tseries_from_json(obj, nvars: int, field: FieldSpec, memo: dict | None = None) -> TSeries:
    """The t-series of a JSON array of series, every term read by one
    ``_series_terms`` loop and keyed by ``TSeries._of_terms`` into one
    flat dict, without a Series.  Its t-coefficients must carry one tag."""
    if not isinstance(obj, list) or not obj:
        raise ProblemFormatError("a t-series must be a nonempty array of series")
    slots, precisions = _series_terms(obj, nvars, field, {} if memo is None else memo)
    prec = precisions[0]
    if precisions.count(prec) != len(precisions):
        raise ProblemFormatError("t-coefficients carry different precisions")
    return TSeries._of_terms(nvars, field, slots, prec)


def derivation_to_json(D: HSDerivation) -> dict:
    return {
        "nvars": D.nvars,
        "length": D.length,
        "images": [list(img.coeffs) for img in D.images],
    }


def _derivation_head(obj) -> tuple:
    """The declared nvars and length of a JSON derivation and its images
    array, unread."""
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"derivation must be an object, got {reprlib.repr(obj)}")
    try:
        return _int_field(obj, "nvars", 1), _int_field(obj, "length", 1), obj["images"]
    except KeyError as exc:
        raise ProblemFormatError(f"derivation needs nvars, length, images: {exc}") from exc


def _derivation(nvars: int, length: int, images_json, field: FieldSpec, name,
                memo: dict) -> HSDerivation:
    """The derivation whose head ``_derivation_head`` read; ``memo`` as in
    ``_series_terms``, shared by every image."""
    if not isinstance(images_json, list) or len(images_json) != nvars:
        raise ProblemFormatError(f"expected {reprlib.repr(nvars)} images")
    images = [tseries_from_json(img, nvars, field, memo) for img in images_json]
    for img in images:
        if img.tlen != length:
            raise ProblemFormatError(
                f"image has {img.tlen + 1} t-coefficients, expected length {reprlib.repr(length)}"
            )
    try:
        return HSDerivation(images, name=name)
    except HasseSchmidtError as exc:
        raise ProblemFormatError(str(exc)) from exc


def derivation_from_json(obj, field: FieldSpec, name=None) -> HSDerivation:
    return _derivation(*_derivation_head(obj), field, name, {})


def table_to_json(table: CoeffTable) -> dict:
    return {
        "m": table.levels,
        "n": table.nvars,
        "C": [list(row) for row in table.rows],
    }


def _table_head(obj) -> tuple:
    """The declared m and n of a JSON coefficient table and its rows
    array, unread."""
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"coefficient table must be an object, got {reprlib.repr(obj)}")
    try:
        return _int_field(obj, "m", 0), _int_field(obj, "n", 1), obj["C"]
    except KeyError as exc:
        raise ProblemFormatError(f"coefficient table needs m, n, C: {exc}") from exc


def _table(m: int, n: int, rows_json, field: FieldSpec, memo: dict) -> CoeffTable:
    """The table whose head ``_table_head`` read; ``memo`` as in
    ``_series_terms``, shared by every entry."""
    if not isinstance(rows_json, list) or len(rows_json) != m:
        raise ProblemFormatError(f"expected {reprlib.repr(m)} coefficient rows")
    rows = []
    for row in rows_json:
        if not isinstance(row, list) or len(row) != n:
            raise ProblemFormatError(f"expected {reprlib.repr(n)} entries per coefficient row")
        rows.append([series_from_json(c, n, field, memo) for c in row])
    try:
        return CoeffTable(rows, nvars=n, field=field)
    except HasseSchmidtError as exc:
        raise ProblemFormatError(str(exc)) from exc


def table_from_json(obj, field: FieldSpec) -> CoeffTable:
    return _table(*_table_head(obj), field, {})


def kernel_report_to_json(report: KernelReport) -> dict:
    return {
        "N": report.order,
        "dimension": report.dimension,
        "basis": list(report.basis),
    }


def decomposition_to_json(result: DecompositionResult) -> dict:
    witness = None
    if result.witness is not None:
        w = result.witness
        witness = {
            "i": w.i,
            "beta": list(w.beta),
            "lhs": w.lhs,
            "rhs": w.rhs,
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
    # nvars <= NVARS_CAP, so the binomial is a few products even for an
    # order of thousands of digits, which the message does not write out
    order = max(truncation, length + 1)
    if math.comb(order - 1 + nvars, nvars) > MONOMIAL_CAP:
        raise ProblemFormatError(
            f"problem too large: more than the cap of {MONOMIAL_CAP} monomials below "
            f"degree max(truncation, length + 1) in {nvars} variable(s)"
        )
    if not isinstance(derivations_json, list) or not derivations_json:
        raise ProblemFormatError("derivations must be a nonempty array")
    # each head is checked against the problem before any series of its
    # entry is read, and every coefficient text of the file is parsed once
    memo: dict = {}
    derivations = []
    for i, entry in enumerate(derivations_json):
        if not isinstance(entry, dict):
            raise ProblemFormatError(f"derivation entry {i} must be an object")
        name = entry.get("name", f"D{i + 1}")
        if not isinstance(name, str):
            raise ProblemFormatError(f"derivation entry {i} has a name that is not a string")
        head = _derivation_head(entry)
        if head[:2] != (nvars, length):
            raise ProblemFormatError(
                f"derivation {reprlib.repr(name)} does not match the problem's nvars/length"
            )
        derivations.append(_derivation(*head, field, name, memo))
    target = None
    if "target" in obj:
        head = _derivation_head(obj["target"])
        if head[:2] != (nvars, length):
            raise ProblemFormatError("target does not match the problem's nvars/length")
        target = _derivation(*head, field, "target", memo)
    coefficients = None
    if "coefficients" in obj:
        m, n, rows_json = _table_head(obj["coefficients"])
        if (m, n) != (length, nvars):
            raise ProblemFormatError(
                f"coefficient table has n={n}, m={m}; the problem has nvars={nvars}, "
                f"length={length}"
            )
        coefficients = _table(m, n, rows_json, field, memo)
    return Problem(field, nvars, length, truncation, seed, derivations, target, coefficients)


# the text of each scalar type the canonical forms hold; str through the
# escaper json.dumps uses by default (ASCII output, \uXXXX escapes)
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _series_text(f: Series, newline: str, heads: dict) -> str:
    """f as the indented JSON object {"prec": .., "terms": [[e1, .., en,
    "coeff"], ..]}, terms in graded-lex order.  Each term is its head,
    the text of its exponents up to the coefficient's opening quote, plus
    the coefficient from ``field.format_scalar`` (CoefficientTooLarge past
    the interpreter's digit limit), which needs no escaping.  Heads depend
    on the key, nvars and the depth, and are kept in ``heads``, the memo
    of one ``dumps`` call."""
    inner = newline + "  "
    prec = '"exact"' if f.precision is None else int.__repr__(f.precision)
    terms = f.terms
    if terms:
        n, row = f.nvars, inner + "  "
        memo = heads.get((n, row))
        if memo is None:
            memo = heads[n, row] = {}
        cell = row + "  "
        keys = grlex_sorted(terms, n)
        for e in keys:
            if e not in memo:
                memo[e] = "[" + cell + "".join(
                    [f"{x}," + cell for x in unpack(e, n)]) + '"'
        fmt, tail = f.field.format_scalar, '"' + row + "]"
        body = "[" + row + ("," + row).join(
            [memo[e] + fmt(terms[e]) + tail for e in keys]) + inner + "]"
    else:
        body = "[]"
    return "{" + inner + '"prec": ' + prec + "," + inner + '"terms": ' + body + newline + "}"


def _text(value, newline: str, heads: dict) -> str:
    """value as indented JSON, its nested lines starting with newline."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    if type(value) is Series:
        return _series_text(value, newline, heads)
    inner = newline + "  "
    if type(value) is list:
        if not value:
            return "[]"
        items = [_text(v, inner, heads) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if type(value) is dict:
        if not value:
            return "{}"
        # a key that is not a str fails in sorted() or in the escaper
        items = [encode_basestring_ascii(k) + ": " + _text(value[k], inner, heads)
                 for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"cannot write a {type(value).__name__} as canonical JSON")


def dumps(obj) -> str:
    """Canonical JSON emission: the bytes of
    ``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline, without
    the stdlib's pure-Python indenting encoder, where each Series in obj
    stands for its JSON form (see the module docstring).  obj is built
    from dicts with str keys (written in sorted order), lists, str, int,
    bool, None and Series; any other type, a float or a tuple included,
    is a TypeError.  The memo of term heads lives for this call only."""
    return _text(obj, "\n", {}) + "\n"


def load_problem(path) -> Problem:
    """Read and validate a problem file; every failure, I/O included, is a
    ProblemFormatError with a one-line message."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read(FILE_CAP + 1)
        if len(text) > FILE_CAP:
            raise ProblemFormatError(f"{path} is larger than the cap of {FILE_CAP} characters")
        raw = json.loads(text)
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise ProblemFormatError(f"{path} nests JSON arrays or objects too deeply") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ProblemFormatError(f"malformed JSON in {path}: {exc}") from exc
    return problem_from_json(raw)
