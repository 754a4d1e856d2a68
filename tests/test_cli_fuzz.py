"""Fuzzing the command-line boundary: any argv and any problem-file bytes
end in an exit code from 0 to 3, never an exception (SystemExit included),
and every JSON report printed is what the stdlib encoder writes for it.

Two kinds of file: bytes mutated from a few seed problems, which mostly
end in a format error, and well-formed problems whose values are drawn
(field, nvars, length, truncation, the terms' exponents and
coefficients, a coefficient table), which mostly reach a report."""

import io
import json
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from hasseschmidt import (
    GF, QQ, CoeffTable, HSDerivation, Series, TSeries, serialize, taylor_basis,
)
from hasseschmidt.cli import MAX_TRIALS, main
from hasseschmidt.derivations import taylor_derivation
from hasseschmidt.serialize import NVARS_CAP

from conftest import as_json


def seed_problems() -> list:
    """Small valid problems covering every command's paths."""
    x = Series.variable(1, QQ, 0)
    one = Series.one(1, QQ)
    worked = serialize.Problem(
        field=QQ, nvars=1, length=2, truncation=6, seed=42,
        derivations=[taylor_derivation(1, 2, QQ, 0)],
        target=HSDerivation([TSeries([x, x, one])], name="target"),
        coefficients=CoeffTable([[x], [one]]),
    )
    char2 = serialize.Problem(
        field=GF(2), nvars=1, length=4, truncation=5, seed=7,
        derivations=[taylor_derivation(1, 4, GF(2), 0)],
    )
    f3 = GF(3)
    plane = serialize.Problem(
        field=f3, nvars=2, length=2, truncation=3, seed=1,
        derivations=taylor_basis(2, 2, f3), target=taylor_basis(2, 2, f3)[0],
    )
    return [json.dumps(as_json(serialize.problem_to_json(p))) for p in (worked, char2, plane)]


SEEDS = seed_problems()

# integers at the edges: small, negative, past 2**63 and 2**64, the exponent cap
INTEGERS = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([-10 ** 9, 4096, 4097, 2 ** 63, 2 ** 64 + 1, 10 ** 30]),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), INTEGERS, st.floats(allow_nan=True),
    st.text(max_size=6), st.sampled_from(["Q", "F2", "F4", "1/0", "-1/3", "exact"]),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                   max_size=3),
    max_leaves=6,
)


def containers(node, out):
    """Every list and dict inside node, node first."""
    if isinstance(node, (list, dict)):
        out.append(node)
        for child in (node.values() if isinstance(node, dict) else node):
            containers(child, out)
    return out


@st.composite
def mutated_problem(draw) -> bytes:
    """A seed problem with one to three fields replaced, removed or grown."""
    obj = json.loads(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(containers(obj, [])))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            continue
        key = draw(st.sampled_from(keys))
        action = draw(st.sampled_from(["replace", "replace", "delete", "nest"]))
        if action == "replace":
            node[key] = draw(JSON_VALUES)
        elif action == "nest":
            node[key] = [node[key]]
        elif isinstance(node, dict):
            del node[key]
        else:
            node.pop(key)
    return json.dumps(obj).encode()


FILE_BYTES = st.one_of(
    st.sampled_from(SEEDS).map(str.encode),
    mutated_problem(),
    mutated_problem(),
    st.sampled_from([b"[" * 100_000, b'{"a":' * 5_000, b"1" * 5_000, b"\xff\xfe", b""]),
    st.binary(max_size=40),
    st.text(max_size=40).map(str.encode),
)

# each command's own flags; a flag with a value maps to its valid values
FLAGS = {
    "decompose": {"--out": None, "--max-degree": ["0", "1", "6"]},
    "kernel": {"--out": None, "--degree1-only": []},
    "verify": {"--seed": ["0", "9", "-5"], "--trials": ["0", "2"], "--max-degree": ["0", "3"]},
    "demo": {"--out": None},
}
BAD_VALUES = ["-1", "x", "", "2.5", "1" * 5000, str(MAX_TRIALS + 1), "\u0663"]
OUT_PATHS = ["{dir}/out", "{dir}/out", "{dir}", "{dir}/no/such/out"]


@st.composite
def drawn_problem(draw) -> bytes:
    """A well-formed problem with drawn values.  Member d sends X_j to X_j
    plus, at t^1, the constant delta_jd (mostly) and terms of degree <= 3,
    so the degree-1 determinant is mostly a unit; a few images break the
    t^0 rule.  The truncation is mostly length + 1, which both decompose
    and kernel accept.  The work grows without bound in the length, so
    lengths stay at most 3, and nvars passes 3 (up to NVARS_CAP + 1) only
    at length 1, with one term per slot."""
    field = draw(st.sampled_from(["Q", "F2", "F3", "F5"]))
    if draw(st.integers(0, 7)) < 7:
        nvars, length, max_terms = draw(st.integers(1, 3)), draw(st.integers(1, 3)), 2
    else:
        nvars, length, max_terms = draw(st.integers(4, NVARS_CAP + 1)), 1, 1
    # decompose needs truncation > length and kernel length >= truncation - 1
    truncation = max(1, length + 1 + draw(st.sampled_from([0, 0, 0, 1, -1, -2])))
    scalars = ["0", "1", "-1", "2", "3", "1/2", "-2/3"] if field == "Q" else [
        "0", "1", "2", "3", "4", "-1", "7"]
    exponents = st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars).filter(
        lambda e: sum(e) <= 3)

    def series(constant=None, prec="exact"):
        terms = [e + [draw(st.sampled_from(scalars))]
                 for e in draw(st.lists(exponents, max_size=max_terms, unique_by=tuple))]
        if constant is not None:
            terms = [t for t in terms if any(t[:-1])] + [[0] * nvars + [constant]]
        return {"prec": prec, "terms": terms}

    def variable(j):
        if draw(st.integers(0, 49)) < 49:
            return {"prec": "exact", "terms": [[int(d == j) for d in range(nvars)] + ["1"]]}
        return series()  # most often not X_j: a format error

    def derivation(d):
        images = []
        for j in range(nvars):
            one = "1" if j == d and draw(st.integers(0, 5)) < 5 else None
            images.append([variable(j), series(one)] + [series() for _ in range(length - 1)])
        return {"nvars": nvars, "length": length, "images": images}

    members = nvars + draw(st.sampled_from([0, 0, 0, 0, 0, -1, 1]))
    obj = {"field": field, "nvars": nvars, "length": length, "truncation": truncation,
           "seed": draw(st.integers(0, 9)),
           "derivations": [{"name": f"D{d + 1}", **derivation(d)} for d in range(max(members, 1))]}
    if draw(st.integers(0, 4)) < 4:
        obj["target"] = derivation(draw(st.integers(0, nvars - 1)))
    if "target" in obj and draw(st.integers(0, 2)) == 2:
        tags = st.sampled_from(["exact", "exact", 1, 2, truncation])
        obj["coefficients"] = {"m": length, "n": nvars, "C": [
            [series(prec=draw(tags)) for _ in range(nvars)] for _ in range(length)]}
    return json.dumps(obj).encode()


@st.composite
def argv_and_file(draw):
    """Mostly a command with its own flags and mostly valid values, so that
    most examples reach the problem file; sometimes a wrong command, flag,
    value or path."""
    command = draw(st.sampled_from(
        ["decompose"] * 3 + ["kernel"] * 3 + ["verify"] * 3 + ["demo", "bogus", "-h"]))
    flags = FLAGS.get(command, {})
    argv = [command]
    if command != "demo":
        argv.append(draw(st.sampled_from(["{file}"] * 8 + ["{dir}/missing.json", "{dir}"])))
    for _ in range(draw(st.integers(0, 3))):
        if not flags or draw(st.integers(0, 9)) == 0:
            argv.append(draw(st.sampled_from(["--bogus", "--seed", "--trials", "--degree1-only"])))
            continue
        flag = draw(st.sampled_from(sorted(flags)))
        argv.append(flag)
        if flag == "--out":
            argv.append(draw(st.sampled_from(OUT_PATHS)))
        elif flags[flag]:
            bad = draw(st.integers(0, 4)) == 0
            argv.append(draw(st.sampled_from(BAD_VALUES if bad else flags[flag])))
    if command == "demo" and "--out" not in argv:
        argv += ["--out", "{dir}/demo"]  # demo writes ./demo by default
    return argv, draw(FILE_BYTES)


@st.composite
def drawn_case(draw):
    """decompose, kernel or verify on a drawn problem, with valid flags
    that leave the report on stdout."""
    command = draw(st.sampled_from(["decompose", "kernel", "verify"]))
    flags = {flag: values for flag, values in FLAGS[command].items() if flag != "--out"}
    argv = [command, "{file}"]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=2, unique=True)):
        argv += [flag, draw(st.sampled_from(flags[flag]))] if flags[flag] else [flag]
    return argv, draw(drawn_problem())


def run_main(case):
    """Run one case in process and check its exit code and output; the
    exit code and stdout."""
    argv, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        path.write_bytes(data)
        argv = [a.replace("{file}", str(path)).replace("{dir}", tmp) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:  # pragma: no cover - the failure being tested for
            raise AssertionError(f"main raised SystemExit({exc.code!r}) on {argv}") from exc
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code in (1, 2):
        assert err.getvalue(), argv
        assert not out.getvalue(), argv
    if argv[0] in ("decompose", "kernel") and out.getvalue():
        assert code in (0, 3), (argv, code)
        report = out.getvalue()
        assert report == json.dumps(json.loads(report), indent=2, sort_keys=True) + "\n", argv
    return code, out.getvalue()


FUZZ = settings(max_examples=200, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@FUZZ
@given(argv_and_file())
def test_main_answers_every_argv_and_file_with_an_exit_code(case):
    run_main(case)


def test_drawn_problems_mostly_reach_a_report(capsys):
    """The same checks on well-formed problems with drawn values.  Of the
    200 derandomized examples, 161 print a report (exit codes: 159 times
    0, 32 times 1, 7 times 2, twice 3), where the byte mutations above
    mostly end in a format error.  At least half must print one, so a
    strategy that stops reaching the commands fails here."""
    codes = []

    @FUZZ
    @given(drawn_case())
    def run(case):
        codes.append(run_main(case))

    run()
    reports = sum(1 for code, out in codes if out)
    with capsys.disabled():
        print(f"\ndrawn problems: {reports} of {len(codes)} examples print a report, exit codes "
              f"{sorted(Counter(code for code, _ in codes).items())}")
    assert reports >= len(codes) // 2
