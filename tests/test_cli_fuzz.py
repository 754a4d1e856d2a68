"""Fuzzing the command-line boundary: any argv and any problem-file bytes
end in an exit code from 0 to 3, never an exception (SystemExit included),
and every JSON report printed is what the stdlib encoder writes for it."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from hasseschmidt import (
    GF, QQ, CoeffTable, HSDerivation, Series, TSeries, serialize, taylor_basis,
)
from hasseschmidt.cli import MAX_TRIALS, main
from hasseschmidt.derivations import taylor_derivation


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
    return [json.dumps(serialize.problem_to_json(p)) for p in (worked, char2, plane)]


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


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(argv_and_file())
def test_main_answers_every_argv_and_file_with_an_exit_code(case):
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
