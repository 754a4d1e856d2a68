"""End-to-end and per-layer benchmark of the ``hasseschmidt`` CLI.

    python3 bench/run.py --workload decompose-small --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up writes a seeded corpus of problem files under
``.bench_work/`` (see ``corpus.py``); the timed part then sends the ops
of that corpus, one at a time, through ``hasseschmidt.cli.main(argv)``
in this process: a closed loop with one client and no threads.  A call
in process is used because starting an interpreter costs more than most
ops.

Passes over the whole corpus repeat until ``--seconds`` have gone by
(at least three passes).  Each op is timed against a fixed calibration
loop run right before and after it (``calibrate.py``): on a shared host
the speed of a core swings by up to 2x within seconds, and the ratio
cancels most of that swing, where the wall clock alone does not.  An
op's latency is the median of its calibrated times over the passes, in
seconds at the calibration loop's nominal speed; the end-to-end metrics
describe one pass at those latencies, and ``setup_s`` is calibrated the
same way.  The wall-clock figures are printed as comments beside them.

Every op is checked: exit code, verdict (decompose witness and verified
degree, kernel dimension, the verify summary line) and the SHA-256 of
its report, which must repeat on every pass.  After the timed passes
the default-seed corpus runs once more, untimed, and every report must
match the digest recorded in ``digests.json`` (ROADMAP: reports stay
byte-identical).  ``--record-digests`` rewrites that file, for when a
workload's definition changes.

``--trace 1`` reports per-layer metrics instead: the same number of
passes untraced, then traced (spans from ``spans.py``), then one pass
with the field operations counted; reports must be identical in all.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a copy of the run header and
the result is written to ``.bench_work/results/``.  Exit code 2 means
the benchmark could not run.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
SETUP_REPEATS = 9
MIN_PASSES = 3
CHILD_TIMEOUT_S = 60

sys.path.insert(0, str(BENCH))
import calibrate  # noqa: E402
import corpus  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here."""


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def setup(workload: str, seed: int) -> tuple[float, float, Path]:
    """Import the package and write the corpus, SETUP_REPEATS times, each in
    a fresh interpreter; returns the median calibrated and wall-clock times
    and the corpus directory."""
    if not (SRC / "hasseschmidt" / "__init__.py").is_file():
        raise BenchError(f"no package at {SRC / 'hasseschmidt'}")
    out = WORK / workload / f"seed-{seed}"
    times, walls, digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        # every set-up writes a new directory, as the first one does: files
        # truncated and written again are flushed to disk on close, which
        # adds tens of milliseconds that depend on the disk's other users
        shutil.rmtree(out, ignore_errors=True)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "corpus.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(out), "--src", str(SRC)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(info["module"]).resolve().parent != (SRC / "hasseschmidt").resolve():
            raise BenchError(f"set-up imported hasseschmidt from {info['module']}")
        times.append(info["setup_s"])
        walls.append(info["wall_s"])
        digests.add(info["digest"])
    if len(digests) != 1:
        raise BenchError("the same seed gave different corpora")
    return statistics.median(times), statistics.median(walls), out


def import_package():
    sys.path.insert(0, str(SRC))
    import hasseschmidt
    from hasseschmidt import cli

    if Path(hasseschmidt.__file__).resolve().parent != (SRC / "hasseschmidt").resolve():
        raise BenchError(f"imported hasseschmidt from {hasseschmidt.__file__}")
    return cli


def run_op(cli, op, corpus_dir: Path, span=nullcontext) -> tuple[int, str, float, float]:
    """One CLI call: exit code, stdout, wall-clock and calibrated seconds.
    ``span()`` is entered around the call alone, not the calibration loops."""
    out, err = io.StringIO(), io.StringIO()
    argv = [op["cmd"], str(corpus_dir / op["file"])] + op["args"]

    def call():
        with span(), redirect_stdout(out), redirect_stderr(err):
            return cli.main(argv)

    code, wall, calibrated = calibrate.measure(call)
    return code, out.getvalue(), wall, calibrated


def _constants(nvars: int) -> list:
    return [{"prec": "exact", "terms": [[0] * nvars + ["1"]]}]


def check(op, code: int, text: str) -> str | None:
    """Why the op's result is wrong, or None."""
    if code != 0:
        return f"exit code {code}"
    expect = op["expect"]
    if op["cmd"] == "verify":
        last = text.rstrip("\n").rsplit("\n", 1)[-1]
        return None if last == expect["verdict"] else f"verdict {last!r}"
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return "report is not JSON"
    if op["cmd"] == "decompose":
        if report.get("witness") is not None:
            return "reconstruction witness"
        if report.get("verified_to_degree") != expect["verified_to_degree"]:
            return f"verified to degree {report.get('verified_to_degree')}"
        return None
    dim = report.get("dimension")
    if "dimension" in expect and dim != expect["dimension"]:
        return f"kernel dimension {dim}, expected {expect['dimension']}"
    if "min_dimension" in expect and not (isinstance(dim, int) and dim >= expect["min_dimension"]):
        return f"kernel dimension {dim}, expected at least {expect['min_dimension']}"
    if not op["args"] and report.get("basis") != _constants(op["nvars"]):
        return "full kernel is not the constants"
    return None


class Passes:
    """Latencies, digests and failures of the ops across passes."""

    def __init__(self, ops):
        self.ops = ops
        self.latency = [[] for _ in ops]  # calibrated seconds per pass
        self.wall = [[] for _ in ops]
        self.digest = [None] * len(ops)
        self.failures: dict = {}  # op id -> first reason
        self.passes = 0
        self.attempted = 0
        self.failed = 0

    def run(self, cli, corpus_dir, tracer=None, on_report=None):
        for k, op in enumerate(self.ops):
            span = nullcontext
            if tracer is not None:
                name = f"cli.{op['cmd']}.{'q' if op['field'] == 'Q' else 'fp'}"
                span = functools.partial(tracer.op, k, name)
            code, text, wall, calibrated = run_op(cli, op, corpus_dir, span)
            self.attempted += 1
            self.latency[k].append(calibrated)
            self.wall[k].append(wall)
            digest = hashlib.sha256(text.encode()).hexdigest()
            problem = check(op, code, text)
            if problem is None and self.digest[k] not in (None, digest):
                problem = "report differs from the previous pass"
            self.digest[k] = self.digest[k] or digest
            if problem is not None:
                self.fail(op, problem)
            if on_report is not None:
                on_report(op, text)
        self.passes += 1

    def fail(self, op, why: str) -> None:
        self.failed += 1
        self.failures.setdefault(op["id"], why)

    def run_for(self, cli, corpus_dir, seconds, passes=None, **kw):
        start = time.perf_counter()
        while True:
            self.run(cli, corpus_dir, **kw)
            if passes is not None:
                if self.passes >= passes:
                    return
            elif self.passes >= MIN_PASSES and time.perf_counter() - start >= seconds:
                return

    def op_latencies(self, wall=False) -> list:
        """Each op's median over the passes."""
        return [statistics.median(v) for v in (self.wall if wall else self.latency)]

    def ops_per_s(self, wall=False) -> float:
        return len(self.ops) / sum(self.op_latencies(wall))


def recorded_digests(workload: str) -> dict:
    if not DIGESTS.is_file():
        raise BenchError(f"{DIGESTS.name} is missing")
    table = json.loads(DIGESTS.read_text()).get(workload)
    if table is None:
        raise BenchError(f"{DIGESTS.name} has no digests for {workload}")
    return table


def golden_check(cli, workload: str, timed: Passes, seed: int) -> Passes:
    """Compare default-seed reports with the recorded digests.  Reuses the
    timed passes' reports when they ran the default seed."""
    table = recorded_digests(workload)
    if seed == corpus.DEFAULT_SEED:
        golden = Passes(timed.ops)
        golden.digest = timed.digest
    else:
        files, ops = corpus.generate(workload, corpus.DEFAULT_SEED)
        golden_dir = WORK / workload / "golden"
        corpus.write(files, golden_dir)
        golden = Passes(ops)
        golden.run(cli, golden_dir)
    if len(golden.ops) != len(table):
        raise BenchError(f"{len(table)} recorded digests for {len(golden.ops)} ops")
    for op, digest in zip(golden.ops, golden.digest):
        if table.get(op["id"]) != digest:
            golden.fail(op, "report differs from the recorded digest")
    return golden


def _coeff_bits(obj) -> int:
    """Largest numerator or denominator bit length among the coefficient
    strings of a report."""
    if isinstance(obj, dict):
        return max((_coeff_bits(v) for v in obj.values()), default=0)
    if isinstance(obj, list):
        if obj and isinstance(obj[-1], str) and all(isinstance(e, int) for e in obj[:-1]):
            return max(abs(int(part)).bit_length() for part in obj[-1].split("/"))
        return max((_coeff_bits(v) for v in obj), default=0)
    return 0


def timing_metrics(timed: Passes, setup_s: float, wall=False) -> dict:
    latency = timed.op_latencies(wall)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (timed.ops_per_s(wall), "1/s"),
        "op_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(latency, n=10)[-1] * 1e3, "ms"),
    }


def end_to_end(cli, ops, corpus_dir, seconds, setup_s):
    timed = Passes(ops)
    timed.run_for(cli, corpus_dir, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = timing_metrics(timed, setup_s)
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return timed, metrics


def per_layer(cli, ops, corpus_dir, seconds):
    from spans import Counting, Tracer

    untraced = Passes(ops)
    untraced.run_for(cli, corpus_dir, seconds)
    passes = untraced.passes

    tracer = Tracer()
    traced = Passes(ops)
    q_bits = [0]
    report_bytes = [0]

    def on_report(op, text):
        report_bytes[0] += len(text.encode())
        if op["field"] == "Q" and op["cmd"] != "verify":
            q_bits[0] = max(q_bits[0], _coeff_bits(json.loads(text)))

    with tracer:
        traced.run_for(cli, corpus_dir, seconds, passes=passes, tracer=tracer, on_report=on_report)
    counting = Counting()
    counted = Passes(ops)
    with counting:
        counted.run(cli, corpus_dir)

    for other in (traced, counted):
        for k, op in enumerate(ops):
            if other.digest[k] != untraced.digest[k]:
                other.fail(op, "traced report differs from untraced")

    self_s, calls, roots, counts = tracer.self_s, tracer.calls, tracer.roots, tracer.counts
    checks = sum(op["expect"].get("checks", 0) for op in ops) * passes
    layer = {}
    for cmd in ("decompose", "kernel", "verify"):
        for kind in ("q", "fp"):
            layer[f"cli.{cmd}.{kind}.s"] = (roots[f"cli.{cmd}.{kind}"], "s")
    timed_names = (
        "serialize.load_problem", "serialize.dumps", "decompose.degree1_matrix",
        "decompose.det", "decompose.residual", "decompose.solve", "decompose.verify",
        "formula.weighted_terms", "formula.apply_table", "derivations.compose_multi",
        "derivations.apply_component", "derivations.leibniz_check", "series.mul",
        "series.add", "series.tmul", "series.inverse", "coefffield.quotient_basis",
        "coefffield.component_matrix", "coefffield.nullspace",
    )
    for name in timed_names:
        layer[f"{name}.s"] = (self_s[name], "s")
    for name in ("decompose.det", "decompose.residual", "formula.apply_table",
                 "derivations.compose_multi", "derivations.apply_component", "series.mul",
                 "series.add", "series.tmul", "series.inverse",
                 "coefffield.component_matrix"):
        layer[f"{name}.calls"] = (calls[name], "count")
    for name in ("formula.weighted_terms.terms", "derivations.mono_cache.entries",
                 "derivations.leibniz_check.pairs", "series.mul.pairs",
                 "series.mul.terms_out", "coefffield.matrix_cells", "coefffield.kernel_dim"):
        layer[name] = (counts[name], "count")
    layer["serialize.report_bytes"] = (report_bytes[0], "bytes")
    layer["decompose.verify.checks"] = (checks, "count")
    # one pass: every figure above covers `passes` traced passes
    layer = {k: (v / passes, unit) for k, (v, unit) in layer.items()}
    pairs = counts["series.mul.pairs"]
    layer["series.mul.kept_ratio"] = (counts["series.mul.terms_out"] / pairs if pairs else 0.0, "ratio")
    layer["series.init.calls"] = (counting.counts["series.init.calls"], "count")
    layer["fields.ops"] = (counting.counts["fields.ops"], "count")
    layer["fields.q.max_coeff_bits"] = (q_bits[0], "bits")
    layer["trace.untraced_ops_per_s"] = (untraced.ops_per_s(), "1/s")
    layer["trace.traced_ops_per_s"] = (traced.ops_per_s(), "1/s")
    return untraced, layer, [untraced, traced, counted]


def header(workload, seed, ops, trace) -> dict:
    by_cmd = Counter(op["cmd"] for op in ops)
    by_field = Counter(op["field"] for op in ops)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "ops_per_pass": len(ops),
        "ops_by_command": dict(sorted(by_cmd.items())),
        "ops_by_field": dict(sorted(by_field.items())),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="run the default seed once and store its report digests")
    args = parser.parse_args(argv)
    try:
        if args.record_digests:
            return record_digests(args.workload)
        return run(args)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


def record_digests(workload: str) -> int:
    cli = import_package()
    files, ops = corpus.generate(workload, corpus.DEFAULT_SEED)
    out = WORK / workload / "golden"
    corpus.write(files, out)
    once = Passes(ops)
    once.run(cli, out)
    if once.failures:
        raise BenchError(f"refusing to record failing reports: {once.failures}")
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table[workload] = {op["id"]: d for op, d in zip(ops, once.digest)}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(ops)} digests for {workload}")
    return 0


def run(args) -> int:
    setup_s, setup_wall_s, corpus_dir = setup(args.workload, args.seed)
    cli = import_package()
    _, ops = corpus.generate(args.workload, args.seed)
    head = header(args.workload, args.seed, ops, args.trace)
    print("# " + json.dumps(head, sort_keys=True))
    if args.trace:
        timed, metrics, passes = per_layer(cli, ops, corpus_dir, args.seconds)
    else:
        timed, metrics = end_to_end(cli, ops, corpus_dir, args.seconds, setup_s)
        passes = [timed]
        for name, (value, unit) in timing_metrics(timed, setup_wall_s, wall=True).items():
            print(f"# wall clock: {name} = {value:.6g} {unit}")
    golden = golden_check(cli, args.workload, timed, args.seed)
    passes.append(golden)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for op_id, why in sorted(p.failures.items()):
            print(f"# FAILED {op_id}: {why}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# failed_frac = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps({"header": head, "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
