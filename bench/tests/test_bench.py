"""Self-tests of the benchmark at a tiny size.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import run  # noqa: E402

WORKLOADS = sorted(corpus.WORKLOADS)

# a few cheap ops of each workload, default seed
TINY = {
    "decompose-small": ("F2-n1-m2-", "Q-n1-m3-00", "F3-n2-m2-00"),
    "decompose-dense": ("Q-n2-m3-00", "F3-n2-m3-00", "F2-n2-m4-00"),
    "kernel-verify": ("Q-taylor-n1-N12", "F2-random-n1-N12", "F5-taylor-n2-N8"),
}


def tiny(workload, tmp_path):
    files, ops = corpus.generate(workload, corpus.DEFAULT_SEED)
    ops = [op for op in ops if op["id"].startswith(TINY[workload])]
    corpus.write({op["file"]: files[op["file"]] for op in ops}, tmp_path)
    return ops


@pytest.fixture(scope="module")
def cli():
    return run.import_package()


@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_corpus(workload):
    files, ops = corpus.generate(workload, 5)
    again, ops_again = corpus.generate(workload, 5)
    assert files == again and ops == ops_again
    other, other_ops = corpus.generate(workload, 6)
    assert other != files
    assert [op["id"] for op in other_ops] == [op["id"] for op in ops]
    assert len(ops) >= 100


def test_corpus_does_not_import_the_library():
    code = (
        "import sys; import corpus; corpus.generate('kernel-verify', 3); "
        "assert not any(m.startswith('hasseschmidt') for m in sys.modules)"
    )
    subprocess.run([sys.executable, "-c", code], cwd=BENCH, check=True, timeout=60)


def test_p_power_monomials():
    assert corpus.p_power_monomials(1, 5, 2) == 3  # 1, X^2, X^4
    assert corpus.p_power_monomials(2, 5, 2) == 6  # 1, X^2, Y^2, X^4, X^2Y^2, Y^4
    assert corpus.p_power_monomials(3, 7, None) == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_matches_recorded_digests(workload, cli, tmp_path, benchmark_json):
    ops = tiny(workload, tmp_path)
    assert ops
    timed, metrics = run.end_to_end(cli, ops, tmp_path, seconds=0, setup_s=0.5)
    assert timed.failed == 0, timed.failures
    assert timed.passes == run.MIN_PASSES
    recorded = run.recorded_digests(workload)
    assert [recorded[op["id"]] for op in ops] == timed.digest
    assert list(metrics) == [m["name"] for m in benchmark_json["end_to_end"]]
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_matches_untraced(workload, cli, tmp_path, benchmark_json):
    ops = tiny(workload, tmp_path)
    untraced, layer, passes = run.per_layer(cli, ops, tmp_path, seconds=0)
    for p in passes:
        assert p.failed == 0, p.failures
        assert p.digest == untraced.digest
    assert list(layer) == [m["name"] for m in benchmark_json["per_layer"]]
    for name, (value, unit) in layer.items():
        spec = next(m for m in benchmark_json["per_layer"] if m["name"] == name)
        assert unit == spec["unit"] and value >= 0, name
    from hasseschmidt import FieldSpec, Series, cli as cli_module
    for wrapped in (Series.__mul__, Series.__init__, FieldSpec.add, cli_module.leibniz_check):
        assert not hasattr(wrapped, "__wrapped__"), "a wrapper was left installed"


def _layers(workload, cli, tmp_path):
    return run.per_layer(cli, tiny(workload, tmp_path), tmp_path, seconds=0)[1]


def test_predicted_split(cli, tmp_path):
    small = _layers("decompose-small", cli, tmp_path / "small")
    dense = _layers("decompose-dense", cli, tmp_path / "dense")
    kernel = _layers("kernel-verify", cli, tmp_path / "kernel")

    def total(layer, prefix):
        return sum(v for k, (v, _) in layer.items() if k.startswith(prefix))

    for prefix in ("formula.", "decompose.verify.", "decompose.residual.", "cli.decompose."):
        assert total(kernel, prefix) == 0, prefix
    for layer in (small, dense):
        assert total(layer, "coefffield.") == 0
        assert total(layer, "derivations.leibniz_check") == 0
        assert layer["decompose.verify.checks"][0] > 0
        assert layer["formula.apply_table.calls"][0] > 0
    assert small["series.inverse.calls"][0] == 0
    assert dense["series.inverse.calls"][0] > 0
    assert kernel["coefffield.component_matrix.calls"][0] > 0
    assert kernel["derivations.leibniz_check.pairs"][0] > 0
    assert kernel["decompose.det.calls"][0] > 0  # the basis check


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kernel-verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
