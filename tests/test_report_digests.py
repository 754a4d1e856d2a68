"""Byte identity of every CLI report on the benchmark corpora of seeds 1-4.

Each (workload, seed) corpus of ``bench/corpus.py`` is written to a
temporary directory and every op runs through ``cli.main`` in-process.
Each op's id, exit code, stdout and stderr go into one SHA-256 per
(workload, seed), compared with ``tests/data/report_digests.json``.

A change that is meant to alter reports rewrites that file with

    PYTHONPATH=src python tests/test_report_digests.py
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from hasseschmidt import cli

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().parent / "data" / "report_digests.json"
SEEDS = (1, 2, 3, 4)

sys.path.insert(0, str(ROOT / "bench"))
try:
    import corpus
finally:
    sys.path.pop(0)


def report_digest(workload: str, seed: int, directory: Path) -> str:
    """One SHA-256 over the id, exit code, stdout and stderr of every op."""
    files, ops = corpus.generate(workload, seed)
    corpus.write(files, directory)
    h = hashlib.sha256()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        path = str(directory / op["file"])
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([op["cmd"], path] + op["args"])
        for part in (op["id"], str(code), out.getvalue(), err.getvalue().replace(path, op["file"])):
            h.update(part.encode() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_reports_match_recorded_digests(workload, seed, tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    assert report_digest(workload, seed, tmp_path) == recorded[workload][str(seed)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {
            workload: {str(seed): report_digest(workload, seed, Path(tmp) / f"{workload}-{seed}")
                       for seed in SEEDS}
            for workload in sorted(corpus.WORKLOADS)
        }
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
