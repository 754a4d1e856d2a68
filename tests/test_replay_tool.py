"""``tools/replay.py``, the replay of every ``_mac`` call of one pass on
two source trees, at its smallest size: one round on decompose-small,
and its refusal of a tree whose kernel leaves other accumulators."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def replay(parent_src, change_src, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay.py"), str(parent_src), str(change_src),
         "--workload", "decompose-small", *args],
        capture_output=True, text=True, timeout=120, check=False,
    )


def test_one_round_of_this_tree_against_itself():
    proc = replay(SRC, SRC, "--rounds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (result["workload"], result["seed"], result["rounds"]) == ("decompose-small", 1, 1)
    assert result["calls"] > result["ops"] > 0
    assert len(result["ratios"]) == 1 and result["q1"] == result["ratio"] == result["q3"] > 0
    assert result["parent_ms"] > 0 and result["change_ms"] > 0 and result["pass_ms"] > 0
    assert result["share"] == result["diff_ms"] / result["pass_ms"]


def test_a_kernel_that_leaves_another_accumulator_is_refused(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC / "hasseschmidt", changed / "hasseschmidt",
                    ignore=shutil.ignore_patterns("__pycache__"))
    series = changed / "hasseschmidt" / "series.py"
    series.write_text(series.read_text() + "\n\n_exact_mac = _mac\n\n\n"
                      "def _mac(acc, a, b, bound, shift, add, mul):\n"
                      "    _exact_mac(acc, a, b, bound, shift, add, mul)\n"
                      "    acc[-1] = 1\n")
    proc = replay(SRC, changed, "--rounds", "1")
    assert proc.returncode == 1
    assert "parent and change leave different accumulators" in proc.stderr
    assert not proc.stdout


def test_bad_rounds_are_refused():
    proc = replay(SRC, SRC, "--rounds", "0")
    assert proc.returncode == 2 and "--rounds must be at least 1" in proc.stderr
