"""``tools/ab.py``, the in-process A/B timing of two source trees, at its
smallest size: one pair of passes on decompose-small, with all ops or
with the ops ``--match`` keeps, and its refusal of two trees whose
reports differ, on any op."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def ab(parent_src, change_src, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(parent_src), str(change_src),
         "--workload", "decompose-small", *args],
        capture_output=True, text=True, timeout=120, check=False,
    )


def test_one_pair_of_this_tree_against_itself():
    proc = ab(SRC, SRC, "--pairs", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["pairs"] == 1 and len(result["ratios"]) == 1 and result["ops"] > 0
    assert result["q1"] == result["median"] == result["q3"] > 0
    assert result["wins"] in (0, 1)


def op_ids():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import corpus
    finally:
        sys.path.pop(0)
    return [op["id"] for op in corpus.generate("decompose-small", 1)[1]]


def test_match_times_only_the_ops_whose_id_contains_the_text():
    proc = ab(SRC, SRC, "--pairs", "1", "--match", "F2-")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    ids = op_ids()
    assert result["match"] == "F2-"
    assert result["ops"] == sum("F2-" in i for i in ids)
    assert 0 < result["ops"] < len(ids)
    proc = ab(SRC, SRC, "--pairs", "1", "--match", "no such op")
    assert proc.returncode == 1
    assert "no op id of decompose-small contains 'no such op'" in proc.stderr
    assert not proc.stdout


def differing_tree(tmp_path, condition):
    """A copy of this tree whose ``cli.main`` prints one extra line when
    ``condition``, a Python expression in argv, holds."""
    changed = tmp_path / "src"
    shutil.copytree(SRC / "hasseschmidt", changed / "hasseschmidt",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "hasseschmidt" / "cli.py"
    cli.write_text(cli.read_text() + "\n\n_main = main\n\n\ndef main(argv=None):\n"
                   f"    if {condition}:\n        print('extra')\n    return _main(argv)\n")
    return changed


def test_a_tree_whose_output_differs_is_refused(tmp_path):
    proc = ab(SRC, differing_tree(tmp_path, "True"), "--pairs", "1")
    assert proc.returncode == 1
    assert "differ in exit code or stdout" in proc.stderr
    assert not proc.stdout


def test_match_still_checks_the_ops_it_does_not_time(tmp_path):
    proc = ab(SRC, differing_tree(tmp_path, "'Q-' in argv[1]"), "--pairs", "1", "--match", "F2-")
    assert proc.returncode == 1
    assert "differ in exit code or stdout" in proc.stderr
    assert not proc.stdout
