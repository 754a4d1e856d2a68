"""``tools/ab.py``, the in-process A/B timing of two source trees, at its
smallest size: one pair of passes on decompose-small, and its refusal of
two trees whose reports differ."""

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


def test_a_tree_whose_output_differs_is_refused(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC / "hasseschmidt", changed / "hasseschmidt",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "hasseschmidt" / "cli.py"
    cli.write_text(cli.read_text() + "\n\n_main = main\n\n\ndef main(argv=None):\n"
                   "    print('extra')\n    return _main(argv)\n")
    proc = ab(SRC, changed, "--pairs", "1")
    assert proc.returncode == 1
    assert "differ in exit code or stdout" in proc.stderr
    assert not proc.stdout
