"""``tools/profile.py``, the cProfile shares of one pass of a workload
through ``cli.main``, at its smallest size: decompose-small, seed 1."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def profile(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "profile.py"), "--workload", "decompose-small",
         *args],
        capture_output=True, text=True, timeout=120, check=False,
    )


def test_shares_of_one_pass_are_led_by_cli_main():
    proc = profile("--top", "8")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert (result["workload"], result["seed"]) == ("decompose-small", 1)
    assert result["ops"] > 0 and result["wall_s"] > 0
    top = result["top"]
    assert len(top) == 8 == len(lines) - 2
    assert top[0]["function"].startswith("main (hasseschmidt/cli.py:")
    assert (top[0]["share"], top[0]["calls"]) == (1.0, result["ops"])
    shares = [row["share"] for row in top]
    assert shares == sorted(shares, reverse=True) and all(0 < s <= 1 for s in shares)
    assert any(row["function"].startswith("decompose (hasseschmidt/decompose.py:")
               for row in top)


def test_bad_arguments_are_refused():
    proc = profile("--top", "0")
    assert proc.returncode == 2 and "--top must be at least 1" in proc.stderr
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "profile.py"),
                           "--workload", "no-such-workload"],
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 2 and "unknown workload 'no-such-workload'" in proc.stderr
