"""In-process A/B timing of two source trees of ``hasseschmidt``.

    python3 tools/ab.py PARENT_SRC CHANGE_SRC --workload decompose-dense --pairs 21
    python3 tools/ab.py PARENT_SRC CHANGE_SRC --workload kernel-verify --match :kernel

PARENT_SRC and CHANGE_SRC are directories that hold a ``hasseschmidt``
package, such as the ``src/`` of two checkouts.  Each package is copied
into a temporary directory under its own name (the package imports
itself only relatively), so both load side by side in this interpreter.
The seed corpus of the workload comes from ``bench/corpus.py``, which is
imported, not changed.

Every op of the corpus first runs once through each side's
``cli.main``; if any op's stdout or exit code differs between the two,
the script stops with exit code 1.  Then it times N pairs of whole
passes over the corpus on the wall clock, the side that runs first
alternating from pair to pair.  Within a pair the two passes follow each
other, so a drift of the host's speed over minutes cancels in their
ratio, where alternating rounds of separate processes do not cancel it.
With ``--match TEXT`` a pass holds only the ops whose id contains TEXT
(``--match :kernel`` keeps the kernel ops, not the verify ops), so a
change to one layer can be sized on the ops that run it; every op's
output is still checked first.

The speed ratio of a pair is the parent's pass time over the change's,
so a ratio above 1 means the change is faster.  The script prints the
median ratio with its quartiles and the number of pairs the change won,
then the same as one JSON object on the last line.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def load_corpus(workload: str, seed: int, out: Path) -> list:
    """Write the workload's corpus for ``seed`` to ``out``; its op list."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import corpus
    finally:
        sys.path.pop(0)
    files, ops = corpus.generate(workload, seed)
    corpus.write(files, out)
    return ops


def load_side(src: Path, name: str, tmp: Path):
    """The ``cli`` module of the package in ``src``, copied to tmp/name."""
    package = src / "hasseschmidt"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no hasseschmidt package in {src}")
    shutil.copytree(package, tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def run_op(cli, op, corpus_dir: Path) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main([op["cmd"], str(corpus_dir / op["file"])] + op["args"])
    return code, out.getvalue()


def timed_pass(cli, ops, corpus_dir: Path) -> float:
    gc.collect()
    start = time.perf_counter()
    for op in ops:
        run_op(cli, op, corpus_dir)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=21)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--match", default="", metavar="TEXT",
                        help="time only the ops whose id contains TEXT")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="hs-ab-") as tmp:
        tmp = Path(tmp)
        ops = load_corpus(args.workload, args.seed, tmp / "corpus")
        timed = [op for op in ops if args.match in op["id"]]
        if not timed:
            print(f"no op id of {args.workload} contains {args.match!r}", file=sys.stderr)
            return 1
        sys.path.insert(0, str(tmp))
        clis = dict(zip(SIDES, (load_side(src, f"ab_{side}", tmp)
                                for src, side in zip((args.parent_src, args.change_src), SIDES))))
        for op in ops:
            results = [run_op(clis[side], op, tmp / "corpus") for side in SIDES]
            if results[0] != results[1]:
                print(f"op {op['id']}: parent and change differ in exit code or stdout",
                      file=sys.stderr)
                return 1
        ratios = []
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            times = {side: timed_pass(clis[side], timed, tmp / "corpus") for side in order}
            ratios.append(times["parent"] / times["change"])

    q1, median, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                      if len(ratios) > 1 else ratios * 3)
    wins = sum(r > 1 for r in ratios)
    print(f"{args.workload}: {len(timed)} ops, {args.pairs} pairs; speed ratio parent/change "
          f"median {median:.3f} [q1 {q1:.3f}, q3 {q3:.3f}], change faster in {wins}/{args.pairs}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "match": args.match,
                      "ops": len(timed), "pairs": args.pairs, "median": median, "q1": q1,
                      "q3": q3, "wins": wins, "ratios": ratios}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
