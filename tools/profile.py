"""cProfile shares of one pass of a benchmark workload through ``cli.main``.

    python3 tools/profile.py --workload decompose-small --seed 1 --top 25

The seed corpus of the workload comes from ``bench/corpus.py``, which is
imported, not changed, through ``tools/ab.py``'s loader and is written
to a temporary directory; the package is the ``src/`` of this checkout.  One warm-up pass sends every
op through ``cli.main`` on the wall clock, then one more pass runs with
the profiler enabled around each ``cli.main`` call only, so nothing of
this script is profiled.  Each function's cumulative time is printed as
a share of ``cli.main``'s, with its call count: the method behind the
hot-spot table in ROADMAP.md.  The shares are cumulative, so nested
entries overlap; cProfile inflates absolute times, so only the shares
and the unprofiled pass's wall clock are printed.  The last line is the
same as one JSON object.
"""

from __future__ import annotations

import sys
from pathlib import Path

from ab import ROOT, load_corpus  # run as a script, tools/ leads sys.path

# run as a script, this file would hide the standard library's
# ``profile``, which cProfile imports, so its directory leaves sys.path
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != ROOT / "tools"]

import argparse  # noqa: E402
import cProfile  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pstats  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402


def run_pass(main, ops, corpus_dir: Path, profile=None) -> float:
    """One pass of ``ops`` through ``main``, output discarded; its wall time."""
    start = time.perf_counter()
    for op in ops:
        argv = [op["cmd"], str(corpus_dir / op["file"])] + op["args"]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            if profile is None:
                main(argv)
            else:
                profile.runcall(main, argv)
    return time.perf_counter() - start


def label(key) -> str:
    """function (file:line), the file relative to the package or bare."""
    filename, line, name = key
    if filename == "~":
        return name
    path = Path(filename)
    where = path.name if path.parent.name != "hasseschmidt" else f"hasseschmidt/{path.name}"
    return f"{name} ({where}:{line})"


def shares(profile, main) -> list:
    """(share of ``main``'s cumulative time, calls, label) per function,
    largest share first."""
    stats = pstats.Stats(profile).stats
    code = main.__code__
    total = stats[(code.co_filename, code.co_firstlineno, code.co_name)][3]
    rows = [(ct / total, nc, label(key)) for key, (_, nc, _, ct, _) in stats.items()
            if key[2] != "<method 'disable' of '_lsprof.Profiler' objects>"]
    return sorted(rows, key=lambda row: (-row[0], row[2]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=30, metavar="K",
                        help="print the K functions with the largest shares")
    args = parser.parse_args(argv)
    if args.top < 1:
        parser.error("--top must be at least 1")

    sys.path.insert(0, str(ROOT / "src"))
    from hasseschmidt import cli

    with tempfile.TemporaryDirectory(prefix="hs-profile-") as tmp:
        corpus_dir = Path(tmp) / "corpus"
        try:
            ops = load_corpus(args.workload, args.seed, corpus_dir)
        except KeyError:
            parser.error(f"unknown workload {args.workload!r}")
        wall = run_pass(cli.main, ops, corpus_dir)
        profile = cProfile.Profile()
        run_pass(cli.main, ops, corpus_dir, profile)
    top = shares(profile, cli.main)[:args.top]
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops, warm-up pass {wall:.3f} s "
          f"on the wall clock; cumulative share of cli.main, calls, function")
    for share, calls, name in top:
        print(f"{100 * share:6.1f}%  {calls:8d}  {name}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "ops": len(ops),
                      "wall_s": wall, "top": [{"share": share, "calls": calls, "function": name}
                                              for share, calls, name in top]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
