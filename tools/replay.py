"""Replay every ``_mac`` call of one benchmark pass on two source trees.

    python3 tools/replay.py PARENT_SRC CHANGE_SRC --workload kernel-verify --rounds 21

``series._mac``, the product kernel, is a few percent of a pass, so a
change to it alone moves the end-to-end ratio of ``tools/ab.py`` by less
than that tool's noise.  This script times the kernel by itself.  Both
trees load side by side as ``tools/ab.py`` loads them, and the seed
corpus of the workload comes from ``bench/corpus.py``, imported, not
changed.

One pass of every op runs on the parent with a recorder in place of
``_mac`` in each module of the package that holds it (``series`` and
``derivations``).  The recorder copies each call's operands: the
accumulator as it was before the call, both operands, the bound, the
shift and the field, whose ``add`` and ``mul`` are the call's.  The
calls are then replayed once on each side, with that side's ``_mac``
and the same field of that side's ``fields``; if any call leaves a
different accumulator, or raises on one side only, the script stops
with exit code 1.  Then it times N rounds: in each, one replay of every
call per side, the side that runs first alternating from round to
round, and one unpatched pass of the parent for the pass's wall time.

It prints the median ratio of the change's replay time over the
parent's (above 1: the change's kernel is slower) with its quartiles,
the median difference change minus parent in ms, and that difference
as a share of the median pass wall time, then the same as one JSON
object on the last line.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from ab import SIDES, load_corpus, load_side, run_op, timed_pass  # tools/ leads sys.path


def record(package: str, ops, corpus_dir: Path) -> list:
    """One pass of ``ops`` through the ``cli`` of ``package`` with every
    ``_mac`` call recorded as (acc, a, b, bound, shift, field), copies
    taken before the call."""
    series = importlib.import_module(f"{package}.series")
    mac, calls = series._mac, []

    def recorder(acc, a, b, bound, shift, add, mul):
        field = add.__self__
        if (add, mul) != (field.add, field.mul):
            raise SystemExit("a _mac call whose add and mul are not one field's")
        calls.append((dict(acc), dict(a), dict(b), bound, shift, field))
        mac(acc, a, b, bound, shift, add, mul)

    holders = [module for name, module in sys.modules.items()
               if name.startswith(package + ".") and getattr(module, "_mac", None) is mac]
    for module in holders:
        module._mac = recorder
    try:
        cli = sys.modules[f"{package}.cli"]
        for op in ops:
            run_op(cli, op, corpus_dir)
    finally:
        for module in holders:
            module._mac = mac
    return calls


def bind(package: str, calls: list) -> list:
    """The calls as (acc, a, b, bound, shift, add, mul) with the field
    ops of ``package``'s own field of the same characteristic."""
    fields = importlib.import_module(f"{package}.fields")
    own = {}
    for *_, field in calls:
        if field not in own:
            own[field] = fields.QQ if field.p is None else fields.GF(field.p)
    return [(acc, a, b, bound, shift, own[field].add, own[field].mul)
            for acc, a, b, bound, shift, field in calls]


def replay(package: str, bound_calls: list) -> tuple[float, list]:
    """One replay of the calls with ``package``'s ``_mac``, each on a
    fresh copy of its accumulator: the wall time of the calls alone, with
    the garbage collector off as in ``timeit``, and the outcome of each,
    the accumulator or the text of the error."""
    mac = importlib.import_module(f"{package}.series")._mac
    error = importlib.import_module(f"{package}.errors").HasseSchmidtError
    accs = [dict(call[0]) for call in bound_calls]
    outcomes = accs[:]
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for i, (_, a, b, bound, shift, add, mul) in enumerate(bound_calls):
            try:
                mac(accs[i], a, b, bound, shift, add, mul)
            except error as exc:
                outcomes[i] = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - start, outcomes
    finally:
        gc.enable()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=21)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory(prefix="hs-replay-") as tmp:
        tmp = Path(tmp)
        corpus_dir = tmp / "corpus"
        ops = load_corpus(args.workload, args.seed, corpus_dir)
        sys.path.insert(0, str(tmp))
        packages = {side: f"replay_{side}" for side in SIDES}
        clis = {side: load_side(src, packages[side], tmp)
                for src, side in zip((args.parent_src, args.change_src), SIDES)}
        calls = record(packages["parent"], ops, corpus_dir)
        if not calls:
            print(f"no _mac call in a pass of {args.workload}", file=sys.stderr)
            return 1
        replays = {side: bind(packages[side], calls) for side in SIDES}
        outcomes = {side: replay(packages[side], replays[side])[1] for side in SIDES}
        for i, (before, after) in enumerate(zip(outcomes["parent"], outcomes["change"])):
            if before != after:
                print(f"_mac call {i} of {len(calls)}: parent and change leave different "
                      "accumulators", file=sys.stderr)
                return 1
        times = {side: [] for side in SIDES}
        passes = []
        for r in range(args.rounds):
            for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
                times[side].append(replay(packages[side], replays[side])[0])
            passes.append(timed_pass(clis["parent"], ops, corpus_dir))

    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    q1, ratio, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                     if len(ratios) > 1 else ratios * 3)
    diff_ms = 1e3 * statistics.median(c - p for p, c in zip(times["parent"], times["change"]))
    pass_ms = 1e3 * statistics.median(passes)
    share = diff_ms / pass_ms
    parent_ms, change_ms = (1e3 * statistics.median(times[side]) for side in SIDES)
    print(f"{args.workload}: {len(calls)} _mac calls over {len(ops)} ops, {args.rounds} rounds; "
          f"replay time ratio change/parent median {ratio:.3f} [q1 {q1:.3f}, q3 {q3:.3f}], "
          f"difference {diff_ms:+.3f} ms, {100 * share:+.2f}% of a {pass_ms:.1f} ms pass")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": args.rounds,
                      "ops": len(ops), "calls": len(calls), "parent_ms": parent_ms,
                      "change_ms": change_ms, "ratio": ratio, "q1": q1, "q3": q3,
                      "diff_ms": diff_ms, "pass_ms": pass_ms, "share": share,
                      "ratios": ratios}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
