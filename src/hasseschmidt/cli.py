"""Command-line front end.

Subcommands:
  decompose  express the target through the family, write the table
  kernel     joint-kernel / coefficient-field extraction on a quotient
  verify     Leibniz checks, plus reconstruction if a table is supplied
  demo       write and run the two shipped example problems

Exit codes: 0 success (``--help`` included), 1 I/O / format / usage
error, 2 the family's degree-1 parts are not a basis, 3 a verification
failed (witness in the report).  Exits 1 and 2 write one message to
stderr and nothing to stdout; for a usage error it is argparse's usage
and its one-line ``error:`` message.  Reports are canonical JSON:
identical input and seed give byte-identical output.

Bounds, each a usage error with a message: ``--max-degree`` must be
>= 0 and ``--trials`` between 0 and MAX_TRIALS (the Leibniz trials run
one after another).  A problem file with more than
``serialize.NVARS_CAP`` variables, or with more than
``serialize.MONOMIAL_CAP`` monomials below max(truncation, length + 1),
is a format error (exit 1) found before anything is built.
"""

from __future__ import annotations

import argparse
import functools
import re
import reprlib
import sys
from pathlib import Path

from .errors import HasseSchmidtError, NotABasis, ProblemFormatError
from .fields import GF, QQ
from .series import Series, TSeries
from .derivations import HSDerivation, leibniz_check, taylor_derivation
from .decompose import decompose, verify_decomposition
from .coefffield import coefficient_field
from . import serialize

# ``verify --trials`` above this is refused.  Trials run one after
# another, each pushing two random polynomials through every weight; at
# this bound a length-2 derivation in one variable takes about 2 s.
MAX_TRIALS = 10_000
_INTEGER = re.compile(r"-?[0-9]+")


def _bounded_int(low: int | None, high: int | None = None):
    """An argparse ``type``: a decimal integer (ASCII digits, optional
    '-') from low to high (None: no bound below); anything else is a
    usage error."""

    def parse(text: str) -> int:
        try:
            if not _INTEGER.fullmatch(text):
                raise ValueError(text)
            value = int(text)  # ValueError past the interpreter's digit limit
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {reprlib.repr(text)}") from None
        if (low is not None and value < low) or (high is not None and value > high):
            bound = f"at least {low}" if high is None else f"between {low} and {high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_decompose(args) -> int:
    problem = serialize.load_problem(args.input)
    if problem.target is None:
        raise ProblemFormatError("decompose needs a 'target' derivation")
    if len(problem.derivations) != problem.nvars:
        raise ProblemFormatError(
            f"decompose needs exactly {problem.nvars} derivations, got {len(problem.derivations)}"
        )
    result = decompose(
        problem.target,
        problem.derivations,
        out_precision=problem.truncation,
        verify_degree=args.max_degree,
    )
    report = serialize.decomposition_to_json(result)
    _write_or_print(serialize.dumps(report), args.out)
    if result.witness is not None:
        sys.stderr.write("reconstruction failed; see witness in report\n")
        return 3
    return 0


def cmd_kernel(args) -> int:
    problem = serialize.load_problem(args.input)
    report = coefficient_field(
        problem.derivations, problem.truncation, degree1_only=args.degree1_only
    )
    _write_or_print(serialize.dumps(serialize.kernel_report_to_json(report)), args.out)
    return 0


def cmd_verify(args) -> int:
    problem = serialize.load_problem(args.input)
    seed = problem.seed if args.seed is None else args.seed
    if problem.coefficients is not None:
        if problem.target is None:
            raise ProblemFormatError(
                "a coefficient table was supplied but no target to verify against")
        if len(problem.derivations) != problem.nvars:
            raise ProblemFormatError(
                f"reconstruction check needs exactly {problem.nvars} derivations"
            )
    failed = False
    lines = []
    named = [(D.name, D) for D in problem.derivations]
    if problem.target is not None:
        named.append(("target", problem.target))
    for name, D in named:
        report = leibniz_check(D, trials=args.trials, seed=seed)
        lines.append(f"{name}: {report.summary()} [seed={seed}]")
        failed = failed or not report.passed
    if problem.coefficients is not None:
        report = verify_decomposition(
            problem.target, problem.derivations, problem.coefficients, args.max_degree
        )
        lines.append(report.summary())
        failed = failed or not report.passed
    lines.append(f"verify: {'FAIL' if failed else 'pass'}")
    # one write at the end: an error on the way leaves stdout empty
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 3 if failed else 0


def _demo_worked_problem() -> serialize.Problem:
    """One variable over Q: target E(X) = X + X t + t^2 against the shift
    family; the table comes out as C = [X, 1]."""
    field = QQ
    x = Series.variable(1, field, 0)
    one = Series.one(1, field)
    target = HSDerivation([TSeries([x, x, one])], name="target")
    basis = [taylor_derivation(1, 2, field, 0)]
    return serialize.Problem(
        field=field, nvars=1, length=2, truncation=6, seed=42,
        derivations=basis, target=target,
    )


def _demo_char2_problem() -> serialize.Problem:
    """One variable over GF(2): the shift family on k[X]/(X)^5.  The full
    kernel is the constants; keeping only the weight-1 component leaves
    the squares 1, X^2, X^4."""
    field = GF(2)
    return serialize.Problem(
        field=field, nvars=1, length=4, truncation=5, seed=7,
        derivations=[taylor_derivation(1, 4, field, 0)],
    )


def cmd_demo(args) -> int:
    outdir = Path(args.out or "demo")
    outdir.mkdir(parents=True, exist_ok=True)
    worked = _demo_worked_problem()
    char2 = _demo_char2_problem()
    worked_path = outdir / "worked_one_variable.json"
    char2_path = outdir / "char2_kernel.json"
    worked_path.write_text(serialize.dumps(serialize.problem_to_json(worked)), encoding="utf-8")
    char2_path.write_text(serialize.dumps(serialize.problem_to_json(char2)), encoding="utf-8")
    print(f"wrote {worked_path} and {char2_path}")

    result = decompose(worked.target, worked.derivations, out_precision=worked.truncation)
    table = ", ".join(
        str(result.table.at(level, 0)) for level in range(1, result.table.levels + 1)
    )
    print(f"decompose {worked_path.name}: C = [{table}], "
          f"verified to degree {result.verified_to_degree}")

    full = coefficient_field(char2.derivations, char2.truncation)
    partial = coefficient_field(char2.derivations, char2.truncation, degree1_only=True)
    print(f"kernel {char2_path.name}: {full.summary()}")
    print(f"kernel {char2_path.name} (degree-1 only): {partial.summary()}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use: building
    it costs more than a small decomposition.  parse_args leaves it
    unchanged and returns a fresh Namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="hasseschmidt",
        description="Exact computation with Hasse-Schmidt derivations over Q and GF(p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="express the target through the family")
    p.add_argument("input", help="problem file (JSON)")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--max-degree", type=_bounded_int(0), default=6,
                   help="verify the reconstruction on monomials up to this degree (>= 0)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("kernel", help="joint kernel of the family's components")
    p.add_argument("input", help="problem file (JSON)")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--degree1-only", action="store_true",
                   help="use only the weight-1 components")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("verify", help="Leibniz and reconstruction checks")
    p.add_argument("input", help="problem file (JSON)")
    p.add_argument("--seed", type=_bounded_int(None), default=None,
                   help="override the problem file's seed")
    p.add_argument("--trials", type=_bounded_int(0, MAX_TRIALS), default=25,
                   help=f"random pairs per Leibniz check (0 to {MAX_TRIALS})")
    p.add_argument("--max-degree", type=_bounded_int(0), default=6,
                   help="reconstruction check degree bound (>= 0)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("demo", help="write and run the shipped example problems")
    p.add_argument("--out", help="directory for the example files (default: ./demo)")
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has written the help (code 0) or a usage error (code 2)
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except NotABasis as exc:
        sys.stderr.write(f"not a basis: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 1
    except HasseSchmidtError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
