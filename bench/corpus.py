"""Seeded problem corpora for the three benchmark workloads.

Problems are written straight as JSON in the problem-file format of
``hasseschmidt.serialize``; nothing here imports the library, so a
corpus depends only on this file, the workload name and the seed.  A
Hasse-Schmidt derivation of k[X_1..X_n] is free on the variable images,
so any choice of exact polynomials for the t^i coefficients of E(X_j)
is a valid derivation.

Every workload is a fixed mix of configurations (field, n, m or N) with
a fixed number of problems each.  The seed draws the coefficients and
the seed written into each problem file (verify's random pairs); the
terms themselves, how many and which monomials, come from a generator
that ignores the seed.  The work in a pass then stays the same from
seed to seed: field-operation counts differ by under 0.5% between seeds,
against 1% to 6% when the seed also draws the monomials.  Over GF(2)
every coefficient is 1, so those problems differ only in that file seed.

Run as a script, it is one set-up step of the benchmark: import
``hasseschmidt``, generate the corpus, write it, and print the elapsed
time with the corpus digest as JSON.  The time is given both on the
wall clock and in the calibration units of ``calibrate.py``.

    python3 bench/corpus.py --workload decompose-small --seed 1 --out DIR --src src
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

DEFAULT_SEED = 1
FIELDS = {"Q": None, "F2": 2, "F3": 3, "F5": 5}

# (field, n, m, problems per configuration) for decompose-small: the
# Taylor family against targets whose image coefficients have up to two
# terms of degree <= 2.
SMALL_CONFIGS = [
    (field, n, m, 4) for field in FIELDS for n in (1, 2, 3) for m in (2, 3, 4)
]

# (field, n, m, problems) for decompose-dense: random non-Taylor
# families, so the degree-1 determinant is a non-constant unit and its
# inverse is a series.  The table is kept to precision m + 2 and checked
# on monomials of degree <= 4; n = 4 reaches Laplace _det.  Q n = 3,
# m = 4 and GF(p) n = 4, m = 4 are left out: one such op takes 0.6 to
# 1.8 s, most of a pass.
DENSE_EXTRA, DENSE_MAX_DEGREE = 2, 4
DENSE_CONFIGS = [
    ("Q", 2, 3, 16), ("Q", 2, 4, 6), ("Q", 3, 3, 4),
    ("F2", 2, 3, 10), ("F3", 2, 3, 12), ("F5", 2, 3, 12),
    ("F2", 2, 4, 8), ("F3", 2, 4, 10), ("F5", 2, 4, 6),
    ("F3", 3, 3, 8), ("F5", 3, 3, 4), ("F2", 3, 4, 3), ("F3", 4, 3, 3),
]

# (field, family kind, n, N) for kernel-verify: quotient problems of
# order N with families of length N - 1 and no target.  Random families
# skip (2, 9) and (3, 7), and over Q also (4, 5), where one Q kernel
# takes half a second or more.
KERNEL_SIZES = {
    "taylor": ((1, 12), (1, 16), (2, 8), (2, 9), (3, 6), (3, 7), (4, 5)),
    "random": ((1, 12), (1, 16), (2, 8), (3, 6), (4, 5)),
}
KERNEL_CONFIGS = [
    (field, kind, n, order)
    for field in FIELDS
    for kind, sizes in KERNEL_SIZES.items()
    for n, order in sizes
    if not (field == "Q" and kind == "random" and n == 4)
]
# verify checks every monomial pair of degree <= 2 for each of the n
# derivations, which from n = 3 on would outweigh the kernels; it runs on
# the problems with n <= 2, with 5 random pairs per derivation.
VERIFY_MAX_NVARS, VERIFY_TRIALS = 2, 5


def _scalar(rng: random.Random, p: int | None) -> str:
    """A nonzero coefficient in its wire form."""
    if p is not None:
        return str(rng.randrange(1, p))
    return str(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))


def _exponents(rng: random.Random, n: int, degree: int) -> tuple:
    exps = [0] * n
    for _ in range(degree):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def _grlex(e) -> tuple:
    return (sum(e), tuple(-x for x in e))


def _series(terms: dict) -> dict:
    return {
        "prec": "exact",
        "terms": [list(e) + [terms[e]] for e in sorted(terms, key=_grlex)],
    }


def _poly(rng, shape, n, p, min_terms, max_terms, lo, hi) -> dict:
    """Between min_terms and max_terms terms of total degree lo..hi.

    ``shape`` draws the number of terms and their monomials, ``rng`` the
    coefficients; a repeated monomial is drawn again a few times before
    it is merged.
    """
    terms = {}
    for _ in range(shape.randint(min_terms, max_terms)):
        degree = shape.randint(lo, hi)
        for _ in range(4):
            e = _exponents(shape, n, degree)
            if e not in terms:
                break
        terms[e] = _scalar(rng, p)
    return terms


def _variable(n: int, j: int) -> dict:
    return {tuple(int(d == j) for d in range(n)): "1"}


def _derivation(name, n, m, coeffs) -> dict:
    """coeffs(j, i) gives the terms of the t^i coefficient of E(X_j)."""
    images = [
        [_series(_variable(n, j))] + [_series(coeffs(j, i)) for i in range(1, m + 1)]
        for j in range(n)
    ]
    out = {"nvars": n, "length": m, "images": images}
    if name is not None:
        out["name"] = name
    return out


def taylor_family(n: int, m: int) -> list:
    """The shift family: E^d(X_d) = X_d + t, E^d(X_j) = X_j otherwise."""
    return [
        _derivation(f"taylor{d + 1}", n, m,
                    lambda j, i, d=d: {(0,) * n: "1"} if (j == d and i == 1) else {})
        for d in range(n)
    ]


def random_family(rng, shape, n, m, p) -> list:
    """E^d(X_j) = X_j + (delta_jd + one term of degree 1 or 2) t: each
    member integrates a derivation whose values on the variables are the
    identity plus terms of positive degree, so the degree-1 determinant is
    a unit that is not constant."""

    def coeffs(d, j, i):
        if i > 1:
            return {}
        terms = _poly(rng, shape, n, p, 1, 1, 1, 2)
        if j == d:
            terms[(0,) * n] = "1"
        return terms

    return [
        _derivation(f"D{d + 1}", n, m, lambda j, i, d=d: coeffs(d, j, i))
        for d in range(n)
    ]


def random_target(rng, shape, n, m, p, max_terms=2) -> dict:
    """Image coefficients with up to max_terms terms of degree <= 2."""
    return _derivation(None, n, m, lambda j, i: _poly(rng, shape, n, p, 0, max_terms, 0, 2))


def _problem(field, n, m, truncation, seed, family, target=None) -> dict:
    out = {
        "field": field, "nvars": n, "length": m, "truncation": truncation,
        "seed": seed, "derivations": family,
    }
    if target is not None:
        out["target"] = target
    return out


def p_power_monomials(n: int, order: int, p: int | None) -> int:
    """Monomials of degree < order with every exponent divisible by p:
    the kernel dimension of the Taylor family's weight-1 components."""
    if p is None:
        return 1
    return sum(comb(n - 1 + k, n - 1) for k in range((order - 1) // p + 1))


def _rngs(workload: str, seed: int, name: str) -> tuple:
    """The coefficient generator, which follows the seed, and the shape
    generator, which is the same for every seed so that a problem's
    terms, and hence its cost, stay put."""
    return random.Random(f"{workload}/{seed}/{name}"), random.Random(f"{workload}/shape/{name}")


def _decompose_items(workload, seed, configs, family_of, extra, max_degree):
    """decompose ops at truncation m + extra, verified to max_degree."""
    out = []
    for field, n, m, count in configs:
        p = FIELDS[field]
        for k in range(count):
            name = f"{field}-n{n}-m{m}-{k:02d}"
            rng, shape = _rngs(workload, seed, name)
            problem = _problem(field, n, m, m + extra, rng.randrange(1 << 30),
                               family_of(rng, shape, n, m, p),
                               random_target(rng, shape, n, m, p))
            expect = {"verified_to_degree": max_degree, "checks": comb(n + max_degree, n) * m}
            ops = [(["decompose", "--max-degree", str(max_degree)], expect)]
            out.append((name, field, n, problem, ops))
    return out


def _kernel_items(workload, seed):
    out = []
    for field, kind, n, order in KERNEL_CONFIGS:
        p = FIELDS[field]
        name = f"{field}-{kind}-n{n}-N{order}"
        rng, shape = _rngs(workload, seed, name)
        m = order - 1
        family = (taylor_family(n, m) if kind == "taylor"
                  else random_family(rng, shape, n, m, p))
        problem = _problem(field, n, m, order, rng.randrange(1 << 30), family)
        powers = p_power_monomials(n, order, p)
        ops = [
            (["kernel"], {"dimension": 1}),
            (["kernel", "--degree1-only"],
             {"dimension": powers} if kind == "taylor" else {"min_dimension": powers}),
        ]
        if n <= VERIFY_MAX_NVARS:
            ops.append((["verify", "--trials", str(VERIFY_TRIALS)], {"verdict": "verify: pass"}))
        out.append((name, field, n, problem, ops))
    return out


WORKLOADS = {
    "decompose-small": lambda seed: _decompose_items(
        "decompose-small", seed, SMALL_CONFIGS, lambda rng, shape, n, m, p: taylor_family(n, m),
        extra=5, max_degree=6),
    "decompose-dense": lambda seed: _decompose_items(
        "decompose-dense", seed, DENSE_CONFIGS, random_family,
        extra=DENSE_EXTRA, max_degree=DENSE_MAX_DEGREE),
    "kernel-verify": lambda seed: _kernel_items("kernel-verify", seed),
}


def generate(workload: str, seed: int) -> tuple[dict, list]:
    """The corpus as {file name: bytes} and the op list.

    Each op is a dict with an id, the file it reads, the CLI arguments
    after the file, the command, the field and the expected result.
    """
    files, ops = {}, []
    for name, field, n, problem, problem_ops in WORKLOADS[workload](seed):
        fname = f"{name}.json"
        files[fname] = (json.dumps(problem, sort_keys=True, separators=(",", ":")) + "\n").encode()
        for args, expect in problem_ops:
            ops.append({
                "id": f"{name}:{' '.join(args)}",
                "file": fname,
                "cmd": args[0],
                "args": args[1:],
                "field": field,
                "nvars": n,
                "expect": expect,
            })
    return files, ops


def corpus_digest(files: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


def write(files: dict, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (out / name).write_bytes(data)


def _setup_main(argv=None) -> int:
    import argparse
    import sys

    import calibrate

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", required=True, help="directory holding the hasseschmidt package")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)

    def set_up():
        import hasseschmidt  # (import time is part of set-up)

        files, _ = generate(args.workload, args.seed)
        write(files, Path(args.out))
        return hasseschmidt.__file__, files

    (module, files), wall_s, setup_s = calibrate.measure(set_up)
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "digest": corpus_digest(files),
        "module": module,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(_setup_main())
