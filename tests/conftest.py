"""Shared generators and comparison helpers for the test suite."""

import json
import random
from fractions import Fraction

import pytest

from hasseschmidt import (
    GF, QQ, CoeffTable, HSDerivation, Series, TSeries, integrate, serialize, taylor_basis,
)
from hasseschmidt.decompose import degree1_matrix
from hasseschmidt.errors import NotABasis


FIELDS = [QQ, GF(2), GF(3), GF(5)]


def as_json(form):
    """The JSON value of an emitted form, whose Series leaves only
    ``serialize.dumps`` writes: the value its canonical text parses to."""
    return json.loads(serialize.dumps(form))


def random_scalar(rng, field, nonzero=False):
    if field.p is not None:
        lo = 1 if nonzero else 0
        return rng.randrange(lo, field.p)
    while True:
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        if c or not nonzero:
            return c


def random_exponents(rng, nvars, max_degree):
    exps = []
    budget = max_degree
    for _ in range(nvars):
        e = rng.randint(0, budget)
        exps.append(e)
        budget -= e
    rng.shuffle(exps)
    return tuple(exps)


def random_series(rng, nvars, field, max_degree=3, max_terms=3, precision=None):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[random_exponents(rng, nvars, max_degree)] = random_scalar(rng, field)
    return Series(nvars, field, terms, precision)


def random_hsd(rng, nvars, length, field, max_degree=2, max_terms=2):
    """A random Hasse-Schmidt derivation: variable images X_j plus random
    exact polynomial t-coefficients."""
    images = []
    for j in range(nvars):
        coeffs = [Series.variable(nvars, field, j)]
        for _ in range(length):
            coeffs.append(random_series(rng, nvars, field, max_degree, max_terms))
        images.append(TSeries(coeffs))
    return HSDerivation(images)


def random_table(rng, n, m, field):
    """A coefficient table of random entries with mixed tags, a fifth of
    them zero with a low finite tag."""
    def entry():
        if rng.random() < 0.2:
            return Series.zero(n, field, rng.choice((0, 1, 2)))
        return random_series(rng, n, field, max_degree=2, max_terms=2,
                             precision=rng.choice((None, None, 1, 2, 3)))

    return CoeffTable([[entry() for _ in range(n)] for _ in range(m)], nvars=n, field=field)


def random_family(rng, n, m, field):
    """A non-Taylor family: member d sends X_j to X_j + (delta_jd + X_1 r) t
    + random higher terms, so the degree-1 determinant is a unit but not
    a constant."""
    x1 = Series.variable(n, field, 0)
    family = []
    for d in range(n):
        images = []
        for j in range(n):
            first = x1 * random_series(rng, n, field, max_degree=1, max_terms=2)
            if j == d:
                first = first + Series.one(n, field)
            rest = [random_series(rng, n, field, max_degree=2, max_terms=2) for _ in range(m - 1)]
            images.append(TSeries([Series.variable(n, field, j), first] + rest))
        family.append(HSDerivation(images))
    return family


def scaled_taylor(n, m, field):
    """Members (1 + X_1) d/dX_d: the degree-1 matrix is (1 + X_1) times the
    Taylor matrix, a unit whose determinant (1 + X_1)^n is not constant."""
    one, zero, x1 = Series.one(n, field), Series.zero(n, field), Series.variable(n, field, 0)
    return [
        integrate([one + x1 if j == d else zero for j in range(n)], m)
        for d in range(n)
    ]


def random_unit_family(rng, n, m, field):
    """n ``random_hsd`` members, member d with 1 added to the t^1
    coefficient of E(X_d), drawn again until the degree-1 determinant is
    a unit (random constant terms can still cancel it)."""
    one = Series.one(n, field)
    while True:
        family = []
        for d in range(n):
            images = [list(img.coeffs) for img in random_hsd(rng, n, m, field).images]
            images[d][1] = images[d][1] + one
            family.append(HSDerivation([TSeries(coeffs) for coeffs in images]))
        try:
            degree1_matrix(family)
        except NotABasis:
            continue
        return family


def family_for(kind, rng, n, m, field):
    """Taylor, ``random_family``, (1 + X_1) * Taylor, or ``random_hsd``
    members with a unit degree-1 determinant."""
    if kind == "taylor":
        return taylor_basis(n, m, field)
    if kind == "random":
        return random_family(rng, n, m, field)
    if kind == "scaled":
        return scaled_taylor(n, m, field)
    return random_unit_family(rng, n, m, field)


def assert_agree_to_trusted(a, b, msg=""):
    from hasseschmidt.series import min_prec

    p = min_prec(a.precision, b.precision)
    assert a.truncate(p) == b.truncate(p), msg or f"{a} != {b} at precision {p}"


@pytest.fixture
def rng():
    return random.Random(20260810)


# -- acceptance summary ----------------------------------------------------

_ACCEPTANCE_RESULTS = {}


def record_acceptance(name, passed, detail=""):
    _ACCEPTANCE_RESULTS[name] = (passed, detail)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        passed, detail = _ACCEPTANCE_RESULTS[name]
        status = "PASS" if passed else "FAIL"
        line = f"{name}: {status}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
