"""Acceptance suite: every criterion at its stated tolerance.

Each test asserts its criterion exactly and records a one-line PASS/FAIL
summary, printed in the pytest terminal summary.  The decomposition
round-trip sweep (criterion 1) is shared with the residual checks
(criterion 4) through a module-scoped fixture so the 1800 decompositions
run once.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from hasseschmidt import (
    GF,
    QQ,
    CoeffTable,
    HSDerivation,
    Series,
    TSeries,
    apply_table,
    binom_multi,
    coefficient_field,
    component_matrix,
    decompose,
    group_compose,
    group_inverse,
    integrate,
    joint_kernel,
    residual,
    taylor_basis,
    taylor_delta_table,
    taylor_derivation,
)
from hasseschmidt import serialize

import reference
from conftest import record_acceptance, random_hsd, random_series

FIELDS = [QQ, GF(2), GF(3), GF(5)]
NVARS = [1, 2, 3]
LENGTHS = [2, 3, 4]
TARGETS_PER_CONFIG = 50
VERIFY_DEGREE = 6
RESIDUAL_PAIRS = 20


# -- criteria 1 and 4: the shared sweep --------------------------------------


@pytest.fixture(scope="module")
def sweep():
    """Decompose 50 random targets per configuration against the standard
    family, verify the reconstruction up to degree 6, and run the
    residual product-rule checks at every level.  Every verification is
    repeated by the reference monomial sweep, whose report must match."""
    roundtrip_failures = []
    oracle_mismatches = []
    residual_failures = []
    decompositions = 0
    residual_checks = 0
    roundtrip_elapsed = 0.0
    for field, n, m in itertools.product(FIELDS, NVARS, LENGTHS):
        family = taylor_basis(n, m, field)
        rng = random.Random(f"sweep-{field!r}-{n}-{m}")
        for trial in range(TARGETS_PER_CONFIG):
            target = random_hsd(rng, n, m, field)
            t0 = time.perf_counter()
            result = decompose(target, family, out_precision=m + 5, verify_degree=VERIFY_DEGREE)
            roundtrip_elapsed += time.perf_counter() - t0
            decompositions += 1
            oracle = reference.sweep(target, family, result.table, VERIFY_DEGREE, apply_table)
            if (oracle.passed, oracle.verified_to_degree, oracle.witness) != (
                result.passed, result.verified_to_degree, result.witness
            ):
                oracle_mismatches.append((field, n, m, trial))
            if not result.passed or result.verified_to_degree != VERIFY_DEGREE:
                roundtrip_failures.append((field, n, m, trial, result.witness))
                continue
            for level in range(1, m + 1):
                partial = CoeffTable(result.table.rows[: level - 1], nvars=n, field=field)
                for _ in range(RESIDUAL_PAIRS):
                    f = random_series(rng, n, field, max_degree=2, max_terms=2)
                    g = random_series(rng, n, field, max_degree=2, max_terms=2)
                    lhs = residual(target, family, partial, level, f * g)
                    rhs = residual(target, family, partial, level, f) * g + f * residual(
                        target, family, partial, level, g
                    )
                    residual_checks += 1
                    if lhs != rhs:
                        residual_failures.append((field, n, m, trial, level))
    return {
        "roundtrip_failures": roundtrip_failures,
        "oracle_mismatches": oracle_mismatches,
        "residual_failures": residual_failures,
        "decompositions": decompositions,
        "residual_checks": residual_checks,
        "roundtrip_elapsed": roundtrip_elapsed,
    }


def test_criterion_1_decompose_round_trip(sweep):
    failures = sweep["roundtrip_failures"]
    mismatches = sweep["oracle_mismatches"]
    elapsed = sweep["roundtrip_elapsed"]
    passed = not failures and not mismatches and elapsed < 120.0
    record_acceptance(
        "criterion 1: decompose round-trip",
        passed,
        f"{sweep['decompositions']} decompositions, {elapsed:.1f}s, {len(failures)} failures, "
        f"{len(mismatches)} reports differing from the reference sweep",
    )
    assert not failures, failures[:3]
    assert not mismatches, mismatches[:3]
    assert elapsed < 120.0, f"round-trip sweep took {elapsed:.1f}s"


def test_criterion_4_residuals_obey_the_product_rule(sweep):
    failures = sweep["residual_failures"]
    record_acceptance(
        "criterion 4: residual product rule",
        not failures,
        f"{sweep['residual_checks']} pairs checked, {len(failures)} failures",
    )
    assert not failures, failures[:3]


# -- criterion 2: the worked example ------------------------------------------


def test_criterion_2_worked_example_exactness():
    field = QQ
    x = Series.variable(1, field, 0)
    one = Series.one(1, field)
    target = HSDerivation([TSeries([x, x, one])])
    family = taylor_basis(1, 2, field)
    result = decompose(target, family, out_precision=6)
    table_exact = result.table.rows == [[x], [one]]
    direct = target.apply_component(2, x * x)
    reconstructed = apply_table(result.table, family, 2, x * x)
    values_match = direct == x * x + 2 * x and reconstructed == x * x + 2 * x
    record_acceptance(
        "criterion 2: worked example",
        table_exact and values_match,
        f"C = {[str(c) for row in result.table.rows for c in row]}",
    )
    assert table_exact
    assert values_match


# -- criterion 3: uniqueness and order dependence ------------------------------


def test_criterion_3_uniqueness_and_order_dependence():
    # byte-identical repeated runs, built from scratch both times
    def run_bytes():
        field = QQ
        x = Series.variable(1, field, 0)
        target = HSDerivation([TSeries([x, x, Series.one(1, field)])])
        result = decompose(target, taylor_basis(1, 2, field), out_precision=6)
        return serialize.dumps(serialize.decomposition_to_json(result)).encode()

    identical = run_bytes() == run_bytes()

    # a pinned instance whose table is not a slot permutation of the
    # reversed family's table
    field = QQ
    x1, x2 = Series.variable(2, field, 0), Series.variable(2, field, 1)
    one, zero = Series.one(2, field), Series.zero(2, field)
    D1 = taylor_derivation(2, 2, field, 0)
    D2 = integrate([x1, one], 2)
    target = HSDerivation([TSeries([x1, x2, one]), TSeries([x2, x1, zero])])
    ab = decompose(target, [D1, D2], out_precision=8, verify_degree=4)
    ba = decompose(target, [D2, D1], out_precision=8, verify_degree=4)
    swapped = CoeffTable([[row[1], row[0]] for row in ba.table.rows])
    order_matters = ab.passed and ba.passed and swapped != ab.table

    record_acceptance(
        "criterion 3: uniqueness and order dependence",
        identical and order_matters,
        f"byte-identical={identical}, order-sensitive={order_matters}",
    )
    assert identical
    assert order_matters


# -- criterion 5: coefficient fields in characteristic p -------------------------


def brute_force_kernel_dimension(p, mats, dim):
    count = 0
    for vec in itertools.product(range(p), repeat=dim):
        if all(all(v == 0 for v in mat.apply_coords(list(vec))) for mat in mats):
            count += 1
    return round(math.log(count, p))


def test_criterion_5_char_p_coefficient_fields():
    details = []
    ok = True

    # p = 2, N = 5, with the independent exhaustive oracle
    field = GF(2)
    family = [taylor_derivation(1, 4, field, 0)]
    full = coefficient_field(family, 5)
    partial = coefficient_field(family, 5, degree1_only=True)
    full_mats = [component_matrix(family[0], i, 5) for i in range(1, 5)]
    d1_mats = [component_matrix(family[0], 1, 5)]
    oracle_full = brute_force_kernel_dimension(2, full_mats, 5)
    oracle_d1 = brute_force_kernel_dimension(2, d1_mats, 5)
    ok &= full.dimension == 1 and partial.dimension == 3
    ok &= oracle_full == 1 and oracle_d1 == 3
    details.append(f"p=2: full={full.dimension} d1={partial.dimension} (oracle {oracle_full}/{oracle_d1})")

    # replication: p in {3, 5, 7} with N = p + 2
    for p in (3, 5, 7):
        field = GF(p)
        N = p + 2
        family = [taylor_derivation(1, N - 1, field, 0)]
        full = coefficient_field(family, N)
        partial = coefficient_field(family, N, degree1_only=True)
        ok &= full.dimension == 1 and partial.dimension >= 2
        # diagonal oracle: d/dX annihilates X^k mod p exactly when p | k
        expected_d1 = len([k for k in range(N) if k % p == 0])
        ok &= partial.dimension == expected_d1
        details.append(f"p={p}: full={full.dimension} d1={partial.dimension}")

    record_acceptance("criterion 5: char-p coefficient fields", ok, "; ".join(details))
    assert ok, details


# -- criterion 6: Taylor identities ------------------------------------------------


def partial_derivative(f, j):
    field = f.field
    terms = {}
    for e, c in f.tuple_terms().items():
        if e[j]:
            lower = list(e)
            lower[j] -= 1
            v = field.mul(c, field.coerce(e[j]))
            if v:
                terms[tuple(lower)] = v
    return Series(f.nvars, field, terms)


def test_criterion_6_taylor_identities():
    rng = random.Random("taylor-identities")
    factorial_ok = True
    for nvars in (1, 2, 3):
        for _ in range(5):
            f = random_series(rng, nvars, QQ, max_degree=5, max_terms=4)
            table = taylor_delta_table(f, (4,) * nvars)
            for alpha, value in table.items():
                if sum(alpha) > 4:
                    continue
                expect = f
                for j, k in enumerate(alpha):
                    for _ in range(k):
                        expect = partial_derivative(expect, j)
                fact = 1
                for a in alpha:
                    fact *= math.factorial(a)
                if value * fact != expect:
                    factorial_ok = False

    product_rule_failures = 0
    for trial in range(100):
        field = [QQ, GF(2), GF(5)][trial % 3]
        nvars = 1 + trial % 2
        f = random_series(rng, nvars, field, max_degree=3, max_terms=3)
        g = random_series(rng, nvars, field, max_degree=3, max_terms=3)
        bound = (3,) * nvars
        tf = taylor_delta_table(f, bound)
        tg = taylor_delta_table(g, bound)
        tfg = taylor_delta_table(f * g, bound)
        for alpha in tfg:
            convolution = Series.zero(nvars, field)
            for beta in tf:
                sigma = tuple(a - b for a, b in zip(alpha, beta))
                if any(s < 0 for s in sigma):
                    continue
                convolution = convolution + tf[beta] * tg[sigma]
            if convolution != tfg[alpha]:
                product_rule_failures += 1

    passed = factorial_ok and product_rule_failures == 0
    record_acceptance(
        "criterion 6: Taylor identities",
        passed,
        f"factorial identity ok={factorial_ok}, product-rule failures={product_rule_failures}/100 pairs",
    )
    assert factorial_ok
    assert product_rule_failures == 0


# -- criterion 7: group axioms ---------------------------------------------------------


def test_criterion_7_group_axioms():
    rng = random.Random("group-axioms")
    failures = 0
    triples = 0
    for trial in range(50):
        field = FIELDS[trial % 4]
        n = 1 + trial % 2
        m = 2 + trial % 3  # lengths 2..4
        A = random_hsd(rng, n, m, field)
        B = random_hsd(rng, n, m, field)
        C = random_hsd(rng, n, m, field)
        e = HSDerivation.identity(n, m, field)
        triples += 1
        if group_compose(group_compose(A, B), C) != group_compose(A, group_compose(B, C)):
            failures += 1
        if group_compose(A, e) != A or group_compose(e, A) != A:
            failures += 1
        if group_compose(A, group_inverse(A)) != e or group_compose(group_inverse(A), A) != e:
            failures += 1
        AB = group_compose(A, B)
        if any(AB.images[j].coeffs[1] != A.images[j].coeffs[1] + B.images[j].coeffs[1]
               for j in range(n)):
            failures += 1
    record_acceptance(
        "criterion 7: group axioms",
        failures == 0,
        f"{triples} random triples, {failures} failures",
    )
    assert failures == 0


# -- criterion 8: binomials mod p --------------------------------------------------------


def test_criterion_8_lucas_exhaustive():
    checked = 0
    failures = 0
    for p in (2, 3, 5, 7):
        field = GF(p)
        for nvars in (1, 2, 3):
            degree_cap = 12 if nvars == 1 else 6
            betas = [
                b
                for b in itertools.product(range(degree_cap + 1), repeat=nvars)
                if sum(b) <= 12
            ]
            for beta in betas:
                boxes = itertools.product(*(range(b + 1) for b in beta))
                for alpha in boxes:
                    expect = 1
                    for b, a in zip(beta, alpha):
                        expect *= math.comb(b, a)
                    checked += 1
                    if binom_multi(beta, alpha, field) != expect % p:
                        failures += 1
    record_acceptance(
        "criterion 8: binomials mod p",
        failures == 0,
        f"{checked} pairs checked exhaustively, {failures} failures",
    )
    assert failures == 0
