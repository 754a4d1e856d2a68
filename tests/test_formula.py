"""The pair-by-pair oracle (support-refining order, pair enumeration and
composition sums in ``reference``), and table application."""

import itertools

import pytest

from hasseschmidt import GF, QQ, CoeffTable, Series, apply_table, residual, taylor_basis
from hasseschmidt.derivations import compose_multi
from hasseschmidt.errors import LengthMismatch
from hasseschmidt.formula import weighted_terms
from hasseschmidt.series import monomials_of_degree

import reference
from conftest import FIELDS, random_family, random_hsd, random_series, random_table
from reference import composition_coeff, enumerate_pairs, ordered_compositions, succeq


# -- the order ---------------------------------------------------------------

def test_succeq_examples():
    assert succeq((3, 0), (2, 0))
    assert not succeq((2, 1), (2, 0))  # support may not grow
    assert succeq((2, 1), (2, 1))
    assert not succeq((1, 2), (2, 2))


def test_succeq_length_mismatch():
    with pytest.raises(LengthMismatch):
        succeq((1, 2), (1,))


# -- pair enumeration -----------------------------------------------------------

def brute_force_pairs(i, m, n):
    box = itertools.product(range(i + 1), repeat=n)
    lams = [b for b in box if sum(b) == i]
    mus = [b for b in itertools.product(range(m + 1), repeat=n) if sum(b) == m]
    return sorted(
        ((lam, mu) for lam in lams for mu in mus if succeq(lam, mu)), reverse=True
    )


def test_enumerate_pairs_examples():
    assert enumerate_pairs(3, 2, 1) == [((3,), (2,))]
    assert enumerate_pairs(2, 2, 2) == [
        ((2, 0), (2, 0)),
        ((1, 1), (1, 1)),
        ((0, 2), (0, 2)),
    ]
    assert enumerate_pairs(2, 1, 2) == [((2, 0), (1, 0)), ((0, 2), (0, 1))]


def test_enumerate_pairs_empty_when_m_exceeds_i():
    assert enumerate_pairs(2, 3, 2) == []


def test_enumerate_pairs_matches_brute_force():
    for n in (1, 2, 3):
        for i in range(1, 7):
            for m in range(1, i + 1):
                assert enumerate_pairs(i, m, n) == brute_force_pairs(i, m, n), (i, m, n)


def test_ordered_compositions_are_ordered_tuples():
    assert list(ordered_compositions(3, 2)) == [(1, 2), (2, 1)]
    assert list(ordered_compositions(2, 2)) == [(1, 1)]
    assert list(ordered_compositions(0, 0)) == [()]
    assert list(ordered_compositions(2, 3)) == []


# -- composition coefficients ------------------------------------------------------

def test_composition_coeff_empty_pair_is_one():
    table = CoeffTable([[Series.variable(1, QQ, 0)]])
    # n = 1 table; lambda = mu = (0) has the empty-composition convention
    assert composition_coeff(table, (0,), (0,)) == Series.one(1, QQ)


def test_composition_coeff_unique_composition():
    c1 = Series.variable(1, QQ, 0)
    table = CoeffTable([[c1], [c1 * c1]])  # C[1] = X, C[2] = X^2
    assert composition_coeff(table, (2,), (2,)) == c1 * c1  # 2 = 1+1: C[1]^2


def test_composition_coeff_counts_ordered_compositions():
    x = Series.variable(1, QQ, 0)
    one = Series.one(1, QQ)
    table = CoeffTable([[x], [one]])  # C[1] = X, C[2] = 1
    # 3 = 1+2 = 2+1, so the sum is 2 * C[1] * C[2] = 2X
    assert composition_coeff(table, (3,), (2,)) == 2 * x


def test_composition_coeff_requires_order():
    table = CoeffTable([[Series.one(2, QQ), Series.one(2, QQ)]])
    with pytest.raises(ValueError):
        composition_coeff(table, (1, 0), (0, 1))


def test_composition_coeff_is_multiplicative_across_slots(rng):
    """The multi-slot value equals the product of single-slot sums computed
    by explicit composition enumeration (oracle)."""
    m, n = 3, 2
    field = GF(5)
    rows = [[random_series(rng, n, field, 2, 2) for _ in range(n)] for _ in range(m)]
    table = CoeffTable(rows, nvars=n, field=field)
    for lam, mu in [((2, 1), (1, 1)), ((3, 0), (2, 0)), ((2, 2), (2, 1)), ((1, 1), (1, 1))]:
        expect = Series.one(n, field)
        for d in range(n):
            slot = Series.zero(n, field)
            for comp in ordered_compositions(lam[d], mu[d]):
                prod = Series.one(n, field)
                for part in comp:
                    prod = prod * table.at(part, d)
                slot = slot + prod
            expect = expect * slot
        assert composition_coeff(table, lam, mu) == expect, (lam, mu)


# -- applying a table ------------------------------------------------------------------

def test_apply_table_delta_slot_selects_one_member(rng):
    """C[1][0] = 1 and all else 0 reproduces the first member's components."""
    n, m, field = 2, 3, QQ
    family = taylor_basis(n, m, field)
    one, zero = Series.one(n, field), Series.zero(n, field)
    rows = [[one, zero]] + [[zero, zero] for _ in range(m - 1)]
    table = CoeffTable(rows)
    f = random_series(rng, n, field, max_degree=4, max_terms=3)
    for i in range(1, m + 1):
        assert apply_table(table, family, i, f) == family[0].apply_component(i, f)


def test_apply_table_weight_one_is_linear_combination(rng):
    n, m, field = 2, 2, GF(3)
    family = taylor_basis(n, m, field)
    rows = [[random_series(rng, n, field, 2, 2) for _ in range(n)] for _ in range(m)]
    table = CoeffTable(rows, nvars=n, field=field)
    f = random_series(rng, n, field, max_degree=3, max_terms=3)
    expect = Series.zero(n, field)
    for d in range(n):
        expect = expect + table.at(1, d) * family[d].apply_component(1, f)
    assert apply_table(table, family, 1, f) == expect


def test_apply_table_propagates_component_errors():
    from hasseschmidt.errors import ComponentOutOfRange

    family = taylor_basis(1, 2, QQ)
    x = Series.variable(1, QQ, 0)
    table = CoeffTable([[x], [x], [x]])  # three levels but length-2 family
    with pytest.raises(ComponentOutOfRange):
        apply_table(table, family, 3, x)


def test_apply_table_worked_case():
    """C = [X, 1] over the shift family reproduces E(X) = X + X t + t^2:
    the weight-2 value on X^2 is C[2] D_1(X^2) + C[1]^2 D_2(X^2) = 2X + X^2."""
    field = QQ
    x = Series.variable(1, field, 0)
    family = taylor_basis(1, 2, field)
    table = CoeffTable([[x], [Series.one(1, field)]])
    assert apply_table(table, family, 2, x * x) == 2 * x + x * x
    assert apply_table(table, family, 1, x * x) == x * (2 * x)


@pytest.mark.parametrize("zero_level", [1, 2])
def test_apply_table_keeps_the_tag_of_a_vanished_term(zero_level):
    """A zero entry trusted to degree 1 makes every product it enters
    vanish, and still bounds the precision of every weight from its level
    on, including through powers such as C[1]^2 and C[1]^3."""
    field = QQ
    x = Series.variable(1, field, 0)
    family = taylor_basis(1, 3, field)
    rows = [[x], [x], [x]]
    rows[zero_level - 1] = [Series.zero(1, field, 1)]
    table = CoeffTable(rows)
    tags = [apply_table(table, family, i, x).precision for i in (1, 2, 3)]
    assert tags == [None if i < zero_level else 1 for i in (1, 2, 3)]


# -- the library's rule against the pairs ------------------------------------------

@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_product_coeff_is_the_sum_over_the_pairs(field, rng):
    """[t^i] prod_d c_d(t)^mu_d equals the pair-by-pair sum in value and
    tag, and weighted_terms lists it once per mu unless it is exact zero."""
    for n in (1, 2, 3):
        for _ in range(4):
            m = rng.randint(1, 5)
            table = random_table(rng, n, m, field)
            for i in range(1, m + 1):
                for parts in range(1, i + 1):
                    for mu in monomials_of_degree(n, parts):
                        expect = Series.zero(n, field)
                        for lam, nu in reference.enumerate_pairs(i, parts, n):
                            if nu == mu:
                                expect = expect + reference.composition_coeff(table, lam, mu)
                        got = table.product_coeff(mu, i)
                        assert (got, got.precision) == (expect, expect.precision), (i, mu)
                for min_parts in (1, 2):
                    terms = weighted_terms(table, i, min_parts)
                    assert {mu: c for c, mu in terms} == {
                        mu: c for c, mu in reference.mu_terms(table, i, min_parts)
                        if c.terms or c.precision is not None
                    }
                    assert len({mu for _, mu in terms}) == len(terms)
                    sizes = [sum(mu) for _, mu in terms]
                    assert sizes == sorted(sizes)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_residual_and_apply_table_match_the_pairs(field, rng):
    """On variables and monomials, exact inputs: the library's one term
    per mu against the reference's one term per pair."""
    for n in (1, 2, 3):
        for trial in range(2):
            m = rng.randint(1, 4)
            family = taylor_basis(n, m, field) if trial else random_family(rng, n, m, field)
            target = random_hsd(rng, n, m, field)
            table = random_table(rng, n, m, field)
            fs = [Series.variable(n, field, j) for j in range(n)]
            fs += [Series.monomial(n, field, beta) for beta in monomials_of_degree(n, 2)]
            for i in range(1, m + 1):
                for f in fs:
                    got = apply_table(table, family, i, f)
                    assert got == reference.apply_table(table, family, i, f), (i, f)
                    got = residual(target, family, table, i, f)
                    assert got == reference.residual(target, family, table, i, f), (i, f)


def test_a_cancelled_coefficient_bounds_its_term_by_its_own_tag():
    """At weight 3 the pairs of mu = (1, 1) weigh C[2][0] C[1][1] = 0 + O(1)
    and C[1][0] C[2][1] = X1 X2 + O(3), whose sum truncates to 0 + O(1).
    The true coefficient lies in (X), so its term does too, whatever
    D_(1,1)(f) is: one term per mu keeps O(1), where applying each pair
    on an input f = O(X^2) takes the tag 0 of D_(1,1)(f)."""
    field = QQ
    x1, x2 = Series.variable(2, field, 0), Series.variable(2, field, 1)
    zero = Series.zero(2, field)
    table = CoeffTable([[x1.truncate(3), Series.zero(2, field, 1)], [zero, x2], [zero, zero]])
    family = taylor_basis(2, 3, field)
    f = Series.zero(2, field, 2)
    assert table.product_coeff((1, 1), 3) == Series.zero(2, field, 1)
    pairwise = f
    for coeff, mu in reference.weighted_terms(table, 3):
        pairwise = pairwise + (coeff * compose_multi(family, mu, f) if coeff.terms else coeff)
    assert pairwise == Series.zero(2, field, 0)
    assert apply_table(table, family, 3, f) == Series.zero(2, field, 1)
    assert reference.apply_table(table, family, 3, f) == Series.zero(2, field, 1)
