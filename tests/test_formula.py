"""The support-refining order, pair enumeration and composition sums."""

import itertools

import pytest

from hasseschmidt import (
    GF,
    QQ,
    CoeffTable,
    Series,
    apply_table,
    composition_coeff,
    enumerate_pairs,
    succeq,
    taylor_basis,
)
from hasseschmidt.errors import LengthMismatch, OrderViolation
from hasseschmidt.formula import ordered_compositions

from conftest import random_series


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
    with pytest.raises(OrderViolation):
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
