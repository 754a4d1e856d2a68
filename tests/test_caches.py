"""Decomposition with carried table caches and shared sums, against the
uncached versions in ``reference``."""

import gc
import importlib

import pytest

from hasseschmidt import (
    GF,
    QQ,
    CoeffTable,
    Series,
    apply_table,
    decompose,
    degree1_matrix,
    residual,
    solve_derivation_coords,
    taylor_basis,
    verify_decomposition,
)
from hasseschmidt import formula
from hasseschmidt.formula import table_sum

import reference
from conftest import FIELDS, family_for, random_family, random_hsd, random_series, scaled_taylor

# the module, which the package's name ``decompose`` (the function) hides
decompose_module = importlib.import_module("hasseschmidt.decompose")

TAGS = (None, None, 1, 2, 3, 5)


def tags(table):
    return [[entry.precision for entry in row] for row in table.rows]


SHAPES = ((1, 2), (1, 4), (2, 2), (2, 3), (3, 2))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("kind", ["taylor", "random", "scaled"])
def test_decompose_matches_the_reference(field, kind, rng):
    for n, m in SHAPES:
        family = family_for(kind, rng, n, m, field)
        target = random_hsd(rng, n, m, field)
        out_precision = m + rng.randint(1, 3)
        verify_degree = rng.choice((-1, 0, 1, 3))
        result = decompose(target, family, out_precision, verify_degree)
        table, report = reference.decompose(target, family, out_precision, verify_degree)
        assert result.table == table
        assert tags(result.table) == tags(table)
        assert (result.verified_to_degree, result.witness) == (
            report.verified_to_degree, report.witness)


def perturbed_decomposition(target, family, out_precision, rng):
    """The level loop of ``decompose`` through the library's residual,
    solve and ``extended``, with one entry changed by a random series with
    a random tag before its row is added: later levels build on it from
    the carried sums, and the table fails where the change shows."""
    n, m, field = target.nvars, target.length, target.field
    matrix = degree1_matrix(family)
    variables = [Series.variable(n, field, j) for j in range(n)]
    bad_level, bad_d = rng.randint(1, m), rng.randrange(n)
    table = CoeffTable.empty(n, field)
    for level in range(1, m + 1):
        values = [residual(target, family, table, level, x) for x in variables]
        row = solve_derivation_coords(values, matrix, out_precision)
        if level == bad_level:
            row[bad_d] = row[bad_d] + Series.one(n, field) + random_series(
                rng, n, field, precision=rng.choice(TAGS)
            )
        table = table.extended(row)
    return table


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("kind", ["taylor", "random", "scaled"])
def test_verify_of_perturbed_tables_matches_the_reference(field, kind, rng):
    failed = 0
    for n, m in SHAPES:
        family = family_for(kind, rng, n, m, field)
        target = random_hsd(rng, n, m, field)
        table = perturbed_decomposition(target, family, m + 3, rng)
        for max_degree in (-1, 0, 1, 3):
            report = verify_decomposition(target, family, table, max_degree)
            assert report == reference.sweep(target, family, table, max_degree)
        failed += not report.passed
    assert failed


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_apply_table_on_an_extended_table_matches_a_fresh_one(field, rng):
    """Caches filled level by level on shorter tables, with mixed tags and
    zero entries, give what a fresh table of the same rows gives at every
    weight."""
    for trial, (n, m) in enumerate(((1, 4), (2, 3), (3, 2))):
        family = taylor_basis(n, m, field) if trial % 2 else random_family(rng, n, m, field)
        rows = [
            [random_series(rng, n, field, max_degree=2, max_terms=2, precision=rng.choice(TAGS))
             for _ in range(n)]
            for _ in range(m)
        ]
        fs = [Series.variable(n, field, j) for j in range(n)]
        fs += [random_series(rng, n, field, max_degree=3, precision=rng.choice(TAGS))
               for _ in range(2)]
        table = CoeffTable.empty(n, field)
        for level, row in enumerate(rows, 1):
            for f in fs:
                for i in range(1, level):
                    apply_table(table, family, i, f)
                table_sum(table, family, level, f)  # what the level residual reads
            table = table.extended(row)
        fresh = CoeffTable(rows, nvars=n, field=field)
        for i in range(1, m + 1):
            for f in fs:
                got = apply_table(table, family, i, f)
                assert got == apply_table(fresh, family, i, f)
                assert got == reference.apply_table(table, family, i, f)
                assert table_sum(table, family, i, f) == reference.table_sum(
                    table, family, i, f, min_parts=2
                )


def test_one_table_keeps_each_familys_own_sums(rng):
    """Sums are kept for one family at a time: a table used with A, then B,
    then A again gives each family its own sums, not the other's."""
    field, n, m = QQ, 2, 3
    rows = [[random_series(rng, n, field, max_degree=2) for _ in range(n)] for _ in range(m)]
    table = CoeffTable(rows, nvars=n, field=field)
    variables = [Series.variable(n, field, j) for j in range(n)]

    def check(family):
        for i in range(1, m + 1):
            for x in variables:
                assert apply_table(table, family, i, x) == reference.apply_table(
                    table, family, i, x
                )

    A, B = taylor_basis(n, m, field), random_family(rng, n, m, field)
    for family in (A, B, A, B):
        check(family)
        members, sums = table._sums
        assert all(a is b for a, b in zip(members, family)) and sums
    # a family dropped by its caller may not leave its sums to a new one
    # that the allocator places at the same addresses
    for _ in range(4):
        C = random_family(rng, n, m, field)
        check(C)
        del C
        gc.collect()


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_a_non_constant_determinant_is_inverted_once_per_matrix(field, rng, monkeypatch):
    calls = []
    inverse = Series.inverse

    def counted(self, precision):
        calls.append(precision)
        return inverse(self, precision)

    monkeypatch.setattr(Series, "inverse", counted)
    for n, m in ((1, 3), (2, 3), (3, 2)):
        family = scaled_taylor(n, m, field)
        matrix = degree1_matrix(family)
        x1 = Series.variable(n, field, 0)
        assert matrix.det == (Series.one(n, field) + x1) ** n
        target = random_hsd(rng, n, m, field)
        out_precision = m + 3
        del calls[:]
        result = decompose(target, family, out_precision, verify_degree=2)
        assert calls == [out_precision]
        # every coordinate is trusted to out_precision, no further
        assert tags(result.table) == [[out_precision] * n for _ in range(m)]
        assert result.passed
        values = [random_series(rng, n, field) for _ in range(n)]
        del calls[:]
        first = solve_derivation_coords(values, matrix, out_precision)
        assert solve_derivation_coords(values, matrix, out_precision) == first
        assert calls == [out_precision]
        assert first == reference.solve_derivation_coords(values, matrix, out_precision)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_the_inverse_is_built_once_per_matrix(field, rng, monkeypatch):
    """A solve reads the matrix's cached inverse: after the first solve,
    solves at the same precision make no determinant call.  A new
    precision builds it once more when the determinant is not constant,
    and not at all when it is (the inverse is exact)."""
    calls = []
    det = decompose_module._det

    def counted(rows):
        calls.append(len(rows))
        return det(rows)

    monkeypatch.setattr(decompose_module, "_det", counted)
    for n, m in ((1, 3), (2, 3), (3, 2)):
        for family, constant in ((scaled_taylor(n, m, field), False),
                                 (taylor_basis(n, m, field), True)):
            del calls[:]
            matrix = degree1_matrix(family)
            for_det = len(calls)
            assert (matrix.det.degree() <= 0) == constant
            out_precision = m + 3
            for precision in (out_precision, out_precision + 2):
                values = [random_series(rng, n, field) for _ in range(n)]
                del calls[:]
                first = solve_derivation_coords(values, matrix, precision)
                built = len(calls)
                if precision == out_precision:
                    for_inverse = built
                if n > 1:  # a 1x1 matrix has the inverse 1/det, without minors
                    assert (built == 0) == (constant and precision != out_precision)
                for _ in range(2):
                    assert solve_derivation_coords(values, matrix, precision) == first
                assert len(calls) == built
                assert first == reference.solve_derivation_coords(values, matrix, precision)
                inverse = matrix.inverse(precision)
                assert matrix.inverse(precision) is inverse
                entries = [entry for row in inverse for entry in row]
                if constant:
                    assert all(entry.precision is None for entry in entries)
                else:
                    assert all(sum(e) < precision for entry in entries
                               for e in entry.tuple_terms())
            # a decomposition builds the determinant and one inverse
            del calls[:]
            assert decompose(random_hsd(rng, n, m, field), family, out_precision, 2).passed
            assert len(calls) == for_det + for_inverse


def test_extended_carries_every_cache(rng):
    """Every cache of a table is handed on to the table one level longer:
    the coefficients copied, the sums copied for the same family, and the
    values D_mu(f), which read no row, shared."""
    field, n, m = GF(3), 2, 3
    # on the variables every D_mu with |mu| >= 2 of the Taylor family is
    # zero, so their sums read tags only; on f some D_mu is not
    family = taylor_basis(n, m + 1, field)
    rows = [[random_series(rng, n, field, max_degree=2) for _ in range(n)] for _ in range(m)]
    table = CoeffTable(rows[:-1], nvars=n, field=field)
    x = Series.variable(n, field, 0)
    f = Series.monomial(n, field, (2, 1))
    for i in range(1, m):
        apply_table(table, family, i, x)
        apply_table(table, family, i, f)
    table_sum(table, family, m, x)
    longer = table.extended(rows[-1])
    assert table._products
    assert all(longer._products[key] is value for key, value in table._products.items())
    members, sums = table._sums
    longer_members, longer_sums = longer._sums
    assert all(a is b for a, b in zip(longer_members, members))
    assert len(longer_members) == len(members) == len(family)
    assert sums and all(longer_sums[key] is value for key, value in sums.items())
    assert longer_sums is not sums
    assert set(table._images) == {x, f} and longer._images is table._images
    # the longer table's own entries stay out of the shorter one's caches:
    # that one has no row m to build weight m or m + 1 from
    products = dict(table._products)
    apply_table(longer, family, m, x)
    table_sum(longer, family, m + 1, x)
    table_sum(longer, family, m + 1, f)
    assert ((1,) + (0,) * (n - 1), m) in longer._products
    assert len(longer._products) > len(products) and table._products == products
    for g in (x, f):  # through the tags of the rows alone and through product_coeff
        with pytest.raises(IndexError):
            table_sum(table, family, m + 1, g)


@pytest.mark.parametrize("kind", ["taylor", "random", "scaled"])
def test_decompose_applies_each_term_once_per_variable(kind, rng, monkeypatch):
    """A decomposition evaluates each D_mu on each variable at most once,
    through the values its tables share; the check on the variables
    applies only the single-factor terms anew.  A Taylor family moves no
    variable by a D_mu with |mu| >= 2, so no such coefficient is built."""
    evaluated, composed = [], []
    image, compose = formula._image, formula.compose_multi

    def counted_image(family, images, mu):
        if mu not in images:
            evaluated.append((images[(0,) * len(mu)], mu))
        return image(family, images, mu)

    def counted_compose(family, mu, f):
        composed.append(mu)
        return compose(family, mu, f)

    monkeypatch.setattr(formula, "_image", counted_image)
    monkeypatch.setattr(formula, "compose_multi", counted_compose)
    field = GF(5)
    for n, m in ((1, 4), (2, 3), (3, 2)):
        family = family_for(kind, rng, n, m, field)
        target = random_hsd(rng, n, m, field)
        del evaluated[:], composed[:]
        table = decompose(target, family, m + 2, verify_degree=3).table
        variables = {Series.variable(n, field, j) for j in range(n)}
        assert evaluated and len(set(evaluated)) == len(evaluated)
        assert {f for f, _ in evaluated} == variables
        assert all(sum(mu) == 1 for mu in composed)
        for f, mu in evaluated:
            assert table._images[f][mu] == compose(family, mu, f)
        if kind == "taylor":
            assert not [mu for mu, _ in table._products if sum(mu) >= 2]
