"""The shared product kernel and monomial-image builder against the
brute-force and recursive versions in ``reference``, the
sum-of-products accumulator against a chain of products and sums, and
the demand-driven table sums against the term-by-term sums."""

import pytest

from hasseschmidt import (
    QQ, CoeffTable, Series, TSeries, apply_table, substitute, taylor_basis,
)
from hasseschmidt.derivations import compose_multi, taylor_derivation
from hasseschmidt.formula import table_sum
from hasseschmidt.series import dot, monomials_of_degree

import reference
from conftest import (
    FIELDS, family_for, random_family, random_hsd, random_scalar, random_series, random_table,
)

PRECISIONS = (None, 1, 2, 3, 5, 7)


def random_tseries(rng, nvars, tlen, field, precision=None):
    """Random t-coefficients, the t^0 one included (not a variable)."""
    return TSeries([
        random_series(rng, nvars, field, max_degree=3, max_terms=3, precision=precision)
        for _ in range(tlen + 1)
    ])


def test_mul_matches_brute_force(rng):
    for field in FIELDS:
        for nvars in (1, 2, 3):
            for _ in range(30):
                a, b = (
                    random_series(rng, nvars, field, max_degree=5, max_terms=5,
                                  precision=rng.choice(PRECISIONS))
                    for _ in range(2)
                )
                assert a * b == reference.product(a, b), (a, b)


def test_tseries_mul_matches_brute_force(rng):
    for field in FIELDS:
        for tlen in (1, 2, 3):
            for _ in range(10):
                prec = rng.choice(PRECISIONS)
                a, b = (random_tseries(rng, 2, tlen, field, prec) for _ in range(2))
                assert a * b == reference.tseries_product(a, b), (a, b)


def test_inverse_matches_brute_force(rng):
    for field in FIELDS:
        for nvars in (1, 2, 3):
            for _ in range(15):
                a = random_series(rng, nvars, field, max_degree=4, max_terms=4,
                                  precision=rng.choice((None, 2, 4, 6)))
                a = a + random_scalar(rng, field, nonzero=True) - a.constant_term()
                target = rng.randint(1, 6)
                assert a.inverse(target) == reference.inverse(a, target), (a, target)


def test_substitute_matches_reference(rng):
    """Images whose t^0 coefficients are arbitrary polynomials."""
    for field in FIELDS:
        for nvars in (1, 2, 3):
            for tlen in (1, 2, 3):
                images = [random_tseries(rng, nvars, tlen, field) for _ in range(nvars)]
                for prec in PRECISIONS:
                    f = random_series(rng, nvars, field, max_degree=4, max_terms=4,
                                      precision=prec)
                    assert substitute(f, images) == reference.substitute(f, images), (f, images)


def test_apply_and_components_match_reference(rng):
    for field in FIELDS:
        for nvars in (1, 2, 3):
            for length in (1, 2, 4):
                D = random_hsd(rng, nvars, length, field)
                for prec in PRECISIONS:
                    f = random_series(rng, nvars, field, max_degree=4, max_terms=4,
                                      precision=prec)
                    assert D.apply(f) == reference.substitute(f, D.images), (D, f)
                    # the weight-i component is trusted to prec - i, not prec - length
                    exact = reference.substitute(Series(nvars, field, f.terms), D.images)
                    for i in range(length + 1):
                        expected = exact.coeffs[i]
                        if prec is not None:
                            expected = expected.truncate(max(prec - i, 0))
                        assert D.apply_component(i, f) == expected, (D, f, i)


def test_monomial_images_strip_the_first_variable_and_cache_every_step(rng):
    D = random_hsd(rng, 3, 2, QQ)
    D.apply_component(1, Series.monomial(3, QQ, (0, 2, 1)))
    assert set(D._mono_cache) == {(0, 2, 1), (0, 1, 1), (0, 0, 1), (0, 0, 0)}
    D.apply_component(2, Series.monomial(3, QQ, (1, 2, 1)))
    assert set(D._mono_cache) == {(1, 2, 1), (0, 2, 1), (0, 1, 1), (0, 0, 1), (0, 0, 0)}
    for exps, image in D._mono_cache.items():
        assert image == reference.substitute(Series.monomial(3, QQ, exps), D.images)
    cut = D._image_of_monomial((2, 0, 1), 4)
    assert set(D._cut_caches[4]) == {(2, 0, 1), (1, 0, 1), (0, 0, 1), (0, 0, 0)}
    exact = reference.substitute(Series.monomial(3, QQ, (2, 0, 1)), D.images)
    for i in range(3):
        assert cut.coeffs[i].truncate(4 - i) == exact.coeffs[i].truncate(4 - i)


@pytest.mark.parametrize("evaluate", ["apply_component", "apply", "substitute"])
def test_images_of_a_degree_3000_monomial(evaluate):
    """Monomial images are built by a loop, not a recursion, so no
    exponent runs into the interpreter's recursion limit."""
    D = taylor_derivation(2, 2, QQ, 0)
    f = Series.monomial(2, QQ, (3000, 0))
    if evaluate == "apply_component":
        value = D.apply_component(2, f)
    elif evaluate == "apply":
        value = D.apply(f).coeffs[2]
    else:
        value = substitute(f, D.images).coeffs[2]
    assert value == Series.monomial(2, QQ, (2998, 0), 3000 * 2999 // 2)


def random_operand(rng, nvars, field):
    """A random series, at times without terms, with a random tag."""
    return random_series(rng, nvars, field, max_degree=4, max_terms=rng.choice((0, 1, 3, 4)),
                         precision=rng.choice(PRECISIONS))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_dot_matches_the_chain_of_products_and_sums(field, rng):
    """Value and tag of one accumulator against a product and a sum per
    pair: operands without terms bound the tag, exact zeros do not, and
    cancelling pairs leave no zero coefficient behind."""
    for nvars in (1, 2, 3):
        for _ in range(40):
            pairs = [(random_operand(rng, nvars, field), random_operand(rng, nvars, field))
                     for _ in range(rng.randint(0, 4))]
            if pairs and rng.random() < 0.3:
                a, b = rng.choice(pairs)
                pairs.append((-a, b))
            if rng.random() < 0.3:
                pairs.append((Series.zero(nvars, field), random_operand(rng, nvars, field)))
            precision = rng.choice(PRECISIONS)
            chain = Series.zero(nvars, field, precision)
            for a, b in pairs:
                chain = chain + a * b
            got = dot(pairs, nvars, field, precision)
            assert (got, got.precision) == (chain, chain.precision), pairs
            assert all(got.terms.values())


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_product_coeff_and_table_sum_match_the_pairs(field, rng):
    """The sums built by ``dot`` against the pair-by-pair oracle, on
    tables with mixed tags and zero entries and on inputs with tags."""
    tags = (None, None, 1, 2, 3, 5)
    for n in (1, 2, 3):
        for trial in range(2):
            m = rng.randint(1, 4)
            family = taylor_basis(n, m, field) if trial else random_family(rng, n, m, field)
            table = CoeffTable(
                [[random_series(rng, n, field, max_degree=2, max_terms=2,
                                precision=rng.choice(tags)) for _ in range(n)]
                 for _ in range(m)],
                nvars=n, field=field,
            )
            fs = [Series.variable(n, field, j) for j in range(n)]
            fs += [random_series(rng, n, field, max_degree=3, precision=rng.choice(tags))
                   for _ in range(2)]
            for i in range(1, m + 1):
                for coeff, mu in reference.mu_terms(table, i):
                    got = table.product_coeff(mu, i)
                    assert (got, got.precision) == (coeff, coeff.precision), (i, mu)
                for f in fs:
                    for min_parts in (1, 2):
                        got = table_sum(table, family, i, f, min_parts)
                        assert got == reference.table_sum(table, family, i, f, min_parts)


def vanishing_inputs(n, field):
    """Inputs whose D_mu(f) lose every term but keep a finite tag: X_j
    trusted to degree 2 and a zero trusted to degree 3."""
    return [Series.variable(n, field, j, precision=2) for j in range(n)] + [
        Series.zero(n, field, 3)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("kind", ["taylor", "random", "scaled"])
def test_demand_driven_sums_match_the_reference(field, kind, rng):
    """``table_sum`` builds a coefficient only where D_mu(f) has terms or a
    finite tag and reads the tag alone elsewhere; value and tag equal the
    sum over every term, on exact variables and degree-2 monomials, on
    inputs whose D_mu(f) is zero with a finite tag, and on tables whose
    entries truncate to zero with a finite tag.  Each memoized D_mu(f) is
    ``compose_multi``'s."""
    for n in (1, 2, 3):
        m = rng.randint(2, 4)
        family = family_for(kind, rng, n, m, field)
        table = random_table(rng, n, m, field)
        fs = [Series.variable(n, field, j) for j in range(n)]
        fs += [Series.monomial(n, field, beta) for beta in monomials_of_degree(n, 2)]
        fs += vanishing_inputs(n, field)
        for i in range(1, m + 1):
            for f in fs:
                for min_parts in (1, 2):
                    got = table_sum(table, family, i, f, min_parts)
                    want = reference.table_sum(table, family, i, f, min_parts)
                    assert (got, got.precision) == (want, want.precision), (i, f, min_parts)
                got = apply_table(table, family, i, f)
                want = reference.apply_table(table, family, i, f)
                assert (got, got.precision) == (want, want.precision), (i, f)
        for f, images in table._images.items():
            assert len(images) > 1
            for mu, g in images.items():
                assert g == compose_multi(family, mu, f), (f, mu)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_product_tag_is_the_tag_of_product_coeff(field, rng):
    """For every mu and weight, computed before the coefficient exists and
    read off it afterwards, on tables with zero entries of finite tag."""
    for n in (1, 2, 3):
        for _ in range(3):
            m = rng.randint(1, 5)
            rows = random_table(rng, n, m, field).rows
            first, second = (CoeffTable(rows, nvars=n, field=field) for _ in range(2))
            for i in range(1, m + 1):
                for parts in range(1, i + 1):
                    for mu in monomials_of_degree(n, parts):
                        tag = first.product_tag(mu, i)
                        assert tag == second.product_coeff(mu, i).precision, (i, mu)
                        assert second.product_tag(mu, i) == tag
            assert first._tags and not first._products
