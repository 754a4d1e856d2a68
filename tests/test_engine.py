"""The shared product kernel and monomial-image builder against the
brute-force and recursive versions in ``reference``."""

import pytest

from hasseschmidt import QQ, Series, TSeries, substitute
from hasseschmidt.derivations import taylor_derivation

import reference
from conftest import FIELDS, random_hsd, random_scalar, random_series

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
