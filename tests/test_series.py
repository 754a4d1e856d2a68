"""Series arithmetic, truncation semantics, inversion and substitution."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hasseschmidt import GF, QQ, Series, TSeries, substitute
from hasseschmidt.errors import IncompatibleAmbient, NotAUnit
from hasseschmidt.series import min_prec

from conftest import FIELDS, assert_agree_to_trusted, random_hsd, random_series


def make_xy(field):
    return Series.variable(2, field, 0), Series.variable(2, field, 1)


# -- construction & canonical form -------------------------------------------

def test_zero_coefficients_are_dropped():
    f = Series(1, QQ, {(0,): Fraction(0), (1,): Fraction(2)})
    assert f.tuple_terms() == {(1,): Fraction(2)}


def test_terms_at_or_above_precision_are_dropped():
    f = Series(1, QQ, {(4,): Fraction(1), (2,): Fraction(1)}, precision=4)
    assert f.tuple_terms() == {(2,): Fraction(1)}


def test_equality_is_structural():
    a = Series(1, QQ, {(1,): Fraction(1)})
    b = Series(1, QQ, {(1,): Fraction(1)})
    assert a == b
    assert a != a.truncate(5)  # differing precision tags differ structurally


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_equal_series_hash_equal_and_the_cached_hash_is_fresh(field, rng):
    """Series built apart (validating constructor, engine products and
    sums) hash alike when equal, and the hash cached on the first call
    equals one computed afresh from the fields."""
    for nvars in (1, 2, 3):
        for _ in range(20):
            prec = rng.choice((None, 2, 4))
            a = random_series(rng, nvars, field, precision=prec)
            b = random_series(rng, nvars, field, precision=prec)
            ab = a * b + a
            twin = Series(nvars, field, ab.tuple_terms(), ab.precision)
            assert ab == twin and hash(ab) == hash(twin)
            for f in (a, b, ab, twin):
                fresh = hash((f.nvars, f.field, f.precision, frozenset(f.terms.items())))
                assert hash(f) == fresh
                assert f._hash == fresh and hash(f) == fresh


def test_ambient_mismatch_raises():
    x = Series.variable(1, QQ, 0)
    y = Series.variable(2, QQ, 0)
    z = Series.variable(1, GF(2), 0)
    with pytest.raises(IncompatibleAmbient):
        x * y
    with pytest.raises(IncompatibleAmbient):
        x + z


# -- multiplication ------------------------------------------------------------

def test_mul_difference_of_squares():
    x = Series.variable(1, QQ, 0)
    assert (1 + x) * (1 - x) == 1 - x * x


def test_mul_truncation_boundary():
    x = Series.variable(1, QQ, 0)
    a = (x * x).truncate(5)
    b = (x ** 3).truncate(5)
    assert (a * b).is_zero()
    assert (a * b).precision == 5


def test_mul_char2_square_is_frobenius():
    x, y = make_xy(GF(2))
    assert (x + y) * (x + y) == x * x + y * y


def test_precision_combines_to_weaker():
    x = Series.variable(1, QQ, 0)
    assert (x.truncate(3) * x.truncate(5)).precision == 3
    assert (x.truncate(3) + x.truncate(5)).precision == 3
    assert (x * x).precision is None


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_truncate_matches_the_validating_constructor(rng, field):
    """truncate builds its result without validation; it must equal the
    validating constructor at every precision, a negative one included."""
    for _ in range(40):
        nvars = rng.randint(1, 3)
        prec = rng.choice([None, None, rng.randint(0, 6)])
        f = random_series(rng, nvars, field, max_degree=5, max_terms=6, precision=prec)
        degree = f.degree()
        for cut in (-1, 0, 1, degree - 1, degree, degree + 1, None):
            expected = Series(nvars, field, f.tuple_terms(), min_prec(f.precision, cut))
            got = f.truncate(cut)
            assert got == expected, (f, cut)
            assert got.precision == expected.precision


def reference_sum(a, b):
    """a + b merged term by term; the validating constructor drops the
    terms the weaker tag cuts off."""
    terms = a.tuple_terms()
    for e, c in b.tuple_terms().items():
        terms[e] = a.field.add(terms.get(e, a.field.zero()), c)
    precs = [p for p in (a.precision, b.precision) if p is not None]
    return Series(a.nvars, a.field, terms, min(precs) if precs else None)


def test_add_and_neg_match_the_validating_constructor(rng):
    for field in FIELDS:
        for nvars in (1, 2, 3):
            for _ in range(30):
                a, b = (
                    random_series(rng, nvars, field, max_degree=5, max_terms=5,
                                  precision=rng.choice((None, 0, 1, 2, 3, 5)))
                    for _ in range(2)
                )
                assert a + b == reference_sum(a, b), (a, b)
                assert a - a == Series.zero(nvars, field, a.precision)
                assert -a == Series(nvars, field,
                                    {e: field.neg(c) for e, c in a.tuple_terms().items()},
                                    a.precision)


def test_constant_and_zero_tags():
    for field in FIELDS:
        assert Series.constant(2, field, 3, 0).terms == {}
        assert Series.constant(2, field, 3, -4) == Series.zero(2, field, 0)
        assert Series.zero(2, field, -1).precision == 0
        assert Series.constant(2, field, 0).terms == {}
        assert Series.constant(2, field, 1, 1) == Series(2, field, {(0, 0): field.one()}, 1)
        assert Series.one(0, field) == Series(0, field, {(): field.one()})


# -- ring axioms ----------------------------------------------------------------

@st.composite
def small_series(draw, field, nvars=2, precision=4):
    n_terms = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(nvars))
        if field.p is not None:
            c = draw(st.integers(0, field.p - 1))
        else:
            c = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        terms[exps] = field.coerce(c)
    return Series(nvars, field, terms, precision)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ring_axioms_at_fixed_precision(data):
    for field in (QQ, GF(3)):
        f = data.draw(small_series(field))
        g = data.draw(small_series(field))
        h = data.draw(small_series(field))
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f + (-f) == Series.zero(2, field, 4)
        assert f * Series.one(2, field, 4) == f


# -- inversion --------------------------------------------------------------------

def test_inverse_of_one():
    one = Series.one(2, QQ)
    assert one.inverse(5) == Series.one(2, QQ, 5)


def test_inverse_geometric_series():
    # oracle: 1/(1-X) = 1 + X + X^2 + ... ; and multiply-back check
    x = Series.variable(1, QQ, 0)
    a = 1 - x
    inv = a.inverse(4)
    assert inv == (1 + x + x ** 2 + x ** 3).truncate(4)
    assert a * inv == Series.one(1, QQ, 4)


def test_inverse_requires_unit():
    x = Series.variable(1, QQ, 0)
    with pytest.raises(NotAUnit):
        x.inverse(3)


def test_inverse_multiply_back_random(rng):
    for field in FIELDS:
        for _ in range(10):
            f = random_series(rng, 2, field, max_degree=3, max_terms=4)
            f = f + Series.one(2, field)  # force a unit constant term
            if not f.constant_term():
                continue
            inv = f.inverse(5)
            assert_agree_to_trusted(f * inv, Series.one(2, field, 5))


# -- substitution ------------------------------------------------------------------

def test_substitute_variable_returns_image():
    x = Series.variable(1, QQ, 0)
    image = TSeries([x, x + 1, Series.zero(1, QQ)])
    assert substitute(x, [image]) == image


def test_substitute_square_of_shift():
    # (X + t)^2 = X^2 + 2X t + t^2
    x = Series.variable(1, QQ, 0)
    image = TSeries([x, Series.one(1, QQ), Series.zero(1, QQ)])
    out = substitute(x * x, [image])
    assert out == TSeries([x * x, 2 * x, Series.one(1, QQ)])


def test_substitute_worked_image():
    # (X + X t + t^2)^2 = X^2 + 2X^2 t + (X^2 + 2X) t^2 mod t^3
    x = Series.variable(1, QQ, 0)
    image = TSeries([x, x, Series.one(1, QQ)])
    out = substitute(x * x, [image])
    assert out == TSeries([x * x, 2 * (x * x), x * x + 2 * x])


def test_substitute_is_ring_homomorphism(rng):
    for field in (QQ, GF(2), GF(5)):
        for _ in range(8):
            D = random_hsd(rng, 2, 3, field)
            f = random_series(rng, 2, field)
            g = random_series(rng, 2, field)
            lhs = substitute(f * g, D.images)
            rhs = substitute(f, D.images) * substitute(g, D.images)
            assert lhs == rhs


def test_substitute_rejects_inexact_images():
    x = Series.variable(1, QQ, 0)
    image = TSeries([x.truncate(4), Series.one(1, QQ, 4)])
    with pytest.raises(IncompatibleAmbient):
        substitute(x, [image])


# -- the precision contract ----------------------------------------------------------

def test_component_of_tail_only_perturbs_high_degrees(rng):
    """A weight-i component applied to something of order N only produces
    terms of degree >= N - i, so inputs agreeing mod (X)^N give outputs
    agreeing mod (X)^{N-i}."""
    N = 5
    for field in (QQ, GF(3)):
        for _ in range(8):
            D = random_hsd(rng, 2, 3, field)
            f = random_series(rng, 2, field, max_degree=4, max_terms=4)
            tail = random_series(rng, 2, field, max_degree=2, max_terms=2)
            tail = tail * Series.monomial(2, field, (N, 0))  # degree >= N
            for i in range(1, 4):
                a = D.apply_component(i, f)
                b = D.apply_component(i, f + tail)
                assert a.truncate(N - i) == b.truncate(N - i)


def test_truncated_input_gives_truncated_component(rng):
    for _ in range(5):
        D = random_hsd(rng, 1, 2, QQ)
        f = random_series(rng, 1, QQ, max_degree=5, max_terms=4)
        full = D.apply_component(2, f)
        cut = D.apply_component(2, f.truncate(4))
        assert cut.precision == 2
        assert full.truncate(2) == cut


def test_substitute_tracks_input_precision():
    x = Series.variable(1, QQ, 0)
    image = TSeries([x, Series.one(1, QQ), Series.zero(1, QQ)])
    out = substitute((x * x).truncate(5), [image])
    assert out.precision == 3  # 5 - tlen


# -- display (sanity only) -------------------------------------------------------------

def test_str_is_stable():
    x, y = make_xy(QQ)
    f = x * x + 2 * y
    assert str(f) == "X1^2 + 2*X2"
