"""Hasse-Schmidt derivations: components, Taylor family, group structure."""

import math
from fractions import Fraction

import pytest

from hasseschmidt import (
    GF,
    QQ,
    HSDerivation,
    Series,
    TSeries,
    compose_multi,
    group_compose,
    group_inverse,
    integrate,
    leibniz_check,
    taylor_basis,
    taylor_delta_table,
    taylor_derivation,
)
from hasseschmidt.errors import ComponentOutOfRange, IncompatibleAmbient

import reference
from conftest import FIELDS, random_hsd, random_series


def worked_target(field=QQ):
    """E(X) = X + X t + t^2, length 2, one variable."""
    x = Series.variable(1, field, 0)
    return HSDerivation([TSeries([x, x, Series.one(1, field)])])


# -- independent oracles -----------------------------------------------------

def partial(f, j):
    """d/dX_j, written directly on exponents (test oracle)."""
    field = f.field
    terms = {}
    for e, c in f.tuple_terms().items():
        if e[j] == 0:
            continue
        lower = list(e)
        lower[j] -= 1
        v = field.mul(c, field.coerce(e[j]))
        if v:
            terms[tuple(lower)] = v
    return Series(f.nvars, field, terms, f.precision)


def partial_power(f, alpha):
    for j, k in enumerate(alpha):
        for _ in range(k):
            f = partial(f, j)
    return f


def shift_expansion(f):
    """f(X+T) as a 2n-variable polynomial (test oracle for the delta table)."""
    n, field = f.nvars, f.field
    out = Series.zero(2 * n, field)
    for beta, c in f.tuple_terms().items():
        prod = Series.constant(2 * n, field, c)
        for j, e in enumerate(beta):
            xj = Series.variable(2 * n, field, j)
            tj = Series.variable(2 * n, field, n + j)
            prod = prod * (xj + tj) ** e
        out = out + prod
    return out


def delta_from_shift(f, alpha):
    """Read the T^alpha coefficient of f(X+T) back as an n-variable series."""
    n, field = f.nvars, f.field
    expanded = shift_expansion(f)
    terms = {}
    for e, c in expanded.tuple_terms().items():
        if tuple(e[n:]) == tuple(alpha):
            terms[tuple(e[:n])] = c
    return Series(n, field, terms)


# -- validation ----------------------------------------------------------------

def test_images_must_start_with_the_variable():
    x = Series.variable(1, QQ, 0)
    with pytest.raises(IncompatibleAmbient):
        HSDerivation([TSeries([x + 1, x])])
    for field in (QQ, GF(5)):
        x1, x2 = Series.variable(2, field, 0), Series.variable(2, field, 1)
        for first in (x1 * 2, x1 * 4, x1 + x2, Series.zero(2, field), x1 * x1):
            with pytest.raises(IncompatibleAmbient, match="t\\^0 coefficient of image 0 must be "
                                                          "the variable X1"):
                HSDerivation([TSeries([first, x2]), TSeries([x2, x1])])
        with pytest.raises(IncompatibleAmbient, match="image 1 must be the variable X2"):
            HSDerivation([TSeries([x1, x2]), TSeries([x1, x1])])


def test_truncated_keeps_the_low_components_and_the_name(rng):
    D = random_hsd(rng, 2, 4, GF(3))
    D.name = "D"
    assert D.truncated(4) is D
    for w in (1, 2, 3):
        Dw = D.truncated(w)
        assert (Dw.length, Dw.name) == (w, "D")
        assert [img.coeffs for img in Dw.images] == [img.coeffs[: w + 1] for img in D.images]
    for w in (0, 5):
        with pytest.raises(ComponentOutOfRange):
            D.truncated(w)


def test_component_zero_is_identity(rng):
    D = random_hsd(rng, 2, 3, QQ)
    f = random_series(rng, 2, QQ)
    assert D.apply_component(0, f) == f


def test_component_out_of_range():
    D = worked_target()
    with pytest.raises(ComponentOutOfRange):
        D.apply_component(3, Series.variable(1, QQ, 0))


def test_components_kill_constants(rng):
    for field in (QQ, GF(3)):
        D = random_hsd(rng, 2, 3, field)
        c = Series.constant(2, field, 1 if field.p else Fraction(5, 3))
        for i in range(1, 4):
            assert D.apply_component(i, c).is_zero()


# -- worked component values ------------------------------------------------------

def test_worked_target_component_values():
    D = worked_target()
    x = Series.variable(1, QQ, 0)
    assert D.apply_component(2, x * x) == x * x + 2 * x
    assert D.apply_component(1, x) == x
    assert D.apply_component(2, x) == Series.one(1, QQ)


# -- Taylor operators --------------------------------------------------------------

def test_taylor_components_are_binomials():
    delta = taylor_derivation(1, 3, QQ, 0)
    x = Series.variable(1, QQ, 0)
    for beta in range(5):
        for i in range(4):
            expect = Series.monomial(1, QQ, (beta - i,), math.comb(beta, i)) \
                if i <= beta else Series.zero(1, QQ)
            assert delta.apply_component(i, x ** beta) == expect


def test_taylor_delta2_of_x4():
    assert taylor_derivation(1, 3, QQ, 0).apply_component(
        2, Series.variable(1, QQ, 0) ** 4
    ) == Series.monomial(1, QQ, (2,), 6)
    assert taylor_derivation(1, 3, GF(2), 0).apply_component(
        2, Series.variable(1, GF(2), 0) ** 4
    ).is_zero()


def test_taylor_leaves_other_variables_alone():
    delta = taylor_derivation(2, 3, QQ, 0)
    y = Series.variable(2, QQ, 1)
    for i in range(1, 4):
        assert delta.apply_component(i, y ** 2).is_zero()


def test_delta_table_examples():
    x, y = Series.variable(2, QQ, 0), Series.variable(2, QQ, 1)
    f = x * x * y
    table = taylor_delta_table(f, (2, 1))
    assert table[(0, 0)] == f
    assert table[(1, 1)] == 2 * x
    assert table[(2, 1)] == Series.one(2, QQ)


def test_delta_table_matches_explicit_shift(rng):
    for field in (QQ, GF(2), GF(5)):
        for _ in range(6):
            f = random_series(rng, 2, field, max_degree=4, max_terms=3)
            table = taylor_delta_table(f, (3, 3))
            for alpha, value in table.items():
                assert value == delta_from_shift(f, alpha), (f, alpha)


def test_delta_product_rule_spot_check():
    x = Series.variable(1, QQ, 0)
    t = taylor_delta_table(x, (2,))
    convolution = Series.zero(1, QQ)
    for b in range(3):
        convolution = convolution + t[(b,)] * t[(2 - b,)]
    assert convolution == Series.one(1, QQ)
    assert taylor_delta_table(x * x, (2,))[(2,)] == Series.one(1, QQ)


def test_factorial_delta_equals_partial_power(rng):
    """alpha! * Delta^alpha = the alpha-fold partial derivative over Q."""
    for nvars in (1, 2, 3):
        for _ in range(4):
            f = random_series(rng, nvars, QQ, max_degree=5, max_terms=4)
            table = taylor_delta_table(f, (4,) * nvars)
            for alpha, value in table.items():
                if sum(alpha) > 4:
                    continue
                fact = 1
                for a in alpha:
                    fact *= math.factorial(a)
                assert value * fact == partial_power(f, alpha)


# -- integration ---------------------------------------------------------------------

@pytest.mark.parametrize("j", [2, 5, -1])
def test_taylor_derivation_checks_the_variable_index(j):
    with pytest.raises(IncompatibleAmbient, match=f"variable index {j} out of range for nvars=2"):
        taylor_derivation(2, 2, QQ, j)


def test_integrate_zero_is_identity():
    D = integrate([Series.zero(2, QQ)] * 2, 3)
    assert D == HSDerivation.identity(2, 3, QQ)
    f = Series.variable(2, QQ, 0) * Series.variable(2, QQ, 1)
    for i in range(1, 4):
        assert D.apply_component(i, f).is_zero()


def test_integrate_constant_one_is_taylor():
    assert integrate([Series.one(1, QQ)], 2) == taylor_derivation(1, 2, QQ, 0)


def test_the_three_builders_agree_and_keep_names():
    """taylor_derivation and HSDerivation.identity are integrate on a unit
    vector and on zeros: equal images, and each keeps its name."""
    for field in FIELDS:
        one, zero = Series.one(3, field), Series.zero(3, field)
        for j in range(3):
            unit = [one if d == j else zero for d in range(3)]
            for length in (1, 3):
                D = taylor_derivation(3, length, field, j)
                assert D.name == f"taylor{j + 1}"
                assert D.images == integrate(unit, length).images
                named = taylor_derivation(3, length, field, j, name="T")
                assert named.name == integrate(unit, length, "T").name == "T"
                assert named == D
        e = HSDerivation.identity(3, 2, field, name="e")
        assert e.name == "e" and integrate([zero] * 3, 2).name is None
        assert e == integrate([zero] * 3, 2)
        assert all(img.coeffs[1:] == [zero, zero] for img in e.images)


def test_integrate_validates_through_the_constructor():
    x = Series.variable(2, QQ, 0)
    with pytest.raises(IncompatibleAmbient, match="expected 2 images for 2 variables, got 1"):
        integrate([x], 2)
    with pytest.raises(IncompatibleAmbient, match="expected 2 images for 2 variables, got 3"):
        integrate([x, x, x], 2)
    with pytest.raises(IncompatibleAmbient, match="different ambient rings"):
        integrate([x, Series.variable(2, GF(5), 0)], 2)
    with pytest.raises(IncompatibleAmbient, match="must be exact polynomials"):
        integrate([x, x.truncate(3)], 2)
    with pytest.raises(ValueError, match="at least one variable image"):
        integrate([], 2)
    with pytest.raises(ValueError, match="length must be >= 1"):
        integrate([x, x], 0)


def test_integrate_euler_derivation():
    # delta(X) = X: E(X) = X + X t, so D_2(X^2) = X^2
    x = Series.variable(1, QQ, 0)
    D = integrate([x], 2)
    assert D.apply_component(1, x) == x
    assert D.apply_component(2, x * x) == x * x


def test_integrate_degree1_matches_input(rng):
    """D_1 of integrate(values, m) is the ordinary derivation with those
    values, extended term by term by the Leibniz rule, over every field,
    for m = 1 and 3, on exact inputs and on inputs with precision tags."""
    for field in FIELDS:
        for _ in range(5):
            values = [random_series(rng, 2, field) for _ in range(2)]
            for length in (1, 3):
                D = integrate(values, length)
                assert [img.coeffs[1] for img in D.images] == values
                for precision in (None, 0, 1, 2, 4):
                    f = random_series(rng, 2, field, max_degree=4, precision=precision)
                    got = D.apply_component(1, f)
                    assert got == reference.derivation_apply(values, f), (values, f)
                    assert D.truncated(1).apply_component(1, f) == got


# -- the group law ---------------------------------------------------------------------

def test_compose_with_identity(rng):
    D = random_hsd(rng, 2, 3, GF(5))
    e = HSDerivation.identity(2, 3, GF(5))
    assert group_compose(D, e) == D
    assert group_compose(e, D) == D


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_compose_matches_the_sum_of_shifted_images(field, rng):
    for n, m in ((1, 1), (1, 4), (2, 3), (3, 2)):
        for _ in range(4):
            D, Dp = random_hsd(rng, n, m, field), random_hsd(rng, n, m, field)
            assert group_compose(D, Dp).images == reference.group_compose(D, Dp).images


def test_compose_rejects_mismatched_operands(rng):
    D = random_hsd(rng, 2, 3, GF(5))
    with pytest.raises(IncompatibleAmbient):
        group_compose(D, random_hsd(rng, 2, 2, GF(5)))  # different length
    with pytest.raises(IncompatibleAmbient):
        group_compose(D, random_hsd(rng, 2, 3, QQ))  # different field


def test_compose_components_follow_the_convolution_law(rng):
    for field in (QQ, GF(2)):
        D = random_hsd(rng, 2, 3, field)
        Dp = random_hsd(rng, 2, 3, field)
        comp = group_compose(D, Dp)
        f = random_series(rng, 2, field, max_degree=3)
        for i in range(4):
            expect = Series.zero(2, field)
            for r in range(i + 1):
                expect = expect + D.apply_component(r, Dp.apply_component(i - r, f))
            assert comp.apply_component(i, f) == expect


def test_degree1_is_additive(rng):
    """The t^1 coefficients of the product's images are the sums of the
    operands': at length 1 the group law is addition."""
    D = random_hsd(rng, 2, 3, QQ)
    Dp = random_hsd(rng, 2, 3, QQ)
    comp = group_compose(D, Dp)
    for j in range(2):
        assert comp.images[j].coeffs[1] == D.images[j].coeffs[1] + Dp.images[j].coeffs[1]
    assert group_compose(D.truncated(1), Dp.truncated(1)) == comp.truncated(1)


def test_inverse_of_taylor_shift():
    # the inverse of E(X) = X + t is E(X) = X - t: weight parity flips signs
    D = taylor_derivation(1, 2, QQ, 0)
    inv = group_inverse(D)
    x = Series.variable(1, QQ, 0)
    assert inv.images[0] == TSeries([x, Series.constant(1, QQ, -1), Series.zero(1, QQ)])
    for beta in range(4):
        assert inv.apply_component(1, x ** beta) == -D.apply_component(1, x ** beta)
        assert inv.apply_component(2, x ** beta) == D.apply_component(2, x ** beta)


def test_inverse_of_identity_is_identity():
    e = HSDerivation.identity(2, 3, GF(5))
    assert group_inverse(e) == e


def test_inverse_round_trip(rng):
    for field in (QQ, GF(3)):
        for _ in range(5):
            D = random_hsd(rng, 2, 3, field)
            e = HSDerivation.identity(2, 3, field)
            assert group_compose(D, group_inverse(D)) == e
            assert group_compose(group_inverse(D), D) == e


def test_associativity(rng):
    for _ in range(5):
        A = random_hsd(rng, 2, 2, GF(5))
        B = random_hsd(rng, 2, 2, GF(5))
        C = random_hsd(rng, 2, 2, GF(5))
        assert group_compose(group_compose(A, B), C) == group_compose(A, group_compose(B, C))


# -- composite application ----------------------------------------------------------------

def test_compose_multi_zero_weight_is_identity(rng):
    family = taylor_basis(2, 3, QQ)
    f = random_series(rng, 2, QQ)
    assert compose_multi(family, (0, 0), f) == f


def test_compose_multi_mixed_partials():
    family = taylor_basis(2, 2, QQ)
    x, y = Series.variable(2, QQ, 0), Series.variable(2, QQ, 1)
    assert compose_multi(family, (1, 1), x * y) == Series.one(2, QQ)


def test_compose_multi_single_slot_matches_component():
    D = worked_target()
    x = Series.variable(1, QQ, 0)
    assert compose_multi([D], (2,), x * x) == x * x + 2 * x


def test_compose_multi_checks_weights():
    family = taylor_basis(2, 2, QQ)
    with pytest.raises(ComponentOutOfRange):
        compose_multi(family, (3, 0), Series.variable(2, QQ, 0))


def test_compose_multi_order_matters():
    """With non-commuting members the two orders differ on some input."""
    field = QQ
    x = Series.variable(1, field, 0)
    base = taylor_derivation(1, 2, field, 0)
    euler = integrate([x], 2)  # weight-1 part X d/dX
    lhs = compose_multi([base, euler], (1, 1), x * x)
    rhs = compose_multi([euler, base], (1, 1), x * x)
    assert lhs != rhs


# -- the Leibniz oracle ------------------------------------------------------------------

def test_leibniz_passes_for_every_constructor(rng):
    x = Series.variable(2, QQ, 1)
    for build in (
        lambda: taylor_derivation(2, 3, GF(2), 1),
        lambda: random_hsd(rng, 2, 3, QQ),
        lambda: integrate([x, x * x], 3),
        lambda: group_compose(random_hsd(rng, 1, 2, GF(5)), random_hsd(rng, 1, 2, GF(5))),
        lambda: group_inverse(random_hsd(rng, 2, 2, GF(3))),
    ):
        report = leibniz_check(build(), trials=10, seed=3)
        assert report.passed, report.summary()


class Corrupted(HSDerivation):
    """D with 1 added to D_i(f) wherever hit(i, f) holds, both in the slot
    list of E(f), which ``leibniz_check`` reads, and in the components,
    which ``reference.leibniz_check`` reads."""

    def __init__(self, D, hit):
        super().__init__(D.images, D.name)
        self.hit = hit

    def apply_component(self, i, f):
        value = super().apply_component(i, f)
        return value + 1 if self.hit(i, f) else value

    def _apply_slots(self, terms, prec=None):
        slots = super()._apply_slots(terms, prec)
        f = Series._of(self.nvars, self.field, terms, prec)
        return [(Series._of(self.nvars, self.field, s, prec) + 1).terms if self.hit(i, f) else s
                for i, s in enumerate(slots)]


def test_leibniz_flags_corrupted_component_table():
    x = Series.variable(1, QQ, 0)
    D = Corrupted(worked_target(), lambda i, f: i == 2 and f == x * x)
    report = leibniz_check(D, trials=5, seed=0)
    assert not report.passed
    i, f, g, lhs, rhs = report.counterexample
    assert (i, f, g) == (2, x, x)
    assert report == reference.leibniz_check(D, trials=5, seed=0)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=repr)
def test_leibniz_matches_the_per_weight_reference(field, rng):
    """E(fg) against E(f) E(g) gives the report of the per-weight product
    chain, field by field: on derivations that pass, and on component
    derivations corrupted on a product of two basis monomials, or only on
    the products of the random pairs, which have degree above 4."""
    x, y = (Series.variable(2, field, j) for j in range(2))
    derivations = [
        random_hsd(rng, 2, 3, field),
        integrate([y, x * x], 3),
        group_compose(random_hsd(rng, 2, 2, field), random_hsd(rng, 2, 2, field)),
        group_inverse(random_hsd(rng, 2, 3, field)),
    ]
    basis_pairs = 6 * 6
    for D in derivations:
        for seed in (0, 7):
            report = leibniz_check(D, trials=6, seed=seed)
            assert report.passed
            assert report == reference.leibniz_check(D, trials=6, seed=seed)
        for hit, late in (
            (lambda i, f: i == 2 and f == x * y, False),
            (lambda i, f: i == D.length and f.degree() > 4, True),
        ):
            bad = Corrupted(D, hit)
            report = leibniz_check(bad, trials=25, seed=1)
            assert not report.passed
            assert (report.checked_pairs > basis_pairs) == late
            assert report == reference.leibniz_check(bad, trials=25, seed=1)
