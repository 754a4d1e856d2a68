"""Component matrices on truncated quotients and joint-kernel extraction."""

import itertools
import json
import math
import random
import time

import pytest

from hasseschmidt import (
    GF,
    QQ,
    QuotientBasis,
    Series,
    coefficient_field,
    component_matrix,
    group_compose,
    integrate,
    joint_kernel,
    nomura_unit_test,
    taylor_basis,
    taylor_derivation,
)
from hasseschmidt import cli, coefffield, serialize
from hasseschmidt.cli import main
from hasseschmidt.coefffield import nullspace
from hasseschmidt.decompose import degree1_matrix, degree1_values
from hasseschmidt.series import monomials_of_degree
from hasseschmidt.errors import (
    ComponentOutOfRange,
    IncompatibleAmbient,
    NotABasis,
    PrecisionExhausted,
)

from conftest import FIELDS, family_for, random_hsd, random_scalar, random_series
from reference import (
    all_weights_kernel,
    laplace_det,
    dense_component_matrix,
    dense_nullspace,
    dense_view,
    sparse_rows,
)


# -- the quotient basis -------------------------------------------------------

def test_basis_counts_match_binomial():
    for n in (1, 2, 3):
        for N in (1, 2, 4, 5):
            basis = QuotientBasis(n, N)
            assert len(basis) == math.comb(N - 1 + n, n)


def test_basis_is_graded_lex():
    basis = QuotientBasis(2, 3)
    assert basis.monomials == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def test_coords_round_trip(rng):
    basis = QuotientBasis(2, 4)
    f = random_series(rng, 2, GF(5), max_degree=3, max_terms=4)
    assert basis.from_coords(basis.coords(f), GF(5)) == f


def test_prefix_is_the_smaller_basis():
    for n in (1, 2, 3):
        basis = QuotientBasis(n, 5)
        for N in range(6):
            part = basis.prefix(N)
            fresh = QuotientBasis(n, N)
            assert (part, part.monomials, part.index) == (fresh, fresh.monomials, fresh.index)
    with pytest.raises(ValueError):
        QuotientBasis(2, 3).prefix(4)


# -- component matrices --------------------------------------------------------

def test_a_shared_source_basis_gives_the_same_matrix(rng):
    D = random_hsd(rng, 2, 3, GF(3))
    source = QuotientBasis(2, 4)
    for i in range(4):
        assert component_matrix(D, i, 4, source) == component_matrix(D, i, 4)
    for wrong in (QuotientBasis(2, 5), QuotientBasis(1, 4)):
        with pytest.raises(IncompatibleAmbient):
            component_matrix(D, 1, 4, wrong)


def test_weight_zero_matrix_is_identity():
    D = taylor_derivation(1, 2, QQ, 0)
    mat = component_matrix(D, 0, 3)
    assert dense_view(mat).rows == [
        [QQ.one() if r == c else QQ.zero() for c in range(3)] for r in range(3)
    ]


def test_char2_taylor_column_vanishes_by_lucas():
    # column of X^4 under the weight-2 operator: C(4,2) = 6 = 0 mod 2
    D = taylor_derivation(1, 4, GF(2), 0)
    mat = component_matrix(D, 2, 5)
    rows = dense_view(mat).rows
    col = [row[mat.source.monomials.index((4,))] for row in rows]
    assert all(v == 0 for v in col)
    # while the column of X^3 is C(3,2) X = X
    col3 = [row[mat.source.monomials.index((3,))] for row in rows]
    assert col3 == [0 if e != (1,) else 1 for e in mat.target.monomials]


def test_matrix_agrees_with_direct_application(rng):
    for field in (QQ, GF(3)):
        D = random_hsd(rng, 2, 2, field)
        N = 4
        for i in (0, 1, 2):
            mat = component_matrix(D, i, N)
            for _ in range(5):
                # a constant term too, which only the weight-0 matrix reads
                f = random_series(rng, 2, field, max_degree=N - 1, max_terms=4)
                f = f + Series.one(2, field)
                image = D.apply_component(i, f).truncate(N - i)
                assert mat.apply_coords(mat.source.coords(f)) == mat.target.coords(image)


def test_component_matrix_bounds():
    D = taylor_derivation(1, 2, QQ, 0)
    with pytest.raises(PrecisionExhausted):
        component_matrix(D, 2, 2)
    with pytest.raises(ComponentOutOfRange):
        component_matrix(D, 3, 9)


# -- joint kernels ----------------------------------------------------------------

def brute_force_kernel_gf(p, mats, dim):
    """Oracle: enumerate every vector of GF(p)^dim and keep the annihilated
    ones; returns their count."""
    count = 0
    for vec in itertools.product(range(p), repeat=dim):
        if all(all(v == 0 for v in mat.apply_coords(list(vec))) for mat in mats):
            count += 1
    return count


def test_empty_matrix_list_gives_full_space():
    basis = QuotientBasis(1, 3)
    report = joint_kernel([], source=basis, field=QQ)
    assert report.dimension == 3


def test_kernel_of_single_derivative_char2():
    # ker(d/dX) on GF(2)[X]/(X^5) is spanned by 1, X^2, X^4
    D = taylor_derivation(1, 4, GF(2), 0)
    mat = component_matrix(D, 1, 5)
    report = joint_kernel([mat])
    assert report.dimension == 3
    assert report.basis == [
        Series.one(1, GF(2)),
        Series.monomial(1, GF(2), (2,)),
        Series.monomial(1, GF(2), (4,)),
    ]
    # brute-force oracle: 2^3 vectors in the kernel out of 2^5
    assert brute_force_kernel_gf(2, [mat], 5) == 2 ** report.dimension


def test_kernel_of_all_taylor_components_char2():
    D = taylor_derivation(1, 4, GF(2), 0)
    mats = [component_matrix(D, i, 5) for i in range(1, 5)]
    report = joint_kernel(mats)
    assert report.dimension == 1
    assert report.basis == [Series.one(1, GF(2))]
    assert brute_force_kernel_gf(2, mats, 5) == 2


def test_kernel_soundness(rng):
    """Every reported basis element really is annihilated."""
    D = random_hsd(rng, 2, 3, GF(3))
    mats = [component_matrix(D, i, 4) for i in (1, 2, 3)]
    report = joint_kernel(mats)
    for member in report.basis:
        for i in (1, 2, 3):
            assert D.apply_component(i, member).truncate(4 - i).is_zero()


def test_adding_operators_never_grows_the_kernel(rng):
    D = random_hsd(rng, 1, 3, GF(5))
    mats = [component_matrix(D, i, 4) for i in (1, 2, 3)]
    dims = [joint_kernel(mats[:k]).dimension for k in range(1, 4)]
    assert dims == sorted(dims, reverse=True)


def test_matrix_composition_follows_the_group_law(rng):
    """The matrix of a product derivation is the convolution of the factor
    matrices, once sources and targets are precision-aligned."""
    field = GF(3)
    N = 5
    D = random_hsd(rng, 1, 2, field)
    Dp = random_hsd(rng, 1, 2, field)
    comp = group_compose(D, Dp)
    for i in (1, 2):
        lhs = dense_view(component_matrix(comp, i, N))
        dim_src = len(QuotientBasis(1, N))
        dim_tgt = len(QuotientBasis(1, N - i))
        acc = [[field.zero()] * dim_src for _ in range(dim_tgt)]
        for r in range(i + 1):
            s = i - r
            right = dense_view(component_matrix(Dp, s, N))    # N -> N - s
            left = dense_view(component_matrix(D, r, N - s))  # N - s -> N - s - r = N - i
            for a in range(dim_tgt):
                for b in range(dim_src):
                    total = acc[a][b]
                    for c in range(len(right.rows)):
                        total = field.add(total, field.mul(left.rows[a][c], right.rows[c][b]))
                    acc[a][b] = total
        assert lhs.rows == acc


# -- coefficient fields --------------------------------------------------------------

def test_taylor_family_kernel_is_constants():
    for field in (GF(2), GF(3), QQ):
        basis = taylor_basis(2, 3, field)
        report = coefficient_field(basis, 4)
        assert report.dimension == 1
        assert report.basis == [Series.one(2, field)]


def test_degree1_only_char_zero_still_constants():
    report = coefficient_field(taylor_basis(2, 4, QQ), 5, degree1_only=True)
    assert report.dimension == 1
    assert report.basis == [Series.one(2, QQ)]


def test_degree1_only_char2_sees_the_squares():
    report = coefficient_field([taylor_derivation(1, 4, GF(2), 0)], 5, degree1_only=True)
    assert report.dimension == 3
    assert report.basis == [
        Series.one(1, GF(2)),
        Series.monomial(1, GF(2), (2,)),
        Series.monomial(1, GF(2), (4,)),
    ]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("kind", ["taylor", "random"])
def test_truncated_derivations_give_the_same_component_matrices(field, kind, rng):
    for n, m, N in ((1, 5, 6), (2, 3, 4), (3, 2, 3)):
        for D in family_for(kind, rng, n, m, field):
            for w in range(1, m + 1):
                Dw = D.truncated(w)
                for i in range(w + 1):
                    assert component_matrix(Dw, i, N) == component_matrix(D, i, N)


def test_degree1_only_kernels_cut_their_images_to_two_slots(monkeypatch):
    seen = []
    build = coefffield.component_matrix

    def spy(D, *args):
        seen.append(D)
        return build(D, *args)

    monkeypatch.setattr(coefffield, "component_matrix", spy)
    family = taylor_basis(2, 4, GF(2))
    coefficient_field(family, 5, degree1_only=True)
    assert [D.length for D in seen] == [1, 1]
    assert {len(img) for D in seen for img in D._cut_caches[5].values()} == {2}
    del seen[:]
    coefficient_field(family, 5)
    assert {id(D) for D in seen} == {id(D) for D in family}  # length 4 = N - 1: no copies


def test_deciding_weights_are_the_powers_of_p():
    assert coefffield._deciding_weights(QQ, 9) == [1]
    assert coefffield._deciding_weights(GF(2), 8) == [1, 2, 4]
    assert coefffield._deciding_weights(GF(2), 9) == [1, 2, 4, 8]
    assert coefffield._deciding_weights(GF(3), 10) == [1, 3, 9]
    assert coefffield._deciding_weights(GF(5), 5) == [1]
    assert coefffield._deciding_weights(GF(5), 6) == [1, 5]


def spy_on(monkeypatch, name):
    """Record the arguments and results of coefffield.<name>."""
    calls = []
    original = getattr(coefffield, name)

    def spy(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(coefffield, name, spy)
    return calls


@pytest.mark.parametrize("field, weights", [(QQ, [1]), (GF(2), [1, 2, 4]), (GF(3), [1, 3])])
def test_full_kernels_stop_at_the_deciding_weights(field, weights, monkeypatch, rng):
    """Taylor members, and members that are not iterative: one stacking
    of the deciding weights gives the constants."""
    matrices = spy_on(monkeypatch, "component_matrix")
    kernels = spy_on(monkeypatch, "joint_kernel")
    for kind in ("taylor", "random", "unit"):
        del matrices[:], kernels[:]
        family = family_for(kind, rng, 2, 7, field)
        report = coefficient_field(family, 8)
        assert report.basis == [Series.one(2, field)], kind
        assert report.operators_used == "all weights 1..7 of 2 derivation(s)"
        assert len(kernels) == 1, kind
        assert [args[1] for args, _ in matrices] == weights * 2
        # the images are built only through the largest deciding weight
        assert {args[0].length for args, _ in matrices} == {weights[-1]}


@pytest.mark.parametrize("degree1_only", [False, True])
def test_one_quotient_basis_per_kernel(degree1_only, monkeypatch):
    built = []
    init = QuotientBasis.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(QuotientBasis, "__init__", counted)
    coefficient_field(taylor_basis(2, 4, GF(2)), 5, degree1_only)
    assert built == [(2, 5)]


def test_too_few_derivations_are_not_a_basis():
    family = taylor_basis(2, 3, QQ)[:1]
    points = [Series.variable(2, QQ, j) for j in range(2)]
    for call in (lambda: degree1_matrix(family), lambda: nomura_unit_test(family, points),
                 lambda: coefficient_field(family, 4)):
        with pytest.raises(NotABasis):
            call()


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("kind", ["taylor", "random", "scaled"])
def test_degree1_matrix_reads_the_values_on_the_variables(kind, field, rng):
    """The stored t^1 coefficients of the images are the degree-1 values
    at the variables."""
    for n, m in ((1, 2), (2, 3), (3, 2)):
        family = family_for(kind, rng, n, m, field)
        variables = [Series.variable(n, field, j) for j in range(n)]
        assert degree1_matrix(family).entries == degree1_values(family, variables)


def test_mixed_families_are_incompatible():
    """A family whose first n members mix numbers of variables or fields
    is refused before any determinant."""
    for family in ([taylor_derivation(2, 2, QQ, 0), taylor_derivation(3, 2, QQ, 1)],
                   [taylor_derivation(2, 2, QQ, 0), taylor_derivation(2, 2, GF(5), 1)]):
        for call in (degree1_matrix, lambda F: coefficient_field(F, 3)):
            with pytest.raises(IncompatibleAmbient, match="ambient ring"):
                call(family)


def test_kernel_at_order_one_is_the_constants():
    for field in FIELDS:
        report = coefficient_field(taylor_basis(2, 2, field), 1)
        assert report.basis == [Series.one(2, field)]


def test_coefficient_field_requires_basis():
    x = Series.variable(1, QQ, 0)
    with pytest.raises(NotABasis):
        coefficient_field([integrate([x], 4)], 5)


def test_coefficient_field_requires_enough_length():
    with pytest.raises(ComponentOutOfRange):
        coefficient_field([taylor_derivation(1, 2, GF(2), 0)], 5)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_char_p_separation(p):
    """Weight-1 kernels keep the p-th powers; the full tower of weights
    cuts back down to the constants."""
    field = GF(p)
    N = p + 2
    family = [taylor_derivation(1, N - 1, field, 0)]
    full = coefficient_field(family, N)
    partial = coefficient_field(family, N, degree1_only=True)
    assert full.dimension == 1
    assert partial.dimension >= 2
    # diagonal oracle: d/dX kills X^k mod p iff p divides k
    expected_partial = [(k,) for k in range(N) if k % p == 0]
    assert [b.tuple_terms().popitem()[0] for b in partial.basis] == expected_partial


# -- the unit test on points ----------------------------------------------------------

def test_nomura_at_the_variables():
    family = taylor_basis(2, 2, QQ)
    points = [Series.variable(2, QQ, j) for j in range(2)]
    assert nomura_unit_test(family, points)


def test_nomura_at_squares_fails():
    family = taylor_basis(2, 2, QQ)
    points = [Series.variable(2, QQ, j) ** 2 for j in range(2)]
    assert not nomura_unit_test(family, points)


def test_nomura_euler_derivation_fails():
    x = Series.variable(1, QQ, 0)
    family = [integrate([x], 2)]
    assert not nomura_unit_test(family, [x])


def degree1_family(rng, n, field, kind):
    """Length-1 derivations whose values D^d_1(X_j) are constants, lower
    triangular (zero for j < d) or dense polynomials of degree <= 2,
    with random constant terms, zero included."""
    family = []
    for d in range(n):
        values = []
        for j in range(n):
            constant = Series.constant(n, field, random_scalar(rng, field))
            if kind == "constant":
                values.append(constant)
            elif kind == "triangular" and j < d:
                values.append(Series.zero(n, field))
            else:
                values.append(constant + random_series(rng, n, field, max_degree=2))
        family.append(integrate(values, 1))
    return family


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("kind", ["constant", "triangular", "dense"])
def test_nomura_is_the_constant_term_of_the_exact_determinant(field, kind, rng):
    """Against the plain Laplace determinant of the untruncated entries,
    at the variables, at random polynomials, and at points trusted to
    degree 1 or 2, whose entries are trusted to degree 0 or 1: a
    precision-0 row answers False."""
    answers = set()
    for n in (1, 2, 3):
        for _ in range(6):
            family = degree1_family(rng, n, field, kind)
            variables = [Series.variable(n, field, j) for j in range(n)]
            polynomials = [x + random_series(rng, n, field, max_degree=2) for x in variables]
            j = rng.randrange(n)
            for points in (
                variables,
                polynomials,
                [x.truncate(2) if d == j else x for d, x in enumerate(polynomials)],
                [x.truncate(1) if d == j else x for d, x in enumerate(polynomials)],
            ):
                want = bool(laplace_det(degree1_values(family, points)).constant_term())
                assert nomura_unit_test(family, points) == want, (family, points)
                answers.add(want)
    assert answers == {True, False}


def test_nomura_with_a_point_trusted_to_no_degree_is_false():
    """A point known modulo (X)^1 gives a row of entries known modulo
    (X)^0, so no constant term of the determinant is known."""
    family = taylor_basis(2, 1, QQ)
    known = Series.variable(2, QQ, 0)
    unknown = Series.one(2, QQ) + Series.variable(2, QQ, 1, precision=1)
    for points in ([known, unknown], [unknown, known]):
        assert [v.precision for v in degree1_values(family, points)[points.index(unknown)]] == [0, 0]
        assert not nomura_unit_test(family, points)
        assert not laplace_det(degree1_values(family, points)).constant_term()


def test_nomura_on_a_dense_seven_variable_family_is_fast():
    """GF(5), seven variables, every degree-1 value dense in the monomials
    of degree 1 and 2, unit constants on the diagonal.  The exact
    determinant of these values has about 93,000 terms; the constant
    terms alone decide."""
    field, n = GF(5), 7
    rng = random.Random(7)
    monomials = [e for d in (1, 2) for e in monomials_of_degree(n, d)]
    family = []
    for d in range(n):
        values = []
        for j in range(n):
            terms = {e: rng.randrange(5) for e in monomials}
            if j == d:
                terms[(0,) * n] = rng.randrange(1, 5)
            values.append(Series(n, field, terms))
        family.append(integrate(values, 1))
    variables = [Series.variable(n, field, j) for j in range(n)]
    start = time.perf_counter()
    assert nomura_unit_test(family, variables)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("kind", ["constant", "triangular", "dense"])
def test_coefficient_field_decides_the_basis_at_precision_one(field, kind, rng, monkeypatch):
    """``coefficient_field`` refuses exactly the families whose exact
    degree-1 determinant has no constant term, and every determinant it
    takes is of entries trusted to degree 1 at most.  A family whose
    first member has values in (X) is among them, so both answers
    occur."""
    det, calls = coefffield._det, []

    def truncated_only(rows):
        assert all(v.precision is not None and v.precision <= 1 for row in rows for v in row)
        calls.append(len(rows))
        return det(rows)

    monkeypatch.setattr(coefffield, "_det", truncated_only)
    answers = set()
    for n in (1, 2, 3):
        for _ in range(6):
            family = degree1_family(rng, n, field, kind)
            variables = [Series.variable(n, field, j) for j in range(n)]
            if rng.random() < 0.3:
                family[0] = integrate([variables[0] * random_series(rng, n, field)
                                       for _ in range(n)], 1)
            unit = bool(laplace_det(degree1_values(family, variables)).constant_term())
            if unit:
                assert coefficient_field(family, 2).dimension >= 1
            else:
                with pytest.raises(NotABasis, match="^degree-1 values have non-unit determinant$"):
                    coefficient_field(family, 2)
            answers.add(unit)
            assert calls.pop() == n and not calls
    assert answers == {True, False}


# -- the fast paths against the dense references -------------------------------------

@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("kind", ["taylor", "random"])
def test_component_matrix_matches_the_reference(field, kind, rng):
    for n, N in ((1, 7), (2, 5), (3, 4)):
        for D in family_for(kind, rng, n, N - 1, field):
            for i in range(N):
                fast, slow = component_matrix(D, i, N), dense_component_matrix(D, i, N)
                assert dense_view(fast) == slow
                assert all(v for row in fast.rows for v in row.values())


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_component_matrix_matches_the_reference_at_any_length(field, rng):
    """Lengths both shorter and longer than the quotient has weights for,
    so some t-degrees of the images are cut away entirely."""
    for n, m, N in ((1, 2, 6), (1, 6, 3), (2, 1, 4), (2, 4, 3), (3, 3, 2)):
        D = random_hsd(rng, n, m, field, max_degree=3, max_terms=3)
        for i in range(min(m, N - 1) + 1):
            assert dense_view(component_matrix(D, i, N)) == dense_component_matrix(D, i, N)


def random_rows(rng, field, nrows, ncols, density):
    return [
        [random_scalar(rng, field, nonzero=True) if rng.random() < density else field.zero()
         for _ in range(ncols)]
        for _ in range(nrows)
    ]


def combination(rng, field, rows, ncols):
    out = [field.zero()] * ncols
    for row in rows:
        c = random_scalar(rng, field)
        out = [field.add(x, field.mul(c, y)) for x, y in zip(out, row)]
    return out


def assert_nullspace_matches(rows, ncols, field):
    sparse = sparse_rows(rows)
    fast, slow = nullspace(sparse, ncols, field), dense_nullspace(rows, ncols, field)
    assert sparse == sparse_rows(rows)  # the rows are reduced as copies
    assert fast == slow
    assert [[type(x) for x in v] for v in fast] == [[type(x) for x in v] for v in slow]
    return fast


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_nullspace_matches_the_reference(field, rng):
    zero = field.zero()
    assert_nullspace_matches([], 0, field)
    assert_nullspace_matches([[], []], 0, field)
    assert len(assert_nullspace_matches([], 4, field)) == 4
    assert len(assert_nullspace_matches([[zero] * 3] * 2, 3, field)) == 3
    for _ in range(60):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rows = random_rows(rng, field, nrows, ncols, rng.choice([0.15, 0.4, 0.9]))
        # rank-deficient stacks: zero rows and combinations of other rows
        for _ in range(rng.randint(0, 3)):
            extra = combination(rng, field, rng.sample(rows, min(len(rows), 3)), ncols)
            rows.insert(rng.randint(0, len(rows)), extra)
        if rng.random() < 0.3:
            rows.insert(rng.randint(0, len(rows)), [zero] * ncols)
        assert_nullspace_matches(rows, ncols, field)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_nullspace_of_a_full_rank_stack_is_empty(field, rng):
    """Rows after the stack reaches full rank change nothing."""
    for n in range(7):
        identity = [[field.one() if r == c else field.zero() for c in range(n)] for r in range(n)]
        mixed = [combination(rng, field, identity, n) for _ in range(n)]
        assert_nullspace_matches(mixed, n, field)
        rows = mixed + identity + random_rows(rng, field, rng.randint(0, 3), n, 0.5)
        assert assert_nullspace_matches(rows, n, field) == []


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("kind", ["taylor", "random", "scaled", "unit"])
@pytest.mark.parametrize("degree1_only", [False, True])
def test_coefficient_field_matches_the_references(field, kind, degree1_only, rng):
    """Against every weight stacked at once, orders 1-9."""
    for n, top in ((1, 9), (2, 6), (3, 4)):
        for N in range(1, top + 1):
            family = family_for(kind, rng, n, max(N - 1, 1), field)
            fast = coefficient_field(family, N, degree1_only)
            slow = all_weights_kernel(family, N, degree1_only)
            assert (fast.dimension, fast.basis, fast.operators_used) == (
                slow.dimension, slow.basis, slow.operators_used)


def test_kernel_reports_are_byte_identical_with_the_references(tmp_path, monkeypatch):
    import random

    rng = random.Random(7)
    paths = []
    for field in FIELDS:
        for kind, n, N in (("taylor", 2, 5), ("random", 1, 7), ("random", 2, 4)):
            problem = serialize.Problem(
                field=field, nvars=n, length=N - 1, truncation=N, seed=1,
                derivations=family_for(kind, rng, n, N - 1, field),
            )
            path = tmp_path / f"{field!r}-{kind}-{n}-{N}.json"
            path.write_text(serialize.dumps(serialize.problem_to_json(problem)))
            paths.append(path)

    def reports(tag):
        out = []
        for path in paths:
            for flags in ([], ["--degree1-only"]):
                report = tmp_path / f"{path.stem}{''.join(flags)}.{tag}"
                assert main(["kernel", str(path), "--out", str(report)] + flags) == 0
                out.append(report.read_bytes())
        return out

    fast = reports("fast")
    monkeypatch.setattr(cli, "coefficient_field", all_weights_kernel)
    slow = reports("slow")
    assert fast == slow
    assert all(json.loads(r)["dimension"] >= 1 for r in fast)
