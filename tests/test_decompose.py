"""Decomposition of a derivation through a family: residuals, solve, round trips."""

import pytest

from hasseschmidt import (
    GF,
    QQ,
    CoeffTable,
    HSDerivation,
    Series,
    TSeries,
    apply_table,
    decompose,
    degree1_matrix,
    integrate,
    residual,
    solve_derivation_coords,
    taylor_basis,
    taylor_derivation,
    verify_decomposition,
)
from hasseschmidt import serialize
from hasseschmidt.decompose import Degree1Matrix, _det
from hasseschmidt.errors import IncompatibleAmbient, NotABasis, PrecisionExhausted
from hasseschmidt.series import min_prec

import reference
from conftest import (
    assert_agree_to_trusted, random_family, random_hsd, random_scalar, random_series,
    random_table, scaled_taylor,
)


def worked_target(field=QQ):
    x = Series.variable(1, field, 0)
    return HSDerivation([TSeries([x, x, Series.one(1, field)])])


# -- the degree-1 matrix ----------------------------------------------------

def test_taylor_basis_gives_identity_matrix():
    M = degree1_matrix(taylor_basis(3, 2, QQ))
    for j in range(3):
        for d in range(3):
            expect = Series.one(3, QQ) if j == d else Series.zero(3, QQ)
            assert M.entries[j][d] == expect
    assert M.det == Series.one(3, QQ)


def test_euler_derivation_is_not_a_basis():
    x = Series.variable(1, QQ, 0)
    with pytest.raises(NotABasis, match="non-unit determinant"):
        degree1_matrix([integrate([x], 2)])


def test_triangular_two_variable_matrix():
    # members with weight-1 parts d/dX1 + X2 d/dX2 and d/dX2
    x2 = Series.variable(2, QQ, 1)
    one, zero = Series.one(2, QQ), Series.zero(2, QQ)
    A = integrate([one, x2], 2)
    B = integrate([zero, one], 2)
    M = degree1_matrix([A, B])
    assert M.entries == [[one, zero], [x2, one]]
    assert M.det == one


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=repr)
def test_det_shares_minors_but_matches_plain_laplace(field, rng):
    """Each minor computed once gives the plain expansion's value and tag,
    on matrices with zero entries, zeros with tags and mixed tags."""
    for n in (1, 2, 3, 4, 5):
        for _ in range(6):
            rows = [[random_series(rng, 2, field, max_degree=2, max_terms=rng.choice((0, 1, 2)),
                                   precision=rng.choice((None, None, 1, 2, 4)))
                     for _ in range(n)] for _ in range(n)]
            got, expect = _det(rows), reference.laplace_det(rows)
            assert (got, got.precision) == (expect, expect.precision), rows


def test_det_leaves_no_reference_cycle(rng):
    """Its helpers call each other; a call clears them, so it leaves
    nothing for the cycle collector: with DEBUG_SAVEALL, a collection
    right after a 3 x 3 determinant over GF(5) finds no garbage."""
    import gc

    rows = [[random_series(rng, 2, GF(5)) for _ in range(3)] for _ in range(3)]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.garbage.clear()
        _det(rows)
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_det_keeps_the_tag_of_a_zero_entry_wherever_it_sits(field):
    """0 + O(deg 1) in the first row, where the expansion reads it as a
    factor, or in the minor, gives -1 + O(deg 1) both times: a tagged zero
    bounds the tag, as an operand without terms does in ``dot``."""
    zero, one, x = Series.zero(1, field, 1), Series.one(1, field), Series.variable(1, field, 0)
    want = Series.constant(1, field, -1, 1)
    for rows in ([[zero, one], [one, x]], [[x, one], [one, zero]]):
        for det in (_det(rows), reference.laplace_det(rows)):
            assert (det, det.precision) == (want, 1), rows


def sympy_polynomials(nvars, field):
    """The map from exact Series to sympy's K[x1..xn], K = QQ or GF(p),
    and sympy's determinant of square rows of exact Series."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    K = sympy.QQ if field.p is None else sympy.GF(field.p)
    ring = K[sympy.symbols(f"x1:{nvars + 1}")]

    def coeff(c):
        return K(c.numerator, c.denominator) if field.p is None else K(c)

    def poly(f):
        return ring.ring.from_dict({e: coeff(c) for e, c in f.tuple_terms().items()})

    def det(rows):
        return DomainMatrix([[poly(f) for f in row] for row in rows], (len(rows),) * 2, ring).det()

    return poly, det


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=repr)
def test_det_matches_sympy(field, rng):
    """``_det`` and ``degree1_matrix(..).det`` on exact polynomial
    matrices of degree <= 2 give sympy's determinant over K[x1..xn]."""
    bases = 0
    for n in (1, 2, 3, 4):
        poly, sympy_det = sympy_polynomials(n, field)
        for _ in range(6):
            rows = [[random_series(rng, n, field, max_degree=2, max_terms=rng.choice((0, 2, 3)))
                     for _ in range(n)] for _ in range(n)]
            expect = sympy_det(rows)
            assert poly(_det(rows)) == expect
            try:
                M = degree1_matrix([integrate([rows[j][d] for j in range(n)], 2)
                                    for d in range(n)])
            except NotABasis:
                assert not _det(rows).constant_term()
                continue
            assert M.entries == rows
            assert poly(M.det) == expect
            bases += 1
    assert bases


# -- residuals ----------------------------------------------------------------

def test_residual_level_one_is_the_component(rng):
    T = random_hsd(rng, 2, 3, GF(5))
    table = CoeffTable.empty(2, GF(5))
    f = random_series(rng, 2, GF(5))
    assert residual(T, taylor_basis(2, 3, GF(5)), table, 1, f) == T.apply_component(1, f)


def test_residual_worked_case_level_two():
    T = worked_target()
    x = Series.variable(1, QQ, 0)
    table = CoeffTable([[x]])  # level 1 already solved: C[1] = X
    value = residual(T, taylor_basis(1, 2, QQ), table, 2, x)
    assert value == Series.one(1, QQ)


def test_residual_is_a_derivation(rng):
    """With the lower levels solved, the residual obeys the product rule."""
    for field in (QQ, GF(2)):
        T = random_hsd(rng, 2, 3, field)
        family = taylor_basis(2, 3, field)
        result = decompose(T, family, out_precision=9, verify_degree=3)
        for level in range(1, 4):
            partial = CoeffTable(result.table.rows[: level - 1], nvars=2, field=field)
            for _ in range(6):
                f = random_series(rng, 2, field, max_degree=3, max_terms=2)
                g = random_series(rng, 2, field, max_degree=3, max_terms=2)
                lhs = residual(T, family, partial, level, f * g)
                rhs = residual(T, family, partial, level, f) * g + f * residual(
                    T, family, partial, level, g
                )
                assert lhs == rhs, (field, level)


# -- solving for coordinates -----------------------------------------------------

def test_solve_against_identity_matrix(rng):
    M = degree1_matrix(taylor_basis(2, 2, QQ))
    values = [random_series(rng, 2, QQ) for _ in range(2)]
    assert solve_derivation_coords(values, M, 6) == values


def test_solve_worked_direct_division():
    M = degree1_matrix(taylor_basis(1, 2, QQ))
    x = Series.variable(1, QQ, 0)
    assert solve_derivation_coords([x], M, 6) == [x]


def test_solve_rejects_singular_matrix():
    """A solve never sees a singular matrix: degree1_matrix refuses the
    Euler family before any solve."""
    x = Series.variable(1, QQ, 0)
    with pytest.raises(NotABasis, match="non-unit determinant"):
        solve_derivation_coords([x], degree1_matrix([integrate([x], 2)]), 6)


def test_a_hand_built_matrix_is_a_unit_by_construction():
    x1, x2 = Series.variable(2, QQ, 0), Series.variable(2, QQ, 1)
    one, zero = Series.one(2, QQ), Series.zero(2, QQ)
    for entries in ([[x1, x2], [x2, x1]], [[one, one], [one, one]], [[zero, one], [zero, x1]]):
        with pytest.raises(NotABasis, match="non-unit determinant"):
            Degree1Matrix(entries, _det(entries))
    # a unit determinant that is not constant is accepted
    entries = [[one + x1, x2], [zero, one]]
    assert Degree1Matrix(entries, _det(entries)).det == one + x1


def test_solve_with_series_inversion():
    # M = [1 + X]: coordinates of (1+X)^2 come out as 1 + X, truncated
    x = Series.variable(1, QQ, 0)
    M = degree1_matrix([integrate([1 + x], 2)])
    (coord,) = solve_derivation_coords([(1 + x) * (1 + x)], M, 7)
    assert coord == (1 + x).truncate(7)


def test_solve_exact_when_determinant_is_constant():
    # non-constant entries but det = 1: polynomial adjugate, exact answer
    x2 = Series.variable(2, QQ, 1)
    one, zero = Series.one(2, QQ), Series.zero(2, QQ)
    A = integrate([one, x2], 2)
    B = integrate([zero, one], 2)
    M = degree1_matrix([A, B])
    values = [x2, x2 * x2]
    coords = solve_derivation_coords(values, M, 6)
    assert all(c.precision is None for c in coords)
    for j in range(2):
        recombined = coords[0] * M.entries[j][0] + coords[1] * M.entries[j][1]
        assert recombined == values[j]


def mixed_matrix(field):
    """[[1 + X1, X1], [X2, 1]]: determinant 1 + X1 - X1 X2, not constant."""
    x1, x2 = Series.variable(2, field, 0), Series.variable(2, field, 1)
    one = Series.one(2, field)
    return degree1_matrix([integrate([one + x1, x2], 2),
                           integrate([x1, one], 2)])


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=repr)
def test_solve_keeps_the_tag_of_a_zero_value(field):
    """The first value is zero but only known to degree 3, so both
    coordinates, which read it, are known to degree 3, not 4."""
    x1, x2 = Series.variable(2, field, 0), Series.variable(2, field, 1)
    values = [Series.zero(2, field, 3), x2.truncate(4)]
    coords = solve_derivation_coords(values, mixed_matrix(field), 6)
    assert coords == [(-(x1 * x2)).truncate(3), x2.truncate(3)]


def solve_families(rng, field):
    """Degree-1 matrices with constant and with non-constant determinants."""
    x2 = Series.variable(2, field, 1)
    one, zero = Series.one(2, field), Series.zero(2, field)
    yield degree1_matrix([integrate([one, x2], 2),
                          integrate([zero, one], 2)])
    yield mixed_matrix(field)
    for n in (1, 2, 3):
        yield degree1_matrix(taylor_basis(n, 2, field))
        yield degree1_matrix(scaled_taylor(n, 2, field))
        yield degree1_matrix(random_family(rng, n, 2, field))


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=repr)
def test_solve_tags_are_those_of_the_values_read(field, rng):
    """Values with mixed tags, zeros with finite tags and exact ones: each
    coordinate agrees with the solve of the untruncated values modulo its
    own tag, and the matrix times the coordinates gives the values
    modulo the weakest of them.  Where the values are nonzero and share
    one tag, or are all exact, the Cramer solve gives the same."""
    for M in solve_families(rng, field):
        n = len(M.entries)
        for _ in range(12):
            exact = [random_series(rng, n, field, max_degree=4, max_terms=rng.choice((0, 2, 4)))
                     for _ in range(n)]
            shared = rng.random() < 0.4
            tag = rng.choice((None, 1, 2, 3, 5))
            values = [v.truncate(tag if shared else rng.choice((None, 1, 2, 3, 5)))
                      for v in exact]
            P = rng.randint(1, 6)
            coords = solve_derivation_coords(values, M, P)
            for got, full in zip(coords, solve_derivation_coords(exact, M, P)):
                assert min_prec(got.precision, full.precision) == got.precision
                assert full.truncate(got.precision) == got
            for j in range(n):
                recombined = coords[0] * M.entries[j][0]
                for d in range(1, n):
                    recombined = recombined + coords[d] * M.entries[j][d]
                weakest = recombined.precision
                assert min_prec(weakest, values[j].precision) == weakest
                assert recombined == values[j].truncate(weakest)
            common = {v.precision for v in values}
            if len(common) == 1 and (all(v.terms for v in values) or common == {None}):
                assert coords == reference.solve_derivation_coords(values, M, P)


def triangular_family(rng, n, m, field):
    """Members whose degree-1 matrix is lower triangular with nonzero
    constants on the diagonal: a constant determinant, entries that are
    not."""
    def value(j, d):
        if j == d:
            return Series.constant(n, field, random_scalar(rng, field, nonzero=True))
        if j > d:
            return random_series(rng, n, field, max_degree=2, max_terms=2)
        return Series.zero(n, field)

    return [integrate([value(j, d) for j in range(n)], m) for d in range(n)]


def inverse_families(rng, n, field):
    """(kind, family): Taylor and triangular families have a constant
    determinant, scaled Taylor ones a non-constant one, and random ones
    either."""
    yield "taylor", taylor_basis(n, 2, field)
    yield "triangular", triangular_family(rng, n, 2, field)
    yield "scaled", scaled_taylor(n, 2, field)
    yield "random", random_family(rng, n, 2, field)


def is_exact_zero(f):
    return not f.terms and f.precision is None


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=repr)
def test_inverse_against_the_reference_cofactors(field, rng):
    """inv[d][j] is cof[j][d] / det from the plain cofactors: exact when
    det is constant, else modulo (X)^P with every entry tagged P; its
    exact zeros are the exact-zero cofactors; it inverts the entries;
    and the one-``dot`` solve gives Cramer's coordinates."""
    for n in (1, 2, 3, 4):
        for kind, family in inverse_families(rng, n, field):
            M = degree1_matrix(family)
            constant = M.det.degree() <= 0
            if kind != "random":
                assert constant == (kind in ("taylor", "triangular"))
            one, zero = Series.one(n, field), Series.zero(n, field)
            for P in range(1, 7):
                inv = M.inverse(P)
                tag = None if constant else P
                cof = reference.cofactors(M.entries, tag)
                if constant:
                    det_inv = Series.constant(n, field, field.inv(M.det.constant_term()))
                else:
                    det_inv = reference.inverse(M.det, P)
                for d in range(n):
                    for j in range(n):
                        entry = inv[d][j]
                        assert entry.precision == tag
                        assert is_exact_zero(entry) == is_exact_zero(cof[j][d])
                        assert entry == reference.product(cof[j][d], det_inv)
                    for e in range(n):
                        total = zero
                        for j in range(n):
                            total = total + reference.product(inv[d][j], M.entries[j][e])
                        assert total == (one if d == e else zero).truncate(tag)
                exact = [random_series(rng, n, field, max_degree=3, max_terms=rng.choice((0, 2, 3)))
                         for _ in range(n)]
                shared = rng.choice((None, 2, 4))
                for values in (exact, [v.truncate(shared) for v in exact]):
                    if values is exact or all(v.terms for v in values):
                        assert (solve_derivation_coords(values, M, P)
                                == reference.solve_derivation_coords(values, M, P))


# -- decompose -----------------------------------------------------------------------

def test_decompose_member_of_family_gives_unit_column(rng):
    family = taylor_basis(2, 3, GF(3))
    result = decompose(family[0], family, out_precision=9, verify_degree=4)
    assert result.passed
    one, zero = Series.one(2, GF(3)), Series.zero(2, GF(3))
    assert result.table.rows == [[one, zero], [zero, zero], [zero, zero]]


def test_decompose_worked_case():
    result = decompose(worked_target(), taylor_basis(1, 2, QQ), out_precision=6)
    x = Series.variable(1, QQ, 0)
    assert result.table.rows == [[x], [Series.one(1, QQ)]]
    assert result.passed
    assert result.verified_to_degree == 6
    assert result.basis_order == ["taylor1"]


def test_decompose_identity_target_gives_zero_table():
    family = taylor_basis(2, 2, QQ)
    result = decompose(HSDerivation.identity(2, 2, QQ), family, out_precision=6)
    assert all(c.is_zero() for row in result.table.rows for c in row)
    assert result.passed


def test_decompose_needs_positive_remaining_precision():
    with pytest.raises(PrecisionExhausted):
        decompose(worked_target(), taylor_basis(1, 2, QQ), out_precision=2)


def test_decompose_rejects_non_basis():
    x = Series.variable(1, QQ, 0)
    family = [integrate([x], 2)]
    with pytest.raises(NotABasis):
        decompose(worked_target(), family, out_precision=6)


@pytest.mark.parametrize("mismatch", ["field", "length", "nvars"])
def test_decompose_rejects_a_family_off_the_targets_ambient(mismatch, rng):
    """Every member must share the target's field, length and nvars.
    ``degree1_matrix`` compares the members with the first one only, so
    this check is the one that compares them with the target."""
    n, m = 2, 2
    target = random_hsd(rng, n, m, GF(5))
    if mismatch == "field":
        family = taylor_basis(n, m, GF(3))
    elif mismatch == "length":
        family = [taylor_derivation(n, m, GF(5), 0), taylor_derivation(n, m + 1, GF(5), 1)]
    else:
        family = [taylor_derivation(n, m, GF(5), 0), taylor_derivation(n + 1, m, GF(5), 1)]
    with pytest.raises(IncompatibleAmbient, match="family members must share"):
        decompose(target, family, out_precision=m + 2)


def test_decompose_round_trip_random(rng):
    for field in (QQ, GF(2), GF(5)):
        for _ in range(5):
            T = random_hsd(rng, 2, 3, field)
            result = decompose(T, taylor_basis(2, 3, field), out_precision=9, verify_degree=4)
            assert result.passed, f"{field}: {result.witness}"


def test_decompose_round_trip_nonconstant_basis():
    """Series-inversion route: basis with unit but non-constant determinant."""
    for field in (QQ, GF(3)):
        x = Series.variable(1, field, 0)
        one = Series.one(1, field)
        B = integrate([one + x], 2)
        T = HSDerivation([TSeries([x, x * x, one])])
        result = decompose(T, [B], out_precision=9, verify_degree=5)
        assert result.passed
        # level 1: delta_1(X) = X^2 against D_1(X) = 1 + X
        assert_agree_to_trusted(
            result.table.at(1, 0), (x * x) * (one + x).inverse(9)
        )


def test_decompose_round_trip_nonconstant_basis_two_variables(rng):
    """Multivariate Cramer route: diagonal basis with determinant
    (1 + X1)(1 + X2), a unit that must be inverted as a series."""
    for field in (QQ, GF(3)):
        one, zero = Series.one(2, field), Series.zero(2, field)
        x1, x2 = Series.variable(2, field, 0), Series.variable(2, field, 1)
        B1 = integrate([one + x2, zero], 2)
        B2 = integrate([zero, one + x1], 2)
        assert degree1_matrix([B1, B2]).det == one + x1 + x2 + x1 * x2
        for _ in range(4):
            T = random_hsd(rng, 2, 2, field)
            result = decompose(T, [B1, B2], out_precision=8, verify_degree=4)
            assert result.passed, (field, result.witness)


def test_decompose_is_deterministic(rng):
    T = random_hsd(rng, 2, 3, GF(5))
    family = taylor_basis(2, 3, GF(5))
    a = decompose(T, family, out_precision=9, verify_degree=3)
    b = decompose(T, family, out_precision=9, verify_degree=3)
    assert a.table == b.table


def test_decompose_depends_on_family_order():
    """Frozen instance where permuting the family is not a slot permutation
    of the table."""
    field = QQ
    x1, x2 = Series.variable(2, field, 0), Series.variable(2, field, 1)
    one, zero = Series.one(2, field), Series.zero(2, field)
    D1 = taylor_derivation(2, 2, field, 0)
    D2 = integrate([x1, one], 2)
    T = HSDerivation([TSeries([x1, x2, one]), TSeries([x2, x1, zero])])
    ab = decompose(T, [D1, D2], out_precision=8, verify_degree=4)
    ba = decompose(T, [D2, D1], out_precision=8, verify_degree=4)
    assert ab.passed and ba.passed
    swapped = CoeffTable([[row[1], row[0]] for row in ba.table.rows])
    assert swapped != ab.table
    # frozen level-2 rows, computed once and pinned
    assert ab.table.rows[1] == [x1 ** 3 - x1 * x2 + one, zero]
    assert ba.table.rows[1] == [zero, one]


# -- verification -------------------------------------------------------------------

def test_verify_flags_perturbed_table(rng):
    T = random_hsd(rng, 2, 2, GF(3))
    family = taylor_basis(2, 2, GF(3))
    result = decompose(T, family, out_precision=8, verify_degree=3)
    assert result.passed
    rows = [list(row) for row in result.table.rows]
    rows[1][0] = rows[1][0] + Series.one(2, GF(3))
    report = verify_decomposition(T, family, CoeffTable(rows), 3)
    assert not report.passed
    assert report.witness is not None
    assert report.witness.i == 2  # only weight 2 sees level-2 entries


def test_verify_length_one_is_linear_identity(rng):
    """For length 1 the reconstruction is plain linear algebra in the
    degree-1 matrix."""
    T = random_hsd(rng, 2, 1, QQ)
    family = taylor_basis(2, 1, QQ)
    result = decompose(T, family, out_precision=5, verify_degree=4)
    assert result.passed
    # against the standard basis, the level-1 row is exactly D_1 on the variables
    assert [result.table.at(1, d) for d in range(2)] == [
        T.apply_component(1, Series.variable(2, QQ, d)) for d in range(2)
    ]


# -- the variable check against the reference sweep ---------------------------------

def report_bytes(report):
    """Every field of a verification report, the witness as canonical JSON."""
    w = report.witness
    witness = None if w is None else {
        "i": w.i,
        "beta": list(w.beta),
        "lhs": w.lhs,
        "rhs": w.rhs,
    }
    return serialize.dumps({
        "passed": report.passed,
        "verified_to_degree": report.verified_to_degree,
        "max_degree": report.max_degree,
        "witness": witness,
    })


def assert_matches_sweep(target, family, table, max_degree):
    report = verify_decomposition(target, family, table, max_degree)
    oracle = reference.sweep(target, family, table, max_degree, apply_table)
    assert report_bytes(report) == report_bytes(oracle)
    return report


def target_from_table(table, family, m):
    """The HS derivation whose variable images are the stored terms of the
    table's reconstruction: it agrees with the table on every variable."""
    n, field = table.nvars, table.field
    images = []
    for j in range(n):
        x = Series.variable(n, field, j)
        coeffs = [x] + [
            Series(n, field, apply_table(table, family, i, x).tuple_terms()) for i in range(1, m + 1)
        ]
        images.append(TSeries(coeffs))
    return HSDerivation(images)


MAX_DEGREES = (-1, 0, 1, 2, 3, 4)
SHAPES = ((1, 2), (1, 4), (2, 2), (2, 3), (3, 2))


def perturbed(table, rng):
    """The table with one entry changed: a nonzero series added, its tag
    lowered, or the entry replaced by a zero with a finite tag."""
    n, field = table.nvars, table.field
    rows = [list(row) for row in table.rows]
    level, d = rng.randrange(len(rows)), rng.randrange(n)
    kind = rng.choice(("add", "tag", "zero"))
    if kind == "add":
        rows[level][d] = rows[level][d] + Series.one(n, field) + random_series(rng, n, field)
    elif kind == "tag":
        rows[level][d] = rows[level][d].truncate(rng.randint(0, 3))
    else:
        rows[level][d] = Series.zero(n, field, rng.randint(0, 3))
    return CoeffTable(rows, nvars=n, field=field)


def target_off_by_one(table, family, m, rng):
    """``target_from_table`` with 1 added to D_i(X_j) for a random weight i
    and variable j: where the table's tags let it show, the first witness
    is (i, X_j)."""
    target = target_from_table(table, family, m)
    images = [list(img.coeffs) for img in target.images]
    i, j = rng.randint(1, m), rng.randrange(table.nvars)
    images[j][i] = images[j][i] + Series.one(table.nvars, table.field)
    return HSDerivation([TSeries(coeffs) for coeffs in images])


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=repr)
def test_verify_matches_sweep_on_correct_and_perturbed_tables(field, rng):
    """Decomposed tables, the same with one entry changed, and random
    tables against random targets and against targets that differ from
    them on one variable at one weight, so that witnesses also fall on
    later variables and weights."""
    caught = later = 0
    for trial in range(12):
        n, m = rng.choice(SHAPES)
        family = taylor_basis(n, m, field) if trial % 2 else random_family(rng, n, m, field)
        target = random_hsd(rng, n, m, field)
        table = decompose(target, family, out_precision=m + 4, verify_degree=0).table
        changed = [perturbed(table, rng) for _ in range(3)]
        unrelated = random_table(rng, n, m, field)
        near = target_off_by_one(unrelated, family, m, rng)
        for max_degree in MAX_DEGREES:
            assert assert_matches_sweep(target, family, table, max_degree).passed
            for bad in changed:
                caught += not assert_matches_sweep(target, family, bad, max_degree).passed
            assert_matches_sweep(target, family, unrelated, max_degree)
            w = assert_matches_sweep(near, family, unrelated, max_degree).witness
            later += w is not None and (w.i, w.beta) != (1, (1,) + (0,) * (n - 1))
    assert caught
    assert later


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=repr)
def test_verify_matches_sweep_on_mixed_precision_tables(field, rng):
    """Hand-built tables with random tags, zero entries among them, against
    targets that agree with them on every variable: whether the variable
    check may decide depends only on the tags."""
    decided = 0
    for trial in range(30):
        n, m = rng.choice([(1, 3), (1, 4), (2, 2), (2, 3)])
        family = taylor_basis(n, m, field) if trial % 2 else random_family(rng, n, m, field)
        rows = [
            [
                random_series(rng, n, field, max_degree=2, max_terms=2,
                              precision=rng.choice([None, None, 1, 2, 3, 5]))
                for _ in range(n)
            ]
            for _ in range(m)
        ]
        table = CoeffTable(rows, nvars=n, field=field)
        # the weight-i tag is the least tag of the entries at levels <= i,
        # which is what lets the variable check decide (verify_decomposition)
        x = Series.variable(n, field, 0)
        floor = None
        for i in range(1, m + 1):
            for entry in rows[i - 1]:
                floor = min_prec(floor, entry.precision)
            assert apply_table(table, family, i, x).precision == floor
        target = target_from_table(table, family, m)
        for max_degree in MAX_DEGREES:
            report = assert_matches_sweep(target, family, table, max_degree)
        decided += report.passed
    assert decided  # some tables pass, so the variable check gets exercised


def test_verify_zero_rows_keep_their_tags(rng):
    """Zero rows 1 and 3 tagged 5 bound every weight's precision by 5, so
    the tags are [5, 5, 5, 5] and the variable check may decide; it agrees
    with the sweep, which agrees with the table on every monomial."""
    field, n, m = GF(3), 2, 4
    family = random_family(rng, n, m, field)
    zero = Series.zero(n, field, 5)
    rows = [[zero, zero], [random_series(rng, n, field, precision=5) for _ in range(n)],
            [zero, zero], [random_series(rng, n, field, precision=5) for _ in range(n)]]
    table = CoeffTable(rows, nvars=n, field=field)
    target = target_from_table(table, family, m)
    x = Series.variable(n, field, 0)
    assert [apply_table(table, family, i, x).precision for i in range(1, m + 1)] == [5, 5, 5, 5]
    for max_degree in MAX_DEGREES:
        assert_matches_sweep(target, family, table, max_degree)


def test_verify_vanished_square_keeps_its_tag():
    """C[1] = X trusted to degree 2 makes C[1]^2 vanish, but its tag still
    bounds weight 2: the table gives 2X + O(deg 2) on X^2, which agrees
    with the target's X^2 + 2X there, and the check passes."""
    field = QQ
    x, one = Series.variable(1, field, 0), Series.one(1, field)
    target = HSDerivation([TSeries([x, x, one])])
    family = taylor_basis(1, 2, field)
    table = CoeffTable([[x.truncate(2)], [one]])
    x2 = x * x
    assert apply_table(table, family, 2, x2) == Series(1, field, {(1,): field.coerce(2)}, 2)
    assert target.apply_component(2, x2) == x2 + x.scale(2)
    report = assert_matches_sweep(target, family, table, 3)
    assert (report.passed, report.verified_to_degree) == (True, 3)


def test_verify_zero_entry_with_a_low_tag_falls_back():
    """C[2] = 0 trusted to degree 1 enters every weight from 2 on, so those
    weights are compared modulo degree 1 only, though every nonzero entry
    is trusted to degree 5.  At weight 5 on X^2 the table gives
    0 + O(deg 1); the exact composite of the stored entries gives 4X^2,
    the target's value, so nothing the table claims is false.  The sweep
    and the variable check both pass."""
    field = QQ
    x = Series.variable(1, field, 0)
    target = HSDerivation([TSeries([x, x, Series.zero(1, field), x, x, x])])
    family = taylor_basis(1, 5, field)
    xt = x.truncate(5)
    table = CoeffTable([[xt], [Series.zero(1, field, 1)], [xt], [xt], [xt]])
    assert [apply_table(table, family, i, x).precision for i in range(1, 6)] == [5, 1, 1, 1, 1]
    for i in range(1, 6):
        assert_agree_to_trusted(target.apply_component(i, x), apply_table(table, family, i, x))
    x2 = x * x
    exact = CoeffTable([[x], [Series.zero(1, field)], [x], [x], [x]])
    assert apply_table(exact, family, 5, x2) == target.apply_component(5, x2) == x2.scale(4)
    assert apply_table(table, family, 5, x2) == Series.zero(1, field, 1)
    report = assert_matches_sweep(target, family, table, 3)
    assert (report.passed, report.verified_to_degree) == (True, 3)
