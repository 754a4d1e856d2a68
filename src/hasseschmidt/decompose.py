"""Expressing a Hasse-Schmidt derivation through a generating family.

Given a family D^1, .., D^n whose degree-1 parts form a basis of the
derivation module (equivalently: the matrix of their values on the
variables has unit determinant), every Hasse-Schmidt derivation of the
same length is reproduced by a unique coefficient table, computed level
by level: at level N the target component minus the already-determined
composite terms is again an ordinary derivation (the residual), and its
coordinates in the degree-1 basis fill row N of the table.  The matrix
is the same at every level, so its inverse is computed once, and each
level is a matrix-vector product.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ComponentOutOfRange, IncompatibleAmbient, NotABasis, PrecisionExhausted
from .series import Series, dot, min_prec
# bench/spans.py patches compose_multi and weighted_terms in this
# namespace as well as in formula's
from .derivations import HSDerivation, compose_multi  # noqa: F401
from .formula import CoeffTable, apply_table, table_sum, weighted_terms  # noqa: F401


@dataclass
class Degree1Matrix:
    """The values D^d_1(X_j) as a matrix: entries[j][d], with determinant,
    a unit (NotABasis otherwise: the degree-1 parts are then no basis);
    its inverse is cached."""

    entries: list  # entries[j][d] : Series
    det: Series
    _inverses: dict = dataclasses.field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.det.constant_term():
            raise NotABasis("degree-1 values have non-unit determinant")

    def inverse(self, precision: int) -> list:
        """inv[d][j] = cof[j][d] / det, cof[j][d] being (-1)^(j+d) times
        the determinant of the entries without row j and column d; so
        sum_j inv[d][j] * entries[j][e] is 1 when d == e and 0 otherwise.

        Exact when det is a nonzero constant, and then built once; an
        entry is an exact zero exactly where its cofactor is.  Otherwise
        built from the entries and 1/det modulo (X)^precision, once per
        precision, and from exact entries every inv[d][j] is tagged
        precision: 1/det is only known to that precision, so nothing
        above it is ever read."""
        det = self.det
        key = None if det.degree() <= 0 else precision
        inv = self._inverses.get(key)
        if inv is None:
            rows = self.entries
            if key is None:
                det_inv = Series.constant(det.nvars, det.field, det.field.inv(det.constant_term()))
            else:
                rows = [[entry.truncate(precision) for entry in row] for row in rows]
                det_inv = det.inverse(precision)
            n = len(rows)
            if n == 1:
                inv = [[det_inv]]
            else:
                def cofactor(j, d):
                    minor = _det([[r[c] for c in range(n) if c != d]
                                  for k, r in enumerate(rows) if k != j])
                    return minor if (j + d) % 2 == 0 else -minor

                inv = [[cofactor(j, d) * det_inv for j in range(n)] for d in range(n)]
            self._inverses[key] = inv
        return inv


def _det(rows) -> Series:
    """Exact determinant by Laplace expansion along the first row, each
    minor computed once and expanded as one ``dot``.  A minor of the last
    k rows is fixed by the k columns it keeps, so an n x n determinant
    takes at most n 2^(n-1) products instead of n!; still exponential, so
    small n only.  An exact zero entry is skipped.  An entry without terms
    but with a finite tag adds no term, only the tag of its product, as
    an operand without terms does in ``dot``; so of its minor only the
    tag is taken, without arithmetic."""
    n = len(rows)
    first = rows[0][0]
    minors: dict = {}
    tags: dict = {}

    def minor(cols):
        row = rows[n - len(cols)]
        if len(cols) == 1:
            return row[cols[0]]
        out = minors.get(cols)
        if out is None:
            pairs, prec = [], None
            for k, col in enumerate(cols):
                entry, rest = row[col], cols[:k] + cols[k + 1:]
                if entry.terms:
                    pairs.append((entry if k % 2 == 0 else -entry, minor(rest)))
                elif entry.precision is not None:
                    prec = min_prec(prec, min_prec(entry.precision, tag(rest)))
            out = minors[cols] = dot(pairs, first.nvars, first.field, prec)
        return out

    def tag(cols):
        """The tag of minor(cols), taken alone unless the minor is known."""
        if len(cols) == 1 or cols in minors:
            return minor(cols).precision
        if cols not in tags:
            row, out = rows[n - len(cols)], None
            for k, col in enumerate(cols):
                entry = row[col]
                if entry.terms or entry.precision is not None:
                    out = min_prec(out, min_prec(entry.precision, tag(cols[:k] + cols[k + 1:])))
            tags[cols] = out
        return tags[cols]

    try:
        return minor(tuple(range(n)))
    finally:  # the helpers call each other: cleared, they leave no cycle
        minor = tag = None


def degree1_values(family, points=None) -> list:
    """The entries D^d_1(a_j), row j and column d, of the first n members
    at the points a_1..a_n, where there are n variables; by default the
    variables, where D^d_1(X_j) is the t^1 coefficient of E^d(X_j).
    NotABasis if fewer than n members, IncompatibleAmbient if one of the
    first n has another ambient ring; later members are ignored."""
    family = list(family)
    n, field = family[0].nvars, family[0].field
    if len(family) < n:
        raise NotABasis(f"{len(family)} derivation(s) cannot span {n} variables")
    members = family[:n]
    for D in members:
        if D.nvars != n or D.field != field:
            raise IncompatibleAmbient("series does not match the derivation's ambient ring")
    if points is None:
        columns = [D._degree1_images() for D in members]
        return [[Series._of(n, field, column[j], None) for column in columns] for j in range(n)]
    return [[D.apply_component(1, a) for D in members] for a in points]


def degree1_matrix(family) -> Degree1Matrix:
    """The degree-1 matrix of the first n members at the variables (see
    degree1_values)."""
    entries = degree1_values(family)
    return Degree1Matrix(entries, _det(entries))


def residual(target: HSDerivation, family, table: CoeffTable, level: int, f: Series) -> Series:
    """The level-N residual applied to f: the target component minus every
    composite term with at least two factors.

    The single-factor terms are excluded because their coefficients are
    exactly the unknowns of level N.  When the table already reproduces
    the target below N, this map is an ordinary derivation.  The
    subtracted sum is ``table_sum``'s, memoized on the table, and
    ``apply_table`` at weight N on the same f adds only the single-factor
    terms to it.
    """
    if level < 1 or level > target.length:
        raise ComponentOutOfRange(f"level {level} outside 1..{target.length}")
    if table.levels < level - 1:
        raise ValueError(f"table has {table.levels} levels, need {level - 1}")
    return target.apply_component(level, f) - table_sum(table, family, level, f)


def solve_derivation_coords(values, matrix: Degree1Matrix, out_precision: int) -> list:
    """Coordinates (C_d) with values[j] = sum_d C_d * entries[j][d].

    C_d = sum_j inv[d][j] * values[j], one ``dot`` with the matrix's
    cached inverse (see Degree1Matrix), so a solve is n^2 products.
    When the determinant is a nonzero constant the answer is exact;
    otherwise the determinant is inverted as a series and the
    coordinates are trusted to out_precision at most.

    C_d carries the weakest tag among the values it reads, a value
    without terms included: every values[j] whose entry inv[d][j] is
    not an exact zero.
    """
    n = len(matrix.entries)
    values = list(values)
    if len(values) != n:
        raise ValueError(f"expected {n} values, got {len(values)}")
    inv = matrix.inverse(out_precision)
    nvars, field = matrix.det.nvars, matrix.det.field
    return [
        dot([(a, v) for a, v in zip(row, values) if a.terms or a.precision is not None],
            nvars, field)
        for row in inv
    ]


@dataclass
class Witness:
    """A reconstruction failure: weight, monomial exponent, both sides."""

    i: int
    beta: tuple
    lhs: Series
    rhs: Series


@dataclass
class VerificationReport:
    passed: bool
    verified_to_degree: int
    max_degree: int
    witness: Witness | None

    def summary(self) -> str:
        if self.passed:
            return f"reconstruction: pass on all monomials of degree <= {self.max_degree}"
        w = self.witness
        return (
            f"reconstruction: FAIL at weight {w.i} on X^{w.beta}: "
            f"target gives {w.lhs}, table gives {w.rhs}"
        )


@dataclass
class DecompositionResult:
    table: CoeffTable
    verified_to_degree: int
    basis_order: list
    witness: Witness | None = None

    @property
    def passed(self) -> bool:
        return self.witness is None


def _agree_to_trusted(a: Series, b: Series) -> bool:
    p = min_prec(a.precision, b.precision)
    return a.truncate(p) == b.truncate(p)


def verify_decomposition(
    target: HSDerivation, family, table: CoeffTable, max_degree: int
) -> VerificationReport:
    """Compare the target's components against the table reconstruction on
    every monomial of total degree <= max_degree, for every weight.

    Comparison happens at the weaker of the two precisions.  Reports the
    largest degree below the first failure, with a witness.

    Only the variables are compared, X_1 first and every weight of each
    in turn, because the report is decided there.  With
    c_d(t) = sum_l C[l][d] t^l, the table's operator is the t-expansion of
    the composite E_C = E^1_{c_1(t)} o .. o E^n_{c_n(t)}: substituting
    t_d -> c_d(t) in the ring homomorphism f -> sum_mu D_mu(f) t^mu.
    So E_C, like the target, is a ring homomorphism A -> A[t]/(t^{m+1})
    that is the identity mod t, and both are fixed by their values on
    X_1..X_n.

    Let P_i be the precision tag of apply_table at weight i on an exact
    input.  Weight i is compared modulo (X)^{P_i}.  Each weight-i
    coefficient is a sum of products of table entries and carries the
    least tag among them, even when the product truncates to zero, and
    every entry C[r][d] with r <= i occurs at weight i (in
    C[r][d] C[1][d]^(i-r)).  So P_i is the least tag of the entries at
    levels <= i: P_1 >= .. >= P_m (exact counting as largest), and every
    entry used at weight i is trusted to at least P_i.  The truncated
    arithmetic of apply_table then reproduces the weight-i coefficient of
    the exact E_C, built from the stored terms, modulo (X)^{P_i}.  The
    weight-wise ideal J = {sum_r a_r t^r : a_r in (X)^{P_r}} is an ideal
    because P is nonincreasing, and two homomorphisms that agree mod J on
    every X_j agree mod J on every product of them.  Hence agreement on
    the variables at every weight is agreement on every monomial of every
    degree.

    Disagreement is decided on the variables too.  Ordered by degree,
    the monomials start with 1 and then X_1, .., X_n.  The monomial 1
    never disagrees: both sides are 0 at every weight i >= 1 (D_mu(1) = 0),
    and zero agrees with zero at any tag.  So the first disagreement
    among all monomials, weights inner, is the first among the
    variables, and the verified degree is 0.  With max_degree below 1
    there is no variable to compare, and the report passes to
    max_degree.
    """
    family = list(family)
    if max_degree >= 1:
        n, field = target.nvars, target.field
        for j in range(n):
            x = Series.variable(n, field, j)
            for i in range(1, target.length + 1):
                lhs = target.apply_component(i, x)
                rhs = apply_table(table, family, i, x)
                if not _agree_to_trusted(lhs, rhs):
                    beta = tuple(int(d == j) for d in range(n))
                    return VerificationReport(False, 0, max_degree, Witness(i, beta, lhs, rhs))
    return VerificationReport(True, max_degree, max_degree, None)


def decompose(
    target: HSDerivation, family, out_precision: int, verify_degree: int = 6
) -> DecompositionResult:
    """Compute the coefficient table expressing target through the family.

    Proceeds level by level:  the residual at level N, evaluated on the
    variables, is solved against the degree-1 matrix; its coordinates
    are row N.  Each level extends the table with its caches (the
    coefficients [t^i] P_mu, the residual sums and the values D_mu(X_j)
    they read), so no coefficient is built twice and no D_mu is applied
    to a variable twice, and the check on the variables reuses the
    residual sums.  A coefficient is built only where D_mu(X_j) is not an
    exact zero: the tags of the others are known without them (see
    ``formula``).  The filled table is then checked by reconstruction up
    to verify_degree.  The family's degree-1 parts must form a basis
    (NotABasis otherwise) and out_precision must exceed the length
    (PrecisionExhausted otherwise); the result is unique, hence
    deterministic.
    """
    family = list(family)
    n, field, m = target.nvars, target.field, target.length
    if len(family) != n:
        raise NotABasis(f"need exactly {n} derivations for {n} variables, got {len(family)}")
    for D in family:
        if D.nvars != n or D.field != field or D.length != m:
            raise IncompatibleAmbient(
                "family members must share the target's ambient, field and length"
            )
    if out_precision - m <= 0:
        raise PrecisionExhausted(
            f"out_precision {out_precision} leaves no trusted digits after {m} levels"
        )
    matrix = degree1_matrix(family)
    variables = [Series.variable(n, field, j) for j in range(n)]
    table = CoeffTable.empty(n, field)
    for level in range(1, m + 1):
        values = [residual(target, family, table, level, x) for x in variables]
        row = solve_derivation_coords(values, matrix, out_precision)
        table = table.extended(row)
    report = verify_decomposition(target, family, table, verify_degree)
    names = [D.name or f"D{d + 1}" for d, D in enumerate(family)]
    return DecompositionResult(table, report.verified_to_degree, names, report.witness)
