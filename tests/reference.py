"""Reference implementations that the fast paths are checked against.

These are the straightforward versions the library used before its
kernel path went sparse: a component matrix built column by column from
``apply_component`` on exact monomial images, a dense Gauss-Jordan
nullspace, and the coefficient field as the kernel of every weight at
once, from those two.  Substitution is the version from before the
products and monomial images moved into shared helpers, with its own
recursion and its own scaled sum; its image products, and the products
and inverses here, are pair-by-pair brute force, so they share no loop
with the library's product kernel.  Monomial images, cut modulo J_N or
not, come from the chain of TSeries products the library walked before
its engine moved to slot lists, and a flat element is split into its
t-coefficients as the library split it before a TSeries was stored as
its flat dict (``split_flat``).  An ordinary derivation acts by the
Leibniz rule term by term, as it did before it became a length-1
Hasse-Schmidt derivation.  The residual, table application, coordinate
solve and decomposition are the versions from before a decomposition
kept its sums: nothing is cached between calls, the coordinates come
from Cramer's rule with a plain Laplace expansion, and the determinant
is inverted on every solve.  Their composite weights come pair by pair: one
coefficient per pair (lambda, mu) with lambda refining mu, built from
sums over ordered compositions with ``product`` and summed per mu before
D_mu is applied, where the library reads each mu's sum off
prod_d c_d(t)^mu_d.  The monomial sweep is the reconstruction check from
before it was decided on the variables alone, and the per-weight
Leibniz check the one from before it compared E(fg) with E(f) E(g).
The cofactors of a degree-1 matrix are built as the matrix cached them
before it kept its inverse, each minor by the same plain expansion.
A JSON series is read as it was before each term was checked only once:
the loader's checks, then the validating ``Series`` constructor, which
checks every term again and drops those at or above the precision.  It
is written as it was before a ``Series`` became a leaf of the emitted
forms: a dict with one list per term, from exponent tuples sorted by
``grlex_key``, which the stdlib encoder then writes.
Graded-lex order is ``grlex_key`` on exponent tuples, the sort key the
library used before its monomials became packed ints, and ``product``
multiplies on exponent tuples.  They are slow on purpose and must not
change with the library.
"""

import random
import reprlib

from hasseschmidt import CoeffTable, HSDerivation, Series, TSeries
from hasseschmidt.coefffield import ComponentMatrix, KernelReport, QuotientBasis
from hasseschmidt.decompose import VerificationReport, Witness, _agree_to_trusted, degree1_matrix
from hasseschmidt.derivations import LeibnizReport, _random_polynomial, compose_multi
from hasseschmidt.errors import (
    ComponentOutOfRange, HasseSchmidtError, LengthMismatch, PrecisionExhausted, ProblemFormatError,
)
from hasseschmidt.fields import EXPONENT_CAP
from hasseschmidt.series import _FIELD_MASK, B, DEGREE_LIMIT, min_prec, monomials_of_degree


def grlex_key(exponents):
    """Sort key of graded lexicographic order on exponent tuples, X1
    largest: by total degree, then by -e_1, -e_2, .."""
    return (sum(exponents), tuple(-e for e in exponents))


def product(a, b):
    """a * b pair by pair; Series() drops what the weaker tag cuts off."""
    field = a.field
    terms = {}
    for e1, c1 in a.tuple_terms().items():
        for e2, c2 in b.tuple_terms().items():
            e = tuple(x + y for x, y in zip(e1, e2))
            terms[e] = field.add(terms.get(e, field.zero()), field.mul(c1, c2))
    return Series(a.nvars, field, terms, min_prec(a.precision, b.precision))


def tseries_product(a, b):
    """a * b in A[t]/(t^(tlen+1)), slot by slot from ``product``."""
    prec = min_prec(a.precision, b.precision)
    slots = []
    for k in range(a.tlen + 1):
        acc = Series.zero(a.nvars, a.field, prec)
        for i in range(k + 1):
            acc = acc + product(a.coeffs[i], b.coeffs[k - i])
        slots.append(acc)
    return TSeries(slots)


def inverse(a, target_precision):
    """1/a modulo (X)^target_precision (or a's weaker tag) as the geometric
    series c0^-1 * sum_k (-u)^k, u = a/c0 - 1, which has no constant
    term, so its powers from the precision on vanish."""
    field = a.field
    prec = min_prec(a.precision, target_precision)
    c0_inv = field.inv(a.constant_term())
    one = Series.one(a.nvars, field, prec)
    minus_u = one - a.truncate(prec).scale(c0_inv)
    total, power = one, one
    for _ in range(1, prec):
        power = product(power, minus_u)
        total = total + power
    return total.scale(c0_inv)


def split_flat(nvars, field, flat, tlen, precision):
    """The t-coefficients t^0 .. t^tlen of a flat element (X^beta t^k keyed
    by pack(beta + (k,))) below the tag, as Series: the split the library
    made on every TSeries it built from an engine dict while a TSeries
    was stored as its list of t-coefficients."""
    cut = DEGREE_LIMIT if precision is None else precision
    shift = nvars * B
    slots = [{} for _ in range(tlen + 1)]
    for e, c in flat.items():
        k = e & _FIELD_MASK
        if k <= tlen:
            x = (e >> B) - (k << shift)
            if x < cut << shift:
                slots[k][x] = c
    return [Series._of(nvars, field, s, precision) for s in slots]


def monomial_image(exps, images, cache, cuts=None):
    """The monomial-image chain from before the library's engine moved to
    slot lists: image(X^exps) = image(X^(exps - e_j)) * images[j], j the
    first nonzero exponent, walked down to the nearest cached monomial
    (or to 1) and multiplied back up as TSeries, caching every step.  The
    products are ``tseries_product``'s; with ``cuts``, slot k of each
    product then keeps only its terms below total degree cuts[k], which
    are the products a cut product forms."""
    chain = []
    result = cache.get(exps)
    while result is None:
        if not any(exps):
            first = images[0]
            result = TSeries.from_series(Series.one(first.nvars, first.field), first.tlen)
            cache[exps] = result
            break
        j = next(d for d, e in enumerate(exps) if e)
        chain.append((exps, j))
        exps = exps[:j] + (exps[j] - 1,) + exps[j + 1:]
        result = cache.get(exps)
    for exps, j in reversed(chain):
        result = tseries_product(result, images[j])
        if cuts is not None:
            result = TSeries([
                Series(c.nvars, c.field,
                       {e: v for e, v in c.tuple_terms().items() if sum(e) < cut},
                       c.precision)
                for c, cut in zip(result.coeffs, cuts)
            ])
        cache[exps] = result
    return result


def substitute(f, images):
    """f at X_j := images[j] in A[t]/(t^(tlen+1)); every slot is trusted
    to the precision of f minus tlen."""
    images = list(images)
    tlen = images[0].tlen
    field = f.field
    nvars = f.nvars
    mono_cache = {}

    def image_of_monomial(exps):
        cached = mono_cache.get(exps)
        if cached is not None:
            return cached
        if not any(exps):
            result = TSeries.from_series(Series.one(nvars, field), tlen)
        else:
            j = next(d for d, e in enumerate(exps) if e)
            prev = list(exps)
            prev[j] -= 1
            result = tseries_product(image_of_monomial(tuple(prev)), images[j])
        mono_cache[exps] = result
        return result

    add, mul = field.add, field.mul
    slots = [dict() for _ in range(tlen + 1)]
    for exps, coeff in f.tuple_terms().items():
        mono = image_of_monomial(exps)
        for i, part in enumerate(mono.coeffs):
            acc = slots[i]
            for e, v in part.tuple_terms().items():
                w = mul(coeff, v)
                prev = acc.get(e)
                acc[e] = w if prev is None else add(prev, w)
    prec = None if f.precision is None else max(f.precision - tlen, 0)
    return TSeries([Series(nvars, field, s, prec) for s in slots])


def derivation_apply(values, f):
    """delta(f) for the ordinary derivation with delta(X_j) = values[j],
    extended by the Leibniz rule term by term: delta(c X^e) is the sum
    over j of c * e[j] * X^(e minus 1 in slot j) * values[j], trusted to
    the precision of f minus 1."""
    nvars, field = f.nvars, f.field
    out = Series.zero(nvars, field, f.precision)
    for exps, coeff in f.tuple_terms().items():
        for j, e in enumerate(exps):
            if e == 0:
                continue
            lower = list(exps)
            lower[j] -= 1
            factor = field.mul(coeff, field.coerce(e))
            if not factor:
                continue
            out = out + product(values[j].scale(factor), Series.monomial(nvars, field, lower))
    return out.truncate(None if f.precision is None else max(f.precision - 1, 0))


def dense_component_matrix(D, i, order):
    """D_i as a matrix k[X]/(X)^order -> k[X]/(X)^(order-i); the column of
    X^beta holds the coordinates of D_i(X^beta) truncated below order - i."""
    if i > D.length or i < 0:
        raise ComponentOutOfRange(f"component {i} of a length-{D.length} derivation")
    if i >= order:
        raise PrecisionExhausted(f"weight {i} leaves nothing of a degree-{order} quotient")
    source = QuotientBasis(D.nvars, order)
    target = QuotientBasis(D.nvars, order - i)
    field = D.field
    columns = []
    for beta in source.monomials:
        value = D.apply_component(i, Series.monomial(D.nvars, field, beta))
        columns.append(target.coords(value.truncate(order - i)))
    rows = [[columns[c][r] for c in range(len(source))] for r in range(len(target))]
    label = f"{D.name or 'D'}_{i}"
    return ComponentMatrix(rows, source, target, i, field, label)


def dense_nullspace(rows, ncols, field):
    """Basis of the right nullspace by dense Gauss-Jordan elimination: one
    vector per free column of the reduced row echelon form, with a 1 in
    that column."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pivot = None
        for rr in range(r, nrows):
            if rows[rr][c]:
                pivot = rr
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for rr in range(nrows):
            if rr != r and rows[rr][c]:
                factor = rows[rr][c]
                rows[rr] = [
                    field.sub(x, field.mul(factor, y)) for x, y in zip(rows[rr], rows[r])
                ]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for rr, pc in enumerate(pivot_cols):
            v[pc] = field.neg(rows[rr][fc])
        basis.append(v)
    return basis


def dense_view(mat):
    """The same matrix with each {column: value} row as a full list."""
    zero, ncols = mat.field.zero(), len(mat.source)
    rows = [[row.get(c, zero) for c in range(ncols)] for row in mat.rows]
    return ComponentMatrix(rows, mat.source, mat.target, mat.weight, mat.field, mat.label)


def sparse_rows(rows):
    """Full-list rows as {column: nonzero value} maps."""
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def all_weights_kernel(family, order, degree1_only=False):
    """The coefficient field as the kernel of every weight 1..N-1 (only
    weight 1 with ``degree1_only``) of every member, stacked at once from
    dense matrices."""
    family = list(family)
    degree1_matrix(family)  # NotABasis unless the degree-1 parts form a basis
    max_weight = min(1, order - 1) if degree1_only else order - 1
    for D in family:
        if D.length < max_weight:
            raise ComponentOutOfRange(
                f"derivation of length {D.length} has no component {max_weight}"
            )
    source = QuotientBasis(family[0].nvars, order)
    field = family[0].field
    rows = [
        row
        for D in family
        for i in range(1, max_weight + 1)
        for row in dense_component_matrix(D, i, order).rows
    ]
    basis = [source.from_coords(v, field) for v in dense_nullspace(rows, len(source), field)]
    which = "weight-1 components only" if degree1_only else f"all weights 1..{max_weight}"
    return KernelReport(len(basis), basis, f"{which} of {len(family)} derivation(s)", order)


# -- composite weights pair by pair ----------------------------------------------


def succeq(beta, alpha):
    """The support-refining partial order: beta >= alpha componentwise
    and beta_i = 0 wherever alpha_i = 0."""
    if len(beta) != len(alpha):
        raise LengthMismatch(f"exponent lengths differ: {len(beta)} vs {len(alpha)}")
    return all(b >= a and (a > 0 or b == 0) for b, a in zip(beta, alpha))


def ordered_compositions(total, parts):
    """All tuples of `parts` integers >= 1 summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in ordered_compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_pairs(i, m, n):
    """All pairs (lambda, mu) with |lambda| = i, |mu| = m and lambda >= mu
    in the support-refining order, in descending lexicographic order;
    empty when m > i."""
    if m > i or m < 0 or i < 0:
        return []
    pairs = []
    for mu in monomials_of_degree(n, m):
        support = [d for d, w in enumerate(mu) if w]
        for extra in monomials_of_degree(len(support), i - m):
            lam = list(mu)
            for d, e in zip(support, extra):
                lam[d] += e
            pairs.append((tuple(lam), mu))
    pairs.sort(reverse=True)
    return pairs


def slot_sum(table, lam_d, mu_d, d):
    """sum over ordered compositions of lam_d into mu_d parts >= 1 of the
    product of the level entries in slot d; the empty composition gives 1."""
    out = Series.zero(table.nvars, table.field)
    for comp in ordered_compositions(lam_d, mu_d):
        term = Series.one(table.nvars, table.field)
        for part in comp:
            term = product(term, table.at(part, d))
        out = out + term
    return out


def composition_coeff(table, lam, mu):
    """The weight of the pair (lambda, mu): the product over slots of the
    ordered-composition sums, e.g. lambda = (3), mu = (2) gives
    C[1]C[2] + C[2]C[1] = 2 C[1] C[2]."""
    lam, mu = tuple(lam), tuple(mu)
    if not succeq(lam, mu):
        raise ValueError(f"{lam} does not refine {mu}")
    out = Series.one(table.nvars, table.field)
    for d in range(table.nvars):
        out = product(out, slot_sum(table, lam[d], mu[d], d))
    return out


def weighted_terms(table, i, min_parts=1):
    """One (coefficient, mu) term per pair with |mu| >= min_parts, keeping
    a coefficient that truncates to zero when its tag is finite."""
    terms = []
    for m in range(min_parts, i + 1):
        for lam, mu in enumerate_pairs(i, m, table.nvars):
            coeff = composition_coeff(table, lam, mu)
            if coeff.terms or coeff.precision is not None:
                terms.append((coeff, mu))
    return terms


def mu_terms(table, i, min_parts=1):
    """The pair coefficients of ``weighted_terms`` summed per mu: one
    (sum over lambda, mu) term per mu that has a pair."""
    sums = {}
    for coeff, mu in weighted_terms(table, i, min_parts):
        sums[mu] = sums[mu] + coeff if mu in sums else coeff
    return [(coeff, mu) for mu, coeff in sums.items()]


# -- decomposition without shared sums ------------------------------------------


def table_sum(table, family, i, f, min_parts=1):
    """Every weight-i term with |mu| >= min_parts, one after the other.  A
    coefficient that truncates to zero is added itself: its tag bounds
    the term whatever the tag of D_mu(f)."""
    family = list(family)
    out = Series.zero(f.nvars, f.field, f.precision)
    for coeff, mu in mu_terms(table, i, min_parts):
        out = out + (coeff * compose_multi(family, mu, f) if coeff.terms else coeff)
    return out


def apply_table(table, family, i, f):
    """Every weight-i term, one after the other (see ``table_sum``)."""
    return table_sum(table, family, i, f)


def residual(target, family, table, level, f):
    """The target component minus each term with at least two factors."""
    out = target.apply_component(level, f)
    family = list(family)
    for coeff, mu in mu_terms(table, level, min_parts=2):
        out = out - (coeff * compose_multi(family, mu, f) if coeff.terms else coeff)
    return out


def laplace_det(rows):
    """The determinant by plain Laplace expansion along the first row,
    every minor expanded afresh; an exact zero entry is skipped, a tagged
    one still bounds the tag."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    first = rows[0][0]
    out = Series.zero(first.nvars, first.field)
    for col in range(n):
        entry = rows[0][col]
        if entry.is_zero() and entry.precision is None:
            continue
        minor = [[r[c] for c in range(n) if c != col] for r in rows[1:]]
        cofactor = entry * laplace_det(minor)
        out = out + (cofactor if col % 2 == 0 else -cofactor)
    return out


def cofactors(entries, precision):
    """cof[j][d] = (-1)^(j+d) times the determinant of the entries without
    row j and column d, each by ``laplace_det``: the cofactors the
    degree-1 matrix cached before it kept its inverse.  Exact when
    precision is None, otherwise built from the entries modulo
    (X)^precision; a 1x1 matrix has the cofactor 1."""
    rows = entries
    if precision is not None:
        rows = [[entry.truncate(precision) for entry in row] for row in rows]
    n = len(rows)
    if n == 1:
        first = rows[0][0]
        return [[Series.one(first.nvars, first.field)]]

    def minor(j, d):
        return [[r[c] for c in range(n) if c != d] for k, r in enumerate(rows) if k != j]

    return [
        [laplace_det(minor(j, d)) if (j + d) % 2 == 0 else -laplace_det(minor(j, d))
         for d in range(n)]
        for j in range(n)
    ]


def solve_derivation_coords(values, matrix, out_precision):
    """Cramer's rule, inverting a non-constant determinant on every call;
    the matrix is a unit by construction (see Degree1Matrix)."""
    n = len(matrix.entries)
    det = matrix.det
    if det.degree() <= 0:
        det_inv = Series.constant(det.nvars, det.field, det.field.inv(det.constant_term()))
    else:
        det_inv = det.inverse(out_precision)
    coords = []
    for d in range(n):
        replaced = [
            [values[j] if c == d else matrix.entries[j][c] for c in range(n)]
            for j in range(n)
        ]
        coords.append(laplace_det(replaced) * det_inv)
    return coords


def sweep(target, family, table, max_degree, apply=apply_table):
    """The monomial sweep that ``verify_decomposition`` decides on the
    variables: every monomial up to max_degree at every weight, through
    ``apply`` (this module's ``apply_table`` unless given), each compared
    at the weaker of the two precisions.  Reports the largest degree below
    the first failure, with a witness."""
    n, field = target.nvars, target.field
    verified = -1
    for degree in range(max_degree + 1):
        for beta in monomials_of_degree(n, degree):
            f = Series.monomial(n, field, beta)
            for i in range(1, target.length + 1):
                lhs = target.apply_component(i, f)
                rhs = apply(table, family, i, f)
                if not _agree_to_trusted(lhs, rhs):
                    return VerificationReport(False, verified, max_degree, Witness(i, beta, lhs, rhs))
        verified = degree
    return VerificationReport(True, verified, max_degree, None)


def decompose(target, family, out_precision, verify_degree):
    """(table, verification report): level by level through the functions
    above, then the sweep."""
    family = list(family)
    n, field = target.nvars, target.field
    matrix = degree1_matrix(family)
    variables = [Series.variable(n, field, j) for j in range(n)]
    table = CoeffTable.empty(n, field)
    for level in range(1, target.length + 1):
        values = [residual(target, family, table, level, x) for x in variables]
        row = solve_derivation_coords(values, matrix, out_precision)
        table = CoeffTable(table.rows + [row], nvars=n, field=field)
    return table, sweep(target, family, table, verify_degree)


# -- the group law through shifted images -----------------------------------------


def group_compose(D, Dp):
    """The group product as a sum of shifted images: the image of X_j is
    the sum over s of t^s E_D(c_s), c_s the t^s coefficient of Dp's image,
    each shifted image built as a whole TSeries and added slot by slot."""
    m, n, field = D.length, D.nvars, D.field
    zero = Series.zero(n, field)
    images = []
    for j in range(n):
        total = [zero] * (m + 1)
        for s, g in enumerate(Dp.images[j].coeffs):
            if g.is_zero():
                continue
            shifted = [zero] * s + D.apply(g).coeffs[: m + 1 - s]
            total = [a + b for a, b in zip(total, shifted)]
        images.append(TSeries(total))
    return HSDerivation(images)


# -- the Leibniz rule weight by weight -------------------------------------------


def leibniz_check(D, trials=25, seed=0, basis_degree=2, random_degree=3):
    """The library's ``leibniz_check`` report from the higher Leibniz rule
    itself: at each weight i, D_i(fg) against the chain of products
    D_r(f) D_s(g), r + s = i, skipping a product of exact zeros.  The
    same pairs in the same order: monomials up to basis_degree, then
    ``trials`` random pairs from the seed."""
    if isinstance(D, HSDerivation):
        components, length = D.apply_component, D.length
        nvars, field = D.nvars, D.field
    else:
        (components, length, nvars, field) = D

    def parts(f):
        return [components(r, f) for r in range(length + 1)]

    def mismatch(f, g, f_parts, g_parts):
        fg = f * g
        for i in range(1, length + 1):
            lhs = components(i, fg)
            rhs = Series.zero(nvars, field)
            for r in range(i + 1):
                a, b = f_parts[r], g_parts[i - r]
                if a.terms and b.terms or min_prec(a.precision, b.precision) is not None:
                    rhs = rhs + a * b
            if lhs != rhs:
                return (i, f, g, lhs, rhs)
        return None

    monomials = sorted(
        e for degree in range(basis_degree + 1) for e in monomials_of_degree(nvars, degree)
    )
    basis = [(f, parts(f)) for f in (Series.monomial(nvars, field, e) for e in monomials)]
    checked = 0
    for fa, pa in basis:
        for fb, pb in basis:
            checked += 1
            bad = mismatch(fa, fb, pa, pb)
            if bad:
                return LeibnizReport(False, checked, length, seed, bad)
    rng = random.Random(seed)
    for _ in range(trials):
        f = _random_polynomial(rng, nvars, field, random_degree)
        g = _random_polynomial(rng, nvars, field, random_degree)
        checked += 1
        bad = mismatch(f, g, parts(f), parts(g))
        if bad:
            return LeibnizReport(False, checked, length, seed, bad)
    return LeibnizReport(True, checked, length, seed, None)


def series_from_json(obj, nvars, field):
    """The loader's checks on every term, then ``Series(...)``'s."""
    if not isinstance(obj, dict) or not isinstance(obj.get("terms"), list):
        raise ProblemFormatError(
            f"series must be an object with a 'terms' array, got {reprlib.repr(obj)}")
    prec = obj.get("prec", "exact")
    if prec == "exact":
        prec = None
    elif type(prec) is not int or prec < 0:
        raise ProblemFormatError(f"bad precision {reprlib.repr(prec)}")
    terms = {}
    for row in obj["terms"]:
        if not isinstance(row, list) or len(row) != nvars + 1:
            raise ProblemFormatError(
                f"term {reprlib.repr(row)} must list {nvars} exponents and one coefficient"
            )
        exps, coeff = row[:-1], row[-1]
        if not all(type(e) is int and e >= 0 for e in exps):
            raise ProblemFormatError(f"bad exponents in term {reprlib.repr(row)}")
        if max(exps, default=0) > EXPONENT_CAP:
            raise ProblemFormatError(
                f"exponent above the cap {EXPONENT_CAP} in term {reprlib.repr(row[:-1])}"
            )
        try:
            value = field.parse_scalar(coeff)
        except (ValueError, ZeroDivisionError) as exc:
            raise ProblemFormatError(f"bad coefficient {reprlib.repr(coeff)}: {exc}") from exc
        key = tuple(exps)
        if key in terms:
            raise ProblemFormatError(f"duplicate exponent {key} in series")
        terms[key] = value
    try:
        return Series(nvars, field, terms, prec)
    except HasseSchmidtError as exc:
        raise ProblemFormatError(str(exc)) from exc


# -- the JSON form of a series, as a dict --------------------------------------------


def series_to_json(f):
    """{"prec": N or "exact", "terms": [[e1, .., en, "coeff"], ..]}, terms
    in graded-lex order."""
    terms = f.tuple_terms()
    rows = [list(e) + [f.field.format_scalar(terms[e])] for e in sorted(terms, key=grlex_key)]
    return {"prec": "exact" if f.precision is None else f.precision, "terms": rows}


def json_form(form):
    """An emitted form with every Series leaf replaced by its dict, the
    value whose ``json.dumps(.., indent=2, sort_keys=True)`` text
    ``serialize.dumps(form)`` must be."""
    if isinstance(form, Series):
        return series_to_json(form)
    if isinstance(form, list):
        return [json_form(v) for v in form]
    if isinstance(form, dict):
        return {k: json_form(v) for k, v in form.items()}
    return form
