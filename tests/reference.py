"""Reference implementations that the fast paths are checked against.

These are the straightforward versions the library used before its
kernel path went sparse: a component matrix built column by column from
``apply_component`` on exact monomial images, and a dense Gauss-Jordan
nullspace.  Substitution is the version from before the products and
monomial images moved into shared helpers, with its own recursion and
its own scaled sum; its image products, and the products and inverses
here, are pair-by-pair brute force, so they share no loop with the
library's product kernel.  They are slow on purpose and must not change
with the library.
"""

from hasseschmidt import Series, TSeries
from hasseschmidt.coefffield import ComponentMatrix, QuotientBasis
from hasseschmidt.errors import ComponentOutOfRange, PrecisionExhausted
from hasseschmidt.series import min_prec


def product(a, b):
    """a * b pair by pair; Series() drops what the weaker tag cuts off."""
    field = a.field
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
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
    for exps, coeff in f.terms.items():
        mono = image_of_monomial(exps)
        for i, part in enumerate(mono.coeffs):
            acc = slots[i]
            for e, v in part.terms.items():
                w = mul(coeff, v)
                prev = acc.get(e)
                acc[e] = w if prev is None else add(prev, w)
    prec = None if f.precision is None else max(f.precision - tlen, 0)
    return TSeries([Series(nvars, field, s, prec) for s in slots])


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
