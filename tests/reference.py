"""Reference implementations that the fast paths are checked against.

These are the straightforward versions the library used before its
kernel path went sparse: a component matrix built column by column from
``apply_component`` on exact monomial images, and a dense Gauss-Jordan
nullspace.  They are slow on purpose and must not change with the
library.
"""

from hasseschmidt import Series
from hasseschmidt.coefffield import ComponentMatrix, QuotientBasis
from hasseschmidt.errors import ComponentOutOfRange, PrecisionExhausted


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
