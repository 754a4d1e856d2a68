"""Components as linear maps on truncated quotients, and their joint kernels.

The completion k[[X]] is only ever touched through its finite quotients
k[X]/(X)^N.  A weight-i component induces a k-linear map from the order-N
quotient to the order-(N-i) quotient; stacking such matrices and
computing an exact nullspace yields the elements killed by every chosen
component.  With a family whose degree-1 parts form a basis, the joint
kernel of all components of all weights 1..N-1 is one-dimensional (the
constants): a coefficient field seen at level N.  Keeping only the
weight-1 components leaves a strictly larger kernel in positive
characteristic (the p-th powers survive), which is the phenomenon this
module makes checkable.  The weights that kill them, 1, p, .., p^k,
decide the kernel on their own (proved at ``coefficient_field``), so
the other weights are never stacked.  A member's weight-1 matrix follows
the derivation rule from the t^1 terms of its images; over GF(p)
Frobenius cuts the blocks of weights p, .., p^k out of it, so no monomial
image is formed.  The nullspace takes a one-entry row as a pivot, or drops
it, without elimination wherever that is what elimination gives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import ComponentOutOfRange, IncompatibleAmbient, NotABasis, PrecisionExhausted
from .fields import FieldSpec
from .series import _FIELD_MASK, B, Series, cut_images, monomials_of_degree, pack, variable_key
from .derivations import HSDerivation
# bench/spans.py patches degree1_matrix in this namespace as well as in
# decompose's
from .decompose import _det, degree1_matrix, degree1_values  # noqa: F401


class QuotientBasis:
    """The monomials of total degree < N in graded-lex order: exponent
    tuples in ``monomials``, and ``index`` from the packed key of each
    (see series.pack) to its position."""

    __slots__ = ("nvars", "order", "monomials", "index")

    def __init__(self, nvars: int, order: int):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.nvars = nvars
        self.order = order
        self.monomials = tuple(
            e for degree in range(order) for e in monomials_of_degree(nvars, degree)
        )
        self.index = {pack(e): i for i, e in enumerate(self.monomials)}

    def prefix(self, order: int) -> "QuotientBasis":
        """The basis of the order-``order`` quotient, order <= self.order:
        the order is graded, so its monomials are the first ones of this
        basis, and each keeps its index."""
        if not 0 <= order <= self.order:
            raise ValueError(f"order {order} outside 0..{self.order}")
        out = object.__new__(QuotientBasis)
        out.nvars, out.order = self.nvars, order
        out.monomials = self.monomials[: math.comb(order - 1 + self.nvars, self.nvars)]
        out.index = dict(itertools.islice(self.index.items(), len(out.monomials)))
        return out

    def __len__(self):
        return len(self.monomials)

    def __eq__(self, other):
        if not isinstance(other, QuotientBasis):
            return NotImplemented
        return self.nvars == other.nvars and self.order == other.order

    def coords(self, f: Series) -> list:
        """Coordinates of f modulo (X)^order in this basis."""
        if f.nvars != self.nvars:
            raise IncompatibleAmbient(f"series has {f.nvars} variables, basis has {self.nvars}")
        zero = f.field.zero()
        out = [zero] * len(self.monomials)
        for e, c in f.terms.items():
            i = self.index.get(e)
            if i is not None:
                out[i] = c
        return out

    def from_coords(self, coords, field: FieldSpec, precision=None) -> Series:
        terms = {e: c for e, c in zip(self.monomials, coords) if c}
        return Series(self.nvars, field, terms, precision)


@dataclass
class ComponentMatrix:
    """Matrix of a weight-i component from the order-N quotient to the
    order-(N-i) quotient (or less, ``_frobenius_blocks``).  Row r, for the
    r-th target monomial, is a {column: value} map of its nonzero entries."""

    rows: list
    source: QuotientBasis
    target: QuotientBasis
    weight: int
    field: FieldSpec
    label: str = ""

    def apply_coords(self, coords):
        field = self.field
        add, mul = field.add, field.mul
        out = []
        for row in self.rows:
            acc = field.zero()
            for c, a in row.items():
                x = coords[c]
                if x:
                    acc = add(acc, mul(a, x))
            out.append(acc)
        return out


def component_matrix(D: HSDerivation, i: int, order: int,
                     source: QuotientBasis | None = None) -> ComponentMatrix:
    """Materialize D_i as a matrix k[X]/(X)^order -> k[X]/(X)^(order-i).

    Column for the monomial X^beta holds the coordinates of D_i(X^beta)
    truncated below degree order - i: the t^i terms of the flat image
    E(X^beta) modulo J_order.  Weight 1 follows the derivation rule
    D_1(X^beta) = sum_j beta_j X^(beta - e_j) D_1(X_j), with D_1(X_j) the
    t^1 terms of the stored image and beta_j taken in the field, so a
    Lucas zero adds nothing; it forms no image, and drops the entries
    that cancel.  A weight i >= 2 sweeps the images of every source
    monomial under ``D.truncated(i)`` once (``series.cut_images``);
    weight 0 is the identity.  Each call builds new rows.  ``source``,
    the order-N basis, may be passed in to share it between matrices.
    """
    if i > D.length or i < 0:
        raise ComponentOutOfRange(f"component {i} of a length-{D.length} derivation")
    if i >= order:
        raise PrecisionExhausted(f"weight {i} leaves nothing of a degree-{order} quotient")
    if source is None:
        source = QuotientBasis(D.nvars, order)
    elif (source.nvars, source.order) != (D.nvars, order):
        raise IncompatibleAmbient(
            f"source basis is not the order-{order} basis in {D.nvars} variables"
        )
    target = source.prefix(order - i)
    rows: list = [{} for _ in range(len(target))]
    index, field = source.index, D.field
    if i == 1:
        # looked up once per matrix: each beta_j in the field, and the key of X_j
        add, mul, limit = field.add, field.mul, (order - 1) << D.nvars * B
        exponents = [field.coerce(e) for e in range(order)]
        terms = [(variable_key(D.nvars, j), image) for j, image in enumerate(D._degree1_images())]
        for c, (beta, key) in enumerate(zip(source.monomials, index)):
            for e, (x, image) in zip(beta, terms):
                b = exponents[e]
                if b:
                    for m, v in image.items():
                        if (k := key - x + m) < limit:
                            row, w = rows[index[k]], mul(b, v)
                            prev = row.get(c)
                            row[c] = w if prev is None else add(prev, w)
        rows = [row if all(row.values()) else {c: v for c, v in row.items() if v} for row in rows]
    elif i:
        sub = i << D.nvars * B
        images = cut_images(index, D.truncated(i)._flat_images, i, field, order)
        # the images come in the order of the index, whose values are 0, 1, ..
        for c, image in enumerate(images.values()):
            for e, v in image.items():
                if e & _FIELD_MASK == i:
                    rows[index[(e >> B) - sub]][c] = v
    else:
        rows = [{r: field.one()} for r in range(len(target))]
    label = f"{D.name or 'D'}_{i}"
    return ComponentMatrix(rows, source, target, i, field, label)


def _frobenius_blocks(mats: list, q: int) -> list:
    """Per weight-1 matrix over GF(p), its block of weight q = p^j on the
    columns X^(q gamma) (``coefficient_field``): its first rows and columns,
    the matrix at order ceil(N/q), with X^gamma's column moved to X^(q gamma)'s."""
    source = mats[0].source
    n, index, m = source.nvars, source.index, -(-source.order // q)
    target, ncols = source.prefix(m - 1), math.comb(m - 1 + n, n)
    # the key of X^(q gamma) is q times the key of X^gamma
    relabel = [index[q * key] for key in itertools.islice(index, ncols)]
    return [ComponentMatrix([{relabel[c]: v for c, v in row.items() if c < ncols}
                             for row in mat.rows[: len(target)]],
                            source, target, q, mat.field, f"{mat.label}^{q}")
            for mat in mats]


def _eliminate(vec: dict, pivot: dict, factor, field: FieldSpec) -> None:
    """vec -= factor * pivot on sparse rows, in place, dropping zeros: one
    negation of factor, then an add per entry."""
    add, mul, zero, factor = field.add, field.mul, field.zero(), field.neg(factor)
    for c, v in pivot.items():
        x = add(vec.get(c, zero), mul(factor, v))
        if x:
            vec[c] = x
        else:
            vec.pop(c, None)


def nullspace(rows, ncols: int, field: FieldSpec) -> list:
    """Basis of the right nullspace by sparse row reduction.

    ``rows`` is a list of {column: nonzero value} maps, which it only
    reads.  A copy of each is reduced against the pivot rows found so
    far, keyed by leading column and scaled to a leading 1; what is left
    of it, if anything, becomes a new pivot row.  A one-entry row {c: x}
    needs no copy: it is the pivot e_c when c has none, and reduces to
    zero when the pivot at c is e_c already, which is what the reduction
    would give; only against a longer pivot is it reduced.  Reduction
    stops once every column that some row touches has a pivot: a column
    no row touches never takes one, so the rows left could only reduce to
    zero.  Back substitution then brings the pivot rows to reduced row
    echelon form, which depends only on the row space.  Returns the
    canonical vectors of that form: one per free column, with a 1 in
    that column.
    """
    pivots: dict = {}
    touched = len(set().union(*rows))
    one = field.one()
    for row in rows:
        if len(pivots) == touched:
            break
        if len(row) == 1:
            [(c, x)] = row.items()
            pivot = pivots.get(c)
            # a zero x goes on to the reduction, which refuses it as before
            if pivot is None and x:
                pivots[c] = {c: one}
                continue
            if pivot is not None and len(pivot) == 1:
                continue
        vec = dict(row)
        while vec:
            lead = min(vec)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = field.inv(vec[lead])
                pivots[lead] = {c: field.mul(inv, x) for c, x in vec.items()}
                break
            _eliminate(vec, pivot, vec[lead], field)
    # pivot rows with larger leads are already reduced and vanish on every
    # other pivot column, so each elimination clears exactly one entry
    for lead in sorted(pivots, reverse=True):
        vec = pivots[lead]
        for c in [c for c in vec if c != lead and c in pivots]:
            _eliminate(vec, pivots[c], vec[c], field)
    zero = field.zero()
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [zero] * ncols
        v[fc] = one
        for pc, pivot in pivots.items():
            x = pivot.get(fc)
            if x:
                v[pc] = field.neg(x)
        basis.append(v)
    return basis


@dataclass
class KernelReport:
    dimension: int
    basis: list  # list of Series
    operators_used: str
    order: int

    def summary(self) -> str:
        members = ", ".join(str(b) for b in self.basis)
        return (
            f"kernel at order {self.order}: dimension {self.dimension} "
            f"[{members}] ({self.operators_used})"
        )


def joint_kernel(mats, source: QuotientBasis | None = None, field: FieldSpec | None = None) -> KernelReport:
    """Basis of the intersection of the kernels of the given matrices.

    All matrices must share the source basis.  An empty list returns the
    whole quotient (source and field must then be supplied).
    """
    mats = list(mats)
    if mats:
        source = mats[0].source
        field = mats[0].field
        for mat in mats[1:]:
            if mat.source != source or mat.field != field:
                raise IncompatibleAmbient("kernel matrices disagree on source basis or field")
    elif source is None or field is None:
        raise ValueError("an empty matrix list needs explicit source basis and field")
    # the reduced form depends only on the row space; short rows first
    stacked = sorted((row for mat in mats for row in mat.rows if row), key=len)
    vectors = nullspace(stacked, len(source), field)
    basis = [source.from_coords(v, field) for v in vectors]
    used = ", ".join(mat.label for mat in mats) if mats else "none"
    return KernelReport(len(basis), basis, used, source.order)


def _deciding_weights(field: FieldSpec, order: int) -> list:
    """The weights that decide the kernel on the order-N quotient: 1 over
    Q, and 1, p, .., p^k <= N-1 over GF(p), the ones that kill X^(p^j)
    (Lucas: C(a, p^j) = a_j mod p)."""
    p = field.characteristic
    weights = [1]
    while p and weights[-1] * p < order:
        weights.append(weights[-1] * p)
    return weights


def coefficient_field(family, order: int, degree1_only: bool = False) -> KernelReport:
    """Joint kernel of the family's components on the order-N quotient.

    Uses every weight 1..N-1 of every member (each member must be long
    enough); with ``degree1_only`` only the weight-1 components enter,
    which in characteristic p leaves the p-th powers in the kernel.  The
    degree-1 parts must form a basis, NotABasis unless
    ``_unit_det(degree1_values(family))`` as in ``nomura_unit_test``.

    Only the deciding weights are stacked: 1 over Q, and 1, p, .., p^k
    <= N-1 over GF(p).  Their kernel is already the constants, and every
    kernel holds the constants (E(1) = 1), so all weights 1..N-1 give the
    same one.  Proof: take f of degree < N killed by the deciding
    weights, and let M = (D^d_1(X_j)) be the degree-1 matrix of the
    first n members, a unit.

    Over Q, D^d_1 f = sum_j D^d_1(X_j) df/dX_j lies in (X)^(N-1) for
    every d, so each partial of f does too; of degree < N-1, it is 0,
    and f is a constant.

    Over GF(p), suppose f = g(X^q) with q = p^j (true for q = 1).  In
    characteristic p, E(X_j)^q = X_j^q + sum_i D_i(X_j)^q t^(iq), so the
    t^q coefficient of E(f) = g(E(X)^q) is
    D^d_q f = sum_j D^d_1(X_j)^q (dg/dY_j)(X^q).  The matrix of q-th
    powers has determinant det(M)^q, a unit, and D^d_q f lies in
    (X)^(N-q) for every d, so each (dg/dY_j)(X^q) does too; of degree
    < N-q, it is 0.  So every exponent of g is divisible by p, and f is
    in k[X^(pq)].  By induction the weights 1, p, .., p^k leave f in
    k[X^(p^(k+1))], and N <= p^(k+1), so f is a constant.

    So only weight-1 matrices are built: as Frobenius fixes GF(p),
    E(g(X^q)) = Phi_q(E(g)) with Phi_q(c X^beta t^i) = c X^(q beta) t^(q i),
    and q|beta| < N - q exactly when |beta| < ceil(N/q) - 1, so on the
    columns X^(q gamma) D_q is the weight-1 matrix at order ceil(N/q),
    relabelled (``_frobenius_blocks``).  The step at q reads D_q on k[X^q]
    alone, so with these blocks the stack still kills the constants only:
    it spans the row space of every weight's stack, which is all that
    ``nullspace``'s canonical form depends on.
    """
    family = list(family)
    if not _unit_det(degree1_values(family)):
        raise NotABasis("degree-1 values have non-unit determinant")
    max_weight = min(1, order - 1) if degree1_only else order - 1
    for D in family:
        if D.length < max_weight:
            raise ComponentOutOfRange(
                f"derivation of length {D.length} has no component {max_weight}"
            )
    source = QuotientBasis(family[0].nvars, order)
    if not max_weight:  # order 1: no weight acts, and the kernel is the whole quotient
        report = joint_kernel([], source, family[0].field)
    else:
        mats = [component_matrix(D, 1, order, source) for D in family]
        weights = [] if degree1_only else _deciding_weights(family[0].field, order)[1:]
        report = joint_kernel(mats + [b for q in weights for b in _frobenius_blocks(mats, q)])
    which = "weight-1 components only" if degree1_only else f"all weights 1..{max_weight}"
    report.operators_used = f"{which} of {len(family)} derivation(s)"
    return report


def nomura_unit_test(family, points) -> bool:
    """Whether det(D^d_1(a_j)) has a nonzero constant term.

    ``points`` supplies the elements a_j; with a_j = X_j this is the unit
    test for the degree-1 matrix itself.
    """
    family = list(family)
    points = list(points)
    n = family[0].nvars
    if len(points) != n:
        raise IncompatibleAmbient(f"expected {n} points, got {len(points)}")
    return _unit_det(degree1_values(family, points))


def _unit_det(rows) -> bool:
    """The basis test at precision 1: whether det(rows) has a nonzero
    constant term.  det(M) mod (X) = det(M mod (X)), so the determinant
    is taken of the entries truncated to precision 1: field elements,
    with their tags kept, so an entry trusted to no degree answers False."""
    return bool(_det([[v.truncate(1) for v in row] for row in rows]).constant_term())
