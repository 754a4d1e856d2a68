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
the other weights are never stacked.  The matrices of all weights of
a member read one graded sweep of its monomial images modulo (X, t)^N.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import ComponentOutOfRange, IncompatibleAmbient, NotABasis, PrecisionExhausted
from .fields import FieldSpec
from .series import _FIELD_MASK, B, Series, cut_images, monomials_of_degree, pack
from .derivations import HSDerivation
# bench/spans.py patches degree1_matrix in this namespace as well as in
# decompose's
from .decompose import _det, _leading_members, degree1_matrix, degree1_values  # noqa: F401


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
    order-(N-i) quotient over the shared field.  Row r, for the r-th
    target monomial, is a {column: value} map of its nonzero entries."""

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
    E(X^beta) modulo J_order.  The first call for a (D, order) builds the
    images of every source monomial in one graded sweep
    (``series.cut_images``) into ``D._cut_caches[order]``, and every
    weight reads its columns off them.  ``source``, the order-N basis,
    may be passed in to share it between matrices.
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
    # a monomial has the same index in the target as in the source
    index = source.index
    images = D._cut_caches.get(order)
    if images is None:
        images = D._cut_caches[order] = cut_images(index, D._flat_images, D.length, D.field, order)
    rows = [{} for _ in range(len(target))]
    mask, sub = _FIELD_MASK, i << D.nvars * B
    # the images come in the order of the index, whose values are 0, 1, ..
    for c, image in enumerate(images.values()):
        for e, v in image.items():
            if e & mask == i:
                rows[index[(e >> B) - sub]][c] = v
    label = f"{D.name or 'D'}_{i}"
    return ComponentMatrix(rows, source, target, i, D.field, label)


def _eliminate(vec: dict, pivot: dict, factor, field: FieldSpec) -> None:
    """vec -= factor * pivot on sparse rows, in place, dropping zeros."""
    sub, mul, zero = field.sub, field.mul, field.zero()
    for c, v in pivot.items():
        x = sub(vec.get(c, zero), mul(factor, v))
        if x:
            vec[c] = x
        else:
            vec.pop(c, None)


def nullspace(rows, ncols: int, field: FieldSpec) -> list:
    """Basis of the right nullspace by sparse row reduction.

    ``rows`` is a list of {column: nonzero value} maps.  A copy of each
    is reduced against the pivot rows found so far, keyed by leading
    column and scaled to a leading 1; what is left of it, if anything,
    becomes a new pivot row.  Reduction stops once every column that some
    row touches has a pivot: a column no row touches never takes one, so
    the rows left could only reduce to zero.  Back substitution
    then brings the pivot rows to reduced row echelon form, which depends
    only on the row space.  Returns the canonical vectors of that form:
    one per free column, with a 1 in that column.
    """
    pivots: dict = {}
    touched = len(set().union(*rows))
    for row in rows:
        if len(pivots) == touched:
            break
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
    zero, one = field.zero(), field.one()
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
    family's degree-1 parts must form a basis (NotABasis otherwise), which
    is decided as in ``nomura_unit_test``.

    Only the deciding weights are stacked: 1 over Q, and 1, p, .., p^k
    <= N-1 over GF(p), from monomial images built through the largest of
    them.  Their kernel is already the constants, and every kernel holds
    the constants (E(1) = 1), so all weights 1..N-1 give the same one.
    Proof: take f of degree < N killed by the deciding weights, and let
    M = (D^d_1(X_j)) be the degree-1 matrix of the first n members, a
    unit.

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
    """
    family = list(family)
    if not _unit_det(_degree1_constants(family)):
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
        weights = [1] if degree1_only else _deciding_weights(family[0].field, order)
        members = [D.truncated(weights[-1]) for D in family]
        report = joint_kernel(
            [component_matrix(D, i, order, source) for D in members for i in weights]
        )
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


def _degree1_constants(family) -> list:
    """The constant terms of the degree-1 entries D^d_1(X_j) (see
    ``degree1_values``) as series at precision 1, read off the stored
    images: the constant term of D^d_1(X_j) is the coefficient of X^0 t^1
    in E^d(X_j), one ``TSeries.term`` lookup."""
    members = _leading_members(family)
    n, field = members[0].nvars, members[0].field
    return [[Series._of(n, field, {0: D.images[j].term(0, 1)}, 1) for D in members]
            for j in range(n)]


def _unit_det(rows) -> bool:
    """Whether det(rows) has a nonzero constant term.  det(M) mod (X) =
    det(M mod (X)), so the determinant is taken of the entries truncated
    to precision 1: field elements, with their tags kept, so an entry
    trusted to no degree still answers False."""
    return bool(_det([[v.truncate(1) for v in row] for row in rows]).constant_term())
