"""Weighted composites of a family of Hasse-Schmidt derivations.

Given a family D^1, .., D^n and a coefficient table C[l][d] of series,
this module evaluates the weight-i operator

    sum over 1 <= m <= i, over pairs (lambda, mu) with |lambda| = i,
    |mu| = m and lambda >= mu in the support-refining order, of

        prod_d ( sum over ordered compositions
                 l_1 + .. + l_{mu_d} = lambda_d, parts >= 1,
                 of prod_q C[l_q][d] )  *  D_mu

where D_mu = D^1_{mu_1} o .. o D^n_{mu_n}.  The empty composition
(mu_d = lambda_d = 0) contributes the factor 1.  Decomposition of a
target derivation through a family (module ``decompose``) produces such
tables and this evaluation reconstructs the target's components.
"""

from __future__ import annotations

from .errors import IncompatibleAmbient, LengthMismatch, OrderViolation
from .fields import FieldSpec
from .series import Series, min_prec, monomials_of_degree
from .derivations import compose_multi


def succeq(beta, alpha) -> bool:
    """The support-refining partial order: beta >= alpha componentwise
    and beta_i = 0 wherever alpha_i = 0."""
    if len(beta) != len(alpha):
        raise LengthMismatch(f"exponent lengths differ: {len(beta)} vs {len(alpha)}")
    return all(b >= a and (a > 0 or b == 0) for b, a in zip(beta, alpha))


def ordered_compositions(total: int, parts: int):
    """All tuples of `parts` integers >= 1 summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in ordered_compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_pairs(i: int, m: int, n: int) -> list[tuple[tuple, tuple]]:
    """All pairs (lambda, mu) with |lambda| = i, |mu| = m, lambda >= mu in
    the support-refining order; empty when m > i.

    The list is sorted in descending lexicographic order of (lambda, mu)
    so reports are reproducible.
    """
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


class CoeffTable:
    """The series coefficients C[l][d], l a weight level >= 1, d a variable slot.

    ``rows[l-1][d]`` stores C at level l and variable d (0-based d).
    The table is treated as immutable; derived values are cached on the
    instance: slot sums, composition coefficients keyed by (lambda, mu),
    weighted-term lists and, per family, the sums of ``table_sum``.  A
    cached value at weight i reads only the rows at levels <= i, so
    ``extended`` hands every cache on to the longer table.
    """

    __slots__ = ("rows", "nvars", "field", "_term_cache", "_slot_cache", "_coeff_cache", "_sums")

    def __init__(self, rows, nvars: int | None = None, field: FieldSpec | None = None):
        rows = [list(r) for r in rows]
        if rows:
            first = rows[0][0]
            nvars = first.nvars if nvars is None else nvars
            field = first.field if field is None else field
        if nvars is None or field is None:
            raise ValueError("an empty table needs explicit nvars and field")
        for r in rows:
            if len(r) != nvars:
                raise IncompatibleAmbient(f"table row has {len(r)} entries, expected {nvars}")
            for entry in r:
                if entry.nvars != nvars or entry.field != field:
                    raise IncompatibleAmbient("table entries live in different ambient rings")
        self.rows = rows
        self.nvars = nvars
        self.field = field
        self._term_cache: dict = {}
        self._slot_cache: dict = {}
        self._coeff_cache: dict = {}
        self._sums: dict = {}  # see _family_sums

    @property
    def levels(self) -> int:
        return len(self.rows)

    def at(self, level: int, d: int) -> Series:
        """Entry for weight level (1-based) and variable slot d (0-based)."""
        if not 1 <= level <= self.levels:
            raise IndexError(f"level {level} outside 1..{self.levels}")
        return self.rows[level - 1][d]

    @classmethod
    def empty(cls, nvars, field):
        return cls([], nvars=nvars, field=field)

    def extended(self, row) -> "CoeffTable":
        """This table with one more level, holding a copy of every cache:
        an entry was computed from the rows this table has, which the new
        row leaves alone."""
        out = CoeffTable(self.rows + [list(row)], nvars=self.nvars, field=self.field)
        out._term_cache.update(self._term_cache)
        out._slot_cache.update(self._slot_cache)
        out._coeff_cache.update(self._coeff_cache)
        out._sums.update(
            (key, (members, dict(sums))) for key, (members, sums) in self._sums.items()
        )
        return out

    def __eq__(self, other):
        if not isinstance(other, CoeffTable):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.field == other.field
            and self.rows == other.rows
        )

    def __repr__(self):
        body = "; ".join(
            f"l={l + 1}: [" + ", ".join(str(c) for c in row) + "]"
            for l, row in enumerate(self.rows)
        )
        return f"CoeffTable({body})"

    # -- composition sums ---------------------------------------------

    def _slot_sum(self, lam_d: int, mu_d: int, d: int) -> Series:
        """sum over ordered compositions of lam_d into mu_d parts >= 1 of
        the product of the level entries in slot d."""
        key = (lam_d, mu_d, d)
        cached = self._slot_cache.get(key)
        if cached is not None:
            return cached
        if mu_d == 0:
            out = (
                Series.one(self.nvars, self.field)
                if lam_d == 0
                else Series.zero(self.nvars, self.field)
            )
        elif mu_d == 1:
            out = self.at(lam_d, d)
        else:
            out = Series.zero(self.nvars, self.field)
            for first in range(1, lam_d - mu_d + 2):
                entry, rest = self.at(first, d), self._slot_sum(lam_d - first, mu_d - 1, d)
                if rest.terms:
                    out = out + entry * rest
                else:  # the product vanishes but still bounds the precision
                    out = out.truncate(min_prec(entry.precision, rest.precision))
        self._slot_cache[key] = out
        return out


def composition_coeff(table: CoeffTable, lam, mu) -> Series:
    """The series weight attached to the pair (lambda, mu): the product
    over variable slots of the ordered-composition sums of table entries.

    Ordered compositions are counted separately, e.g. lambda = (3),
    mu = (2) gives C[1]C[2] + C[2]C[1] = 2 C[1] C[2].
    """
    lam, mu = tuple(lam), tuple(mu)
    cached = table._coeff_cache.get((lam, mu))
    if cached is not None:
        return cached
    if not succeq(lam, mu):
        raise OrderViolation(f"{lam} does not refine {mu}")
    out = None
    for d in range(table.nvars):
        if lam[d] == 0 and mu[d] == 0:
            continue
        factor = table._slot_sum(lam[d], mu[d], d)
        if out is None:
            out = factor
        elif out.terms and factor.terms:
            out = out * factor
        else:  # the product vanishes but still bounds the precision
            out = Series.zero(table.nvars, table.field, min_prec(out.precision, factor.precision))
    if out is None:
        out = Series.one(table.nvars, table.field)
    table._coeff_cache[(lam, mu)] = out
    return out


def weighted_terms(table: CoeffTable, i: int, min_parts: int = 1) -> list:
    """The (coefficient, mu) terms of the weight-i operator, skipping the
    pairs with |mu| < min_parts; cached per table.

    A coefficient that truncates to zero stays in the list when its tag is
    finite: the term contributes nothing but still limits the precision
    of the result, so callers add the coefficient itself in place of
    coefficient * D_mu(f)."""
    key = (i, min_parts)
    cached = table._term_cache.get(key)
    if cached is not None:
        return cached
    terms = []
    for m in range(min_parts, i + 1):
        for lam, mu in enumerate_pairs(i, m, table.nvars):
            coeff = composition_coeff(table, lam, mu)
            if coeff.terms or coeff.precision is not None:
                terms.append((coeff, mu))
    table._term_cache[key] = terms
    return terms


def _family_sums(table: CoeffTable, family) -> tuple:
    """(members, sums) of the family on this table: ``sums`` maps
    (i, min_parts, f) to a ``table_sum``.  Keyed by the identity of the
    members, which the entry holds on to so that no other family can take
    their ids."""
    family = tuple(family)
    key = tuple(map(id, family))
    entry = table._sums.get(key)
    if entry is None:
        entry = table._sums[key] = (family, {})
    return entry


def _add_term(out: Series, coeff: Series, mu, family, f: Series) -> Series:
    """out + coeff * D_mu(f); a coefficient that truncates to zero is added
    itself, which bounds the precision."""
    return out + (coeff * compose_multi(family, mu, f) if coeff.terms else coeff)


def table_sum(table: CoeffTable, family, i: int, f: Series, min_parts: int = 1) -> Series:
    """sum of coefficient * D_mu(f) over the weight-i terms with
    |mu| >= min_parts, memoized on the table per family (see
    _family_sums); f is compared by value."""
    family, sums = _family_sums(table, family)
    out = sums.get((i, min_parts, f))
    if out is None:
        out = Series.zero(f.nvars, f.field, f.precision)
        for coeff, mu in weighted_terms(table, i, min_parts):
            out = _add_term(out, coeff, mu, family, f)
        sums[(i, min_parts, f)] = out
    return out


def apply_table(table: CoeffTable, family, i: int, f: Series) -> Series:
    """Apply the weight-i operator built from the family through the table:
    the memoized sum of the terms with at least two factors, which the
    level-i residual of a decomposition has already built, plus the
    single-factor terms C[i][d] * D^d_1(f)."""
    family = list(family)
    if len(family) != table.nvars:
        raise IncompatibleAmbient(
            f"table is over {table.nvars} slots but the family has {len(family)} members"
        )
    out = table_sum(table, family, i, f, 2)
    # weighted_terms lists the single-factor terms first
    for coeff, mu in weighted_terms(table, i):
        if sum(mu) > 1:
            break
        out = _add_term(out, coeff, mu, family, f)
    return out
