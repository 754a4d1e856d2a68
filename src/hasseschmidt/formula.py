"""Weighted composites of a family of Hasse-Schmidt derivations.

Given a family D^1, .., D^n and a coefficient table C[l][d] of series,
put c_d(t) = sum_l C[l][d] t^l.  The composite
E_C = E^1_{c_1(t)} o .. o E^n_{c_n(t)} has the weight-i component

    sum over mu with 1 <= |mu| <= i of  [t^i] P_mu(t) * D_mu,
    P_mu(t) = prod_d c_d(t)^mu_d,

where D_mu = D^1_{mu_1} o .. o D^n_{mu_n}.  Decomposition of a target
derivation through a family (module ``decompose``) produces such tables
and this evaluation reconstructs the target's components.
"""

from __future__ import annotations

from .errors import IncompatibleAmbient
from .fields import FieldSpec
from .series import Series, dot, monomials_of_degree
from .derivations import compose_multi


class CoeffTable:
    """The series coefficients C[l][d], l a weight level >= 1, d a variable slot.

    ``rows[l-1][d]`` stores C at level l and variable d (0-based d).
    The table is treated as immutable; derived values are cached on the
    instance: the coefficients of ``product_coeff`` keyed by (mu, i),
    weighted-term lists and the sums of ``table_sum`` for the family it
    was last used with.  A cached value at weight i reads only the rows
    at levels <= i, so ``extended`` hands every cache on to the longer
    table.
    """

    __slots__ = ("rows", "nvars", "field", "_term_cache", "_products", "_sums")

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
        self._products: dict = {}
        # (members, {(i, min_parts, f): table_sum}) of one family; another
        # family, told apart by the identity of its members, replaces it.
        # Holding the members keeps their ids from being reused.
        self._sums: tuple | None = None

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
        out._products.update(self._products)
        if self._sums is not None:
            members, sums = self._sums
            out._sums = (members, dict(sums))
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

    def product_coeff(self, mu, i: int) -> Series:
        """[t^i] P_mu(t) for |mu| >= 1, memoized.

        With j the first slot of mu, P_mu = c_j(t) P_(mu - e_j)(t), and
        P_(mu - e_j) starts at t^(|mu| - 1), so only the rows up to
        i - |mu| + 1 enter."""
        key = (mu, i)
        out = self._products.get(key)
        if out is None:
            j = next(d for d, e in enumerate(mu) if e)
            parts = sum(mu)
            if parts == 1:
                out = self.at(i, j)
            else:
                rest = mu[:j] + (mu[j] - 1,) + mu[j + 1:]
                # a product that vanishes still bounds the precision (see dot)
                out = dot(
                    [(self.at(r, j), self.product_coeff(rest, i - r))
                     for r in range(1, i - parts + 2)],
                    self.nvars, self.field,
                )
            self._products[key] = out
        return out


def weighted_terms(table: CoeffTable, i: int, min_parts: int = 1) -> list:
    """The (coefficient, mu) terms of the weight-i operator, one per mu
    with |mu| >= min_parts in order of |mu|; cached per table.

    A coefficient that truncates to zero stays in the list when its tag is
    finite: the term contributes nothing but still limits the precision
    of the result, so callers pair it with 1 in place of D_mu(f)."""
    key = (i, min_parts)
    cached = table._term_cache.get(key)
    if cached is not None:
        return cached
    terms = []
    for m in range(min_parts, i + 1):
        for mu in monomials_of_degree(table.nvars, m):
            coeff = table.product_coeff(mu, i)
            if coeff.terms or coeff.precision is not None:
                terms.append((coeff, mu))
    table._term_cache[key] = terms
    return terms


def _term_pairs(terms, family, f: Series):
    """The (coefficient, D_mu(f)) pairs of the terms for ``dot``; a
    coefficient that truncates to zero is paired with 1 instead, so it
    bounds the precision without D_mu being applied."""
    one = Series.one(f.nvars, f.field)
    return [(coeff, compose_multi(family, mu, f) if coeff.terms else one)
            for coeff, mu in terms]


def table_sum(table: CoeffTable, family, i: int, f: Series, min_parts: int = 1) -> Series:
    """sum of coefficient * D_mu(f) over the weight-i terms with
    |mu| >= min_parts, memoized on the table for one family at a time;
    f is compared by value."""
    family = tuple(family)
    if table._sums is None or list(map(id, table._sums[0])) != list(map(id, family)):
        table._sums = (family, {})
    sums = table._sums[1]
    out = sums.get((i, min_parts, f))
    if out is None:
        pairs = _term_pairs(weighted_terms(table, i, min_parts), family, f)
        out = sums[(i, min_parts, f)] = dot(pairs, f.nvars, f.field, f.precision)
    return out


def apply_table(table: CoeffTable, family, i: int, f: Series) -> Series:
    """Apply the weight-i operator built from the family through the table:
    the memoized sum of the terms with at least two factors, which the
    level-i residual of a decomposition has already built, plus the
    single-factor terms C[i][d] * D^d_1(f) read off the table."""
    family = list(family)
    if len(family) != table.nvars:
        raise IncompatibleAmbient(
            f"table is over {table.nvars} slots but the family has {len(family)} members"
        )
    out = table_sum(table, family, i, f, 2)
    n = table.nvars
    singles = [(table.at(i, d), tuple(int(k == d) for k in range(n))) for d in range(n)]
    return out + dot(_term_pairs(singles, family, f), f.nvars, f.field, f.precision)
