"""Weighted composites of a family of Hasse-Schmidt derivations.

Given a family D^1, .., D^n and a coefficient table C[l][d] of series,
put c_d(t) = sum_l C[l][d] t^l.  The composite
E_C = E^1_{c_1(t)} o .. o E^n_{c_n(t)} has the weight-i component

    sum over mu with 1 <= |mu| <= i of  [t^i] P_mu(t) * D_mu,
    P_mu(t) = prod_d c_d(t)^mu_d,

where D_mu = D^1_{mu_1} o .. o D^n_{mu_n}.  Decomposition of a target
derivation through a family (module ``decompose``) produces such tables
and this evaluation reconstructs the target's components.

D_mu(f) has one evaluator, the memoized suffix recursion
``derivations._composite``, and its memo for f lives on the table:
every weight, the single-factor terms of ``apply_table`` included,
reads it, so each D_mu(f) is evaluated once per (family, f, mu).  The
sums are demand-driven: D_mu(f) is evaluated first, and the coefficient
[t^i] P_mu is built only when D_mu(f) has terms or a finite tag.  No
coefficient is built for its tag alone, because the tags of all of them
are known in advance: a product that vanishes keeps the least tag of its
factors (see ``dot``), so [t^i] P_mu with |mu| >= 2 carries the least
tag of the entries it multiplies.  The coefficient of mu = 2 e_d, sum
over r of C[r][d] C[i-r][d], reads every level 1..i-1 of slot d, and
every other one reads only some of those levels.  So the least tag over
all of them is the least tag of the entries at levels below i.
"""

from __future__ import annotations

from .errors import IncompatibleAmbient
from .fields import FieldSpec
from .series import Series, dot, min_prec, monomials_of_degree
# bench/spans.py patches compose_multi in this namespace; nothing here calls it
from .derivations import _composite, compose_multi  # noqa: F401


class CoeffTable:
    """The series coefficients C[l][d], l a weight level >= 1, d a variable slot.

    ``rows[l-1][d]`` stores C at level l and variable d (0-based d).
    ``_tags_below[i]`` is the least tag of the entries at levels 1..i-1
    and ``_level_tags[l-1]`` that of level l, both taken once, when the
    constructor checks the rows.  The table is treated as immutable;
    derived values are cached on the instance: the coefficients of
    ``product_coeff`` keyed by (mu, i), and for the family it was last
    used with the sums of ``table_sum`` and the values D_mu(f) they
    read.  A cached value at weight i reads only the rows at levels <= i,
    and D_mu(f) reads no row, so ``extended`` hands every cache on to the
    longer table.
    """

    __slots__ = ("rows", "nvars", "field", "_level_tags", "_tags_below", "_products", "_sums",
                 "_images")

    def __init__(self, rows, nvars: int | None = None, field: FieldSpec | None = None):
        rows = [list(r) for r in rows]
        if rows:
            first = rows[0][0]
            nvars = first.nvars if nvars is None else nvars
            field = first.field if field is None else field
        if nvars is None or field is None:
            raise ValueError("an empty table needs explicit nvars and field")
        level_tags, below = [], [None, None]
        for r in rows:
            if len(r) != nvars:
                raise IncompatibleAmbient(f"table row has {len(r)} entries, expected {nvars}")
            tag = None
            for entry in r:
                if entry.nvars != nvars or entry.field != field:
                    raise IncompatibleAmbient("table entries live in different ambient rings")
                tag = min_prec(tag, entry.precision)
            level_tags.append(tag)
            below.append(min_prec(below[-1], tag))
        self.rows = rows
        self._level_tags = level_tags
        self._tags_below = below
        self.nvars = nvars
        self.field = field
        self._products: dict = {}
        # (members, {(i, f): table_sum}) of one family; another
        # family, told apart by the identity of its members, replaces it
        # together with _images, {f: {mu: D_mu(f)}} of the same family.
        # Holding the members keeps their ids from being reused.
        self._sums: tuple | None = None
        self._images: dict = {}

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
        row leaves alone.  The values D_mu(f) read no row at all, so the
        two tables share them."""
        out = CoeffTable(self.rows + [list(row)], nvars=self.nvars, field=self.field)
        out._products.update(self._products)
        if self._sums is not None:
            members, sums = self._sums
            out._sums = (members, dict(sums))
            out._images = self._images
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
    with |mu| >= min_parts in order of |mu|.

    A coefficient that truncates to zero stays in the list when its tag is
    finite: the term contributes nothing but still limits the precision
    of the result.  ``table_sum`` builds only the coefficients it needs
    and does not call this; the list serves tests and the benchmark's
    spans, which count its terms."""
    terms = []
    for m in range(min_parts, i + 1):
        for mu in monomials_of_degree(table.nvars, m):
            coeff = table.product_coeff(mu, i)
            if coeff.terms or coeff.precision is not None:
                terms.append((coeff, mu))
    return terms


def table_sum(table: CoeffTable, family, i: int, f: Series) -> Series:
    """sum of [t^i] P_mu * D_mu(f) over mu with 2 <= |mu| <= i, memoized
    on the table for one family at a time; f is compared by value.  Each
    D_mu(f) is read through ``_composite`` from ``table._images[f]``, the
    memo that ``apply_table`` reads too.

    The coefficient of D_mu is built only when g = D_mu(f) has terms or a
    finite tag, and summed with g only when it has terms: a vanished
    coefficient leaves D_mu unapplied (see ``weighted_terms``).  Every
    coefficient bounds the tag, built or not, and the least of their tags
    is that of the entries below level i (see the module docstring); so
    the value and tag are those of the sum over every term."""
    family = tuple(family)
    n = table.nvars
    if table._sums is None or list(map(id, table._sums[0])) != list(map(id, family)):
        if len(family) != n:
            raise IncompatibleAmbient(
                f"table is over {n} slots but the family has {len(family)} members"
            )
        table._sums = (family, {})
        table._images = {}
    sums = table._sums[1]
    out = sums.get((i, f))
    if out is None:
        images = table._images.get(f)
        if images is None:
            if f.nvars != n or f.field != table.field:
                raise IncompatibleAmbient("series does not match the derivation's ambient ring")
            images = table._images[f] = {(0,) * n: f}
        pairs = []
        for m in range(2, i + 1):
            for mu in monomials_of_degree(n, m):
                g = _composite(family, images, mu)
                if g.terms or g.precision is not None:
                    coeff = table.product_coeff(mu, i)
                    if coeff.terms:
                        pairs.append((coeff, g))
        prec = min_prec(f.precision, table._tags_below[i])
        out = sums[(i, f)] = dot(pairs, f.nvars, f.field, prec)
    return out


def apply_table(table: CoeffTable, family, i: int, f: Series) -> Series:
    """Apply the weight-i operator built from the family through the table:
    the memoized sum of the terms with at least two factors, which the
    level-i residual of a decomposition has already built, plus the
    single-factor terms C[i][d] * D^d_1(f).  Their values D^d_1(f) are
    read through the same memo of ``table_sum``, so each is applied once
    per f and family, whatever the weight.  An entry that truncates to
    zero bounds the tag alone, like every other entry at level i."""
    family = tuple(family)
    out = table_sum(table, family, i, f)
    images = table._images[f]
    singles = []
    for d, mu in enumerate(monomials_of_degree(table.nvars, 1)):
        coeff = table.at(i, d)
        if coeff.terms:
            singles.append((coeff, _composite(family, images, mu)))
    prec = min_prec(f.precision, table._level_tags[i - 1])
    return out + dot(singles, f.nvars, f.field, prec)
