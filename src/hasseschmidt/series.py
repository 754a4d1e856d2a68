"""Sparse truncated multivariate power series and their t-extension.

A :class:`Series` is a finite map exponent-vector -> nonzero coefficient
together with an ambient (nvars, field) and a precision tag.  Precision
``None`` means "exact": the value is a plain polynomial.  A finite
precision N means the value is only trusted modulo monomials of total
degree >= N, i.e. it lives in k[X]/(X)^N; stored monomials always satisfy
deg < N (the bound is exclusive).  Combining two values keeps the weaker
precision.

A :class:`TSeries` is an element of A[t]/(t^{tlen+1}) stored as its list
of t-coefficients.  It is the carrier for substitution homomorphisms
X_j |-> image_j, which is how Hasse-Schmidt derivations act.
"""

from __future__ import annotations

import operator

from .errors import IncompatibleAmbient, NotAUnit
from .fields import FieldSpec


def min_prec(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def grlex_key(exponents):
    """Sort key realizing graded lexicographic order, X1 largest."""
    return (sum(exponents), tuple(-e for e in exponents))


def monomials_of_degree(nvars: int, degree: int):
    """The exponent vectors of total degree ``degree`` in ``nvars``
    variables, in graded-lex order (see grlex_key): X1 largest first."""
    if degree < 0 or (nvars == 0 and degree):
        return
    if nvars == 0:
        yield ()
        return
    e = [degree] + [0] * (nvars - 1)
    while True:
        yield tuple(e)
        # the next vector moves one unit from the last nonzero entry
        # before the end to its right neighbour, which also takes the tail
        j = nvars - 2
        while j >= 0 and not e[j]:
            j -= 1
        if j < 0:
            return
        tail, e[-1] = e[-1], 0
        e[j] -= 1
        e[j + 1] = tail + 1


class Series:
    __slots__ = ("nvars", "field", "terms", "precision")

    def __init__(self, nvars: int, field: FieldSpec, terms=None, precision: int | None = None):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        if precision is not None and precision < 0:
            precision = 0
        self.nvars = nvars
        self.field = field
        self.precision = precision
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise IncompatibleAmbient(
                        f"exponent vector {exps!r} has length {len(exps)}, expected {nvars}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps!r}")
                if precision is not None and sum(exps) >= precision:
                    continue
                if coeff:
                    clean[tuple(exps)] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def _of(cls, nvars, field, terms, precision):
        """Internal constructor for a fresh dict the engine below made:
        tuple keys of length nvars below the precision, which is not
        negative.  Only zero coefficients are dropped; a dict without
        them becomes the terms itself, not a copy."""
        self = object.__new__(cls)
        self.nvars = nvars
        self.field = field
        self.precision = precision
        self.terms = terms if all(terms.values()) else {e: c for e, c in terms.items() if c}
        return self

    @classmethod
    def zero(cls, nvars, field, precision=None):
        return cls(nvars, field, {}, precision)

    @classmethod
    def constant(cls, nvars, field, value, precision=None):
        return cls(nvars, field, {(0,) * nvars: field.coerce(value)}, precision)

    @classmethod
    def one(cls, nvars, field, precision=None):
        return cls.constant(nvars, field, 1, precision)

    @classmethod
    def variable(cls, nvars, field, j, precision=None):
        """The variable X_j (j is 0-based)."""
        if not 0 <= j < nvars:
            raise IncompatibleAmbient(f"variable index {j} out of range for nvars={nvars}")
        exps = tuple(1 if d == j else 0 for d in range(nvars))
        return cls(nvars, field, {exps: field.one()}, precision)

    @classmethod
    def monomial(cls, nvars, field, exponents, coeff=1, precision=None):
        return cls(nvars, field, {tuple(exponents): field.coerce(coeff)}, precision)

    # -- inspection --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, self.field.zero())

    def degree(self) -> int:
        """Maximal total degree of a stored monomial; -1 for the zero series."""
        return max((sum(e) for e in self.terms), default=-1)

    def _check_ambient(self, other: "Series") -> None:
        if self.nvars != other.nvars or self.field != other.field:
            raise IncompatibleAmbient(
                f"ambient mismatch: ({self.nvars} vars, {self.field!r}) vs "
                f"({other.nvars} vars, {other.field!r})"
            )

    # -- ring operations ---------------------------------------------

    def _coerce_operand(self, other):
        if isinstance(other, Series):
            return other
        return Series.constant(self.nvars, self.field, other)

    def __add__(self, other):
        other = self._coerce_operand(other)
        self._check_ambient(other)
        field = self.field
        prec = min_prec(self.precision, other.precision)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            prev = terms.get(e)
            terms[e] = c if prev is None else field.add(prev, c)
        return Series(self.nvars, field, terms, prec)

    __radd__ = __add__

    def __neg__(self):
        neg = self.field.neg
        return Series(
            self.nvars, self.field, {e: neg(c) for e, c in self.terms.items()}, self.precision
        )

    def __sub__(self, other):
        return self + (-self._coerce_operand(other))

    def __rsub__(self, other):
        return self._coerce_operand(other) - self

    def __mul__(self, other):
        """Product truncated to the weaker precision; exact times exact stays exact."""
        if not isinstance(other, Series):
            return self.scale(other)
        self._check_ambient(other)
        field = self.field
        prec = min_prec(self.precision, other.precision)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        acc: dict = {}
        _mac(acc, a, b, prec, field.add, field.mul)
        return Series._of(self.nvars, field, acc, prec)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value):
        c = self.field.coerce(value)
        if not c:
            return Series.zero(self.nvars, self.field, self.precision)
        mul = self.field.mul
        return Series(
            self.nvars, self.field, {e: mul(c, v) for e, v in self.terms.items()}, self.precision
        )

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a series")
        result = Series.one(self.nvars, self.field, self.precision)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def truncate(self, precision: int | None) -> "Series":
        """Forget everything at or above the given total degree."""
        prec = min_prec(self.precision, precision)
        if prec == self.precision:
            return self
        return Series(self.nvars, self.field, self.terms, prec)

    def inverse(self, target_precision: int) -> "Series":
        """Multiplicative inverse modulo (X)^target_precision.

        Solves degree slice by degree slice against the constant term;
        raises NotAUnit when that term vanishes.  If the operand itself
        carries a weaker precision, the result is only computed there.
        """
        if target_precision < 1:
            raise ValueError("target_precision must be >= 1")
        c0 = self.constant_term()
        if not c0:
            raise NotAUnit("series with zero constant term has no inverse")
        field = self.field
        prec = min_prec(self.precision, target_precision)
        c0_inv = field.inv(c0)
        # tail = a - c0, grouped by total degree
        by_degree: dict[int, dict] = {}
        for e, c in self.terms.items():
            d = sum(e)
            if 0 < d < prec:
                by_degree.setdefault(d, {})[e] = c
        zero_exp = (0,) * self.nvars
        out: dict[int, dict] = {0: {zero_exp: c0_inv}}
        add, mul, neg = field.add, field.mul, field.neg
        for d in range(1, prec):
            acc: dict = {}
            for da, slice_a in by_degree.items():
                if da > d:
                    continue
                slice_b = out.get(d - da)
                if not slice_b:
                    continue
                _mac(acc, slice_a, slice_b, None, add, mul)
            slice_d = {}
            for e, c in acc.items():
                if c:
                    slice_d[e] = neg(mul(c0_inv, c))
            if slice_d:
                out[d] = slice_d
        terms: dict = {}
        for slice_d in out.values():
            terms.update(slice_d)
        return Series._of(self.nvars, field, terms, prec)

    # -- comparison / display ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.field == other.field
            and self.precision == other.precision
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(
            (self.nvars, self.field, self.precision, frozenset(self.terms.items()))
        )

    def _format_term(self, exps, coeff) -> str:
        factors = [
            f"X{j + 1}" if e == 1 else f"X{j + 1}^{e}"
            for j, e in enumerate(exps)
            if e
        ]
        if not factors:
            return str(coeff)
        body = "*".join(factors)
        if coeff == self.field.one():
            return body
        return f"{coeff}*{body}"

    def __str__(self):
        if not self.terms:
            body = "0"
        else:
            parts = [
                self._format_term(e, self.terms[e])
                for e in sorted(self.terms, key=grlex_key, reverse=True)
            ]
            body = " + ".join(parts)
        if self.precision is None:
            return body
        return f"{body} + O(deg {self.precision})"

    def __repr__(self):
        return f"Series({self}, nvars={self.nvars}, field={self.field!r})"


class TSeries:
    """An element of A[t]/(t^{tlen+1}): the list of its t-coefficients.

    All coefficients share the ambient ring and a common precision tag.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("a TSeries needs at least the t^0 coefficient")
        first = coeffs[0]
        for c in coeffs[1:]:
            if c.nvars != first.nvars or c.field != first.field:
                raise IncompatibleAmbient("t-coefficients live in different ambient rings")
            if c.precision != first.precision:
                raise IncompatibleAmbient("t-coefficients carry different precisions")
        self.coeffs = coeffs

    @property
    def tlen(self) -> int:
        return len(self.coeffs) - 1

    @property
    def nvars(self) -> int:
        return self.coeffs[0].nvars

    @property
    def field(self) -> FieldSpec:
        return self.coeffs[0].field

    @property
    def precision(self):
        return self.coeffs[0].precision

    @classmethod
    def zero(cls, nvars, field, tlen, precision=None):
        return cls([Series.zero(nvars, field, precision) for _ in range(tlen + 1)])

    @classmethod
    def from_series(cls, f: Series, tlen: int):
        out = [f]
        out.extend(Series.zero(f.nvars, f.field, f.precision) for _ in range(tlen))
        return cls(out)

    def _check_ambient(self, other: "TSeries") -> None:
        if (
            self.nvars != other.nvars
            or self.field != other.field
            or self.tlen != other.tlen
        ):
            raise IncompatibleAmbient("TSeries operands disagree on ambient or t-length")

    def __add__(self, other):
        self._check_ambient(other)
        return TSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check_ambient(other)
        return TSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        """Product in A[t]/(t^{tlen+1}); t-degrees beyond tlen are discarded."""
        if isinstance(other, Series):
            return TSeries([c * other for c in self.coeffs])
        return self.mul_cut(other, None)

    def mul_cut(self, other: "TSeries", cuts) -> "TSeries":
        """The product with its t^k coefficient kept only below total degree
        cuts[k]; ``cuts`` None cuts nothing (the product ``self * other``).

        With cuts[k] = N - k this is the product modulo
        J_N = {sum_k a_k t^k : a_k in (X)^(N-k)}, which is an ideal because
        the cuts do not increase with k, so the operands may themselves be
        cut results.  The tags stay those of the operands: a cut result is
        one exact representative of its class modulo J_N.
        """
        self._check_ambient(other)
        tlen = self.tlen
        nvars, field = self.nvars, self.field
        prec = min_prec(self.precision, other.precision)
        add, mul = field.add, field.mul
        slots: list[dict] = [dict() for _ in range(tlen + 1)]
        other_parts = [(tb, fb.terms) for tb, fb in enumerate(other.coeffs) if fb.terms]
        for ta, fa in enumerate(self.coeffs):
            if fa.is_zero():
                continue
            for tb, fb_terms in other_parts:
                if ta + tb > tlen:
                    break
                bound = prec if cuts is None else min_prec(prec, cuts[ta + tb])
                _mac(slots[ta + tb], fa.terms, fb_terms, bound, add, mul)
        return TSeries([Series._of(nvars, field, s, prec) for s in slots])

    def scale(self, value):
        return TSeries([c.scale(value) for c in self.coeffs])

    def tshift(self, s: int) -> "TSeries":
        """Multiply by t^s, discarding what falls beyond t^tlen."""
        if s == 0:
            return self
        zero = Series.zero(self.nvars, self.field, self.precision)
        shifted = [zero] * min(s, self.tlen + 1) + self.coeffs[: max(self.tlen + 1 - s, 0)]
        return TSeries(shifted)

    def truncate(self, precision) -> "TSeries":
        return TSeries([c.truncate(precision) for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __str__(self):
        return " + ".join(
            f"({c})*t^{i}" if i else f"({c})" for i, c in enumerate(self.coeffs)
        )

    def __repr__(self):
        return f"TSeries({self})"


def substitute(f: Series, images, *, _mono_cache=None) -> TSeries:
    """Evaluate f at X_j := images[j] inside A[t]/(t^{tlen+1}).

    This is the ring homomorphism extension of the variable assignment,
    so substitute(f*g) == substitute(f)*substitute(g).  The images must be
    exact polynomial data with a shared t-length.  f itself may carry a
    finite precision N; every t-coefficient of the result is then trusted
    only to total degree N - tlen and is truncated there.

    ``_mono_cache`` optionally memoizes the image of each monomial; reuse
    it only with the same images list.
    """
    images = list(images)
    if len(images) != f.nvars:
        raise IncompatibleAmbient(f"expected {f.nvars} images, got {len(images)}")
    if f.nvars == 0:
        return TSeries.from_series(f, 0)
    tlen = images[0].tlen
    for img in images:
        if img.nvars != f.nvars or img.field != f.field:
            raise IncompatibleAmbient("image ambient does not match the substituted series")
        if img.tlen != tlen:
            raise IncompatibleAmbient("images disagree on t-length")
        if img.precision is not None:
            raise IncompatibleAmbient("substitution images must be exact polynomials")
    cache = _mono_cache if _mono_cache is not None else {}
    prec = None if f.precision is None else max(f.precision - tlen, 0)
    return TSeries(image_sum(f, images, cache, range(tlen + 1), prec))


# -- the shared engine: products, monomial images, linear images ----------


def _mac(acc: dict, a: dict, b: dict, bound, add, mul) -> None:
    """acc += a * b on exponent -> coefficient maps, keeping only the
    products of total degree below ``bound`` (None keeps every one)."""
    for e1, c1 in a.items():
        if bound is not None:
            room = bound - sum(e1)
            if room <= 0:
                continue
        for e2, c2 in b.items():
            if bound is not None and sum(e2) >= room:
                continue
            e = tuple(map(operator.add, e1, e2))
            v = mul(c1, c2)
            prev = acc.get(e)
            acc[e] = v if prev is None else add(prev, v)


def monomial_image(exps, images, cache: dict, cuts=None) -> TSeries:
    """The image of X^exps under X_j -> images[j], memoized in ``cache``.

    Built as image(X^(exps - e_j)) * images[j] with j the first nonzero
    exponent: the loop walks down to the nearest cached monomial (or to
    1) and multiplies back up, caching every intermediate image, so no
    exponent is too large for it.  ``cuts`` as in TSeries.mul_cut; the
    cache must only ever see one value of it.
    """
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
        result = result * images[j] if cuts is None else result.mul_cut(images[j], cuts)
        cache[exps] = result
    return result


def image_sum(f: Series, images, cache: dict, slots, prec) -> list:
    """[sum_e c_e * image(X^e).coeffs[s] for s in slots] over the terms
    c_e X^e of f, each kept below total degree ``prec`` (None keeps all)
    and carrying that precision; images memoized in ``cache``."""
    field = f.field
    add, mul = field.add, field.mul
    out = []
    for s in slots:
        acc: dict = {}
        for exps, coeff in f.terms.items():
            mono = cache.get(exps)
            if mono is None:
                mono = monomial_image(exps, images, cache)
            for e, v in mono.coeffs[s].terms.items():
                if prec is not None and sum(e) >= prec:
                    continue
                w = mul(coeff, v)
                prev = acc.get(e)
                acc[e] = w if prev is None else add(prev, w)
        out.append(Series._of(f.nvars, field, acc, prec))
    return out
