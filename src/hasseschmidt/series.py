"""Sparse truncated multivariate power series and their t-extension.

A :class:`Series` is a finite map monomial -> nonzero coefficient
together with an ambient (nvars, field) and a precision tag.  Precision
``None`` means "exact": the value is a plain polynomial.  A finite
precision N means the value is only trusted modulo monomials of total
degree >= N, i.e. it lives in k[X]/(X)^N; stored monomials always satisfy
deg < N (the bound is exclusive).  Combining two values keeps the weaker
precision.

A :class:`TSeries` is an element of A[t]/(t^{tlen+1}), stored in one
form: the flat dict below.  Its list of t-coefficients (``coeffs``) is a
view, split off on first read.  It is the carrier for substitution
homomorphisms X_j |-> image_j, which is how Hasse-Schmidt derivations
act.

Every monomial is keyed by one int, its packed exponent vector
(``pack``): the total degree in the top, unbounded field, then e_1 ..
e_n in B-bit fields, e_n lowest.  The key of a product is the sum of
the keys, the total degree is ``key >> (n * B)``, and a degree bound is
one comparison against ``bound << (n * B)``.  Keys of one total degree
order by e_1, then e_2, ..: graded-lex order, which ``grlex_sorted``
reads off the key.  A field can carry into the next only from an
exponent of 2^B, which needs a total degree of DEGREE_LIMIT = 2^B, so
no key is made there: ``pack`` and the product kernel raise
DegreeLimitExceeded first.  These keys are in ``Series.terms`` and in
the engine's dicts.  Exponent tuples remain only at the edge: the
public ``Series(...)`` constructor and ``Series.monomial``,
``Series.tuple_terms``, ``__str__``, the JSON files of ``serialize``
and ``QuotientBasis.monomials``.  Multi-indices mu and alpha are not
monomials and stay tuples.

The engine treats t as a last variable: c X^beta t^k in A[t]/(t^{L+1})
is keyed by pack(beta + (k,)) in n + 1 variables, so an element is one
flat key -> coefficient dict, ``TSeries.flat``; only this module makes
such a key from a t-degree.  For a flat key e, k = e & _FIELD_MASK,
beta has the X-key (e >> B) - (k << n * B), and the top field is
|beta| + k.  A product is one ``_mac`` with shift (n + 1) * B: its bound
N cuts modulo (X, t)^N = J_N = {sum_k a_k t^k : a_k in (X)^(N-k)}, its
degree guard reads |beta| + k, and t^{L+1} = 0 is the mask k <= L of
the pass that drops its zeros.  Monomial images modulo J_N (``cut_images``,
one graded pass over a quotient basis) or uncut (``monomial_image``) and
their sums (``image_sum``) are flat dicts, wrapped once by their
callers; dicts an engine cache holds, and the ``flat`` of a TSeries,
are read-only.
"""

from __future__ import annotations

from .errors import DegreeLimitExceeded, IncompatibleAmbient, NotAUnit
from .fields import FieldSpec

# bits per exponent field of a packed key; every monomial stays below
# total degree DEGREE_LIMIT, so no field overflows into the next
B = 32
DEGREE_LIMIT = 1 << B
_FIELD_MASK = DEGREE_LIMIT - 1


def min_prec(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def pack(exps) -> int:
    """The key of the exponent vector ``exps``: its total degree shifted
    above e_1 .. e_n, B bits each.  DegreeLimitExceeded from total degree
    DEGREE_LIMIT on; the exponents must not be negative."""
    key = degree = 0
    for e in exps:
        key = key << B | e
        degree += e
    if degree >= DEGREE_LIMIT:
        raise DegreeLimitExceeded(f"total degree {degree} reaches the limit {DEGREE_LIMIT} "
                                  "of packed monomial keys")
    return degree << len(exps) * B | key


def unpack(key: int, nvars: int) -> tuple:
    """The exponent vector of a key in nvars variables."""
    return tuple(key >> i * B & _FIELD_MASK for i in range(nvars - 1, -1, -1))


def variable_key(nvars: int, j: int) -> int:
    """The key of X_j (j is 0-based); X^(beta - e_j) is key - variable_key."""
    return 1 << nvars * B | 1 << (nvars - 1 - j) * B


def grlex_sorted(keys, nvars: int, reverse: bool = False) -> list:
    """The keys in graded lexicographic order, X1 largest: by total
    degree, and within one degree by e_1 descending, then e_2, ..  Within
    one degree a larger key has the larger (e_1, .., e_n), so flipping the
    exponent bits reverses their order and keeps the degree order."""
    return sorted(keys, key=((1 << nvars * B) - 1).__xor__, reverse=reverse)


def monomials_of_degree(nvars: int, degree: int):
    """The exponent vectors of total degree ``degree`` in ``nvars``
    variables, in graded-lex order (see grlex_sorted): X1 largest first."""
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
    # _hash is set on the first hash() call only; no operation changes a
    # Series after construction
    __slots__ = ("nvars", "field", "terms", "precision", "_hash")

    def __init__(self, nvars: int, field: FieldSpec, terms=None, precision: int | None = None):
        """``terms`` maps exponent tuples to coefficients; each is checked
        and packed, and terms at or above the precision and zero
        coefficients are dropped."""
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
                    clean[pack(exps)] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def _of(cls, nvars, field, terms, precision):
        """Internal constructor for a fresh dict the engine below made:
        packed keys in nvars variables below the precision, which is not
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
        if precision is not None and precision < 0:
            precision = 0
        return cls._of(nvars, field, {}, precision)

    @classmethod
    def constant(cls, nvars, field, value, precision=None):
        """The constant ``value``; at precision 0 (or below, which clamps
        to 0) it holds no term."""
        c = field.coerce(value)
        if precision is not None and precision <= 0:
            return cls._of(nvars, field, {}, 0)
        return cls._of(nvars, field, {0: c}, precision)

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
        return self.terms.get(0, self.field.zero())

    def degree(self) -> int:
        """Maximal total degree of a stored monomial; -1 for the zero series."""
        return max(self.terms, default=-1) >> self.nvars * B

    def tuple_terms(self) -> dict:
        """The terms keyed by exponent tuples, in stored order."""
        n = self.nvars
        return {unpack(e, n): c for e, c in self.terms.items()}

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
        # only an operand trusted beyond prec can hold terms at or above it
        limit = None if prec is None else prec << self.nvars * B
        if self.precision == prec:
            terms = dict(self.terms)
        else:
            terms = {e: c for e, c in self.terms.items() if e < limit}
        b = other.terms
        if other.precision != prec:
            b = {e: c for e, c in b.items() if e < limit}
        add = field.add
        for e, c in b.items():
            prev = terms.get(e)
            terms[e] = c if prev is None else add(prev, c)
        return Series._of(self.nvars, field, terms, prec)

    __radd__ = __add__

    def __neg__(self):
        neg = self.field.neg
        return Series._of(
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
        return dot([(self, other)], self.nvars, self.field)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value):
        c = self.field.coerce(value)
        if not c:
            return Series.zero(self.nvars, self.field, self.precision)
        mul = self.field.mul
        return Series._of(
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
        """Forget everything at or above the given total degree (a negative
        one counts as 0)."""
        if precision is not None and precision < 0:
            precision = 0
        prec = min_prec(self.precision, precision)
        if prec == self.precision:
            return self
        limit = prec << self.nvars * B
        terms = {e: c for e, c in self.terms.items() if e < limit}
        return Series._of(self.nvars, self.field, terms, prec)

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
        shift = self.nvars * B
        by_degree: dict[int, dict] = {}
        for e, c in self.terms.items():
            d = e >> shift
            if 0 < d < prec:
                by_degree.setdefault(d, {})[e] = c
        out: dict[int, dict] = {0: {0: c0_inv}}
        add, mul, neg = field.add, field.mul, field.neg
        for d in range(1, prec):
            acc: dict = {}
            for da, slice_a in by_degree.items():
                if da > d:
                    continue
                slice_b = out.get(d - da)
                if not slice_b:
                    continue
                _mac(acc, slice_a, slice_b, None, shift, add, mul)
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
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(
                (self.nvars, self.field, self.precision, frozenset(self.terms.items()))
            )
            return self._hash

    def _format_term(self, exps, coeff) -> str:
        factors = [
            f"X{j + 1}" if e == 1 else f"X{j + 1}^{e}"
            for j, e in enumerate(exps)
            if e
        ]
        if not factors:
            return self.field.format_scalar(coeff)
        body = "*".join(factors)
        if coeff == self.field.one():
            return body
        return f"{self.field.format_scalar(coeff)}*{body}"

    def __str__(self):
        if not self.terms:
            body = "0"
        else:
            n = self.nvars
            parts = [
                self._format_term(unpack(e, n), self.terms[e])
                for e in grlex_sorted(self.terms, n, reverse=True)
            ]
            body = " + ".join(parts)
        if self.precision is None:
            return body
        return f"{body} + O(deg {self.precision})"

    def __repr__(self):
        return f"Series({self}, nvars={self.nvars}, field={self.field!r})"


class TSeries:
    """An element of A[t]/(t^{tlen+1}) with one ambient and tag, stored as
    ``flat``: X^beta t^k (k <= tlen, |beta| below the tag) -> nonzero
    coefficient.  ``coeffs``, its t-coefficients as Series, is a view."""

    __slots__ = ("nvars", "field", "tlen", "precision", "flat", "_coeffs")

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("a TSeries needs at least the t^0 coefficient")
        first = coeffs[0]
        for c in coeffs[1:]:
            if c.nvars != first.nvars or c.field != first.field:
                raise IncompatibleAmbient("t-coefficients live in different ambient rings")
        if any(c.precision != first.precision for c in coeffs):
            raise IncompatibleAmbient("t-coefficients carry different precisions")
        self.flat = TSeries._of_terms(first.nvars, first.field, [c.terms for c in coeffs],
                                      first.precision).flat
        self.nvars, self.field, self.precision = first.nvars, first.field, first.precision
        self.tlen, self._coeffs = len(coeffs) - 1, coeffs

    @classmethod
    def _of(cls, nvars, field, flat, tlen, precision):
        """Internal constructor from a flat dict, which it only reads: a new
        dict of its nonzero terms X^beta t^k with k <= tlen and |beta|
        below the tag, with one ambient and tag."""
        mask, top = _FIELD_MASK, (nvars + 1) * B
        # the top field of a flat key is |beta| + k
        limit = DEGREE_LIMIT if precision is None else precision
        self = object.__new__(cls)
        self.nvars, self.field, self.tlen, self.precision = nvars, field, tlen, precision
        self.flat = {e: c for e, c in flat.items()
                     if c and e & mask <= tlen and (e >> top) - (e & mask) < limit}
        return self

    @classmethod
    def _of_terms(cls, nvars, field, slots, prec):
        """The t-series with the tag ``prec`` whose t^k coefficient has the
        terms slots[k] (X-key -> coefficient; zeros and terms at or above
        the tag are dropped), keyed into one flat dict in one pass."""
        top, limit = (nvars + 1) * B, (DEGREE_LIMIT if prec is None else prec) << nvars * B
        self = object.__new__(cls)
        self.nvars, self.field, self.tlen, self.precision = nvars, field, len(slots) - 1, prec
        self.flat = {(x << B) + (k << top | k): c
                     for k, s in enumerate(slots) for x, c in s.items() if c and x < limit}
        return self

    @property
    def coeffs(self) -> list:
        """The t-coefficients t^0 .. t^tlen as Series, split off ``flat``
        on the first read."""
        try:
            return self._coeffs
        except AttributeError:
            pass
        shift = self.nvars * B
        slots: list[dict] = [{} for _ in range(self.tlen + 1)]
        for e, c in self.flat.items():
            k = e & _FIELD_MASK
            slots[k][(e >> B) - (k << shift)] = c
        self._coeffs = [Series._of(self.nvars, self.field, s, self.precision) for s in slots]
        return self._coeffs

    def term(self, key: int, k: int):
        """The coefficient of X^key t^k, key an X-key; zero when absent."""
        return self.flat.get((key << B) + (k << (self.nvars + 1) * B | k), self.field.zero())

    @classmethod
    def from_series(cls, f: Series, tlen: int):
        out = [f]
        out.extend(Series.zero(f.nvars, f.field, f.precision) for _ in range(tlen))
        return cls(out)

    def __mul__(self, other):
        """Product of two TSeries in A[t]/(t^{tlen+1}), any other operand a
        TypeError: one flat ``_mac`` under the bound tag + tlen, which every
        kept term X^beta t^k (|beta| < tag, k <= tlen) is below."""
        if not isinstance(other, TSeries):
            return NotImplemented
        if (self.nvars, self.field, self.tlen) != (other.nvars, other.field, other.tlen):
            raise IncompatibleAmbient("TSeries operands disagree on ambient or t-length")
        field, n = self.field, self.nvars
        prec = min_prec(self.precision, other.precision)
        acc: dict = {}
        _mac(acc, self.flat, other.flat, None if prec is None else prec + self.tlen,
             (n + 1) * B, field.add, field.mul)
        return TSeries._of(n, field, acc, self.tlen, prec)

    def __eq__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        return ((self.nvars, self.field, self.tlen, self.precision, self.flat)
                == (other.nvars, other.field, other.tlen, other.precision, other.flat))

    def __str__(self):
        return " + ".join(
            f"({c})*t^{i}" if i else f"({c})" for i, c in enumerate(self.coeffs)
        )

    def __repr__(self):
        return f"TSeries({self})"


def substitute(f: Series, images) -> TSeries:
    """Evaluate f at X_j := images[j] inside A[t]/(t^{tlen+1}).

    This is the ring homomorphism extension of the variable assignment,
    so substitute(f*g) == substitute(f)*substitute(g).  The images must be
    exact polynomial data with a shared t-length.  f itself may carry a
    finite precision N; every t-coefficient of the result is then trusted
    only to total degree N - tlen and is truncated there.
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
    prec = None if f.precision is None else max(f.precision - tlen, 0)
    flat = image_sum(f.terms, f.field, [img.flat for img in images], tlen, {})
    return TSeries._of(f.nvars, f.field, flat, tlen, prec)


# -- the shared engine: products, monomial images, linear images ----------


def _mac(acc: dict, a: dict, b: dict, bound, shift: int, add, mul) -> None:
    """acc += a * b on key -> coefficient maps whose exponent fields take
    ``shift`` bits (n * B, or (n + 1) * B for flat keys, whose total
    degree is |beta| + k), keeping only the products of total degree
    below ``bound`` (None keeps every one).

    Under a bound of at most DEGREE_LIMIT no kept product can carry.
    Without a bound (or above it) a product key at or past
    DEGREE_LIMIT << shift, which is a product of total degree
    DEGREE_LIMIT or more, carried or not, raises DegreeLimitExceeded
    before it is stored."""
    if bound is None or bound > DEGREE_LIMIT:
        top = DEGREE_LIMIT << shift
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                if e >= top:
                    raise DegreeLimitExceeded(f"a product reaches total degree {DEGREE_LIMIT}, "
                                              "the limit of packed monomial keys")
                v = mul(c1, c2)
                prev = acc.get(e)
                acc[e] = v if prev is None else add(prev, v)
        return
    limit = bound << shift
    for e1, c1 in a.items():
        room = limit - e1
        if room <= 0:
            continue
        for e2, c2 in b.items():
            if e2 >= room:
                continue
            e = e1 + e2
            v = mul(c1, c2)
            prev = acc.get(e)
            acc[e] = v if prev is None else add(prev, v)


def dot(pairs, nvars: int, field: FieldSpec, precision: int | None = None) -> Series:
    """The sum of a * b over the (a, b) pairs, built in one accumulator.

    The tag is the weakest among ``precision`` and every operand, an
    operand without terms included, so the result equals the chain of
    products and sums it replaces: truncating each product and then the
    sum at the weaker tag is truncating once at the weakest."""
    pairs = list(pairs)
    prec = precision
    for a, b in pairs:
        prec = min_prec(prec, min_prec(a.precision, b.precision))
    add, mul, shift = field.add, field.mul, nvars * B
    acc: dict = {}
    for a, b in pairs:
        a, b = a.terms, b.terms
        if len(a) > len(b):
            a, b = b, a
        _mac(acc, a, b, prec, shift, add, mul)
    return Series._of(nvars, field, acc, prec)


def monomial_image(key: int, images: list, tlen: int, field: FieldSpec, cache: dict) -> dict:
    """The image of the monomial with X-key ``key`` under X_j -> images[j]
    (flat, exact) in A[t]/(t^{tlen+1}), a flat dict without zeros and
    past t^tlen, memoized in ``cache``: a walk down by the rule of
    ``cut_images`` to the nearest cached monomial (or 1), then
    ``cut_images`` back up, uncut, caching every step; nothing recurses,
    so no exponent is too large.  The result is a cache entry: read it,
    never change it."""
    n, chain, below = len(images), [], key
    exponent_bits = (1 << n * B) - 1
    while below not in cache:
        chain.append(below)
        if not below:
            break
        below -= variable_key(n, n - 1 - ((below & exponent_bits).bit_length() - 1) // B)
    cut_images(reversed(chain), images, tlen, field, None, cache)
    return cache[key]


def cut_images(keys, images: list, tlen: int, field: FieldSpec, bound, out=None) -> dict:
    """``out`` (a new dict by default) with the images of the monomials
    with X-keys ``keys`` under X_j -> images[j] added: flat dicts without
    zeros in A[t]/(t^{tlen+1}) modulo J_bound = (X, t)^bound (None cuts
    nothing), built in one pass.  Each is one ``_mac`` of the image of
    X^(beta - e_j), j the first nonzero exponent (the highest nonzero
    field of the key), by images[j], so X^(beta - e_j) must be in ``out``
    or earlier in ``keys``: graded order does that.  One pass over the
    product drops the terms past t^tlen and the zeros."""
    n = len(images)
    top, exponent_bits = 1 << n * B, (1 << n * B) - 1
    shift, mask, add, mul = (n + 1) * B, _FIELD_MASK, field.add, field.mul
    out = {} if out is None else out
    for key in keys:
        if not key:
            out[0] = {0: field.one()}
            continue
        # X_j owns the highest nonzero exponent field f of the key: j = n - 1 - f
        f = ((key & exponent_bits).bit_length() - 1) // B
        acc: dict = {}
        _mac(acc, out[key - (top | 1 << f * B)], images[n - 1 - f], bound, shift, add, mul)
        out[key] = {e: c for e, c in acc.items() if c and e & mask <= tlen}
    return out


def image_sum(terms: dict, field: FieldSpec, images: list, tlen: int, cache: dict,
              slot: int | None = None, prec: int | None = None) -> dict:
    """sum_e c_e * image(X^e) over the ``terms`` c_e X^e of a polynomial
    over ``field``, in a fresh dict that may hold zero coefficients
    (``Series._of`` drops them).  ``images``, ``tlen`` and ``cache`` as
    in ``monomial_image``.  Without a ``slot`` the sum is the flat
    element, each image walked once for all t-degrees.  With a ``slot``
    s it is the t^s coefficient, keyed by X-keys and kept below total
    degree ``prec`` (None keeps all): the walk skips the other terms."""
    add, mul, mask, n = field.add, field.mul, _FIELD_MASK, len(images)
    # |beta| < prec at t^slot is |beta| + slot < prec + slot
    limit = None if prec is None else (prec + slot) << (n + 1) * B
    sub = None if slot is None else slot << n * B
    acc: dict = {}
    for key, coeff in terms.items():
        mono = cache.get(key)
        if mono is None:
            mono = monomial_image(key, images, tlen, field, cache)
        for e, v in mono.items():
            if sub is not None:
                if e & mask != slot or limit is not None and e >= limit:
                    continue
                e = (e >> B) - sub
            w = mul(coeff, v)
            prev = acc.get(e)
            acc[e] = w if prev is None else add(prev, w)
    return acc
