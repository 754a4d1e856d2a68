"""Hasse-Schmidt derivations of k[X_1..X_n], stored by variable images.

A Hasse-Schmidt derivation of length m is a sequence (D_0 = id, D_1, ...,
D_m) of k-linear maps obeying the higher Leibniz rule
D_i(fg) = sum_{r+s=i} D_r(f) D_s(g).  Equivalently it is the ring
homomorphism E: A -> A[t]/(t^{m+1}) with E(f) = sum_i D_i(f) t^i and
E(f) = f mod t.  Storing E(X_j) makes the Leibniz rule hold by
construction and keeps the data sparse; components are recovered by
substitution.

Weight indices (the i in D_i) keep their mathematical value everywhere;
variable indices are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ComponentOutOfRange, IncompatibleAmbient
from .fields import FieldSpec
from .series import (
    Series,
    TSeries,
    image_sum,
    min_prec,
    monomial_image,
    monomials_of_degree,
    substitute,
)


class Derivation:
    """An ordinary k-derivation, stored by its images on the variables."""

    __slots__ = ("values",)

    def __init__(self, values):
        values = list(values)
        if not values:
            raise ValueError("a derivation needs at least one variable image")
        first = values[0]
        for v in values[1:]:
            if v.nvars != first.nvars or v.field != first.field:
                raise IncompatibleAmbient("derivation images live in different ambient rings")
        if len(values) != first.nvars:
            raise IncompatibleAmbient(
                f"expected {first.nvars} images for {first.nvars} variables, got {len(values)}"
            )
        for v in values:
            if v.precision is not None:
                raise IncompatibleAmbient("derivation images must be exact polynomials")
        self.values = values

    @property
    def nvars(self) -> int:
        return self.values[0].nvars

    @property
    def field(self) -> FieldSpec:
        return self.values[0].field

    @classmethod
    def zero(cls, nvars, field):
        return cls([Series.zero(nvars, field) for _ in range(nvars)])

    def apply(self, f: Series) -> Series:
        """Extend to the whole ring by the Leibniz rule and apply to f."""
        if f.nvars != self.nvars or f.field != self.field:
            raise IncompatibleAmbient("series does not match the derivation's ambient ring")
        field = self.field
        out = Series.zero(self.nvars, field, f.precision)
        for exps, coeff in f.terms.items():
            for j, e in enumerate(exps):
                if e == 0:
                    continue
                lower = list(exps)
                lower[j] -= 1
                factor = field.mul(coeff, field.coerce(e))
                if not factor:
                    continue
                out = out + self.values[j].scale(factor) * Series.monomial(
                    self.nvars, field, lower
                )
        return out.truncate(None if f.precision is None else max(f.precision - 1, 0))

    def __add__(self, other):
        return Derivation([a + b for a, b in zip(self.values, other.values)])

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.values == other.values

    def __repr__(self):
        return f"Derivation({[str(v) for v in self.values]})"


class HSDerivation:
    """A Hasse-Schmidt derivation, determined by the images E(X_j).

    images[j] is a TSeries whose t^0 coefficient is exactly X_j and whose
    higher coefficients are exact polynomials.  Instances are immutable
    apart from internal memo tables that only grow, so evaluating
    components of the same derivation from several threads is safe.
    """

    __slots__ = ("nvars", "length", "field", "images", "name", "_mono_cache", "_cut_caches")

    def __init__(self, images, name: str | None = None):
        images = list(images)
        if not images:
            raise ValueError("a Hasse-Schmidt derivation needs at least one variable image")
        nvars = images[0].nvars
        field = images[0].field
        length = images[0].tlen
        if length < 1:
            raise ValueError("length must be >= 1")
        if len(images) != nvars:
            raise IncompatibleAmbient(
                f"expected {nvars} images for {nvars} variables, got {len(images)}"
            )
        for j, img in enumerate(images):
            if img.nvars != nvars or img.field != field:
                raise IncompatibleAmbient("variable images live in different ambient rings")
            if img.tlen != length:
                raise IncompatibleAmbient("variable images disagree on length")
            if img.precision is not None:
                raise IncompatibleAmbient("variable images must be exact polynomials")
            if img.coeffs[0] != Series.variable(nvars, field, j):
                raise IncompatibleAmbient(
                    f"t^0 coefficient of image {j} must be the variable X{j + 1}"
                )
        self.nvars = nvars
        self.length = length
        self.field = field
        self.images = images
        self.name = name
        self._mono_cache: dict = {}
        self._cut_caches: dict = {}  # order N -> {exps: E(X^exps) mod J_N}

    # -- constructors ------------------------------------------------

    @classmethod
    def identity(cls, nvars, length, field, name=None):
        images = [
            TSeries.from_series(Series.variable(nvars, field, j), length)
            for j in range(nvars)
        ]
        return cls(images, name=name)

    # -- the components ----------------------------------------------

    def _image_of_monomial(self, exps, order: int | None = None) -> TSeries:
        """E(X^exps), built as E(X^(exps - e_j)) * E(X_j) and memoized.

        With an ``order`` N the image is only computed modulo
        J_N = {sum_k a_k t^k : a_k in (X)^(N-k)} (see TSeries.mul_cut): its
        t^i coefficient is D_i(X^exps) below degree N - i, which is all a
        component matrix on the order-N quotient reads.
        """
        if order is None:
            cache, cuts = self._mono_cache, None
        else:
            cache = self._cut_caches.setdefault(order, {})
            cuts = range(order, order - self.length - 1, -1)
        return monomial_image(exps, self.images, cache, cuts)

    def apply_component(self, i: int, f: Series) -> Series:
        """D_i(f): the t^i coefficient of E(f).

        The output precision is the input precision minus i (exact stays
        exact): a component of weight i only sees an input modulo
        (X)^N through degrees below N - i.
        """
        if not 0 <= i <= self.length:
            raise ComponentOutOfRange(f"component {i} of a length-{self.length} derivation")
        if f.nvars != self.nvars or f.field != self.field:
            raise IncompatibleAmbient("series does not match the derivation's ambient ring")
        if i == 0:
            return f
        prec = None if f.precision is None else max(f.precision - i, 0)
        return image_sum(f, self.images, self._mono_cache, (i,), prec)[0]

    def apply(self, f: Series) -> TSeries:
        """E(f), the full image in A[t]/(t^{length+1})."""
        return substitute(f, self.images, _mono_cache=self._mono_cache)

    def degree1(self) -> Derivation:
        """The ordinary derivation D_1, restricted to the variable images."""
        return Derivation([img.coeffs[1] for img in self.images])

    def __eq__(self, other):
        if not isinstance(other, HSDerivation):
            return NotImplemented
        return self.images == other.images

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        imgs = "; ".join(f"E(X{j + 1}) = {img}" for j, img in enumerate(self.images))
        return f"HSDerivation{label}(length={self.length}, {imgs})"


# -- Taylor operators ----------------------------------------------------


def taylor_derivation(nvars, length, field, j, name=None) -> HSDerivation:
    """The divided-power family in the variable X_j: E(X_j) = X_j + t.

    Its weight-i component acts on monomials by
    D_i(X^beta) = C(beta_j, i) * X^(beta - i*e_j).
    """
    images = []
    for d in range(nvars):
        coeffs = [Series.variable(nvars, field, d)]
        if d == j:
            coeffs.append(Series.one(nvars, field))
            coeffs.extend(Series.zero(nvars, field) for _ in range(length - 1))
        else:
            coeffs.extend(Series.zero(nvars, field) for _ in range(length))
        images.append(TSeries(coeffs))
    return HSDerivation(images, name=name or f"taylor{j + 1}")


def taylor_basis(nvars, length, field) -> list[HSDerivation]:
    return [taylor_derivation(nvars, length, field, j) for j in range(nvars)]


def taylor_delta_table(f: Series, alpha_max) -> dict:
    """All divided-power coefficients of the shift f(X + T) up to alpha_max.

    Returns {alpha: coefficient of T^alpha}, for every alpha <= alpha_max
    componentwise, in lexicographic order of alpha.  The coefficient of
    T^alpha is Delta^alpha f, the composite of the divided-power (Taylor)
    components of weights alpha_1..alpha_n; tests cross-check it against
    an explicit two-block shift and against partial derivatives.
    """
    if f.precision is not None:
        raise IncompatibleAmbient("the shift table is only defined for exact polynomials")
    alpha_max = tuple(alpha_max)
    if len(alpha_max) != f.nvars:
        raise IncompatibleAmbient(f"alpha_max has length {len(alpha_max)}, expected {f.nvars}")
    family = taylor_basis(f.nvars, max(1, *alpha_max), f.field)
    # iterate over the box 0 <= alpha <= alpha_max
    alphas = [()]
    for bound in alpha_max:
        alphas = [a + (e,) for a in alphas for e in range(bound + 1)]
    return {alpha: compose_multi(family, alpha, f) for alpha in alphas}


# -- construction from ordinary derivations -------------------------------


def integrate(delta: Derivation, length: int) -> HSDerivation:
    """The Hasse-Schmidt derivation with E(X_j) = X_j + delta(X_j) t.

    Over a polynomial ring every derivation extends this way, and the
    weight-1 component of the result is delta again.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    nvars, field = delta.nvars, delta.field
    images = []
    for j in range(nvars):
        coeffs = [Series.variable(nvars, field, j), delta.values[j]]
        coeffs.extend(Series.zero(nvars, field) for _ in range(length - 1))
        images.append(TSeries(coeffs))
    return HSDerivation(images)


# -- the group structure --------------------------------------------------


def group_compose(D: HSDerivation, Dp: HSDerivation) -> HSDerivation:
    """The group product, with components (D o Dp)_i = sum_{r+s=i} D_r o Dp_s.

    Concretely: apply D's homomorphism to every t-coefficient of Dp's
    variable images and recollect.  The degree-1 component of the result
    is D_1 + Dp_1, so the product lifts addition of ordinary derivations.
    The orientation (D acts on Dp's output) is part of the contract.
    """
    if (
        D.nvars != Dp.nvars
        or D.field != Dp.field
        or D.length != Dp.length
    ):
        raise IncompatibleAmbient("group operands disagree on ambient, field or length")
    m = D.length
    images = []
    for j in range(D.nvars):
        total = TSeries.zero(D.nvars, D.field, m)
        for s, g in enumerate(Dp.images[j].coeffs):
            if g.is_zero():
                continue
            total = total + D.apply(g).tshift(s)
        images.append(total)
    return HSDerivation(images)


def group_inverse(D: HSDerivation) -> HSDerivation:
    """The group inverse: group_compose(D, result) is the identity.

    Solved triangularly: the t^i coefficient of E_D applied to the
    unknown images must vanish for i >= 1, which determines each image
    coefficient from the strictly lower ones.
    """
    m = D.length
    images = []
    for j in range(D.nvars):
        coeffs = [Series.variable(D.nvars, D.field, j)]
        for i in range(1, m + 1):
            acc = Series.zero(D.nvars, D.field)
            for s in range(i):
                acc = acc + D.apply_component(i - s, coeffs[s])
            coeffs.append(-acc)
        images.append(TSeries(coeffs))
    return HSDerivation(images)


def compose_multi(family, mu, f: Series) -> Series:
    """Apply the composite D^1_{mu_1} o ... o D^n_{mu_n} to f.

    The rightmost factor acts first: the component of family[n-1] is
    applied to f, then family[n-2]'s, and so on.  The result depends on
    the order of the family, so that order is part of the contract.
    """
    family = list(family)
    mu = tuple(mu)
    if len(mu) != len(family):
        raise IncompatibleAmbient(f"got {len(family)} derivations but a weight vector of length {len(mu)}")
    for d, w in enumerate(mu):
        if w > family[d].length:
            raise ComponentOutOfRange(
                f"weight {w} exceeds length {family[d].length} of derivation {d}"
            )
    out = f
    for d in range(len(family) - 1, -1, -1):
        if mu[d] == 0:
            continue
        out = family[d].apply_component(mu[d], out)
    return out


# -- the Leibniz oracle ----------------------------------------------------


@dataclass
class LeibnizReport:
    passed: bool
    checked_pairs: int
    length: int
    seed: int | None
    counterexample: tuple | None  # (i, f, g, lhs, rhs) on failure

    def summary(self) -> str:
        if self.passed:
            return f"leibniz: pass ({self.checked_pairs} pairs, all weights <= {self.length})"
        i, f, g, lhs, rhs = self.counterexample
        return f"leibniz: FAIL at weight {i} on f={f}, g={g}: {lhs} != {rhs}"


def leibniz_check(
    D,
    trials: int = 25,
    seed: int | None = 0,
    basis_degree: int = 2,
    random_degree: int = 3,
) -> LeibnizReport:
    """Verify D_i(fg) = sum_{r+s=i} D_r(f) D_s(g) for every weight i.

    ``D`` is an HSDerivation or a tuple (components, length, nvars,
    field) where ``components(i, f)`` returns the weight-i value; the
    tuple form lets tests probe corrupted component tables.  Checks every
    pair of monomials up to basis_degree, then ``trials`` random pairs
    drawn from the given seed.  A violation is reported, not raised.
    """
    import random

    if isinstance(D, HSDerivation):
        components, length = D.apply_component, D.length
        nvars, field = D.nvars, D.field
    else:
        (components, length, nvars, field) = D

    def parts(f):
        return [components(r, f) for r in range(length + 1)]

    def mismatch(f, g, f_parts, g_parts):
        """The counterexample at the first weight where (f, g) fails, or None."""
        fg = f * g
        for i in range(1, length + 1):
            lhs = components(i, fg)
            rhs = Series.zero(nvars, field)
            for r in range(i + 1):
                a, b = f_parts[r], g_parts[i - r]
                # otherwise a * b is an exact zero, which adds nothing
                if a.terms and b.terms or min_prec(a.precision, b.precision) is not None:
                    rhs = rhs + a * b
            if lhs != rhs:
                return (i, f, g, lhs, rhs)
        return None

    # lexicographic order of the exponent vectors
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


def _random_polynomial(rng, nvars, field, max_degree, max_terms=3) -> Series:
    from fractions import Fraction

    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = []
        budget = max_degree
        for _ in range(nvars):
            e = rng.randint(0, budget)
            exps.append(e)
            budget -= e
        if field.p is not None:
            c = rng.randrange(field.p)
        else:
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        terms[tuple(exps)] = field.coerce(c)
    return Series(nvars, field, terms)
