"""Hasse-Schmidt derivations of k[X_1..X_n], stored by variable images.

A Hasse-Schmidt derivation of length m is a sequence (D_0 = id, D_1, ...,
D_m) of k-linear maps obeying the higher Leibniz rule
D_i(fg) = sum_{r+s=i} D_r(f) D_s(g).  Equivalently it is the ring
homomorphism E: A -> A[t]/(t^{m+1}) with E(f) = sum_i D_i(f) t^i and
E(f) = f mod t.  Storing E(X_j) makes the Leibniz rule hold by
construction and keeps the data sparse; components are recovered by
substitution.  D_0 = id holds because the constructor checks that
E(X_j) = X_j mod t, so ``leibniz_check`` reads fg off E(f) E(g).  An
ordinary derivation delta is the case m = 1, E(X_j) = X_j + delta(X_j) t:
``integrate(values, 1)`` builds it, and the D_1 of a longer derivation D
is ``D.truncated(1)``.

Weight indices (the i in D_i) keep their mathematical value everywhere;
variable indices are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ComponentOutOfRange, IncompatibleAmbient
from .series import (
    B,
    Series,
    TSeries,
    _mul_slots,
    image_sum,
    monomial_image,
    monomials_of_degree,
    variable_key,
)


class HSDerivation:
    """A Hasse-Schmidt derivation, determined by the images E(X_j).

    images[j] is a TSeries whose t^0 coefficient is exactly X_j and whose
    higher coefficients are exact polynomials.  Instances are immutable
    apart from internal memo tables that only grow, so evaluating
    components of the same derivation from several threads is safe.
    """

    __slots__ = ("nvars", "length", "field", "images", "name", "_image_slots", "_mono_cache",
                 "_cut_caches")

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
        one = field.one()
        for j, img in enumerate(images):
            if img.nvars != nvars or img.field != field:
                raise IncompatibleAmbient("variable images live in different ambient rings")
            if img.tlen != length:
                raise IncompatibleAmbient("variable images disagree on length")
            if img.precision is not None:
                raise IncompatibleAmbient("variable images must be exact polynomials")
            # the t^0 coefficient is exactly X_j: tag None (checked above), terms {e_j: 1}
            if img.coeffs[0].terms != {variable_key(nvars, j): one}:
                raise IncompatibleAmbient(
                    f"t^0 coefficient of image {j} must be the variable X{j + 1}"
                )
        self.nvars = nvars
        self.length = length
        self.field = field
        self.images = images
        self.name = name
        # the engine's view of the images: one terms dict per t-degree
        self._image_slots = [[c.terms for c in img.coeffs] for img in images]
        self._mono_cache: dict = {}
        self._cut_caches: dict = {}  # order N -> {key: E(X^beta) mod J_N}

    # -- constructors ------------------------------------------------

    @classmethod
    def identity(cls, nvars, length, field, name=None):
        return integrate([Series.zero(nvars, field)] * nvars, length, name)

    def truncated(self, w: int) -> "HSDerivation":
        """The derivation (D_0, .., D_w): the images cut to t^w, same name;
        self when w is the length."""
        if w == self.length:
            return self
        if not 1 <= w < self.length:
            raise ComponentOutOfRange(f"cannot truncate a length-{self.length} derivation to {w}")
        return HSDerivation([TSeries(img.coeffs[: w + 1]) for img in self.images], name=self.name)

    # -- the components ----------------------------------------------

    def _image_of_monomial(self, key: int, order: int | None = None) -> list:
        """E(X^beta) for the packed key of beta (see series.pack) as a
        slot list, its t^i coefficient's key -> coefficient dict at index
        i, built as E(X^(beta - e_j)) * E(X_j) and memoized; a read-only
        cache entry.

        With an ``order`` N the image is only computed modulo
        J_N = {sum_k a_k t^k : a_k in (X)^(N-k)} (see TSeries.mul_cut): its
        t^i coefficient is D_i(X^beta) below degree N - i, which is all a
        component matrix on the order-N quotient reads.
        """
        if order is None:
            cache, cuts = self._mono_cache, None
        else:
            cache = self._cut_caches.setdefault(order, {})
            cuts = range(order, order - self.length - 1, -1)
        return monomial_image(key, self._image_slots, self.field, cache, cuts)

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
        acc, = image_sum(f.terms, f.field, self._image_slots, self._mono_cache, (i,), prec)
        return Series._of(f.nvars, f.field, acc, prec)

    def apply(self, f: Series) -> TSeries:
        """E(f), the full image in A[t]/(t^{length+1}); every slot is
        trusted to the input precision minus the length."""
        if f.nvars != self.nvars or f.field != self.field:
            raise IncompatibleAmbient("series does not match the derivation's ambient ring")
        prec = None if f.precision is None else max(f.precision - self.length, 0)
        return TSeries._of(f.nvars, f.field, self._apply_slots(f.terms, prec), prec)

    def _apply_slots(self, terms: dict, prec: int | None = None) -> list:
        """E(f) for the ``terms`` of f as a slot list, one fresh key ->
        coefficient dict per t-degree without zero coefficients, kept
        below total degree ``prec`` (None keeps all): ``apply`` without
        the wrapping, which ``leibniz_check`` reads."""
        slots = image_sum(terms, self.field, self._image_slots, self._mono_cache,
                          range(self.length + 1), prec)
        return [s if all(s.values()) else {e: c for e, c in s.items() if c} for s in slots]

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
    if not 0 <= j < nvars:
        raise IncompatibleAmbient(f"variable index {j} out of range for nvars={nvars}")
    values = [Series.one(nvars, field) if d == j else Series.zero(nvars, field)
              for d in range(nvars)]
    return integrate(values, length, name or f"taylor{j + 1}")


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


# -- images X_j + delta(X_j) t: ordinary derivations and their lifts ------


def integrate(values, length: int, name: str | None = None) -> HSDerivation:
    """The Hasse-Schmidt derivation with E(X_j) = X_j + values[j] t.

    ``values`` are the images delta(X_j) of an ordinary derivation delta,
    one exact polynomial per variable.  Over a polynomial ring every
    derivation extends this way, and the weight-1 component of the
    result is delta again; ``integrate(values, 1)`` is delta itself.
    HSDerivation validates the images: their count, ambient and exactness.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    images = []
    for j, v in enumerate(values):
        n, field, prec = v.nvars, v.field, v.precision
        # X_j; a surplus value gets the constant 1, and HSDerivation
        # reports the count
        x = Series.monomial(n, field, [int(d == j) for d in range(n)], precision=prec)
        images.append(TSeries([x, v] + [Series.zero(n, field, prec)] * (length - 1)))
    return HSDerivation(images, name=name)


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
        slots = [Series.zero(D.nvars, D.field)] * (m + 1)
        for s, g in enumerate(Dp.images[j].coeffs):
            if g.is_zero():
                continue
            # t^s E_D(g): its t^k coefficient lands in slot s + k
            for k, c in enumerate(D.apply(g).coeffs[: m + 1 - s]):
                slots[s + k] = slots[s + k] + c
        images.append(TSeries(slots))
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


BASIS_DEGREE = 2
RANDOM_DEGREE = 3


def leibniz_check(D: HSDerivation, trials: int = 25, seed: int | None = 0) -> LeibnizReport:
    """Verify D_i(fg) = sum_{r+s=i} D_r(f) D_s(g) for every weight i: the
    t^i coefficient of the homomorphism identity E(fg) = E(f) E(g).

    fg is read off slot 0 of E(f) E(g), since D_0 = id (HSDerivation
    checks that E(X_j) is X_j mod t).  Checks every pair of monomials up
    to BASIS_DEGREE, then ``trials`` random pairs of degree up to
    RANDOM_DEGREE drawn from the seed.  A violation is reported, not
    raised: the first weight i >= 1 where the two sides differ.  Both
    sides are engine slot lists without zero coefficients, so they are
    compared as dicts; only a counterexample is wrapped as Series.
    """
    import random

    E, length, nvars, field = D._apply_slots, D.length, D.nvars, D.field
    shift, add, mul = nvars * B, field.add, field.mul

    def mismatch(f, g, Ef, Eg):
        """The counterexample at the first weight where (f, g) fails, or None."""
        rhs = _mul_slots(Ef, Eg, None, shift, add, mul)
        lhs = E(rhs[0])
        for i in range(1, length + 1):
            if lhs[i] != rhs[i]:
                return (i, f, g, Series._of(nvars, field, lhs[i], None),
                        Series._of(nvars, field, rhs[i], None))
        return None

    # lexicographic order of the exponent vectors
    monomials = sorted(
        e for degree in range(BASIS_DEGREE + 1) for e in monomials_of_degree(nvars, degree)
    )
    basis = [(f, E(f.terms)) for f in (Series.monomial(nvars, field, e) for e in monomials)]
    checked = 0
    for fa, pa in basis:
        for fb, pb in basis:
            checked += 1
            bad = mismatch(fa, fb, pa, pb)
            if bad:
                return LeibnizReport(False, checked, length, seed, bad)

    rng = random.Random(seed)
    for _ in range(trials):
        f = _random_polynomial(rng, nvars, field, RANDOM_DEGREE)
        g = _random_polynomial(rng, nvars, field, RANDOM_DEGREE)
        checked += 1
        bad = mismatch(f, g, E(f.terms), E(g.terms))
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
