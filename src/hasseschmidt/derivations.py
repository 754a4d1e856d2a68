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
    _FIELD_MASK, B, Series, TSeries, _mac, image_sum, monomials_of_degree, variable_key,
)


class HSDerivation:
    """A Hasse-Schmidt derivation, determined by the images E(X_j).

    images[j] is a TSeries whose t^0 coefficient is exactly X_j and whose
    higher coefficients are exact polynomials.  The engine reads each
    image's one stored form: ``_flat_images[j]`` is ``images[j].flat``.
    Instances are immutable apart from internal memo tables that only
    grow, so evaluating components of the same derivation from several
    threads is safe.
    """

    __slots__ = ("nvars", "length", "field", "images", "name", "_flat_images", "_mono_cache",
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
            # the t^0 coefficient is exactly X_j: tag None (checked above), and
            # the k = 0 terms of the flat image, as X-keys, are {e_j: 1}
            t0 = {e >> B: c for e, c in img.flat.items() if not e & _FIELD_MASK}
            if t0 != {variable_key(nvars, j): one}:
                raise IncompatibleAmbient(
                    f"t^0 coefficient of image {j} must be the variable X{j + 1}"
                )
        self.nvars = nvars
        self.length = length
        self.field = field
        self.images = images
        self.name = name
        self._flat_images = [img.flat for img in images]
        self._mono_cache: dict = {}
        self._cut_caches: dict = {}  # order N -> {key: E(X^beta) mod J_N}, see component_matrix

    # -- constructors ------------------------------------------------

    @classmethod
    def identity(cls, nvars, length, field, name=None):
        return integrate([Series.zero(nvars, field)] * nvars, length, name)

    def truncated(self, w: int) -> "HSDerivation":
        """The derivation (D_0, .., D_w): the images cut to t^w, same name;
        self when w is the length.  Built from this one's validated
        images, their flat dicts masked to k <= w, with empty caches."""
        if w == self.length:
            return self
        if not 1 <= w < self.length:
            raise ComponentOutOfRange(f"cannot truncate a length-{self.length} derivation to {w}")
        out = object.__new__(HSDerivation)
        out.nvars, out.length, out.field, out.name = self.nvars, w, self.field, self.name
        out.images = [TSeries._of(self.nvars, self.field, img.flat, w, None)
                      for img in self.images]
        out._flat_images = [img.flat for img in out.images]
        out._mono_cache, out._cut_caches = {}, {}
        return out

    # -- the components ----------------------------------------------

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
        acc = image_sum(f.terms, f.field, self._flat_images, self.length, self._mono_cache, i, prec)
        return Series._of(f.nvars, f.field, acc, prec)

    def apply(self, f: Series) -> TSeries:
        """E(f), the full image in A[t]/(t^{length+1}); every slot is
        trusted to the input precision minus the length."""
        if f.nvars != self.nvars or f.field != self.field:
            raise IncompatibleAmbient("series does not match the derivation's ambient ring")
        prec = None if f.precision is None else max(f.precision - self.length, 0)
        return TSeries._of(f.nvars, f.field, self._apply_flat(f.terms), self.length, prec)

    def _apply_flat(self, terms: dict) -> dict:
        """E(f) for the ``terms`` of f as a fresh flat dict (see the series
        module) without zero coefficients: ``apply`` before the split into
        t-coefficients, which ``leibniz_check`` reads."""
        acc = image_sum(terms, self.field, self._flat_images, self.length, self._mono_cache)
        return acc if all(acc.values()) else {e: c for e, c in acc.items() if c}

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
    components of weights alpha_1..alpha_n, all read through one memo of
    ``_composite``; tests cross-check it against an explicit two-block
    shift and against partial derivatives.
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
    images = {(0,) * f.nvars: f}
    return {alpha: _composite(family, images, alpha) for alpha in alphas}


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
    if (D.nvars, D.field, D.length) != (Dp.nvars, Dp.field, Dp.length):
        raise IncompatibleAmbient("group operands disagree on ambient, field or length")
    m = D.length
    images = []
    for img in Dp.images:
        # the t^i coefficient sum_{r+s=i} D_r(g_s), g_s the t-coefficients of Dp's image
        coeffs = [Series.zero(D.nvars, D.field)] * (m + 1)
        for s, g in enumerate(img.coeffs):
            for r, c in enumerate(D.apply(g).coeffs[: m + 1 - s]):
                coeffs[r + s] = coeffs[r + s] + c
        images.append(TSeries(coeffs))
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
    ``_composite``, the one evaluator of D_mu, does the work.
    """
    family = list(family)
    mu = tuple(mu)
    if len(mu) != len(family):
        raise IncompatibleAmbient(f"got {len(family)} derivations but a weight vector of length {len(mu)}")
    return _composite(family, {(0,) * len(mu): f}, mu)


def _composite(family, images: dict, mu) -> Series:
    """D_mu(f), memoized in ``images`` (f under the zero vector):
    D_mu(f) = D^d_{mu_d}(D_mu'(f)), d the first nonzero slot of mu and
    mu' = mu with slots 0..d zeroed, so every suffix is applied once and
    the rightmost factor first.  Every slot of a miss is checked against
    its member's length before any factor acts.  An exact zero is its
    own image, so it is applied only where ``apply_component`` refuses
    it (a negative weight, another ambient ring)."""
    g = images.get(mu)
    if g is None:
        d = next(k for k, e in enumerate(mu) if e)
        D, w = family[d], mu[d]
        if w > D.length:
            raise ComponentOutOfRange(f"weight {w} exceeds length {D.length} of derivation {d}")
        g = _composite(family, images, (0,) * (d + 1) + mu[d + 1:])
        if g.terms or g.precision is not None or w < 0 or (g.nvars, g.field) != (D.nvars, D.field):
            g = D.apply_component(w, g)
        images[mu] = g
    return g


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

    fg is read off the t^0 terms of E(f) E(g), since D_0 = id
    (HSDerivation checks that E(X_j) is X_j mod t).  Checks every pair of
    monomials up to BASIS_DEGREE, then ``trials`` random pairs of degree
    up to RANDOM_DEGREE drawn from the seed.  A basis pair (g, f) below
    the diagonal fails exactly when its mirror (f, g), met first, does;
    it counts in ``checked_pairs`` but is not checked again.  A violation
    is reported, not raised: the first weight i >= 1 where the two sides
    differ.  Both sides are flat engine dicts without zero coefficients
    (see the series module), so they are compared whole; only a
    counterexample is split into t-coefficients and wrapped as Series.
    """
    import random

    E, length, nvars, field = D._apply_flat, D.length, D.nvars, D.field
    shift, mask, add, mul = (nvars + 1) * B, _FIELD_MASK, field.add, field.mul

    def mismatch(f, g, Ef, Eg):
        """The counterexample at the first weight where (f, g) fails, or None."""
        acc: dict = {}
        _mac(acc, Ef, Eg, None, shift, add, mul)
        rhs = {e: c for e, c in acc.items() if c and e & mask <= length}
        lhs = E({e >> B: c for e, c in rhs.items() if not e & mask})
        if lhs == rhs:
            return None
        lhs, rhs = (TSeries._of(nvars, field, s, length, None).coeffs for s in (lhs, rhs))
        for i in range(1, length + 1):
            if lhs[i] != rhs[i]:
                return i, f, g, lhs[i], rhs[i]
        return None

    # lexicographic order of the exponent vectors
    monomials = sorted(
        e for degree in range(BASIS_DEGREE + 1) for e in monomials_of_degree(nvars, degree)
    )
    basis = [(f, E(f.terms)) for f in (Series.monomial(nvars, field, e) for e in monomials)]
    checked = 0
    for a, (fa, pa) in enumerate(basis):
        # E(f) E(g) = E(g) E(f): the a pairs (fa, fb) with b < a mirror
        # pairs already checked, so they are counted, not checked again
        checked += a
        for fb, pb in basis[a:]:
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
