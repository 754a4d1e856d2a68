"""Exact arithmetic in the supported coefficient fields.

Two fields are available: the rationals (coefficients are
``fractions.Fraction``) and the prime fields GF(p) (coefficients are ints
reduced to [0, p)).  A :class:`FieldSpec` carries the choice and provides
the arithmetic; series and derivations store raw coefficient values and
delegate every operation to their field.  Both representations are
canonical, so structural equality of values is field equality.

A rational result is built directly: the operations read the numerator
and denominator slots of their operands, take the gcd steps of
``Fraction``'s own arithmetic, which leave a coprime pair with a
positive denominator (the canonical form), and fill the two slots of a
bare ``Fraction``.  That skips the operator dispatch and the
normalising constructor, most of the cost of an operation.
``parse_scalar`` and ``coerce`` still go through the constructor, which
reduces ``2/4`` and checks its input.  The operations stay methods of
:class:`FieldSpec`, looked up on the class, so that one patch of the
class counts every field operation of a run (the benchmark's
``fields.ops``).
"""

from __future__ import annotations

import math
import re
import reprlib
import sys
from fractions import Fraction
from math import gcd

from .errors import CoefficientTooLarge, LengthMismatch


PRIME_CAP = 2 ** 64
# The largest exponent a problem file may hold.  Monomial images are
# memoized power by power, about 1.6 kB per unit of exponent, so an
# uncapped exponent in a short file could exhaust memory.
EXPONENT_CAP = 4096
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Primality of an integer below PRIME_CAP = 2**64 (ValueError above).

    Miller-Rabin with the prime bases 2..37, which is deterministic far
    beyond the cap (for every n < 3 * 10**23), so the answer is exact
    and takes a few dozen modular powers.
    """
    if n >= PRIME_CAP:
        raise ValueError(f"moduli must be below 2**64, got {n}")
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the rational operations read and fill Fraction's two slots directly
_new = object.__new__
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)

_GF_SCALAR = re.compile(r"-?[0-9]+")
_Q_SCALAR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


class FieldSpec:
    """GF(p) when ``p`` is a prime below PRIME_CAP, the rationals when ``p`` is None."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and not is_prime(p):
            raise ValueError(f"modulus must be a prime, got {p!r}")
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p if self.p is not None else 0

    def zero(self):
        return 0 if self.p is not None else _Q_ZERO

    def one(self):
        return 1 if self.p is not None else _Q_ONE

    def coerce(self, x):
        """Bring an int (or a Fraction, over the rationals) into the field."""
        if self.p is not None:
            if isinstance(x, bool) or not isinstance(x, int):
                raise TypeError(f"cannot coerce {x!r} into {self!r}")
            return x % self.p
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int) and not isinstance(x, bool):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    # The rational branches below follow Fraction._add and _mul: the same
    # gcd steps, then the coprime result stored without normalising.

    def add(self, a, b):
        if self.p is not None:
            return (a + b) % self.p
        na, da = a._numerator, a._denominator
        nb, db = b._numerator, b._denominator
        g = gcd(da, db)
        if g == 1:
            n, d = na * db + da * nb, da * db
        else:
            s = da // g
            n = na * (db // g) + nb * s
            g2 = gcd(n, g)
            if g2 == 1:
                d = s * db
            else:
                n //= g2
                d = s * (db // g2)
        r = _new(Fraction)
        r._numerator, r._denominator = n, d
        return r

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        if self.p is not None:
            return (-a) % self.p
        r = _new(Fraction)
        r._numerator, r._denominator = -a._numerator, a._denominator
        return r

    def mul(self, a, b):
        if self.p is not None:
            return (a * b) % self.p
        na, da = a._numerator, a._denominator
        nb, db = b._numerator, b._denominator
        g = gcd(na, db)
        if g > 1:
            na //= g
            db //= g
        g = gcd(nb, da)
        if g > 1:
            nb //= g
            da //= g
        r = _new(Fraction)
        r._numerator, r._denominator = na * nb, da * db
        return r

    def inv(self, a):
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.p is not None:
            a %= self.p
            if a == 0:
                raise ZeroDivisionError(f"0 is not invertible in {self!r}")
            return pow(a, -1, self.p)
        n, d = a._numerator, a._denominator
        if not n:
            raise ZeroDivisionError("0 is not invertible in the rationals")
        r = _new(Fraction)
        r._numerator, r._denominator = (d, n) if n > 0 else (-d, -n)
        return r

    def parse_scalar(self, text: str):
        """Parse the text form: a decimal integer ``-?[0-9]+`` for GF(p),
        reduced mod p; that or ``a/b`` for Q.  Nothing else is accepted:
        no '+', spaces, underscores, decimal points or exponents."""
        if isinstance(text, int) and not isinstance(text, bool):
            return self.coerce(text)
        if not isinstance(text, str):
            raise ValueError(f"expected a scalar string, got {reprlib.repr(text)}")
        grammar = _GF_SCALAR if self.p is not None else _Q_SCALAR
        match = grammar.fullmatch(text)
        if not match:
            raise ValueError(f"{reprlib.repr(text)} is not a scalar of {self!r}")
        if self.p is not None:
            return int(text, 10) % self.p
        num, den = match.groups()
        return Fraction(int(num), 1 if den is None else int(den))

    def format_scalar(self, a) -> str:
        """The text form of a field element.  Raises CoefficientTooLarge on
        a number with more digits than the interpreter will convert
        (``sys.get_int_max_str_digits``)."""
        try:
            return str(a)
        except ValueError as exc:
            raise CoefficientTooLarge(
                f"a coefficient has more than {sys.get_int_max_str_digits()} digits, "
                "the interpreter's limit for writing an integer"
            ) from exc

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.p == other.p

    def __hash__(self):
        return hash(("FieldSpec", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


QQ = FieldSpec(None)

_gf_cache: dict[int, FieldSpec] = {}


def GF(p: int) -> FieldSpec:
    field = _gf_cache.get(p)
    if field is None:
        field = _gf_cache[p] = FieldSpec(p)
    return field


def binom_mod_p(top: int, bot: int, p: int) -> int:
    """Binomial coefficient C(top, bot) mod a prime p, digit by digit in base p.

    Each base-p digit pair contributes an ordinary small binomial; the
    product vanishes as soon as a digit of ``bot`` exceeds the matching
    digit of ``top``.
    """
    if bot < 0 or bot > top:
        return 0
    r = 1
    while top or bot:
        t, b = top % p, bot % p
        if b > t:
            return 0
        r = (r * math.comb(t, b)) % p
        top //= p
        bot //= p
    return r


def binom_multi(beta, alpha, field: FieldSpec):
    """Product of coordinatewise binomials C(beta_i, alpha_i), reduced into field.

    Returns the field's zero whenever some alpha_i exceeds beta_i.
    """
    if len(beta) != len(alpha):
        raise LengthMismatch(f"exponent lengths differ: {len(beta)} vs {len(alpha)}")
    if field.p is not None:
        r = 1
        for b, a in zip(beta, alpha):
            r = (r * binom_mod_p(b, a, field.p)) % field.p
            if r == 0:
                return 0
        return r
    r = 1
    for b, a in zip(beta, alpha):
        if a > b:
            return Fraction(0)
        r *= math.comb(b, a)
    return Fraction(r)
