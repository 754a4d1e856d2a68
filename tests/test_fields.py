"""Field arithmetic and the binomial machinery."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hasseschmidt import GF, QQ, FieldSpec, binom_multi
from hasseschmidt.errors import LengthMismatch
from hasseschmidt.fields import binom_mod_p, is_prime

from conftest import FIELDS, random_scalar


def test_prime_check_guards_construction():
    with pytest.raises(ValueError):
        FieldSpec(6)
    with pytest.raises(ValueError):
        FieldSpec(1)
    assert GF(2).p == 2
    assert GF(97).p == 97


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(31):
        assert is_prime(n) == (n in primes)


def test_is_prime_matches_trial_division():
    for n in range(5000):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1)))


def test_is_prime_large_values():
    # strong pseudoprimes to the bases 2; 2, 3; 2, 3, 5; 2..7; 2..23
    for n in (2047, 1373653, 25326001, 3215031751, 3825123056546413051):
        assert not is_prime(n)
    for p in (2 ** 61 - 1, 10 ** 18 + 3, 2 ** 64 - 59):
        assert is_prime(p)
    assert not is_prime((2 ** 31 - 1) * (2 ** 32 - 5))


def test_moduli_are_capped_below_2_to_the_64():
    with pytest.raises(ValueError):
        is_prime(2 ** 64)
    with pytest.raises(ValueError):
        FieldSpec(10 ** 39 + 3)  # a prime
    assert GF(2 ** 64 - 59).p == 2 ** 64 - 59


# -- inverses --------------------------------------------------------------

def test_inverse_of_one_is_one():
    for field in FIELDS:
        assert field.inv(field.one()) == field.one()


def test_inverse_3_mod_5_matches_exhaustive_search():
    # oracle: scan all residues for the one that multiplies to 1
    matches = [b for b in range(5) if (3 * b) % 5 == 1]
    assert matches == [2]
    assert GF(5).inv(3) == 2


def test_inverse_fraction_swaps():
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)


def test_inverse_of_zero_raises():
    for field in FIELDS:
        with pytest.raises(ZeroDivisionError):
            field.inv(field.zero())


# -- field axioms ------------------------------------------------------------

@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))
def test_field_axioms_on_random_triples(a, b, c):
    for field in FIELDS:
        x, y, z = field.coerce(a), field.coerce(b), field.coerce(c)
        assert field.mul(x, field.mul(y, z)) == field.mul(field.mul(x, y), z)
        assert field.add(x, field.add(y, z)) == field.add(field.add(x, y), z)
        assert field.mul(x, field.add(y, z)) == field.add(field.mul(x, y), field.mul(x, z))
        assert field.add(x, field.neg(x)) == field.zero()
        if y != field.zero():
            assert field.mul(y, field.inv(y)) == field.one()


def test_random_nonzero_inverses(rng):
    for field in FIELDS:
        for _ in range(50):
            a = random_scalar(rng, field, nonzero=True)
            assert field.mul(a, field.inv(a)) == field.one()


# -- the rational kernel -------------------------------------------------------

def test_fraction_keeps_the_two_slots_the_rational_operations_fill():
    """QQ's operations build results by filling these slots of a bare
    Fraction, and only these; an interpreter with another layout must
    fail here."""
    assert set(Fraction.__slots__) == {"_numerator", "_denominator"}
    assert not hasattr(Fraction(1, 2), "__dict__")


_big = st.integers(-(10 ** 40), 10 ** 40)
_rationals = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(max_denominator=12),
    st.builds(Fraction, _big, st.integers(1, 10 ** 40)),
    # shared factors, so the gcd steps reduce both ways
    st.builds(lambda n, d, g: Fraction(n * g, d * g), st.integers(-(10 ** 6), 10 ** 6),
              st.integers(1, 10 ** 6), st.sampled_from((2, 6, 30, 2 ** 64, 3 ** 41))),
).map(Fraction)


def _canonical(r, want):
    assert type(r) is Fraction
    assert r == want
    assert math.gcd(r.numerator, r.denominator) == 1 and r.denominator > 0
    assert (r.numerator, r.denominator) == (want.numerator, want.denominator)
    assert hash(r) == hash(want) and str(r) == str(want)


@given(_rationals, _rationals)
def test_rational_operations_match_the_fraction_operators(a, b):
    """Equal value, type Fraction, and the canonical coprime form with a
    positive denominator, against Fraction's own operators."""
    _canonical(QQ.add(a, b), a + b)
    _canonical(QQ.sub(a, b), a - b)
    _canonical(QQ.mul(a, b), a * b)
    _canonical(QQ.neg(a), -a)
    if a:
        _canonical(QQ.inv(a), 1 / a)
    else:
        with pytest.raises(ZeroDivisionError, match="^0 is not invertible in the rationals$"):
            QQ.inv(a)


@pytest.mark.parametrize("p", [2, 5, 2 ** 64 - 59])
@given(a=st.integers(-(2 ** 70), 2 ** 70), b=st.integers(-(2 ** 70), 2 ** 70))
def test_prime_field_sub_is_the_difference_mod_p(p, a, b):
    field = GF(p)
    x, y = field.coerce(a), field.coerce(b)
    assert field.sub(x, y) == (a - b) % p == (x - y) % p


def test_rational_zero_and_one_are_shared_canonical_constants():
    assert QQ.zero() is QQ.zero() and QQ.one() is QQ.one()
    _canonical(QQ.zero(), Fraction(0))
    _canonical(QQ.one(), Fraction(1))


# -- binomials ---------------------------------------------------------------

def test_binom_examples():
    assert binom_multi((4,), (2,), GF(2)) == 0  # C(4,2) = 6 = 0 mod 2
    assert binom_multi((5, 1), (2, 1), GF(5)) == 0  # C(5,2) = 10 = 0 mod 5
    for field in FIELDS:
        assert binom_multi((7, 3, 9), (0, 0, 0), field) == field.one()
        assert binom_multi((2, 1), (3, 1), field) == field.zero()  # alpha > beta


def test_binom_multi_rejects_length_mismatch():
    with pytest.raises(LengthMismatch):
        binom_multi((1, 2), (1,), QQ)


def test_binom_rational_is_exact_integer_product():
    assert binom_multi((6, 4), (2, 1), QQ) == Fraction(math.comb(6, 2) * math.comb(4, 1))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lucas_matches_integer_reduction_exhaustively(p):
    # oracle: exact integer binomial, reduced mod p afterwards
    for top in range(13):
        for bot in range(top + 2):
            assert binom_mod_p(top, bot, p) == math.comb(top, bot) % p


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_binom_multi_mod_p_matches_integer_oracle(p, nvars):
    field = GF(p)

    def boxes(bound, length):
        out = [()]
        for _ in range(length):
            out = [e + (k,) for e in out for k in range(bound + 1)]
        return out

    betas = [b for b in boxes(12 if nvars == 1 else 6, nvars) if sum(b) <= 12]
    for beta in betas:
        for alpha in boxes(max(beta) if beta else 0, nvars):
            if any(a > b for a, b in zip(alpha, beta)):
                continue
            expect = 1
            for b, a in zip(beta, alpha):
                expect *= math.comb(b, a)
            assert binom_multi(beta, alpha, field) == expect % p


# -- text forms ---------------------------------------------------------------

def test_scalar_text_round_trip():
    assert GF(7).parse_scalar("12") == 5
    assert GF(7).format_scalar(5) == "5"
    assert QQ.parse_scalar("2/3") == Fraction(2, 3)
    assert QQ.parse_scalar("-7") == Fraction(-7)
    assert QQ.format_scalar(Fraction(4, 6)) == "2/3"


@pytest.mark.parametrize("text", ["3_0", "1e3", " 2 ", "2 ", "+3", "--1", "0x10", "", "1.5",
                                  "\u0663", "2/3", "2/-3", "/3", "2/"])
def test_scalar_grammar_over_gf_p(text):
    with pytest.raises(ValueError):
        GF(5).parse_scalar(text)


@pytest.mark.parametrize("text", ["3_0", "1e3", " 2 ", "+3", "--1", "1.5", "", "\u0663",
                                  "2/-3", "/3", "2/", "2/3/4", "2 /3", "1_0/3"])
def test_scalar_grammar_over_q(text):
    with pytest.raises(ValueError):
        QQ.parse_scalar(text)


def test_scalar_grammar_accepts_signed_integers_and_fractions():
    assert GF(5).parse_scalar("-7") == 3
    assert GF(5).parse_scalar("007") == 2
    assert QQ.parse_scalar("-6/4") == Fraction(-3, 2)
    assert QQ.parse_scalar("0") == Fraction(0)
    with pytest.raises(ZeroDivisionError):
        QQ.parse_scalar("1/0")


@given(st.from_regex(r"-?[0-9]+(/[0-9]+)?", fullmatch=True))
def test_q_scalars_parse_as_fraction_parses_their_text(text):
    try:
        expected = Fraction(text)
    except ZeroDivisionError as exc:
        with pytest.raises(ZeroDivisionError, match=re.escape(str(exc))):
            QQ.parse_scalar(text)
        return
    value = QQ.parse_scalar(text)
    assert type(value) is Fraction and value == expected
