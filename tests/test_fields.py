"""Coefficient fields: the primality test behind PrimeField, and the contract.

Miller-Rabin is checked against trial division on small orders, on a large
Mersenne prime, and on strong pseudoprimes to the first four and to the first
twelve prime bases.  Literal parsing turns every bad literal, a zero
denominator, a decimal and one past the digit budget included, into
InputError on both fields, with the workspace parser's messages, and so does a
coefficient that is neither an int nor a Fraction.  Every value a field hands
out is canonical: zero is its only falsy value, and GF(p) stays in [0, p).
"""

import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiverhom import QQ, IdealSpec, InputError, PrimeField, Quiver, build_algebra, field_from_descriptor
from quiverhom.fields import _is_prime

FIELDS = [QQ, PrimeField(5), PrimeField(2**31 - 1)]
FIELD_IDS = ["QQ", "GF5", "GF2^31-1"]


def _trial_division(p):
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def test_miller_rabin_matches_trial_division_on_small_orders():
    assert [p for p in range(-3, 5000) if _is_prime(p)] == [
        p for p in range(-3, 5000) if _trial_division(p)
    ]


def test_large_mersenne_prime_is_accepted_quickly():
    start = time.perf_counter()
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - start < 1.0


def test_strong_pseudoprime_is_rejected():
    # 3215031751 = 151 * 751 * 28351 passes bases 2, 3, 5 and 7
    assert 151 * 751 * 28351 == 3215031751
    with pytest.raises(InputError, match="not prime"):
        PrimeField(3215031751)


def test_strong_pseudoprime_to_the_first_twelve_prime_bases_is_rejected():
    # psi_12: a strong pseudoprime to every base from 2 to 37, below 3.3e24
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    with pytest.raises(InputError, match="not prime"):
        PrimeField(n)


def test_order_past_the_deterministic_bound_is_input_error():
    with pytest.raises(InputError, match="too large"):
        PrimeField(33 * 10**23 + 1)


@pytest.mark.parametrize("order", [7.0, 2.5, "7", None], ids=repr)
def test_order_that_is_not_an_int_is_input_error(order):
    # PrimeField(7.0) used to be GF(7.0), handing out floats; the rest raised TypeError
    with pytest.raises(InputError, match=re.escape(f"field order {order!r} is not an int")):
        PrimeField(order)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("text", ["1/0", "0/0", "x"])
def test_bad_literal_is_input_error(field, text):
    with pytest.raises(InputError):
        field.parse(text)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_parse_refuses_what_the_workspace_parser_refuses_at_once(field):
    # Fraction would read 0.5 as 1/2 and expand 1e999999999 in full
    past = "1" * 101
    for text, message in (
        ("0.5", "decimal literal '0.5'; use an integer or fraction"),
        ("1e999999999", "decimal literal '1e999999999'; use an integer or fraction"),
        (f"{past}/3", f"numeric literal {f'{past}/3'[:40]!r}... (103 characters) has over 100 digits"),
    ):
        start = time.perf_counter()
        with pytest.raises(InputError) as exc:
            field.parse(text)
        assert time.perf_counter() - start < 0.1
        assert str(exc.value) == message
    # the literal at the budget is read
    assert field.parse("9" * 100) == field.of(int("9" * 100))


def test_denominator_divisible_by_p_is_input_error():
    with pytest.raises(InputError):
        PrimeField(5).parse("1/5")
    assert PrimeField(5).parse("3/2") == 4


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_zero_and_one_are_the_ints(field):
    assert type(field.zero) is int and field.zero == 0
    assert type(field.one) is int and field.one == 1


# small ints hit multiples of 5 and fractions hit denominators divisible by 5
exact = st.one_of(
    st.integers(-12, 12),
    st.integers(-(2**40), 2**40),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(FIELDS), exact, exact)
def test_every_value_handed_out_is_canonical(field, x, y):
    try:
        a, b = field.of(x), field.of(y)
    except InputError:
        # a denominator divisible by p has no image in GF(p)
        assert isinstance(field, PrimeField)
        return
    assert field.parse(str(x)) == a
    for v in (a, b, field.add(a, b), field.sub(a, b), field.mul(a, b), field.neg(a)):
        assert bool(v) == (v != 0)
        if isinstance(field, PrimeField):
            assert type(v) is int and 0 <= v < field.p
    # ints and Fractions are both canonical in QQ, so QQ keeps each as it is
    assert QQ.of(x) == x and type(QQ.of(x)) is type(x)


def test_qq_keeps_ints_and_fractions_and_makes_a_bool_a_fraction():
    big, half = 2**70, Fraction(1, 2)
    assert QQ.of(big) is big and QQ.of(half) is half
    for flag in (True, False):
        assert type(QQ.of(flag)) is Fraction and QQ.of(flag) == int(flag)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("x", [2.7, 0.5, 0.1, 1.0, "1", None, 1j], ids=repr)
def test_of_refuses_anything_but_ints_and_fractions(field, x):
    # PrimeField(5).of(2.7) used to truncate to 2, and QQ.of(0.1) took the binary float
    with pytest.raises(InputError, match="not an int or a Fraction"):
        field.of(x)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_float_relation_coefficient_is_input_error(field):
    # over GF(5), 0.5 used to become 0 and turn ab + 0.5 cb into the monomial ab
    q = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "2")])
    ideal = IdealSpec((((1, ("a", "b")), (0.5, ("c", "b"))),), 3)
    with pytest.raises(InputError, match="0.5 is not an int or a Fraction"):
        build_algebra(q, ideal, field)
    half = IdealSpec((((1, ("a", "b")), (Fraction(1, 2), ("c", "b"))),), 3)
    assert build_algebra(q, half, field).dim == 7


@pytest.mark.parametrize(
    "desc, message",
    [
        ("p:x", "bad field descriptor 'p:x'"),
        ("p:", "bad field descriptor 'p:'"),
        ("z", "bad field descriptor 'z' (expected 'q' or 'p:<prime>')"),
        ("", "bad field descriptor '' (expected 'q' or 'p:<prime>')"),
    ],
)
def test_a_bad_field_descriptor_is_named(desc, message):
    with pytest.raises(InputError) as caught:
        field_from_descriptor(desc)
    assert type(caught.value) is InputError and str(caught.value) == message
    assert field_from_descriptor(" QQ ") is QQ and field_from_descriptor("p:7") == PrimeField(7)
