"""Coefficient fields: the primality test behind PrimeField.

Miller-Rabin is checked against trial division on small orders, on a large
Mersenne prime, and on strong pseudoprimes to the first four and to the first
twelve prime bases.  Literal parsing turns every bad literal, a zero
denominator included, into InputError on both fields.
"""

import time

import pytest

from quiverhom import QQ, InputError, PrimeField
from quiverhom.fields import _is_prime


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


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("text", ["1/0", "0/0", "x"])
def test_bad_literal_is_input_error(field, text):
    with pytest.raises(InputError):
        field.parse(text)


def test_denominator_divisible_by_p_is_input_error():
    with pytest.raises(InputError):
        PrimeField(5).parse("1/5")
    assert PrimeField(5).parse("3/2") == 4
