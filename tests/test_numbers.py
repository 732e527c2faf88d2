from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rnskit.numbers import (
    NotCoprimeError,
    ceil_nth_root,
    coprime_to_all,
    mod_inverse,
    parse_decimal,
)

from helpers import bisection_ceil_root


# --- ceil_nth_root ------------------------------------------------------------


def naive_power(r: int, n: int) -> int:
    out = 1
    for _ in range(n):
        out *= r
    return out


def test_root_32bit_cube():
    assert ceil_nth_root(2**32 - 1, 3) == 1626


def test_root_32bit_fifth():
    assert ceil_nth_root(2**32 - 1, 5) == 85


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_root_of_one(n):
    assert ceil_nth_root(1, n) == 1


def test_root_near_exact_power():
    # 15**4 = 50625 < 65535 <= 16**4 = 65536, so the ceiling is 16
    assert naive_power(15, 4) < 65535 <= naive_power(16, 4)
    assert ceil_nth_root(65535, 4) == 16
    assert ceil_nth_root(65536, 4) == 16
    assert ceil_nth_root(65537, 4) == 17


def test_root_rejects_bad_domain():
    with pytest.raises(ValueError):
        ceil_nth_root(0, 3)
    with pytest.raises(ValueError):
        ceil_nth_root(5, 0)
    # a start below 1, one whose n-th power is positive anyway (even n), one
    # whose n-th power falls short of v, a short one at n = 1, one just short
    # of a root at the generator's widths, and one just short of a square root
    wide = 2**2048 - 1
    short = [(wide, 24, bisection_ceil_root(wide, 24) - 1), (10**1000, 2, 10**500 - 1)]
    for v, n, start in [(5, 3, 0), (16, 4, -3), (65537, 4, 16), (6, 1, 5)] + short:
        with pytest.raises(ValueError, match=r"^ceil_nth_root start must be >= 1 with start\*\*n >= v, got -?\d+$"):
            ceil_nth_root(v, n, start=start)


# v up to 10**6 as before, or of a width drawn uniformly from 1 to 8192 bits
root_values = st.one_of(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=8192).flatmap(
        lambda width: st.integers(min_value=1 << (width - 1), max_value=(1 << width) - 1)
    ),
)
WIDE_POWERS = [
    (2**683 - 1, 3), (3**40, 64), (2**128 - 1, 64), (10**500 + 7, 2),
    # wide roots at the generator's cardinalities, up to 24, and 2**128 for
    # (2**8192 - 1, 64), the widest request, where Newton starts at the root
    (2**86 - 1, 24), (3**54 + 2, 17), (10**40 + 1, 8), (2**400 + 3, 5), (2**128, 64),
    # n divides the bit length of r**n - 1, where the chord start is the root itself
    (2**86, 24), (2**683, 3),
]


def at_powers(**extra):
    """@example at r**n - 1, r**n and r**n + 1 for each wide (r, n), with `extra` arguments."""

    def decorate(test):
        for r, n in WIDE_POWERS:
            for delta in (-1, 0, 1):
                test = example(v=r**n + delta, n=n, **extra)(test)
        return test

    return decorate


@at_powers()
@given(v=root_values, n=st.integers(min_value=1, max_value=64))
@settings(max_examples=400)
def test_root_bracket_property(v, n):
    r = ceil_nth_root(v, n)
    assert naive_power(r, n) >= v
    assert r == 1 or naive_power(r - 1, n) < v


# no start, a start at the root or a little above it, or one far enough
# above to lie past the chord bound, where Newton starts without one
start_offsets = st.one_of(
    st.none(), st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2**80)
)


@at_powers(above=None)
@at_powers(above=0)
@at_powers(above=1)
@given(v=root_values, n=st.integers(min_value=1, max_value=64), above=start_offsets)
@settings(max_examples=200)
def test_root_matches_bisection(v, n, above):
    expected = bisection_ceil_root(v, n)
    start = None if above is None else expected + above
    assert ceil_nth_root(v, n, start=start) == expected


def test_root_matches_bisection_on_every_small_value():
    for n in range(1, 13):
        for v in range(1, 3000):
            assert ceil_nth_root(v, n) == bisection_ceil_root(v, n), (v, n)


# --- mod_inverse ----------------------------------------------------------------


def scan_inverse(a: int, m: int) -> int:
    """Independent oracle: linear scan for the inverse."""
    for y in range(1, m):
        if (a * y) % m == 1:
            return y
    raise AssertionError(f"no inverse of {a} mod {m}")


def test_inverse_small_case():
    assert scan_inverse(3, 7) == 5
    assert mod_inverse(3, 7) == 5


@pytest.mark.parametrize("m", [2, 7, 504, 65537])
def test_inverse_of_one(m):
    assert mod_inverse(1, m) == 1


def test_inverse_rejects_non_coprime():
    with pytest.raises(NotCoprimeError):
        mod_inverse(4, 8)


def test_inverse_rejects_tiny_modulus():
    with pytest.raises(ValueError):
        mod_inverse(3, 1)


@given(
    a=st.integers(min_value=1, max_value=2**32),
    m=st.integers(min_value=2, max_value=2**32),
)
def test_inverse_law(a, m):
    if gcd(a % m, m) != 1:
        with pytest.raises(NotCoprimeError):
            mod_inverse(a, m)
    else:
        y = mod_inverse(a, m)
        assert 1 <= y < m
        assert (a * y) % m == 1


# --- coprime_to_all -------------------------------------------------------------


def test_coprime_to_all_cases():
    assert coprime_to_all(259, [256, 257, 255])
    assert not coprime_to_all(258, [256, 257, 255])
    assert coprime_to_all(1, [2, 4, 6, 9])
    assert coprime_to_all(5, [])


# --- parse_decimal --------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [("0", 0), ("36", 36), ("007", 7), ("-5", -5), ("-0", 0), ("9" * 40, int("9" * 40))],
)
def test_parse_decimal_accepts_ascii_decimals(text, expected):
    assert parse_decimal(text) == expected


@pytest.mark.parametrize(
    "text",
    ["", "-", "+5", " 5", "5 ", "5\n", "1_000", "abc", "0x10", "--5", "5-", "\u00b2", "\u0663", "\uff15", "1.0"],
)
def test_parse_decimal_rejects_everything_else(text):
    assert parse_decimal(text) is None


def test_parse_decimal_rejects_text_past_the_digit_limit():
    assert parse_decimal("1" * 5000) is None
