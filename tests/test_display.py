"""Display formatting of exact values, inside and beyond float range."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sumeter.display import format_real, format_su, format_threshold, integer_text

finite_floats = st.floats(allow_nan=False, allow_infinity=False).filter(bool)


@given(finite_floats, st.sampled_from([700, -700]))
def test_beyond_float_range_prints_the_digits_a_float_would(number, shift):
    """x * 10**shift, beyond any float, prints x's six digits with the exponent moved by `shift`."""
    digits, exponent = f"{number:.5e}".split("e")
    lead, _, rest = digits.partition(".")
    rest = rest.rstrip("0")
    expected = f"{lead}{'.' if rest else ''}{rest}e{int(exponent) + shift:+03d}"
    value = Fraction(number) * Fraction(10) ** shift
    assert format_real(value) == expected
    if value.denominator != 1:
        assert format_su(value) == expected


@pytest.mark.parametrize(
    "value, text",
    [
        (Fraction(10**400), "1e+400"),
        (-Fraction(10**400), "-1e+400"),
        (Fraction(9999995, 10**6) * 10**400, "1e+401"),  # rounds up to the next power of ten
        (Fraction(1234565, 10**6) * 10**400, "1.23456e+400"),  # a half rounds to even
        (Fraction(1, 3 * 10**400), "3.33333e-401"),
    ],
)
def test_beyond_float_range_examples(value, text):
    assert format_real(value) == text


def test_threshold_beyond_float_range():
    assert format_threshold(Fraction(4 * 10**400, 3)) == f"{4 * 10**400 // 3}.33"
    assert format_threshold(Fraction(10**400 * 100 + 125, 100)) == f"{10**400 + 1}.25"
    assert format_threshold(Fraction(10**400 * 8 + 4, 8)) == f"{10**400}.5"
    assert format_threshold(Fraction(1, 10**400)) == "0"


@given(finite_floats)
def test_values_a_float_holds_print_as_before(number):
    value = Fraction(number)
    assert format_real(value) == f"{number:.6g}"
    assert format_threshold(value) == f"{number:.2f}".rstrip("0").rstrip(".")
    if value.denominator != 1:
        assert format_su(value) == f"{number:,.6g}"


@given(st.integers(-(10**30), 10**30))
def test_integers_print_as_str_and_format_do(number):
    assert integer_text(number) == str(number)
    assert integer_text(number, grouped=True) == f"{number:,}" == format_su(number)


@pytest.mark.parametrize(
    "number", [10**1000 - 1, 10**1000, 10**1000 + 7, -(10**2000) - 1, 10**3000 + 10**1000 + 1, 123 * 10**4000]
)
def test_integers_across_digit_chunks(number):
    assert integer_text(number) == str(number)
    assert integer_text(number, grouped=True) == f"{number:,}"


def test_integers_past_the_str_digit_limit_print_every_digit():
    huge = 36 * 10**4500  # str() refuses it: more than 4,300 digits
    assert integer_text(huge) == "36" + "0" * 4500
    grouped = format_su(huge)
    assert grouped == "36" + ",000" * 1500
    assert format_su(-huge) == "-" + grouped
    assert format_threshold(Fraction(10**5000) + Fraction(1, 4)) == "1" + "0" * 5000 + ".25"
