"""Display formatting of exact values, inside and beyond float range."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sumeter.display import format_real, format_su, format_threshold

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
