"""Display formatting of exact values, inside and beyond float range."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from sumeter.display import exact_text, format_fixed, format_real, format_su, format_threshold, integer_text

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sumeter"

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
    assert format_fixed(value, 4, "+") == f"{number:+.4f}"
    if value.denominator != 1:
        assert format_su(value) == f"{number:,.6g}"


@given(st.integers(-(10**30), 10**30))
def test_integers_print_as_str_and_format_do(number):
    assert integer_text(number) == str(number)
    assert integer_text(number, grouped=True) == f"{number:,}" == format_su(number)


@pytest.mark.parametrize(
    "number",
    [10**1000 - 1, 10**1000, 10**1000 + 7, 1 - 10**1000, -(10**1000), -(10**2000) - 1, 10**3000 + 10**1000 + 1,
     123 * 10**4000],
)
def test_integers_across_digit_chunks(number):
    assert integer_text(number) == str(number)
    assert integer_text(number, grouped=True) == f"{number:,}"


def test_a_bool_prints_as_its_integer():
    assert (integer_text(True), integer_text(False, grouped=True)) == ("1", "0")


def test_integers_past_the_str_digit_limit_print_every_digit():
    huge = 36 * 10**4500  # str() refuses it: more than 4,300 digits
    assert integer_text(huge) == "36" + "0" * 4500
    grouped = format_su(huge)
    assert grouped == "36" + ",000" * 1500
    assert format_su(-huge) == "-" + grouped
    assert format_threshold(Fraction(10**5000) + Fraction(1, 4)) == "1" + "0" * 5000 + ".25"


def test_display_is_a_leaf_module_and_no_function_imports():
    """`display` imports nothing from the package, so every module imports at its top."""
    for path in sorted(PACKAGE.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                imports = [node for node in ast.walk(function) if isinstance(node, (ast.Import, ast.ImportFrom))]
                assert not imports, f"{path.name}: an import inside a function at line {imports[0].lineno}"
    display = ast.parse((PACKAGE / "display.py").read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(display) if isinstance(node, ast.ImportFrom) and node.level > 0]


# exact values, inside and beyond float range, terminating or not
exact_values = (
    st.fractions()
    | st.builds(Fraction, st.integers(-(10**500), 10**500), st.integers(1, 10**500))
    | st.builds(lambda n, a, b: Fraction(n, 2**a * 5**b), st.integers(-(10**20), 10**20), st.integers(0, 2000), st.integers(0, 2000))
)


@given(exact_values)
def test_exact_text_reads_back_as_the_value(value):
    text = exact_text(value)
    assert Fraction(text) == value
    assert "e" not in text and "," not in text


@pytest.mark.parametrize(
    "value, text",
    [
        (Fraction(36018000), "36018000"),
        (Fraction(-7, 8), "-0.875"),
        (Fraction(1, 10**400), "0." + "0" * 399 + "1"),
        (Fraction(1, 3), "1/3"),
        (Fraction(-10**400, 3), f"-{10**400}/3"),
        (Fraction(7, 30), "7/30"),
    ],
)
def test_exact_text_examples(value, text):
    assert exact_text(value) == text


def test_human_text_rounds_the_exact_value():
    """A tie at the last printed digit rounds to even, wherever the nearest float lies."""
    assert (format_real(Fraction("1.000005")), f"{1.000005:.6g}") == ("1", "1.00001")
    assert (format_real(Fraction("1.000055")), f"{1.000055:.6g}") == ("1.00006", "1.00005")
    assert (format_su(Fraction("100.0015")), f"{100.0015:,.6g}") == ("100.002", "100.001")
    assert (format_threshold(Fraction("1.015")), f"{1.015:.2f}") == ("1.02", "1.01")
    assert (format_fixed(Fraction("1.00005"), 4, "+"), f"{1.00005:+.4f}") == ("+1.0000", "+1.0001")


def test_display_has_no_float_path():
    source = (PACKAGE / "display.py").read_text(encoding="utf-8")
    assert "float(" not in source and "as_float" not in source
