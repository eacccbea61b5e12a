"""Display-only rounding and formatting. The engine itself stays exact.

Values a float holds are formatted through `float`. A value beyond float
range, or a nonzero value that would underflow to zero, is rounded from
its numerator and denominator instead, to the same text `float` would give
if its range were wide enough. Integers are printed digit for digit at any
size through `integer_text`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import RealLike, exact


# `str` refuses integers past 4,300 digits, so longer ones are cut into chunks first.
_DIGIT_CHUNK = 10**1000


def round_half_up(value: RealLike) -> int:
    """Nearest integer, halves up; how node-hour weights are displayed."""
    return int(math.floor(exact(value) + Fraction(1, 2)))


def integer_text(value: int, grouped: bool = False) -> str:
    """All the decimal digits of `value`, with thousands separators when `grouped`."""
    magnitude, chunks = abs(value), []
    while magnitude >= _DIGIT_CHUNK:
        magnitude, chunk = divmod(magnitude, _DIGIT_CHUNK)
        chunks.append(f"{chunk:01000d}")
    digits = str(magnitude) + "".join(reversed(chunks))
    if grouped:
        head = len(digits) % 3 or 3
        digits = ",".join([digits[:head], *(digits[i : i + 3] for i in range(head, len(digits), 3))])
    return "-" * (value < 0) + digits


def as_float(value: Fraction) -> float | None:
    """`value` as a float, or None when no float holds it (too large, or too small but nonzero)."""
    try:
        result = float(value)
    except OverflowError:
        return None
    return result if result or not value else None


def _scientific(value: Fraction, digits: int) -> str:
    """`value` (beyond float range) as `format(float, f".{digits}g")` would print it."""
    sign = "-" if value < 0 else ""
    value = abs(value)
    # log10(2) ~ 0.30103; the estimate is off by at most one either way
    exponent = math.floor((value.numerator.bit_length() - value.denominator.bit_length()) * 0.30103)
    while value >= Fraction(10) ** (exponent + 1):
        exponent += 1
    while value < Fraction(10) ** exponent:
        exponent -= 1
    mantissa = round(value / Fraction(10) ** (exponent - digits + 1))  # halves to even, as float formatting
    if mantissa == 10**digits:
        mantissa, exponent = mantissa // 10, exponent + 1
    lead, rest = str(mantissa)[0], str(mantissa)[1:].rstrip("0")
    return f"{sign}{lead}{'.' if rest else ''}{rest}e{exponent:+03d}"


def format_su(value: RealLike) -> str:
    """Service units for humans: thousands separators, 6 significant digits."""
    quantity = exact(value)
    if quantity.denominator == 1:
        return integer_text(quantity.numerator, grouped=True)
    number = as_float(quantity)
    return _scientific(quantity, 6) if number is None else f"{number:,.6g}"


def format_real(value: RealLike) -> str:
    """Machine-readable real: dot-decimal, 6 significant digits."""
    quantity = exact(value)
    number = as_float(quantity)
    return _scientific(quantity, 6) if number is None else f"{number:.6g}"


def format_threshold(value: RealLike) -> str:
    """A speedup threshold at two decimals, trailing zeros trimmed."""
    quantity = exact(value)
    number = as_float(quantity)
    if number is None:
        hundredths = round(quantity * 100)  # halves to even, as float formatting
        sign = "-" if hundredths < 0 else ""
        whole, cents = divmod(abs(hundredths), 100)
        text = f"{sign}{integer_text(whole)}.{cents:02d}"
    else:
        text = f"{number:.2f}"
    return text.rstrip("0").rstrip(".")
