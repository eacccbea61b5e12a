"""Display-only rounding and formatting. The engine itself stays exact.

Every number is printed from its numerator and denominator. Machine output
prints it exactly through `exact_text`. Human text rounds the exact value,
halves to even, to the text a `format` spec would give if floats were exact
and of unbounded range. Integers are printed digit for digit at any size
through `integer_text`.
"""

from __future__ import annotations

import math
from fractions import Fraction


# `str` refuses integers past 4,300 digits, so longer ones are cut into chunks first.
_DIGIT_CHUNK = 10**1000


def round_half_up(value: int | Fraction) -> int:
    """Nearest integer, halves up; how node-hour weights are displayed."""
    return int(math.floor(Fraction(value) + Fraction(1, 2)))


def integer_text(value: int, grouped: bool = False) -> str:
    """All the decimal digits of `value`, with thousands separators when `grouped`."""
    if not grouped and type(value) is int and -_DIGIT_CHUNK < value < _DIGIT_CHUNK:
        return str(value)
    magnitude, chunks = abs(value), []
    while magnitude >= _DIGIT_CHUNK:
        magnitude, chunk = divmod(magnitude, _DIGIT_CHUNK)
        chunks.append(f"{chunk:01000d}")
    digits = str(magnitude) + "".join(reversed(chunks))
    if grouped:
        head = len(digits) % 3 or 3
        digits = ",".join([digits[:head], *(digits[i : i + 3] for i in range(head, len(digits), 3))])
    return "-" * (value < 0) + digits


def _point(sign: str, units: int, places: int, grouped: bool = False) -> str:
    """`sign`, then the nonnegative `units` / 10**places with `places` decimals."""
    whole, decimals = divmod(units, 10**places)
    text = sign + integer_text(whole, grouped)
    return f"{text}.{integer_text(decimals).rjust(places, '0')}" if places else text


def exact_text(value: int | Fraction) -> str:
    """`value` exactly: an integer, a terminating decimal or `p/q`, each of which `Fraction` reads back."""
    return _ratio_text(*value.as_integer_ratio())


def _ratio_text(numerator: int, denominator: int) -> str:
    """`exact_text` of numerator / denominator, a reduced pair with a positive denominator."""
    twos = (denominator & -denominator).bit_length() - 1
    fives, rest = 0, denominator >> twos
    while rest % 5 == 0:
        fives, rest = fives + 1, rest // 5
    if rest > 1:  # no power of ten is a multiple of the denominator
        return f"{integer_text(numerator)}/{integer_text(denominator)}"
    places = max(twos, fives)
    return _point("-" * (numerator < 0), abs(numerator) * 10**places // denominator, places)


def _general(value: Fraction, digits: int, grouped: bool = False) -> str:
    """`value` to `digits` significant digits, halves to even, in the layout of `format`'s `g`."""
    sign, value = "-" * (value < 0), abs(value)
    if not value:
        return "0"
    # log10(2) ~ 0.30103; the estimate is off by at most one either way
    exponent = math.floor((value.numerator.bit_length() - value.denominator.bit_length()) * 0.30103)
    while value >= Fraction(10) ** (exponent + 1):
        exponent += 1
    while value < Fraction(10) ** exponent:
        exponent -= 1
    mantissa = round(value / Fraction(10) ** (exponent - digits + 1))  # halves to even
    if mantissa == 10**digits:
        mantissa, exponent = mantissa // 10, exponent + 1
    fixed = -4 <= exponent < digits
    places = digits - 1 - exponent if fixed else digits - 1
    while places and mantissa % 10 == 0:  # `g` drops trailing zeros
        mantissa, places = mantissa // 10, places - 1
    text = _point(sign, mantissa, places, grouped)
    return text if fixed else f"{text}e{exponent:+03d}"


def format_su(value: int | Fraction) -> str:
    """Service units for humans: thousands separators, 6 significant digits, an integer in full
    (`g` prints it so at a precision of at least its digit count)."""
    quantity = Fraction(value)
    digits = 6 if quantity.denominator > 1 else max(6, quantity.numerator.bit_length() // 3 + 1)
    return _general(quantity, digits, grouped=True)


def format_real(value: int | Fraction) -> str:
    """A real for humans: dot-decimal, 6 significant digits."""
    return _general(Fraction(value), 6)


def format_fixed(value: int | Fraction, places: int, plus: str = "") -> str:
    """`value` at `places` decimals, halves to even; `plus` is the sign of a nonnegative value."""
    return _point("-" * (value < 0) or plus, round(abs(Fraction(value)) * 10**places), places)


def format_threshold(value: int | Fraction) -> str:
    """A speedup threshold at two decimals, trailing zeros trimmed."""
    return format_fixed(value, 2).rstrip("0").rstrip(".")
