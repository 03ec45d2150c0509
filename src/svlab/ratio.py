"""Exact ratios of two integers: the test of one and its text.

The kernels carry a rational as an integer numerator over a positive
denominator, a record that stores one tests it with ``is_ratio``, and
a note, a refusal or a report line prints it through ``ratio_text``.
A leaf module: the klt command prints with it without loading the
lattice.
"""

from math import gcd


def is_ratio(value) -> bool:
    """Whether ``value`` is a reduced ``(numerator, denominator)`` pair
    of ints with a positive denominator."""
    return (
        type(value) is tuple and len(value) == 2
        and type(value[0]) is int and type(value[1]) is int
        and value[1] > 0 and gcd(*value) == 1
    )


def ratio_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` of ints with ``den != 0``: the
    reduced numerator, then "/" and the positive denominator unless it
    is 1."""
    common = gcd(num, den)
    if den < 0:
        common = -common
    if common != 1:  # most ratios printed are already in lowest terms
        num, den = num // common, den // common
    return f"{num}/{den}" if den != 1 else str(num)
