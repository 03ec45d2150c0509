"""The text of an exact ratio of two integers.

The kernels carry a rational as an integer numerator over a positive
denominator, and a note, a refusal or a report line prints it through
``ratio_text``, so none of them builds a ``fractions.Fraction`` to
print one.  A leaf module: the klt command prints with it without
loading the lattice.
"""

from math import gcd


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
