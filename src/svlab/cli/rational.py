"""Exact rationals in documents, and the classes and boundaries built
from them.

A rational travels as a "num/den" string (or a bare integer string) of
ASCII digits; a decimal literal is refused outright.  ``parse_ratio``
reads one as its reduced numerator and positive denominator, and every
reader keeps that pair: ``_coeffs`` reads a class's coefficients and
``_BOUNDARY_ENTRY`` is the key table of one boundary entry, and
``_class_on`` and ``_boundary_on`` put what they read on a model once
it is built.

Only the readers that take rationals import this module: those of
classify, klt, sweep and verify, and the package writer behind
``construct --emit``.  It imports no lattice, so a klt request loads
none.  A tango request does not load this module at all.
"""

from __future__ import annotations

import re
from math import gcd

from .schema import SchemaError, _list_of

TYPE_CHECKING = False
if TYPE_CHECKING:
    from ..lattice import DivisorClass, RuledModel

_RATIONAL = re.compile(r"-?[0-9]+(?:/[1-9][0-9]*)?")


def parse_ratio(value) -> tuple[int, int]:
    """The rational text ``value`` as its numerator and denominator, in
    lowest terms with a positive denominator."""
    if type(value) is not str or not _RATIONAL.fullmatch(value):
        raise SchemaError(
            f"expected an exact rational like \"3\" or \"-9/2\","
            f" got {value!r}", [],
        )
    num, _, den = value.partition("/")
    if not den:
        return int(num), 1
    num, den = int(num), int(den)
    common = gcd(num, den)
    return num // common, den // common


_coeffs = _list_of(parse_ratio)


def _class_on(model: RuledModel, coeffs, where) -> DivisorClass:
    if len(coeffs) != model.rank:
        raise SchemaError(
            f"{where}: expected {model.rank} coefficients,"
            f" got {len(coeffs)}"
        )
    return model.class_of(coeffs)


_BOUNDARY_ENTRY = {"class": _coeffs, "coefficient": parse_ratio}


def _boundary_on(model: RuledModel, entries, where) -> tuple:
    """The (class, coefficient pair) pairs of parsed boundary entries."""
    return tuple(
        (_class_on(model, entry["class"], where), entry["coefficient"])
        for entry in entries
    )
