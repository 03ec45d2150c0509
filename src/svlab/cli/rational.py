"""Exact rationals in documents, and the classes and boundaries built
from them.

A rational travels as a "num/den" string (or a bare integer string) of
ASCII digits; a decimal literal is refused outright.  ``parse_rational``
reads one, ``_coeffs`` a class's coefficients and ``_boundary_entry``
one boundary entry; ``_class_on`` and ``_boundary_on`` put what they
read on a model once it is built.

Only the readers that take rationals import this module: those of
classify, klt, sweep and verify, and the package writer behind
``construct --emit``.  A tango request loads no ``fractions``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import TYPE_CHECKING

from .schema import SchemaError, _list_of, _object

if TYPE_CHECKING:
    from ..lattice import DivisorClass, RuledModel

_RATIONAL = re.compile(r"-?[0-9]+(?:/[1-9][0-9]*)?")


def parse_rational(value) -> Fraction:
    if type(value) is not str or not _RATIONAL.fullmatch(value):
        raise SchemaError(
            f"expected an exact rational like \"3\" or \"-9/2\","
            f" got {value!r}", [],
        )
    num, _, den = value.partition("/")
    return Fraction(int(num), int(den) if den else 1)


_coeffs = _list_of(parse_rational)


def _class_on(model: RuledModel, coeffs, where) -> DivisorClass:
    if len(coeffs) != model.rank:
        raise SchemaError(
            f"{where}: expected {model.rank} coefficients,"
            f" got {len(coeffs)}"
        )
    return model.divisor(*coeffs)


_BOUNDARY_ENTRY = {"class": _coeffs, "coefficient": parse_rational}


def _boundary_entry(value):
    return _object(value, _BOUNDARY_ENTRY)


def _boundary_on(model: RuledModel, entries, where) -> tuple:
    """The (class, coefficient) pairs of parsed boundary entries."""
    return tuple(
        (_class_on(model, entry["class"], where), entry["coefficient"])
        for entry in entries
    )
