"""Strict document schema: versioned key-value trees with exact rationals.

Documents are JSON with a fixed vocabulary.  Validation is closed:
every object lists its admissible keys and anything else is rejected,
so a typo never silently changes meaning.  Rationals travel as
"num/den" strings (or bare integer strings) of ASCII digits; decimal
literals are refused outright.

``load_document`` checks the format and the request name, and ``_top``
is the one envelope check: each request kind's reader passes its
document through it, which refuses a document of another kind and
reads format, request and the kind's own top-level keys.

This module keeps what several document kinds share: the envelope, the
converters, the caps, the pure model and boundary readers, and the
family readers of the tango, construct and verify documents.  Each
other kind's reader is a module of its own, which imports the layer it
builds: ``cli/scenario`` (classify), ``cli/arrangement`` (klt),
``cli/sweep`` (sweep) and ``cli/package`` (verify and
``construct --emit``).  This module binds their public functions
lazily, so a command compiles only its own reader and callers still
reach every reader as ``schema.<name>``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import TYPE_CHECKING

from ..lazy import lazy_getattr
from .report import FORMAT_VERSION

if TYPE_CHECKING:
    from ..lattice import DivisorClass, RuledModel

# each name resolves on first access, and is read through the module so
# that a rebinding of it takes effect
__getattr__ = lazy_getattr(globals(), {
    "certify_tango": "..charpcurve.families",
    "scenario_from_document": ".scenario",
    "arrangement_from_document": ".arrangement",
    "sweep_from_document": ".sweep",
    **{name: ".package" for name in (
        "package_to_document", "package_from_document", "dumps_canonical",
    )},
})

REQUESTS = ("classify", "klt", "tango", "construct", "verify-package",
            "sweep")

_RATIONAL = re.compile(r"-?[0-9]+(?:/[1-9][0-9]*)?")


class SchemaError(ValueError):
    """The document does not match the published schema."""


def parse_rational(value, where: str) -> Fraction:
    if not isinstance(value, str) or not _RATIONAL.fullmatch(value):
        raise SchemaError(
            f"{where}: expected an exact rational like \"3\" or \"-9/2\","
            f" got {value!r}"
        )
    num, _, den = value.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def fmt_rational(q) -> str:
    return str(Fraction(q))


def _object(data, where: str, required: dict, optional: dict = {}):
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected an object")
    if not data.keys() <= required.keys() | optional.keys():
        unknown = data.keys() - required.keys() - optional.keys()
        raise SchemaError(
            f"{where}: unknown keys {sorted(unknown)}; this schema is strict"
        )
    out = {}
    for key, convert in required.items():
        if key not in data:
            raise SchemaError(f"{where}: missing key {key!r}")
        out[key] = convert(data[key], f"{where}.{key}")
    for key, (convert, default) in optional.items():
        if key in data:
            out[key] = convert(data[key], f"{where}.{key}")
        else:
            out[key] = default
    return out


def _int(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: expected an integer")
    return value


# Primality is settled by trial division, so the cap keeps a huge p from
# hanging the tool; "small characteristic" is the toolkit's whole domain.
MAX_CHARACTERISTIC = 2 ** 16
# Certifying a curve expands series to precision 4g + 2p: genus 20,000
# takes about 2 s, and the cost grows faster than linearly beyond it.
MAX_GENUS = 20_000
# Every entry of a sweep box is held in memory and printed on its own line.
MAX_SWEEP_ENTRIES = 100_000


def characteristic(value, where):
    p = _int(value, where)
    if p >= MAX_CHARACTERISTIC:
        raise SchemaError(
            f"{where}: expected a characteristic below {MAX_CHARACTERISTIC}"
        )
    return p


def _bool(value, where):
    if not isinstance(value, bool):
        raise SchemaError(f"{where}: expected true or false")
    return value


def _string(value, where):
    if not isinstance(value, str):
        raise SchemaError(f"{where}: expected a string")
    return value


def _nullable(convert):
    """``convert`` with None passed through, for a reader (value, where)
    or a writer (value)."""
    def inner(value, *where):
        return None if value is None else convert(value, *where)
    return inner


def _array(value, where):
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected an array")
    return value


def _list_of(convert):
    def inner(value, where):
        return [convert(v, f"{where}[{i}]")
                for i, v in enumerate(_array(value, where))]
    return inner


_coeffs = _list_of(parse_rational)


def load_document(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as ex:
        raise SchemaError(f"not valid JSON: {ex}") from None
    except RecursionError:
        raise SchemaError(
            "not readable JSON: nested deeper than the decoder's limit"
        ) from None
    if not isinstance(data, dict):
        raise SchemaError("top level: expected an object")
    fmt = data.get("format")
    if fmt != FORMAT_VERSION:
        raise SchemaError(
            f"format: expected {FORMAT_VERSION!r}, got {fmt!r}"
        )
    request = data.get("request")
    if request not in REQUESTS:
        raise SchemaError(
            f"request: expected one of {', '.join(REQUESTS)}, got {request!r}"
        )
    return data


def _top(data: dict, request: str, keys: dict, optional: dict = {}):
    """The top-level keys of a ``request`` document that
    ``load_document`` returned: format, request, then ``keys``."""
    if data["request"] != request:
        raise SchemaError(
            f"document is a {data['request']} request, not {request}"
        )
    return _object(data, "document", {
        "format": _string, "request": _string, **keys,
    }, optional)


_PURE_MODEL = {"p": characteristic, "genus": _int, "e": _int}


def _pure_model(value, where):
    """The p, genus, e of a ruled model with no blow-ups."""
    return _object(value, where, _PURE_MODEL)


def _class_on(model: RuledModel, coeffs, where) -> DivisorClass:
    if len(coeffs) != model.rank:
        raise SchemaError(
            f"{where}: expected {model.rank} coefficients,"
            f" got {len(coeffs)}"
        )
    return model.divisor(*coeffs)


_BOUNDARY_ENTRY = {"class": _coeffs, "coefficient": parse_rational}


def _boundary_entry(value, where):
    return _object(value, where, _BOUNDARY_ENTRY)


def _boundary_on(model: RuledModel, entries, where) -> tuple:
    """The (class, coefficient) pairs of parsed boundary entries."""
    return tuple(
        (_class_on(model, entry["class"], where), entry["coefficient"])
        for entry in entries
    )


FAMILY_KINDS = ("hyperelliptic", "artinschreier", "tangoplane")


def _family_classes() -> dict:
    """The class of each family kind.  A family's document carries the
    fields of its record class: p, and h where the class has one."""
    from ..charpcurve.families import ArtinSchreier, Hyperelliptic, TangoPlane

    return {"hyperelliptic": Hyperelliptic, "artinschreier": ArtinSchreier,
            "tangoplane": TangoPlane}


def family_from_fields(kind: str, p: int, h):
    from ..charpcurve.families import genus

    cls = _family_classes().get(kind)
    if cls is None:
        raise SchemaError(
            f"family kind: expected one of {', '.join(FAMILY_KINDS)},"
            f" got {kind!r}"
        )
    if "h" not in cls.__annotations__:
        if h is not None:
            raise SchemaError(f"{kind} takes no h")
    elif h is None:
        raise SchemaError(f"{kind} needs h")
    family = cls(p) if h is None else cls(p, h)
    g = genus(family)
    if g > MAX_GENUS:
        raise SchemaError(
            f"{family!r} has genus {g}; expected a genus of at most"
            f" {MAX_GENUS}"
        )
    return family


_FAMILY = {"kind": _string, "p": characteristic}
_FAMILY_OPTIONAL = {"h": (_nullable(_int), None)}


def _family(value, where):
    fields = _object(value, where, _FAMILY, _FAMILY_OPTIONAL)
    return family_from_fields(fields["kind"], fields["p"], fields["h"])


def family_from_document(data: dict):
    return _top(data, "tango", {"family": _family})["family"]


_CONSTRUCT = {"kind": _string, "family": _family}
_CONSTRUCT_OPTIONAL = {"allow_asserted": (_bool, False)}


def construct_from_document(data: dict):
    from ..construct import KINDS

    top = _top(data, "construct", _CONSTRUCT, _CONSTRUCT_OPTIONAL)
    if top["kind"] not in KINDS:
        raise SchemaError(
            f"kind: expected one of {', '.join(KINDS)}, got {top['kind']!r}"
        )
    return top["kind"], top["family"], top["allow_asserted"]


def family_document(family) -> dict:
    cls = type(family)
    kind = next(k for k, c in _family_classes().items() if c is cls)
    return {"kind": kind,
            **{name: getattr(family, name) for name in cls.__annotations__}}
