"""The package document: the reader that verify uses and the writer
behind ``construct --emit``.

Both commands build the package layer anyway, so this module imports
it at its top.  ``svlab.cli.schema`` binds ``package_to_document``,
``package_from_document`` and ``dumps_canonical`` lazily, and the
command line calls them there.  A stored certificate is recomputed
through ``svlab.cli.schema.certify_tango``, the binding a tracer or a
test rebinds.
"""

from __future__ import annotations

import json

from ..charpcurve.families import TangoCertificate
from ..construct import KINDS, CounterexamplePackage
from ..lattice import DivisorClass, RuledModel
from . import schema
from .report import FORMAT_VERSION
from .schema import (
    SchemaError,
    _bool,
    _boundary_entry,
    _boundary_on,
    _class_on,
    _coeffs,
    _family,
    _int,
    _list_of,
    _nullable,
    _object,
    _pure_model,
    _string,
    _top,
    family_document,
    fmt_rational,
    parse_rational,
)

# TangoCertificate.n_f0 travels as "n"; every other key is its field
_RENAMED = {"n_f0": "n"}


def _same(value):
    return value


def _fields(value, where, keys: dict) -> dict:
    """A record's fields from its document object.  ``keys`` maps each
    field, in the record's order, to its reader first and its writer
    second."""
    found = _object(value, where, {
        _RENAMED.get(name, name): spec[0] for name, spec in keys.items()
    })
    return {name: found[_RENAMED.get(name, name)] for name in keys}


def _document(rec, keys: dict) -> dict:
    """The document object of a record, by the writers of ``keys``."""
    return {
        _RENAMED.get(name, name): spec[1](getattr(rec, name))
        for name, spec in keys.items()
    }


# TangoCertificate's fields in order: (reader, writer)
_CERTIFICATE_KEYS = {
    "family": (_family, family_document),
    "witness": (_string, _same),
    "genus": (_int, _same),
    "v_inf": (_nullable(_int), _same),
    "n_f0": (_int, _same),
    "bound": (_int, _same),
    "equality": (_bool, _same),
    "l_degree": (_int, _same),
    "star_condition": (_nullable(_bool), _same),
    "provenance": (_string, _same),
}


def _certificate(value, where) -> TangoCertificate:
    fields = _fields(value, where, _CERTIFICATE_KEYS)
    if fields["provenance"] not in ("computed", "asserted"):
        raise SchemaError(
            f"{where}.provenance: expected computed or asserted"
        )
    try:
        cert = TangoCertificate(**fields)
    except ValueError as ex:
        raise SchemaError(f"{where}: {ex}") from None
    # Certificates are cheap to recompute, so a stored one is never
    # trusted: any drift from the family's own numbers is a bad input,
    # not a failed check.
    if cert != schema.certify_tango(cert.family):
        raise SchemaError(
            f"{where}: fields do not match a recomputation for the"
            " stated family"
        )
    return cert


def _class_doc(cls: DivisorClass) -> list:
    return [fmt_rational(c) for c in cls.coeffs]


def _model_doc(model: RuledModel) -> dict:
    return {"p": model.characteristic, "genus": model.genus,
            "e": model.invariant_e}


def _boundary_doc(boundary) -> list:
    return [{"class": _class_doc(cls), "coefficient": fmt_rational(q)}
            for cls, q in boundary]


# A class travels as its coefficients and is put on the package's model
# once the model is built.
_CLASS = (_coeffs, _class_doc, _class_on)
_MAYBE_CLASS = (_nullable(_coeffs), _nullable(_class_doc), _class_on)
_MAYBE_RATIONAL = (_nullable(parse_rational), _nullable(fmt_rational), None)

# CounterexamplePackage's fields in order: (reader, writer, builder on
# the model or None)
_PACKAGE_KEYS = {
    "kind": (_string, _same, None),
    "certificate": (
        _certificate, lambda cert: _document(cert, _CERTIFICATE_KEYS), None
    ),
    "model": (_pure_model, _model_doc, None),
    "section_curve": _CLASS,
    "boundary": (_list_of(_boundary_entry), _boundary_doc, _boundary_on),
    "divisor": _CLASS,
    "h_class": _CLASS,
    "base_twist_degree": _MAYBE_RATIONAL,
    "member_class": _MAYBE_CLASS,
    "member_coefficient": _MAYBE_RATIONAL,
    "shifted_divisor": _MAYBE_CLASS,
}


def package_to_document(pkg: CounterexamplePackage) -> dict:
    return {
        "format": FORMAT_VERSION,
        "request": "verify-package",
        "package": _document(pkg, _PACKAGE_KEYS),
    }


def package_from_document(data: dict) -> CounterexamplePackage:
    """The package a document describes: its fields, then its model, then
    the classes on that model, in field order."""
    top = _top(data, "verify-package", {"package": lambda v, w: v})
    fields = _fields(top["package"], "package", _PACKAGE_KEYS)
    if fields["kind"] not in KINDS:
        raise SchemaError(
            f"package.kind: expected one of {', '.join(KINDS)}"
        )
    m = fields["model"]
    model = fields["model"] = RuledModel(m["p"], m["genus"], m["e"])
    for name, (_, _, on_model) in _PACKAGE_KEYS.items():
        if on_model is not None and fields[name] is not None:
            fields[name] = on_model(model, fields[name], f"package.{name}")
    return CounterexamplePackage(**fields)


def dumps_canonical(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
