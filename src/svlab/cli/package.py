"""The verify command, and the package document: the reader that verify
uses and the writer behind ``construct --emit``.

A package document holds the package's kind, its family and its class
data.  The certificate and the surface are functions of the family, so
the reader recomputes them: the certificate through
``svlab.cli.schema.certify_tango``, the binding a tracer or a test
rebinds, and the surface through ``construct.build_surface``.  A
family edited to another p, g or n moves the surface under the stored
classes, and the check lines that read them fail.

Every rational of a package is a reduced ``(numerator, positive
denominator)`` int pair: the reader keeps the pairs that
``cli/rational`` reads, and the writer prints each one, and each class
coefficient from the class's numerators over its denominator, through
``svlab.ratio.ratio_text``.

Both commands build the package layer anyway, so this module imports
it at its top.  ``svlab.cli.schema`` binds ``package_to_document``,
``package_from_document`` and ``dumps_canonical`` lazily, and the
handlers call them there.  Verify prints a package's check lines with
construct's ``_package_lines``, from ``cli/family``.
"""

from __future__ import annotations

import json

from ..construct import KINDS, CounterexamplePackage, build_surface
from ..lattice import DivisorClass
from ..ratio import ratio_text
from . import schema
from .family import _family, _package_lines, family_document
from .rational import (
    _BOUNDARY_ENTRY,
    _boundary_on,
    _class_on,
    _coeffs,
    parse_ratio,
)
from .report import FORMAT_VERSION, Report
from .schema import SchemaError, _list_of, _nullable, _top


def fmt_rational(q: tuple[int, int]) -> str:
    return ratio_text(*q)


def _class_doc(cls: DivisorClass) -> list:
    return [ratio_text(num, cls.den) for num in cls.nums]


def _boundary_doc(boundary) -> list:
    return [{"class": _class_doc(cls), "coefficient": fmt_rational(q)}
            for cls, q in boundary]


# A class travels as its coefficients and is put on the package's model
# once the model is built.
_CLASS = (_coeffs, _class_doc, _class_on)
_MAYBE_CLASS = (_nullable(_coeffs), _nullable(_class_doc), _class_on)
_MAYBE_RATIONAL = (_nullable(parse_ratio), _nullable(fmt_rational), None)

# CounterexamplePackage's fields after its kind, certificate and model,
# in order: (reader, writer, builder on the model or None)
_PACKAGE_KEYS = {
    "section_curve": _CLASS,
    "boundary": (_list_of(_BOUNDARY_ENTRY), _boundary_doc, _boundary_on),
    "divisor": _CLASS,
    "h_class": _CLASS,
    "base_twist_degree": _MAYBE_RATIONAL,
    "member_class": _MAYBE_CLASS,
    "member_coefficient": _MAYBE_RATIONAL,
    "shifted_divisor": _MAYBE_CLASS,
}


_PACKAGE = {"kind": str, "family": _family,
            **{name: spec[0] for name, spec in _PACKAGE_KEYS.items()}}


def package_to_document(pkg: CounterexamplePackage) -> dict:
    return {
        "format": FORMAT_VERSION,
        "request": "verify-package",
        "package": {
            "kind": pkg.kind,
            "family": family_document(pkg.certificate.family),
            **{name: write(getattr(pkg, name))
               for name, (_, write, _) in _PACKAGE_KEYS.items()},
        },
    }


def package_from_document(data: dict) -> CounterexamplePackage:
    """The package of a verify document, which ``_top`` reads whole: its
    kind and family, then the certificate and surface of the family,
    then the class data on that surface, in field order."""
    fields = _top(data, "verify-package", {"package": _PACKAGE})["package"]
    kind = fields.pop("kind")
    if kind not in KINDS:
        raise SchemaError(
            f"package.kind: expected one of {', '.join(KINDS)}"
        )
    cert = schema.certify_tango(fields.pop("family"))
    model = build_surface(cert)
    for name, (_, _, on_model) in _PACKAGE_KEYS.items():
        if on_model is not None and fields[name] is not None:
            fields[name] = on_model(model, fields[name], f"package.{name}")
    return CounterexamplePackage(kind, cert, model, **fields)


def dumps_canonical(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_verify(args) -> Report:
    pkg = schema.package_from_document(schema.read_document(args.in_path))
    return Report("verify", _package_lines(pkg))
