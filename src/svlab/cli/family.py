"""The tango and construct commands, and the family readers behind them.

A family travels as its kind, its p, and its h where its class has one:
in a tango, construct or package document, or as the family flags.
Verify reuses ``_package_lines``, a package's check lines, from here;
they print each coefficient pair of the package and each class through
``svlab.ratio.ratio_text``.  ``family_from_fields`` refuses without a
path, as a refusal of the family flags reads, and the document reader
``_family`` puts the path of the family on each of its refusals.
Only tango, construct and verify load this module, and each of them
certifies a family, so it reads the family classes at import.  It
imports every other layer where it uses it, so tango loads no lattice
and construct without --emit no ``cli/package``.  The handlers call
the readers through ``svlab.cli.schema``, which binds them lazily, and
the layer entry points and ``check`` through ``svlab.cli.main``, so a
tracer or a test that rebinds one of those names sees every call.
"""

from ..charpcurve.families import (
    ArtinSchreier,
    FamilyParameterError,
    Hyperelliptic,
    TangoPlane,
    genus,
)
from . import main, schema
from .report import FAIL, PASS, Report
from .schema import SchemaError

# The class of each family kind.  A family's document carries the fields
# of its record class: p, and h where the class has one.
_FAMILY_CLASSES = {"hyperelliptic": Hyperelliptic,
                   "artinschreier": ArtinSchreier, "tangoplane": TangoPlane}


def family_from_fields(kind: str, p: int, h):
    """The family of ``kind``, one of ``schema.FAMILY_KINDS``, at p and
    h; a refusal carries no path."""
    cls = _FAMILY_CLASSES[kind]
    if "h" not in cls.__annotations__:
        if h is not None:
            raise SchemaError(f"{kind} takes no h")
    elif h is None:
        raise SchemaError(f"{kind} needs h")
    family = cls(p) if h is None else cls(p, h)
    g = genus(family)
    if g > schema.MAX_GENUS:
        raise SchemaError(
            f"{family!r} has genus {g}; expected a genus of at most"
            f" {schema.MAX_GENUS}"
        )
    return family


_FAMILY = {"kind": str, "p": schema.characteristic,
           "h": (schema._nullable(int), None)}


def _family(value):
    fields = schema._object(value, _FAMILY)
    kind = fields["kind"]
    if kind not in schema.FAMILY_KINDS:
        raise SchemaError(
            f"expected one of {', '.join(schema.FAMILY_KINDS)}, got {kind!r}",
            [".kind"],
        )
    try:
        return schema.family_from_fields(kind, fields["p"], fields["h"])
    except (SchemaError, FamilyParameterError) as ex:
        raise SchemaError(str(ex), []) from None


def family_from_document(data: dict):
    """The family of a tango document, which ``_top`` reads whole."""
    return schema._top(data, "tango", {"family": _family})["family"]


_CONSTRUCT = {"kind": str, "family": _family, "allow_asserted": (bool, False)}


def construct_from_document(data: dict):
    """The kind, family and allow_asserted flag of a construct document,
    which ``_top`` reads whole."""
    from ..construct import KINDS

    top = schema._top(data, "construct", _CONSTRUCT)
    if top["kind"] not in KINDS:
        raise SchemaError(
            f"kind: expected one of {', '.join(KINDS)}, got {top['kind']!r}"
        )
    return top["kind"], top["family"], top["allow_asserted"]


def family_document(family) -> dict:
    cls = type(family)
    kind = next(k for k, c in _FAMILY_CLASSES.items() if c is cls)
    return {"kind": kind,
            **{name: getattr(family, name) for name in cls.__annotations__}}


def _family_from_args(args, reader):
    """The family the flags name, or what ``reader`` makes of the
    document that --in names."""
    if args.in_path is not None and args.family is not None:
        raise SchemaError("give either --in or the family flags, not both")
    if args.in_path is not None:
        return reader(schema.read_document(args.in_path))
    if args.family is None:
        raise SchemaError(
            "this command needs --family (with --p, --h) or --in PATH"
        )
    if args.p is None:
        raise SchemaError("family flags need --p")
    p = schema._at("--p", schema.characteristic, args.p)
    return schema.family_from_fields(args.family, p, args.h)


def _family_detail(family, kind_name: str) -> list:
    """A family's kind, named ``kind_name``, then p and h as its
    document carries them."""
    doc = schema.family_document(family)
    return [(kind_name, doc.pop("kind")), *doc.items()]


def cmd_tango(args) -> Report:
    family = _family_from_args(args, schema.family_from_document)
    cert = main.certify_tango(family)
    invariant_detail = [("n", cert.n_f0)]
    if cert.v_inf is not None:
        invariant_detail.append(("v_inf", cert.v_inf))
    lines = [
        main.check("family", PASS, *_family_detail(family, "kind"),
                   ("curve", family.describe())),
        main.check(
            "witness", PASS,
            ("value", cert.witness),
            ("provenance", cert.provenance),
        ),
        main.check("invariant", PASS, *invariant_detail),
        main.check(
            "genus-bound", PASS,
            ("genus", cert.genus),
            ("bound", cert.bound),
            ("equality", cert.equality),
        ),
    ]
    if cert.star_condition is not None:
        lines.append(main.check(
            "star-condition", PASS,
            ("value", cert.star_condition),
        ))
    return Report("tango", tuple(lines))


def _package_lines(pkg) -> tuple:
    from ..lattice import format_class
    from ..ratio import ratio_text

    verification = main.verify_package(pkg)
    head = [
        ("kind", pkg.kind),
        *_family_detail(pkg.certificate.family, "family"),
        ("genus", pkg.model.genus),
        ("n", pkg.degree_n()),
        ("e", pkg.model.invariant_e),
    ]
    boundary = " + ".join(
        f"{ratio_text(*q)}*({format_class(cls)})" for cls, q in pkg.boundary
    )
    classes = [
        ("D", format_class(pkg.divisor)),
        ("H", format_class(pkg.h_class)),
        ("C", format_class(pkg.section_curve)),
        ("B", boundary),
    ]
    if pkg.base_twist_degree is not None:
        classes.append(
            ("twist_degree", ratio_text(*pkg.base_twist_degree))
        )
    if pkg.member_class is not None:
        classes.append(("member", format_class(pkg.member_class)))
        classes.append(
            ("member_coefficient", ratio_text(*pkg.member_coefficient))
        )
    if pkg.shifted_divisor is not None:
        classes.append(("shifted", format_class(pkg.shifted_divisor)))
    lines = [
        main.check("package", PASS, *head),
        main.check("classes", PASS, *classes),
    ]
    for result in verification.results:
        lines.append(main.check(
            result.name,
            PASS if result.passed else FAIL,
            ("witness", result.witness),
        ))
    lines.append(main.check(
        "package-valid",
        PASS if verification.valid else FAIL,
        ("checks", len(verification.results)),
    ))
    return tuple(lines)


def cmd_construct(args) -> Report:
    source = _family_from_args(args, schema.construct_from_document)
    if args.in_path is not None:
        kind, family, allow = source
        if args.kind is not None and args.kind != kind:
            raise SchemaError("--kind contradicts the request document")
        allow = allow or args.allow_asserted
    else:
        family = source
        if args.kind is None:
            raise SchemaError("this command needs --kind")
        kind = args.kind
        allow = args.allow_asserted
    cert = main.certify_tango(family)
    pkg = main.build_package(kind, cert, allow_asserted=allow)
    if args.emit is not None:
        doc = schema.package_to_document(pkg)
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(schema.dumps_canonical(doc))
    return Report("construct", _package_lines(pkg))
