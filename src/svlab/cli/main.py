"""Command dispatch: the single user-facing surface of the toolkit.

Six subcommands, one report format.  Exit codes: 0 when every check
passed (verdicts like "unknown" or "not klt" are still produced
reports), 1 when some mathematical check line failed, 2 when the input
never made it past parsing or validation.
"""

import argparse
import sys

from ..lazy import lazy_getattr
from . import schema
from .report import (
    FAIL,
    PASS,
    SKIP,
    Report,
    check,
    render_machine,
    render_text,
)

# Each layer entry point is imported on first access, so a command loads
# only its own layer.  The commands call them through ``_this``, the
# module itself, so a rebinding of the module attribute takes effect.
__getattr__ = lazy_getattr(globals(), {
    "certify_tango": "..charpcurve.families",
    "build_package": "..construct",
    "verify_package": "..construct",
    "is_klt": "..kltcalc",
    "decide": "..nonvanish",
})
_this = sys.modules[__name__]


def _read(path: str | None) -> str:
    if path is None:
        raise schema.SchemaError("this command needs --in PATH")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def cmd_classify(args) -> Report:
    data = schema.load_document(_read(args.in_path))
    scenario = schema.scenario_from_document(data)
    verdict = _this.decide(scenario)
    detail = [("result", verdict.result)]
    if verdict.reason:
        detail.append(("reason", verdict.reason))
    cert = dict(verdict.certificate)
    rule = cert.pop("rule", None)
    if rule is not None:
        detail.append(("rule", rule))
    detail.extend(sorted(cert.items()))
    return Report("classify", (
        check(
            "classification", PASS,
            ("case", verdict.case_label),
            ("kodaira", scenario.kodaira),
            ("chi_o", scenario.chi_o),
            ("q", scenario.q),
        ),
        check("decision", PASS, *detail),
    ))


def cmd_klt(args) -> Report:
    data = schema.load_document(_read(args.in_path))
    arrangement = schema.arrangement_from_document(data)
    verdict, trace = _this.is_klt(arrangement)
    lines = [check(
        "arrangement", PASS,
        ("branches", len(arrangement.branches)),
        ("clusters", len(arrangement.clusters)),
    )]
    for record in trace.records:
        lines.append(check(
            "blowup", PASS,
            ("node", record.node),
            ("sigma", record.sigma),
            ("coefficient", record.coefficient),
            ("discrepancy", record.discrepancy),
        ))
    detail = [("verdict", "klt" if verdict else "not-klt")]
    if trace.records:
        detail.append(("max_exceptional", trace.max_coefficient()))
        if not verdict:
            detail.append(("min_discrepancy",
                           min(r.discrepancy for r in trace.records)))
    lines.append(check("klt-verdict", PASS, *detail))
    return Report("klt", tuple(lines))


def _family_from_args(args, reader):
    """The family the flags name, or what ``reader`` makes of the
    document that --in names."""
    if args.in_path is not None and args.family is not None:
        raise schema.SchemaError(
            "give either --in or the family flags, not both"
        )
    if args.in_path is not None:
        return reader(schema.load_document(_read(args.in_path)))
    if args.family is None:
        raise schema.SchemaError(
            "this command needs --family (with --p, --h) or --in PATH"
        )
    if args.p is None:
        raise schema.SchemaError("family flags need --p")
    p = schema.characteristic(args.p, "--p")
    return schema.family_from_fields(args.family, p, args.h)


def _family_detail(family, kind_name: str) -> list:
    """A family's kind, named ``kind_name``, then p and h as its
    document carries them."""
    doc = schema.family_document(family)
    return [(kind_name, doc.pop("kind")), *doc.items()]


def cmd_tango(args) -> Report:
    family = _family_from_args(args, schema.family_from_document)
    cert = _this.certify_tango(family)
    invariant_detail = [("n", cert.n_f0)]
    if cert.v_inf is not None:
        invariant_detail.append(("v_inf", cert.v_inf))
    lines = [
        check("family", PASS, *_family_detail(family, "kind"),
              ("curve", family.describe())),
        check(
            "witness", PASS,
            ("value", cert.witness),
            ("provenance", cert.provenance),
        ),
        check("invariant", PASS, *invariant_detail),
        check(
            "genus-bound", PASS,
            ("genus", cert.genus),
            ("bound", cert.bound),
            ("equality", cert.equality),
        ),
    ]
    if cert.star_condition is not None:
        lines.append(check(
            "star-condition", PASS,
            ("value", cert.star_condition),
        ))
    return Report("tango", tuple(lines))


def _package_lines(pkg) -> tuple:
    from ..lattice import format_class

    verification = _this.verify_package(pkg)
    head = [
        ("kind", pkg.kind),
        *_family_detail(pkg.certificate.family, "family"),
        ("genus", pkg.model.genus),
        ("n", pkg.degree_n()),
        ("e", pkg.model.invariant_e),
    ]
    boundary = " + ".join(
        f"{q}*({format_class(cls)})" for cls, q in pkg.boundary
    )
    classes = [
        ("D", format_class(pkg.divisor)),
        ("H", format_class(pkg.h_class)),
        ("C", format_class(pkg.section_curve)),
        ("B", boundary),
    ]
    if pkg.base_twist_degree is not None:
        classes.append(("twist_degree", pkg.base_twist_degree))
    if pkg.member_class is not None:
        classes.append(("member", format_class(pkg.member_class)))
        classes.append(("member_coefficient", pkg.member_coefficient))
    if pkg.shifted_divisor is not None:
        classes.append(("shifted", format_class(pkg.shifted_divisor)))
    lines = [
        check("package", PASS, *head),
        check("classes", PASS, *classes),
    ]
    for result in verification.results:
        lines.append(check(
            result.name,
            PASS if result.passed else FAIL,
            ("witness", result.witness),
        ))
    lines.append(check(
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
            raise schema.SchemaError(
                "--kind contradicts the request document"
            )
        allow = allow or args.allow_asserted
    else:
        family = source
        if args.kind is None:
            raise schema.SchemaError("this command needs --kind")
        kind = args.kind
        allow = args.allow_asserted
    cert = _this.certify_tango(family)
    pkg = _this.build_package(kind, cert, allow_asserted=allow)
    if args.emit is not None:
        doc = schema.package_to_document(pkg)
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(schema.dumps_canonical(doc))
    return Report("construct", _package_lines(pkg))


def cmd_verify(args) -> Report:
    data = schema.load_document(_read(args.in_path))
    pkg = schema.package_from_document(data)
    return Report("verify", _package_lines(pkg))


def cmd_sweep(args) -> Report:
    from .sweep import (
        CERTIFIED_ENTRY,
        DISAGREEMENT,
        SKIPPED_ENTRY,
        run_sweep,
        summarize,
    )

    data = schema.load_document(_read(args.in_path))
    request = schema.sweep_from_document(data)
    entries = run_sweep(request)
    status = {CERTIFIED_ENTRY: PASS, SKIPPED_ENTRY: SKIP, DISAGREEMENT: FAIL}
    lines = [
        check(
            "entry", status[entry.status], ("a", entry.a), ("b", entry.b),
            ("chi", entry.chi) if entry.status == CERTIFIED_ENTRY
            else ("reason", entry.reason),
        )
        for entry in entries
    ]
    stats = summarize(entries)
    lines.append(check(
        "summary",
        PASS if stats["disagreements"] == 0 else FAIL,
        *stats.items(),
    ))
    return Report("sweep", tuple(lines))


_COMMANDS = {
    "classify": cmd_classify,
    "klt": cmd_klt,
    "tango": cmd_tango,
    "construct": cmd_construct,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def _add_io(parser) -> None:
    parser.add_argument("--in", dest="in_path", metavar="PATH",
                        help="request document to read")
    parser.add_argument("--out", dest="out_path", metavar="PATH",
                        help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("text", "machine"),
                        default="text", help="report rendering")


def _add_family(parser) -> None:
    parser.add_argument("--family", choices=schema.FAMILY_KINDS)
    parser.add_argument("--p", type=int)
    parser.add_argument("--h", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svlab",
        description=(
            "exact-arithmetic checks for positivity, singularities and"
            " section counts on ruled surfaces in small characteristic"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_io(sub.add_parser(
        "classify", help="case label and decision for a scenario document"
    ))
    _add_io(sub.add_parser(
        "klt", help="resolve a cluster arrangement and decide klt"
    ))

    tango = sub.add_parser(
        "tango", help="invariant certificate for a catalogued curve"
    )
    _add_io(tango)
    _add_family(tango)

    construct = sub.add_parser(
        "construct", help="build and verify a counterexample package"
    )
    _add_io(construct)
    _add_family(construct)
    construct.add_argument("--kind", choices=("kv", "kollar", "semipos"))
    construct.add_argument("--allow-asserted", action="store_true",
                           dest="allow_asserted")
    construct.add_argument("--emit", metavar="PATH",
                           help="write the package as a request document")

    _add_io(sub.add_parser(
        "verify", help="re-run every check on an emitted package document"
    ))

    sweep = sub.add_parser(
        "sweep", help="euler-formula agreement over an integral box"
    )
    _add_io(sweep)
    # deleted once the benchmark stops sending --jobs 1 (ROADMAP item 1)
    sweep.add_argument("--jobs", type=int, choices=(1,), default=1,
                       help="only 1 is accepted; the flag will be removed")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = _COMMANDS[args.command](args)
    except (ValueError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    rendered = (
        render_machine(report) if args.format == "machine"
        else render_text(report)
    )
    if args.out_path is not None:
        try:
            with open(args.out_path, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as ex:
            print(f"error: {ex}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return report.exit_code()


if __name__ == "__main__":
    raise SystemExit(main())
