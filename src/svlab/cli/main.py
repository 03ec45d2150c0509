"""Command dispatch: the single user-facing surface of the toolkit.

Six subcommands, one report format.  Each subcommand's flags are the
rows of one table.  A well-formed command line, the subcommand and then
each option spelled in full with a value that does not start with "-",
is read from that table by ``_read_flags``.  Only ``--help`` and a
command line that reader declines import argparse: ``build_parser``
makes its parser from the same rows, so help, usage and error text are
argparse's.

Exit codes: 0 when every check passed (verdicts like "unknown" or "not
klt" are still produced reports), 1 when some mathematical check line
failed, 2 when the input never made it past parsing or validation, or
when the report could not be written (an unwritable ``--out`` or a
closed stdout).
"""

import os
import sys
from types import SimpleNamespace

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


def _ratio(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` of a numerator and a positive
    denominator that are already coprime."""
    return str(num) if den == 1 else f"{num}/{den}"


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
        num, den = record.numerator, record.denominator
        lines.append(check(
            "blowup", PASS,
            ("node", record.node),
            ("sigma", _ratio(num, den)),
            ("coefficient", _ratio(num - den, den)),
            ("discrepancy", _ratio(den - num, den)),
        ))
    detail = [("verdict", "klt" if verdict else "not-klt")]
    if trace.records:
        detail.append(("max_exceptional", trace.max_coefficient()))
        if not verdict:
            detail.append(("min_discrepancy", trace.min_discrepancy()))
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
    p = schema._at("--p", schema.characteristic, args.p)
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


# Each flag row: option, dest, kind, default, metavar, help.  The kind
# is str for a path, int, the tuple of values allowed (converted like
# its first value), or bool for a flag that takes no value.
_IO = (
    ("--in", "in_path", str, None, "PATH", "request document to read"),
    ("--out", "out_path", str, None, "PATH",
     "write the report here instead of stdout"),
    ("--format", "format", ("text", "machine"), "text", None,
     "report rendering"),
)
_FAMILY = _IO + (
    ("--family", "family", schema.FAMILY_KINDS, None, None, None),
    ("--p", "p", int, None, None, None),
    ("--h", "h", int, None, None, None),
)
_CONSTRUCT = _FAMILY + (
    ("--kind", "kind", ("kv", "kollar", "semipos"), None, None, None),
    ("--allow-asserted", "allow_asserted", bool, False, None, None),
    ("--emit", "emit", str, None, "PATH",
     "write the package as a request document"),
)
_SWEEP = _IO + (
    # deleted once the benchmark stops sending --jobs 1 (ROADMAP item 1)
    ("--jobs", "jobs", (1,), 1, None,
     "only 1 is accepted; the flag will be removed"),
)

# each subcommand: what runs it, its help line and its flags
_COMMANDS = {
    "classify": (cmd_classify,
                 "case label and decision for a scenario document", _IO),
    "klt": (cmd_klt, "resolve a cluster arrangement and decide klt", _IO),
    "tango": (cmd_tango, "invariant certificate for a catalogued curve",
              _FAMILY),
    "construct": (cmd_construct, "build and verify a counterexample package",
                  _CONSTRUCT),
    "verify": (cmd_verify,
               "re-run every check on an emitted package document", _IO),
    "sweep": (cmd_sweep, "euler-formula agreement over an integral box",
              _SWEEP),
}


def _convert(kind):
    """What turns a flag's value into the one its command reads."""
    return type(kind[0]) if isinstance(kind, tuple) else kind


def _read_flags(argv):
    """The arguments of a command line of the shape
    ``COMMAND (--option VALUE | --flag)*``, each option spelled in full
    and no value starting with "-", as argparse reads them; None for any
    other command line and for a value argparse would refuse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    rows = {row[0]: row for row in _COMMANDS[argv[0]][2]}
    values = {dest: default for _, dest, _, default, _, _ in rows.values()}
    values["command"] = argv[0]
    tokens = iter(argv[1:])
    for option in tokens:
        if option not in rows:
            return None
        _, dest, kind, _, _, _ = rows[option]
        if kind is bool:
            values[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            value = _convert(kind)(value)
        except ValueError:
            return None
        if isinstance(kind, tuple) and value not in kind:
            return None
        values[dest] = value
    return SimpleNamespace(**values)


def build_parser():
    """The argparse parser of all six subcommands, built from the flag
    rows."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="svlab",
        description=(
            "exact-arithmetic checks for positivity, singularities and"
            " section counts on ruled surfaces in small characteristic"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, rows) in _COMMANDS.items():
        subparser = sub.add_parser(name, help=help_line)
        for option, dest, kind, default, metavar, help_text in rows:
            if kind is bool:
                subparser.add_argument(option, dest=dest,
                                       action="store_true", help=help_text)
                continue
            subparser.add_argument(
                option, dest=dest, default=default, metavar=metavar,
                help=help_text, type=_convert(kind),
                choices=kind if isinstance(kind, tuple) else None,
            )
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_flags(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        report = _COMMANDS[args.command][0](args)
    except (ValueError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    rendered = (
        render_machine(report) if args.format == "machine"
        else render_text(report)
    )
    try:
        if args.out_path is None:
            sys.stdout.write(rendered)
            # a closed stdout fails here, inside the handler, and not at
            # the interpreter's own flush on exit
            sys.stdout.flush()
        else:
            with open(args.out_path, "w", encoding="utf-8") as fh:
                fh.write(rendered)
    except OSError as ex:
        if args.out_path is None:
            # what stays buffered would fail again at the interpreter's
            # flush on exit; it goes to the null device instead
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {ex}", file=sys.stderr)
        return 2
    return report.exit_code()


if __name__ == "__main__":
    raise SystemExit(main())
