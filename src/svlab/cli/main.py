"""Command dispatch: the single user-facing surface of the toolkit.

Six subcommands, one report format.  Each subcommand's flags are the
rows of one table.  A well-formed command line, the subcommand and then
each option spelled in full with a value that does not start with "-",
is read from that table by ``_read_flags``.  Only ``--help`` and a
command line that reader declines import argparse: ``build_parser``
makes its parser from the same rows, so help, usage and error text are
argparse's.

Each subcommand's handler lives beside its document reader: classify
in ``cli/scenario``, klt in ``cli/arrangement``, tango and construct in
``cli/family``, verify in ``cli/package`` and sweep in ``cli/sweep``.
This module names each handler in the flag table and binds it lazily,
so a request compiles this module, the shared schema core and its own
handler and reader, and none of the others.

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
from .report import check, render_machine, render_text

# Each layer entry point and each handler is imported on first access,
# so a command loads only its own layer and handler.  The handlers call
# the entry points and ``check`` through this module, so a rebinding of
# the module attribute takes effect.
__getattr__ = lazy_getattr(globals(), {
    "certify_tango": "..charpcurve.families",
    "build_package": "..construct",
    "verify_package": "..construct",
    "is_klt": "..kltcalc",
    "decide": "..nonvanish",
    "cmd_classify": ".scenario",
    "cmd_klt": ".arrangement",
    "cmd_tango": ".family",
    "cmd_construct": ".family",
    "cmd_verify": ".package",
    "cmd_sweep": ".sweep",
})


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

# each subcommand: the name of its handler, its help line and its flags
_COMMANDS = {
    "classify": ("cmd_classify",
                 "case label and decision for a scenario document", _IO),
    "klt": ("cmd_klt", "resolve a cluster arrangement and decide klt", _IO),
    "tango": ("cmd_tango", "invariant certificate for a catalogued curve",
              _FAMILY),
    "construct": ("cmd_construct",
                  "build and verify a counterexample package", _CONSTRUCT),
    "verify": ("cmd_verify",
               "re-run every check on an emitted package document", _IO),
    "sweep": ("cmd_sweep", "euler-formula agreement over an integral box",
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
    # a handler already bound, or rebound, is in the module's globals
    handler = _COMMANDS[args.command][0]
    try:
        report = (globals().get(handler) or __getattr__(handler))(args)
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
