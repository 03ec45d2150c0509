"""Report documents: ordered check lines with exact witness values.

A check line is a ``(name, status, detail)`` tuple, and its detail a
tuple of ``(key, value)`` string pairs.  One report, two renderings.
The machine form is a stream of ``key=value`` records meant for
diffing; the text form is the same data laid out for reading.  Both are
deterministic byte for byte: detail ordering is fixed at the call site
and nothing ever passes through a set or a hash-ordered iteration.

Rendering loads neither ``fractions`` nor ``json``: a ``Fraction``
prints through ``str``, and the machine form quotes a value of
printable ASCII itself, importing ``json`` only to quote any other
value that needs quoting.
"""

from ..record import record

FORMAT_VERSION = "svlab/1"

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"


@record
class Report:
    command: str
    lines: tuple[tuple[str, str, tuple[tuple[str, str], ...]], ...]

    def exit_code(self) -> int:
        return 1 if any(status == FAIL for _, status, _ in self.lines) else 0


def check(name: str, status: str, *pairs) -> tuple:
    """A ``(name, status, detail)`` line, every detail value rendered to
    its exact string."""
    return name, status, tuple([(key, render_value(value))
                                for key, value in pairs])


def render_value(value) -> str:
    # exact types, most common first; a bool's type is bool, not int;
    # a Fraction, and the ruled marker, the only float, fall through to
    # str: "-9/2", "-inf"
    kind = type(value)
    if kind is str:
        return value
    if kind is int:
        return str(value)
    if kind is bool:
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(render_value(v) for v in value)
    return str(value)


def _quoted(value: str) -> str:
    """The value, or ``json.dumps`` of it when it is empty or holds a
    space, a quote or a backslash.  For a value of printable ASCII that
    is the value between quotes with each backslash and quote escaped;
    only another value loads ``json``."""
    if value and " " not in value and '"' not in value and "\\" not in value:
        return value
    if value.isascii() and value.isprintable():
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    import json

    return json.dumps(value)


def render_machine(report: Report) -> str:
    lines = [f"report command={report.command} format={FORMAT_VERSION}"]
    for name, status, detail in report.lines:
        parts = [f"check name={name}", f"status={status}"]
        parts += [f"{k}={_quoted(v)}" for k, v in detail]
        lines.append(" ".join(parts))
    lines.append(f"exit code={report.exit_code()}")
    return "\n".join(lines) + "\n"


def render_text(report: Report) -> str:
    lines = [f"svlab {report.command}"]
    for name, status, detail in report.lines:
        lines.append(f"{name}: {status}")
        for key, value in detail:
            lines.append(f"    {key}: {value}")
    lines.append(f"exit {report.exit_code()}")
    return "\n".join(lines) + "\n"
