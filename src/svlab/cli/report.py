"""Report documents: ordered check lines with exact witness values.

One report, two renderings.  The machine form is a stream of
``key=value`` records meant for diffing; the text form is the same data
laid out for reading.  Both are deterministic byte for byte: detail
ordering is fixed at the call site and nothing ever passes through a
set or a hash-ordered iteration.
"""

import json
from fractions import Fraction

from ..record import record

FORMAT_VERSION = "svlab/1"

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"


@record
class CheckLine:
    name: str
    status: str
    detail: tuple[tuple[str, str], ...] = ()


@record
class Report:
    command: str
    lines: tuple[CheckLine, ...]

    def exit_code(self) -> int:
        return 1 if any(l.status == FAIL for l in self.lines) else 0


def check(name: str, status: str, *pairs) -> CheckLine:
    """Build a line, rendering every detail value to its exact string."""
    detail = tuple([(key, render_value(value)) for key, value in pairs])
    return CheckLine(name, status, detail)


def render_value(value) -> str:
    # exact types, most common first; a bool's type is bool, not int, and
    # the ruled marker, the only float, falls through to str: "-inf"
    kind = type(value)
    if kind is str:
        return value
    if kind is int or kind is Fraction:
        return str(value)
    if kind is bool:
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(render_value(v) for v in value)
    return str(value)


def _quoted(value: str) -> str:
    if value == "" or " " in value or '"' in value or "\\" in value:
        return json.dumps(value)
    return value


def render_machine(report: Report) -> str:
    lines = [f"report command={report.command} format={FORMAT_VERSION}"]
    for line in report.lines:
        parts = [f"check name={line.name}", f"status={line.status}"]
        parts += [f"{k}={_quoted(v)}" for k, v in line.detail]
        lines.append(" ".join(parts))
    lines.append(f"exit code={report.exit_code()}")
    return "\n".join(lines) + "\n"


def render_text(report: Report) -> str:
    lines = [f"svlab {report.command}"]
    for line in report.lines:
        lines.append(f"{line.name}: {line.status}")
        for key, value in line.detail:
            lines.append(f"    {key}: {value}")
    lines.append(f"exit {report.exit_code()}")
    return "\n".join(lines) + "\n"
