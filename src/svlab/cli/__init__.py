"""Request documents in, check reports out.

The sweep names are imported on first access, so a command other than
``sweep`` never loads the sweep or its process pool."""

from ..lazy import lazy_getattr
from .main import build_parser, main
from .report import (
    FAIL,
    FORMAT_VERSION,
    PASS,
    SKIP,
    CheckLine,
    Report,
    render_machine,
    render_text,
)
from .schema import SchemaError, load_document

__all__ = [
    "FAIL",
    "FORMAT_VERSION",
    "PASS",
    "SKIP",
    "CheckLine",
    "Report",
    "SchemaError",
    "SweepEntry",
    "SweepRequest",
    "build_parser",
    "load_document",
    "main",
    "render_machine",
    "render_text",
    "run_sweep",
    "summarize",
]

__getattr__ = lazy_getattr(globals(), {
    name: ".sweep"
    for name in ("SweepEntry", "SweepRequest", "run_sweep", "summarize")
})
