"""Strict document schema: versioned key-value trees.

Documents are JSON with a fixed vocabulary.  Validation is closed:
every object lists its admissible keys and anything else is rejected,
so a typo never silently changes meaning.  Exact rationals, and the
classes and boundaries made of them, are read by ``cli/rational``.

``load_document`` checks the format and the request name, and ``_top``
is the one read of a whole document: each request kind's reader passes
its document through it, which refuses a document of another kind and
reads format, request and the kind's own top-level keys, bodies
included.

Every object of every document is read by ``_object``, against one key
table per object that maps each key to a converter, to a plain JSON
type (``str``, ``int``, ``bool``, ``list``, ``dict``) or to the key
table of a nested object, which ``_object`` reads itself, and each
optional key to such a reader and its default.  A key table is a
``dict`` instance, and the ``dict`` type means any JSON object.
``_list_of`` takes a converter, a plain type or a key table for the
items of an array.  A plain type is tested inline with
``type(value) is T``, so a bool is never an integer.  A converter
takes the value alone and returns what it reads.  Its refusal, a
``SchemaError`` raised with an empty path, collects the path to the
value as it propagates: ``.key`` from ``_object`` and ``[i]`` from
``_list_of``.  ``_top`` gives every document one path rule: a refusal
under a top-level key reads from that key, as in ``model.p`` or
``scenario.model.genus``, and a refusal of the document itself reads
``document``.  The path is formatted only when the refusal is printed,
so a document that reads cleanly formats none.

This module keeps what several document kinds share: the envelope, the
converters, the caps and the pure model's key table.  Each kind's
reader is a module of its own, beside its command's handler:
``cli/scenario`` (classify), ``cli/arrangement`` (klt), ``cli/family``
(tango and construct, and the family that a package carries),
``cli/sweep`` (sweep) and ``cli/package`` (verify and ``construct
--emit``).  This
module binds their public functions lazily, so a command compiles only
its own reader and callers still reach every reader as
``schema.<name>``.  It imports no ``json``, which ``load_document``
imports when it runs.
"""

from __future__ import annotations

from ..lazy import lazy_getattr
from .report import FORMAT_VERSION

# each name resolves on first access, and is read through the module so
# that a rebinding of it takes effect
__getattr__ = lazy_getattr(globals(), {
    "certify_tango": "..charpcurve.families",
    "scenario_from_document": ".scenario",
    "arrangement_from_document": ".arrangement",
    "sweep_from_document": ".sweep",
    **{name: ".family" for name in (
        "family_from_fields", "family_from_document",
        "construct_from_document", "family_document",
    )},
    **{name: ".package" for name in (
        "package_to_document", "package_from_document", "dumps_canonical",
    )},
})

REQUESTS = ("classify", "klt", "tango", "construct", "verify-package",
            "sweep")


class SchemaError(ValueError):
    """The document does not match the published schema.  A refusal
    raised with a path, ``SchemaError(reason, [])``, gathers its steps
    innermost first and reads ``<path>: <reason>``; one raised without
    reads as its message alone."""

    def __init__(self, message: str, path: list | None = None):
        super().__init__(message)
        self.path = path

    def within(self, *steps: str) -> None:
        """Put ``steps``, innermost first, before this refusal's path."""
        if self.path is not None:
            self.path.extend(steps)

    def __str__(self) -> str:
        if self.path is None:
            return self.args[0]
        return "".join(reversed(self.path)) + ": " + self.args[0]


# The plain JSON types that a key table may name in place of a
# converter, each with the refusal of a value of another type.  The
# test is ``type(value) is T``, so a bool is never an integer.
_PLAIN = {
    str: "expected a string",
    int: "expected an integer",
    bool: "expected true or false",
    list: "expected an array",
    dict: "expected an object",
}


def _object(data, table: dict) -> dict:
    """The fields of the JSON object ``data``.  ``table`` maps each key
    that it must have to its converter, plain type or key table, and
    each key that it may have to a (reader, default) pair; the required
    keys come first.  A refusal comes in table order, after any unknown
    key."""
    if type(data) is not dict:
        raise SchemaError("expected an object", [])
    for key in data:
        if key not in table:
            unknown = sorted(k for k in data if k not in table)
            raise SchemaError(
                f"unknown keys {unknown}; this schema is strict", [],
            )
    out = {}
    for key, convert in table.items():
        if type(convert) is tuple:
            convert, default = convert
            if key not in data:
                out[key] = default
                continue
        elif key not in data:
            raise SchemaError(f"missing key {key!r}", [])
        value = data[key]
        if type(convert) is type:
            if type(value) is not convert:
                raise SchemaError(_PLAIN[convert], ["." + key])
        else:
            try:
                value = (_object(value, convert) if type(convert) is dict
                         else convert(value))
            except SchemaError as ex:
                ex.within("." + key)
                raise
        out[key] = value
    return out


def _at(where: str, convert, value):
    """``convert(value)`` for a value that no document holds, such as a
    flag's: a refusal of it reads ``where`` first."""
    try:
        return convert(value)
    except SchemaError as ex:
        ex.within(where)
        raise


# Primality is settled by trial division, so the cap keeps a huge p from
# hanging the tool; "small characteristic" is the toolkit's whole domain.
MAX_CHARACTERISTIC = 2 ** 16
# Certifying a curve expands series to precision 4g + 2p: genus 20,000
# takes about 2 s, and the cost grows faster than linearly beyond it.
MAX_GENUS = 20_000
# Every entry of a sweep box is held in memory and printed on its own line.
MAX_SWEEP_ENTRIES = 100_000


def characteristic(value) -> int:
    """A characteristic: 0 or a prime below the cap."""
    if type(value) is not int:
        raise SchemaError(_PLAIN[int], [])
    if value >= MAX_CHARACTERISTIC:
        raise SchemaError(
            f"expected a characteristic below {MAX_CHARACTERISTIC}", [],
        )
    # a leaf module, imported here so that klt and --help load none
    from ..primes import is_prime

    if value != 0 and not is_prime(value):
        raise SchemaError(f"expected 0 or a prime, got {value}", [])
    return value


def _nullable(convert):
    """``convert`` with None passed through: a reader, which is a
    converter or a plain type, or a writer."""
    def inner(value):
        if value is None:
            return None
        if type(convert) is not type:
            return convert(value)
        if type(value) is not convert:
            raise SchemaError(_PLAIN[convert], [])
        return value
    return inner


def _list_of(convert):
    """The converter of a JSON array whose items ``convert``, a
    converter, a plain type or a key table, reads; an array of a plain
    type is returned as it stands."""
    if type(convert) is type:
        def plain(value):
            if type(value) is not list:
                raise SchemaError(_PLAIN[list], [])
            for item in value:
                if type(item) is not convert:
                    i = next(i for i, v in enumerate(value)
                             if type(v) is not convert)
                    raise SchemaError(_PLAIN[convert], [f"[{i}]"])
            return value
        return plain
    if type(convert) is dict:
        return _list_of(lambda item: _object(item, convert))

    def inner(value):
        if type(value) is not list:
            raise SchemaError(_PLAIN[list], [])
        out = []
        try:
            for item in value:
                out.append(convert(item))
        except SchemaError as ex:
            ex.within(f"[{len(out)}]")
            raise
        return out
    return inner


def load_document(text: str) -> dict:
    import json

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


def read_document(path: str | None) -> dict:
    """The document in the file ``path``, read by ``load_document``."""
    if path is None:
        raise SchemaError("this command needs --in PATH")
    with open(path, encoding="utf-8") as fh:
        return load_document(fh.read())


def _top(data: dict, request: str, keys: dict):
    """The top-level keys of a ``request`` document that
    ``load_document`` returned: format, request, then ``keys``, a key
    table as ``_object`` takes it.  A refusal under a top-level key
    reads from that key, and a refusal of the document itself reads
    ``document``."""
    if data["request"] != request:
        raise SchemaError(
            f"document is a {data['request']} request, not {request}"
        )
    try:
        return _object(data, {"format": str, "request": str, **keys})
    except SchemaError as ex:
        if ex.path:
            # the outermost step is ".key"; the path starts at the key
            ex.path[-1] = ex.path[-1][1:]
        else:
            ex.within("document")
        raise


# the p, genus, e of a ruled model with no blow-ups
_PURE_MODEL = {"p": characteristic, "genus": int, "e": int}


# the family kinds, which cli/main's --family flag offers
FAMILY_KINDS = ("hyperelliptic", "artinschreier", "tangoplane")
