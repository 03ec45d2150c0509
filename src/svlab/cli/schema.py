"""Strict document schema: versioned key-value trees with exact rationals.

Documents are JSON with a fixed vocabulary.  Validation is closed:
every object lists its admissible keys and anything else is rejected,
so a typo never silently changes meaning.  Rationals travel as
"num/den" strings (or bare integer strings) of ASCII digits; decimal
literals are refused outright.

``load_document`` checks the format and the request name, and ``_top``
is the one envelope check: each request kind's reader passes its
document through it, which refuses a document of another kind and
reads format, request and the kind's own top-level keys.

Each document kind imports the layer it builds inside the functions
that build it, so parsing a document loads only that layer.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from ..lazy import lazy_getattr
from .report import FORMAT_VERSION

if TYPE_CHECKING:
    from ..charpcurve.families import TangoCertificate
    from ..construct import CounterexamplePackage
    from ..kltcalc import ClusterArrangement
    from ..lattice import DivisorClass, RuledModel
    from ..nonvanish import Scenario
    from .sweep import SweepRequest

# certify_tango, and the kltcalc names that the per-item converters of a
# klt document read, resolve on first access and are read through the
# module: an import statement in a converter would run once per item
__getattr__ = lazy_getattr(globals(), {
    "certify_tango": "..charpcurve.families",
    **{name: "..kltcalc" for name in (
        "EXCEPTIONAL", "ORIGINAL", "ClusterNode", "WeightedBranch",
    )},
})
_this = sys.modules[__name__]

REQUESTS = ("classify", "klt", "tango", "construct", "verify-package",
            "sweep")

_RATIONAL = re.compile(r"-?[0-9]+(?:/[1-9][0-9]*)?")


class SchemaError(ValueError):
    """The document does not match the published schema."""


def parse_rational(value, where: str) -> Fraction:
    if not isinstance(value, str) or not _RATIONAL.fullmatch(value):
        raise SchemaError(
            f"{where}: expected an exact rational like \"3\" or \"-9/2\","
            f" got {value!r}"
        )
    num, _, den = value.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def fmt_rational(q) -> str:
    return str(Fraction(q))


def _object(data, where: str, required: dict, optional: dict = {}):
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected an object")
    if not data.keys() <= required.keys() | optional.keys():
        unknown = data.keys() - required.keys() - optional.keys()
        raise SchemaError(
            f"{where}: unknown keys {sorted(unknown)}; this schema is strict"
        )
    out = {}
    for key, convert in required.items():
        if key not in data:
            raise SchemaError(f"{where}: missing key {key!r}")
        out[key] = convert(data[key], f"{where}.{key}")
    for key, (convert, default) in optional.items():
        if key in data:
            out[key] = convert(data[key], f"{where}.{key}")
        else:
            out[key] = default
    return out


def _int(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: expected an integer")
    return value


# Primality is settled by trial division, so the cap keeps a huge p from
# hanging the tool; "small characteristic" is the toolkit's whole domain.
MAX_CHARACTERISTIC = 2 ** 16
# Certifying a curve expands series to precision 4g + 2p: genus 20,000
# takes about 2 s, and the cost grows faster than linearly beyond it.
MAX_GENUS = 20_000
# Every entry of a sweep box is held in memory and printed on its own line.
MAX_SWEEP_ENTRIES = 100_000


def characteristic(value, where):
    p = _int(value, where)
    if p >= MAX_CHARACTERISTIC:
        raise SchemaError(
            f"{where}: expected a characteristic below {MAX_CHARACTERISTIC}"
        )
    return p


def _bool(value, where):
    if not isinstance(value, bool):
        raise SchemaError(f"{where}: expected true or false")
    return value


def _string(value, where):
    if not isinstance(value, str):
        raise SchemaError(f"{where}: expected a string")
    return value


def _nullable(convert):
    """``convert`` with None passed through, for a reader (value, where)
    or a writer (value)."""
    def inner(value, *where):
        return None if value is None else convert(value, *where)
    return inner


def _same(value):
    return value


def _array(value, where):
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected an array")
    return value


def _list_of(convert):
    def inner(value, where):
        return [convert(v, f"{where}[{i}]")
                for i, v in enumerate(_array(value, where))]
    return inner


def _strings(value, where):
    """An array of strings; only a refused element's path is formatted."""
    for i, v in enumerate(_array(value, where)):
        if not isinstance(v, str):
            _string(v, f"{where}[{i}]")
    return value


def _coeffs(value, where):
    return _list_of(parse_rational)(value, where)


# TangoCertificate.n_f0 travels as "n"; every other key is its field
_RENAMED = {"n_f0": "n"}


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


def _kodaira(value, where):
    from ..nonvanish import RULED

    if value == "-inf":
        return RULED
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f'{where}: expected "-inf" or an integer')
    return value


def load_document(text: str) -> dict:
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


def _top(data: dict, request: str, keys: dict, optional: dict = {}):
    """The top-level keys of a ``request`` document that
    ``load_document`` returned: format, request, then ``keys``."""
    if data["request"] != request:
        raise SchemaError(
            f"document is a {data['request']} request, not {request}"
        )
    return _object(data, "document", {
        "format": _string, "request": _string, **keys,
    }, optional)


_PURE_MODEL = {"p": characteristic, "genus": _int, "e": _int}


def _pure_model(value, where):
    """The p, genus, e of a ruled model with no blow-ups."""
    return _object(value, where, _PURE_MODEL)


def _model_fields(value, where):
    return _object(value, where, _PURE_MODEL, _MODEL_OPTIONAL)


def _build_model(fields) -> RuledModel:
    from ..lattice import BlowupPoint, RuledModel

    return RuledModel(
        fields["p"], fields["genus"], fields["e"],
        tuple(BlowupPoint(tuple(prox)) for prox in fields["exceptionals"]),
        fields["chi"],
    )


def _class_on(model: RuledModel, coeffs, where) -> DivisorClass:
    if len(coeffs) != model.rank:
        raise SchemaError(
            f"{where}: expected {model.rank} coefficients,"
            f" got {len(coeffs)}"
        )
    return model.divisor(*coeffs)


def _boundary_entry(value, where):
    return _object(value, where, _BOUNDARY_ENTRY)


def _boundary_on(model: RuledModel, entries, where) -> tuple:
    """The (class, coefficient) pairs of parsed boundary entries."""
    return tuple(
        (_class_on(model, entry["class"], where), entry["coefficient"])
        for entry in entries
    )


def scenario_from_document(data: dict) -> Scenario:
    from ..nonvanish import Scenario

    top = _top(data, "classify", {"scenario": lambda v, w: v})
    fields = _object(top["scenario"], "scenario", _SCENARIO,
                     _SCENARIO_OPTIONAL)
    model = fields["model"] = _build_model(fields["model"])
    fields["divisor"] = _class_on(model, fields["divisor"],
                                  "scenario.divisor")
    fields["boundary"] = _boundary_on(model, fields["boundary"],
                                      "scenario.boundary")
    return Scenario(**fields)


# the scenario reader's key tables
_SCENARIO = {
    "model": _model_fields,
    "kodaira": _kodaira,
    "chi_o": _int,
    "q": _int,
    "relatively_minimal": _bool,
    "divisor": _coeffs,
}
_SCENARIO_OPTIONAL = {
    "boundary": (_list_of(_boundary_entry), []),
    "kappa_minus_k_nonneg": (_nullable(_bool), None),
}
_MODEL_OPTIONAL = {
    "chi": (_nullable(_int), None),
    "exceptionals": (_list_of(_list_of(_int)), []),
}
_BOUNDARY_ENTRY = {"class": _coeffs, "coefficient": parse_rational}

# the per-item readers' key tables; a branch without a kind is ORIGINAL
_BRANCH = {"id": _string, "coefficient": parse_rational}
_BRANCH_KIND = {"kind": (_string, None)}
_CLUSTER = {"branches": _strings}
_CLUSTER_CHILDREN = {"children": (_array, ())}


def _branch(value, where):
    original, exceptional = _this.ORIGINAL, _this.EXCEPTIONAL
    fields = _object(value, where, _BRANCH, _BRANCH_KIND)
    kind = original if fields["kind"] is None else fields["kind"]
    if kind not in (original, exceptional):
        raise SchemaError(
            f"{where}.kind: expected {original!r} or {exceptional!r}"
        )
    return _this.WeightedBranch(fields["id"], fields["coefficient"], kind)


def _cluster(value, where):
    """A cluster node and its subtree.  The walk keeps its own stack, so
    a deep forest is bounded by memory, not by the recursion limit; it
    visits nodes in preorder, so errors surface in document order.
    Nodes are built from the leaves up once every node has parsed."""
    parsed: list[tuple[tuple[str, ...], list[int]]] = []
    stack = [(value, where, None)]
    while stack:
        value, where, parent = stack.pop()
        fields = _object(value, where, _CLUSTER, _CLUSTER_CHILDREN)
        index = len(parsed)
        parsed.append((tuple(fields["branches"]), []))
        if parent is not None:
            parsed[parent][1].append(index)
        stack.extend(
            (child, f"{where}.children[{i}]", index)
            for i, child in reversed(list(enumerate(fields["children"])))
        )
    node = _this.ClusterNode
    nodes: list = [None] * len(parsed)
    for i in reversed(range(len(parsed))):
        ids, children = parsed[i]
        nodes[i] = node(ids, tuple(nodes[j] for j in children))
    return nodes[0]


def arrangement_from_document(data: dict) -> ClusterArrangement:
    from ..kltcalc import ClusterArrangement

    top = _top(data, "klt", {"arrangement": lambda v, w: v})
    fields = _object(top["arrangement"], "arrangement", {
        "branches": _list_of(_branch),
    }, {
        "clusters": (_list_of(_cluster), []),
    })
    return ClusterArrangement(tuple(fields["branches"]),
                              tuple(fields["clusters"]))


FAMILY_KINDS = ("hyperelliptic", "artinschreier", "tangoplane")


def _family_classes() -> dict:
    """The class of each family kind.  A family's document carries the
    fields of its record class: p, and h where the class has one."""
    from ..charpcurve.families import ArtinSchreier, Hyperelliptic, TangoPlane

    return {"hyperelliptic": Hyperelliptic, "artinschreier": ArtinSchreier,
            "tangoplane": TangoPlane}


def family_from_fields(kind: str, p: int, h):
    from ..charpcurve.families import genus

    cls = _family_classes().get(kind)
    if cls is None:
        raise SchemaError(
            f"family kind: expected one of {', '.join(FAMILY_KINDS)},"
            f" got {kind!r}"
        )
    if "h" not in cls.__annotations__:
        if h is not None:
            raise SchemaError(f"{kind} takes no h")
    elif h is None:
        raise SchemaError(f"{kind} needs h")
    family = cls(p) if h is None else cls(p, h)
    g = genus(family)
    if g > MAX_GENUS:
        raise SchemaError(
            f"{family!r} has genus {g}; expected a genus of at most"
            f" {MAX_GENUS}"
        )
    return family


def _family(value, where):
    fields = _object(value, where, {
        "kind": _string,
        "p": characteristic,
    }, {
        "h": (_nullable(_int), None),
    })
    return family_from_fields(fields["kind"], fields["p"], fields["h"])


def family_from_document(data: dict):
    return _top(data, "tango", {"family": _family})["family"]


def construct_from_document(data: dict):
    from ..construct import KINDS

    top = _top(data, "construct", {"kind": _string, "family": _family}, {
        "allow_asserted": (_bool, False),
    })
    if top["kind"] not in KINDS:
        raise SchemaError(
            f"kind: expected one of {', '.join(KINDS)}, got {top['kind']!r}"
        )
    return top["kind"], top["family"], top["allow_asserted"]


def _range(value, where):
    pair = _list_of(_int)(value, where)
    if len(pair) != 2:
        raise SchemaError(f"{where}: expected [low, high]")
    return (pair[0], pair[1])


def sweep_from_document(data: dict) -> SweepRequest:
    from .sweep import SweepRequest

    top = _top(data, "sweep", {
        "model": _pure_model,
        "box": lambda v, w: _object(v, w, {
            "a": _range, "b": _range,
        }),
        "boundary_coefficient": parse_rational,
    })
    model = top["model"]
    if model["e"] >= 0:
        raise SchemaError("model.e: the sweep runs on e < 0 models")
    coeff = top["boundary_coefficient"]
    if not 0 < coeff < 1:
        raise SchemaError(
            "boundary_coefficient: expected a value strictly between 0 and 1"
        )
    (a0, a1), (b0, b1) = box = top["box"]["a"], top["box"]["b"]
    entries = max(0, a1 - a0 + 1) * max(0, b1 - b0 + 1)
    if entries > MAX_SWEEP_ENTRIES:
        raise SchemaError(
            f"box: expected at most {MAX_SWEEP_ENTRIES} entries, got {entries}"
        )
    if model["p"] == 0:
        # C' = pE - pnF, the boundary the sweep checks with, needs p > 0
        raise SchemaError("model.p: the sweep runs in positive characteristic")
    return SweepRequest(model["p"], model["genus"], model["e"], *box, coeff)


def family_document(family) -> dict:
    cls = type(family)
    kind = next(k for k, c in _family_classes().items() if c is cls)
    return {"kind": kind,
            **{name: getattr(family, name) for name in cls.__annotations__}}


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
    from ..charpcurve.families import TangoCertificate

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
    if cert != _this.certify_tango(cert.family):
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
    from ..construct import KINDS, CounterexamplePackage
    from ..lattice import RuledModel

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
