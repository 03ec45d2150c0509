"""The klt command and its document's reader: weighted branches and a
cluster forest.

Every branch and cluster item is read through ``_object``, so a
refusal has the generic reader's text and comes in document order.
Converters take the value alone, and a refusal carries its path: the
cluster walk puts a node's ``.children[j]`` steps on it from the
parent indices that it keeps, and only when it refuses.  A document
parses each distinct coefficient text once, to its reduced integer
pair, and the report prints every ratio from integers through
``svlab.ratio.ratio_text``, so a klt request builds no ``Fraction``
and loads no ``fractions``.

Only klt requests load this module, so it imports the kltcalc names
that its readers build at its top: their loops run once per array item,
and an import statement there would run as often.  ``svlab.cli.schema``
binds ``arrangement_from_document`` lazily, and the handler calls it
there, and ``is_klt`` and ``check`` through ``svlab.cli.main``, so a
rebinding of any of them sees every call.
"""

from __future__ import annotations

from ..kltcalc import (
    EXCEPTIONAL,
    ORIGINAL,
    ClusterArrangement,
    ClusterNode,
    WeightedBranch,
)
from ..ratio import ratio_text
from . import main, schema
from .rational import parse_ratio
from .report import PASS, Report
from .schema import SchemaError, _at, _list_of, _object, _top, _value

# the item readers' key tables; a branch without a kind is ORIGINAL
_BRANCH = {"id": str, "coefficient": parse_ratio}
_BRANCH_KIND = {"kind": (str, ORIGINAL)}
_CLUSTER = {"branches": _list_of(str)}
_CLUSTER_CHILDREN = {"children": (list, ())}
_KINDS = (ORIGINAL, EXCEPTIONAL)


def _branches(value):
    """The declared branches; each coefficient text is parsed once, to
    its reduced numerator and positive denominator."""
    if type(value) is not list:
        raise SchemaError("expected an array", [])
    coefficients: dict = {}

    def coefficient(text):
        # parse_ratio refuses a text that is not a string, which might
        # not be hashable, before it is stored
        if type(text) is not str or text not in coefficients:
            coefficients[text] = parse_ratio(text)
        return coefficients[text]

    table = {**_BRANCH, "coefficient": coefficient}
    # _list_of's loop, written out: one call less per branch
    out = []
    try:
        for item in value:
            fields = _object(item, table, _BRANCH_KIND)
            kind = fields["kind"]
            if kind not in _KINDS:
                raise SchemaError(
                    f"expected {ORIGINAL!r} or {EXCEPTIONAL!r}", [".kind"],
                )
            out.append(
                WeightedBranch(fields["id"], *fields["coefficient"], kind))
    except SchemaError as ex:
        ex.within(f"[{len(out)}]")
        raise
    return out


def _node_steps(parsed, roots, siblings, parent) -> list:
    """The path steps, innermost first, of the node that the walk reads
    next into ``siblings``, under the node ``parent`` (-1 for a root).
    The walk is preorder: the node stands at ``len(siblings)``, and
    each ancestor is the last node read into its own siblings."""
    steps = [f"[{len(siblings)}]"]
    while parent >= 0:
        parent = parsed[parent][2]
        siblings = parsed[parent][1] if parent >= 0 else roots
        steps += (".children", f"[{len(siblings) - 1}]")
    return steps


def _clusters(value):
    """The cluster forest.  The walk keeps its own stack, so a deep
    forest is bounded by memory, not by the recursion limit; it visits
    nodes in preorder, so errors surface in document order.  Nodes are
    built from the leaves up once every node has parsed."""
    if type(value) is not list:
        raise SchemaError("expected an array", [])
    # each parsed node: its branch ids, its children's indices and its
    # parent's index, -1 for a root
    parsed: list[tuple[tuple[str, ...], list[int], int]] = []
    roots: list[int] = []
    stack = [(item, roots, -1) for item in reversed(value)]
    while stack:
        item, siblings, parent = stack.pop()
        try:
            fields = _object(item, _CLUSTER, _CLUSTER_CHILDREN)
        except SchemaError as ex:
            ex.within(*_node_steps(parsed, roots, siblings, parent))
            raise
        index = len(parsed)
        siblings.append(index)
        children: list[int] = []
        parsed.append((tuple(fields["branches"]), children, parent))
        if fields["children"]:
            stack.extend([(child, children, index)
                          for child in reversed(fields["children"])])
    nodes: list = [None] * len(parsed)
    for i in reversed(range(len(parsed))):
        ids, children, _ = parsed[i]
        nodes[i] = ClusterNode(
            ids, tuple([nodes[j] for j in children]) if children else ())
    return [nodes[i] for i in roots]


def arrangement_from_document(data: dict) -> ClusterArrangement:
    top = _top(data, "klt", {"arrangement": _value})
    fields = _at("arrangement", _object, top["arrangement"], {
        "branches": _branches,
    }, {
        "clusters": (_clusters, []),
    })
    return ClusterArrangement(tuple(fields["branches"]),
                              tuple(fields["clusters"]))


def cmd_klt(args) -> Report:
    arrangement = schema.arrangement_from_document(
        schema.read_document(args.in_path))
    verdict, trace = main.is_klt(arrangement)
    lines = [main.check(
        "arrangement", PASS,
        ("branches", len(arrangement.branches)),
        ("clusters", len(arrangement.clusters)),
    )]
    for record in trace.records:
        num, den = record.numerator, record.denominator
        lines.append(main.check(
            "blowup", PASS,
            ("node", record.node),
            ("sigma", ratio_text(num, den)),
            ("coefficient", ratio_text(num - den, den)),
            ("discrepancy", ratio_text(den - num, den)),
        ))
    detail = [("verdict", "klt" if verdict else "not-klt")]
    peak = trace.peak()
    if peak is not None:
        num, den = peak.numerator, peak.denominator
        detail.append(("max_exceptional", ratio_text(num - den, den)))
        if not verdict:
            detail.append(("min_discrepancy", ratio_text(den - num, den)))
    lines.append(main.check("klt-verdict", PASS, *detail))
    return Report("klt", tuple(lines))
