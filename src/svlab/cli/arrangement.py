"""The klt document's reader: weighted branches and a cluster forest.

Every branch and cluster item is read through ``_object`` with its
path in the document, so a refusal has the generic reader's text and
comes in document order.  A document builds one ``Fraction`` per
distinct coefficient text.

Only klt requests load this module, so it imports the kltcalc names
that its readers build at its top: their loops run once per array item,
and an import statement there would run as often.  ``svlab.cli.schema``
binds ``arrangement_from_document`` lazily, and the command line calls
it there.
"""

from __future__ import annotations

from ..kltcalc import (
    EXCEPTIONAL,
    ORIGINAL,
    ClusterArrangement,
    ClusterNode,
    WeightedBranch,
)
from .schema import (
    SchemaError,
    _array,
    _list_of,
    _object,
    _string,
    _top,
    parse_rational,
)

# the item readers' key tables; a branch without a kind is ORIGINAL
_BRANCH = {"id": _string, "coefficient": parse_rational}
_BRANCH_KIND = {"kind": (_string, None)}
_CLUSTER = {"branches": _list_of(_string)}
_CLUSTER_CHILDREN = {"children": (_array, ())}


def _branches(value, where):
    """The declared branches; each coefficient text is parsed once."""
    coefficients: dict = {}

    def coefficient(text, where):
        # parse_rational refuses a text that is not a string, which
        # might not be hashable, before it is stored
        if type(text) is not str or text not in coefficients:
            coefficients[text] = parse_rational(text, where)
        return coefficients[text]

    table = {**_BRANCH, "coefficient": coefficient}
    out = []
    for i, item in enumerate(_array(value, where)):
        at = f"{where}[{i}]"
        fields = _object(item, at, table, _BRANCH_KIND)
        kind = ORIGINAL if fields["kind"] is None else fields["kind"]
        if kind not in (ORIGINAL, EXCEPTIONAL):
            raise SchemaError(
                f"{at}.kind: expected {ORIGINAL!r} or {EXCEPTIONAL!r}"
            )
        out.append(WeightedBranch(fields["id"], fields["coefficient"], kind))
    return out


def _clusters(value, where):
    """The cluster forest.  The walk keeps its own stack, so a deep
    forest is bounded by memory, not by the recursion limit; it visits
    nodes in preorder, so errors surface in document order.  Nodes are
    built from the leaves up once every node has parsed."""
    # each parsed node: its branch ids and its children's indices
    parsed: list[tuple[tuple[str, ...], list[int]]] = []
    roots: list[int] = []
    stack = [(item, f"{where}[{i}]", roots) for i, item in
             reversed(list(enumerate(_array(value, where))))]
    while stack:
        item, at, siblings = stack.pop()
        fields = _object(item, at, _CLUSTER, _CLUSTER_CHILDREN)
        children: list[int] = []
        siblings.append(len(parsed))
        parsed.append((tuple(fields["branches"]), children))
        stack.extend((child, f"{at}.children[{i}]", children) for i, child
                     in reversed(list(enumerate(fields["children"]))))
    nodes: list = [None] * len(parsed)
    for i in reversed(range(len(parsed))):
        ids, children = parsed[i]
        nodes[i] = ClusterNode(ids, tuple([nodes[j] for j in children]))
    return [nodes[i] for i in roots]


def arrangement_from_document(data: dict) -> ClusterArrangement:
    top = _top(data, "klt", {"arrangement": lambda v, w: v})
    fields = _object(top["arrangement"], "arrangement", {
        "branches": _branches,
    }, {
        "clusters": (_clusters, []),
    })
    return ClusterArrangement(tuple(fields["branches"]),
                              tuple(fields["clusters"]))
