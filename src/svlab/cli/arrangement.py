"""The klt document's reader: weighted branches and a cluster forest.

Only klt requests load this module, so it imports the kltcalc names
that its per-item converters build at its top: a converter handed to
``_list_of`` runs once per array item, and an import statement in it
would run as often.  ``svlab.cli.schema`` binds
``arrangement_from_document`` lazily, and the command line calls it
there.
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


def _strings(value, where):
    """An array of strings; only a refused element's path is formatted."""
    for i, v in enumerate(_array(value, where)):
        if not isinstance(v, str):
            _string(v, f"{where}[{i}]")
    return value


# the per-item readers' key tables; a branch without a kind is ORIGINAL
_BRANCH = {"id": _string, "coefficient": parse_rational}
_BRANCH_KIND = {"kind": (_string, None)}
_CLUSTER = {"branches": _strings}
_CLUSTER_CHILDREN = {"children": (_array, ())}


def _branch(value, where):
    fields = _object(value, where, _BRANCH, _BRANCH_KIND)
    kind = ORIGINAL if fields["kind"] is None else fields["kind"]
    if kind not in (ORIGINAL, EXCEPTIONAL):
        raise SchemaError(
            f"{where}.kind: expected {ORIGINAL!r} or {EXCEPTIONAL!r}"
        )
    return WeightedBranch(fields["id"], fields["coefficient"], kind)


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
    nodes: list = [None] * len(parsed)
    for i in reversed(range(len(parsed))):
        ids, children = parsed[i]
        nodes[i] = ClusterNode(ids, tuple(nodes[j] for j in children))
    return nodes[0]


def arrangement_from_document(data: dict) -> ClusterArrangement:
    top = _top(data, "klt", {"arrangement": lambda v, w: v})
    fields = _object(top["arrangement"], "arrangement", {
        "branches": _list_of(_branch),
    }, {
        "clusters": (_list_of(_cluster), []),
    })
    return ClusterArrangement(tuple(fields["branches"]),
                              tuple(fields["clusters"]))
