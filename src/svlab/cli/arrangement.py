"""The klt document's reader: weighted branches and a cluster forest.

A branch or cluster item of the common shape is read directly: a dict
inside its key table, with a string id, a coefficient that
``schema._RATIONAL`` matches and a known kind, or with string branch
ids and a list of children.  Its path in the document is never
formatted.  Any other item goes through ``_object``, so a refusal has
the generic reader's text and comes in the generic reader's order.

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
    _RATIONAL,
    SchemaError,
    _array,
    _fraction,
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


# the item readers' key tables; a branch without a kind is ORIGINAL
_BRANCH = {"id": _string, "coefficient": parse_rational}
_BRANCH_KIND = {"kind": (_string, None)}
_CLUSTER = {"branches": _strings}
_CLUSTER_CHILDREN = {"children": (_array, ())}
_BRANCH_KEYS = _BRANCH.keys() | _BRANCH_KIND.keys()
_CLUSTER_KEYS = _CLUSTER.keys() | _CLUSTER_CHILDREN.keys()
_KINDS = (ORIGINAL, EXCEPTIONAL)


def _branch(value, where):
    """A branch item of any shape, read through ``_object``."""
    fields = _object(value, where, _BRANCH, _BRANCH_KIND)
    kind = ORIGINAL if fields["kind"] is None else fields["kind"]
    if kind not in _KINDS:
        raise SchemaError(
            f"{where}.kind: expected {ORIGINAL!r} or {EXCEPTIONAL!r}"
        )
    return WeightedBranch(fields["id"], fields["coefficient"], kind)


def _common_branch(item, coefficients):
    """The id, coefficient and kind of a branch item of the common
    shape, or None.  ``coefficients`` maps each coefficient text read so
    far to its Fraction, so a document builds one per distinct text."""
    if type(item) is not dict or not item.keys() <= _BRANCH_KEYS:
        return None
    bid, text = item.get("id"), item.get("coefficient")
    kind = item.get("kind", ORIGINAL)
    if type(bid) is not str or type(text) is not str or kind not in _KINDS:
        return None
    coefficient = coefficients.get(text)
    if coefficient is None:
        if not _RATIONAL.fullmatch(text):
            return None
        coefficient = coefficients[text] = _fraction(text)
    return bid, coefficient, kind


def _branches(value, where):
    """The declared branches: an item of the common shape is built
    directly, any other is read by ``_branch``."""
    out = []
    coefficients: dict = {}
    for i, item in enumerate(_array(value, where)):
        common = _common_branch(item, coefficients)
        out.append(_branch(item, f"{where}[{i}]") if common is None
                   else WeightedBranch(*common))
    return out


def _common_cluster(item):
    """The branch ids and children of a cluster item of the common
    shape, or None."""
    if type(item) is not dict or not item.keys() <= _CLUSTER_KEYS:
        return None
    ids = item.get("branches")
    children = item.get("children", [])
    if (type(ids) is not list or type(children) is not list
            or not all(type(bid) is str for bid in ids)):
        return None
    return ids, children


def _path(where, parsed, parent, position):
    """The path of the item at ``position`` among the children of the
    parsed node ``parent``, or among the roots when ``parent`` is -1."""
    steps = []
    while parent >= 0:
        steps.append(f".children[{position}]")
        _, _, parent, position = parsed[parent]
    return f"{where}[{position}]" + "".join(reversed(steps))


def _clusters(value, where):
    """The cluster forest.  The walk keeps its own stack, so a deep
    forest is bounded by memory, not by the recursion limit; it visits
    nodes in preorder, so errors surface in document order.  Nodes are
    built from the leaves up once every node has parsed."""
    # each parsed node: its branch ids, its children's indices, its
    # parent's index (-1 for a root) and its position there
    parsed: list[tuple[tuple[str, ...], list[int], int, int]] = []
    stack = [(item, -1, i) for i, item in
             reversed(list(enumerate(_array(value, where))))]
    while stack:
        item, parent, position = stack.pop()
        common = _common_cluster(item)
        if common is None:
            fields = _object(item, _path(where, parsed, parent, position),
                             _CLUSTER, _CLUSTER_CHILDREN)
            common = fields["branches"], fields["children"]
        ids, children = common
        index = len(parsed)
        parsed.append((tuple(ids), [], parent, position))
        if parent >= 0:
            parsed[parent][1].append(index)
        if children:
            stack.extend((child, index, i) for i, child
                         in reversed(list(enumerate(children))))
    nodes: list = [None] * len(parsed)
    for i in reversed(range(len(parsed))):
        ids, children, _, _ = parsed[i]
        nodes[i] = ClusterNode(ids, tuple([nodes[j] for j in children]))
    return [nodes[i] for i, (_, _, parent, _) in enumerate(parsed)
            if parent < 0]


def arrangement_from_document(data: dict) -> ClusterArrangement:
    top = _top(data, "klt", {"arrangement": lambda v, w: v})
    fields = _object(top["arrangement"], "arrangement", {
        "branches": _branches,
    }, {
        "clusters": (_clusters, []),
    })
    return ClusterArrangement(tuple(fields["branches"]),
                              tuple(fields["clusters"]))
