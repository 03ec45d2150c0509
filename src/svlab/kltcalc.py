"""KLT testing for weighted branch arrangements on a smooth surface.

Tangency between branches is given combinatorially, as a forest of
(infinitely near) points: each node is a point where the listed branches
meet, a child is a point on the exceptional curve of its parent's
blow-up.  Resolving the forest depth-first and transporting coefficients
across each blow-up decides the verdict: the pair is KLT exactly when
every exceptional coefficient stays below 1.

All coefficients are exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .record import record

Rational = Union[int, Fraction]

ORIGINAL = "original"
EXCEPTIONAL = "exceptional"


class ArrangementError(ValueError):
    """Malformed arrangement input."""


@record
class WeightedBranch:
    id: str
    coefficient: Fraction
    kind: str = ORIGINAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficient", Fraction(self.coefficient))
        if not self.id:
            raise ArrangementError("branch id must be nonempty")
        if self.kind not in (ORIGINAL, EXCEPTIONAL):
            raise ArrangementError(f"unknown branch kind {self.kind!r}")
        if self.kind == ORIGINAL and not 0 <= self.coefficient < 1:
            raise ArrangementError(
                f"original branch {self.id!r} needs coefficient in [0, 1)"
            )


@record
class ClusterNode:
    """A singular point of the arrangement.  ``branch_ids`` are the
    declared branches through it; children are points infinitely near to
    it, lying on the exceptional of its blow-up."""

    branch_ids: tuple[str, ...]
    children: tuple["ClusterNode", ...] = ()


@record
class ClusterArrangement:
    """Declared branches and the cluster forest.  The branches are
    indexed by id once, at construction; the first of two equal ids is
    the one ``branch`` finds (``is_klt`` refuses the pair)."""

    branches: tuple[WeightedBranch, ...]
    clusters: tuple[ClusterNode, ...] = ()

    def __post_init__(self) -> None:
        index: dict[str, WeightedBranch] = {}
        for b in self.branches:
            index.setdefault(b.id, b)
        object.__setattr__(self, "_index", index)

    def branch(self, bid: str) -> WeightedBranch:
        found = self._index.get(bid)
        if found is None:
            raise ArrangementError(f"unknown branch id {bid!r}")
        return found


@record
class BlowupRecord:
    node: str
    sigma: Fraction
    coefficient: Fraction

    @property
    def discrepancy(self) -> Fraction:
        """The exceptional curve's discrepancy: minus its coefficient."""
        return -self.coefficient


@record
class BlowupTrace:
    records: tuple[BlowupRecord, ...] = ()

    def max_coefficient(self) -> Fraction | None:
        if not self.records:
            return None
        return max(r.coefficient for r in self.records)


def blowup_step(
    coefficients: Iterable[Rational], node: str = "p"
) -> BlowupRecord:
    """Coefficient transport across one point blow-up: the exceptional
    curve carries (sum of incident coefficients) - 1."""
    sigma = sum((Fraction(c) for c in coefficients), Fraction(0))
    return BlowupRecord(node, sigma, sigma - 1)


def is_klt(arr: ClusterArrangement) -> tuple[bool, BlowupTrace]:
    """Check the cluster forest, resolve it and decide KLT.

    One depth-first walk over the declared forest, in preorder and with
    an explicit stack, so that its depth is not bounded by the
    interpreter's recursion limit.  Each node is checked before it is
    blown up, so errors surface in the order of a recursive preorder
    walk; at each node the incident coefficients are the declared
    branches plus the parent's exceptional curve.  Verdict: every
    exceptional coefficient < 1 and every input coefficient < 1.
    """
    seen: set[str] = set()
    for b in arr.branches:
        if b.id in seen:
            raise ArrangementError(f"duplicate branch id {b.id!r}")
        seen.add(b.id)
    records: list[BlowupRecord] = []
    # a root has no parent; a child carries its parent's branch ids and
    # exceptional coefficient
    stack: list = [
        (root, f"n{idx}", None)
        for idx, root in reversed(list(enumerate(arr.clusters)))
    ]
    while stack:
        node, label, parent = stack.pop()
        if isinstance(node, ArrangementError):
            raise node
        ids = node.branch_ids
        distinct = frozenset(ids)
        if len(distinct) != len(ids):
            raise ArrangementError("node lists a branch twice")
        if len(ids) < 2:
            raise ArrangementError(
                "a cluster point needs at least two incident branches"
            )
        coeffs = [arr.branch(bid).coefficient for bid in ids]
        if parent is not None:
            parent_ids, parent_coeff = parent
            if not distinct <= parent_ids:
                raise ArrangementError(
                    "a branch through a child must pass through the parent"
                )
            coeffs.append(parent_coeff)
        rec = blowup_step(coeffs, label)
        records.append(rec)
        # a smooth branch has one tangent direction at the parent, so it
        # hits the exceptional in one point: siblings cannot share it.
        # The first overlap is raised once the earlier siblings' subtrees
        # are walked, and later siblings are never visited.
        own = (distinct, rec.coefficient)
        used: set[str] = set()
        pending: list = []
        for idx, child in enumerate(node.children):
            overlap = used & set(child.branch_ids)
            if overlap:
                pending.append((ArrangementError(
                    f"branches {sorted(overlap)} appear in two siblings"
                ), None, None))
                break
            used |= set(child.branch_ids)
            pending.append((child, f"{label}.{idx}", own))
        stack.extend(reversed(pending))

    trace = BlowupTrace(tuple(records))
    verdict = all(b.coefficient < 1 for b in arr.branches) and all(
        r.coefficient < 1 for r in trace.records
    )
    return verdict, trace
