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

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Rational = Union[int, Fraction]

ORIGINAL = "original"
EXCEPTIONAL = "exceptional"


class ArrangementError(ValueError):
    """Malformed arrangement input."""


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ClusterNode:
    """A singular point of the arrangement.  ``branch_ids`` are the
    declared branches through it; children are points infinitely near to
    it, lying on the exceptional of its blow-up."""

    branch_ids: tuple[str, ...]
    children: tuple["ClusterNode", ...] = ()


@dataclass(frozen=True)
class ClusterArrangement:
    branches: tuple[WeightedBranch, ...]
    clusters: tuple[ClusterNode, ...] = ()

    def branch(self, bid: str) -> WeightedBranch:
        for b in self.branches:
            if b.id == bid:
                return b
        raise ArrangementError(f"unknown branch id {bid!r}")

    def validate(self) -> None:
        seen: set[str] = set()
        for b in self.branches:
            if b.id in seen:
                raise ArrangementError(f"duplicate branch id {b.id!r}")
            seen.add(b.id)
        for root in self.clusters:
            self._validate_node(root, seen, None)

    def _validate_node(
        self,
        node: ClusterNode,
        known: set[str],
        parent_ids: frozenset | None,
    ) -> None:
        ids = node.branch_ids
        if len(set(ids)) != len(ids):
            raise ArrangementError("node lists a branch twice")
        if len(ids) < 2:
            raise ArrangementError(
                "a cluster point needs at least two incident branches"
            )
        for bid in ids:
            if bid not in known:
                raise ArrangementError(f"unknown branch id {bid!r}")
        if parent_ids is not None and not set(ids) <= parent_ids:
            raise ArrangementError(
                "a branch through a child must pass through the parent"
            )
        # a smooth branch has one tangent direction at the parent, so it
        # hits the exceptional in one point: siblings cannot share it
        used: set[str] = set()
        for child in node.children:
            overlap = used & set(child.branch_ids)
            if overlap:
                raise ArrangementError(
                    f"branches {sorted(overlap)} appear in two siblings"
                )
            used |= set(child.branch_ids)
            self._validate_node(child, known, frozenset(ids))


@dataclass(frozen=True)
class BlowupRecord:
    node: str
    sigma: Fraction
    coefficient: Fraction
    discrepancy: Fraction

    def __post_init__(self) -> None:
        if self.coefficient + self.discrepancy != 0:
            raise ArrangementError(
                "record must satisfy coefficient = -discrepancy"
            )


@dataclass(frozen=True)
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
    return BlowupRecord(node, sigma, sigma - 1, 1 - sigma)


def is_klt(arr: ClusterArrangement) -> tuple[bool, BlowupTrace]:
    """Resolve the cluster forest and decide KLT.

    Depth-first over the declared forest; at each node the incident
    coefficients are the declared branches plus the parent's exceptional
    curve.  Verdict: every exceptional coefficient < 1 and every input
    coefficient < 1.
    """
    arr.validate()
    records: list[BlowupRecord] = []

    def resolve(node: ClusterNode, label: str, parent_coeff) -> None:
        coeffs = [arr.branch(bid).coefficient for bid in node.branch_ids]
        if parent_coeff is not None:
            coeffs.append(parent_coeff)
        rec = blowup_step(coeffs, label)
        records.append(rec)
        for idx, child in enumerate(node.children):
            resolve(child, f"{label}.{idx}", rec.coefficient)

    for idx, root in enumerate(arr.clusters):
        resolve(root, f"n{idx}", None)

    trace = BlowupTrace(tuple(records))
    verdict = all(b.coefficient < 1 for b in arr.branches) and all(
        r.coefficient < 1 for r in trace.records
    )
    return verdict, trace


def snc_klt_shortcut(arr: ClusterArrangement) -> bool | None:
    """Fast path for simple-normal-crossings data: every cluster is two
    branches meeting transversally (no children).  Returns the verdict,
    or None when the arrangement is not of this shape."""
    arr.validate()
    for node in arr.clusters:
        if len(node.branch_ids) != 2 or node.children:
            return None
    return all(b.coefficient < 1 for b in arr.branches)
