"""KLT testing for weighted branch arrangements on a smooth surface.

Tangency between branches is given combinatorially, as a forest of
(infinitely near) points: each node is a point where the listed branches
meet, a child is a point on the exceptional curve of its parent's
blow-up.  Resolving the forest depth-first and transporting coefficients
across each blow-up decides the verdict: the pair is KLT exactly when
every exceptional coefficient stays below 1.

All coefficients are exact rationals, kept as integers.  A declared
branch holds its coefficient as an int numerator over a positive int
denominator, the walk puts the declared ones over their least common
denominator and carries integer numerators, and a blow-up record keeps
the reduced numerator of its sum and one positive denominator.  Those
integers are all that a branch or a record exposes.
"""

from __future__ import annotations

from math import gcd, lcm

from .record import record

ORIGINAL = "original"
EXCEPTIONAL = "exceptional"


class ArrangementError(ValueError):
    """Malformed arrangement input."""


@record
class WeightedBranch:
    """A declared branch whose coefficient is ``numerator /
    denominator``: two ints, the denominator positive.  An original
    branch's coefficient lies in [0, 1)."""

    id: str
    numerator: int
    denominator: int = 1
    kind: str = ORIGINAL

    def __post_init__(self) -> None:
        num, den = self.numerator, self.denominator
        # a bool or a float compares equal to an int and would pass the
        # range test by value
        if type(num) is not int or type(den) is not int or den <= 0:
            raise ArrangementError(
                f"branch {self.id!r} needs an int numerator over a"
                " positive int denominator"
            )
        if not self.id:
            raise ArrangementError("branch id must be nonempty")
        if self.kind not in (ORIGINAL, EXCEPTIONAL):
            raise ArrangementError(f"unknown branch kind {self.kind!r}")
        if self.kind == ORIGINAL and not 0 <= num < den:
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
    indexed by id once, at construction, which refuses two branches of
    one id."""

    branches: tuple[WeightedBranch, ...]
    clusters: tuple[ClusterNode, ...] = ()

    def __post_init__(self) -> None:
        index: dict[str, WeightedBranch] = {}
        for b in self.branches:
            if b.id in index:
                raise ArrangementError(f"duplicate branch id {b.id!r}")
            index[b.id] = b
        object.__setattr__(self, "_index", index)

    def branch(self, bid: str) -> WeightedBranch:
        found = self._index.get(bid)
        if found is None:
            raise ArrangementError(f"unknown branch id {bid!r}")
        return found


@record
class BlowupRecord:
    """One blow-up: the sum sigma of the incident coefficients is
    ``numerator / denominator`` in lowest terms, with a positive
    denominator.  The exceptional coefficient sigma - 1 and the
    discrepancy 1 - sigma, minus the coefficient, share that denominator
    and are in lowest terms too."""

    node: str
    numerator: int
    denominator: int


@record
class BlowupTrace:
    records: tuple[BlowupRecord, ...] = ()

    def peak(self) -> BlowupRecord | None:
        """The first record of the largest sum, compared by cross
        multiplication of numerators and denominators, or None for no
        records.  Its coefficient is the largest exceptional coefficient,
        and minus it the least discrepancy."""
        if not self.records:
            return None
        top = self.records[0]
        for r in self.records:
            if r.numerator * top.denominator > top.numerator * r.denominator:
                top = r
        return top


def blowup_step(sigma: int, den: int, node: str = "p") -> BlowupRecord:
    """Coefficient transport across one point blow-up: the exceptional
    curve carries (sum of incident coefficients) - 1.  The sum is given
    as the numerator ``sigma`` over the positive denominator ``den``."""
    g = gcd(sigma, den)
    return BlowupRecord(node, sigma // g, den // g)


def is_klt(arr: ClusterArrangement) -> tuple[bool, BlowupTrace]:
    """Check the cluster forest, resolve it and decide KLT.

    One depth-first walk over the declared forest, in preorder and with
    an explicit stack, so that its depth is not bounded by the
    interpreter's recursion limit.  Each node is checked before it is
    blown up, so errors surface in the order of a recursive preorder
    walk; at each node the incident coefficients are the declared
    branches plus the parent's exceptional curve.  Verdict: every
    exceptional coefficient < 1 and every input coefficient < 1.

    Every coefficient is carried as its numerator over ``den``, the
    least common denominator of the declared ones, so "< 1" is
    "numerator < den".  Each declared coefficient is scaled to ``den``
    once, before the walk; a lookup adds its scaled numerator.
    """
    branches = arr.branches
    den = lcm(*{b.denominator for b in branches})
    verdict = all(b.numerator < b.denominator for b in branches)
    scaled = {b.id: b.numerator * (den // b.denominator) for b in branches}
    records: list[BlowupRecord] = []
    # a root has no parent; a child carries its parent's branch ids and
    # exceptional coefficient numerator
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
        sigma = 0
        for bid in ids:
            arr.branch(bid)  # refuses an unknown id
            sigma += scaled[bid]
        if parent is not None:
            parent_ids, parent_coeff = parent
            if not distinct <= parent_ids:
                raise ArrangementError(
                    "a branch through a child must pass through the parent"
                )
            sigma += parent_coeff
        records.append(blowup_step(sigma, den, label))
        coeff = sigma - den
        verdict = verdict and coeff < den
        if not node.children:
            continue
        # a smooth branch has one tangent direction at the parent, so it
        # hits the exceptional in one point: siblings cannot share it.
        # The first overlap is raised once the earlier siblings' subtrees
        # are walked, and later siblings are never visited.
        own = (distinct, coeff)
        used: set[str] = set()
        pending: list = []
        for idx, child in enumerate(node.children):
            if not used.isdisjoint(child.branch_ids):
                overlap = sorted(used.intersection(child.branch_ids))
                pending.append((ArrangementError(
                    f"branches {overlap} appear in two siblings"
                ), None, None))
                break
            used.update(child.branch_ids)
            pending.append((child, f"{label}.{idx}", own))
        stack.extend(reversed(pending))

    return verdict, BlowupTrace(tuple(records))
