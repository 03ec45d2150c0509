"""KLT testing for weighted branch arrangements on a smooth surface.

Tangency between branches is given combinatorially, as a forest of
(infinitely near) points: each node is a point where the listed branches
meet, a child is a point on the exceptional curve of its parent's
blow-up.  Resolving the forest depth-first and transporting coefficients
across each blow-up decides the verdict: the pair is KLT exactly when
every exceptional coefficient stays below 1.

All coefficients are exact rationals.  The walk puts them over the
least common denominator of the declared ones and carries integer
numerators.  A blow-up record keeps integers too, the reduced numerator
of its sum and one positive denominator, and builds a
``fractions.Fraction`` only when one of its values is read as such.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .record import record

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
        c = self.coefficient
        if type(c) is not Fraction:
            if type(c) is not int:
                raise ArrangementError(
                    f"branch {self.id!r} needs an int or Fraction coefficient"
                )
            c = Fraction(c)
            object.__setattr__(self, "coefficient", c)
        if not self.id:
            raise ArrangementError("branch id must be nonempty")
        if self.kind not in (ORIGINAL, EXCEPTIONAL):
            raise ArrangementError(f"unknown branch kind {self.kind!r}")
        if self.kind == ORIGINAL and not 0 <= c.numerator < c.denominator:
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
    discrepancy 1 - sigma share that denominator and are in lowest terms
    too."""

    node: str
    numerator: int
    denominator: int

    @property
    def sigma(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    @property
    def coefficient(self) -> Fraction:
        """The exceptional curve's coefficient: sigma - 1."""
        return Fraction(self.numerator - self.denominator, self.denominator)

    @property
    def discrepancy(self) -> Fraction:
        """The exceptional curve's discrepancy: minus its coefficient."""
        return Fraction(self.denominator - self.numerator, self.denominator)


@record
class BlowupTrace:
    records: tuple[BlowupRecord, ...] = ()

    def _peak(self) -> BlowupRecord:
        """The first record of the largest sum, compared by cross
        multiplication of numerators and denominators."""
        top = self.records[0]
        for r in self.records:
            if r.numerator * top.denominator > top.numerator * r.denominator:
                top = r
        return top

    def max_coefficient(self) -> Fraction | None:
        return self._peak().coefficient if self.records else None

    def min_discrepancy(self) -> Fraction | None:
        """The least discrepancy, that of the largest coefficient."""
        return self._peak().discrepancy if self.records else None


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
    "numerator < den".  Each declared coefficient is read once, as its
    integer ratio, before the walk; a lookup adds its scaled numerator.
    """
    ratios = [b.coefficient.as_integer_ratio() for b in arr.branches]
    den = lcm(*{d for _, d in ratios})
    verdict = all(n < d for n, d in ratios)
    scaled = {
        b.id: n * (den // d) for b, (n, d) in zip(arr.branches, ratios)
    }
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
