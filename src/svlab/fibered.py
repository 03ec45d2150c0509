"""Degeneration trees of ruled-surface fibers and their contraction.

A fiber of a (possibly non-minimal) ruled surface is a tree of smooth
rational components.  Each component carries its self-intersection, its
multiplicity in the fiber class and its degree against the divisor of
interest; its degree against the canonical class is -2 - self by
adjunction.  Everything the engine needs - fiber-class identities,
(-1)-contractions, minimality audits - is bookkeeping on those numbers.

Contractions here are the D-trivial kind only: a (-1)-component with
D-degree 0.  Contracting anything else changes sections of D and is the
business of the scenario layer, not this calculus.

A blow-up copies its parent's components, replaces the one or two it
shifts, and builds a new ``FiberTree``; every tree is validated in full
when built.  Validation makes one pass over the edges (shape, range,
duplicates, adjacency and fiber degrees) and one connectivity walk, so
apart from one sort of the edges it costs O(n) for n components, and a
blow-up sequence through n moves costs O(n^2).

A reduction contracts a working copy of the fiber in place - the list
of components and one adjacency set per component - and validates one
tree, the result.  Besides building the copy and that tree, a step
looks only at the curves eligible to contract, the contracted curve and
its neighbours; it builds and validates no tree.

Skipping the intermediate trees drops no check that can fail.  Let E be
a D-trivial (-1)-curve, v and w its neighbours (w may be absent) and m
the multiplicities.

- E meets the fiber with degree -m_E + m_v (+ m_w) = 0, so
  m_E = m_v (+ m_w).
- v gains one self-intersection and meets w instead of E, so its fiber
  degree moves by m_v (+ m_w) - m_E = 0; likewise w.
- v and w lose one K-degree each and E, of K-degree -1, leaves, so the
  weighted K-degree sum moves by m_E - m_v (- m_w) = 0 and stays -2.
- E meets at most two components and v, w were not adjacent (that would
  close a cycle through E), so the graph stays a tree.
- D.E = 0, so no D-degree changes.

So every intermediate tree would pass validation.  The result is still
validated in full, and each shifted neighbour validates itself as a
``FiberComponent``.
"""

from __future__ import annotations

from bisect import bisect_left

from .primes import is_prime
from .record import record


class FiberTreeError(ValueError):
    """Numerically inconsistent fiber data."""


@record
class FiberComponent:
    self_intersection: int
    multiplicity: int
    d_degree: int = 0

    def __post_init__(self):
        # a fractional degree is no Cartier divisor, and a bool no number
        if not (type(self.self_intersection) is type(self.multiplicity)
                is type(self.d_degree) is int):
            raise FiberTreeError(
                "self-intersection, multiplicity and degree must be integers"
            )
        if self.multiplicity < 1:
            raise FiberTreeError("component multiplicity must be positive")
        if self.d_degree < 0:
            raise FiberTreeError("nef degree cannot be negative")
        # adjunction on a smooth rational curve; derived here, not a
        # field, and read as a plain attribute by every tree validation
        object.__setattr__(self, "k_degree", -2 - self.self_intersection)


# scripts build components with ``component(self, multiplicity, d)``
component = FiberComponent


@record
class FiberTree:
    components: tuple[FiberComponent, ...]
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        # the record is hashed and compared by its fields, and edges are
        # normalised below, but the components are stored as given
        comps = self.components
        if type(comps) is not tuple:
            raise FiberTreeError(
                "fiber components must be a tuple of FiberComponent records"
            )
        n = len(comps)
        if n == 0:
            raise FiberTreeError("a fiber has at least one component")
        if set(map(type, comps)) != {FiberComponent}:
            raise FiberTreeError(
                "fiber components must be FiberComponent records"
            )
        try:
            edges = iter(self.edges)
        except TypeError:
            raise FiberTreeError(
                "edges must be pairs of component indices"
            ) from None
        # one pass checks each edge and fills the adjacency and each
        # component's degree against the fiber: m*C^2 plus its
        # neighbours' multiplicities
        mult = [c.multiplicity for c in comps]
        degrees = [c.multiplicity * c.self_intersection for c in comps]
        adjacent = [[] for _ in comps]
        norm = []
        seen = set()
        for edge in edges:
            try:
                i, j = edge
            except (TypeError, ValueError):
                raise FiberTreeError(
                    "edges must be pairs of component indices"
                ) from None
            # validation indexes per-component lists by endpoint, and a
            # bool or a float is no index
            if type(i) is not int or type(j) is not int:
                raise FiberTreeError("edge endpoints must be integers")
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise FiberTreeError("edge endpoints out of range")
            key = (i, j) if i < j else (j, i)
            if key in seen:
                raise FiberTreeError("duplicate edge")
            seen.add(key)
            norm.append(key)
            adjacent[i].append(j)
            adjacent[j].append(i)
            degrees[i] += mult[j]
            degrees[j] += mult[i]
        norm.sort()
        object.__setattr__(self, "edges", tuple(norm))
        if len(norm) != n - 1:
            raise FiberTreeError("component graph must be a tree")
        stack, reached = [0], {0}
        while stack:
            for w in adjacent[stack.pop()]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) != n:
            raise FiberTreeError("component graph must be connected")
        # each component meets the full fiber class trivially
        for i, against in enumerate(degrees):
            if against != 0:
                raise FiberTreeError(
                    f"component {i} meets the fiber with degree {against}"
                )
        if self.k_degree() != -2:
            raise FiberTreeError(
                f"fiber has K-degree {self.k_degree()}, needs -2"
            )

    def neighbors(self, i: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == i:
                out.append(b)
            elif b == i:
                out.append(a)
        return out

    def self_degree(self) -> int:
        """F.F, recomputed from components; zero for valid trees."""
        comps = self.components
        degrees = [c.multiplicity * c.self_intersection for c in comps]
        for a, b in self.edges:
            degrees[a] += comps[b].multiplicity
            degrees[b] += comps[a].multiplicity
        return sum(c.multiplicity * d for c, d in zip(comps, degrees))

    def k_degree(self) -> int:
        return sum(c.multiplicity * c.k_degree for c in self.components)

    def d_degree(self) -> int:
        return sum(c.multiplicity * c.d_degree for c in self.components)

    def is_reduced_to_section_fiber(self) -> bool:
        return (
            len(self.components) == 1
            and self.components[0].self_intersection == 0
        )

    def eligible_contractions(self) -> list[int]:
        """D-trivial (-1)-components, in index order."""
        return [i for i, c in enumerate(self.components) if _contractible(c)]


def _contractible(c: FiberComponent) -> bool:
    return c.self_intersection == -1 and c.d_degree == 0


def _working_copy(tree: FiberTree):
    """The components of ``tree`` as a list, one adjacency set per
    component, and the ids of the components left (all of them), in
    order."""
    adjacent = [set() for _ in tree.components]
    for a, b in tree.edges:
        adjacent[a].add(b)
        adjacent[b].add(a)
    return list(tree.components), adjacent, list(range(len(adjacent)))


def _blow_down(comps, adjacent, left, i: int) -> int:
    """Blow down, in a working copy, the component at place i among
    those ``left``; return its id.

    The component must be a D-trivial (-1)-curve meeting at most two
    others: its neighbours gain one self-intersection, lose one
    K-degree, and become adjacent to each other.  The contracted
    curve's own entries in ``comps`` and ``adjacent`` stay as they were.
    """
    # a bool or a float compares equal to an int but is no index
    if type(i) is not int or not 0 <= i < len(left):
        raise FiberTreeError("no such component")
    e = left[i]
    c = comps[e]
    if c.self_intersection != -1:
        raise FiberTreeError("only (-1)-components contract")
    if c.d_degree != 0:
        raise FiberTreeError("contraction must not meet the divisor")
    nbrs = adjacent[e]
    if len(nbrs) > 2:
        raise FiberTreeError(
            "contraction would close a cycle; not a fiber tree"
        )
    for v in nbrs:
        old = comps[v]
        comps[v] = FiberComponent(
            old.self_intersection + 1, old.multiplicity, old.d_degree
        )
        adjacent[v].remove(e)
    if len(nbrs) == 2:
        v, w = nbrs
        adjacent[v].add(w)
        adjacent[w].add(v)
    del left[i]
    return e


def _tree(comps, adjacent, left) -> FiberTree:
    """The validated tree of a working copy's components ``left``."""
    place = {e: k for k, e in enumerate(left)}
    return FiberTree(
        tuple(comps[e] for e in left),
        tuple(
            (place[a], place[b])
            for a in left for b in adjacent[a] if a < b
        ),
    )


def contract_component(tree: FiberTree, i: int) -> FiberTree:
    """Blow down component i (must be a D-trivial (-1)-curve meeting at
    most two others): neighbors gain one self-intersection, lose one
    K-degree, and become adjacent to each other."""
    comps, adjacent, left = _working_copy(tree)
    _blow_down(comps, adjacent, left, i)
    return _tree(comps, adjacent, left)


@record
class ContractionStep:
    fiber_index: int
    component_index: int
    multiplicity: int


def reduce_tree(tree: FiberTree, choose=None):
    """Contract D-trivial (-1)-components until none remain.

    ``choose`` picks among eligible indices (default: lowest); the final
    tree is independent of the policy.  Returns (tree, contracted index
    list).  An index counts the components left at that step.
    """
    comps, adjacent, left = _working_copy(tree)
    # ids, not places: only the contracted curve's neighbours change
    eligible = set(tree.eligible_contractions())
    steps = []
    while eligible:
        if choose is None:
            i = bisect_left(left, min(eligible))
        else:
            i = choose([bisect_left(left, e) for e in sorted(eligible)])
        e = _blow_down(comps, adjacent, left, i)
        steps.append((i, comps[e].multiplicity))
        eligible.discard(e)
        for v in adjacent[e]:
            if _contractible(comps[v]):
                eligible.add(v)
            else:
                eligible.discard(v)
    return (_tree(comps, adjacent, left) if steps else tree), steps


def blow_up_on_component(tree: FiberTree, i: int) -> FiberTree:
    """Insert the exceptional curve of a point blown up on component i.

    The strict transform of i drops one self-intersection; the new
    (-1)-component inherits multiplicity m_i and meets the divisor
    pullback trivially.
    """
    if type(i) is not int or not 0 <= i < len(tree.components):
        raise FiberTreeError("no such component")
    comps = list(tree.components)
    c = comps[i]
    comps[i] = FiberComponent(c.self_intersection - 1, c.multiplicity,
                              c.d_degree)
    comps.append(FiberComponent(-1, c.multiplicity))
    return FiberTree(tuple(comps), tree.edges + ((i, len(comps) - 1),))


def blow_up_on_edge(tree: FiberTree, i: int, j: int) -> FiberTree:
    """Insert the exceptional curve of a point blown up where components
    i and j cross.  Both strict transforms drop one self-intersection
    and the new (-1)-component separates them with multiplicity
    m_i + m_j."""
    if type(i) is not int or type(j) is not int:
        raise FiberTreeError("no such component")
    edges = list(tree.edges)
    try:
        edges.remove((min(i, j), max(i, j)))
    except ValueError:
        raise FiberTreeError("components do not meet") from None
    comps = list(tree.components)
    for k in (i, j):
        c = comps[k]
        comps[k] = FiberComponent(c.self_intersection - 1, c.multiplicity,
                                  c.d_degree)
    new = len(comps)
    comps.append(FiberComponent(-1, comps[i].multiplicity
                                + comps[j].multiplicity))
    edges += (i, new), (j, new)
    return FiberTree(tuple(comps), edges)


@record
class MinimalityAudit:
    """Bookkeeping proof that a configuration with a divisor-positive
    (-1)-component and otherwise contraction-free components cannot be a
    fiber: its K-degree sum misses the -2 that every fiber has."""

    k_degree_sum: int
    contradiction: bool
    detail: str


def minimality_audit(components) -> MinimalityAudit:
    """Audit raw component data (validation deliberately skipped: the
    point is that bad hypothetical configurations indict themselves).

    Accepts FiberComponent instances or (self_intersection,
    multiplicity, d_degree) triples.
    """
    comps = [
        c if isinstance(c, FiberComponent) else FiberComponent(*c)
        for c in components
    ]
    total = sum(c.multiplicity * c.k_degree for c in comps)
    contradiction = total != -2
    if contradiction:
        detail = (
            f"sum of multiplicity-weighted K-degrees is {total}, but a"
            " fiber needs -2; this configuration cannot persist"
        )
    else:
        detail = "K-degree sum is -2; no obstruction from this audit"
    return MinimalityAudit(total, contradiction, detail)


@record
class FiberedModel:
    """A ruled surface presented by its base genus and a list of
    (possibly degenerate) fibers."""

    base_genus: int
    characteristic: int
    fibers: tuple[FiberTree, ...]

    def __post_init__(self):
        if {type(self.base_genus), type(self.characteristic)} != {int}:
            raise FiberTreeError(
                "base genus and characteristic must be integers"
            )
        if type(self.fibers) is not tuple or any(
            type(t) is not FiberTree for t in self.fibers
        ):
            raise FiberTreeError("fibers must be a tuple of FiberTree records")
        if self.base_genus < 0:
            raise FiberTreeError("base genus must be nonnegative")
        if self.characteristic != 0 and not is_prime(self.characteristic):
            raise FiberTreeError("characteristic must be 0 or a prime")
        if not self.fibers:
            raise FiberTreeError("at least one fiber is required")
        degrees = {t.d_degree() for t in self.fibers}
        if len(degrees) > 1:
            raise FiberTreeError(
                f"divisor degree must agree across fibers, got {degrees}"
            )

    @property
    def chi_structure(self) -> int:
        return 1 - self.base_genus

    def fiber_degree(self) -> int:
        return self.fibers[0].d_degree()

    def is_relatively_minimal(self) -> bool:
        return all(t.is_reduced_to_section_fiber() for t in self.fibers)


def reduce_model(model: FiberedModel, choose=None):
    """Apply reduce_tree fiberwise; returns (model, trace)."""
    trace = []
    new_fibers = []
    for fi, tree in enumerate(model.fibers):
        reduced, steps = reduce_tree(tree, choose)
        new_fibers.append(reduced)
        trace.extend(
            ContractionStep(fi, ci, mult) for ci, mult in steps
        )
    return (
        FiberedModel(model.base_genus, model.characteristic,
                     tuple(new_fibers)),
        tuple(trace),
    )
