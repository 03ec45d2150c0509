"""Fiber-tree bookkeeping: validation, contraction, blow-up corpus."""

import random
import re
from fractions import Fraction

import pytest

from svlab.fibered import (
    FiberedModel,
    FiberTree,
    FiberTreeError,
    blow_up_on_component,
    blow_up_on_edge,
    component,
    contract_component,
    minimality_audit,
    reduce_model,
    reduce_tree,
)


def smooth_fiber(d_degree=0):
    return FiberTree((component(0, 1, d_degree),))


def once_blown(d_degree=0):
    # strict transform and exceptional, both (-1) with multiplicity 1
    return blow_up_on_component(smooth_fiber(d_degree), 0)


class TestComponents:
    def test_adjunction_completion(self):
        c = component(-3, 2)
        assert c.k_degree == 1

    def test_positive_multiplicity(self):
        with pytest.raises(FiberTreeError):
            component(-1, 0)

    def test_nonnegative_divisor_degree(self):
        with pytest.raises(FiberTreeError):
            component(0, 1, -1)

    @pytest.mark.parametrize("numbers", (
        (0, 1, 0.5),
        (0, 1, Fraction(1, 2)),
        (0.0, 1, 0),
        (-1, 1.0, 0),
        (0, True, 0),
        (0, 1, True),
        (0, 1, "1"),
    ))
    def test_numbers_are_plain_ints(self, numbers):
        # a half-integral degree is no Cartier divisor, so a fiber tree
        # carrying one must not reach a verdict
        with pytest.raises(FiberTreeError, match="integers"):
            component(*numbers)


class TestTreeValidation:
    def test_smooth_fiber(self):
        t = smooth_fiber()
        assert t.self_degree() == 0
        assert t.k_degree() == -2
        assert t.d_degree() == 0
        assert t.is_reduced_to_section_fiber()

    def test_lone_negative_component_rejected(self):
        with pytest.raises(FiberTreeError, match="degree"):
            FiberTree((component(-1, 1),))

    def test_once_blown_shape(self):
        t = once_blown()
        assert [c.self_intersection for c in t.components] == [-1, -1]
        assert [c.k_degree for c in t.components] == [-1, -1]
        assert t.k_degree() == -2

    def test_disconnected_rejected(self):
        with pytest.raises(FiberTreeError, match="tree"):
            FiberTree((component(0, 1), component(0, 1)))

    def test_cycle_rejected(self):
        comps = (component(-2, 1), component(-2, 1), component(-2, 1))
        with pytest.raises(FiberTreeError, match="tree"):
            FiberTree(comps, ((0, 1), (1, 2), (0, 2)))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(FiberTreeError, match="duplicate"):
            FiberTree(
                (component(-1, 1), component(-1, 1)),
                ((0, 1), (1, 0)),
            )

    def test_edge_out_of_range(self):
        with pytest.raises(FiberTreeError, match="range"):
            FiberTree((component(0, 1),), ((0, 1),))

    def test_fiber_degree_mismatch_rejected(self):
        # center carried by two leaf branches does not meet F trivially
        comps = (component(-2, 1), component(-1, 1), component(-2, 1))
        with pytest.raises(FiberTreeError, match="degree"):
            FiberTree(comps, ((0, 1), (1, 2)))

    @pytest.mark.parametrize("edges", (
        ((0.0, 1),),
        ((0, 1.0),),
        ((False, True),),
        ((Fraction(0), 1),),
    ))
    def test_edge_endpoints_are_plain_ints(self, edges):
        # endpoints index the validation's per-component lists, and a
        # bool or a float is no index
        with pytest.raises(FiberTreeError, match="endpoints must be int"):
            FiberTree((component(-1, 1), component(-1, 1)), edges)

    def test_endpoint_type_checked_before_range(self):
        with pytest.raises(FiberTreeError, match="endpoints must be int"):
            FiberTree((component(0, 1),), ((0, 1.0), (0, 5)))
        with pytest.raises(FiberTreeError, match="range"):
            FiberTree((component(0, 1),), ((0, 5), (0, 1.0)))

    @pytest.mark.parametrize("components", (
        ((0, 1, 0),),
        ((-1, 1, 0), (-1, 1, 0)),
        (component(-1, 1), (-1, 1, 0)),
        # a list is stored as given, and the record's hash then raises
        [component(0, 1)],
        [component(-1, 1), component(-1, 1)],
    ))
    def test_components_are_records(self, components):
        with pytest.raises(FiberTreeError, match="FiberComponent"):
            FiberTree(components, ((0, 1),) if len(components) > 1 else ())

    @pytest.mark.parametrize("edges", (
        ((0, 1, 2),),
        ((0,),),
        ((),),
        (0, 1),
        ((0, 1), (1,)),
        ((5, 1, 0),),
    ))
    def test_edges_are_pairs(self, edges):
        # checked ahead of the endpoint checks on the same edge
        with pytest.raises(FiberTreeError, match="pair"):
            FiberTree((component(-1, 1), component(-1, 1)), edges)

    def test_k_degree_sum_enforced(self):
        # star passing every per-component check but summing K wrong:
        # center (-3, mult 2) with six (-2, mult 1) leaves
        comps = (component(-3, 2),) + tuple(
            component(-2, 1) for _ in range(6)
        )
        edges = tuple((0, i) for i in range(1, 7))
        with pytest.raises(FiberTreeError, match="K-degree"):
            FiberTree(comps, edges)


class TestContraction:
    def test_standard_degeneration_round_trip(self):
        t = blow_up_on_edge(once_blown(), 0, 1)
        assert [
            (c.self_intersection, c.multiplicity) for c in t.components
        ] == [(-2, 1), (-2, 1), (-1, 2)]
        back = contract_component(t, 2)
        assert [
            (c.self_intersection, c.multiplicity)
            for c in back.components
        ] == [(-1, 1), (-1, 1)]
        assert back.edges == ((0, 1),)

    def test_only_minus_one_contracts(self):
        t = blow_up_on_edge(once_blown(), 0, 1)
        with pytest.raises(FiberTreeError, match="contract"):
            contract_component(t, 0)

    def test_divisor_positive_component_refused(self):
        t = once_blown(d_degree=1)
        # index 1 is the fresh exceptional: divisor-trivial, contractible
        assert t.eligible_contractions() == [1]
        with pytest.raises(FiberTreeError, match="divisor"):
            contract_component(t, 0)

    @pytest.mark.parametrize("index", (2, 3, -1, -2))
    def test_no_such_component(self, index):
        t = once_blown()
        with pytest.raises(FiberTreeError, match="no such component"):
            contract_component(t, index)
        with pytest.raises(FiberTreeError, match="no such component"):
            reduce_tree(t, choose=lambda options: index)
        with pytest.raises(FiberTreeError, match="no such component"):
            blow_up_on_component(t, index)

    def test_blow_up_then_contract_is_identity(self):
        t = blow_up_on_edge(once_blown(), 0, 1)
        again = contract_component(blow_up_on_component(t, 1), 3)
        assert again == t

    def test_reduce_to_section_fiber(self):
        t = blow_up_on_edge(once_blown(), 0, 1)
        reduced, steps = reduce_tree(t)
        assert reduced.is_reduced_to_section_fiber()
        # contracted multiplicities: the (-1,2) center, then a (-1,1)
        assert [m for _, m in steps] == [2, 1]

    def test_one_validated_tree_per_reduction(self, monkeypatch):
        t = random_degeneration(random.Random(20261019), 0, 150)
        assert len(t.components) == 151
        validated = []
        post_init = FiberTree.__post_init__

        def counted(tree):
            validated.append(tree)
            post_init(tree)

        monkeypatch.setattr(FiberTree, "__post_init__", counted)
        reduced, steps = reduce_tree(t)
        assert len(steps) == 150
        assert reduced.is_reduced_to_section_fiber()
        assert len(validated) == 1 and validated[0] is reduced

    def test_divisor_degree_survives_reduction(self):
        t = blow_up_on_component(once_blown(d_degree=1), 0)
        assert t.d_degree() == 1
        reduced, _ = reduce_tree(t)
        assert reduced.d_degree() == 1


def random_degeneration(rng, d_degree, rounds):
    t = smooth_fiber(d_degree)
    for _ in range(rounds):
        if t.edges and rng.random() < 0.5:
            a, b = t.edges[rng.randrange(len(t.edges))]
            t = blow_up_on_edge(t, a, b)
        else:
            t = blow_up_on_component(t, rng.randrange(len(t.components)))
    return t


class TestCorpus:
    def test_twenty_simulated_degenerations(self):
        rng = random.Random(20260811)
        for _ in range(20):
            d0 = rng.randrange(2)
            t = random_degeneration(rng, d0, rng.randrange(1, 9))
            # constructor re-validated every step; spot-check the sums
            assert t.self_degree() == 0
            assert t.k_degree() == -2
            assert t.d_degree() == d0
            reduced, steps = reduce_tree(t)
            assert reduced.is_reduced_to_section_fiber()
            assert len(steps) == len(t.components) - 1

    def test_reduction_order_is_immaterial(self):
        rng = random.Random(20260812)
        for _ in range(10):
            t = random_degeneration(rng, 0, rng.randrange(2, 8))
            lowest, _ = reduce_tree(t)
            highest, _ = reduce_tree(t, choose=lambda opts: opts[-1])
            shuffled, _ = reduce_tree(
                t, choose=lambda opts: rng.choice(opts)
            )
            assert lowest == highest == shuffled


class TestAudit:
    def test_persisting_exceptional_contradiction(self):
        # a (-1) carrying divisor degree 1 next to a (-2): K-degrees
        # -1 and 0 sum to -1, not the -2 a fiber must carry
        report = minimality_audit([(-1, 1, 1), (-2, 1, 0)])
        assert report.k_degree_sum == -1
        assert report.contradiction
        assert "-2" in report.detail

    def test_healthy_fiber_passes(self):
        report = minimality_audit(smooth_fiber().components)
        assert report.k_degree_sum == -2
        assert not report.contradiction

    def test_accepts_component_objects(self):
        report = minimality_audit([component(-1, 2), component(-2, 1)])
        assert report.k_degree_sum == -2


class TestFiberedModel:
    def test_invariants(self):
        m = FiberedModel(2, 3, (once_blown(), smooth_fiber()))
        assert m.chi_structure == -1
        assert m.fiber_degree() == 0
        assert not m.is_relatively_minimal()

    def test_relatively_minimal_detection(self):
        m = FiberedModel(3, 5, (smooth_fiber(1),))
        assert m.is_relatively_minimal()

    def test_unequal_divisor_degrees_rejected(self):
        with pytest.raises(FiberTreeError, match="agree"):
            FiberedModel(2, 3, (smooth_fiber(0), smooth_fiber(1)))

    def test_characteristic_checked(self):
        with pytest.raises(FiberTreeError, match="characteristic"):
            FiberedModel(2, 6, (smooth_fiber(),))

    def test_negative_genus_rejected(self):
        with pytest.raises(FiberTreeError, match="genus"):
            FiberedModel(-1, 3, (smooth_fiber(),))

    @pytest.mark.parametrize("genus, p", (
        (2.5, 3), (True, 3), (2.0, 3), (2, 3.0), (2, True), (2, Fraction(3)),
    ))
    def test_numbers_are_plain_ints(self, genus, p):
        # FiberedModel(2.5, 3, ...) built with chi(O) = -1.5
        with pytest.raises(FiberTreeError, match="integers"):
            FiberedModel(genus, p, (smooth_fiber(),))

    @pytest.mark.parametrize("fibers", (
        [smooth_fiber()],
        (smooth_fiber(), smooth_fiber().components[0]),
        ((smooth_fiber(),),),
    ))
    def test_fibers_are_a_tuple_of_trees(self, fibers):
        with pytest.raises(FiberTreeError, match="tuple of FiberTree"):
            FiberedModel(2, 3, fibers)

    def test_reduce_model_trace(self):
        m = FiberedModel(
            2, 3, (blow_up_on_edge(once_blown(), 0, 1), once_blown())
        )
        reduced, trace = reduce_model(m)
        assert reduced.is_relatively_minimal()
        assert [s.fiber_index for s in trace] == [0, 0, 1]
        assert trace[0].multiplicity == 2


# The validation as it stood when it scanned every edge once per
# component (O(n^2) a tree); kept as the reference the edge-pass
# validation must match check for check and message for message.


def reference_neighbors(edges, i):
    out = []
    for a, b in edges:
        if a == i:
            out.append(b)
        elif b == i:
            out.append(a)
    return out


def reference_reachable(edges, start):
    stack, seen = [start], {start}
    while stack:
        v = stack.pop()
        for w in reference_neighbors(edges, v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def reference_fiber_degrees(comps, edges):
    return [
        c.multiplicity * c.self_intersection
        + sum(comps[j].multiplicity for j in reference_neighbors(edges, i))
        for i, c in enumerate(comps)
    ]


def reference_validate(comps, edges):
    """The normalised edges of a valid tree, or the refusal message."""
    n = len(comps)
    if n == 0:
        return "a fiber has at least one component"
    norm = []
    seen = set()
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            return "edge endpoints out of range"
        key = (min(i, j), max(i, j))
        if key in seen:
            return "duplicate edge"
        seen.add(key)
        norm.append(key)
    edges = tuple(sorted(norm))
    if len(edges) != n - 1:
        return "component graph must be a tree"
    if n > 1 and len(reference_reachable(edges, 0)) != n:
        return "component graph must be connected"
    for i, against in enumerate(reference_fiber_degrees(comps, edges)):
        if against != 0:
            return f"component {i} meets the fiber with degree {against}"
    k = sum(c.multiplicity * c.k_degree for c in comps)
    if k != -2:
        return f"fiber has K-degree {k}, needs -2"
    return edges


def corrupted(rng, tree):
    """The raw components and edges of ``tree`` with one corruption."""
    comps, edges = list(tree.components), list(tree.edges)
    n = len(comps)
    kinds = ["self", "mult", "none"]
    if edges:
        kinds += ["drop", "duplicate", "retarget", "shuffle"]
    kind = rng.choice(kinds)
    if kind == "drop":
        del edges[rng.randrange(len(edges))]
    elif kind == "duplicate":
        a, b = rng.choice(edges)
        edges.insert(rng.randrange(len(edges) + 1), (b, a))
    elif kind == "retarget":
        k = rng.randrange(len(edges))
        a, b = edges[k]
        other = rng.randrange(-1, n + 1)
        edges[k] = (other, b) if rng.random() < 0.5 else (a, other)
    elif kind == "shuffle":
        rng.shuffle(edges)
        edges = [e[::-1] if rng.random() < 0.5 else e for e in edges]
    elif kind in ("self", "mult"):
        k = rng.randrange(n)
        c = comps[k]
        step = rng.choice((-1, 1))
        if kind == "self":
            comps[k] = component(c.self_intersection + step, c.multiplicity,
                                 c.d_degree)
        else:
            comps[k] = component(c.self_intersection,
                                 max(1, c.multiplicity + step), c.d_degree)
    return tuple(comps), tuple(edges)


class TestEdgePassMatchesReference:
    def test_blow_up_trees_with_one_corruption(self):
        rng = random.Random(20261018)
        outcomes = set()
        for _ in range(1500):
            tree = random_degeneration(
                rng, rng.randrange(2), rng.randrange(0, 26)
            )
            comps, edges = corrupted(rng, tree)
            want = reference_validate(comps, edges)
            try:
                got = FiberTree(comps, edges)
            except FiberTreeError as ex:
                assert str(ex) == want
                outcomes.add(re.sub(r"-?\d+", "N", want))
                continue
            assert got.edges == want
            assert got.self_degree() == sum(
                c.multiplicity * against for c, against in
                zip(comps, reference_fiber_degrees(comps, want))
            ) == 0
            for i in range(len(comps)):
                assert got.neighbors(i) == reference_neighbors(want, i)
            outcomes.add("accepted")
        # every check fired at least once, and some trees passed them all
        assert outcomes == {
            "accepted",
            "edge endpoints out of range",
            "duplicate edge",
            "component graph must be a tree",
            "component graph must be connected",
            "component N meets the fiber with degree N",
            "fiber has K-degree N, needs N",
        }


# The reduction as it stood when it built and validated a new tree at
# every contraction; kept as the reference the in-place reduction must
# match tree for tree, step for step and message for message.


def reference_contract(tree, i):
    c = tree.components[i]
    if c.self_intersection != -1:
        raise FiberTreeError("only (-1)-components contract")
    if c.d_degree != 0:
        raise FiberTreeError("contraction must not meet the divisor")
    nbrs = reference_neighbors(tree.edges, i)
    if len(nbrs) > 2:
        raise FiberTreeError(
            "contraction would close a cycle; not a fiber tree"
        )
    comps = [
        component(d.self_intersection + 1, d.multiplicity, d.d_degree)
        if j in nbrs else d
        for j, d in enumerate(tree.components)
    ]
    del comps[i]
    edges = [e for e in tree.edges if i not in e]
    if len(nbrs) == 2:
        edges.append(nbrs)
    edges = [(a - (a > i), b - (b > i)) for a, b in edges]
    return FiberTree(tuple(comps), tuple(edges))


def reference_reduce(tree, choose=None):
    steps = []
    while True:
        options = tree.eligible_contractions()
        if not options:
            return tree, steps
        i = options[0] if choose is None else choose(options)
        steps.append((i, tree.components[i].multiplicity))
        tree = reference_contract(tree, i)


def outcome(move, *args):
    """The tree a move builds, or the message it refuses with."""
    try:
        return move(*args)
    except FiberTreeError as ex:
        return str(ex)


class TestReductionMatchesReference:
    def test_random_blow_up_trees(self):
        rng = random.Random(20261019)
        refused = set()
        for _ in range(120):
            tree = random_degeneration(
                rng, rng.choice((0, 0, 1, 2)), rng.randrange(0, 41)
            )
            seed = rng.random()
            # each run gets its own policy, so both see the same choices
            policies = (
                lambda: None,
                lambda: lambda options: options[-1],
                lambda: random.Random(seed).choice,
            )
            for policy in policies:
                assert (reduce_tree(tree, policy())
                        == reference_reduce(tree, policy()))
            for i in range(len(tree.components)):
                got = outcome(contract_component, tree, i)
                assert got == outcome(reference_contract, tree, i)
                if isinstance(got, str):
                    refused.add(got)
        # a (-1)-curve of a blow-up tree meets at most two others, so
        # the cycle refusal cannot fire here; the other two both did
        assert refused == {
            "only (-1)-components contract",
            "contraction must not meet the divisor",
        }
