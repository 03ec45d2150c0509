"""KLT calculus: blow-up coefficient transport and verdicts."""

import random
from fractions import Fraction

import pytest

from svlab.kltcalc import (
    EXCEPTIONAL,
    ORIGINAL,
    ArrangementError,
    ClusterArrangement,
    ClusterNode,
    WeightedBranch,
    blowup_step,
    is_klt,
)


def fraction(item):
    """A branch's coefficient, or a blow-up record's sum sigma, from its
    numerator and denominator."""
    return Fraction(item.numerator, item.denominator)


def coefficient(rec):
    """A blow-up record's exceptional coefficient, sigma - 1."""
    return fraction(rec) - 1


def branches(*pairs):
    return tuple(
        WeightedBranch(bid, *Fraction(c).as_integer_ratio())
        for bid, c in pairs
    )


TRIPLE = ClusterArrangement(
    branches(("B1", Fraction(2, 5)), ("B2", Fraction(4, 5)),
             ("B3", Fraction(3, 4))),
    (ClusterNode(("B1", "B2", "B3")),),
)

TANGENT_PAIR = ClusterArrangement(
    branches(("B2", Fraction(4, 5)), ("B3", Fraction(3, 4))),
    (ClusterNode(("B2", "B3"), (ClusterNode(("B2", "B3")),)),),
)


class TestBlowupStep:
    # the incident coefficients arrive as one numerator sum over their
    # common denominator
    def test_triple_point(self):
        # 2/5 + 4/5 + 3/4 = (8 + 16 + 15)/20
        rec = blowup_step(8 + 16 + 15, 20)
        assert fraction(rec) == Fraction(39, 20)
        assert coefficient(rec) == Fraction(19, 20)
        assert -coefficient(rec) == Fraction(-19, 20)

    def test_tangent_pair_first_step(self):
        rec = blowup_step(16 + 15, 20)
        assert coefficient(rec) == Fraction(11, 20)

    def test_empty_point(self):
        rec = blowup_step(0, 1)
        assert coefficient(rec) == -1
        assert -coefficient(rec) == 1

    def test_fields_are_reduced_fractions(self):
        rec = blowup_step(9, 6, "n0")
        assert rec == blowup_step(3, 2, "n0")
        assert (rec.numerator, rec.denominator) == (3, 2)
        assert coefficient(rec) == Fraction(1, 2)


class TestIsKlt:
    def test_three_transverse_branches(self):
        verdict, trace = is_klt(TRIPLE)
        assert verdict is True
        assert len(trace.records) == 1
        assert coefficient(trace.records[0]) == Fraction(19, 20)

    def test_tangent_pair_fails(self):
        verdict, trace = is_klt(TANGENT_PAIR)
        assert verdict is False
        assert [coefficient(r) for r in trace.records] == [
            Fraction(11, 20),
            Fraction(11, 10),
        ]
        assert -coefficient(trace.records[1]) == Fraction(-11, 10)
        assert trace.records[1].node == "n0.0"

    def test_single_smooth_branch(self):
        arr = ClusterArrangement(branches(("B", Fraction(9, 10))))
        verdict, trace = is_klt(arr)
        assert verdict is True
        assert trace.records == ()

    def test_contact_order_chain(self):
        # contact order k gives i*(s-1) at depth i, s the coefficient sum
        rng = random.Random(20260811)
        for _ in range(100):
            c1 = Fraction(rng.randrange(0, 20), 20)
            c2 = Fraction(rng.randrange(0, 20), 20)
            k = rng.randrange(1, 6)
            node = ClusterNode(("A", "B"))
            for _ in range(k - 1):
                node = ClusterNode(("A", "B"), (node,))
            arr = ClusterArrangement(
                branches(("A", c1), ("B", c2)), (node,)
            )
            verdict, trace = is_klt(arr)
            s = c1 + c2
            assert [coefficient(r) for r in trace.records] == [
                i * (s - 1) for i in range(1, k + 1)
            ]
            assert verdict == (k * (s - 1) < 1)

    def test_chain_deeper_than_the_recursion_limit(self):
        depth = 5000
        node = ClusterNode(("A", "B"))
        for _ in range(depth - 1):
            node = ClusterNode(("A", "B"), (node,))
        arr = ClusterArrangement(
            branches(("A", Fraction(1, 4)), ("B", Fraction(1, 4))), (node,)
        )
        verdict, trace = is_klt(arr)
        assert verdict is True
        assert len(trace.records) == depth
        assert coefficient(trace.records[-1]) == Fraction(-depth, 2)
        assert trace.records[-1].node == "n0" + ".0" * (depth - 1)

    def test_wide_forest_resolves_every_root(self):
        roots = 5000
        arr = ClusterArrangement(
            branches(*[
                (f"r{r}{side}", Fraction(r % 7, 10))
                for r in range(roots) for side in "uv"
            ]),
            tuple(ClusterNode((f"r{r}u", f"r{r}v")) for r in range(roots)),
        )
        verdict, trace = is_klt(arr)
        assert verdict is True
        assert [r.node for r in trace.records] == [
            f"n{r}" for r in range(roots)
        ]
        assert [fraction(r) for r in trace.records] == [
            Fraction(2 * (r % 7), 10) for r in range(roots)
        ]

    def test_preorder_labels_and_parent_coefficients(self):
        # n0 -> (n0.0 -> n0.0.0), n0.1, then the second root n1
        arr = ClusterArrangement(
            branches(("A", Fraction(1, 2)), ("B", Fraction(1, 3)),
                     ("C", Fraction(1, 5)), ("D", Fraction(1, 7))),
            (
                ClusterNode(("A", "B", "C", "D"), (
                    ClusterNode(("A", "B"), (ClusterNode(("A", "B")),)),
                    ClusterNode(("C", "D")),
                )),
                ClusterNode(("C", "D")),
            ),
        )
        _, trace = is_klt(arr)
        a, b, c, d = (Fraction(1, k) for k in (2, 3, 5, 7))
        n0 = a + b + c + d - 1
        n00 = a + b + n0 - 1
        assert [(r.node, coefficient(r)) for r in trace.records] == [
            ("n0", n0),
            ("n0.0", n00),
            ("n0.0.0", a + b + n00 - 1),
            ("n0.1", c + d + n0 - 1),
            ("n1", c + d - 1),
        ]

    def test_transverse_pairs_always_klt(self):
        for i in range(0, 10):
            for j in range(0, 10):
                arr = ClusterArrangement(
                    branches(("A", Fraction(i, 10)), ("B", Fraction(j, 10))),
                    (ClusterNode(("A", "B")),),
                )
                assert is_klt(arr)[0] is True

    def test_monotonicity(self):
        # raising a coefficient never repairs a failing verdict
        rng = random.Random(20260812)
        for _ in range(100):
            c1 = Fraction(rng.randrange(0, 20), 20)
            c2 = Fraction(rng.randrange(0, 20), 20)
            k = rng.randrange(1, 5)
            node = ClusterNode(("A", "B"))
            for _ in range(k - 1):
                node = ClusterNode(("A", "B"), (node,))

            def verdict(a, b):
                arr = ClusterArrangement(
                    branches(("A", a), ("B", b)), (node,)
                )
                return is_klt(arr)[0]

            before = verdict(c1, c2)
            bump = Fraction(rng.randrange(0, 20 - c1.numerator * 20
                                          // c1.denominator), 20)
            after = verdict(min(c1 + bump, Fraction(19, 20)), c2)
            if not before:
                assert not after

    def test_permutation_invariance(self):
        rng = random.Random(20260813)
        for _ in range(60):
            names = ["A", "B", "C", "D"]
            coeffs = {n: Fraction(rng.randrange(0, 20), 20) for n in names}
            roots = [
                ClusterNode(("A", "B"), (ClusterNode(("A", "B")),)),
                ClusterNode(("C", "D")),
            ]
            base = ClusterArrangement(
                branches(*[(n, coeffs[n]) for n in names]), tuple(roots)
            )
            shuffled_names = names[:]
            rng.shuffle(shuffled_names)
            perm = ClusterArrangement(
                branches(*[(n, coeffs[n]) for n in shuffled_names]),
                tuple(reversed(roots)),
            )
            assert is_klt(base)[0] == is_klt(perm)[0]


class TestValidation:
    def test_original_coefficient_range(self):
        # n/d is tested as 0 <= n < d, in any terms; an exceptional
        # branch takes any coefficient
        for num, den in ((1, 1), (-1, 2), (2, 2), (4, 2), (7, 6)):
            with pytest.raises(ArrangementError, match=r"in \[0, 1\)"):
                WeightedBranch("B", num, den)
            assert fraction(WeightedBranch("B", num, den, EXCEPTIONAL)) == (
                Fraction(num, den))

    @pytest.mark.parametrize("coefficient", (0.1, 0.5, "1/3", True, None))
    def test_numerator_must_be_an_int(self, coefficient):
        # a float would arrive as its binary expansion and a string would
        # be parsed, so neither is a numerator, and a bool is no int
        with pytest.raises(ArrangementError, match="int numerator"):
            WeightedBranch("a", coefficient)

    @pytest.mark.parametrize("num, den", (
        (Fraction(1, 2), 1), (1, Fraction(2)), (1, 2.0), (1, True),
        (1, 0), (1, -2), (-1, -2),
    ))
    def test_coefficient_is_an_int_over_a_positive_int(self, num, den):
        for kind in (ORIGINAL, EXCEPTIONAL):
            with pytest.raises(ArrangementError, match="int numerator over"
                               " a positive int denominator"):
                WeightedBranch("a", num, den, kind)

    def test_node_needs_two_branches(self):
        arr = ClusterArrangement(
            branches(("A", Fraction(1, 2)), ("B", Fraction(1, 2))),
            (ClusterNode(("A",)),),
        )
        with pytest.raises(ArrangementError):
            is_klt(arr)

    def test_child_subset_of_parent(self):
        arr = ClusterArrangement(
            branches(("A", Fraction(1, 2)), ("B", Fraction(1, 2)),
                     ("C", Fraction(1, 2))),
            (ClusterNode(("A", "B"), (ClusterNode(("A", "C")),)),),
        )
        with pytest.raises(ArrangementError):
            is_klt(arr)

    def test_siblings_disjoint(self):
        arr = ClusterArrangement(
            branches(("A", Fraction(1, 2)), ("B", Fraction(1, 2)),
                     ("C", Fraction(1, 2))),
            (ClusterNode(
                ("A", "B", "C"),
                (ClusterNode(("A", "B")), ClusterNode(("A", "C"))),
            ),),
        )
        with pytest.raises(ArrangementError):
            is_klt(arr)

    def test_unknown_branch_id(self):
        arr = ClusterArrangement(
            branches(("A", Fraction(1, 2)), ("B", Fraction(1, 2))),
            (ClusterNode(("A", "Z")),),
        )
        with pytest.raises(ArrangementError):
            is_klt(arr)

    def test_unknown_branch_lookup(self):
        arr = ClusterArrangement(branches(("A", Fraction(1, 2))))
        assert fraction(arr.branch("A")) == Fraction(1, 2)
        with pytest.raises(ArrangementError, match="unknown branch id 'Z'"):
            arr.branch("Z")

    def test_errors_surface_in_preorder(self):
        # the first child's subtree is checked before the second child
        # is compared with its sibling, and a later sibling never is
        arr = ClusterArrangement(
            branches(("A", Fraction(1, 2)), ("B", Fraction(1, 2)),
                     ("C", Fraction(1, 2))),
            (ClusterNode(("A", "B", "C"), (
                ClusterNode(("A", "B"), (ClusterNode(("A", "C")),)),
                ClusterNode(("A", "C")),
            )),),
        )
        with pytest.raises(ArrangementError, match="pass through the parent"):
            is_klt(arr)
        arr = ClusterArrangement(
            arr.branches,
            (ClusterNode(("A", "B", "C"), (
                ClusterNode(("A", "B")),
                ClusterNode(("A", "C")),
                ClusterNode(("C",)),
            )),),
        )
        with pytest.raises(ArrangementError, match="two siblings"):
            is_klt(arr)

    def test_duplicate_branch_id(self):
        with pytest.raises(ArrangementError, match="duplicate branch id 'A'"):
            ClusterArrangement(
                branches(("A", Fraction(1, 2)), ("A", Fraction(1, 3))),
            )


@pytest.mark.parametrize("kind", ("strange", "", "Original", None))
def test_unknown_branch_kind_refused(kind):
    with pytest.raises(ArrangementError, match="unknown branch kind"):
        WeightedBranch("a", 1, 2, kind)
