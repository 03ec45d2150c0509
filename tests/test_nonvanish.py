"""Decision engine: classification, certificates and the routes of decide.

Worked numbers are frozen from hand calculations on the rank-2 lattice;
the chi product and euler bounds are cross-checked against the generic
Riemann-Roch oracle.
"""

import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svlab.fibered import (
    FiberedModel,
    blow_up_on_component,
    blow_up_on_edge,
    FiberTree,
    component,
)
from svlab.lattice import (
    DivisorClass,
    RuledModel,
    UnsupportedRegime,
    riemann_roch_chi,
)
from svlab.nonvanish import (
    CASE_A,
    CASE_B_I,
    CASE_B_II,
    CASE_C,
    CASE_C_M,
    CASE_CR,
    CASE_D_I,
    CASE_D_II,
    GUARANTEED_M1,
    GUARANTEED_M2,
    RULE_CANONICAL_SIGN,
    RULE_CHI_PRODUCT,
    RULE_DOUBLING,
    RULE_EULER_POSITIVE,
    RULE_FIBER_THRESHOLD,
    RULE_NU_ONE,
    RULE_STRUCTURE_CHI,
    RULED,
    UNDECIDED,
    ChiProduct,
    InconsistentScenario,
    InvalidScenario,
    PreconditionError,
    Scenario,
    classify,
    decide,
    doubling_bound,
    h2_vanishes,
    nu,
)

KV_MODEL = RuledModel(3, 4, -2)


def kv_scenario(**overrides):
    """The characteristic-3 half-curve scenario: D = 6F, B = C'/2 on the
    relatively minimal genus-4 model with e = -2."""
    base = dict(
        model=KV_MODEL,
        kodaira=RULED,
        chi_o=-3,
        q=4,
        relatively_minimal=True,
        divisor=KV_MODEL.divisor(0, 6),
        boundary=((KV_MODEL.divisor(3, -6), Fraction(1, 2)),),
    )
    base.update(overrides)
    return Scenario(**base)


def ruled_scenario(model, divisor, boundary=(), **overrides):
    base = dict(
        model=model,
        kodaira=RULED,
        chi_o=model.chi_structure,
        q=model.genus,
        relatively_minimal=model.is_pure,
        divisor=divisor,
        boundary=boundary,
    )
    base.update(overrides)
    return Scenario(**base)


def smooth_fiber(d=0):
    return FiberTree((component(0, 1, d),))


@st.composite
def blown_up_fibers(draw, d):
    """A fiber that starts as one 0-curve of divisor degree d, blown up
    on components and on points where two components cross."""
    tree = smooth_fiber(d)
    for _ in range(draw(st.integers(0, 8))):
        if tree.edges and draw(st.booleans()):
            tree = blow_up_on_edge(tree, *draw(st.sampled_from(tree.edges)))
        else:
            i = draw(st.integers(0, len(tree.components) - 1))
            tree = blow_up_on_component(tree, i)
    return tree


class TestScenarioValidation:
    def test_boundary_coefficient_range(self):
        for bad in (0, 1, Fraction(3, 2)):
            with pytest.raises(InvalidScenario, match="coefficient"):
                kv_scenario(
                    boundary=((KV_MODEL.divisor(3, -6), bad),)
                )

    @pytest.mark.parametrize("bad", (0.5, "1/2", True))
    def test_boundary_coefficient_is_an_int_or_fraction(self, bad):
        with pytest.raises(InvalidScenario, match="int or Fraction"):
            kv_scenario(boundary=((KV_MODEL.divisor(3, -6), bad),))

    @pytest.mark.parametrize("field, bad", [
        # each bad value equals the valid one or an accepted one; each
        # used to construct, and decide answered on it
        ("kodaira", True),
        ("kodaira", 2.0),
        ("kodaira", Fraction(2)),
        ("chi_o", -3.0),
        ("chi_o", Fraction(-3)),
        ("q", 4.0),
        ("q", True),
        ("relatively_minimal", 1),
        ("kappa_minus_k_nonneg", 0),
    ], ids=lambda v: v if isinstance(v, str) else type(v).__name__)
    def test_invariants_have_exact_types(self, field, bad):
        message = {
            "kodaira": "kodaira", "chi_o": "ints", "q": "ints",
            "relatively_minimal": "bool",
            "kappa_minus_k_nonneg": "None or a bool",
        }[field]
        with pytest.raises(InvalidScenario, match=message):
            kv_scenario(**{field: bad})

    def test_divisor_must_match_model(self):
        other = RuledModel(3, 4, -4)
        with pytest.raises(InvalidScenario, match="model"):
            kv_scenario(divisor=other.divisor(0, 6))

    def test_divisor_must_be_integral(self):
        with pytest.raises(InvalidScenario, match="integral"):
            kv_scenario(divisor=KV_MODEL.divisor(Fraction(1, 2), 6))

    def test_ruled_irregularity_coupling(self):
        with pytest.raises(InconsistentScenario, match="base genus"):
            kv_scenario(q=3)

    def test_ruled_chi_coupling(self):
        with pytest.raises(InconsistentScenario, match="chi"):
            kv_scenario(chi_o=0)

    def test_minimality_flag_coupling(self):
        with pytest.raises(InconsistentScenario, match="minimality"):
            kv_scenario(relatively_minimal=False)

    def test_zero_boundary_component_rejected(self):
        with pytest.raises(InvalidScenario, match="nonzero"):
            kv_scenario(
                boundary=((KV_MODEL.zero_class(), Fraction(1, 2)),)
            )

    def test_kodaira_range(self):
        with pytest.raises(InvalidScenario, match="kodaira"):
            kv_scenario(kodaira=3)

    def test_fibered_carries_no_divisor_class(self):
        fm = FiberedModel(2, 3, (smooth_fiber(),))
        with pytest.raises(InvalidScenario, match="trees"):
            Scenario(
                model=fm,
                kodaira=RULED,
                chi_o=-1,
                q=2,
                relatively_minimal=True,
                divisor=KV_MODEL.divisor(0, 1),
            )

    def test_fibered_couplings(self):
        fm = FiberedModel(2, 3, (smooth_fiber(),))
        with pytest.raises(InconsistentScenario, match="base genus"):
            Scenario(fm, RULED, -1, 3, True)
        with pytest.raises(InconsistentScenario, match="chi"):
            Scenario(fm, RULED, 0, 2, True)
        with pytest.raises(InconsistentScenario, match="minimality"):
            Scenario(fm, RULED, -1, 2, False)


class TestClassify:
    def test_zero_divisor_is_case_a(self):
        m = RuledModel(3, 0, 1)
        s = ruled_scenario(m, m.zero_class())
        assert classify(s) == CASE_A

    def test_irregular_ruled_is_case_c(self):
        s = kv_scenario(boundary=())
        assert classify(s) == CASE_C

    def test_single_negative_boundary_refines_to_c_m(self):
        assert classify(kv_scenario()) == CASE_C_M

    def test_boundary_squares_are_taken_once_per_scenario(
        self, monkeypatch
    ):
        # the negative boundary components are found once, however often
        # the scenario is classified and decided; the classify command
        # does both
        squared = []
        square = DivisorClass.self_intersection

        def counted(cls):
            squared.append(cls)
            return square(cls)

        monkeypatch.setattr(DivisorClass, "self_intersection", counted)
        s = kv_scenario()
        assert classify(s) == CASE_C_M
        assert decide(s).certificate["rule"] == RULE_CHI_PRODUCT
        assert squared == [KV_MODEL.divisor(3, -6)]

    def test_low_irregularity_ruled_is_case_b(self):
        m = RuledModel(3, 1, 0)
        assert classify(ruled_scenario(m, m.fiber_class())) == CASE_B_II

    def test_nonnegative_kodaira_with_chi(self):
        m = RuledModel(2, 0, 0)
        s = ruled_scenario(
            m, m.divisor(1, 1), kodaira=0, q=0, relatively_minimal=True
        )
        assert classify(s) == CASE_B_I

    def test_big_divisor_with_negated_flag_is_cr(self):
        m = KV_MODEL.blow_up()
        s = ruled_scenario(
            m,
            m.divisor(2, 9, 0),
            kappa_minus_k_nonneg=False,
        )
        assert classify(s) == CASE_CR

    def test_genus_one_fibration_characteristics(self):
        m = RuledModel(3, 4, -2, (), -1)
        s = ruled_scenario(m, m.fiber_class(), kodaira=1, chi_o=-1, q=3)
        assert classify(s) == CASE_D_I
        bad = RuledModel(5, 4, -2, (), -1)
        with pytest.raises(InvalidScenario, match="characteristic"):
            classify(
                ruled_scenario(
                    bad, bad.fiber_class(), kodaira=1, chi_o=-1, q=3
                )
            )

    def test_general_type_with_negative_chi(self):
        m = RuledModel(2, 3, 0, (), -2)
        s = ruled_scenario(m, m.fiber_class(), kodaira=2, chi_o=-2, q=1)
        assert classify(s) == CASE_D_II

    def test_kodaira_zero_with_negative_chi_fits_nothing(self):
        m = RuledModel(2, 3, 0, (), -2)
        s = ruled_scenario(m, m.fiber_class(), kodaira=0, chi_o=-2, q=1)
        with pytest.raises(InvalidScenario, match="case"):
            classify(s)


class TestCaseA:
    def test_del_pezzo_structure_sheaf(self):
        m = RuledModel(3, 0, 1)
        s = ruled_scenario(m, m.zero_class())
        v = decide(s)
        assert v.result == GUARANTEED_M1
        assert v.certificate["rule"] == RULE_STRUCTURE_CHI
        assert v.certificate["chi"] == 1

    def test_positive_irregularity_is_inconsistent(self):
        m = RuledModel(3, 1, 1)
        s = ruled_scenario(m, m.zero_class())
        with pytest.raises(InconsistentScenario, match="irregularity"):
            decide(s)

    def test_wrong_chi_is_inconsistent(self):
        m = RuledModel(2, 0, 0, (), 2)
        s = ruled_scenario(
            m, m.zero_class(), kodaira=0, q=0, relatively_minimal=True
        )
        with pytest.raises(InconsistentScenario, match="chi"):
            decide(s)

    def test_polarization_must_pass_ampleness(self):
        # e = 2: -K meets the section in degree 0, ample fails
        m = RuledModel(3, 0, 2)
        s = ruled_scenario(m, m.zero_class())
        with pytest.raises(PreconditionError, match="ample"):
            decide(s)


class TestCaseB:
    def test_chi_formula_frozen(self):
        m = RuledModel(2, 0, 0)
        s = ruled_scenario(
            m, m.fiber_class(), kodaira=0, q=0, relatively_minimal=True
        )
        assert decide(s).certificate["chi"] == 2

    def test_decide_rational_stand_in(self):
        m = RuledModel(2, 0, 0)
        s = ruled_scenario(
            m, m.divisor(1, 1), kodaira=0, q=0, relatively_minimal=True
        )
        v = decide(s)
        assert (v.case_label, v.result) == (CASE_B_I, GUARANTEED_M1)
        assert v.certificate["rule"] == RULE_EULER_POSITIVE
        assert v.certificate["chi"] == 4
        assert v.certificate["chi"] == riemann_roch_chi(m, s.divisor)

    def test_decide_refuses_a_riemann_roch_disagreement(self, monkeypatch):
        m = RuledModel(2, 0, 0)
        s = ruled_scenario(
            m, m.divisor(1, 1), kodaira=0, q=0, relatively_minimal=True
        )
        monkeypatch.setattr(
            "svlab.nonvanish.riemann_roch_chi",
            lambda model, d: riemann_roch_chi(model, d) + 1,
        )
        with pytest.raises(InconsistentScenario, match="chi = 4"):
            decide(s)

    def test_decide_elliptic_base(self):
        m = RuledModel(3, 1, 0)
        s = ruled_scenario(m, m.fiber_class())
        v = decide(s)
        assert (v.case_label, v.result) == (CASE_B_II, GUARANTEED_M1)
        assert v.certificate["chi"] == 1

    def test_zero_divisor_belongs_to_case_a(self):
        # q = 1 would fit case B_II; the vanishing divisor takes case A,
        # whose irregularity check refuses the data
        m = RuledModel(3, 1, 0)
        s = ruled_scenario(m, m.zero_class())
        assert classify(s) == CASE_A
        with pytest.raises(InconsistentScenario, match="irregularity"):
            decide(s)


class TestH2Vanishing:
    def test_half_curve_package(self):
        s = kv_scenario()
        k = KV_MODEL.canonical_class()
        assert h2_vanishes(k, s.divisor, s.divisor - k - s.boundary_class())

    def test_canonical_divisor_boundary(self):
        # D = K sits on the boundary (K-D).H = 0; the route refuses it
        # before that comparison, and refuses a non-ample H as well
        m = RuledModel(2, 0, 0)
        s = ruled_scenario(
            m,
            m.canonical_class(),
            kodaira=0,
            q=0,
            relatively_minimal=True,
        )
        with pytest.raises(PreconditionError, match="not nef"):
            decide(s)
        heavy = ruled_scenario(
            m,
            m.fiber_class(),
            boundary=((m.divisor(4), Fraction(3, 4)),),
            kodaira=0,
            q=0,
            relatively_minimal=True,
        )
        with pytest.raises(PreconditionError, match="ample"):
            decide(heavy)

    def test_certificate_feeds_sections(self):
        m = RuledModel(2, 0, 0)
        s = ruled_scenario(
            m, m.divisor(1, 1), kodaira=0, q=0, relatively_minimal=True
        )
        v = decide(s)
        assert v.result == GUARANTEED_M1
        assert v.certificate["h2"] == "(K-D).H < 0"


class TestFiberThreshold:
    def test_empty_boundary_fires(self):
        s = kv_scenario(boundary=())
        v = decide(s)
        assert v.result == GUARANTEED_M1
        assert v.certificate["rule"] == RULE_FIBER_THRESHOLD
        assert v.certificate["h_dot_f"] == 2

    def test_fractional_margin(self):
        s = kv_scenario(
            boundary=((KV_MODEL.section_class(), Fraction(1, 2)),)
        )
        v = decide(s)
        assert v.certificate["rule"] == RULE_FIBER_THRESHOLD
        assert v.certificate["h_dot_f"] == Fraction(3, 2)

    def test_boundary_value_one_passes_through(self):
        # H.F = 1 fails the threshold; the stripping route certifies
        s = kv_scenario(
            boundary=(
                (KV_MODEL.section_class(), Fraction(1, 2)),
                (KV_MODEL.divisor(1, 1), Fraction(1, 2)),
            )
        )
        assert "stripped" in decide(s).certificate

    def test_half_curve_package_passes_through(self):
        assert decide(kv_scenario()).certificate["rule"] == RULE_CHI_PRODUCT


class TestRelativelyMinimal:
    def test_strip_section_multiples(self):
        m = RuledModel(3, 2, 1)
        s = ruled_scenario(
            m,
            m.fiber_class(),
            boundary=(
                (m.section_class(), Fraction(1, 2)),
                (m.divisor(1, 2), Fraction(1, 2)),
            ),
        )
        v = decide(s)
        assert v.result == GUARANTEED_M1
        assert v.certificate["h_dot_f"] == Fraction(3, 2)
        assert "section" in v.certificate["stripped"]

    def test_negative_invariant_without_negative_boundary(self):
        s = kv_scenario(
            boundary=(
                (KV_MODEL.section_class(), Fraction(1, 2)),
                (KV_MODEL.divisor(1, 1), Fraction(3, 4)),
            )
        )
        v = decide(s)
        assert v.certificate["h_dot_f"] == 2
        assert "no negative" in v.certificate["stripped"]

    def test_two_negative_components_inconsistent(self):
        s = kv_scenario(
            boundary=(
                (KV_MODEL.divisor(3, -6), Fraction(1, 4)),
                (KV_MODEL.divisor(1, -2), Fraction(1, 4)),
            )
        )
        with pytest.raises(InconsistentScenario, match="rank-2"):
            decide(s)

    def test_requires_minimality(self):
        # the stripping data of test_strip_section_multiples, blown up
        m = RuledModel(3, 2, 1).blow_up()
        s = ruled_scenario(
            m,
            m.fiber_class(),
            boundary=(
                (m.section_class(), Fraction(1, 2)),
                (m.divisor(1, 2), Fraction(1, 2)),
            ),
        )
        v = decide(s)
        assert v.result == UNDECIDED
        assert "fiber-tree" in v.reason


def _half_product(p, g, e, x, y):
    """The product certificate for the boundary (1/2)(xE + yF) on a
    freshly built model."""
    return ChiProduct(RuledModel(p, g, e), Fraction(1, 2), x, y)


class TestChiProduct:
    def test_half_curve_numbers_frozen(self):
        v = _half_product(3, 4, -2, 3, -6).certify(0, 6)
        assert v.result == GUARANTEED_M1
        assert v.certificate["chi"] == 3
        assert v.certificate["ample_inequalities"] == (
            Fraction(1, 2),
            Fraction(1),
        )
        assert v.certificate["slack_chain"] == (
            Fraction(6),
            Fraction(9, 2),
            Fraction(3),
        )

    def test_decide_routes_the_package(self):
        v = decide(kv_scenario())
        assert (v.case_label, v.result) == (CASE_C_M, GUARANTEED_M1)
        assert v.certificate["rule"] == RULE_CHI_PRODUCT
        assert v.certificate["chi"] == 3

    def test_boundary_slack_rejected(self):
        # b = g - 1 leaves no slack: the ampleness inequalities fail
        with pytest.raises(PreconditionError, match="ample"):
            _half_product(3, 4, -2, 3, -6).certify(0, 3)

    def test_non_curve_component_rejected(self):
        with pytest.raises(PreconditionError, match="curve"):
            _half_product(3, 4, -2, 1, -6).certify(0, 6)

    def test_needs_negative_invariant(self):
        with pytest.raises(PreconditionError, match="e < 0"):
            _half_product(3, 4, 2, 3, -6).certify(0, 6)

    def test_refusals_keep_their_place_in_the_order(self):
        # G = E - 6F is no curve, but a divisor that is not nef is
        # refused as such first
        product = _half_product(3, 4, -2, 1, -6)
        with pytest.raises(PreconditionError, match="not nef"):
            product.certify(-1, 6)
        with pytest.raises(PreconditionError, match="curve"):
            product.certify(0, 6)
        # characteristic 0 leaves the curve check without its rules
        product = _half_product(0, 4, -2, 3, -6)
        with pytest.raises(PreconditionError, match="not nef"):
            product.certify(-1, 6)
        with pytest.raises(UnsupportedRegime):
            product.certify(0, 6)
        # the conditions on e, g and c come before everything else
        product = _half_product(3, 1, -2, 3, -6)
        with pytest.raises(PreconditionError, match="genus"):
            product.certify(-1, 6)

    def test_one_certifier_serves_every_divisor(self):
        product = _half_product(3, 4, -2, 3, -6)
        clone = pickle.loads(pickle.dumps(product))
        for a in range(0, 4):
            for b in range(5, 12):
                fresh = _half_product(3, 4, -2, 3, -6).certify(a, b)
                assert product.certify(a, b) == fresh
                assert clone.certify(a, b) == fresh

    def test_matches_generic_riemann_roch(self):
        rng = random.Random(20260813)
        successes = 0
        attempts = 0
        while successes < 1000 and attempts < 20000:
            attempts += 1
            g = rng.randrange(2, 7)
            e = -rng.randrange(1, 5)
            p = rng.choice((2, 3, 5, 7))
            x = p + rng.randrange(0, 3)
            y_min = Fraction(x * e, 2) + 1 - g
            y = math.ceil(y_min) + rng.randrange(0, 3)
            c = Fraction(rng.randrange(1, 8), 8)
            a = rng.randrange(0, 4)
            b = math.ceil(
                Fraction(a * e, 2) + (2 - c) * (g - 1)
            ) + rng.randrange(1, 6)
            model = RuledModel(p, g, e)
            try:
                v = ChiProduct(model, c, x, y).certify(a, b)
            except PreconditionError:
                continue
            successes += 1
            assert v.certificate["chi"] == riemann_roch_chi(
                model, model.divisor(a, b)
            )
        assert successes >= 1000


class TestLowFiberDegree:
    def test_decide_prefers_threshold_on_trees(self):
        tree = blow_up_on_component(smooth_fiber(), 0)
        fm = FiberedModel(2, 3, (tree,))
        s = Scenario(fm, RULED, -1, 2, False)
        v = decide(s)
        assert v.result == GUARANTEED_M1
        assert v.certificate["rule"] == RULE_FIBER_THRESHOLD
        assert v.certificate["h_dot_f"] == 2

    @settings(max_examples=200, derandomize=True, database=None,
              deadline=None)
    @given(st.data())
    def test_threshold_decides_every_fiber_tree(self, data):
        # components carry divisor degree d >= 0, so H.F = d + 2 > 1 and
        # the threshold settles every irregular fiber-tree scenario
        d = data.draw(st.sampled_from((0, 1, 2)))
        genus = data.draw(st.integers(0, 4))
        p = data.draw(st.sampled_from((0, 2, 3, 5)))
        fibers = data.draw(st.lists(blown_up_fibers(d), min_size=1,
                                    max_size=3))
        fm = FiberedModel(genus, p, tuple(fibers))
        v = decide(Scenario(fm, RULED, 1 - genus, genus,
                            fm.is_relatively_minimal()))
        if genus >= 2:
            assert (v.case_label, v.result, v.certificate) == (
                CASE_C, GUARANTEED_M1,
                {"rule": RULE_FIBER_THRESHOLD, "h_dot_f": d + 2},
            )
        else:
            assert (v.case_label, v.result) == (CASE_B_II, UNDECIDED)


class TestEulerBound:
    def setup_method(self):
        self.model = RuledModel(3, 2, 0).blow_up()

    def scenario(self, divisor, **overrides):
        return ruled_scenario(self.model, divisor, **overrides)

    def heavy(self, divisor, **overrides):
        """A boundary of fiber degree 3 keeps H.F <= 1, so decide passes
        the threshold by; D.(H+B) = D.(D-K) does not see it."""
        return self.scenario(
            divisor,
            boundary=((self.model.divisor(4, 0, 0), Fraction(3, 4)),),
            **overrides,
        )

    def test_bound_formula_frozen(self):
        assert doubling_bound(2, 4, 1) == Fraction(15, 4)

    def test_bound_needs_degree_two(self):
        with pytest.raises(PreconditionError, match="degree 2"):
            doubling_bound(1, 4, 1)

    def test_bound_monotone_in_polarization_degree(self):
        rng = random.Random(20260815)
        for _ in range(200):
            a = rng.randrange(2, 7)
            d_sq = rng.randrange(0, 30)
            dhb = Fraction(rng.randrange(1, 40), rng.randrange(1, 5))
            step = Fraction(rng.randrange(1, 10), rng.randrange(1, 5))
            assert doubling_bound(a, d_sq, dhb + step) >= doubling_bound(
                a, d_sq, dhb
            )

    def test_declared_canonical_sign_upgrades(self):
        s = self.heavy(
            self.model.divisor(2, 3, -2), kappa_minus_k_nonneg=True
        )
        v = decide(s)
        assert v.result == GUARANTEED_M1
        assert v.certificate["rule"] == RULE_CANONICAL_SIGN
        assert v.certificate["chi_lower_bound"] == 3
        assert v.certificate["doubling_bound"] == 15

    def test_numerical_dimension_one_upgrades(self):
        s = self.heavy(self.model.divisor(2, 9, -6))
        assert nu(s.divisor) == 1
        v = decide(s)
        assert v.result == GUARANTEED_M1
        assert v.certificate["rule"] == RULE_NU_ONE
        assert v.certificate["d_dot_h_plus_b"] == 8
        assert v.certificate["doubling_bound"] == 10

    def test_decide_reaches_the_doubling_bound(self):
        s = self.heavy(self.model.divisor(2, 3, -2))
        v = decide(s)
        assert (v.case_label, v.result) == (CASE_C, GUARANTEED_M2)
        assert v.certificate["rule"] == RULE_DOUBLING
        assert v.certificate["bound"] == 15
        assert v.certificate["fiber_degree"] == 2

    def test_canonical_flag_contradicted_by_degree(self):
        s = self.heavy(
            self.model.divisor(2, 1, 0), kappa_minus_k_nonneg=True
        )
        with pytest.raises(InconsistentScenario, match="D.K"):
            decide(s)

    def test_low_degree_without_trees_is_undecided(self):
        s = self.scenario(
            self.model.divisor(1, 3, -1),
            boundary=((self.model.divisor(4, 0, 0), Fraction(3, 4)),),
        )
        v = decide(s)
        assert v.result == UNDECIDED
        assert "fiber-tree" in v.reason


class TestNumericalDimension:
    def test_values(self):
        assert nu(KV_MODEL.zero_class()) == 0
        assert nu(KV_MODEL.divisor(0, 6)) == 1
        assert nu(KV_MODEL.section_class()) == 2

    def test_negative_square_rejected(self):
        blown = KV_MODEL.blow_up()
        with pytest.raises(PreconditionError, match="nef"):
            nu(blown.exceptional_class(0))


class TestOpenCases:
    def test_cr_stays_unknown(self):
        m = KV_MODEL.blow_up()
        s = ruled_scenario(
            m, m.divisor(2, 9, 0), kappa_minus_k_nonneg=False
        )
        assert classify(s) == CASE_CR
        v = decide(s)
        assert v.result == UNDECIDED
        assert "catalogue" in v.reason

    def test_case_d_stays_unknown(self):
        m = RuledModel(3, 4, -2, (), -1)
        s = ruled_scenario(m, m.fiber_class(), kodaira=1, chi_o=-1, q=3)
        v = decide(s)
        assert (v.case_label, v.result) == (CASE_D_I, UNDECIDED)
        m2 = RuledModel(2, 3, 0, (), -2)
        s2 = ruled_scenario(
            m2, m2.fiber_class(), kodaira=2, chi_o=-2, q=1
        )
        assert decide(s2).case_label == CASE_D_II


def corpus():
    """One scenario per decision route."""
    dp = RuledModel(3, 0, 1)
    b1 = RuledModel(2, 0, 0)
    b2 = RuledModel(3, 1, 0)
    strip = RuledModel(3, 2, 1)
    blown = RuledModel(3, 2, 0).blow_up()
    crm = KV_MODEL.blow_up()
    tree = blow_up_on_component(smooth_fiber(), 0)
    return [
        ruled_scenario(dp, dp.zero_class()),
        ruled_scenario(
            b1, b1.divisor(1, 1), kodaira=0, q=0, relatively_minimal=True
        ),
        ruled_scenario(b2, b2.fiber_class()),
        kv_scenario(boundary=()),
        kv_scenario(),
        ruled_scenario(
            strip,
            strip.fiber_class(),
            boundary=(
                (strip.section_class(), Fraction(1, 2)),
                (strip.divisor(1, 2), Fraction(1, 2)),
            ),
        ),
        ruled_scenario(
            blown,
            blown.divisor(2, 3, -2),
            boundary=((blown.divisor(4, 0, 0), Fraction(3, 4)),),
        ),
        ruled_scenario(
            crm, crm.divisor(2, 9, 0), kappa_minus_k_nonneg=False
        ),
        Scenario(FiberedModel(2, 3, (tree,)), RULED, -1, 2, False),
    ]


class TestDecideDiscipline:
    def test_corpus_labels_and_results(self):
        got = [(v.case_label, v.result) for v in map(decide, corpus())]
        assert got == [
            (CASE_A, GUARANTEED_M1),
            (CASE_B_I, GUARANTEED_M1),
            (CASE_B_II, GUARANTEED_M1),
            (CASE_C, GUARANTEED_M1),
            (CASE_C_M, GUARANTEED_M1),
            (CASE_C, GUARANTEED_M1),
            (CASE_C, GUARANTEED_M2),
            (CASE_CR, UNDECIDED),
            (CASE_C, GUARANTEED_M1),
        ]

    def test_guarantees_carry_certificates(self):
        for s in corpus():
            v = decide(s)
            if v.result not in (GUARANTEED_M1, GUARANTEED_M2):
                assert v.reason
                continue
            cert = v.certificate
            assert cert["rule"]
            assert (
                cert.get("chi", 0) > 0
                or cert.get("h_dot_f", 0) > 1
                or len(cert.get("trace", ())) > 0
                or cert.get("bound", 0) > 0
                or cert.get("chi_lower_bound", 0) > 0
                or cert.get("d_dot_h_plus_b", 0) > 0
            )

    def test_one_classify_per_decide(self, monkeypatch):
        calls = []

        def counting(s):
            calls.append(s)
            return classify(s)

        monkeypatch.setattr("svlab.nonvanish.classify", counting)
        for s in corpus():
            calls.clear()
            decide(s)
            assert len(calls) == 1

    def test_boundary_order_immaterial(self):
        s1 = kv_scenario(
            boundary=(
                (KV_MODEL.section_class(), Fraction(1, 2)),
                (KV_MODEL.divisor(1, 1), Fraction(3, 4)),
            )
        )
        s2 = kv_scenario(
            boundary=(
                (KV_MODEL.divisor(1, 1), Fraction(3, 4)),
                (KV_MODEL.section_class(), Fraction(1, 2)),
            )
        )
        assert decide(s1) == decide(s2)
