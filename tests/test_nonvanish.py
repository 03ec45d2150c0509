"""Decision engine: classification, certificates and the routes of decide.

Worked numbers are frozen from hand calculations on the rank-2 lattice;
the chi product and euler bounds are cross-checked against the generic
Riemann-Roch oracle.
"""

import hashlib
import math
import pickle
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svlab.nonvanish as nonvanish
from svlab.chiproduct import ChiProduct
from svlab.fibered import (
    FiberedModel,
    blow_up_on_component,
    blow_up_on_edge,
    FiberTree,
    component,
)
from svlab.lattice import (
    VIOLATED,
    DivisorClass,
    InconsistentScenario,
    LatticeError,
    PreconditionError,
    RuledModel,
    certify_positivity,
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
    InvalidScenario,
    Scenario,
    Verdict,
    certify_chi_product,
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
        boundary=((KV_MODEL.divisor(3, -6), (1, 2)),),
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
        for bad in ((0, 1), (1, 1), (3, 2)):
            with pytest.raises(InvalidScenario, match="outside"):
                kv_scenario(
                    boundary=((KV_MODEL.divisor(3, -6), bad),)
                )

    @pytest.mark.parametrize("bad", (
        0.5, "1/2", True, Fraction(1, 2), (2, 4), (-1, -2), (1, 2.0),
        (True, 2), (1, 2, 1),
    ), ids=lambda v: v if isinstance(v, str) else repr(v))
    def test_coefficient_must_be_a_reduced_pair(self, bad):
        with pytest.raises(InvalidScenario, match="reduced"):
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
            kv_scenario(divisor=KV_MODEL.class_of([(1, 2), (6, 1)]))

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
                boundary=((KV_MODEL.zero_class(), (1, 2)),)
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


EULER_MODEL = RuledModel(3, 2, 0).blow_up()


@pytest.mark.parametrize("call, refusal, match", [
    pytest.param(lambda: Scenario("no model", RULED, -1, 2, True),
                 InvalidScenario, "lattice or fiber data", id="no-model"),
    pytest.param(lambda: Scenario(
        FiberedModel(2, 3, (smooth_fiber(),)), 0, -1, 2, True),
        InvalidScenario, "ruled", id="fibered-not-ruled"),
    pytest.param(lambda: Scenario(KV_MODEL, RULED, -3, 4, True),
                 InvalidScenario, "need a divisor class", id="no-divisor"),
    pytest.param(lambda: kv_scenario(boundary=(
        (RuledModel(3, 4, -4).divisor(3, -6), (1, 2)),)),
        InvalidScenario, "boundary class lives", id="boundary-off-model"),
    # D = 2E + F has D.K = 2 > 0 against the declared canonical sign;
    # the heavy boundary keeps H.F = 1, so the euler bound route runs
    pytest.param(lambda: decide(ruled_scenario(
        EULER_MODEL, EULER_MODEL.divisor(2, 1, 0),
        boundary=((EULER_MODEL.divisor(4, 0, 0), (3, 4)),),
        kappa_minus_k_nonneg=True)),
        InconsistentScenario, "D.K <= 0, got 2", id="canonical-sign"),
])
def test_live_refusals(call, refusal, match):
    with pytest.raises(refusal, match=match):
        call()


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
        dot = DivisorClass.dot

        def counted(cls, other):
            if other is cls:
                squared.append(cls)
            return dot(cls, other)

        monkeypatch.setattr(DivisorClass, "dot", counted)
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
        m = RuledModel(3, 4, -2)
        s = ruled_scenario(m, m.fiber_class(), kodaira=1, chi_o=-3, q=3)
        assert classify(s) == CASE_D_I
        bad = RuledModel(5, 4, -2)
        with pytest.raises(InvalidScenario, match="characteristic"):
            classify(
                ruled_scenario(
                    bad, bad.fiber_class(), kodaira=1, chi_o=-3, q=3
                )
            )

    def test_general_type_with_negative_chi(self):
        m = RuledModel(2, 3, 0)
        s = ruled_scenario(m, m.fiber_class(), kodaira=2, chi_o=-2, q=1)
        assert classify(s) == CASE_D_II

    def test_kodaira_zero_with_negative_chi_fits_nothing(self):
        m = RuledModel(2, 3, 0)
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
        # chi(O) = 1 - g = 0 with q = 0
        m = RuledModel(2, 1, 0)
        s = ruled_scenario(
            m, m.zero_class(), kodaira=0, q=0, relatively_minimal=True
        )
        with pytest.raises(InconsistentScenario, match="chi"):
            decide(s)

    def test_chi_o_one_hypothesis_refuses_by_its_message(self):
        # case A's row checks q = 0, which holds, then chi(O) = 1, which
        # fails: chi(O) = 1 - g = -1 on a genus-2 base.  The refusal
        # names case A's argument: D = 0 with H = -(K + B) ample makes
        # -K big, so the surface is rational, whatever kodaira declares
        m = RuledModel(3, 2, -1)
        s = ruled_scenario(m, m.zero_class(), kodaira=0, q=0,
                           relatively_minimal=True)
        with pytest.raises(InconsistentScenario) as ex:
            decide(s)
        assert str(ex.value) == (
            "a vanishing nef divisor with ample polarization forces"
            " chi(O) = 1"
        )
        assert str(ex.value) == nonvanish.HYPOTHESES["chi(O) = 1"][2]

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
        assert decide(s).certificate["chi"] == "2"

    def test_decide_rational_stand_in(self):
        m = RuledModel(2, 0, 0)
        s = ruled_scenario(
            m, m.divisor(1, 1), kodaira=0, q=0, relatively_minimal=True
        )
        v = decide(s)
        assert (v.case_label, v.result) == (CASE_B_I, GUARANTEED_M1)
        assert v.certificate["rule"] == RULE_EULER_POSITIVE
        assert v.certificate["chi"] == "4"
        assert Fraction(v.certificate["chi"]) == Fraction(
            *riemann_roch_chi(m, s.divisor))

    def test_decide_refuses_a_riemann_roch_disagreement(self, monkeypatch):
        m = RuledModel(2, 0, 0)
        s = ruled_scenario(
            m, m.divisor(1, 1), kodaira=0, q=0, relatively_minimal=True
        )
        def shifted(model, d):
            num, den = riemann_roch_chi(model, d)
            return num + den, den

        monkeypatch.setattr("svlab.nonvanish.riemann_roch_chi", shifted)
        with pytest.raises(InconsistentScenario, match="chi = 4"):
            decide(s)

    def test_decide_elliptic_base(self):
        m = RuledModel(3, 1, 0)
        s = ruled_scenario(m, m.fiber_class())
        v = decide(s)
        assert (v.case_label, v.result) == (CASE_B_II, GUARANTEED_M1)
        assert v.certificate["chi"] == "1"

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
            boundary=((m.divisor(4), (3, 4)),),
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
        assert v.certificate["h_dot_f"] == "2"

    def test_fractional_margin(self):
        s = kv_scenario(
            boundary=((KV_MODEL.section_class(), (1, 2)),)
        )
        v = decide(s)
        assert v.certificate["rule"] == RULE_FIBER_THRESHOLD
        assert v.certificate["h_dot_f"] == "3/2"

    def test_boundary_value_one_passes_through(self):
        # H.F = 1 fails the threshold; the stripping route certifies
        s = kv_scenario(
            boundary=(
                (KV_MODEL.section_class(), (1, 2)),
                (KV_MODEL.divisor(1, 1), (1, 2)),
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
                (m.section_class(), (1, 2)),
                (m.divisor(1, 2), (1, 2)),
            ),
        )
        v = decide(s)
        assert v.result == GUARANTEED_M1
        assert v.certificate["h_dot_f"] == "3/2"
        assert "section" in v.certificate["stripped"]

    def test_strip_falls_through(self):
        # e = 1: the section multiples strip to H.F = D.F + 2 - 1 = 1 for
        # D = F, and to 2 + 2 - 3 = 1 for D = 2E + 4F, so neither the
        # threshold nor the strip fires; the euler bound takes fiber
        # degree two, and fiber degree zero stays unknown
        m = RuledModel(3, 2, 1)
        sec = m.section_class()
        low = decide(ruled_scenario(
            m, m.fiber_class(), ((sec, (1, 2)),) * 2,
        ))
        assert (low.case_label, low.result, low.reason) == (
            CASE_C, UNDECIDED,
            "low fiber degree without fiber-tree data; no certificate"
            " applies",
        )
        high = decide(ruled_scenario(
            m, m.divisor(2, 4), ((sec, (3, 4)),) * 4,
        ))
        assert (high.case_label, high.result) == (CASE_C, GUARANTEED_M2)
        assert high.certificate["rule"] == RULE_DOUBLING

    def test_negative_invariant_without_negative_boundary(self):
        s = kv_scenario(
            boundary=(
                (KV_MODEL.section_class(), (1, 2)),
                (KV_MODEL.divisor(1, 1), (3, 4)),
            )
        )
        v = decide(s)
        assert v.certificate["h_dot_f"] == "2"
        assert "no negative" in v.certificate["stripped"]

    def test_two_negative_components_inconsistent(self):
        s = kv_scenario(
            boundary=(
                (KV_MODEL.divisor(3, -6), (1, 4)),
                (KV_MODEL.divisor(1, -2), (1, 4)),
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
                (m.section_class(), (1, 2)),
                (m.divisor(1, 2), (1, 2)),
            ),
        )
        v = decide(s)
        assert v.result == UNDECIDED
        assert "fiber-tree" in v.reason


def _half_product(p, g, e, x, y):
    """The product certificate for the boundary (1/2)(xE + yF) on a
    freshly built model."""
    return ChiProduct(RuledModel(p, g, e), 1, 2, x, y)


class TestChiProduct:
    def test_half_curve_numbers_frozen(self):
        v = certify_chi_product(_half_product(3, 4, -2, 3, -6), 0, 6)
        assert v.result == GUARANTEED_M1
        assert v.certificate["chi"] == 3
        assert v.certificate["ample_inequalities"] == ("1/2", "1")
        assert v.certificate["slack_chain"] == ("6", "9/2", 3)
        assert v.certificate["coefficient"] == "1/2"

    def test_decide_routes_the_package(self):
        v = decide(kv_scenario())
        assert (v.case_label, v.result) == (CASE_C_M, GUARANTEED_M1)
        assert v.certificate["rule"] == RULE_CHI_PRODUCT
        assert v.certificate["chi"] == 3

    def test_boundary_slack_rejected(self):
        # b = g - 1 leaves no slack: the ampleness inequalities fail
        with pytest.raises(PreconditionError, match="ample"):
            certify_chi_product(_half_product(3, 4, -2, 3, -6), 0, 3)

    def test_non_curve_component_rejected(self):
        with pytest.raises(PreconditionError, match="curve"):
            certify_chi_product(_half_product(3, 4, -2, 1, -6), 0, 6)

    def test_needs_negative_invariant(self):
        with pytest.raises(PreconditionError, match="e < 0"):
            certify_chi_product(_half_product(3, 4, 2, 3, -6), 0, 6)

    @pytest.mark.parametrize("c", (0, 1, Fraction(3, 2)))
    def test_coefficient_outside_the_unit_interval(self, c):
        # both readers refuse such a coefficient first; a direct caller
        # meets this refusal
        num, den = Fraction(c).as_integer_ratio()
        with pytest.raises(PreconditionError) as refused:
            ChiProduct(KV_MODEL, num, den, 3, -6).check(0, 6)
        assert str(refused.value) == "boundary coefficient must sit in (0,1)"

    @pytest.mark.parametrize("num, den", ((2, 2), (6, 4), (-1, 3)))
    def test_unreduced_coefficient_outside_the_unit_interval(self, num, den):
        # c = n/d is tested as 0 < n < d, in any terms
        with pytest.raises(PreconditionError) as refused:
            ChiProduct(KV_MODEL, num, den, 3, -6).check(0, 6)
        assert str(refused.value) == "boundary coefficient must sit in (0,1)"

    @pytest.mark.parametrize("num, den", (
        (Fraction(1, 2), 1), (0.5, 1), (True, 2), ("1", 2),
        (1, 0), (1, -2), (1, 2.0), (1, True),
    ))
    def test_coefficient_is_an_int_over_a_positive_int(self, num, den):
        # refused at construction, before any check runs
        with pytest.raises(LatticeError, match="int numerator over a"
                           " positive int denominator"):
            ChiProduct(KV_MODEL, num, den, 3, -6)

    @pytest.mark.parametrize("x, y", (
        (Fraction(3), -6), (3, Fraction(-6)), (3.0, -6), (True, -6),
    ))
    def test_curve_coefficients_are_ints(self, x, y):
        # refused at construction, so the inequalities run on ints
        with pytest.raises(LatticeError, match="int coefficients"):
            ChiProduct(KV_MODEL, 1, 2, x, y)

    def test_refusals_keep_their_place_in_the_order(self):
        # G = E - 6F is no curve, but a divisor that is not nef is
        # refused as such first
        product = _half_product(3, 4, -2, 1, -6)
        with pytest.raises(PreconditionError, match="not nef"):
            certify_chi_product(product, -1, 6)
        with pytest.raises(PreconditionError, match="curve"):
            certify_chi_product(product, 0, 6)
        # in characteristic 0 the cone has no x >= p branch, so the
        # curve 3E - 6F of characteristic 3 is no curve
        product = _half_product(0, 4, -2, 3, -6)
        with pytest.raises(PreconditionError, match="not nef"):
            certify_chi_product(product, -1, 6)
        with pytest.raises(PreconditionError,
                           match=r"^3E \+ -6F cannot be a curve"):
            certify_chi_product(product, 0, 6)
        # the conditions on e, g and c come before everything else
        product = _half_product(3, 1, -2, 3, -6)
        with pytest.raises(PreconditionError, match="genus"):
            certify_chi_product(product, -1, 6)

    def test_one_certifier_serves_every_divisor(self):
        product = _half_product(3, 4, -2, 3, -6)
        clone = pickle.loads(pickle.dumps(product))
        for a in range(0, 4):
            for b in range(5, 12):
                fresh = certify_chi_product(
                    _half_product(3, 4, -2, 3, -6), a, b)
                assert certify_chi_product(product, a, b) == fresh
                assert certify_chi_product(clone, a, b) == fresh

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
                v = certify_chi_product(
                    ChiProduct(model, c.numerator, c.denominator, x, y), a, b)
            except PreconditionError:
                continue
            successes += 1
            assert v.certificate["chi"] == Fraction(*riemann_roch_chi(
                model, model.divisor(a, b)
            ))
        assert successes >= 1000


class TestLowFiberDegree:
    def test_decide_prefers_threshold_on_trees(self):
        tree = blow_up_on_component(smooth_fiber(), 0)
        fm = FiberedModel(2, 3, (tree,))
        s = Scenario(fm, RULED, -1, 2, False)
        v = decide(s)
        assert v.result == GUARANTEED_M1
        assert v.certificate["rule"] == RULE_FIBER_THRESHOLD
        assert v.certificate["h_dot_f"] == "2"

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
                {"rule": RULE_FIBER_THRESHOLD, "h_dot_f": str(d + 2)},
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
            boundary=((self.model.divisor(4, 0, 0), (3, 4)),),
            **overrides,
        )

    def test_bound_formula_frozen(self):
        # (2a+1)((a-1)D^2 + a D.(H+B)) = 5 (4 + 2) over 2a^2 = 8
        assert doubling_bound(2, 4, 1) == (30, 8)
        assert Fraction(*doubling_bound(2, 4, 1)) == Fraction(15, 4)

    def test_bound_needs_degree_two(self):
        with pytest.raises(PreconditionError, match="degree 2"):
            doubling_bound(1, 4, 1)

    def test_bound_monotone_in_polarization_degree(self):
        rng = random.Random(20260815)
        for _ in range(200):
            a = rng.randrange(2, 7)
            d_sq = rng.randrange(0, 30)
            dhb = rng.randrange(1, 40)
            step = rng.randrange(1, 10)
            assert Fraction(*doubling_bound(a, d_sq, dhb + step)) \
                >= Fraction(*doubling_bound(a, d_sq, dhb))

    def test_declared_canonical_sign_upgrades(self):
        s = self.heavy(
            self.model.divisor(2, 3, -2), kappa_minus_k_nonneg=True
        )
        v = decide(s)
        assert v.result == GUARANTEED_M1
        assert v.certificate["rule"] == RULE_CANONICAL_SIGN
        assert v.certificate["chi_lower_bound"] == "3"
        assert v.certificate["doubling_bound"] == "15"

    def test_numerical_dimension_one_upgrades(self):
        s = self.heavy(self.model.divisor(2, 9, -6))
        assert nu(s.divisor) == 1
        v = decide(s)
        assert v.result == GUARANTEED_M1
        assert v.certificate["rule"] == RULE_NU_ONE
        assert v.certificate["d_dot_h_plus_b"] == 8
        assert v.certificate["doubling_bound"] == "10"

    def test_decide_reaches_the_doubling_bound(self):
        s = self.heavy(self.model.divisor(2, 3, -2))
        v = decide(s)
        assert (v.case_label, v.result) == (CASE_C, GUARANTEED_M2)
        assert v.certificate["rule"] == RULE_DOUBLING
        assert v.certificate["bound"] == "15"
        assert v.certificate["fiber_degree"] == 2

    def test_canonical_flag_contradicted_by_degree(self):
        s = self.heavy(
            self.model.divisor(2, 1, 0), kappa_minus_k_nonneg=True
        )
        with pytest.raises(InconsistentScenario, match="D.K"):
            decide(s)

    @pytest.mark.parametrize("divisor, kind, message", (
        ((2, 0, 0), InconsistentScenario,
         "the doubling bound -5 must be positive for nef data"),
        # D^2 = -1, but nef(D) is undecided on a blown-up model
        ((2, 2, 3), PreconditionError,
         "negative self-intersection; the class is not nef"),
    ))
    def test_euler_bound_refusals(self, divisor, kind, message):
        with pytest.raises(kind) as refused:
            decide(self.heavy(self.model.divisor(*divisor)))
        assert str(refused.value) == message

    def test_low_degree_without_trees_is_undecided(self):
        s = self.scenario(
            self.model.divisor(1, 3, -1),
            boundary=((self.model.divisor(4, 0, 0), (3, 4)),),
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
        m = RuledModel(3, 4, -2)
        s = ruled_scenario(m, m.fiber_class(), kodaira=1, chi_o=-3, q=3)
        v = decide(s)
        assert (v.case_label, v.result) == (CASE_D_I, UNDECIDED)
        m2 = RuledModel(2, 3, 0)
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
                (strip.section_class(), (1, 2)),
                (strip.divisor(1, 2), (1, 2)),
            ),
        ),
        ruled_scenario(
            blown,
            blown.divisor(2, 3, -2),
            boundary=((blown.divisor(4, 0, 0), (3, 4)),),
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

            def value(key):
                return Fraction(cert.get(key, 0))

            assert cert["rule"]
            assert (
                value("chi") > 0
                or value("h_dot_f") > 1
                or len(cert.get("trace", ())) > 0
                or value("bound") > 0
                or value("chi_lower_bound") > 0
                or value("d_dot_h_plus_b") > 0
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
                (KV_MODEL.section_class(), (1, 2)),
                (KV_MODEL.divisor(1, 1), (3, 4)),
            )
        )
        s2 = kv_scenario(
            boundary=(
                (KV_MODEL.divisor(1, 1), (3, 4)),
                (KV_MODEL.section_class(), (1, 2)),
            )
        )
        assert decide(s1) == decide(s2)


# -- a digest of decide over a grid that reaches every route -----------------

HALF, THIRD, THREE_QUARTERS = (1, 2), (1, 3), (3, 4)


def _general_scenario(rng):
    """Any catalogued case, with a boundary from a few shapes."""
    p, g = rng.choice((0, 2, 3, 5)), rng.randint(0, 4)
    e, k = rng.randint(-g - 1, 2), rng.choice((0, 0, 0, 1, 2))
    points = tuple(
        (0,) if i == 1 and rng.random() < 0.5 else () for i in range(k)
    )
    m = RuledModel(p, g, e, points)
    if rng.random() < 0.75:
        kodaira, chi, q, minimal = RULED, m.chi_structure, g, m.is_pure
    else:
        # a drawn chi(O) other than 1 - g is refused, and drawn again
        chi = rng.randint(-1, 2)
        kodaira, q = rng.choice((0, 1, 2)), rng.randint(0, 2)
        minimal = rng.random() < 0.5
    if rng.random() < 0.08:
        d = m.zero_class()
    else:
        d = m.divisor(rng.randint(-1, 3), rng.randint(-3, 8),
                      *(rng.randint(-1, 1) for _ in range(k)))
    sec, fib = m.section_class(), m.fiber_class()
    x = rng.choice((1, 2, 3, 5))
    y = (x * e) // 2 - rng.randint(0, 3)  # xE + yF has negative square
    boundary = rng.choice((
        (),
        ((sec, HALF),),
        ((sec, HALF), (sec, HALF)),
        ((sec, THREE_QUARTERS),) * 4,
        ((m.divisor(x, y), rng.choice((HALF, THIRD, THREE_QUARTERS))),),
        ((m.divisor(x, y), HALF), (m.divisor(x, y - 1), THIRD)),
        ((sec + fib, THREE_QUARTERS), (fib, THIRD)),
        ((m.divisor(4, 0), THREE_QUARTERS),),
        ((m.divisor(3, rng.randint(-4, 2)), THREE_QUARTERS), (sec, HALF)),
    ))
    return Scenario(m, kodaira, chi, q, minimal, d, boundary,
                    rng.choice((None, None, True, False)))


def _product_scenario(rng):
    """A relatively minimal irregular model whose boundary is one curve
    class of negative square, or a class just below the curve window."""
    g, p = rng.randint(2, 4), rng.choice((0, 2, 3, 5))
    m = RuledModel(p, g, rng.randint(-g, -1))
    x = max(p, 2)
    y = (x * m.invariant_e) // 2 - rng.randint(0, g)
    return ruled_scenario(
        m, m.divisor(rng.randint(0, 1), rng.randint(-1, 8)),
        ((m.divisor(x, y), rng.choice((HALF, THREE_QUARTERS))),),
    )


def _euler_scenario(rng):
    """Fiber degree two under a boundary of fiber degree three: the
    threshold declines and the euler bound decides."""
    g, e, k = rng.randint(2, 3), rng.randint(-1, 1), rng.randint(0, 1)
    m = RuledModel(rng.choice((2, 3)), g, e, ((),) * k)
    if k and rng.random() < 0.5:
        # D = 2E + bF + cE_1 has D^2 = 4(b - e) - c^2, here 0 for an
        # even c and -1 for an odd one
        c = rng.randint(1, 6)
        d = m.divisor(2, e + c * c // 4, c * rng.choice((1, -1)))
    else:
        d = m.divisor(2, rng.randint(-1, 6),
                      *(rng.randint(-4, 4) for _ in range(k)))
    return ruled_scenario(
        m, d, ((m.section_class(), THREE_QUARTERS),) * 4,
        kappa_minus_k_nonneg=rng.choice((None, None, True)),
    )


def _fiber_tree_scenario(rng):
    g, d = rng.randint(0, 4), rng.randint(0, 2)
    trees = []
    for _ in range(rng.randint(1, 2)):
        tree = smooth_fiber(d)
        for _ in range(rng.randint(0, 4)):
            if tree.edges and rng.random() < 0.5:
                tree = blow_up_on_edge(tree, *rng.choice(tree.edges))
            else:
                i = rng.randrange(len(tree.components))
                tree = blow_up_on_component(tree, i)
        trees.append(tree)
    fm = FiberedModel(g, rng.choice((0, 2, 3, 5)), tuple(trees))
    return Scenario(fm, RULED, 1 - g, g, fm.is_relatively_minimal())


def decide_grid(size=2500, trees=100, seed=20):
    """``size`` lattice scenarios, then ``trees`` fiber-tree ones; a draw
    that the scenario checks refuse is drawn again."""
    rng = random.Random(seed)
    grid = []
    while len(grid) < size:
        draw = rng.choice((_general_scenario, _general_scenario,
                           _product_scenario, _euler_scenario))
        try:
            grid.append(draw(rng))
        except (InvalidScenario, InconsistentScenario):
            pass
    return grid + [_fiber_tree_scenario(rng) for _ in range(trees)]


def decide_outcome(s):
    """The verdict, or the refusal decide raises."""
    try:
        return decide(s)
    except Exception as ex:
        return ex


@pytest.fixture(scope="module")
def decided_grid():
    """Each scenario of ``decide_grid()`` with its outcome, decided once
    for the digest and the census."""
    return [(s, decide_outcome(s)) for s in decide_grid()]


def outcome_text(outcome):
    """The verdict's fields, or the refusal's type and message."""
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    return repr((outcome.case_label, outcome.result, outcome.certificate,
                 outcome.reason))


# the refusals decide can raise, each as a pattern of its message; the
# others are unreachable (CHANGES.md gives the arguments)
_REFUSALS = (
    r"InconsistentScenario: a vanishing nef divisor with ample polarization"
    r" forces irregularity 0",
    r"InconsistentScenario: a vanishing nef divisor with ample polarization"
    r" forces chi\(O\) = 1",
    r"PreconditionError: the polarization fails ampleness: ",
    r"PreconditionError: the divisor is not nef: ",
    r"InconsistentScenario: chi = -?\d+ cannot be nonpositive",
    r"InconsistentScenario: \(K-D\)\.H = \S+ must be negative",
    r"InconsistentScenario: two distinct negative curve classes",
    r"PreconditionError: \d+E \+ -?\d+F cannot be a curve",
    r"PreconditionError: the polarization fails its ampleness inequalities",
    r"InconsistentScenario: the doubling bound \S+ must be positive",
    r"InconsistentScenario: the declared canonical hypothesis forces D.K",
    r"PreconditionError: negative self-intersection; the class is not nef",
    r"InvalidScenario: a genus-one fibration with negative chi\(O\)",
    r"InvalidScenario: invariants fit no catalogued case",
)

_UNKNOWN_REASONS = (
    "no intersection data for the euler-characteristic route",
    "low fiber degree without fiber-tree data; no certificate applies",
    "not relatively minimal with a big divisor: outside the certified"
    " catalogue",
    "no certificate catalogued for this case; larger multiples may be"
    " needed",
)


class TestDecideDigest:
    def test_grid_reaches_every_route_and_keeps_its_digest(
        self, decided_grid,
    ):
        outcomes = [outcome for _, outcome in decided_grid]
        verdicts = [v for v in outcomes if isinstance(v, Verdict)]
        assert {
            v.certificate["rule"] for v in verdicts if v.result != UNDECIDED
        } == {
            value for name, value in vars(nonvanish).items()
            if name.startswith("RULE_")
        }
        assert {v.reason for v in verdicts if v.result == UNDECIDED} == set(
            _UNKNOWN_REASONS
        )
        # a refusal that fits no pattern stands for itself in the set
        refusals = {
            next((p for p in _REFUSALS if re.match(p, outcome_text(ex))),
                 outcome_text(ex))
            for ex in outcomes if not isinstance(ex, Verdict)
        }
        assert refusals == set(_REFUSALS)
        text = "\n".join(outcome_text(o) for o in outcomes)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b123025fd621f57cb2f97e484468a27f22a3200ab941c51e9747bf6b40055594"
        )


# -- a soundness census of the grid's guaranteed verdicts --------------------
#
# Each guaranteed verdict of decide_grid() is sorted by what backs it:
#   chi         D.F >= -1 and chi(D) > 0, or for m <= 2 the same of 2D:
#               then (K - D).F < 0, so h^2(D) = 0 and h^0(D) >= chi(D);
#   refuted     an exact test fails a hypothesis of Kawamata's theorem
#               (D nef, H = D - K - B nef and big) or the model's
#               existence (e >= -g, and kappa = -inf on a ruled model);
#   fiber-tree  the scenario carries D.F only;
#   other       the rest.
# Intersection numbers and chi come from a Gram matrix and a canonical
# class built here, not from the lattice's form or riemann_roch_chi.


def _coefficients(cls):
    """A class's coefficients as Fractions: its numerators over its
    denominator."""
    return [Fraction(n, cls.den) for n in cls.nums]


def _gram(model):
    """The intersection form in the stored basis, E, F and the strict
    transforms e_i: the exceptional block is -(M M^T), M unit upper
    triangular with M[i][j] = -1 when point j is proximate to point i."""
    k = len(model.exceptionals)
    mm = [[int(i == j) for j in range(k)] for i in range(k)]
    for j, pt in enumerate(model.exceptionals):
        for i in pt:
            mm[i][j] = -1
    gram = [[0] * (2 + k) for _ in range(2 + k)]
    gram[0][0] = -model.invariant_e
    gram[0][1] = gram[1][0] = 1
    for i in range(k):
        for j in range(k):
            gram[2 + i][2 + j] = -sum(mm[i][m] * mm[j][m] for m in range(k))
    return gram


def _solve(matrix, rhs):
    """x with matrix x = rhs, for a nonsingular matrix, by exact
    Gauss-Jordan elimination."""
    n = len(rhs)
    rows = [[Fraction(x) for x in row] + [Fraction(r)]
            for row, r in zip(matrix, rhs)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][c]:
                factor = rows[r][c] / rows[c][c]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def census_entry(s, verdict):
    """The census class of a guaranteed verdict, and the names of the
    exact tests that refute its hypotheses."""
    if not s.is_lattice:
        return "fiber-tree", ()
    model = s.model
    g, e = model.genus, model.invariant_e
    gram = _gram(model)
    n = len(gram)

    def dot(x, y):
        return sum(x[i] * gram[i][j] * y[j] for i in range(n)
                   for j in range(n))

    # adjunction: K.E = 2g - 2 + e on the pulled-back section, K.F = -2,
    # and K.e_i = -2 - e_i^2 on each smooth rational e_i
    k = _solve(gram, [2 * g - 2 + e, -2, *(-2 - gram[i][i]
                                           for i in range(2, n))])

    def chi(x):
        return dot(x, [a - b for a, b in zip(x, k)]) / 2 + 1 - g

    d = _coefficients(s.divisor)
    multiples = [d]
    if verdict.result == GUARANTEED_M2:
        multiples.append([2 * x for x in d])
    fiber = [0, 1] + [0] * (n - 2)
    if any(dot(x, fiber) >= -1 and chi(x) > 0 for x in multiples):
        return "chi", ()
    boundary = [(Fraction(*c), _coefficients(cls)) for cls, c in s.boundary]
    b = [sum((c * x[i] for c, x in boundary), Fraction(0))
         for i in range(n)]
    h = [x - y - z for x, y, z in zip(d, k, b)]
    pure = RuledModel(model.characteristic, g, e)

    def not_nef(x):
        # the push-forward of a nef class is nef (projection formula),
        # and each e_i is an irreducible curve
        pushed = certify_positivity(pure, pure.class_of(
            [x[0].as_integer_ratio(), x[1].as_integer_ratio()]))
        return pushed.status == VIOLATED or any(
            dot(x, [int(i == j) for j in range(n)]) < 0
            for i in range(2, n)
        )

    failed = tuple(name for name, fails in (
        ("nef(D)", not_nef(d)),
        ("nef(H)", not_nef(h)),
        ("H^2 <= 0", dot(h, h) <= 0),
        ("e < -g", e < -g),
        ("kappa >= 0", s.kodaira != RULED),
    ) if fails)
    return ("refuted" if failed else "other"), failed


class TestSoundnessCensus:
    def test_census_of_the_grid(self, decided_grid):
        classes, rules, tests = Counter(), Counter(), Counter()
        for s, verdict in decided_grid:
            if not isinstance(verdict, Verdict) or verdict.result not in (
                GUARANTEED_M1, GUARANTEED_M2,
            ):
                continue
            name, failed = census_entry(s, verdict)
            classes[name] += 1
            rules[name, verdict.certificate["rule"].split(".")[-1]] += 1
            tests.update((test, "pure" if s.model.is_pure else "blown-up")
                         for test in failed)
        assert classes == {
            "chi": 995, "refuted": 234, "fiber-tree": 62, "other": 1,
        }
        assert rules == {
            ("chi", "chi-product"): 52,
            ("chi", "euler-characteristic"): 185,
            ("chi", "euler-doubling-bound"): 155,
            ("chi", "fiber-degree-threshold"): 495,
            ("chi", "nonpositive-canonical-degree"): 70,
            ("chi", "numerical-dimension-one"): 18,
            ("chi", "structure-sheaf-euler"): 20,
            ("refuted", "fiber-degree-threshold"): 213,
            ("refuted", "nonpositive-canonical-degree"): 7,
            ("refuted", "numerical-dimension-one"): 14,
            ("fiber-tree", "fiber-degree-threshold"): 62,
            ("other", "fiber-degree-threshold"): 1,
        }
        # a refuted verdict can fail more than one test
        assert tests == {
            ("nef(H)", "pure"): 151, ("H^2 <= 0", "pure"): 143,
            ("e < -g", "pure"): 5,
            ("nef(D)", "blown-up"): 59, ("nef(H)", "blown-up"): 71,
            ("H^2 <= 0", "blown-up"): 83, ("e < -g", "blown-up"): 6,
        }

    def test_canonical_class_matches_the_lattice(self):
        # the adjunction solve above against the lattice's K, on models
        # with chains and satellite points
        for model in (RuledModel(3, 2, -1), RuledModel(5, 1, 1).blow_up()
                      .blow_up([0]).blow_up([0, 1]).blow_up()):
            gram = _gram(model)
            n = len(gram)
            g, e = model.genus, model.invariant_e
            k = _solve(gram, [2 * g - 2 + e, -2, *(-2 - gram[i][i]
                                                   for i in range(2, n))])
            assert k == _coefficients(model.canonical_class())
