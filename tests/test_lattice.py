"""Lattice layer: the intersection form, canonical classes, positivity rules.

Expected numbers below were computed by hand (independent of the
implementation) and are frozen; property loops use seeded randomness.
"""

import random
from fractions import Fraction

import pytest

from svlab.lattice import (
    DivisorClass,
    LatticeError,
    ModelMismatch,
    RuledModel,
    adjunction_pa,
    candidate_curve_constraints,
    certify_positivity,
    pullback_blowup,
    riemann_roch_chi,
)

MODEL_342 = RuledModel(characteristic=3, genus=4, invariant_e=-2)


def random_model(rng, max_points=4):
    p = rng.choice([0, 2, 3, 5, 7])
    g = rng.randrange(0, 5)
    e = rng.randrange(-4, 5)
    m = RuledModel(p, g, e)
    for _ in range(rng.randrange(0, max_points + 1)):
        k = len(m.exceptionals)
        prox = [j for j in range(k) if rng.random() < 0.3]
        m = m.blow_up(prox)
    return m


def random_integral_class(rng, model, lo=-6, hi=7):
    return model.divisor(*[rng.randrange(lo, hi) for _ in range(model.rank)])


class TestGram:
    def test_pure_products(self):
        m = MODEL_342
        e_cls, f_cls = m.section_class(), m.fiber_class()
        assert e_cls.dot(e_cls) == (2, 1)
        assert e_cls.dot(f_cls) == (1, 1)
        assert f_cls.dot(f_cls) == (0, 1)

    def test_free_points_are_orthogonal_minus_ones(self):
        m = RuledModel(5, 1, 1).blow_up().blow_up()
        e0, e1 = m.exceptional_class(0), m.exceptional_class(1)
        assert e0.dot(e0) == e1.dot(e1) == (-1, 1)
        assert e0.dot(e1) == (0, 1)

    def test_proximity_chain_block(self):
        m = RuledModel(5, 1, 1).blow_up().blow_up([0])
        e0, e1 = m.exceptional_class(0), m.exceptional_class(1)
        assert e0.dot(e0) == (-2, 1)
        assert e1.dot(e1) == (-1, 1)
        assert e0.dot(e1) == e1.dot(e0) == (1, 1)

    def test_satellite_point(self):
        # third point proximate to both earlier ones
        m = RuledModel(5, 1, 1).blow_up().blow_up([0]).blow_up([0, 1])
        e0, e1, e2 = (m.exceptional_class(i) for i in range(3))
        assert e0.dot(e0) == (-3, 1)
        assert e1.dot(e1) == (-2, 1)
        assert e2.dot(e2) == (-1, 1)
        # the satellite separates the two transforms
        assert e0.dot(e1) == (0, 1)
        assert e0.dot(e2) == (1, 1)
        assert e1.dot(e2) == (1, 1)

    def test_dot_matches_the_gram_matrix(self):
        # reference: Gram block -(M M^T), M unit upper triangular with
        # M[i][j] = -1 when point j is proximate to point i
        rng = random.Random(20260816)
        for _ in range(200):
            m = RuledModel(rng.choice([0, 2, 3]), rng.randrange(0, 4),
                           rng.randrange(-4, 5))
            for _ in range(rng.randrange(0, 39)):
                k = len(m.exceptionals)
                if k and rng.random() < 0.5:
                    prox = [k - 1]  # chain, sometimes a satellite
                    if k > 1 and rng.random() < 0.4:
                        prox.append(rng.randrange(0, k - 1))
                else:
                    prox = [j for j in range(k) if rng.random() < 0.05]
                m = m.blow_up(prox)
            k = len(m.exceptionals)
            mm = [[int(i == j) for j in range(k)] for i in range(k)]
            for j, pt in enumerate(m.exceptionals):
                for i in pt:
                    mm[i][j] = -1
            gram = [[0] * m.rank for _ in range(m.rank)]
            gram[0][0] = -m.invariant_e
            gram[0][1] = gram[1][0] = 1
            for i in range(k):
                for j in range(k):
                    gram[2 + i][2 + j] = -sum(
                        mm[i][l] * mm[j][l] for l in range(k)
                    )
            x, y = (m.class_of([
                (rng.randrange(-6, 7), rng.choice([1, 2, 3]))
                for _ in range(m.rank)
            ]) for _ in range(2))
            want = sum(
                x.nums[i] * gram[i][j] * y.nums[j]
                for i in range(m.rank) for j in range(m.rank)
            ), x.den * y.den
            assert x.dot(y) == want

    def test_proximity_must_be_earlier(self):
        with pytest.raises(LatticeError):
            RuledModel(5, 1, 1, ((0,),))

    def test_bilinearity_and_symmetry(self):
        rng = random.Random(20260802)
        for _ in range(120):
            m = random_model(rng)
            x = random_integral_class(rng, m)
            y = random_integral_class(rng, m)
            z = random_integral_class(rng, m)
            assert x.dot(y) == y.dot(x)
            assert Fraction(*(x + y).dot(z)) \
                == Fraction(*x.dot(z)) + Fraction(*y.dot(z))
            assert Fraction(*x.times(3, 2).dot(y)) \
                == Fraction(3, 2) * Fraction(*x.dot(y))

    def test_cross_model_dot_rejected(self):
        other = RuledModel(3, 4, -2, ((),))
        with pytest.raises(ModelMismatch):
            MODEL_342.section_class().dot(other.fiber_class())


class TestCanonical:
    def test_pure_canonical(self):
        k = MODEL_342.canonical_class()
        assert (k.nums, k.den) == ((-2, 8), 1)
        assert k.dot(MODEL_342.fiber_class()) == (-2, 1)
        assert k.dot(k) == (8 * (1 - 4), 1)

    def test_canonical_square_pure(self):
        rng = random.Random(20260803)
        for _ in range(60):
            g = rng.randrange(0, 6)
            e = rng.randrange(-4, 5)
            m = RuledModel(2, g, e)
            k = m.canonical_class()
            assert k.dot(k) == (8 * (1 - g), 1)

    def test_proximity_canonical_coefficients(self):
        m = RuledModel(5, 1, 1).blow_up().blow_up([0]).blow_up([0, 1])
        k = m.canonical_class()
        assert (k.nums[2:], k.den) == ((1, 2, 4), 1)

    def test_k_dot_strict_exceptional_counts_children(self):
        m = RuledModel(5, 1, 1).blow_up().blow_up([0]).blow_up([0, 1])
        k = m.canonical_class()
        # e_0 supports two later points, e_1 one, e_2 none
        assert k.dot(m.exceptional_class(0)) == (1, 1)
        assert k.dot(m.exceptional_class(1)) == (0, 1)
        assert k.dot(m.exceptional_class(2)) == (-1, 1)

    def test_k_square_drops_by_one_per_point(self):
        rng = random.Random(20260804)
        for _ in range(60):
            m = random_model(rng)
            k = m.canonical_class()
            assert k.dot(k) == (8 * (1 - m.genus) - len(m.exceptionals), 1)


class TestRiemannRoch:
    def test_frozen_values(self):
        m = MODEL_342
        assert Fraction(*riemann_roch_chi(m, m.divisor(0, 6))) == 3
        assert Fraction(*riemann_roch_chi(m, m.zero_class())) == -3
        assert Fraction(*riemann_roch_chi(m, m.fiber_class())) == -2

    def test_product_form_on_pure_models(self):
        rng = random.Random(20260805)
        for _ in range(200):
            g = rng.randrange(0, 5)
            e = rng.randrange(-4, 5)
            m = RuledModel(0, g, e)
            a = rng.randrange(-5, 6)
            b = rng.randrange(-8, 9)
            chi = Fraction(*riemann_roch_chi(m, m.divisor(a, b)))
            assert chi == (a + 1) * (b - Fraction(a * e, 2) + 1 - g)

    def test_integrality_on_blown_models(self):
        rng = random.Random(20260806)
        for _ in range(200):
            m = random_model(rng)
            d = random_integral_class(rng, m)
            assert Fraction(*riemann_roch_chi(m, d)).denominator == 1


class TestAdjunction:
    def test_fiber_and_section(self):
        assert adjunction_pa(MODEL_342, MODEL_342.fiber_class()) == 0
        assert adjunction_pa(MODEL_342, MODEL_342.section_class()) == 4

    def test_frobenius_like_class(self):
        c = MODEL_342.divisor(3, -6)
        assert c.dot(c) == (-18, 1)
        assert adjunction_pa(MODEL_342, c) == 4

    def test_parity(self):
        rng = random.Random(20260807)
        for _ in range(200):
            m = random_model(rng)
            c = random_integral_class(rng, m)
            pa = adjunction_pa(m, c)
            assert pa.denominator == 1

    def test_rejects_fractional(self):
        with pytest.raises(LatticeError):
            adjunction_pa(MODEL_342, MODEL_342.class_of([(1, 2)]))


class TestCurveConstraints:
    def test_frozen_examples(self):
        m = MODEL_342
        assert candidate_curve_constraints(m, m.divisor(3, -6))
        assert not candidate_curve_constraints(m, m.divisor(3, -10))
        assert candidate_curve_constraints(m, m.section_class())
        assert candidate_curve_constraints(m, m.fiber_class())
        assert candidate_curve_constraints(m, m.divisor(1, 0))
        assert not candidate_curve_constraints(m, m.divisor(1, -1))
        # 2 <= x <= p-1 branch: x=2, need y >= -2
        assert candidate_curve_constraints(m, m.divisor(2, -2))
        assert not candidate_curve_constraints(m, m.divisor(2, -3))

    def test_nonnegative_invariant(self):
        m = RuledModel(0, 2, 1)
        assert candidate_curve_constraints(m, m.divisor(2, 2))
        assert not candidate_curve_constraints(m, m.divisor(2, 1))
        assert not candidate_curve_constraints(m, m.divisor(-1, 5))
        assert candidate_curve_constraints(m, m.section_class())

    def test_char_zero_negative_invariant(self):
        # x = 1 needs y >= 0, x >= 2 needs 2y >= xe (Hartshorne V.2.21)
        m = RuledModel(0, 2, -2)
        assert candidate_curve_constraints(m, m.divisor(1, 0))
        assert not candidate_curve_constraints(m, m.divisor(1, -1))
        assert candidate_curve_constraints(m, m.divisor(2, -2))
        assert not candidate_curve_constraints(m, m.divisor(2, -3))
        assert candidate_curve_constraints(m, m.divisor(5, -5))
        assert not candidate_curve_constraints(m, m.divisor(5, -6))
        assert not candidate_curve_constraints(m, m.divisor(0, -1))

    def test_branch_bounds_hold_what_their_readers_assume(self):
        # ChiProduct's slack chain reads 2y - xe >= 2(1 - g) off every
        # branch for g >= 1; the positivity rule tests the last branch
        # alone, so every other branch has c >= 0
        for p in (0, 2, 3, 5, 7):
            for g in range(0, 6):
                for e in range(-6, 4):
                    cone = RuledModel(p, g, e).curve_cone
                    assert all(c >= 0 for _, _, c in cone[:-1])
                    assert all(high is not None for _, high, _ in cone[:-1])
                    if cone:
                        assert cone[-1][1] is None
                    if g >= 1:
                        assert all(c >= 2 * (1 - g) for _, _, c in cone)


class TestPositivity:
    def test_necessary_violations(self):
        m = MODEL_342
        v = certify_positivity(m, m.divisor(-1, 3))
        assert v.status == "violated"
        assert v.rule_used == "positivity.necessary"
        v2 = certify_positivity(m, m.divisor(2, -3))
        assert v2.status == "violated"

    def test_nonnegative_invariant_complete(self):
        m = RuledModel(0, 2, 1)
        good = certify_positivity(m, m.divisor(2, 2))
        assert good.status == "certified"
        assert good.rule_used == "positivity.nonnegative-invariant-cone"
        bad = certify_positivity(m, m.divisor(2, 1))
        assert bad.status == "violated"

    def test_decomposition_rule(self):
        m = MODEL_342
        v = certify_positivity(m, m.divisor(2, 3), strict=True)
        assert v.status == "certified"
        assert v.rule_used == "positivity.section-fiber-decomposition"

    def test_fractional_decomposition(self):
        m = MODEL_342
        h = m.class_of([(1, 2), (1, 1)])
        nef = certify_positivity(m, h)
        assert nef.status == "certified"
        assert nef.rule_used == "positivity.section-fiber-decomposition"
        ample = certify_positivity(m, h, strict=True)
        assert ample.status == "certified"

    def test_curve_cone_rule(self):
        # negative fiber coefficient: decomposition is silent, the
        # branch minima still certify
        m = RuledModel(3, 1, -4)
        d = m.divisor(1, -1)
        nef = certify_positivity(m, d)
        assert nef.status == "certified"
        assert nef.rule_used == "positivity.curve-cone-bounds"
        assert certify_positivity(m, d, strict=True).status == "certified"

    def test_curve_cone_p2(self):
        # p = 2 skips the vacuous 2 <= x <= p-1 branch
        m = RuledModel(2, 1, -6)
        h = m.divisor(1, -2)
        assert certify_positivity(m, h).status == "certified"

    def test_curve_cone_flat_tail(self):
        # slope b - ae/2 = 0 with a > 0: the x >= p branch bounds D.L
        # below by ac/2 with c = 2(1 - g), which certifies nef exactly
        # when g <= 1
        for g, status in ((0, "certified"), (1, "certified"),
                          (2, "unknown"), (3, "unknown")):
            m = RuledModel(3, g, -2)
            v = certify_positivity(m, m.divisor(1, -1))
            assert (v.status, v.rule_used) == (
                status, "positivity.curve-cone-bounds"
            )
        # at g = 3 the bound is flat at ac/2 = -2
        assert v.note == "branch minimum -2 not conclusive"

    def test_char_zero_cone_is_the_necessary_tests(self):
        # e < 0 in characteristic 0: nef is a >= 0 and 2b >= ae, ample
        # the strict pair (Hartshorne V.2.21)
        m = RuledModel(0, 4, -2)
        for b, nef, ample in ((-4, "violated", "violated"),
                              (-3, "certified", "violated"),
                              (-2, "certified", "certified")):
            d = m.divisor(3, b)
            assert certify_positivity(m, d).status == nef
            assert certify_positivity(m, d, strict=True).status == ample

    def test_unknown_is_not_guessed(self):
        # the x >= 3 bound leaves D.L >= (3 s + 2a(1 - g))/2 = -6
        m = RuledModel(3, 4, -2)
        v = certify_positivity(m, m.divisor(3, -2))
        assert v.status == "unknown"
        assert v.note == "branch minimum -6 not conclusive"

    def test_certified_meets_curve_constraints(self):
        # a certified nef class pairs nonnegatively with every class
        # passing the candidate-curve constraints
        rng = random.Random(20260808)
        checked = 0
        while checked < 100:
            p = rng.choice([2, 3, 5])
            g = rng.randrange(0, 5)
            e = rng.randrange(-4, 0)
            m = RuledModel(p, g, e)
            d = m.class_of([(rng.randrange(0, 9), rng.choice([1, 2, 3])),
                            (rng.randrange(-4, 13), rng.choice([1, 2]))])
            v = certify_positivity(m, d)
            if v.status != "certified":
                continue
            checked += 1
            for _ in range(20):
                x = rng.randrange(1, 8)
                y = rng.randrange(-12, 13)
                c = m.divisor(x, y)
                if candidate_curve_constraints(m, c):
                    assert d.dot(c)[0] >= 0, (m, d.nums, d.den, c.nums)


class TestTransforms:
    def test_pullback_free_point_keeps_products(self):
        m0 = MODEL_342
        m1 = m0.blow_up()
        d = m0.divisor(3, -6)
        du = pullback_blowup(m1, d)
        assert (du.nums[2], du.den) == (0, 1)
        assert du.dot(du) == d.dot(d)

    def test_pullback_proximate_point_appends_sum(self):
        m0 = RuledModel(5, 1, 1).blow_up()
        d = m0.divisor(1, 2, -1)
        m1 = m0.blow_up([0])
        du = pullback_blowup(m1, d)
        assert (du.nums, du.den) == ((1, 2, -1, -1), 1)
        assert du.dot(du) == d.dot(d)

    def test_pullback_projection_formula(self):
        rng = random.Random(20260809)
        for _ in range(120):
            m0 = random_model(rng, max_points=3)
            m1 = m0
            for _ in range(rng.randrange(1, 3)):
                k = len(m1.exceptionals)
                m1 = m1.blow_up([j for j in range(k) if rng.random() < 0.3])
            x = random_integral_class(rng, m0)
            y = random_integral_class(rng, m0)
            assert pullback_blowup(m1, x).dot(pullback_blowup(m1, y)) \
                == x.dot(y)

    def test_pullback_of_canonical_differs_by_exceptionals(self):
        m0 = MODEL_342
        m1 = m0.blow_up()
        ku = pullback_blowup(m1, m0.canonical_class())
        k1 = m1.canonical_class()
        diff = k1 - ku
        assert (diff.nums, diff.den) == ((0, 0, 1), 1)


class TestModelValidation:
    def test_composite_characteristic_rejected(self):
        with pytest.raises(LatticeError):
            RuledModel(6, 1, 0)

    def test_negative_genus_rejected(self):
        with pytest.raises(LatticeError):
            RuledModel(2, -1, 0)

    def test_class_refuses_fraction_coefficients(self):
        # the constructor takes int numerators over an int denominator;
        # a tuple of Fractions must not pass for an integral class
        with pytest.raises(LatticeError):
            DivisorClass(MODEL_342, (Fraction(1, 2), Fraction(0)))
        with pytest.raises(LatticeError):
            DivisorClass(MODEL_342, (1, 0), Fraction(2))
        with pytest.raises(LatticeError):
            DivisorClass(MODEL_342, (1.0, 0))
        assert DivisorClass(MODEL_342, (1, 0), 2) \
            == MODEL_342.class_of([(1, 2)])

    @pytest.mark.parametrize("numbers", (
        (3, True, -2),
        (3, 4.0, -2),
        (3, 4, -2.0),
        (3.0, 4, -2),
        (3, 4, Fraction(-2)),
        # a point's indices, each refused ahead of the range and
        # duplicate checks it would also fail
        (3, 4, -2, ([0],)),
        (3, 4, -2, ((), (True, True))),
        (3, 4, -2, ((1.0,),)),
    ))
    def test_invariants_are_plain_ints(self, numbers):
        # True == 1 and 4.0 == 4 pass every check by value, so a model
        # built from them reached a verdict on a genus that is no integer;
        # a list point made a model that could not be hashed
        with pytest.raises(LatticeError, match="integer"):
            RuledModel(*numbers)

    def test_exceptionals_are_a_tuple(self):
        with pytest.raises(LatticeError, match="tuple"):
            RuledModel(3, 4, -2, [()])

    def test_four_fields(self):
        assert RuledModel._record_names == (
            "characteristic", "genus", "invariant_e", "exceptionals",
        )

    def test_default_chi_structure(self):
        assert MODEL_342.chi_structure == -3
        assert RuledModel(2, 0, 0).chi_structure == 1


BLOWN_UP_342 = MODEL_342.blow_up()


@pytest.mark.parametrize("call, refusal", [
    # x <= 0 and not F: no branch of the e < 0 constraints admits it
    pytest.param(lambda: candidate_curve_constraints(
        MODEL_342, MODEL_342.divisor(0, 2)), None, id="2F-is-no-curve"),
    pytest.param(lambda: candidate_curve_constraints(
        MODEL_342, MODEL_342.divisor(-1, 5)), None, id="x-negative"),
    pytest.param(lambda: candidate_curve_constraints(
        BLOWN_UP_342, BLOWN_UP_342.fiber_class()),
        (LatticeError, "pure models"), id="curve-on-blown-up"),
    pytest.param(lambda: candidate_curve_constraints(
        MODEL_342, MODEL_342.class_of([(1, 2)])),
        (LatticeError, "integral"), id="curve-not-integral"),
    pytest.param(lambda: MODEL_342.divisor(1, 2, 3),
                 (LatticeError, "too many"), id="divisor-too-long"),
    pytest.param(lambda: MODEL_342.divisor(0.5),
                 (LatticeError, "int numerators"), id="divisor-float"),
    pytest.param(lambda: DivisorClass(MODEL_342, (1, 2, 3)),
                 (LatticeError, "count"), id="class-rank-mismatch"),
    pytest.param(lambda: DivisorClass(MODEL_342, (1, 2), 0),
                 (LatticeError, "nonzero denominator"), id="class-den-zero"),
    pytest.param(lambda: BLOWN_UP_342.exceptional_class(1),
                 (LatticeError, "no such exceptional"), id="no-exceptional"),
    pytest.param(lambda: MODEL_342.fiber_class().times(0.5),
                 (LatticeError, "int numerators"), id="scaled-float"),
    pytest.param(lambda: adjunction_pa(MODEL_342, RuledModel(
        3, 4, -1).fiber_class()), (ModelMismatch, "this model"),
        id="class-off-model"),
    pytest.param(lambda: pullback_blowup(RuledModel(
        3, 4, -1).blow_up(), MODEL_342.fiber_class()),
        (ModelMismatch, "does not extend"), id="pullback-off-model"),
])
def test_live_refusals(call, refusal):
    # each input reaches its own refusal, or its False, and no earlier one
    if refusal is None:
        assert call() is False
        return
    kind, match = refusal
    with pytest.raises(kind, match=match):
        call()
