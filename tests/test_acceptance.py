"""Seven go/no-go gates for the toolkit, one test per gate.

Each test prints a single verdict line, so a verbose run reads as a
checklist.  Every expected number here was recomputed by hand or by an
independent formula inside the test itself; nothing is compared against
the code path it exercises.
"""

import random
import time
from fractions import Fraction

import pytest

from svlab.charpcurve.families import (
    ArtinSchreier,
    Hyperelliptic,
    certify_tango,
    default_precision,
    n_of_f,
    v_infinity_df,
)
from svlab.construct import (
    KIND_KV,
    KINDS,
    PackageError,
    build_package,
    build_surface,
    disjoint_multisection,
    h1_lower_bound_audit,
    verify_package,
)
from svlab.fibered import (
    FiberTree,
    blow_up_on_component,
    blow_up_on_edge,
    component,
    contract_component,
    minimality_audit,
    reduce_tree,
)
from svlab.kltcalc import (
    ClusterArrangement,
    ClusterNode,
    WeightedBranch,
    is_klt,
)
from svlab.lattice import (
    CERTIFIED,
    RuledModel,
    adjunction_pa,
    certify_positivity,
    intersect,
    pullback_blowup,
    riemann_roch_chi,
)
from svlab.nonvanish import (
    CASE_A,
    CASE_B_I,
    CASE_B_II,
    CASE_C,
    CASE_CR,
    CASE_D_I,
    CASE_D_II,
    GUARANTEED_M1,
    GUARANTEED_M2,
    RULED,
    InvalidScenario,
    Scenario,
    UNDECIDED,
    classify,
    decide,
)
from svlab.cli.sweep import SweepRequest, run_sweep, summarize


def scenario(model, divisor, boundary=(), **overrides):
    fields = dict(
        model=model,
        kodaira=RULED,
        chi_o=model.chi_structure,
        q=model.genus,
        relatively_minimal=model.is_pure,
        divisor=divisor,
        boundary=tuple(boundary),
    )
    fields.update(overrides)
    return Scenario(**fields)


def test_criterion_1_klt_configurations():
    started = time.perf_counter()

    triple = ClusterArrangement(
        (
            WeightedBranch("b1", 2, 5),
            WeightedBranch("b2", 4, 5),
            WeightedBranch("b3", 3, 4),
        ),
        (ClusterNode(("b1", "b2", "b3")),),
    )
    verdict, trace = is_klt(triple)
    assert verdict is True
    assert trace.peak().coefficient == Fraction(19, 20)

    tangent = ClusterArrangement(
        (
            WeightedBranch("b2", 4, 5),
            WeightedBranch("b3", 3, 4),
        ),
        (ClusterNode(("b2", "b3"), (ClusterNode(("b2", "b3")),)),),
    )
    verdict, trace = is_klt(tangent)
    assert verdict is False
    worst = min(-r.coefficient for r in trace.records)
    assert worst == Fraction(-11, 10)
    assert worst < -1

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1 PASS: klt 19/20 and -11/10 in {elapsed:.3f}s")


def test_criterion_2_tango_certificates():
    budgets = []

    started = time.perf_counter()
    cert = certify_tango(Hyperelliptic(3, 3))
    budgets.append(time.perf_counter() - started)
    assert cert.v_inf == 6 == 3 * 3 - 3
    assert cert.genus == 4
    assert cert.n_f0 == 2 == 3 - 1
    assert cert.bound == 2
    assert cert.equality is True

    started = time.perf_counter()
    cert = certify_tango(ArtinSchreier(2, 5))
    budgets.append(time.perf_counter() - started)
    assert cert.v_inf == 6 == 2 * (5 * (2 - 1) - 2)
    assert cert.genus == 4
    assert cert.n_f0 == 3 == 5 * (2 - 1) - 2
    assert cert.equality is True
    assert cert.star_condition is True
    assert (5 - 2) % 3 == 0

    started = time.perf_counter()
    cert = certify_tango(Hyperelliptic(5, 3))
    budgets.append(time.perf_counter() - started)
    assert cert.v_inf == 12
    assert cert.n_f0 == 2

    for value in (cert.v_inf, cert.genus, cert.n_f0, cert.bound):
        assert isinstance(value, int)
    assert max(budgets) < 5.0
    print(
        "criterion 2 PASS: three certificates, worst"
        f" {max(budgets):.3f}s"
    )


GRID = (
    Hyperelliptic(3, 3),
    Hyperelliptic(5, 3),
    ArtinSchreier(2, 5),
    ArtinSchreier(3, 3),
    ArtinSchreier(2, 8),
)


def expected_shift_pairing(p: int, n: int) -> Fraction:
    if p >= 5:
        return Fraction((3 - p) * p * n, 2)
    if p == 3:
        return Fraction(-3 * n)
    return Fraction(-2 * n, 3)


def test_criterion_3_counterexample_grid():
    for family in GRID:
        cert = certify_tango(family)
        p, n = family.p, cert.n_f0
        model = build_surface(cert)
        curve = disjoint_multisection(model)
        assert intersect(curve, curve) == -p * p * n
        assert intersect(model.section_class(), curve) == 0

        for kind in KINDS:
            pkg = build_package(kind, cert)
            verification = verify_package(pkg)
            failed = [r.name for r in verification.results if not r.passed]
            assert verification.valid, (family, kind, failed)
            assert pkg.divisor.is_integral()
            recomputed = (
                pkg.divisor - pkg.model.canonical_class()
                - sum(
                    (cls * q for cls, q in pkg.boundary),
                    pkg.model.zero_class(),
                )
            )
            assert recomputed == pkg.h_class
            for _, q in pkg.boundary:
                assert 0 < q < 1
            if kind == KIND_KV:
                assert certify_positivity(
                    pkg.model, pkg.divisor
                ).status == CERTIFIED
                assert certify_positivity(
                    pkg.model, pkg.h_class, strict=True
                ).status == CERTIFIED
                audit = h1_lower_bound_audit(pkg)
                assert audit.final_degree == 0
                assert audit.lower_bound == 1
            if pkg.shifted_divisor is not None:
                assert intersect(
                    pkg.shifted_divisor, pkg.section_curve
                ) == expected_shift_pairing(p, n)

    # the base-degree divisibility gate for the p = 2 member package:
    # n = 2 is refused, n = 3 and n = 6 went through above
    blocked = certify_tango(ArtinSchreier(2, 4))
    assert blocked.n_f0 == 2
    with pytest.raises(PackageError):
        build_package("semipos", blocked)
    for family in (ArtinSchreier(2, 5), ArtinSchreier(2, 8)):
        assert certify_tango(family).n_f0 % 3 == 0
    print("criterion 3 PASS: 5 families x 3 kinds valid, 3|n gate exact")


def test_criterion_4_formula_oracle_and_sweep():
    model = RuledModel(3, 4, -2)
    canonical = model.canonical_class()
    genus, inv_e = 4, -2
    rng = random.Random(20260818)
    for _ in range(1000):
        den_a, den_b = rng.randrange(1, 50), rng.randrange(1, 50)
        a = Fraction(rng.randrange(-20 * den_a, 20 * den_a + 1), den_a)
        b = Fraction(rng.randrange(-20 * den_b, 20 * den_b + 1), den_b)
        divisor = model.divisor(a, b)
        product = (a + 1) * (b - a * Fraction(inv_e, 2) + 1 - genus)
        rr = (
            intersect(divisor, divisor - canonical) / 2
            + (1 - genus)
        )
        assert product == rr
        assert product == riemann_roch_chi(model, divisor)

    started = time.perf_counter()
    entries = run_sweep(SweepRequest(
        characteristic=3,
        genus=4,
        invariant_e=-2,
        a_range=(0, 5),
        b_range=(-10, 20),
        coefficient=(1, 2),
    ))
    elapsed = time.perf_counter() - started
    stats = summarize(entries)
    assert elapsed < 10.0
    assert stats["disagreements"] == 0
    assert stats["entries"] == 186
    assert stats["certified"] == 90
    assert stats["skipped"] == 96
    assert stats["min_chi"] == 3
    print(
        "criterion 4 PASS: 1000 oracle matches, sweep 186 entries in"
        f" {elapsed:.3f}s with 0 disagreements"
    )


def test_criterion_5_decision_engine():
    # zero divisor: the euler number of the structure sheaf decides
    for model in (RuledModel(3, 0, 1), RuledModel(2, 0, 0)):
        s = scenario(model, model.zero_class())
        assert classify(s) == CASE_A
        v = decide(s)
        assert (v.result, v.certificate["chi"]) == (GUARANTEED_M1, 1)

    # nonnegative chi(O) with positive euler characteristic
    rational = RuledModel(2, 0, 0)
    for kodaira, expected_case in ((0, CASE_B_I), (RULED, CASE_B_II)):
        d = rational.divisor(1, 1)
        s = scenario(rational, d, kodaira=kodaira)
        assert classify(s) == expected_case
        v = decide(s)
        assert v.result == GUARANTEED_M1
        chi = (
            intersect(d, d - rational.canonical_class()) / 2
            + rational.chi_structure
        )
        assert v.certificate["chi"] == chi > 0

    # relatively minimal ruled scenarios, both signs of the invariant
    nonneg = RuledModel(3, 2, 1)
    s = scenario(
        nonneg,
        nonneg.fiber_class(),
        boundary=(
            (nonneg.section_class(), Fraction(1, 2)),
            (nonneg.divisor(1, 2), Fraction(1, 2)),
        ),
    )
    assert decide(s).result == GUARANTEED_M1

    negative = RuledModel(3, 4, -2)
    s = scenario(
        negative,
        negative.divisor(0, 6),
        boundary=(
            (negative.section_class(), Fraction(1, 2)),
            (negative.divisor(1, 1), Fraction(3, 4)),
        ),
    )
    assert decide(s).result == GUARANTEED_M1

    # fiber degree 2, no upgrade flags: the doubling bound applies
    blown = RuledModel(3, 2, 0).blow_up()
    s = scenario(
        blown,
        blown.divisor(2, 3, -2),
        boundary=((blown.divisor(4, 0, 0), Fraction(3, 4)),),
        relatively_minimal=False,
    )
    assert classify(s) == CASE_C
    v = decide(s)
    assert v.result == GUARANTEED_M2
    assert v.certificate["bound"] == 15 > 0

    # open catalogue rows stay open
    blown_kv = RuledModel(3, 4, -2).blow_up()
    s = scenario(
        blown_kv,
        blown_kv.divisor(2, 9, 0),
        relatively_minimal=False,
        kappa_minus_k_nonneg=False,
    )
    assert classify(s) == CASE_CR
    assert decide(s).result == UNDECIDED

    d1 = RuledModel(3, 4, -2)
    s = scenario(d1, d1.fiber_class(), kodaira=1, chi_o=-3, q=3)
    assert classify(s) == CASE_D_I
    assert decide(s).result == UNDECIDED

    d2 = RuledModel(2, 3, 0)
    s = scenario(d2, d2.fiber_class(), kodaira=2, chi_o=-2, q=1)
    assert classify(s) == CASE_D_II
    assert decide(s).result == UNDECIDED

    # negative chi(O) genus-one fibrations exist only in char 2 and 3
    wild = RuledModel(5, 4, -2)
    s = scenario(wild, wild.fiber_class(), kodaira=1, chi_o=-3, q=3)
    with pytest.raises(InvalidScenario):
        classify(s)

    print("criterion 5 PASS: cases A, B, C, CR, D and the char gate")


def random_tree(rng):
    tree = FiberTree((component(0, 1, rng.choice((0, 0, 1, 2))),))
    for _ in range(rng.randrange(1, 9)):
        if tree.edges and rng.random() < 0.4:
            i, j = rng.choice(tree.edges)
            tree = blow_up_on_edge(tree, i, j)
        else:
            tree = blow_up_on_component(
                tree, rng.randrange(len(tree.components))
            )
    return tree


def test_criterion_6_blow_down_calculus():
    rng = random.Random(20260816)
    corpus = [random_tree(rng) for _ in range(20)]
    assert max(len(t.components) for t in corpus) > 4

    for tree in corpus:
        current = tree
        while True:
            options = current.eligible_contractions()
            if not options:
                break
            index = options[0]
            chosen = current.components[index]
            assert chosen.self_intersection == -1
            assert chosen.d_degree == 0
            neighbors = current.neighbors(index)
            before = [
                current.components[j].self_intersection for j in neighbors
            ]
            current = contract_component(current, index)
            # the constructor re-validates; these two are the headline
            # invariants, stated explicitly
            assert current.self_degree() == 0
            assert current.k_degree() == -2
            shifted = {j - (1 if j > index else 0) for j in neighbors}
            after = sorted(
                current.components[j].self_intersection for j in shifted
            )
            assert after == sorted(v + 1 for v in before)

        reduced, steps = reduce_tree(tree)
        assert reduced == current
        assert reduced.is_reduced_to_section_fiber()
        assert reduced.d_degree() == tree.d_degree()
        assert len(steps) == len(tree.components) - 1

        from_last, _ = reduce_tree(tree, choose=lambda opts: opts[-1])
        from_random, _ = reduce_tree(
            tree, choose=lambda opts: rng.choice(opts)
        )
        assert from_last == reduced
        assert from_random == reduced

    # a configuration keeping a divisor-positive (-1)-component cannot
    # be a fiber: the weighted K-degree sum indicts it
    report = minimality_audit([(-1, 1, 1), (-2, 1, 0)])
    assert report.contradiction
    assert report.k_degree_sum == -1
    assert "-2" in report.detail
    for _ in range(10):
        tail = [(-rng.randrange(2, 5), 1, 0) for _ in range(3)]
        stuck = minimality_audit([(-1, 1, rng.randrange(1, 3))] + tail)
        expected = -1 + sum(-2 - s for s, _, _ in tail)
        assert stuck.contradiction == (expected != -2)
    healthy = minimality_audit([component(0, 1)])
    assert not healthy.contradiction

    print("criterion 6 PASS: 20 trees reduced, audits exact")


def random_model(rng, max_blowups=3):
    model = RuledModel(
        rng.choice((2, 3, 5, 7)),
        rng.randrange(0, 6),
        rng.randrange(-3, 4),
    )
    for _ in range(rng.randrange(0, max_blowups + 1)):
        model = model.blow_up()
    return model


def random_class(rng, model, integral=False):
    def coeff():
        if integral:
            return Fraction(rng.randrange(-9, 10))
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))

    return model.divisor(*[coeff() for _ in range(model.rank)])


def test_criterion_7_property_suites():
    rng = random.Random(20260817)

    for _ in range(150):
        model = random_model(rng)
        a, b, c = (random_class(rng, model) for _ in range(3))
        t = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
        assert intersect(a, b) == intersect(b, a)
        assert intersect(a + b, c) == intersect(a, c) + intersect(b, c)
        assert intersect(a * t, c) == t * intersect(a, c)

    for _ in range(120):
        model = random_model(rng)
        e = model.invariant_e
        hyper = model.divisor(
            *([1, e // 2 + rng.randrange(1, 6)]
              + [0] * len(model.exceptionals))
        )
        square = intersect(hyper, hyper)
        assert square > 0
        d = random_class(rng, model)
        trace_free = d - hyper * (intersect(d, hyper) / square)
        assert intersect(trace_free, hyper) == 0
        self_sq = intersect(trace_free, trace_free)
        assert self_sq <= 0
        if not trace_free.is_zero():
            assert self_sq < 0

    for _ in range(120):
        base = random_model(rng, max_blowups=2)
        target = base
        for _ in range(rng.randrange(1, 3)):
            target = target.blow_up()
        a, b = random_class(rng, base), random_class(rng, base)
        pa, pb = pullback_blowup(target, a), pullback_blowup(target, b)
        assert intersect(pa, pb) == intersect(a, b)
        for i in range(len(base.exceptionals), len(target.exceptionals)):
            assert intersect(pa, target.exceptional_class(i)) == 0

    for _ in range(120):
        model = random_model(rng)
        d = random_class(rng, model, integral=True)
        k = model.canonical_class()
        paired = intersect(d, d) + intersect(d, k)
        assert paired % 2 == 0
        assert adjunction_pa(model, d).denominator == 1

    for _ in range(100):
        ids = [f"b{i}" for i in range(rng.randrange(2, 5))]
        high_coeffs = {
            i: Fraction(rng.randrange(0, 100), 100) for i in ids
        }
        low_coeffs = {
            i: high_coeffs[i] * Fraction(rng.randrange(0, 101), 100)
            for i in ids
        }
        inner = rng.sample(ids, 2)
        forest = (ClusterNode(
            tuple(ids),
            (ClusterNode(tuple(inner)),) if rng.random() < 0.5 else (),
        ),)

        def arrangement(coeffs):
            return ClusterArrangement(
                tuple(WeightedBranch(i, *coeffs[i].as_integer_ratio())
                      for i in ids), forest
            )

        high_verdict, high_trace = is_klt(arrangement(high_coeffs))
        low_verdict, low_trace = is_klt(arrangement(low_coeffs))
        if high_verdict:
            assert low_verdict
        assert low_trace.peak().coefficient <= high_trace.peak().coefficient

    for _ in range(100):
        if rng.random() < 0.5:
            family = Hyperelliptic(
                rng.choice((3, 5)), rng.choice((3, 5, 7))
            )
        else:
            family = ArtinSchreier(
                rng.choice((2, 3)), rng.randrange(3, 7)
            )
        doubled = 2 * default_precision(family)
        assert v_infinity_df(family) == v_infinity_df(
            family, precision=doubled
        )
        assert n_of_f(family) == n_of_f(family, precision=doubled)
        assert certify_tango(family) == certify_tango(family, doubled)

    print("criterion 7 PASS: six property suites, 710 randomized cases")
