"""Property tests: the integer kernels against Fraction references.

The lattice, the positivity rules and the KLT walk compute on integer
numerators over one denominator.  Each property below recomputes the
same quantity the plain way, on ``fractions.Fraction`` values, in the
test itself, and requires the two to agree exactly.  The positivity and
Riemann-Roch kernels, which take numerators that need not be reduced,
are compared with their class wrappers, and on a blown-up model the
positivity answer is one shared unknown record.  A sweep entry is
compared with the plain composition: the polarization as a class
difference, then a fresh product certificate read for chi.  Two more
properties pin, as claims on outputs, facts that earlier checks decide
and so are not tested again: a certified class meets every candidate
curve nonnegatively, and a product certificate's slack chain falls to
a positive chi.  The euler route's two bounds, numerators over 2a^2,
are compared with their Fraction formulas.  The texts that reports
print from integers are compared with their plain forms: ``ratio_text``
with ``str`` of a Fraction, the rational reader's pair with
``Fraction.as_integer_ratio`` and the report quoter with
``json.dumps``.  Example generation is derandomized, so every run
checks the same cases.
"""

import json
import string
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svlab.chiproduct import ChiProduct
from svlab.cli.main import cmd_klt
from svlab.cli.rational import _RATIONAL, parse_ratio
from svlab.cli.report import _quoted
from svlab.cli.schema import SchemaError, _at, _list_of, _object
from svlab.cli.sweep import (
    CERTIFIED_ENTRY,
    DISAGREEMENT,
    SKIPPED_ENTRY,
    SweepEntry,
    sweep_entry,
)
from svlab.kltcalc import (
    EXCEPTIONAL,
    ORIGINAL,
    ClusterArrangement,
    ClusterNode,
    WeightedBranch,
    is_klt,
)
from svlab.lattice import (
    CERTIFIED,
    RULE_BLOWN_UP,
    RULE_CURVE_CONE,
    RULE_DECOMPOSITION,
    RULE_NECESSARY,
    RULE_NONNEG_CONE,
    UNKNOWN,
    VIOLATED,
    DivisorClass,
    InconsistentScenario,
    ModelMismatch,
    PositivityVerdict,
    PreconditionError,
    RuledModel,
    candidate_curve_constraints,
    certify_positivity,
    certify_positivity_nums,
    disjoint_multisection,
    riemann_roch_chi,
    riemann_roch_nums,
)
from svlab.nonvanish import (
    canonical_sign_bound,
    certify_chi_product,
    doubling_bound,
)
from svlab.ratio import ratio_text

SETTINGS = settings(
    max_examples=300, derandomize=True, database=None, deadline=None,
)

rationals = st.builds(
    Fraction, st.integers(-40, 40), st.integers(1, 12),
)


@st.composite
def models(draw, max_points=6, min_points=0):
    """A pure model, or one blown up in chains, satellite points and
    free points."""
    model = RuledModel(
        draw(st.sampled_from((0, 2, 3, 5, 7))),
        draw(st.integers(0, 5)),
        draw(st.integers(-4, 4)),
    )
    for k in range(draw(st.integers(min_points, max_points))):
        prox = draw(st.lists(st.integers(0, k - 1), unique=True,
                             max_size=2)) if k else []
        model = model.blow_up(sorted(prox))
    return model


def coefficient_lists(model):
    return st.lists(rationals, min_size=model.rank, max_size=model.rank)


# -- DivisorClass -------------------------------------------------------------

def fractions_of(cls):
    """A class's coefficients as Fractions: its numerators over its
    denominator."""
    return tuple(Fraction(n, cls.den) for n in cls.nums)


def class_of_fractions(model, coeffs):
    """The class whose coefficients are the Fractions or ints
    ``coeffs``."""
    return model.class_of([c.as_integer_ratio() for c in coeffs])


def reference_dot(model, x, y):
    """The diagonal form on Fraction coefficients: total transforms of
    the exceptionals are orthogonal with square -1."""
    def total(c):
        return [c[2 + j] - sum((c[2 + i] for i in pt),
                               Fraction(0))
                for j, pt in enumerate(model.exceptionals)]
    value = (-model.invariant_e * x[0] * y[0] + x[0] * y[1]
             + y[0] * x[1])
    return value - sum((u * v for u, v in zip(total(x), total(y))),
                       Fraction(0))


@SETTINGS
@given(st.data())
def test_class_operations_match_fractions(data):
    model = data.draw(models())
    x = data.draw(coefficient_lists(model))
    y = data.draw(coefficient_lists(model))
    factor = data.draw(st.one_of(rationals, st.integers(-5, 5)))
    cx, cy = class_of_fractions(model, x), class_of_fractions(model, y)
    num, den = factor.as_integer_ratio()
    k = data.draw(st.integers(1, 5)) * data.draw(st.sampled_from((1, -1)))

    for cls, ref in ((cx, x), (cy, y)):
        assert cls.den > 0 and gcd(cls.den, *cls.nums) == 1
        assert fractions_of(cls) == tuple(ref)
        assert cls.is_integral() == all(c.denominator == 1 for c in ref)
        assert cls.is_zero() == all(c == 0 for c in ref)

    assert Fraction(*cx.dot(cy)) == reference_dot(model, x, y)
    pairing, over = cx.dot(cy)
    assert type(pairing) is int and over == cx.den * cy.den
    assert fractions_of(cx + cy) == tuple(p + q for p, q in zip(x, y))
    assert fractions_of(cx - cy) == tuple(p - q for p, q in zip(x, y))
    assert fractions_of(cx.times(num, den)) == tuple(factor * p for p in x)
    assert cx.times(k * num, k * den) == cx.times(num, den)
    assert (cx - cx).is_zero()


@SETTINGS
@given(st.data())
def test_equality_and_hash_follow_the_coefficients(data):
    model = data.draw(models(max_points=3))
    x = data.draw(coefficient_lists(model))
    y = data.draw(coefficient_lists(model))
    # the same class written over a multiple of its denominator, with
    # either sign
    k = data.draw(st.integers(1, 30)) * data.draw(st.sampled_from((1, -1)))
    cls = class_of_fractions(model, x)
    spread = DivisorClass(model, tuple(k * n for n in cls.nums), k * cls.den)
    assert spread == cls and hash(spread) == hash(cls)
    assert (spread.nums, spread.den) == (cls.nums, cls.den)
    other = class_of_fractions(model, y)
    assert (other == cls) == (tuple(y) == tuple(x))
    if other == cls:
        assert hash(other) == hash(cls)


# -- certify_positivity -------------------------------------------------------

def reference_positivity(model, a, b, strict):
    """The positivity rules on Fraction coefficients: (status, rule,
    note)."""
    e, g, p = model.invariant_e, model.genus, model.characteristic

    def ok(v):
        return v > 0 if strict else v >= 0

    if not ok(a):
        return (VIOLATED, RULE_NECESSARY, f"fiber degree a = {a} fails")
    if not ok(2 * b - a * e):
        return (VIOLATED, RULE_NECESSARY,
                f"self-intersection slope 2b - ae = {2 * b - a * e} fails")
    if e >= 0:
        if ok(b - a * e):
            return (CERTIFIED, RULE_NONNEG_CONE, "")
        return (VIOLATED, RULE_NONNEG_CONE,
                f"D.E = b - ae = {b - a * e} fails")
    if ok(a) and ok(b):
        return (CERTIFIED, RULE_DECOMPOSITION, "")
    # a curve L on a branch 2y >= xe + c has D.L >= x slope + ac/2: the
    # value at each end (x, c) of each branch, where the last branch,
    # x >= p (characteristic 0: x >= 2), has no far end
    slope = b - a * e / 2
    ends = [(1, -e)]
    if p == 0:
        ends.append((2, 0))
    else:
        if p >= 3:
            ends += [(2, 0), (p - 1, 0)]
        ends.append((p, 2 * (1 - g)))
    minima = [x * slope + a * c / 2 for x, c in ends]  # x = 1: D.E
    if strict:
        minima.append(a * (2 * b - a * e))
    if all(ok(v) for v in minima):
        return (CERTIFIED, RULE_CURVE_CONE, "")
    return (UNKNOWN, RULE_CURVE_CONE,
            f"branch minimum {min(minima)} not conclusive")


@st.composite
def positivity_cases(draw):
    """A pure model and a class aE + bF on it.  Half of the cases have
    e < 0, a >= 0 and b near ae/2, where the curve-cone branches
    decide."""
    model = draw(models(max_points=0))
    a, b = draw(rationals), draw(rationals)
    if draw(st.booleans()):
        model = RuledModel(model.characteristic, model.genus,
                           draw(st.integers(-4, -1)))
        a = abs(a)
        b = a * model.invariant_e / 2 + b / 8
    return model, a, b


@SETTINGS
@given(positivity_cases(), st.booleans())
def test_positivity_matches_fractions(case, strict):
    model, a, b = case
    got = certify_positivity(model, class_of_fractions(model, (a, b)),
                             strict=strict)
    assert (got.status, got.rule_used, got.note) == (
        reference_positivity(model, a, b, strict)
    )


# -- the numerator kernels ----------------------------------------------------

# A kernel is handed numerators that need not be reduced, as the sweep
# hands them: (a, b) over den, with den 1 or 2, each times a scale.
kernel_scales = st.integers(1, 4)
kernel_dens = st.sampled_from((1, 2))


@SETTINGS
@given(positivity_cases(), st.booleans(), kernel_dens, kernel_scales)
@example((RuledModel(0, 2, -1), Fraction(1), Fraction(-1, 3)), False, 2, 3)
@example((RuledModel(3, 2, 2), Fraction(1), Fraction(5)), True, 1, 1)
@example((RuledModel(3, 2, -2), Fraction(2), Fraction(-1)), True, 2, 2)
def test_positivity_kernel_matches_its_class_wrapper(case, strict, den, k):
    model, a, b = case
    d = class_of_fractions(model, (a / den, b / den))
    got = certify_positivity_nums(
        model, d.nums[0] * k, d.nums[1] * k, d.den * k, strict
    )
    wrapped = certify_positivity(model, d, strict=strict)
    assert (got.status, got.rule_used, got.note) == (
        wrapped.status, wrapped.rule_used, wrapped.note,
    )
    if got.status == CERTIFIED:
        # a certified verdict is shared, and is the record a fresh one
        # would be
        fresh = PositivityVerdict(CERTIFIED, got.rule_used)
        assert got == fresh and hash(got) == hash(fresh)
        assert got.note == ""


@SETTINGS
@given(st.data())
def test_positivity_on_a_blown_up_model_is_one_unknown(data):
    model = data.draw(models(min_points=1))
    d = class_of_fractions(model, data.draw(coefficient_lists(model)))
    nef = certify_positivity(model, d)
    assert certify_positivity(model, d, strict=True) is nef
    fresh = PositivityVerdict(UNKNOWN, RULE_BLOWN_UP)
    assert nef == fresh and hash(nef) == hash(fresh)
    assert nef.note == ""
    # a class on the pure model below, or on one more blow-up, is from
    # another model, and is refused before any answer
    base = RuledModel(model.characteristic, model.genus, model.invariant_e)
    other = data.draw(st.sampled_from((base, model.blow_up())))
    stray = class_of_fractions(other, data.draw(coefficient_lists(other)))
    for strict in (False, True):
        with pytest.raises(ModelMismatch, match="this model"):
            certify_positivity(model, stray, strict=strict)


def test_certified_verdicts_are_shared_per_rule():
    seen = {}
    for e in (-2, 1):
        model = RuledModel(3, 2, e)
        for a in range(0, 4):
            for b in range(-3, 6):
                for strict in (False, True):
                    got = certify_positivity_nums(model, a, b, 1, strict)
                    if got.status == CERTIFIED:
                        assert seen.setdefault(got.rule_used, got) is got
    assert set(seen) == {RULE_NONNEG_CONE, RULE_DECOMPOSITION,
                         RULE_CURVE_CONE}
    # a fresh record finds the shared one as a key
    table = {shared: rule for rule, shared in seen.items()}
    for rule in seen:
        assert table[PositivityVerdict(CERTIFIED, rule)] == rule


def reference_chi(model, coeffs):
    """chi(D) = D.(D - K)/2 + 1 - g on Fraction coefficients."""
    k = fractions_of(model.canonical_class())
    return (reference_dot(model, coeffs,
                          [x - y for x, y in zip(coeffs, k)]) / 2
            + 1 - model.genus)


@SETTINGS
@given(st.data(), kernel_dens, kernel_scales)
def test_riemann_roch_kernel_matches_its_class_wrapper(data, den, k):
    model = data.draw(models())
    coeffs = [c / den for c in data.draw(coefficient_lists(model))]
    d = class_of_fractions(model, coeffs)
    num, over = riemann_roch_nums(
        model, [n * k for n in d.nums], d.den * k
    )
    assert type(num) is int and type(over) is int and over > 0
    chi = Fraction(num, over)
    assert riemann_roch_chi(model, d) == riemann_roch_nums(
        model, d.nums, d.den)
    assert chi == Fraction(*riemann_roch_chi(model, d)) \
        == reference_chi(model, coeffs)
    if d.is_integral():
        assert chi.denominator == 1


# -- claims on certified outputs ----------------------------------------------

@st.composite
def negative_invariant_classes(draw):
    """A pure e < 0 model in characteristic 0 or p and a class
    (aE + bF)/den on it, a > 0 and b from ae/2 - 1 to 1: mostly
    ae/2 <= b < 0, where neither the necessary tests nor the
    decomposition decide."""
    g = draw(st.integers(0, 3))
    model = RuledModel(draw(st.sampled_from((0, 2, 3, 5, 7))), g,
                       -draw(st.integers(1, 2 * g + 2)))
    a = draw(st.integers(1, 6))
    low = a * model.invariant_e // 2 - 1
    b = draw(st.integers(low, 1))
    return DivisorClass(model, (a, b), draw(st.integers(1, 3)))


# The two readings of the cone table on a pure e < 0 model: the curve
# classes that ``candidate_curve_constraints`` admits, and the one branch
# minimum that ``certify_positivity`` tests.  A class certified by the
# curve-cone rule must meet every admitted class, x from 0 to 2p + 2 (to
# 8 in characteristic 0) and y from below the lowest bound the
# constraints allow (xe/2 + 1 - g) to 6.  A decomposition into E and F
# rests on E and F being nef, so it must too.
# The examples take D = E, which the decomposition certifies nef, on
# models where the x >= p bound 2y >= xe + 2(1 - g) alone admits classes
# with E.L = y - xe < 0: every admitted class must meet E nonnegatively.
# The last example sits on 2b = ae in characteristic 0.
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(negative_invariant_classes(), st.booleans())
@example(DivisorClass(RuledModel(2, 3, -1), (1, 0), 1), False)
@example(DivisorClass(RuledModel(2, 4, -2), (1, 0), 1), False)
@example(DivisorClass(RuledModel(2, 4, -1), (1, 0), 1), False)
@example(DivisorClass(RuledModel(3, 4, -1), (1, 0), 1), False)
@example(DivisorClass(RuledModel(0, 3, -2), (3, -3), 1), False)
def test_certified_positivity_meets_every_candidate_curve(d, strict):
    model = d.model
    p, g, e = model.characteristic, model.genus, model.invariant_e
    verdict = certify_positivity(model, d, strict=strict)
    if verdict.status != CERTIFIED:
        return
    for x in range(2 * (p or 3) + 3):
        for y in range(x * e // 2 - g, 7):
            curve = model.divisor(x, y)
            if candidate_curve_constraints(model, curve):
                value, _ = d.dot(curve)  # over a positive denominator
                assert value > 0 if strict else value >= 0, (x, y)


@SETTINGS
@given(
    st.sampled_from((2, 3, 5, 7)), st.integers(2, 6), st.integers(1, 14),
    st.integers(2, 12).flatmap(
        lambda d: st.builds(Fraction, st.integers(1, d - 1), st.just(d))),
    st.integers(0, 3), st.integers(-4, 2), st.integers(0, 6),
    st.integers(-12, 12),
)
def test_product_certificates_chain_down_to_a_positive_chi(
    p, g, n, c, x, y, a0, b0,
):
    # the check tests neither the slack chain nor the sign of the
    # product: ampleness and the curve bounds imply both
    model = RuledModel(p, g, -min(n, 2 * g + 2))
    product = ChiProduct(model, c.numerator, c.denominator, x,
                         y + x * model.invariant_e // 2)
    for a in range(a0, a0 + 3):
        for b in range(b0, b0 + 8):
            try:
                cert = certify_chi_product(product, a, b).certificate
            except PreconditionError:
                continue
            high, mid, low = map(Fraction, cert["slack_chain"])
            assert high > mid > low
            assert cert["chi"] > 0


@SETTINGS
@given(st.integers(2, 60), st.integers(-500, 500), st.integers(-500, 500),
       st.integers(-500, 500))
@example(2, 4, 1, 0)
@example(3, 0, -7, 5)
def test_euler_bounds_match_their_fraction_formulas(a, d_sq, dhb, dk):
    # the doubling bound and the canonical-sign bound of the euler route,
    # from the integers a >= 2, D^2, D.(H+B) and D.K
    a_q = Fraction(a)
    num, den = doubling_bound(a, d_sq, dhb)
    assert type(num) is int and type(den) is int and den > 0
    assert Fraction(num, den) == (2 * a_q + 1) / (2 * a_q) * (
        (1 - 1 / a_q) * d_sq + dhb)
    num, den = canonical_sign_bound(a, dhb, dk)
    assert type(num) is int and type(den) is int and den > 0
    assert Fraction(num, den) == (
        Fraction(a * a - 1, 2 * a * a) * dhb - Fraction(a + 1, 2 * a * a) * dk
    )


# -- sweep entries ------------------------------------------------------------

def _outcome(compute):
    """What ``compute()`` returns, or the type and text of what it
    raises."""
    try:
        return compute()
    except Exception as ex:  # the comparison covers every refusal
        return type(ex), str(ex)


def reference_entry(model, shift, c, a, b):
    """One sweep entry by the plain composition: the polarization as a
    class difference, and a fresh product certificate read for chi."""
    h = model.divisor(a, b) - shift
    ample = certify_positivity(model, h, strict=True)
    if ample.status != CERTIFIED:
        return SweepEntry(a, b, SKIPPED_ENTRY, None,
                          f"polarization {ample.status} under"
                          f" {ample.rule_used}")
    c_prime = disjoint_multisection(model)
    product = ChiProduct(model, c.numerator, c.denominator, *c_prime.nums)
    try:
        chi = certify_chi_product(product, a, b).certificate["chi"]
    except PreconditionError as ex:
        return SweepEntry(a, b, SKIPPED_ENTRY, None, str(ex))
    except InconsistentScenario as ex:
        return SweepEntry(a, b, DISAGREEMENT, None, str(ex))
    return SweepEntry(a, b, CERTIFIED_ENTRY, chi, "")


@SETTINGS
@given(
    st.sampled_from((0, 2, 3, 5, 7)), st.integers(0, 6), st.integers(-4, -1),
    st.integers(2, 12).flatmap(
        lambda d: st.builds(Fraction, st.integers(1, d - 1), st.just(d))),
    st.integers(-2, 6), st.integers(-15, 20),
)
def test_sweep_entries_match_the_reference(p, g, e, c, a0, b0):
    # p = 0 reaches the product's refusal that escapes the entry
    model = RuledModel(p, g, e)
    shift = model.canonical_class() + disjoint_multisection(model).times(
        c.numerator, c.denominator)
    c_prime = disjoint_multisection(model)
    product = ChiProduct(model, c.numerator, c.denominator, *c_prime.nums)
    for a in range(a0, a0 + 3):
        for b in range(b0, b0 + 8):
            entry = _outcome(
                lambda: sweep_entry(model, shift, product, a, b))
            assert entry == _outcome(
                lambda: reference_entry(model, shift, c, a, b))
            if isinstance(entry, SweepEntry) and entry.chi is not None:
                assert type(entry.chi) is int


# -- is_klt -------------------------------------------------------------------

@st.composite
def forests(draw):
    """Declared branches with mixed denominators, some of them
    exceptional, and a valid cluster forest over them: every node has
    two or more branches, a child's branches pass through its parent and
    siblings share none."""
    count = draw(st.integers(2, 7))
    ids = [f"b{i}" for i in range(count)]
    branches = []
    for bid in ids:
        den = draw(st.integers(1, 12))
        if draw(st.booleans()) and draw(st.booleans()):
            num = draw(st.integers(-den, 2 * den))
            branches.append(WeightedBranch(bid, num, den, EXCEPTIONAL))
        else:
            num = draw(st.integers(0, den - 1))
            branches.append(WeightedBranch(bid, num, den, ORIGINAL))

    def node(pool, depth):
        chosen = draw(st.lists(st.sampled_from(pool), min_size=2,
                               max_size=len(pool), unique=True))
        children = []
        free = list(chosen)
        while depth and len(free) >= 2 and draw(st.booleans()):
            child = node(free, depth - 1)
            children.append(child)
            free = [b for b in free if b not in child.branch_ids]
        return ClusterNode(tuple(chosen), tuple(children))

    roots = tuple(node(ids, 4) for _ in range(draw(st.integers(0, 3))))
    return ClusterArrangement(tuple(branches), roots)


def reference_walk(arr):
    """A recursive preorder walk on Fractions: (verdict, records)."""
    coefficient = {b.id: Fraction(b.numerator, b.denominator)
                   for b in arr.branches}
    records = []

    def visit(node, label, parent):
        sigma = parent + sum((coefficient[i] for i in node.branch_ids),
                             Fraction(0))
        records.append((label, sigma, sigma - 1))
        for idx, child in enumerate(node.children):
            visit(child, f"{label}.{idx}", sigma - 1)

    for idx, root in enumerate(arr.clusters):
        visit(root, f"n{idx}", Fraction(0))
    verdict = (all(c < 1 for c in coefficient.values())
               and all(c < 1 for _, _, c in records))
    return verdict, records


def klt_document(arr):
    """The klt request document of an arrangement."""
    def node(n):
        return {"branches": list(n.branch_ids),
                "children": [node(child) for child in n.children]}

    return {"format": "svlab/1", "request": "klt", "arrangement": {
        "branches": [{"id": b.id, "coefficient": str(
                          Fraction(b.numerator, b.denominator)),
                      "kind": b.kind} for b in arr.branches],
        "clusters": [node(root) for root in arr.clusters],
    }}


# three branches of coefficient 2/3 through one point: the exceptional
# coefficient is exactly 1, which is not klt.  Two points whose sums are
# -1/4 over different denominators tie for the largest coefficient,
# -5/4, and an exceptional branch of coefficient 3/2 makes that trace
# not klt
@SETTINGS
@given(forests())
@example(ClusterArrangement(
    tuple(WeightedBranch(bid, 2, 3) for bid in "xyz"),
    (ClusterNode(("x", "y", "z")),),
))
@example(ClusterArrangement(
    (WeightedBranch("a", -1, 2, EXCEPTIONAL),
     WeightedBranch("b", 1, 4),
     WeightedBranch("c", -3, 4, EXCEPTIONAL),
     WeightedBranch("d", 1, 2),
     WeightedBranch("e", 3, 2, EXCEPTIONAL)),
    (ClusterNode(("a", "b")), ClusterNode(("c", "d"))),
))
def test_klt_trace_matches_fractions(tmp_path_factory, arr):
    verdict, trace = is_klt(arr)
    expected_verdict, expected = reference_walk(arr)
    sums = [Fraction(r.numerator, r.denominator) for r in trace.records]
    assert (verdict, [(r.node, sigma, sigma - 1)
                      for r, sigma in zip(trace.records, sums)]) == (
        expected_verdict, expected)
    top = max((c for _, _, c in expected), default=None)
    peak = trace.peak()
    peak_c = None if peak is None else Fraction(
        peak.numerator - peak.denominator, peak.denominator)
    assert peak_c == top
    assert (None if peak is None else -peak_c) == (
        None if top is None else -top)
    # the report prints each value as str() of its Fraction
    path = tmp_path_factory.getbasetemp() / "klt-trace.json"
    path.write_text(json.dumps(klt_document(arr)), encoding="utf-8")
    lines = cmd_klt(SimpleNamespace(in_path=str(path))).lines
    assert [detail for name, _, detail in lines if name == "blowup"] == [(
        ("node", label), ("sigma", str(sigma)),
        ("coefficient", str(c)), ("discrepancy", str(-c)),
    ) for label, sigma, c in expected]
    (_, _, verdict_detail), = [l for l in lines if l[0] == "klt-verdict"]
    tail = ()
    if expected:
        tail = (("max_exceptional", str(top)),)
        if not expected_verdict:
            tail += (("min_discrepancy", str(min(-c for _, _, c in
                                                  expected))),)
    assert verdict_detail == (
        ("verdict", "klt" if expected_verdict else "not-klt"), *tail,
    )


# -- parse_ratio --------------------------------------------------------------

@SETTINGS
@given(st.from_regex(_RATIONAL, fullmatch=True))
@example("-0/7")
@example("12/18")
def test_parse_ratio_is_the_reduced_pair(value):
    assert parse_ratio(value) == Fraction(value).as_integer_ratio()


@SETTINGS
@given(st.one_of(
    st.text().filter(lambda s: not _RATIONAL.fullmatch(s)),
    st.integers(), st.floats(), st.none(), st.lists(st.text(), max_size=2),
))
def test_parse_ratio_refuses_the_rest(value):
    with pytest.raises(SchemaError) as refused:
        _at("x", parse_ratio, value)
    assert str(refused.value) == (
        f"x: expected an exact rational like \"3\" or \"-9/2\","
        f" got {value!r}"
    )


# -- the generic object reader ------------------------------------------------

def _even(value):
    """A converter: an even integer, halved."""
    if type(value) is not int or value % 2:
        raise SchemaError("expected an even integer", [])
    return value // 2


def _second(value):
    """A converter whose refusal may carry a step of its own: the second
    item, a string, of an array."""
    if type(value) is not list or len(value) < 2:
        raise SchemaError("expected two items or more", [])
    if type(value[1]) is not str:
        raise SchemaError("expected a string", ["[1]"])
    return value[1]


_PLAIN_REFUSALS = {
    str: "expected a string", int: "expected an integer",
    bool: "expected true or false", list: "expected an array",
    dict: "expected an object",
}
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text("ab", max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("ab", max_size=2), inner, max_size=2),
    max_leaves=5,
)
# per reader, values that it mostly accepts
_FITTING = {
    str: st.text("ab", max_size=2), int: st.integers(-3, 3),
    bool: st.booleans(), list: st.lists(json_values, max_size=2),
    dict: st.dictionaries(st.text("ab", max_size=2), json_values,
                          max_size=2),
    _even: st.integers(-3, 3).map(lambda n: 2 * n),
    _second: st.lists(st.text("ab", max_size=2) | st.none(), min_size=2,
                      max_size=3),
}
_readers = st.sampled_from(tuple(_FITTING))


def _array_of(table):
    """``_list_of`` over the key table ``table``, which the reader keeps
    for ``reference_object``."""
    reader = _list_of(table)
    reader.item_table = table
    return reader


def reference_object(data, table):
    """``_object`` written plainly: the unknown keys, then each key of
    the table in order, a required one refused when it is absent.  A
    nested table is read by recursing, and an array of objects item by
    item, each refusal under its ``[i]``."""
    if type(data) is not dict:
        raise SchemaError("expected an object", [])
    unknown = sorted(set(data) - set(table))
    if unknown:
        raise SchemaError(f"unknown keys {unknown}; this schema is strict", [])
    out = {}
    for key, spec in table.items():
        optional = type(spec) is tuple
        reader = spec[0] if optional else spec
        if key not in data:
            if not optional:
                raise SchemaError(f"missing key {key!r}", [])
            out[key] = spec[1]
            continue
        value = data[key]
        try:
            if type(reader) is dict:
                value = reference_object(value, reader)
            elif hasattr(reader, "item_table"):
                if type(value) is not list:
                    raise SchemaError("expected an array", [])
                items = []
                for i, item in enumerate(value):
                    try:
                        items.append(reference_object(item, reader.item_table))
                    except SchemaError as ex:
                        ex.within(f"[{i}]")
                        raise
                value = items
            elif reader in _PLAIN_REFUSALS:
                if type(value) is not reader:
                    raise SchemaError(_PLAIN_REFUSALS[reader], [])
            else:
                value = reader(value)
        except SchemaError as ex:
            ex.within("." + key)
            raise
        out[key] = value
    return out


def key_tables(depth, max_size=5):
    """A key table of plain types and converters, and ``depth`` levels
    of nested key tables and arrays of them below it, some keys
    optional with a default."""
    readers = _readers
    if depth:
        inner = key_tables(depth - 1, max_size=3)
        readers = _readers | inner | inner.map(_array_of)
    return st.dictionaries(
        st.sampled_from("abcde"),
        readers | st.tuples(readers, json_values), max_size=max_size,
    )


_KEY_TABLES = key_tables(2)


def _fitting(draw, reader):
    """A value that ``reader`` mostly accepts."""
    if type(reader) is dict:
        return _object_of(draw, reader)
    if hasattr(reader, "item_table"):
        return [_object_of(draw, reader.item_table)
                for _ in range(draw(st.integers(0, 2)))]
    return draw(_FITTING[reader])


def _object_of(draw, table):
    """An object whose values mostly fit ``table``, with keys left out
    and keys that the table does not list."""
    items = []
    for key, spec in table.items():
        reader = spec[0] if type(spec) is tuple else spec
        fit = draw(st.integers(0, 5))
        if fit < 5:
            items.append((key, _fitting(draw, reader) if fit < 4
                          else draw(json_values)))
    if draw(st.integers(0, 4)) == 4:
        items.append((draw(st.sampled_from("xy")), draw(json_values)))
    return dict(draw(st.permutations(items)))


@st.composite
def tables_and_objects(draw):
    """A key table, nested at most two levels, and a JSON value to read
    against it: mostly an object whose values mostly fit."""
    table = draw(_KEY_TABLES)
    # hypothesis leans to small draws, so the first choices are the
    # common ones
    if draw(st.integers(0, 9)) == 9:
        return table, draw(json_values)
    return table, _object_of(draw, table)


def _reading(reader, data, table):
    """The fields that ``reader`` reads, in order, or its refusal's text
    and path."""
    try:
        return list(reader(data, table).items())
    except SchemaError as ex:
        return str(ex), ex.path


@SETTINGS
@given(tables_and_objects())
def test_object_matches_the_plain_reader(case):
    table, data = case
    assert _reading(_object, data, table) == _reading(
        reference_object, data, table)


# -- the texts of ratios and of report values ---------------------------------

@SETTINGS
@given(st.integers(), st.integers().filter(bool))
@example(0, -3)
@example(-6, -4)
@example(7, 1)
def test_ratio_text_is_the_text_of_the_fraction(num, den):
    assert ratio_text(num, den) == str(Fraction(num, den))


@SETTINGS
@given(st.text() | st.text(string.printable))
@example("")
@example('a "quoted" \\ value')
@example("tab\there")
@example("caf\u00e9 au lait")
def test_quoted_is_json_whenever_it_quotes(value):
    # a value is quoted when it is empty or holds a space, a quote or a
    # backslash, and then exactly as json.dumps quotes it
    needs = value == "" or any(c in value for c in ' "\\')
    assert _quoted(value) == (json.dumps(value) if needs else value)
