"""Property tests: the integer kernels against Fraction references.

The lattice, the positivity rules and the KLT walk compute on integer
numerators over one denominator.  Each property below recomputes the
same quantity the plain way, on ``fractions.Fraction`` values, in the
test itself, and requires the two to agree exactly.  A sweep entry is
compared with the plain composition: the polarization as a class
difference, then a fresh product certificate read for chi.  Example
generation is derandomized, so every run checks the same cases.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svlab.cli.schema import _RATIONAL, SchemaError, parse_rational
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
    RULE_CURVE_CONE,
    RULE_DECOMPOSITION,
    RULE_NECESSARY,
    RULE_NONNEG_CONE,
    UNKNOWN,
    VIOLATED,
    DivisorClass,
    RuledModel,
    certify_positivity,
    disjoint_multisection,
)
from svlab.nonvanish import (
    ChiProduct,
    InconsistentScenario,
    PreconditionError,
)

SETTINGS = settings(
    max_examples=300, derandomize=True, database=None, deadline=None,
)

rationals = st.builds(
    Fraction, st.integers(-40, 40), st.integers(1, 12),
)


@st.composite
def models(draw, max_points=6):
    """A pure model, or one blown up in chains, satellite points and
    free points."""
    model = RuledModel(
        draw(st.sampled_from((0, 2, 3, 5, 7))),
        draw(st.integers(0, 5)),
        draw(st.integers(-4, 4)),
    )
    for k in range(draw(st.integers(0, max_points))):
        prox = draw(st.lists(st.integers(0, k - 1), unique=True,
                             max_size=2)) if k else []
        model = model.blow_up(sorted(prox))
    return model


def coefficient_lists(model):
    return st.lists(rationals, min_size=model.rank, max_size=model.rank)


# -- DivisorClass -------------------------------------------------------------

def reference_dot(model, x, y):
    """The diagonal form on Fraction coefficients: total transforms of
    the exceptionals are orthogonal with square -1."""
    def total(c):
        return [c[2 + j] - sum((c[2 + i] for i in pt.proximate_to),
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
    cx, cy = model.divisor(*x), model.divisor(*y)

    for cls, ref in ((cx, x), (cy, y)):
        assert cls.den > 0 and gcd(cls.den, *cls.nums) == 1
        assert cls.coeffs == tuple(ref)
        assert all(type(c) is Fraction for c in cls.coeffs)
        assert (cls.a, cls.b) == (ref[0], ref[1])
        assert cls.is_integral() == all(c.denominator == 1 for c in ref)
        assert cls.is_zero() == all(c == 0 for c in ref)

    assert cx.dot(cy) == reference_dot(model, x, y)
    assert type(cx.dot(cy)) is Fraction
    assert (cx + cy).coeffs == tuple(p + q for p, q in zip(x, y))
    assert (cx - cy).coeffs == tuple(p - q for p, q in zip(x, y))
    assert cx.scaled(factor).coeffs == tuple(factor * p for p in x)
    assert (factor * cx) == (cx * factor) == cx.scaled(factor)
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
    cls = model.divisor(*x)
    spread = DivisorClass(model, tuple(k * n for n in cls.nums), k * cls.den)
    assert spread == cls and hash(spread) == hash(cls)
    assert (spread.nums, spread.den) == (cls.nums, cls.den)
    other = model.divisor(*y)
    assert (other == cls) == (tuple(y) == tuple(x))
    if other == cls:
        assert hash(other) == hash(cls)


# -- certify_positivity -------------------------------------------------------

def reference_positivity(model, a, b, strict):
    """The positivity rules on Fraction coefficients: (status, rule,
    witness, note)."""
    e, g, p = model.invariant_e, model.genus, model.characteristic

    def ok(v):
        return v > 0 if strict else v >= 0

    if not ok(a):
        return (VIOLATED, RULE_NECESSARY, model.fiber_class(),
                f"fiber degree a = {a} fails")
    if not ok(2 * b - a * e):
        return (VIOLATED, RULE_NECESSARY, None,
                f"self-intersection slope 2b - ae = {2 * b - a * e} fails")
    if e >= 0:
        if ok(b - a * e):
            return (CERTIFIED, RULE_NONNEG_CONE, None, "")
        return (VIOLATED, RULE_NONNEG_CONE, model.section_class(),
                f"D.E = b - ae = {b - a * e} fails")
    if ok(a) and ok(b):
        return (CERTIFIED, RULE_DECOMPOSITION, None, "")
    if p == 0:
        return (UNKNOWN, RULE_CURVE_CONE, None,
                "curve-cone bounds need positive characteristic")
    slope = b - a * e / 2
    if slope <= 0 and a > 0:
        return (UNKNOWN, RULE_CURVE_CONE, None,
                "tail branch unbounded below")
    minima = [b - a * e]
    if p >= 3:
        minima += [2 * slope, (p - 1) * slope]
    minima.append(p * slope + a * (1 - g))
    if strict:
        minima.append(a * (2 * b - a * e))
    if all(ok(v) for v in minima):
        return (CERTIFIED, RULE_CURVE_CONE, None, "")
    return (UNKNOWN, RULE_CURVE_CONE, None,
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
    got = certify_positivity(model, model.divisor(a, b), strict=strict)
    assert (got.status, got.rule_used, got.witness, got.note) == (
        reference_positivity(model, a, b, strict)
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
    product = ChiProduct(model, c, c_prime.a, c_prime.b)
    try:
        chi = product.certify(a, b).certificate["chi"]
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
    shift = model.canonical_class() + disjoint_multisection(model) * c
    c_prime = disjoint_multisection(model)
    product = ChiProduct(model, c, c_prime.a, c_prime.b)
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
            branches.append(WeightedBranch(bid, Fraction(num, den),
                                           EXCEPTIONAL))
        else:
            num = draw(st.integers(0, den - 1))
            branches.append(WeightedBranch(bid, Fraction(num, den), ORIGINAL))

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
    coefficient = {b.id: b.coefficient for b in arr.branches}
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


# three branches of coefficient 2/3 through one point: the exceptional
# coefficient is exactly 1, which is not klt
@SETTINGS
@given(forests())
@example(ClusterArrangement(
    tuple(WeightedBranch(bid, Fraction(2, 3)) for bid in "xyz"),
    (ClusterNode(("x", "y", "z")),),
))
def test_klt_trace_matches_fractions(arr):
    verdict, trace = is_klt(arr)
    assert (verdict, [(r.node, r.sigma, r.coefficient)
                      for r in trace.records]) == reference_walk(arr)
    assert all(type(r.sigma) is Fraction and type(r.coefficient) is Fraction
               for r in trace.records)


# -- parse_rational -----------------------------------------------------------

@SETTINGS
@given(st.from_regex(_RATIONAL, fullmatch=True))
def test_parse_rational_accepts_what_the_pattern_accepts(value):
    parsed = parse_rational(value, "x")
    assert parsed == Fraction(value) and type(parsed) is Fraction


@SETTINGS
@given(st.one_of(
    st.text().filter(lambda s: not _RATIONAL.fullmatch(s)),
    st.integers(), st.floats(), st.none(), st.lists(st.text(), max_size=2),
))
def test_parse_rational_refuses_the_rest(value):
    with pytest.raises(SchemaError) as refused:
        parse_rational(value, "x")
    assert str(refused.value) == (
        f"x: expected an exact rational like \"3\" or \"-9/2\","
        f" got {value!r}"
    )
