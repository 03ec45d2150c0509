"""Exact intersection theory on blown-up geometrically ruled surfaces.

The ambient lattice is the numerical class group of a P^1-bundle over a
curve of genus g, blown up in a chain of (possibly infinitely near)
points.  Basis: E (a section with E^2 = -e), F (a fiber), and the strict
transforms e_1..e_k of the exceptional curves; point j is proximate to
point i when it lies on the strict transform of e_i.  A model is its
numbers (p, g, e and the points), and a point is the tuple of the
earlier exceptionals it is proximate to.  Every such surface has
chi(O) = 1 - g (Hartshorne, Algebraic Geometry, V.2-V.3), so chi(O) is
derived, never stored.

The intersection form is never stored as a matrix.  Total transforms of
the exceptional curves are pairwise orthogonal with square -1 and
orthogonal to the pulled-back E and F (Hartshorne, Algebraic Geometry,
V.3), and the strict transform e_j is the total transform of point j
minus those of the points proximate to it (Casas-Alvero, Singularities
of Plane Curves, on proximity).  So in total-transform coordinates
u_j = x_j - sum of x_i over the points i that point j is proximate to,
the exceptional part of the form is diagonal:

    (a, b, x).(a', b', x') = -e a a' + a b' + a' b - sum_j u_j u'_j

Stored coordinates stay in the strict-transform basis, which is what
documents and reports use.

The classes that an irreducible curve can have on a pure model are one
table, ``RuledModel.curve_cone``, read by the curve test and the
positivity rule.  A curve C = xE + yF other than E and F has x >= 1
and E.C = y - xe >= 0, which is all for e >= 0 (Hartshorne, V.2.20).
For e < 0, x = 1 needs y >= 0, and in characteristic 0 x >= 2 needs
2y >= xe (V.2.21).  In characteristic p the table keeps 2y >= xe for
x <= p - 1, where C maps separably onto the base as V.2.21's proof
needs.  For x >= p it takes 2y >= xe + 2(1 - g), by adjunction,
2p_a(C) - 2 = (x - 1)(2y - xe) + x(2g - 2), with p_a(C) >= g.  The
normalisation of C maps finitely onto the base curve, and the target
of a finite map of smooth curves has genus at most the source's:
Hurwitz's formula bounds a separable map (IV.2.4), and a purely
inseparable one keeps the genus (IV.2.5).  And p_a(C) is at least the
genus of its normalisation (IV Ex. 1.8).  No positivity rule applies on
a blown-up model, where ``certify_positivity`` answers unknown.

Everything is exact and no floating point appears anywhere.  A class
is kept as integer numerators over one positive denominator, so sums,
pairings and the positivity rules run on ints, and a note or
``format_class`` prints a value from integers through
``svlab.ratio.ratio_text``.  ``RuledModel.divisor`` builds an integral
class from ints and ``RuledModel.class_of`` a rational one from
``(numerator, denominator)`` pairs, ``boundary_sum`` takes its
coefficients as such pairs, and ``DivisorClass.dot`` and
``riemann_roch_chi`` give an intersection number and chi as a numerator
over a positive denominator.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property
from math import gcd, lcm

from .primes import is_prime
from .ratio import ratio_text
from .record import record


class LatticeError(ValueError):
    """Invalid input to a lattice operation."""


class ModelMismatch(LatticeError):
    """Operands live on different models."""


# The refusals of a scenario, raised by the decision engine and by the
# chi product check, which both build on this module.
class ScenarioError(ValueError):
    pass


class InconsistentScenario(ScenarioError):
    """The declared invariants contradict each other numerically."""


class PreconditionError(ScenarioError):
    """An operation was invoked outside its certified domain."""


@record
class RuledModel:
    """Numerical model of a blown-up ruled surface.

    ``invariant_e`` is the negative of the section's self-intersection;
    ``characteristic`` is 0 or a prime.  ``exceptionals`` holds one tuple
    per blown-up point: the indices of the earlier exceptionals it is
    proximate to.
    """

    characteristic: int
    genus: int
    invariant_e: int
    exceptionals: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        # a bool or a float compares equal to an int and would pass every
        # check below by value
        if {type(self.characteristic), type(self.genus),
                type(self.invariant_e)} != {int}:
            raise LatticeError("characteristic, genus and e must be integers")
        if self.characteristic != 0 and not is_prime(self.characteristic):
            raise LatticeError("characteristic must be 0 or a prime")
        if self.genus < 0:
            raise LatticeError("genus must be nonnegative")
        if type(self.exceptionals) is not tuple:
            raise LatticeError("the exceptionals must be a tuple")
        for idx, pt in enumerate(self.exceptionals):
            if type(pt) is not tuple or any(type(j) is not int for j in pt):
                raise LatticeError("a point is a tuple of integer indices")
            for j in pt:
                if not 0 <= j < idx:
                    raise LatticeError(
                        "proximity must point at an earlier exceptional"
                    )
            if len(set(pt)) != len(pt):
                raise LatticeError("duplicate proximity target")

    @property
    def chi_structure(self) -> int:
        """chi(O) = 1 - g; blowing up points does not change it."""
        return 1 - self.genus

    # -- basic shape -------------------------------------------------

    @cached_property
    def rank(self) -> int:
        return 2 + len(self.exceptionals)

    @property
    def is_pure(self) -> bool:
        return not self.exceptionals

    # -- class constructors -------------------------------------------

    def divisor(self, *coeffs: int) -> "DivisorClass":
        """The integral class with these int coefficients, zero-padded
        to the rank; ``class_of`` builds a rational one."""
        padding = self.rank - len(coeffs)
        if padding < 0:
            raise LatticeError("too many coefficients for this model")
        return DivisorClass(self, coeffs + (0,) * padding)

    def class_of(self, ratios) -> "DivisorClass":
        """The class whose coefficients are the ``(numerator,
        denominator)`` int pairs ``ratios``, each denominator nonzero,
        zero-padded to the rank: their numerators over the least common
        denominator."""
        padding = self.rank - len(ratios)
        if padding < 0:
            raise LatticeError("too many coefficients for this model")
        den = lcm(*(d for _, d in ratios))
        nums = [n * (den // d) for n, d in ratios]
        return DivisorClass(self, tuple(nums + [0] * padding), den)

    def zero_class(self) -> "DivisorClass":
        return self.divisor()

    def section_class(self) -> "DivisorClass":
        return self.divisor(1)

    def fiber_class(self) -> "DivisorClass":
        return self.divisor(0, 1)

    def exceptional_class(self, i: int) -> "DivisorClass":
        if not 0 <= i < len(self.exceptionals):
            raise LatticeError("no such exceptional")
        cs = [0] * self.rank
        cs[2 + i] = 1
        return self.divisor(*cs)

    def canonical_class(self) -> "DivisorClass":
        """K = -2E + (2g-2-e)F + sum of exceptionals, with the coefficient
        of e_i growing along proximity chains (c_i = 1 + sum over the
        points i is proximate to).  Computed once per model, which is
        frozen."""
        return self._canonical

    @cached_property
    def _canonical(self) -> "DivisorClass":
        k = len(self.exceptionals)
        cs: list[int] = [0] * k
        for i, pt in enumerate(self.exceptionals):
            cs[i] = 1 + sum(cs[j] for j in pt)
        return self.divisor(
            -2, 2 * self.genus - 2 - self.invariant_e, *cs
        )

    @cached_property
    def curve_cone(self) -> tuple[tuple[int, int | None, int], ...]:
        """The candidate-curve cone of the module docstring as branches
        (x_low, x_high or None, c), each 2y >= xe + c for x in its range.
        Only the last branch is unbounded; every other has c >= 0."""
        e, p = self.invariant_e, self.characteristic
        if e >= 0:
            return ()
        if p == 0:
            return ((1, 1, -e), (2, None, 0))
        return ((1, 1, -e), (2, p - 1, 0), (p, None, 2 * (1 - self.genus)))

    def blow_up(self, proximate_to: Iterable[int] = ()) -> "RuledModel":
        return RuledModel(
            self.characteristic,
            self.genus,
            self.invariant_e,
            self.exceptionals + (tuple(proximate_to),),
        )


def _form(model: RuledModel, x, y) -> int:
    """The diagonal form of the module docstring on two numerator
    sequences (exceptional i at index 2 + i), in O(rank + proximities)."""
    a, b, a2, b2 = x[0], x[1], y[0], y[1]
    total = -model.invariant_e * a * a2 + a * b2 + a2 * b
    for j, pt in enumerate(model.exceptionals, 2):
        u = x[j] - sum(x[2 + i] for i in pt)
        v = y[j] - sum(y[2 + i] for i in pt)
        total -= u * v
    return total


_INT_ONLY = {int}


@record
class DivisorClass:
    """A rational class in the model's basis: the coefficients are
    ``nums[i] / den``.  ``nums`` starts with the E and F numerators;
    exceptional ones follow.  The numerators and the denominator
    must be plain ints; anything else raises LatticeError.

    The record is normalised at construction, so that ``den > 0`` and
    ``gcd(den, *nums) == 1``; two classes are then equal exactly when
    their coefficients are.
    """

    model: RuledModel
    nums: tuple[int, ...]
    den: int = 1

    def __post_init__(self) -> None:
        if len(self.nums) != self.model.rank:
            raise LatticeError("coefficient count does not match the model")
        den = self.den
        if {type(den), *map(type, self.nums)} != _INT_ONLY:
            raise LatticeError(
                "a class takes int numerators over an int denominator"
            )
        if den == 1:
            return
        if den == 0:
            raise LatticeError("a class needs a nonzero denominator")
        common = gcd(den, *self.nums)
        if den < 0:
            common = -common
        if common != 1:
            object.__setattr__(
                self, "nums", tuple(n // common for n in self.nums)
            )
            object.__setattr__(self, "den", den // common)

    def is_integral(self) -> bool:
        return self.den == 1

    def is_zero(self) -> bool:
        return not any(self.nums)

    def _same_model(self, other: "DivisorClass") -> None:
        if other.model is not self.model and other.model != self.model:
            raise ModelMismatch("classes live on different models")

    def dot(self, other: "DivisorClass") -> tuple[int, int]:
        """The intersection number as an integer numerator over the
        product of the two denominators, which is positive."""
        self._same_model(other)
        return _form(self.model, self.nums, other.nums), self.den * other.den

    def _combine(self, other: "DivisorClass", sign: int) -> "DivisorClass":
        """self + sign * other, over the product of the denominators."""
        self._same_model(other)
        d1, d2 = self.den, other.den
        return DivisorClass(self.model, tuple(
            x * d2 + sign * y * d1 for x, y in zip(self.nums, other.nums)
        ), d1 * d2)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return self._combine(other, 1)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self._combine(other, -1)

    def times(self, num: int, den: int = 1) -> "DivisorClass":
        """The class times ``num / den``, two ints with ``den != 0``."""
        return DivisorClass(
            self.model, tuple(num * x for x in self.nums), den * self.den
        )


def format_class(cls: DivisorClass) -> str:
    """The class as a signed sum over the basis names E, F, e0, e1, ...;
    each coefficient other than 1 prints from its numerator over the
    class's denominator through ``ratio_text``, as "(9/2)F"."""
    den = cls.den
    names = ["E", "F"] + [f"e{i}" for i in range(len(cls.nums) - 2)]
    parts = []
    for num, name in zip(cls.nums, names):
        if num == 0:
            continue
        sign = "-" if num < 0 else ("+" if parts else "")
        mag = abs(num)
        body = name if mag == den else f"({ratio_text(mag, den)}){name}"
        parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
    return " ".join(parts) if parts else "0"


def boundary_sum(model: RuledModel, boundary) -> DivisorClass:
    """B = sum of c C over the (class C, coefficient c) pairs, each c a
    ``(numerator, denominator)`` int pair."""
    total = model.zero_class()
    for cls, (num, den) in boundary:
        total = total + cls.times(num, den)
    return total


def _check_on(model: RuledModel, cls: DivisorClass) -> None:
    if cls.model is not model and cls.model != model:
        raise ModelMismatch("class does not live on this model")


def adjunction_pa(model: RuledModel, c: DivisorClass) -> int:
    """Arithmetic genus 1 + C.(C+K)/2 of an integral class, an int:
    C and K are integral, and C.(C+K) = C.(C-K) + 2C.K is even (see
    ``riemann_roch_nums``)."""
    _check_on(model, c)
    if not c.is_integral():
        raise LatticeError("adjunction needs an integral class")
    total, _ = c.dot(c + model.canonical_class())  # over 1
    return 1 + total // 2


def riemann_roch_nums(model: RuledModel, nums, den: int) -> tuple[int, int]:
    """chi(D) for D = nums / den, den > 0, on ``model``, as an integer
    numerator over an integer denominator, neither reduced:
    chi(D) = D.(D-K)/2 + chi(O).  Integral D always yields an integer:
    D.(D-K) is -e a(a+1) - sum u_j(u_j - 1) plus even terms, since K
    has total-transform coordinates 1, so it is even.  The numerators
    are not checked against the model; ``riemann_roch_chi`` is the
    checked entry."""
    k = model.canonical_class()  # D - K as numerators over den * k.den
    total = _form(model, nums,
                  [x * k.den - y * den for x, y in zip(nums, k.nums)])
    over = 2 * den * den * k.den
    return total + over * model.chi_structure, over


def riemann_roch_chi(model: RuledModel, d: DivisorClass) -> tuple[int, int]:
    """chi(D) = D.(D-K)/2 + chi(O) of a class on ``model``, as
    ``riemann_roch_nums`` gives it, once the class is checked to live on
    the model."""
    _check_on(model, d)
    return riemann_roch_nums(model, d.nums, d.den)


def candidate_curve_constraints(model: RuledModel, cls: DivisorClass) -> bool:
    """Necessary constraints for xE + yF to be the class of an irreducible
    curve on the pure model: E, F, or a class in ``model.curve_cone``."""
    if not model.is_pure:
        raise LatticeError("curve-class constraints apply to pure models")
    _check_on(model, cls)
    if not cls.is_integral():
        raise LatticeError("curve classes are integral")
    # E and F themselves; on a pure model these are the two basis vectors
    if cls.nums in ((1, 0), (0, 1)):
        return True
    e = model.invariant_e
    x, y = cls.nums
    return x >= 1 and y >= x * e and all(
        2 * y >= x * e + c
        for low, high, c in model.curve_cone
        if low <= x and (high is None or x <= high)
    )


def disjoint_multisection(model: RuledModel) -> DivisorClass:
    """The class pE - pnF, n = -e: degree p over the base, disjoint from
    E."""
    p = model.characteristic
    return model.divisor(p, p * model.invariant_e)


CERTIFIED = "certified"
VIOLATED = "violated"
UNKNOWN = "unknown"

RULE_NECESSARY = "positivity.necessary"
RULE_NONNEG_CONE = "positivity.nonnegative-invariant-cone"
RULE_DECOMPOSITION = "positivity.section-fiber-decomposition"
RULE_CURVE_CONE = "positivity.curve-cone-bounds"
RULE_BLOWN_UP = "positivity.blown-up-model"


@record
class PositivityVerdict:
    """A status, the rule that settled it and, for a verdict that an
    inequality did not certify, the ``detail`` of its note: a template
    and the value ``num / den`` that it prints, as
    ``(template, num, den)``.  The note is written only when it is read,
    so a caller that reads the status and the rule alone, as the sweep
    does, formats none."""

    status: str
    rule_used: str
    detail: tuple = ()

    @property
    def note(self) -> str:
        if not self.detail:
            return ""
        template, num, den = self.detail
        return template.format(ratio_text(num, den))


# a certified verdict carries no note, so one record per rule serves
# every call, as one unknown record serves every blown-up model; records
# are immutable
_CERTIFIED_BY = {
    rule: PositivityVerdict(CERTIFIED, rule)
    for rule in (RULE_NONNEG_CONE, RULE_DECOMPOSITION, RULE_CURVE_CONE)
}
_BLOWN_UP = PositivityVerdict(UNKNOWN, RULE_BLOWN_UP)


def certify_positivity(
    model: RuledModel, d: DivisorClass, strict: bool = False
) -> PositivityVerdict:
    """Three-valued nef (strict: ample) certification of a class on
    ``model``.  A class from another model raises ``ModelMismatch``.  On
    a pure model the rules of ``certify_positivity_nums`` decide on the
    class's numerators; on a blown-up model no rule applies, and the
    answer is one shared unknown verdict under ``RULE_BLOWN_UP``."""
    _check_on(model, d)
    if not model.is_pure:
        return _BLOWN_UP
    return certify_positivity_nums(model, *d.nums, d.den, strict)


def certify_positivity_nums(
    model: RuledModel, a: int, b: int, den: int, strict: bool = False
) -> PositivityVerdict:
    """Three-valued nef (strict: ample) certification of
    D = (aE + bF) / den, den > 0, on the pure ``model``.  Neither the
    purity of the model nor the numerators are checked here;
    ``certify_positivity`` is the checked entry.

    Rules, in order: the necessary inequalities a >= 0 and
    s = 2b - ae >= 0 (strict versions for ample); for e >= 0 the cone
    description b >= ae is complete in both directions; for e < 0, a
    decomposition into nonnegative multiples of the nef classes E and F
    (b >= 0, given a >= 0) certifies, and otherwise the branches of
    ``model.curve_cone`` decide.  Anything else is unknown, never
    guessed.

    By then a > 0, and a curve L on a branch with bound c has
    D.L >= (xs + ac)/2, which does not fall as x grows: a branch with
    c >= 0 gives D.L >= 0 (> 0 for ample, where s > 0), so only the last
    branch is tested, at its x_low.  D.E = (s - ae)/2 > 0, D.F = a > 0
    and an ample class has D^2 = as > 0.

    Every rule is a sign test of a form that is homogeneous in (a, b),
    so the numerators need not be reduced.  A certified verdict is a
    shared record, and any other keeps the integers of its note.
    """
    e = model.invariant_e

    def ok(v: int) -> bool:
        return v > 0 if strict else v >= 0

    if not ok(a):
        return PositivityVerdict(
            VIOLATED, RULE_NECESSARY, ("fiber degree a = {} fails", a, den),
        )
    slope2 = 2 * b - a * e  # 2b - ae, and twice the slope b - ae/2
    if not ok(slope2):
        return PositivityVerdict(
            VIOLATED, RULE_NECESSARY,
            ("self-intersection slope 2b - ae = {} fails", slope2, den),
        )

    if e >= 0:
        if ok(b - a * e):
            return _CERTIFIED_BY[RULE_NONNEG_CONE]
        return PositivityVerdict(
            VIOLATED, RULE_NONNEG_CONE,
            ("D.E = b - ae = {} fails", b - a * e, den),
        )

    if ok(b):
        return _CERTIFIED_BY[RULE_DECOMPOSITION]

    x_low, _, c = model.curve_cone[-1]
    tail = x_low * slope2 + a * c  # over 2 * den
    if ok(tail):
        return _CERTIFIED_BY[RULE_CURVE_CONE]
    return PositivityVerdict(
        UNKNOWN, RULE_CURVE_CONE,
        ("branch minimum {} not conclusive", tail, 2 * den),
    )


def pullback_blowup(target: RuledModel, d: DivisorClass) -> DivisorClass:
    """Total-transform pullback of d to a model that extends d.model by
    further blow-ups.  A new coordinate picks up the coefficients of the
    exceptionals its point is proximate to."""
    base = d.model
    if (
        target.characteristic != base.characteristic
        or target.genus != base.genus
        or target.invariant_e != base.invariant_e
        or target.exceptionals[: len(base.exceptionals)] != base.exceptionals
    ):
        raise ModelMismatch("target does not extend the class's model")
    nums = list(d.nums)
    for pt in target.exceptionals[len(base.exceptionals):]:
        nums.append(sum(nums[2 + j] for j in pt))
    return DivisorClass(target, tuple(nums), d.den)
