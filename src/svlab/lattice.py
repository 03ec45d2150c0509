"""Exact intersection theory on blown-up geometrically ruled surfaces.

The ambient lattice is the numerical class group of a P^1-bundle over a
curve of genus g, blown up in a chain of (possibly infinitely near)
points.  Basis: E (a section with E^2 = -e), F (a fiber), and the strict
transforms e_1..e_k of the exceptional curves; point j is proximate to
point i when it lies on the strict transform of e_i.

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

Everything is exact and no floating point appears anywhere.  A class
is kept as integer numerators over one positive denominator, so sums,
pairings and the positivity rules run on ints; a ``fractions.Fraction``
is built only where a coefficient or an intersection number leaves the
module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Union

from .primes import is_prime
from .record import record

Rational = Union[int, Fraction]


class LatticeError(ValueError):
    """Invalid input to a lattice operation."""


class ModelMismatch(LatticeError):
    """Operands live on different models."""


class UnsupportedRegime(LatticeError):
    """The requested rule set is not available on this model."""


@record
class BlowupPoint:
    """One blown-up point; ``proximate_to`` lists the earlier exceptionals
    whose strict transforms pass through it."""

    proximate_to: tuple[int, ...] = ()


@record
class RuledModel:
    """Numerical model of a blown-up ruled surface.

    ``invariant_e`` is the negative of the section's self-intersection,
    ``chi_structure`` is chi(O) and defaults to 1 - genus (blowing up
    points does not change it).  ``characteristic`` is 0 or a prime.
    """

    characteristic: int
    genus: int
    invariant_e: int
    exceptionals: tuple[BlowupPoint, ...] = ()
    chi_structure: int | None = None

    def __post_init__(self) -> None:
        # a bool or a float compares equal to an int and would pass every
        # check below by value
        if {type(self.characteristic), type(self.genus),
                type(self.invariant_e)} != {int}:
            raise LatticeError("characteristic, genus and e must be integers")
        if type(self.chi_structure) not in (int, type(None)):
            raise LatticeError("chi(O) must be an integer")
        if self.characteristic != 0 and not is_prime(self.characteristic):
            raise LatticeError("characteristic must be 0 or a prime")
        if self.genus < 0:
            raise LatticeError("genus must be nonnegative")
        for idx, pt in enumerate(self.exceptionals):
            for j in pt.proximate_to:
                if not 0 <= j < idx:
                    raise LatticeError(
                        "proximity must point at an earlier exceptional"
                    )
            if len(set(pt.proximate_to)) != len(pt.proximate_to):
                raise LatticeError("duplicate proximity target")
        if self.chi_structure is None:
            object.__setattr__(self, "chi_structure", 1 - self.genus)

    # -- basic shape -------------------------------------------------

    @cached_property
    def rank(self) -> int:
        return 2 + len(self.exceptionals)

    @property
    def is_pure(self) -> bool:
        return not self.exceptionals

    # -- class constructors -------------------------------------------

    def divisor(self, *coeffs: Rational) -> "DivisorClass":
        """The class with these coefficients, zero-padded to the rank.
        Each coefficient is an int or a Fraction."""
        padding = self.rank - len(coeffs)
        if padding < 0:
            raise LatticeError("too many coefficients for this model")
        try:
            den = lcm(*(c.denominator for c in coeffs))
            nums = [c.numerator * (den // c.denominator) for c in coeffs]
        except AttributeError:
            raise LatticeError(
                "coefficients must be exact rationals"
            ) from None
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
        cs: list[Rational] = [0] * k
        for i, pt in enumerate(self.exceptionals):
            cs[i] = 1 + sum(cs[j] for j in pt.proximate_to)
        return self.divisor(
            -2, 2 * self.genus - 2 - self.invariant_e, *cs
        )

    def blow_up(self, proximate_to: Iterable[int] = ()) -> "RuledModel":
        return RuledModel(
            self.characteristic,
            self.genus,
            self.invariant_e,
            self.exceptionals + (BlowupPoint(tuple(proximate_to)),),
            self.chi_structure,
        )


def _form(model: RuledModel, x, y) -> int:
    """The diagonal form of the module docstring on two numerator
    sequences (exceptional i at index 2 + i), in O(rank + proximities)."""
    a, b, a2, b2 = x[0], x[1], y[0], y[1]
    total = -model.invariant_e * a * a2 + a * b2 + a2 * b
    for j, pt in enumerate(model.exceptionals, 2):
        u = x[j] - sum(x[2 + i] for i in pt.proximate_to)
        v = y[j] - sum(y[2 + i] for i in pt.proximate_to)
        total -= u * v
    return total


_INT_ONLY = {int}


@record
class DivisorClass:
    """A rational class in the model's basis: the coefficients are
    ``nums[i] / den``.  ``a`` and ``b`` are the E and F coefficients;
    exceptional coefficients follow.  The numerators and the denominator
    must be plain ints (``model.divisor`` takes Fractions); anything
    else raises LatticeError.

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

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def a(self) -> Fraction:
        return Fraction(self.nums[0], self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.nums[1], self.den)

    def is_integral(self) -> bool:
        return self.den == 1

    def is_zero(self) -> bool:
        return not any(self.nums)

    def _same_model(self, other: "DivisorClass") -> None:
        if other.model is not self.model and other.model != self.model:
            raise ModelMismatch("classes live on different models")

    def _pairing(self, other: "DivisorClass") -> tuple[int, int]:
        """The intersection number as an integer numerator over the
        product of the two denominators."""
        self._same_model(other)
        return _form(self.model, self.nums, other.nums), self.den * other.den

    def dot(self, other: "DivisorClass") -> Fraction:
        return Fraction(*self._pairing(other))

    def self_intersection(self) -> Fraction:
        return self.dot(self)

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

    def scaled(self, factor: Rational) -> "DivisorClass":
        """The class times ``factor``, an int or a Fraction."""
        try:
            num, den = factor.numerator, factor.denominator
        except AttributeError:
            raise LatticeError("a factor must be an exact rational") from None
        return DivisorClass(
            self.model, tuple(num * x for x in self.nums), den * self.den
        )

    __mul__ = scaled
    __rmul__ = scaled


def format_class(cls: DivisorClass) -> str:
    """The class as a signed sum over the basis names E, F, e0, e1, ..."""
    names = ["E", "F"] + [f"e{i}" for i in range(len(cls.coeffs) - 2)]
    parts = []
    for c, name in zip(cls.coeffs, names):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        body = name if mag == 1 else f"({mag}){name}"
        parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
    return " ".join(parts) if parts else "0"


def boundary_sum(model: RuledModel, boundary) -> DivisorClass:
    """B = sum of c C over the (class C, coefficient c) pairs."""
    total = model.zero_class()
    for cls, c in boundary:
        total = total + cls.scaled(c)
    return total


def intersect(d1: DivisorClass, d2: DivisorClass) -> Fraction:
    return d1.dot(d2)


def adjunction_pa(model: RuledModel, c: DivisorClass) -> Fraction:
    """Arithmetic genus 1 + C.(C+K)/2 of an integral class."""
    if c.model is not model and c.model != model:
        raise ModelMismatch("class does not live on this model")
    if not c.is_integral():
        raise LatticeError("adjunction needs an integral class")
    total, den = c._pairing(c + model.canonical_class())
    return Fraction(total + 2 * den, 2 * den)


def riemann_roch_chi(model: RuledModel, d: DivisorClass) -> Fraction:
    """chi(D) = D.(D-K)/2 + chi(O).  Integral D always yields an integer
    (the canonical class is characteristic for the form; asserted)."""
    if d.model is not model and d.model != model:
        raise ModelMismatch("class does not live on this model")
    k = model.canonical_class()  # D - K as numerators over d.den * k.den
    total = _form(model, d.nums,
                  [x * k.den - y * d.den for x, y in zip(d.nums, k.nums)])
    den = d.den * d.den * k.den
    chi = Fraction(total + 2 * den * model.chi_structure, 2 * den)
    if d.is_integral() and chi.denominator != 1:
        raise AssertionError("chi of an integral class must be an integer")
    return chi


def candidate_curve_constraints(model: RuledModel, cls: DivisorClass) -> bool:
    """Necessary constraints for xE + yF to be the class of an irreducible
    curve on the pure model.

    For e < 0 (characteristic p required): besides E and F themselves,
    x = 1 forces y >= 0; 2 <= x <= p-1 forces y >= xe/2; x >= p forces
    y >= xe/2 + 1 - g.  For e >= 0: besides E and F, x > 0 and y >= xe.
    """
    if not model.is_pure:
        raise LatticeError("curve-class constraints apply to pure models")
    if cls.model != model:
        raise ModelMismatch("class does not live on this model")
    if not cls.is_integral():
        raise LatticeError("curve classes are integral")
    # E and F themselves; on a pure model these are the two basis vectors
    if cls.nums in ((1, 0), (0, 1)):
        return True
    e = model.invariant_e
    x, y = cls.nums
    if e >= 0:
        return x > 0 and y >= x * e
    p = model.characteristic
    if p == 0:
        raise UnsupportedRegime(
            "e < 0 curve-class constraints need positive characteristic"
        )
    if x == 1:
        return y >= 0
    if 2 <= x <= p - 1:
        return 2 * y >= x * e
    if x >= p:
        return 2 * y >= x * e + 2 * (1 - model.genus)
    return False


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


@record
class PositivityVerdict:
    status: str
    rule_used: str
    witness: DivisorClass | None = None
    note: str = ""


def certify_positivity(
    model: RuledModel, d: DivisorClass, strict: bool = False
) -> PositivityVerdict:
    """Three-valued nef (strict: ample) certification of aE + bF on a pure
    model.

    Rules, in order: the necessary inequalities a >= 0 and 2b >= ae
    (strict versions for ample); for e >= 0 the cone description
    b >= ae is complete in both directions; for e < 0, a decomposition
    into nonnegative multiples of the nef classes E and F certifies, and
    otherwise closed-form minimization of D.L over the candidate-curve
    branches certifies.  Anything else is unknown, never guessed.

    Every rule is a sign test of a form that is homogeneous in (a, b),
    so the rules run on the class's numerators; a Fraction is built only
    for the text of a note.
    """
    if not model.is_pure:
        raise LatticeError("positivity rules apply to pure models")
    if d.model is not model and d.model != model:
        raise ModelMismatch("class does not live on this model")

    # D = (a E + b F) / den with den > 0
    (a, b), den = d.nums, d.den
    e = model.invariant_e
    g = model.genus
    p = model.characteristic

    def ok(v: int) -> bool:
        return v > 0 if strict else v >= 0

    if not ok(a):
        return PositivityVerdict(
            VIOLATED, RULE_NECESSARY, model.fiber_class(),
            f"fiber degree a = {Fraction(a, den)} fails",
        )
    slope2 = 2 * b - a * e  # 2b - ae, and twice the slope b - ae/2
    if not ok(slope2):
        return PositivityVerdict(
            VIOLATED, RULE_NECESSARY, None,
            f"self-intersection slope 2b - ae = {Fraction(slope2, den)}"
            " fails",
        )

    if e >= 0:
        if ok(b - a * e):
            return PositivityVerdict(CERTIFIED, RULE_NONNEG_CONE)
        return PositivityVerdict(
            VIOLATED, RULE_NONNEG_CONE, model.section_class(),
            f"D.E = b - ae = {Fraction(b - a * e, den)} fails",
        )

    if ok(a) and ok(b):
        return PositivityVerdict(CERTIFIED, RULE_DECOMPOSITION)

    if p == 0:
        return PositivityVerdict(
            UNKNOWN, RULE_CURVE_CONE, None,
            "curve-cone bounds need positive characteristic",
        )

    if slope2 <= 0 and a > 0:
        # the x >= p branch decreases without bound along x
        return PositivityVerdict(
            UNKNOWN, RULE_CURVE_CONE, None, "tail branch unbounded below"
        )
    # the branch minima of D.L, each as a numerator over its denominator
    minima = [(b - a * e, den)]
    if p >= 3:
        minima.append((slope2, den))
        minima.append(((p - 1) * slope2, 2 * den))
    minima.append((p * slope2 + 2 * a * (1 - g), 2 * den))
    if strict:
        minima.append((a * slope2, den * den))
    if all(ok(v) for v, _ in minima):
        return PositivityVerdict(CERTIFIED, RULE_CURVE_CONE)
    lowest = min(Fraction(v, w) for v, w in minima)
    return PositivityVerdict(
        UNKNOWN, RULE_CURVE_CONE, None,
        "branch minimum " + str(lowest) + " not conclusive",
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
        or target.chi_structure != base.chi_structure
        or target.exceptionals[: len(base.exceptionals)] != base.exceptionals
    ):
        raise ModelMismatch("target does not extend the class's model")
    nums = list(d.nums)
    for pt in target.exceptionals[len(base.exceptionals):]:
        nums.append(sum(nums[2 + j] for j in pt.proximate_to))
    return DivisorClass(target, tuple(nums), d.den)
