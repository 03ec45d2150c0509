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

Everything is exact: coefficients are ``fractions.Fraction`` and no
floating point appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
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

    @property
    def rank(self) -> int:
        return 2 + len(self.exceptionals)

    @property
    def is_pure(self) -> bool:
        return not self.exceptionals

    # -- class constructors -------------------------------------------

    def divisor(self, *coeffs: Rational) -> "DivisorClass":
        cs = list(coeffs)
        if len(cs) > self.rank:
            raise LatticeError("too many coefficients for this model")
        cs += [0] * (self.rank - len(cs))
        return DivisorClass(self, tuple(Fraction(c) for c in cs))

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


@record
class DivisorClass:
    """A rational class in the model's basis.  ``a`` and ``b`` are the E
    and F coefficients; exceptional coefficients follow."""

    model: RuledModel
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.model.rank:
            raise LatticeError("coefficient count does not match the model")

    @property
    def a(self) -> Fraction:
        return self.coeffs[0]

    @property
    def b(self) -> Fraction:
        return self.coeffs[1]

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def dot(self, other: "DivisorClass") -> Fraction:
        """The diagonal form of the module docstring, read off the
        proximity data in O(rank + number of proximities).  Both
        operands are scaled to integers first, so the sum runs on ints
        and one Fraction is built at the end."""
        if other.model != self.model:
            raise ModelMismatch("classes live on different models")
        dx, (a, b, *x) = _cleared(self.coeffs)
        dy, (a2, b2, *y) = _cleared(other.coeffs)
        total = -self.model.invariant_e * a * a2 + a * b2 + a2 * b
        for j, pt in enumerate(self.model.exceptionals):
            u = x[j] - sum(x[i] for i in pt.proximate_to)
            v = y[j] - sum(y[i] for i in pt.proximate_to)
            total -= u * v
        return Fraction(total, dx * dy)

    def self_intersection(self) -> Fraction:
        return self.dot(self)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if other.model != self.model:
            raise ModelMismatch("classes live on different models")
        return DivisorClass(
            self.model,
            tuple(x + y for x, y in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if other.model != self.model:
            raise ModelMismatch("classes live on different models")
        return DivisorClass(
            self.model,
            tuple(x - y for x, y in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.model, tuple(-c for c in self.coeffs))

    def scaled(self, factor: Rational) -> "DivisorClass":
        f = Fraction(factor)
        return DivisorClass(self.model, tuple(f * c for c in self.coeffs))

    __mul__ = scaled
    __rmul__ = scaled


def _cleared(coeffs: tuple[Fraction, ...]) -> tuple[int, list[int]]:
    """A common denominator d and the integers d * c."""
    d = lcm(*(c.denominator for c in coeffs))
    return d, [c.numerator * (d // c.denominator) for c in coeffs]


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
    if c.model != model:
        raise ModelMismatch("class does not live on this model")
    if not c.is_integral():
        raise LatticeError("adjunction needs an integral class")
    k = model.canonical_class()
    return 1 + c.dot(c + k) / 2


def riemann_roch_chi(model: RuledModel, d: DivisorClass) -> Fraction:
    """chi(D) = D.(D-K)/2 + chi(O).  Integral D always yields an integer
    (the canonical class is characteristic for the form; asserted)."""
    if d.model != model:
        raise ModelMismatch("class does not live on this model")
    k = model.canonical_class()
    chi = d.dot(d - k) / 2 + model.chi_structure
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
    if cls.coeffs in ((1, 0), (0, 1)):
        return True
    e = model.invariant_e
    x, y = cls.a, cls.b
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
        return y >= Fraction(x * e, 2)
    if x >= p:
        return y >= Fraction(x * e, 2) + 1 - model.genus
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
    """
    if not model.is_pure:
        raise LatticeError("positivity rules apply to pure models")
    if d.model != model:
        raise ModelMismatch("class does not live on this model")

    a, b = d.a, d.b
    e = model.invariant_e
    g = model.genus
    p = model.characteristic

    def ok(v: Fraction | int) -> bool:
        return v > 0 if strict else v >= 0

    if not ok(a):
        return PositivityVerdict(
            VIOLATED, RULE_NECESSARY, model.fiber_class(),
            f"fiber degree a = {a} fails",
        )
    if not ok(2 * b - a * e):
        return PositivityVerdict(
            VIOLATED, RULE_NECESSARY, None,
            f"self-intersection slope 2b - ae = {2 * b - a * e} fails",
        )

    if e >= 0:
        if ok(b - a * e):
            return PositivityVerdict(CERTIFIED, RULE_NONNEG_CONE)
        return PositivityVerdict(
            VIOLATED, RULE_NONNEG_CONE, model.section_class(),
            f"D.E = b - ae = {b - a * e} fails",
        )

    if ok(a) and ok(b):
        return PositivityVerdict(CERTIFIED, RULE_DECOMPOSITION)

    if p == 0:
        return PositivityVerdict(
            UNKNOWN, RULE_CURVE_CONE, None,
            "curve-cone bounds need positive characteristic",
        )

    slope = b - Fraction(a * e, 2)
    if slope <= 0 and a > 0:
        # the x >= p branch decreases without bound along x
        return PositivityVerdict(
            UNKNOWN, RULE_CURVE_CONE, None, "tail branch unbounded below"
        )
    minima = [b - a * e]
    if p >= 3:
        minima.append(2 * slope)
        minima.append((p - 1) * slope)
    minima.append(p * slope + a * (1 - g))
    if strict:
        minima.append(a * (2 * b - a * e))
    if all(ok(v) for v in minima):
        return PositivityVerdict(CERTIFIED, RULE_CURVE_CONE)
    return PositivityVerdict(
        UNKNOWN, RULE_CURVE_CONE, None,
        "branch minimum " + str(min(minima)) + " not conclusive",
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
    coeffs = list(d.coeffs)
    for pt in target.exceptionals[len(base.exceptionals):]:
        coeffs.append(sum((coeffs[2 + j] for j in pt.proximate_to),
                          Fraction(0)))
    return DivisorClass(target, tuple(coeffs))
