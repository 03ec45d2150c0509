"""Decision engine for non-vanishing of nef divisors on surface pairs.

A ``Scenario`` packages a numerical model, the declared geometric
invariants that numbers alone cannot supply (Kodaira dimension,
irregularity, relative minimality), a KLT boundary and the nef divisor
of interest.  ``decide`` classifies the scenario and hunts for a
certificate that sections exist, for the divisor itself or for its
double.  Every guaranteed verdict carries the arithmetic that proves it;
anything the catalogue of certificates does not cover comes back
``unknown`` rather than guessed.

The certified routes, by case label:

  A     the divisor vanishes; chi(O) = 1 does the work
  B_*   chi > 0 plus vanishing above forces sections
  C     fiber-degree threshold, boundary stripping, the chi product
        certificate on relatively minimal models, and a doubling bound
        otherwise
  CR/D  open territory, always unknown
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import TYPE_CHECKING

from .lattice import (
    VIOLATED,
    DivisorClass,
    LatticeError,
    PositivityVerdict,
    RuledModel,
    boundary_sum,
    candidate_curve_constraints,
    certify_positivity,
    riemann_roch_chi,
)
from .record import record

if TYPE_CHECKING:
    from .fibered import FiberedModel

RULED = float("-inf")
# the kodaira dimensions a scenario may declare, each with its type, so
# that neither True (== 1) nor 2.0 (== 2) passes
_KODAIRA = ((float, RULED), (int, 0), (int, 1), (int, 2))

CASE_A = "A"
CASE_B_I = "B_I"
CASE_B_II = "B_II"
CASE_C = "C"
CASE_C_M = "C_M"
CASE_CR = "CR"
CASE_D_I = "D_I"
CASE_D_II = "D_II"

GUARANTEED_M1 = "m=1"
GUARANTEED_M2 = "m<=2"
UNDECIDED = "unknown"

RULE_STRUCTURE_CHI = "nonvanish.structure-sheaf-euler"
RULE_EULER_POSITIVE = "nonvanish.euler-characteristic"
RULE_FIBER_THRESHOLD = "nonvanish.fiber-degree-threshold"
RULE_CHI_PRODUCT = "nonvanish.chi-product"
RULE_DOUBLING = "nonvanish.euler-doubling-bound"
RULE_CANONICAL_SIGN = "nonvanish.nonpositive-canonical-degree"
RULE_NU_ONE = "nonvanish.numerical-dimension-one"


class ScenarioError(ValueError):
    pass


class InvalidScenario(ScenarioError):
    """The declared invariants fit no catalogued case."""


class InconsistentScenario(ScenarioError):
    """The declared invariants contradict each other numerically."""


class PreconditionError(ScenarioError):
    """An operation was invoked outside its certified domain."""


@record
class Verdict:
    case_label: str
    result: str
    certificate: dict = {}
    reason: str = ""


@record
class Scenario:
    """Immutable problem instance.

    ``kodaira`` is float('-inf') (use the RULED constant) or an int 0, 1,
    2; ``chi_o`` and ``q`` are ints and ``relatively_minimal`` a bool,
    each checked for its exact type.
    Boundary entries are (curve class, coefficient) with coefficients in
    (0,1); fibered models carry their divisor data inside the trees and
    take divisor=None, boundary=().  ``kappa_minus_k_nonneg`` is a
    declared hypothesis, not a computed fact; None means undeclared.
    ``negative_boundary`` (entries of negative square) is set at construction.
    """

    model: RuledModel | FiberedModel
    kodaira: float | int
    chi_o: int
    q: int
    relatively_minimal: bool
    divisor: DivisorClass | None = None
    boundary: tuple = ()
    kappa_minus_k_nonneg: bool | None = None

    def __post_init__(self):
        if (type(self.kodaira), self.kodaira) not in _KODAIRA:
            raise InvalidScenario(
                "kodaira dimension must be -infinity, 0, 1 or 2"
            )
        if type(self.chi_o) is not int or type(self.q) is not int:
            raise InvalidScenario("chi(O) and the irregularity must be ints")
        if type(self.relatively_minimal) is not bool:
            raise InvalidScenario("the minimality flag must be a bool")
        if type(self.kappa_minus_k_nonneg) not in (bool, type(None)):
            raise InvalidScenario(
                "the canonical hypothesis must be None or a bool"
            )
        if self.q < 0:
            raise InvalidScenario("irregularity cannot be negative")
        norm = []
        for cls, coeff in self.boundary:
            if type(coeff) not in (int, Fraction):
                raise InvalidScenario(
                    f"boundary coefficient {coeff!r} is not an int or Fraction"
                )
            c = Fraction(coeff)
            if not 0 < c < 1:
                raise InvalidScenario(
                    f"boundary coefficient {c} outside (0,1)"
                )
            norm.append((cls, c))
        object.__setattr__(self, "boundary", tuple(norm))
        if isinstance(self.model, RuledModel):
            self._check_lattice()
        else:
            # only fiber-tree scenarios load the fibered layer
            from .fibered import FiberedModel

            if not isinstance(self.model, FiberedModel):
                raise InvalidScenario("model must be a lattice or fiber data")
            self._check_fibered()
        object.__setattr__(self, "negative_boundary", tuple(
            (cls, c) for cls, c in norm if cls.self_intersection() < 0
        ))

    def _check_fibered(self):
        if self.divisor is not None or self.boundary:
            raise InvalidScenario(
                "fiber-tree scenarios carry divisor degrees in the trees"
                " and have empty boundary"
            )
        if self.kodaira != RULED:
            raise InvalidScenario("fiber-tree scenarios describe ruled"
                                  " surfaces")
        if self.q != self.model.base_genus:
            raise InconsistentScenario(
                "irregularity of a ruled surface is its base genus"
            )
        if self.chi_o != self.model.chi_structure:
            raise InconsistentScenario(
                "chi(O) of a ruled surface is 1 - base genus"
            )
        if self.relatively_minimal != self.model.is_relatively_minimal():
            raise InconsistentScenario(
                "minimality flag contradicts the fiber trees"
            )

    def _check_lattice(self):
        if self.divisor is None:
            raise InvalidScenario("lattice scenarios need a divisor class")
        if self.divisor.model != self.model:
            raise InvalidScenario("divisor lives on a different model")
        if not self.divisor.is_integral():
            raise InvalidScenario("the divisor of interest is integral")
        for cls, _ in self.boundary:
            if cls.model != self.model:
                raise InvalidScenario(
                    "boundary class lives on a different model"
                )
            if not cls.is_integral() or cls.is_zero():
                raise InvalidScenario(
                    "boundary components are nonzero integral classes"
                )
        if self.chi_o != self.model.chi_structure:
            raise InconsistentScenario(
                "declared chi(O) contradicts the lattice model"
            )
        if self.kodaira == RULED:
            if self.q != self.model.genus:
                raise InconsistentScenario(
                    "irregularity of a ruled surface is its base genus"
                )
            if self.chi_o != 1 - self.model.genus:
                raise InconsistentScenario(
                    "chi(O) of a ruled surface is 1 - base genus"
                )
            if self.relatively_minimal != self.model.is_pure:
                raise InconsistentScenario(
                    "minimality flag contradicts the exceptional locus"
                )

    # -- derived classes ----------------------------------------------

    @property
    def is_lattice(self) -> bool:
        return isinstance(self.model, RuledModel)

    @property
    def characteristic(self) -> int:
        return self.model.characteristic

    def boundary_class(self) -> DivisorClass:
        return boundary_sum(self.model, self.boundary)


def nu(d: DivisorClass) -> int:
    """Numerical dimension of a nef class: 0, 1 or 2."""
    if d.is_zero():
        return 0
    sq = d.self_intersection()
    if sq == 0:
        return 1
    if sq > 0:
        return 2
    raise PreconditionError(
        "negative self-intersection; the class is not nef"
    )


def classify(s: Scenario) -> str:
    if s.is_lattice and s.divisor.is_zero():
        return CASE_A
    if s.kodaira != RULED and s.chi_o >= 0:
        return CASE_B_I
    if s.kodaira == RULED:
        if s.q <= 1:
            return CASE_B_II
        return _classify_irregular_ruled(s)
    if s.kodaira == 1 and s.chi_o < 0:
        if s.characteristic not in (2, 3):
            raise InvalidScenario(
                "a genus-one fibration with negative chi(O) needs"
                " characteristic 2 or 3"
            )
        return CASE_D_I
    if s.kodaira == 2 and s.chi_o < 0:
        return CASE_D_II
    raise InvalidScenario("invariants fit no catalogued case")


def _classify_irregular_ruled(s: Scenario) -> str:
    if (
        s.relatively_minimal
        and s.is_lattice
        and s.model.invariant_e < 0
        and len(s.negative_boundary) == 1
    ):
        return CASE_C_M
    if (
        not s.relatively_minimal
        and s.is_lattice
        and s.kappa_minus_k_nonneg is False
        and s.divisor.self_intersection() > 0
    ):
        return CASE_CR
    return CASE_C


@record
class Facts:
    """What the routes read, derived once per ``decide`` call.

    ``d_dot_f`` is the divisor's fiber degree.  The classes K, B and
    H = D - K - B and the nef(D) and ample(H) certificates exist on
    lattice scenarios only; the certificates are None on blown-up
    lattices, where no positivity rule applies.
    """

    label: str
    d_dot_f: Fraction
    k: DivisorClass | None = None
    b: DivisorClass | None = None
    h: DivisorClass | None = None
    nef: PositivityVerdict | None = None
    ample: PositivityVerdict | None = None


def derive(s: Scenario, label: str) -> Facts:
    if not s.is_lattice:
        return Facts(label, Fraction(s.model.fiber_degree()))
    model = s.model
    k = model.canonical_class()
    b = s.boundary_class()
    h = s.divisor - k - b
    return Facts(
        label,
        s.divisor.dot(model.fiber_class()),
        k,
        b,
        h,
        _positivity_status(model, s.divisor, strict=False),
        _positivity_status(model, h, strict=True),
    )


def _positivity_status(model: RuledModel, cls: DivisorClass, strict: bool):
    """Positivity certificate (ample when ``strict``, nef otherwise)
    where the rules can decide; None on blown-up lattices, where no rule
    applies."""
    if not model.is_pure:
        return None
    return certify_positivity(model, cls, strict=strict)


def _refuse_violated(status: PositivityVerdict | None, what: str) -> None:
    if status is not None and status.status == VIOLATED:
        raise PreconditionError(f"{what}: {status.note}")


def case_a_decide(s: Scenario, f: Facts) -> Verdict:
    """chi(D) for a vanishing divisor class: chi(O), pinned to 1."""
    if s.q > 0:
        raise InconsistentScenario(
            "a vanishing nef divisor with ample polarization forces"
            " irregularity 0"
        )
    if s.chi_o != 1:
        raise InconsistentScenario(
            "irregularity 0 with negative Kodaira dimension forces"
            " chi(O) = 1"
        )
    _refuse_violated(f.ample, "the polarization fails ampleness")
    return Verdict(
        CASE_A,
        GUARANTEED_M1,
        {"rule": RULE_STRUCTURE_CHI, "chi": Fraction(1)},
    )


def case_b_decide(s: Scenario, f: Facts) -> Verdict:
    """chi(D) = D.(H+B)/2 + chi(O) on the low-irregularity cases;
    sections exist once chi > 0 and nothing survives above.  The value
    is cross-checked against the generic Riemann-Roch oracle."""
    if s.chi_o < 0:
        raise InconsistentScenario("these cases carry chi(O) >= 0")
    _refuse_violated(f.nef, "the divisor is not nef")
    _refuse_violated(f.ample, "the polarization fails ampleness")
    chi = Fraction(1, 2) * s.divisor.dot(f.h + f.b) + s.chi_o
    if chi <= 0:
        raise InconsistentScenario(
            f"chi = {chi} cannot be nonpositive with these invariants"
        )
    h2_vanishes(f.k, s.divisor, f.h)
    oracle = riemann_roch_chi(s.model, s.divisor)
    if oracle <= 0:
        raise InconsistentScenario(
            "positive chi failed to certify; the scenario data is"
            " contradictory"
        )
    if oracle != chi:
        raise InconsistentScenario(
            f"the intersection formula gives chi = {chi}, riemann-roch"
            f" gives {oracle}"
        )
    return Verdict(
        f.label,
        GUARANTEED_M1,
        {
            "rule": RULE_EULER_POSITIVE,
            "chi": oracle,
            "h2": "(K-D).H < 0",
        },
    )


def h2_vanishes(k: DivisorClass, d: DivisorClass, h: DivisorClass) -> bool:
    """Vanishing above the divisor, certified by (K-D).H < 0 against the
    ample polarization."""
    value = (k - d).dot(h)
    if value >= 0:
        raise InconsistentScenario(
            f"(K-D).H = {value} must be negative when H is ample"
        )
    return True


def fiber_threshold(s: Scenario, f: Facts) -> Verdict | None:
    """Sections exist once the polarization meets a fiber in degree
    above one.  On fiber trees H.F = D.F + 2, since K.F = -2 and the
    boundary is empty; components refuse negative divisor degrees, so
    D.F >= 0 and every fiber-tree scenario passes here."""
    if s.is_lattice:
        hf = f.h.dot(s.model.fiber_class())
    else:
        hf = f.d_dot_f + 2
    if hf > 1:
        return Verdict(
            f.label,
            GUARANTEED_M1,
            {"rule": RULE_FIBER_THRESHOLD, "h_dot_f": hf},
        )
    return None


def relatively_minimal_decide(s: Scenario, f: Facts) -> Verdict | None:
    """Certificate hunt on relatively minimal irregular ruled models.

    For e >= 0 the section-multiple part of the boundary is stripped
    and the fiber threshold re-checked; for e < 0 at most one boundary
    component can sit in the negative part of the cone, and that
    component routes into the chi product certificate.
    """
    model = s.model
    if model.invariant_e >= 0:
        a = sum(
            (c for cls, c in s.boundary if cls == model.section_class()),
            Fraction(0),
        )
        value = f.d_dot_f + 2 - a
        if value > 1:
            return Verdict(
                f.label,
                GUARANTEED_M1,
                {
                    "rule": RULE_FIBER_THRESHOLD,
                    "h_dot_f": value,
                    "stripped": "section multiples of the boundary",
                },
            )
        return None
    if len(s.negative_boundary) >= 2:
        raise InconsistentScenario(
            "two distinct negative curve classes cannot coexist on a"
            " rank-2 lattice: the fiber class would decompose through"
            " them"
        )
    if not s.negative_boundary:
        return Verdict(
            f.label,
            GUARANTEED_M1,
            {
                "rule": RULE_FIBER_THRESHOLD,
                "h_dot_f": f.d_dot_f + 2,
                "stripped": "entire boundary (no negative component)",
            },
        )
    (g_cls, c) = s.negative_boundary[0]
    return ChiProduct(model, c, g_cls.a, g_cls.b).certify(*s.divisor.nums)


@record
class ChiProduct:
    """chi(D) = (a+1)(b - ae/2 + 1 - g) > 0 for D = aE + bF on a
    relatively minimal model of negative invariant whose boundary is a
    single multiple cG of the negative curve G = xE + yF.

    ``model`` is the caller's pure model; g and e are read from it.
    What does not depend on D is settled once, at construction: the
    preconditions on e, g and c (``refusal``), whether G can be a curve
    (``curve_refusal``; a refusal is an exception type with its
    arguments, or None), the constants of the inequalities, cleared to
    integers over the common denominator ``scale``, and the fixed link
    (2-c)(g-1) > g-1 of the slack chain.  ``check(a, b)`` and
    ``certify(a, b)`` take the integers a, b of an integral D.  ``check``
    runs the checks that depend on D, raising the refusals at their
    place in the order of checks, and returns chi(D), which is all a
    sweep entry reads.  ``certify`` runs the same checks and builds the
    certificate that ``decide`` reports.  Nothing mutates the record, so
    one instance serves a whole sweep.
    """

    model: RuledModel
    c: Rational
    x: Rational
    y: Rational

    def __post_init__(self) -> None:
        model = self.model
        g, e = model.genus, model.invariant_e
        c, x, y = Fraction(self.c), Fraction(self.x), Fraction(self.y)
        refusal = curve_refusal = None
        if e >= 0:
            refusal = (PreconditionError,
                       ("the product certificate needs e < 0",))
        elif g < 2:
            refusal = (PreconditionError, ("needs base genus at least 2",))
        elif not 0 < c < 1:
            refusal = (PreconditionError,
                       ("boundary coefficient must sit in (0,1)",))
        else:
            try:
                fits = candidate_curve_constraints(
                    model, model.divisor(x, y)
                )
            except LatticeError as ex:
                curve_refusal = (type(ex), ex.args)
            else:
                if not fits:
                    curve_refusal = (PreconditionError, (
                        f"{x}E + {y}F cannot be a curve on this model",
                    ))
        # D - K - cG = (a + 2 - cx)E + (b + kf)F with kf = 2 - 2g + e - cy;
        # cx, kf and 2(2 - c)(g - 1) are kept times ``scale``
        cn, cd = c.numerator, c.denominator
        xd, yd = x.denominator, y.denominator
        scale = cd * xd * yd
        mid = Fraction((2 * cd - cn) * (g - 1), cd)
        for name, value in (
            ("c", c), ("x", x), ("y", y),
            ("refusal", refusal), ("curve_refusal", curve_refusal),
            ("scale", scale), ("cx", cn * x.numerator * yd),
            ("kf", (2 - 2 * g + e) * scale - cn * y.numerator * xd),
            ("mid", mid), ("mid_link_holds", mid > g - 1),
            ("mid2", 2 * (2 * cd - cn) * (g - 1) * xd * yd),
        ):
            object.__setattr__(self, name, value)

    def check(self, a: int, b: int) -> tuple:
        """The checks that depend on D = aE + bF, in order: nef, the two
        ampleness inequalities of D - K - cG, the slack chain
        b - ae/2 > (2-c)(g-1) > g-1, a positive product, and agreement
        with the generic Riemann-Roch oracle.  Returns chi(D) as the
        oracle gives it, then, for the certificate, the two ampleness
        values times ``scale`` and twice b - ae/2."""
        if self.refusal is not None:
            kind, args = self.refusal
            raise kind(*args)
        model, scale = self.model, self.scale
        g, e = model.genus, model.invariant_e
        if a < 0 or 2 * b < a * e:
            raise PreconditionError("the divisor is not nef")
        if self.curve_refusal is not None:
            kind, args = self.curve_refusal
            raise kind(*args)
        # both sides scaled by ``scale``
        ample_e = (a + 2) * scale - self.cx
        ample_f = b * scale + self.kf
        if not (ample_e > 0 and 2 * ample_f > ample_e * e):
            raise PreconditionError(
                "the polarization fails its ampleness inequalities"
            )
        slope = 2 * b - a * e  # twice b - ae/2
        if not (slope * scale > self.mid2 and self.mid_link_holds):
            raise PreconditionError(
                f"slack chain fails: {Fraction(slope, 2)} > {self.mid}"
                f" > {g - 1} does not hold"
            )
        chi = (a + 1) * (slope + 2 - 2 * g)  # twice the product
        if chi <= 0:
            raise InconsistentScenario("the product must be positive here")
        oracle = riemann_roch_chi(model, DivisorClass(model, (a, b)))
        if chi * oracle.denominator != 2 * oracle.numerator:
            raise InconsistentScenario(
                f"product gives {Fraction(chi, 2)}, riemann-roch gives"
                f" {oracle}"
            )
        return oracle, ample_e, ample_f, slope

    def certify(self, a: int, b: int) -> Verdict:
        """``check(a, b)``, with what it compared as the certificate."""
        chi, ample_e, ample_f, slope = self.check(a, b)
        scale, g = self.scale, self.model.genus
        return Verdict(
            CASE_C_M,
            GUARANTEED_M1,
            {
                "rule": RULE_CHI_PRODUCT,
                "chi": chi,
                "ample_inequalities": (
                    Fraction(ample_e, scale), Fraction(ample_f, scale),
                ),
                "slack_chain": (
                    Fraction(slope, 2), self.mid, Fraction(g - 1),
                ),
                "negative_component": (self.x, self.y),
                "coefficient": self.c,
            },
        )


def doubling_bound(
    a: Rational, d_squared: Rational, d_dot_hb: Rational
) -> Fraction:
    """Lower bound for chi(2D) at fiber degree a:
    ((2a+1)/2a) * ((1 - 1/a) D^2 + D.(H+B))."""
    a = Fraction(a)
    if a < 2:
        raise PreconditionError("the bound holds from fiber degree 2 on")
    return Fraction(2 * a + 1, 2 * a) * (
        (1 - 1 / a) * Fraction(d_squared) + Fraction(d_dot_hb)
    )


def euler_bound_decide(s: Scenario, f: Facts) -> Verdict:
    """Doubling bound at fiber degree >= 2, with single-section upgrades
    when the canonical degree is declared nonpositive or the divisor
    has numerical dimension one."""
    a = f.d_dot_f
    dvr = s.divisor
    d_sq = dvr.self_intersection()
    dhb = dvr.dot(f.h + f.b)
    bound = doubling_bound(a, d_sq, dhb)
    if bound <= 0:
        raise InconsistentScenario(
            f"the doubling bound {bound} must be positive for nef data"
        )
    if s.kappa_minus_k_nonneg:
        dk = dvr.dot(f.k)
        if dk > 0:
            raise InconsistentScenario(
                "the declared canonical hypothesis forces D.K <= 0,"
                f" got {dk}"
            )
        value = (
            Fraction(a * a - 1, 2 * a * a) * dhb
            - Fraction(a + 1, 2 * a * a) * dk
        )
        if value <= 0:
            raise InconsistentScenario(
                f"chi lower bound {value} must be positive here"
            )
        return Verdict(
            f.label,
            GUARANTEED_M1,
            {
                "rule": RULE_CANONICAL_SIGN,
                "chi_lower_bound": value,
                "doubling_bound": bound,
            },
        )
    if nu(dvr) == 1:
        if dhb <= 0:
            raise InconsistentScenario(
                "D.(H+B) must be positive when D is nonzero and H ample"
            )
        return Verdict(
            f.label,
            GUARANTEED_M1,
            {
                "rule": RULE_NU_ONE,
                "d_dot_h_plus_b": dhb,
                "doubling_bound": bound,
            },
        )
    return Verdict(
        f.label,
        GUARANTEED_M2,
        {
            "rule": RULE_DOUBLING,
            "bound": bound,
            "fiber_degree": a,
        },
    )


def decide(s: Scenario) -> Verdict:
    """Classify and derive the shared facts once, then walk the
    certificate catalogue in order."""
    f = derive(s, classify(s))
    label = f.label
    if label == CASE_A:
        return case_a_decide(s, f)
    if label in (CASE_B_I, CASE_B_II):
        if not s.is_lattice:
            return Verdict(
                label,
                UNDECIDED,
                {},
                "no intersection data for the euler-characteristic route",
            )
        return case_b_decide(s, f)
    if label in (CASE_C, CASE_C_M):
        _refuse_violated(f.nef, "the divisor is not nef")
        verdict = fiber_threshold(s, f)
        if verdict is not None:
            return verdict
        if s.relatively_minimal:
            verdict = relatively_minimal_decide(s, f)
            if verdict is not None:
                return verdict
        if f.d_dot_f >= 2:
            return euler_bound_decide(s, f)
        return Verdict(
            label,
            UNDECIDED,
            {},
            "low fiber degree without fiber-tree data; no certificate"
            " applies",
        )
    if label == CASE_CR:
        return Verdict(
            CASE_CR,
            UNDECIDED,
            {},
            "not relatively minimal with a big divisor: outside the"
            " certified catalogue",
        )
    return Verdict(
        label,
        UNDECIDED,
        {},
        "no certificate catalogued for this case; larger multiples may"
        " be needed",
    )
