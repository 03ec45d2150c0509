"""Decision engine for non-vanishing of nef divisors on surface pairs.

A ``Scenario`` packages a numerical model, the declared geometric
invariants that numbers alone cannot supply (Kodaira dimension,
irregularity, relative minimality), a KLT boundary and the nef divisor
of interest.  ``decide`` classifies the scenario and hunts for a
certificate that sections exist, for the divisor itself or for its
double.  Every guaranteed verdict carries the arithmetic that proves it;
anything the catalogue of certificates does not cover comes back
``unknown`` rather than guessed.

The certified routes are one table, ``ROUTES``: each row names the
cases it serves, the hypotheses it rests on and the route that computes
the verdict.  ``HYPOTHESES`` says how each named hypothesis is tested
and whether its violation refuses the scenario or declines the route.
CR and the D cases have no row and stay unknown.

The chi product route of case C_M checks the product with
``svlab.chiproduct.ChiProduct``, which the sweep runs without this
module, and ``certify_chi_product`` reports what it compared.  Only
that route imports ``svlab.chiproduct``, so a classify request that
never reaches C_M does not load it.  The scenario exceptions are
``svlab.lattice``'s.
"""

from __future__ import annotations

from .lattice import (
    VIOLATED,
    DivisorClass,
    InconsistentScenario,
    PositivityVerdict,
    PreconditionError,
    RuledModel,
    ScenarioError,
    boundary_sum,
    certify_positivity,
    riemann_roch_chi,
)
from .ratio import is_ratio, ratio_text
from .record import record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .chiproduct import ChiProduct
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
RULE_CHI_PRODUCT = "nonvanish.chi-product"
RULE_EULER_POSITIVE = "nonvanish.euler-characteristic"
RULE_FIBER_THRESHOLD = "nonvanish.fiber-degree-threshold"
RULE_DOUBLING = "nonvanish.euler-doubling-bound"
RULE_CANONICAL_SIGN = "nonvanish.nonpositive-canonical-degree"
RULE_NU_ONE = "nonvanish.numerical-dimension-one"


class InvalidScenario(ScenarioError):
    """The declared invariants fit no catalogued case."""


@record
class Verdict:
    case_label: str
    result: str
    certificate: dict
    reason: str = ""


@record
class Scenario:
    """Immutable problem instance.

    ``kodaira`` is float('-inf') (use the RULED constant) or an int 0, 1,
    2; ``chi_o`` and ``q`` are ints and ``relatively_minimal`` a bool,
    each checked for its exact type.
    Boundary entries are (curve class, coefficient), each coefficient a
    reduced (numerator, positive denominator) int pair in (0,1); fibered
    models carry their divisor data inside the trees and
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
        boundary = tuple((cls, c) for cls, c in self.boundary)
        for _, c in boundary:
            if not is_ratio(c):
                raise InvalidScenario(
                    f"boundary coefficient {c!r} is not a reduced"
                    " (numerator, positive denominator) int pair"
                )
            if not 0 < c[0] < c[1]:
                raise InvalidScenario(
                    f"boundary coefficient {ratio_text(*c)} outside (0,1)"
                )
        object.__setattr__(self, "boundary", boundary)
        if isinstance(self.model, RuledModel):
            self._check_lattice()
        else:
            # only fiber-tree scenarios load the fibered layer
            from .fibered import FiberedModel

            if not isinstance(self.model, FiberedModel):
                raise InvalidScenario("model must be a lattice or fiber data")
            self._check_fibered()
        object.__setattr__(self, "negative_boundary", tuple(
            (cls, c) for cls, c in boundary if cls.dot(cls)[0] < 0
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
    sq, _ = d.dot(d)  # over a positive denominator
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
        and s.divisor.dot(s.divisor)[0] > 0
    ):
        return CASE_CR
    return CASE_C


@record
class Facts:
    """What the routes read, derived once per ``decide`` call.

    ``d_dot_f`` is the divisor's fiber degree, an int.  The classes K, B and
    H = D - K - B and the nef(D) and ample(H) certificates exist on
    lattice scenarios only, and are None on fiber trees.  On a blown-up
    lattice both certificates are ``certify_positivity``'s unknown.
    """

    label: str
    d_dot_f: int
    k: DivisorClass | None = None
    b: DivisorClass | None = None
    h: DivisorClass | None = None
    nef: PositivityVerdict | None = None
    ample: PositivityVerdict | None = None


def derive(s: Scenario, label: str) -> Facts:
    if not s.is_lattice:
        return Facts(label, s.model.fiber_degree())
    model = s.model
    k = model.canonical_class()
    b = s.boundary_class()
    h = s.divisor - k - b
    return Facts(
        label,
        s.divisor.dot(model.fiber_class())[0],  # D and F are integral
        k,
        b,
        h,
        certify_positivity(model, s.divisor),
        certify_positivity(model, h, strict=True),
    )


def case_a_decide(s: Scenario, f: Facts) -> Verdict:
    """chi(D) for a vanishing divisor class: chi(O), pinned to 1."""
    return Verdict(
        CASE_A,
        GUARANTEED_M1,
        {"rule": RULE_STRUCTURE_CHI, "chi": 1},
    )


def case_b_decide(s: Scenario, f: Facts) -> Verdict:
    """chi(D) = D.(H+B)/2 + chi(O) on the low-irregularity cases;
    sections exist once chi > 0 and nothing survives above.  The value
    is cross-checked against the generic Riemann-Roch oracle."""
    dhb, den = s.divisor.dot(f.h + f.b)
    chi, chi_den = dhb + 2 * den * s.chi_o, 2 * den
    text = ratio_text(chi, chi_den)
    if chi <= 0:
        raise InconsistentScenario(
            f"chi = {text} cannot be nonpositive with these invariants"
        )
    h2_vanishes(f.k, s.divisor, f.h)
    oracle, oracle_den = riemann_roch_chi(s.model, s.divisor)
    if oracle * chi_den != chi * oracle_den:
        raise InconsistentScenario(
            f"the intersection formula gives chi = {text}, riemann-roch"
            f" gives {ratio_text(oracle, oracle_den)}"
        )
    return Verdict(
        f.label,
        GUARANTEED_M1,
        {
            "rule": RULE_EULER_POSITIVE,
            "chi": text,
            "h2": "(K-D).H < 0",
        },
    )


def h2_vanishes(k: DivisorClass, d: DivisorClass, h: DivisorClass) -> bool:
    """Vanishing above the divisor, certified by (K-D).H < 0 against the
    ample polarization."""
    value, den = (k - d).dot(h)
    if value >= 0:
        raise InconsistentScenario(
            f"(K-D).H = {ratio_text(value, den)} must be negative when H is"
            " ample"
        )
    return True


def fiber_threshold(s: Scenario, f: Facts) -> Verdict | None:
    """Sections exist once the polarization meets a fiber in degree
    above one.  On fiber trees H.F = D.F + 2, since K.F = -2 and the
    boundary is empty; components refuse negative divisor degrees, so
    D.F >= 0 and every fiber-tree scenario passes here."""
    if s.is_lattice:
        hf, den = f.h.dot(s.model.fiber_class())
    else:
        hf, den = f.d_dot_f + 2, 1
    if hf > den:
        return Verdict(
            f.label,
            GUARANTEED_M1,
            {"rule": RULE_FIBER_THRESHOLD, "h_dot_f": ratio_text(hf, den)},
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
        # a / den, the sum of the section's coefficients in the boundary
        section = model.section_class()
        a, den = 0, 1
        for cls, (num, c_den) in s.boundary:
            if cls == section:
                a, den = a * c_den + num * den, den * c_den
        value = (f.d_dot_f + 2) * den - a
        if value > den:
            return Verdict(
                f.label,
                GUARANTEED_M1,
                {
                    "rule": RULE_FIBER_THRESHOLD,
                    "h_dot_f": ratio_text(value, den),
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
                "h_dot_f": str(f.d_dot_f + 2),
                "stripped": "entire boundary (no negative component)",
            },
        )
    # only this branch loads the product check
    from .chiproduct import ChiProduct

    (g_cls, c) = s.negative_boundary[0]
    product = ChiProduct(model, *c, *g_cls.nums)
    return certify_chi_product(product, *s.divisor.nums)


def certify_chi_product(product: ChiProduct, a: int, b: int) -> Verdict:
    """``product.check(a, b)``, with what it compared as the certificate
    of case C_M."""
    chi, ample_e, ample_f, slope = product.check(a, b)
    cn, cd, g = product.c_num, product.c_den, product.model.genus
    return Verdict(
        CASE_C_M,
        GUARANTEED_M1,
        {
            "rule": RULE_CHI_PRODUCT,
            "chi": chi,
            "ample_inequalities": (
                ratio_text(ample_e, cd), ratio_text(ample_f, cd),
            ),
            "slack_chain": (
                ratio_text(slope, 2), ratio_text((2 * cd - cn) * (g - 1), cd),
                g - 1,
            ),
            "negative_component": (product.x, product.y),
            "coefficient": ratio_text(cn, cd),
        },
    )


def doubling_bound(a: int, d_squared: int, d_dot_hb: int) -> tuple[int, int]:
    """Lower bound for chi(2D) at fiber degree a, from the integers a,
    D^2 and D.(H+B): ((2a+1)/2a) * ((1 - 1/a) D^2 + D.(H+B)), as the
    numerator (2a+1)((a-1) D^2 + a D.(H+B)) over 2a^2."""
    if a < 2:
        raise PreconditionError("the bound holds from fiber degree 2 on")
    return (2 * a + 1) * ((a - 1) * d_squared + a * d_dot_hb), 2 * a * a


def canonical_sign_bound(
    a: int, d_dot_hb: int, d_dot_k: int
) -> tuple[int, int]:
    """Lower bound for chi(D) at fiber degree a once D.K <= 0, from the
    integers a, D.(H+B) and D.K:
    ((a^2-1)/2a^2) D.(H+B) - ((a+1)/2a^2) D.K, as a numerator over
    2a^2."""
    return (a * a - 1) * d_dot_hb - (a + 1) * d_dot_k, 2 * a * a


def euler_bound_decide(s: Scenario, f: Facts) -> Verdict:
    """Doubling bound at fiber degree >= 2, with single-section upgrades
    when the canonical degree is declared nonpositive or the divisor
    has numerical dimension one.  A positive bound makes both upgrades
    positive: D.(H+B) = D^2 - D.K, so D.(H+B) <= 0 with D.K <= 0 or
    D^2 = 0 would make the bound nonpositive."""
    a = f.d_dot_f
    dvr = s.divisor
    # D, K and H + B = D - K are integral, so each number is over 1
    d_sq, _ = dvr.dot(dvr)
    dhb, _ = dvr.dot(f.h + f.b)
    num, den = doubling_bound(a, d_sq, dhb)
    bound = ratio_text(num, den)
    if num <= 0:
        raise InconsistentScenario(
            f"the doubling bound {bound} must be positive for nef data"
        )
    if s.kappa_minus_k_nonneg:
        dk, _ = dvr.dot(f.k)
        if dk > 0:
            raise InconsistentScenario(
                "the declared canonical hypothesis forces D.K <= 0,"
                f" got {dk}"
            )
        value = ratio_text(*canonical_sign_bound(a, dhb, dk))
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


# Each named hypothesis: its test on the scenario and its facts, then
# what a violation does.  An exception type refuses the scenario with the
# message, whose fields read the facts as ``f``; None declines the route,
# with the message as the reason of an unknown verdict.  A positivity
# hypothesis fails only where its rule says VIOLATED: an UNKNOWN status,
# as on every blown-up lattice, or None on a fiber tree, passes.
HYPOTHESES = {
    "q = 0": (lambda s, f: s.q == 0, InconsistentScenario,
              "a vanishing nef divisor with ample polarization forces"
              " irregularity 0"),
    "chi(O) = 1": (lambda s, f: s.chi_o == 1, InconsistentScenario,
                   "a vanishing nef divisor with ample polarization forces"
                   " chi(O) = 1"),
    "nef(D)": (lambda s, f: f.nef is None or f.nef.status != VIOLATED,
               PreconditionError, "the divisor is not nef: {f.nef.note}"),
    "ample(H)": (lambda s, f: f.ample is None or f.ample.status != VIOLATED,
                 PreconditionError,
                 "the polarization fails ampleness: {f.ample.note}"),
    "lattice": (lambda s, f: s.is_lattice, None,
                "no intersection data for the euler-characteristic route"),
    "relatively minimal": (lambda s, f: s.relatively_minimal, None,
                           "not relatively minimal"),
    "D.F >= 2": (lambda s, f: f.d_dot_f >= 2, None,
                 "low fiber degree without fiber-tree data; no certificate"
                 " applies"),
}

# The certificate routes in the order they are tried: the cases each
# serves, the hypotheses it rests on, checked in order, and the route,
# which returns a verdict or None to pass the scenario on.  C_M never
# passes the relatively minimal route: it answers or raises.
ROUTES = (
    ((CASE_A,), ("q = 0", "chi(O) = 1", "ample(H)"), case_a_decide),
    ((CASE_B_I, CASE_B_II), ("lattice", "nef(D)", "ample(H)"),
     case_b_decide),
    ((CASE_C, CASE_C_M), ("nef(D)",), fiber_threshold),
    ((CASE_C, CASE_C_M), ("nef(D)", "relatively minimal"),
     relatively_minimal_decide),
    ((CASE_C,), ("nef(D)", "D.F >= 2"), euler_bound_decide),
)

# the unknown reasons of the cases that no route serves
_NO_ROUTE = ("no certificate catalogued for this case; larger multiples"
             " may be needed")
_UNROUTED = {CASE_D_I: _NO_ROUTE, CASE_D_II: _NO_ROUTE, CASE_CR: (
    "not relatively minimal with a big divisor: outside the certified"
    " catalogue")}


def decide(s: Scenario) -> Verdict:
    """Classify and derive the shared facts once, then walk the routes
    of the case in order.  A route runs once its hypotheses hold, and
    the first verdict it returns is the answer.  A violated hypothesis
    refuses the scenario or declines the route; when no route answers,
    the verdict is unknown with the reason of the last decline."""
    f = derive(s, classify(s))
    reason = _UNROUTED.get(f.label)
    for cases, names, route in ROUTES:
        if f.label not in cases:
            continue
        for name in names:
            holds, refusal, message = HYPOTHESES[name]
            if not holds(s, f):
                if refusal is not None:
                    raise refusal(message.format(f=f))
                reason = message
                break
        else:
            verdict = route(s, f)
            if verdict is not None:
                return verdict
    return Verdict(f.label, UNDECIDED, {}, reason)
