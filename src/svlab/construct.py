"""Packages that defeat vanishing statements, built and checked exactly.

``build_package`` takes a kind and an invariant certificate for a
base curve (genus g, line-bundle degree n > 0) and assembles divisor
data on the ruled surface over it: a boundary with fractional
coefficients, a divisor D, and a polarization H.  A package carries
data only; ``verify_package`` recomputes its checklist of named
arithmetic facts from the classes.  Three flavours are covered:

``kv``       fractional boundary on a single multisection; D nef and
             integral, H ample, yet h1(D) >= 1 by a degree audit.
``kollar``   boundary with two disjoint branches plus an ample twist
             pulled back from the base; D = K + B + twist exactly.
``semipos``  the shifted class D' = D - (2g-2)F meets the multisection
             negatively, so D' cannot be nef.

Everything here is class arithmetic over Q; no sheaf is ever computed.
The one genuinely cohomological claim (the h1 lower bound) is reduced
to a bookkeeping chain of line-bundle degrees whose final term is 0.
"""

from fractions import Fraction

from .charpcurve.families import ASSERTED, TangoCertificate
from .kltcalc import (
    ClusterArrangement,
    ClusterNode,
    WeightedBranch,
    is_klt,
)
from .lattice import (
    CERTIFIED,
    DivisorClass,
    RuledModel,
    adjunction_pa,
    boundary_sum,
    candidate_curve_constraints,
    certify_positivity,
    disjoint_multisection,
    format_class,
    riemann_roch_chi,
)
from .record import record

KIND_KV = "kv"
KIND_KOLLAR = "kollar"
KIND_SEMIPOS = "semipos"

KINDS = (KIND_KV, KIND_KOLLAR, KIND_SEMIPOS)

ROUTE_FILTRATION = "symmetric-power-filtration"
ROUTE_DUALIZING = "relative-dualizing"


class PackageError(ValueError):
    """The requested package cannot be built from this certificate."""


@record
class CheckResult:
    name: str
    passed: bool
    witness: str


@record
class CounterexamplePackage:
    """Divisor data on the ruled surface over a certified base curve.

    ``section_curve`` is the degree-p multisection disjoint from the
    canonical section (E.C' = 0, C'.F = p).  ``boundary`` carries the
    fractional coefficients; ``member_class`` is the extra boundary
    branch used by the p >= 5 semipositivity data.  ``h_class`` is the
    polarization D - K - B.

    Each optional field is set exactly where ``build_package`` sets it
    and ``verify_package`` reads it: ``base_twist_degree`` on kollar,
    ``shifted_divisor`` on semipos, and the member class and coefficient
    together on semipos with p >= 5.  A kollar boundary has its two
    branches.  Any other shape raises ``PackageError`` naming the field.
    """

    kind: str
    certificate: TangoCertificate
    model: RuledModel
    section_curve: DivisorClass
    boundary: tuple[tuple[DivisorClass, Fraction], ...]
    divisor: DivisorClass
    h_class: DivisorClass
    base_twist_degree: Fraction | None = None
    member_class: DivisorClass | None = None
    member_coefficient: Fraction | None = None
    shifted_divisor: DivisorClass | None = None

    def __post_init__(self):
        if self.kind == KIND_KOLLAR and len(self.boundary) != 2:
            raise PackageError(
                "boundary: a kollar package has two entries,"
                f" got {len(self.boundary)}"
            )
        p = self.model.characteristic
        member = self.kind == KIND_SEMIPOS and p >= 5
        for name, wanted in (
            ("base_twist_degree", self.kind == KIND_KOLLAR),
            ("member_class", member),
            ("member_coefficient", member),
            ("shifted_divisor", self.kind == KIND_SEMIPOS),
        ):
            if (getattr(self, name) is None) == wanted:
                raise PackageError(
                    f"{name}: expected {'a' if wanted else 'no'} value on"
                    f" a {self.kind} package with p = {p}"
                )

    def degree_n(self) -> int:
        return self.certificate.n_f0


@record
class DegreeAudit:
    """Bookkeeping chain behind the h1 lower bound.

    The filtration degrees are those of the graded pieces the direct
    image decomposes through; the dual subsheaf of degree
    ``subsheaf_degree`` is twisted by ``twist_degree`` to land at the
    trivial bundle, whose sections give the bound.
    """

    route: str
    filtration_degrees: tuple[int, ...]
    subsheaf_degree: int
    twist_degree: int
    final_degree: int
    lower_bound: int


@record
class PackageVerification:
    results: tuple[CheckResult, ...]

    @property
    def valid(self) -> bool:
        return all(r.passed for r in self.results)


def _admit(cert: TangoCertificate, allow_asserted: bool) -> None:
    if cert.provenance == ASSERTED and not allow_asserted:
        raise PackageError(
            "certificate is catalogue-asserted, not computed;"
            " pass allow_asserted to accept it"
        )


def build_surface(cert: TangoCertificate) -> RuledModel:
    """Ruled surface over the certified curve with invariant e = -n.

    Every certificate has n = floor(2(g-1)/p) >= 1, so e < 0, and the
    multisection class pE - pnF clears the candidate-curve constraints:
    on their x >= p branch they amount to pn <= 2(g-1).
    ``verify_package`` checks them on every package (``section-curve``).
    """
    return RuledModel(cert.family.p, cert.genus, -cert.n_f0)


def _kv_classes(
    model: RuledModel,
) -> tuple[Fraction, DivisorClass, DivisorClass]:
    """Boundary coefficient, D and H of the kv data on ``build_surface``.

    For p >= 3 the coefficient is 1/2, D = ((p-3)/2)E + (2g-2+(3-p)n/2)F
    and H = (1/2)E + (n/2)F; for p = 2 it is 2/3, D = (2g-2)F, the
    canonical pullback from the base, and H = (2/3)E + (n/3)F.
    """
    g, n, p = model.genus, -model.invariant_e, model.characteristic
    if p >= 3:
        return (
            Fraction(1, 2),
            model.divisor(
                Fraction(p - 3, 2), 2 * g - 2 + Fraction((3 - p) * n, 2)
            ),
            model.divisor(Fraction(1, 2), Fraction(n, 2)),
        )
    return (
        Fraction(2, 3),
        model.divisor(0, 2 * g - 2),
        model.divisor(Fraction(2, 3), Fraction(n, 3)),
    )


def _kv_fields(cert, model, c_prime) -> dict:
    """Fractional boundary on the multisection with D nef, H ample,
    from the classes of ``_kv_classes``."""
    coeff, divisor, h_class = _kv_classes(model)
    return {"boundary": ((c_prime, coeff),), "divisor": divisor,
            "h_class": h_class}


def _kollar_fields(cert, model, c_prime) -> dict:
    """Two disjoint boundary branches plus a base twist.

    D = K + B + (twist pulled back from the base) exactly; the branches
    are the canonical section and the multisection, disjoint because
    E.C' = 0.  For p = 2 the twist is a third of the certified bundle,
    so its degree bookkeeping needs 3 | n.  D and the coefficient are
    the kv ones; the extra branch coeff*E takes the E part off the kv
    polarization, leaving the twist (n/2 or n/3)F.
    """
    coeff, divisor, kv_h = _kv_classes(model)
    if cert.family.p == 2:
        _require_star(cert)
    return {
        "boundary": ((model.section_class(), coeff), (c_prime, coeff)),
        "divisor": divisor,
        "h_class": model.divisor(0, kv_h.b),
        "base_twist_degree": kv_h.b,
    }


def _semipos_fields(cert, model, c_prime) -> dict:
    """Data whose shifted class D' = D - (2g-2)F meets C' negatively.

    For p >= 5 this reuses the kv data and joins a general member of
    |2H| to the boundary (recorded at the class level only); for p = 3
    and p = 2 the boundary coefficient rises to 5/6 and D gains an E
    term.  The p = 2 data subtracts a third of the certified bundle
    from the base canonical, hence needs 3 | n to stay integral.
    """
    g, n, p = cert.genus, cert.n_f0, cert.family.p
    member = {}
    if p >= 5:
        coeff, divisor, h_class = _kv_classes(model)
        member = {"member_class": model.divisor(1, n),  # 2H, integral
                  "member_coefficient": Fraction(1, 2)}
    elif p == 3:
        coeff = Fraction(5, 6)
        divisor = model.divisor(1, 2 * g - 2 - n)
        h_class = model.divisor(Fraction(1, 2), Fraction(n, 2))
    else:
        _require_star(cert)
        coeff = Fraction(5, 6)
        divisor = model.divisor(1, 2 * g - 2 - n // 3)
        h_class = model.divisor(Fraction(4, 3), Fraction(n, 3))
    return {
        "boundary": ((c_prime, coeff),),
        "divisor": divisor,
        "h_class": h_class,
        "shifted_divisor": divisor - model.divisor(0, 2 * g - 2),
        **member,
    }


# each kind's boundary, D, H and optional fields on the built surface
_KIND_FIELDS = {
    KIND_KV: _kv_fields,
    KIND_KOLLAR: _kollar_fields,
    KIND_SEMIPOS: _semipos_fields,
}


def build_package(
    kind: str, cert: TangoCertificate, allow_asserted: bool = False
) -> CounterexamplePackage:
    """The package of ``kind`` on the surface over ``cert``'s curve.

    The steps every kind shares run here once: admit the certificate,
    build the surface and its multisection C' = pE - pnF, and take the
    kind's fields.  ``verify_package`` checks H = D - K - B on every
    package (``class-identity``); as built, it is an identity in
    (p, g, n).  With K = -2E + (2g-2+n)F and B = cC', D - K - B has E
    part D_E + 2 - cp and F part D_F - (2g-2+n) + cpn, where D_F cancels
    2g-2.  kv: (p-3)/2 + 2 - p/2 = 1/2 and (3-p)n/2 - n + pn/2 = n/2 at
    c = 1/2 for p >= 3, 2 - 4/3 = 2/3 and -n + 4n/3 = n/3 at c = 2/3 for
    p = 2.  kollar: the kv data, and the branch cE takes the E part off
    H.  semipos: the kv data for p >= 5 (the member is no boundary
    entry); at c = 5/6, 1 + 2 - 5/2 = 1/2 and -2n + 5n/2 = n/2 for
    p = 3, 1 + 2 - 5/3 = 4/3 and -n/3 - n + 5n/3 = n/3 for p = 2.
    """
    if kind not in _KIND_FIELDS:
        raise PackageError(f"unknown package kind {kind!r}")
    _admit(cert, allow_asserted)
    model = build_surface(cert)
    c_prime = disjoint_multisection(model)
    return CounterexamplePackage(
        kind=kind,
        certificate=cert,
        model=model,
        section_curve=c_prime,
        **_KIND_FIELDS[kind](cert, model, c_prime),
    )


def _require_star(cert: TangoCertificate) -> None:
    if not cert.star_condition:
        raise PackageError(
            "p = 2 needs 3 | n so that a third of the certified bundle"
            " is an honest divisor on the base"
        )


def h1_lower_bound_audit(pkg: CounterexamplePackage) -> DegreeAudit:
    """Degree chain forcing h1(X, D) >= 1 for a kv package.

    For p >= 3 the direct image filters through symmetric powers with
    graded degrees {0, n, ..., mn}, m = (p-3)/2; dualizing gives a
    subsheaf of degree -(p-1)n/2, and twisting back by (p-1)n/2 lands
    on the trivial bundle, whose h0 = 1 survives into h1(X, D).  For
    p = 2 the same term arrives directly from the relative dualizing
    sheaf, degree 0 on the nose.
    """
    if pkg.kind != KIND_KV:
        raise PackageError("the degree audit reads kv package data")
    p = pkg.model.characteristic
    n = pkg.degree_n()
    if p == 2:
        return DegreeAudit(
            route=ROUTE_DUALIZING,
            filtration_degrees=(0,),
            subsheaf_degree=0,
            twist_degree=0,
            final_degree=0,
            lower_bound=1,
        )
    m = (p - 3) // 2
    sub = -(p - 1) * n // 2
    return DegreeAudit(
        route=ROUTE_FILTRATION,
        filtration_degrees=tuple(i * n for i in range(m + 1)),
        subsheaf_degree=sub,
        twist_degree=-sub,
        final_degree=0,
        lower_bound=1,
    )


def verify_package(pkg: CounterexamplePackage) -> PackageVerification:
    """Run every checklist item on the stored classes.

    This is the one package checker: a built or parsed package carries
    no results, so every verdict is computed here, ending with the
    euler-characteristic cross-check.
    """
    model = pkg.model
    g = model.genus
    n = pkg.degree_n()
    p = model.characteristic
    k = model.canonical_class()
    results: list[CheckResult] = []

    residue = pkg.divisor - k - boundary_sum(model, pkg.boundary)
    results.append(CheckResult(
        "class-identity",
        residue == pkg.h_class,
        f"D - K - B = {format_class(residue)},"
        f" H = {format_class(pkg.h_class)}",
    ))
    if pkg.kind == KIND_KOLLAR:
        twist = model.divisor(0, pkg.base_twist_degree)
        results.append(CheckResult(
            "base-twist-matches",
            pkg.h_class == twist,
            f"D - K - B is the pulled-back twist {format_class(twist)}",
        ))

    results.append(CheckResult(
        "divisor-integral",
        pkg.divisor.is_integral(),
        f"D = {format_class(pkg.divisor)}",
    ))

    if pkg.kind == KIND_KV:
        nef = certify_positivity(model, pkg.divisor)
        results.append(CheckResult(
            "divisor-nef",
            nef.status == CERTIFIED,
            f"{nef.status} via {nef.rule_used}",
        ))

    if pkg.kind == KIND_KOLLAR:
        results.append(CheckResult(
            "base-twist-ample",
            pkg.base_twist_degree > 0,
            f"twist degree {pkg.base_twist_degree} > 0 on the base",
        ))
    else:
        ample = certify_positivity(model, pkg.h_class, strict=True)
        results.append(CheckResult(
            "polarization-ample",
            ample.status == CERTIFIED,
            f"{ample.status} via {ample.rule_used}",
        ))

    results.append(_klt_item(pkg))
    if pkg.member_class is not None:
        results.append(CheckResult(
            "boundary-member",
            (pkg.member_class == 2 * pkg.h_class
             and pkg.member_class * pkg.member_coefficient == pkg.h_class),
            f"general member of |{format_class(2 * pkg.h_class)}| joined"
            f" with coefficient {pkg.member_coefficient}; transversality"
            " assumed, not derived",
        ))

    c_prime = pkg.section_curve
    e_dot = model.section_class().dot(c_prime)
    sq = c_prime.self_intersection()
    results.append(CheckResult(
        "section-curve",
        (candidate_curve_constraints(model, c_prime)
         and sq == -p * p * n and e_dot == 0),
        f"C'^2 = {sq} = -p^2 n, E.C' = {e_dot}, constraints hold",
    ))
    if 2 * (g - 1) == p * n:
        pa = adjunction_pa(model, c_prime)
        results.append(CheckResult(
            "arithmetic-genus",
            pa == g,
            f"p_a(C') = {pa} matches the base genus {g}",
        ))

    if pkg.kind == KIND_KV:
        h2_pairing = (k - pkg.divisor).dot(pkg.h_class)
        results.append(CheckResult(
            "h2-vanishing",
            h2_pairing < 0,
            f"(K - D).H = {h2_pairing} < 0 kills top cohomology",
        ))
        audit = h1_lower_bound_audit(pkg)
        results.append(CheckResult(
            "degree-audit",
            audit.final_degree == 0 and audit.lower_bound == 1,
            f"{audit.route}: degrees {audit.filtration_degrees},"
            f" subsheaf {audit.subsheaf_degree}, twist"
            f" {audit.twist_degree}, final {audit.final_degree},"
            f" h1 >= {audit.lower_bound}",
        ))

    if pkg.kind == KIND_SEMIPOS:
        expected_shift = pkg.divisor - model.divisor(0, 2 * g - 2)
        fiber_deg = pkg.shifted_divisor.dot(model.fiber_class())
        results.append(CheckResult(
            "shifted-degrees",
            pkg.shifted_divisor == expected_shift and fiber_deg >= 0,
            f"D' = D - ({2 * g - 2})F ="
            f" {format_class(pkg.shifted_divisor)},"
            f" fiber degree {fiber_deg} >= 0",
        ))
        value = pkg.shifted_divisor.dot(c_prime)
        if p >= 5:
            expected = Fraction((3 - p) * p * n, 2)
        elif p == 3:
            expected = Fraction(-3 * n)
        else:
            expected = Fraction(-2 * n, 3)
        results.append(CheckResult(
            "shifted-not-nef",
            value < 0 and value == expected,
            f"D'.C' = {value} < 0 against a certified curve class;"
            " the pushforward cannot be semipositive (surjectivity"
            " onto the fiberwise quotient taken as given)",
        ))

    chi = riemann_roch_chi(model, pkg.divisor)
    results.append(CheckResult(
        "euler-positive",
        chi > 0,
        f"chi(D) = {chi} > 0, so sections exist below h2 = 0",
    ))

    return PackageVerification(tuple(results))


def _klt_item(pkg: CounterexamplePackage) -> CheckResult:
    # a klt boundary has every coefficient in [0, 1)
    ids = [f"b{idx}" for idx in range(len(pkg.boundary))]
    coeffs = [coeff for _, coeff in pkg.boundary]
    if pkg.member_class is not None:
        ids.append("member")
        coeffs.append(pkg.member_coefficient)
    for c in coeffs:
        if not 0 <= c < 1:
            return CheckResult("boundary-klt", False,
                               f"coefficient {c} is outside [0, 1)")
    clusters: tuple[ClusterNode, ...] = ()
    note = "smooth branches"
    if pkg.kind == KIND_KOLLAR:
        meets = pkg.boundary[0][0].dot(pkg.boundary[1][0])
        if meets != 0:
            return CheckResult(
                "boundary-klt", False,
                f"branches are not disjoint: E.C' = {meets}",
            )
        note = "disjoint smooth branches, E.C' = 0"
    if pkg.member_class is not None:
        # one representative transverse meeting; they are all alike
        clusters = (ClusterNode(("b0", "member")),)
        note = "member meets the multisection transversally (assumed)"
    arr = ClusterArrangement(tuple(
        WeightedBranch(bid, c.numerator, c.denominator)
        for bid, c in zip(ids, coeffs)
    ), clusters)
    return CheckResult(
        "boundary-klt",
        is_klt(arr)[0],
        f"{note}; coefficients {', '.join(map(str, coeffs))} all below 1",
    )
