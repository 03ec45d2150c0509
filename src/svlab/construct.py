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
to a chain of line-bundle degrees whose final term is 0, which the kv
``degree-audit`` line prints from p and n.

Every rational is held as integers.  A boundary coefficient, the base twist
degree and the member coefficient are reduced ``(numerator, positive
denominator)`` int pairs, the classes are ``DivisorClass``es, which keep
integer numerators over one denominator, and an intersection number and
chi(D) are read as a numerator over a positive denominator from
``DivisorClass.dot`` and ``riemann_roch_chi``.  A comparison
cross-multiplies, and a witness prints each ratio through
``svlab.ratio.ratio_text``.
"""

from .charpcurve.families import ASSERTED, TangoCertificate
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
from .ratio import is_ratio, ratio_text
from .record import record

KIND_KV = "kv"
KIND_KOLLAR = "kollar"
KIND_SEMIPOS = "semipos"

KINDS = (KIND_KV, KIND_KOLLAR, KIND_SEMIPOS)


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
    polarization D - K - B.  Each boundary coefficient, the base twist
    degree and the member coefficient is a reduced ``(numerator,
    denominator)`` int pair with a positive denominator.

    Each optional field is set exactly where ``build_package`` sets it
    and ``verify_package`` reads it: ``base_twist_degree`` on kollar,
    ``shifted_divisor`` on semipos, and the member class and coefficient
    together on semipos with p >= 5.  A kollar boundary has its two
    branches.  Any other shape, or a ratio that is no such pair, raises
    ``PackageError`` naming the field.
    """

    kind: str
    certificate: TangoCertificate
    model: RuledModel
    section_curve: DivisorClass
    boundary: tuple[tuple[DivisorClass, tuple[int, int]], ...]
    divisor: DivisorClass
    h_class: DivisorClass
    base_twist_degree: tuple[int, int] | None = None
    member_class: DivisorClass | None = None
    member_coefficient: tuple[int, int] | None = None
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
        # every sign test of verify_package cross-multiplies by the
        # denominator, so it must be positive
        for name, value in (
            *((f"boundary[{i}]", c) for i, (_, c) in enumerate(self.boundary)),
            ("base_twist_degree", self.base_twist_degree),
            ("member_coefficient", self.member_coefficient),
        ):
            if value is not None and not is_ratio(value):
                raise PackageError(
                    f"{name}: expected a reduced (numerator, positive"
                    f" denominator) int pair, got {value!r}"
                )

    def degree_n(self) -> int:
        return self.certificate.n_f0


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
) -> tuple[tuple[int, int], DivisorClass, DivisorClass]:
    """Boundary coefficient, D and H of the kv data on ``build_surface``.

    For p >= 3 the coefficient is 1/2, D = ((p-3)/2)E + (2g-2+(3-p)n/2)F
    and H = (1/2)E + (n/2)F; for p = 2 it is 2/3, D = (2g-2)F, the
    canonical pullback from the base, and H = (2/3)E + (n/3)F.  The
    fractional classes are given as numerators over 2 or 3.
    """
    g, n, p = model.genus, -model.invariant_e, model.characteristic
    if p >= 3:
        return (
            (1, 2),
            DivisorClass(model, (p - 3, 4 * g - 4 + (3 - p) * n), 2),
            DivisorClass(model, (1, n), 2),
        )
    return (
        (2, 3),
        model.divisor(0, 2 * g - 2),
        DivisorClass(model, (2, n), 3),
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
    # a class is normalised, so the F part of (twist)F over its
    # denominator is the twist in lowest terms
    h_class = DivisorClass(model, (0, kv_h.nums[1]), kv_h.den)
    return {
        "boundary": ((model.section_class(), coeff), (c_prime, coeff)),
        "divisor": divisor,
        "h_class": h_class,
        "base_twist_degree": (h_class.nums[1], h_class.den),
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
                  "member_coefficient": (1, 2)}
    elif p == 3:
        coeff = (5, 6)
        divisor = model.divisor(1, 2 * g - 2 - n)
        h_class = DivisorClass(model, (1, n), 2)
    else:
        _require_star(cert)
        coeff = (5, 6)
        divisor = model.divisor(1, 2 * g - 2 - n // 3)
        h_class = DivisorClass(model, (4, n), 3)
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


def verify_package(pkg: CounterexamplePackage) -> PackageVerification:
    """Run every checklist item on the stored classes.

    This is the one package checker: a built or parsed package carries
    no results, so every verdict is computed here, ending with the
    euler-characteristic cross-check.  Each intersection number is a
    numerator over a positive denominator, so a sign test reads the
    numerator and an equality cross-multiplies.  The kv ``degree-audit``
    line computes its degree chain from p and n and passes: it states
    the chain and tests nothing.
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
        twist = model.class_of(((0, 1), pkg.base_twist_degree))
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
            pkg.base_twist_degree[0] > 0,
            f"twist degree {ratio_text(*pkg.base_twist_degree)} > 0 on the"
            " base",
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
        twice_h = pkg.h_class.times(2)
        results.append(CheckResult(
            "boundary-member",
            (pkg.member_class == twice_h
             and pkg.member_class.times(*pkg.member_coefficient)
             == pkg.h_class),
            f"general member of |{format_class(twice_h)}| joined with"
            f" coefficient {ratio_text(*pkg.member_coefficient)};"
            " transversality assumed, not derived",
        ))

    c_prime = pkg.section_curve
    e_dot, e_den = model.section_class().dot(c_prime)
    sq, sq_den = c_prime.dot(c_prime)
    results.append(CheckResult(
        "section-curve",
        (candidate_curve_constraints(model, c_prime)
         and sq == -p * p * n * sq_den and e_dot == 0),
        f"C'^2 = {ratio_text(sq, sq_den)} = -p^2 n,"
        f" E.C' = {ratio_text(e_dot, e_den)}, constraints hold",
    ))
    if 2 * (g - 1) == p * n:
        pa = adjunction_pa(model, c_prime)
        results.append(CheckResult(
            "arithmetic-genus",
            pa == g,
            f"p_a(C') = {pa} matches the base genus {g}",
        ))

    if pkg.kind == KIND_KV:
        h2_pairing, h2_den = (k - pkg.divisor).dot(pkg.h_class)
        results.append(CheckResult(
            "h2-vanishing",
            h2_pairing < 0,
            f"(K - D).H = {ratio_text(h2_pairing, h2_den)} < 0 kills top"
            " cohomology",
        ))
        # The degree chain forcing h1(X, D) >= 1.  For p >= 3 the direct
        # image filters through symmetric powers with graded degrees
        # {0, n, ..., mn}, m = (p-3)/2; dualizing gives a subsheaf of
        # degree -(p-1)n/2, and twisting back by (p-1)n/2 lands on the
        # trivial bundle, whose h0 = 1 survives into h1(X, D).  For p = 2
        # the same term arrives directly from the relative dualizing
        # sheaf, degree 0 on the nose.
        if p == 2:
            route, degrees, sub = "relative-dualizing", (0,), 0
        else:
            route = "symmetric-power-filtration"
            degrees = tuple(i * n for i in range((p - 3) // 2 + 1))
            sub = -(p - 1) * n // 2
        results.append(CheckResult(
            "degree-audit",
            True,
            f"{route}: degrees {degrees}, subsheaf {sub}, twist {-sub},"
            " final 0, h1 >= 1",
        ))

    if pkg.kind == KIND_SEMIPOS:
        expected_shift = pkg.divisor - model.divisor(0, 2 * g - 2)
        fiber_deg, fiber_den = pkg.shifted_divisor.dot(
            model.fiber_class()
        )
        results.append(CheckResult(
            "shifted-degrees",
            pkg.shifted_divisor == expected_shift and fiber_deg >= 0,
            f"D' = D - ({2 * g - 2})F ="
            f" {format_class(pkg.shifted_divisor)},"
            f" fiber degree {ratio_text(fiber_deg, fiber_den)} >= 0",
        ))
        value, den = pkg.shifted_divisor.dot(c_prime)
        if p >= 5:
            expected, expected_den = (3 - p) * p * n, 2
        elif p == 3:
            expected, expected_den = -3 * n, 1
        else:
            expected, expected_den = -2 * n, 3
        results.append(CheckResult(
            "shifted-not-nef",
            value < 0 and value * expected_den == expected * den,
            f"D'.C' = {ratio_text(value, den)} < 0 against a certified"
            " curve class; the pushforward cannot be semipositive"
            " (surjectivity onto the fiberwise quotient taken as given)",
        ))

    chi, chi_den = riemann_roch_chi(model, pkg.divisor)
    results.append(CheckResult(
        "euler-positive",
        chi > 0,
        f"chi(D) = {ratio_text(chi, chi_den)} > 0, so sections exist below"
        " h2 = 0",
    ))

    return PackageVerification(tuple(results))


def _klt_item(pkg: CounterexamplePackage) -> CheckResult:
    """Whether the boundary, with the member on semipos at p >= 5, is klt.

    Every package boundary is a set of smooth branches that meet
    transversally: a kollar boundary's two branches are disjoint when
    E.C' = 0, which is computed here, and the member meets the
    multisection transversally, which is assumed.  Such a pair is klt
    exactly when every coefficient is below 1 (Kollar-Mori, Birational
    Geometry of Algebraic Varieties, 1998, Cor. 2.31), so the line tests
    each coefficient against [0, 1) and walks no cluster forest.
    """
    coeffs = [coeff for _, coeff in pkg.boundary]
    if pkg.member_class is not None:
        coeffs.append(pkg.member_coefficient)
    for num, den in coeffs:
        if not 0 <= num < den:
            return CheckResult(
                "boundary-klt", False,
                f"coefficient {ratio_text(num, den)} is outside [0, 1)",
            )
    note = "smooth branches"
    if pkg.kind == KIND_KOLLAR:
        meets, den = pkg.boundary[0][0].dot(pkg.boundary[1][0])
        if meets != 0:
            return CheckResult(
                "boundary-klt", False,
                f"branches are not disjoint: E.C' = {ratio_text(meets, den)}",
            )
        note = "disjoint smooth branches, E.C' = 0"
    if pkg.member_class is not None:
        note = "member meets the multisection transversally (assumed)"
    return CheckResult(
        "boundary-klt",
        True,
        f"{note}; coefficients"
        f" {', '.join(ratio_text(*c) for c in coeffs)} all below 1",
    )
