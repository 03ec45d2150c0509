"""Package builder: class data frozen by hand on the whole grid.

Every divisor below was expanded by hand from the rank-2 pairing
(E^2 = n, E.F = 1, F^2 = 0) before being pinned here; the euler
characteristics come from the Riemann-Roch oracle.
"""

from fractions import Fraction

import pytest

from svlab.charpcurve.families import (
    ArtinSchreier,
    Hyperelliptic,
    TangoCertificate,
    TangoPlane,
    certify_tango,
)
from svlab.construct import (
    KIND_KOLLAR,
    KIND_KV,
    KIND_SEMIPOS,
    ROUTE_DUALIZING,
    ROUTE_FILTRATION,
    CounterexamplePackage,
    DegreeAudit,
    PackageError,
    KINDS,
    build_package,
    build_surface,
    disjoint_multisection,
    h1_lower_bound_audit,
    verify_package,
)
from svlab.lattice import riemann_roch_chi

GRID_FAMILIES = (
    Hyperelliptic(3, 3),
    Hyperelliptic(5, 3),
    ArtinSchreier(2, 5),
    ArtinSchreier(3, 3),
    ArtinSchreier(2, 8),
)

CERTS = {fam: certify_tango(fam) for fam in GRID_FAMILIES}
CERTS[ArtinSchreier(2, 4)] = certify_tango(ArtinSchreier(2, 4))


def cert_of(fam):
    return CERTS[fam]


def names(pkg):
    return [r.name for r in verify_package(pkg).results]


def item(pkg, name):
    for check in verify_package(pkg).results:
        if check.name == name:
            return check
    raise AssertionError(f"no checklist item {name!r}")


class TestSurface:
    def test_model_parameters(self):
        m = build_surface(cert_of(Hyperelliptic(3, 3)))
        assert (m.characteristic, m.genus, m.invariant_e) == (3, 4, -2)
        c = disjoint_multisection(m)
        assert c == m.divisor(3, -6)
        assert c.self_intersection() == -18
        assert m.section_class().dot(c) == 0
        assert c.dot(m.fiber_class()) == 3

    def test_artin_schreier_multisection(self):
        m = build_surface(cert_of(ArtinSchreier(2, 5)))
        assert m.invariant_e == -3
        assert disjoint_multisection(m) == m.divisor(2, -6)

    def test_grid_curve_constraints(self):
        from svlab.lattice import candidate_curve_constraints

        for fam in GRID_FAMILIES:
            m = build_surface(cert_of(fam))
            assert candidate_curve_constraints(
                m, disjoint_multisection(m)
            )


class TestAdmission:
    def test_bound_gap_rejected(self):
        base = cert_of(Hyperelliptic(3, 3))
        loose = TangoCertificate(
            family=base.family,
            witness=base.witness,
            genus=base.genus,
            v_inf=base.v_inf,
            n_f0=base.n_f0,
            bound=base.bound + 1,
            equality=False,
            l_degree=base.l_degree,
            star_condition=base.star_condition,
            provenance=base.provenance,
        )
        with pytest.raises(PackageError, match="bound"):
            build_package(KIND_KV, loose)

    def test_asserted_certificates_need_the_flag(self):
        cert = certify_tango(TangoPlane(5))
        with pytest.raises(PackageError, match="allow_asserted"):
            build_package(KIND_KV, cert)
        pkg = build_package(KIND_KV, cert, allow_asserted=True)
        assert verify_package(pkg).valid
        # g = 10, n = 3: the generic formulas, nothing p=5-specific
        assert pkg.divisor == pkg.model.divisor(1, 15)

    def test_zero_invariant_rejected(self):
        base = cert_of(Hyperelliptic(3, 3))
        flat = TangoCertificate(
            family=base.family,
            witness=base.witness,
            genus=base.genus,
            v_inf=0,
            n_f0=0,
            bound=0,
            equality=True,
            l_degree=0,
            star_condition=None,
            provenance=base.provenance,
        )
        with pytest.raises(PackageError, match="positive"):
            build_package(KIND_KV, flat)

    def test_unknown_kind(self):
        with pytest.raises(PackageError, match="kind"):
            build_package("banana", cert_of(Hyperelliptic(3, 3)))


class TestKV:
    def test_half_boundary_data(self):
        pkg = build_package(KIND_KV, cert_of(Hyperelliptic(3, 3)))
        m = pkg.model
        assert pkg.divisor == m.divisor(0, 6)
        assert pkg.h_class == m.divisor(Fraction(1, 2), 1)
        assert pkg.boundary == ((m.divisor(3, -6), Fraction(1, 2)),)
        assert riemann_roch_chi(m, pkg.divisor) == 3
        assert verify_package(pkg).valid

    def test_checklist_names_stable(self):
        pkg = build_package(KIND_KV, cert_of(Hyperelliptic(3, 3)))
        assert names(pkg) == [
            "class-identity",
            "divisor-integral",
            "divisor-nef",
            "polarization-ample",
            "boundary-klt",
            "section-curve",
            "arithmetic-genus",
            "h2-vanishing",
            "degree-audit",
            "euler-positive",
        ]

    def test_section_coefficient_grows_with_p(self):
        pkg = build_package(KIND_KV, cert_of(Hyperelliptic(5, 3)))
        m = pkg.model
        assert pkg.divisor == m.divisor(1, 10)
        assert pkg.h_class == m.divisor(Fraction(1, 2), 1)
        assert riemann_roch_chi(m, pkg.divisor) == 10
        # bound equality is not exact here (12 > 10), so no genus item
        assert "arithmetic-genus" not in names(pkg)
        assert verify_package(pkg).valid

    def test_char_two_data(self):
        pkg = build_package(KIND_KV, cert_of(ArtinSchreier(2, 5)))
        m = pkg.model
        assert pkg.divisor == m.divisor(0, 6)
        assert pkg.h_class == m.divisor(Fraction(2, 3), 1)
        assert pkg.boundary[0][1] == Fraction(2, 3)
        assert riemann_roch_chi(m, pkg.divisor) == 3
        assert verify_package(pkg).valid

    def test_remaining_grid_divisors(self):
        pkg33 = build_package(KIND_KV, cert_of(ArtinSchreier(3, 3)))
        assert pkg33.divisor == pkg33.model.divisor(0, 12)
        assert pkg33.h_class == pkg33.model.divisor(Fraction(1, 2), 2)
        pkg28 = build_package(KIND_KV, cert_of(ArtinSchreier(2, 8)))
        assert pkg28.divisor == pkg28.model.divisor(0, 12)
        assert riemann_roch_chi(pkg28.model, pkg28.divisor) == 6

    def test_identity_recomputes(self):
        for fam in GRID_FAMILIES:
            pkg = build_package(KIND_KV, cert_of(fam))
            m = pkg.model
            total = m.zero_class()
            for cls, coeff in pkg.boundary:
                total = total + cls * coeff
            assert pkg.divisor - m.canonical_class() - total == pkg.h_class

    def test_h2_pairing_frozen(self):
        pkg = build_package(KIND_KV, cert_of(Hyperelliptic(3, 3)))
        k = pkg.model.canonical_class()
        assert (k - pkg.divisor).dot(pkg.h_class) == -3
        assert item(pkg, "h2-vanishing").passed


class TestKollar:
    def test_disjoint_branches(self):
        pkg = build_package(KIND_KOLLAR, cert_of(Hyperelliptic(3, 3)))
        m = pkg.model
        assert pkg.boundary == (
            (m.section_class(), Fraction(1, 2)),
            (m.divisor(3, -6), Fraction(1, 2)),
        )
        assert pkg.divisor == m.divisor(0, 6)
        assert pkg.base_twist_degree == 1
        assert pkg.h_class == m.fiber_class()
        assert verify_package(pkg).valid
        assert "disjoint" in item(pkg, "boundary-klt").witness

    def test_componentwise_expansion(self):
        pkg = build_package(KIND_KOLLAR, cert_of(Hyperelliptic(3, 3)))
        m = pkg.model
        rebuilt = (
            m.canonical_class()
            + m.section_class() * Fraction(1, 2)
            + m.divisor(3, -6) * Fraction(1, 2)
            + m.divisor(0, 1)
        )
        assert rebuilt == pkg.divisor

    def test_char_two_coefficients(self):
        pkg = build_package(KIND_KOLLAR, cert_of(ArtinSchreier(2, 5)))
        assert pkg.boundary[0][1] == Fraction(2, 3)
        assert pkg.base_twist_degree == 1
        assert pkg.divisor == pkg.model.divisor(0, 6)
        assert verify_package(pkg).valid

    def test_char_two_needs_divisible_invariant(self):
        with pytest.raises(PackageError, match="3 | n"):
            build_package(KIND_KOLLAR, cert_of(ArtinSchreier(2, 4)))

    def test_twist_degree_follows_n(self):
        pkg = build_package(KIND_KOLLAR, cert_of(ArtinSchreier(3, 3)))
        assert pkg.base_twist_degree == 2
        pkg28 = build_package(KIND_KOLLAR, cert_of(ArtinSchreier(2, 8)))
        assert pkg28.base_twist_degree == 2

    def test_checklist_names_stable(self):
        pkg = build_package(KIND_KOLLAR, cert_of(Hyperelliptic(3, 3)))
        assert names(pkg) == [
            "class-identity",
            "base-twist-matches",
            "divisor-integral",
            "base-twist-ample",
            "boundary-klt",
            "section-curve",
            "arithmetic-genus",
            "euler-positive",
        ]

    def test_no_polarization_claim(self):
        pkg = build_package(KIND_KOLLAR, cert_of(Hyperelliptic(3, 3)))
        kollar_names = names(pkg)
        assert "polarization-ample" not in kollar_names
        assert "base-twist-ample" in kollar_names
        assert "base-twist-matches" in kollar_names


class TestSemipos:
    def test_large_p_reuses_kv_data(self):
        pkg = build_package(KIND_SEMIPOS, cert_of(Hyperelliptic(5, 3)))
        kv = build_package(KIND_KV, cert_of(Hyperelliptic(5, 3)))
        m = pkg.model
        assert pkg.divisor == kv.divisor
        assert pkg.h_class == kv.h_class
        assert pkg.member_class == m.divisor(1, 2)
        assert pkg.member_coefficient == Fraction(1, 2)
        assert pkg.shifted_divisor == m.divisor(1, -2)
        assert pkg.shifted_divisor.dot(pkg.section_curve) == -10
        assert verify_package(pkg).valid

    def test_p_three_data(self):
        pkg = build_package(KIND_SEMIPOS, cert_of(Hyperelliptic(3, 3)))
        m = pkg.model
        assert pkg.boundary == ((m.divisor(3, -6), Fraction(5, 6)),)
        assert pkg.divisor == m.divisor(1, 4)
        assert pkg.h_class == m.divisor(Fraction(1, 2), 1)
        assert pkg.shifted_divisor == m.divisor(1, -2)
        assert pkg.shifted_divisor.dot(pkg.section_curve) == -6
        assert pkg.member_class is None
        assert verify_package(pkg).valid

    def test_p_two_data(self):
        pkg = build_package(KIND_SEMIPOS, cert_of(ArtinSchreier(2, 5)))
        m = pkg.model
        assert pkg.divisor == m.divisor(1, 5)
        assert pkg.h_class == m.divisor(Fraction(4, 3), 1)
        assert pkg.shifted_divisor == m.divisor(1, -1)
        assert pkg.shifted_divisor.dot(pkg.section_curve) == -2
        assert verify_package(pkg).valid

    def test_checklist_names_stable(self):
        pkg = build_package(KIND_SEMIPOS, cert_of(Hyperelliptic(5, 3)))
        assert names(pkg) == [
            "class-identity",
            "divisor-integral",
            "polarization-ample",
            "boundary-klt",
            "boundary-member",
            "section-curve",
            "shifted-degrees",
            "shifted-not-nef",
            "euler-positive",
        ]

    def test_p_two_rejected_without_star(self):
        with pytest.raises(PackageError, match="3 | n"):
            build_package(KIND_SEMIPOS, cert_of(ArtinSchreier(2, 4)))

    def test_decisive_values_across_grid(self):
        expected = {
            Hyperelliptic(3, 3): -6,
            Hyperelliptic(5, 3): -10,
            ArtinSchreier(2, 5): -2,
            ArtinSchreier(3, 3): -12,
            ArtinSchreier(2, 8): -4,
        }
        for fam, value in expected.items():
            pkg = build_package(KIND_SEMIPOS, cert_of(fam))
            assert pkg.shifted_divisor.dot(pkg.section_curve) == value
            check = item(pkg, "shifted-not-nef")
            assert check.passed
            assert str(value) in check.witness

    def test_shift_keeps_fiber_degree(self):
        for fam in GRID_FAMILIES:
            pkg = build_package(KIND_SEMIPOS, cert_of(fam))
            fiber = pkg.model.fiber_class()
            assert pkg.shifted_divisor.dot(fiber) >= 0
            assert pkg.shifted_divisor == pkg.divisor - pkg.model.divisor(
                0, 2 * pkg.model.genus - 2
            )


class TestDegreeAudit:
    def test_smallest_odd_p(self):
        pkg = build_package(KIND_KV, cert_of(Hyperelliptic(3, 3)))
        audit = h1_lower_bound_audit(pkg)
        assert audit == DegreeAudit(
            route=ROUTE_FILTRATION,
            filtration_degrees=(0,),
            subsheaf_degree=-2,
            twist_degree=2,
            final_degree=0,
            lower_bound=1,
        )

    def test_p_five_filtration_widens(self):
        pkg = build_package(KIND_KV, cert_of(Hyperelliptic(5, 3)))
        audit = h1_lower_bound_audit(pkg)
        assert audit.filtration_degrees == (0, 2)
        assert audit.subsheaf_degree == -4
        assert audit.final_degree == 0

    def test_char_two_route(self):
        pkg = build_package(KIND_KV, cert_of(ArtinSchreier(2, 5)))
        audit = h1_lower_bound_audit(pkg)
        assert audit.route == ROUTE_DUALIZING
        assert audit.final_degree == 0
        assert audit.lower_bound == 1

    def test_only_reads_kv_packages(self):
        with pytest.raises(PackageError, match="kv"):
            h1_lower_bound_audit(
                build_package(KIND_KOLLAR, cert_of(Hyperelliptic(3, 3)))
            )

    def test_chain_closes_on_the_grid(self):
        for fam in GRID_FAMILIES:
            pkg = build_package(KIND_KV, cert_of(fam))
            audit = h1_lower_bound_audit(pkg)
            assert audit.subsheaf_degree + audit.twist_degree == 0
            assert audit.final_degree == 0
            assert audit.lower_bound == 1


def _bent(pkg, **changes):
    """``pkg`` rebuilt with ``changes``; every other field as built."""
    return CounterexamplePackage(**{**vars(pkg), **changes})


class TestVerify:
    def test_grid_verifies_valid(self):
        for fam in GRID_FAMILIES:
            for kind in KINDS:
                report = verify_package(build_package(kind, cert_of(fam)))
                assert report.valid, (fam, kind)

    def test_euler_check_appended_everywhere(self):
        for kind in KINDS:
            pkg = build_package(kind, cert_of(Hyperelliptic(3, 3)))
            report = verify_package(pkg)
            assert report.results[-1].name == "euler-positive"
            assert report.results[-1].passed

    def test_nothing_is_trusted(self):
        pkg = build_package(KIND_KV, cert_of(Hyperelliptic(3, 3)))
        bent = _bent(pkg, divisor=pkg.model.divisor(0, 5))
        report = verify_package(bent)
        assert not report.valid
        failed = {r.name for r in report.results if not r.passed}
        assert "class-identity" in failed

    def test_fractional_tamper_caught(self):
        pkg = build_package(KIND_KV, cert_of(ArtinSchreier(3, 3)))
        bent = _bent(pkg, divisor=pkg.model.divisor(Fraction(1, 2), 12))
        report = verify_package(bent)
        failed = {r.name for r in report.results if not r.passed}
        assert "divisor-integral" in failed

    def test_wrong_shift_caught(self):
        pkg = build_package(KIND_SEMIPOS, cert_of(ArtinSchreier(2, 5)))
        bent = _bent(pkg, shifted_divisor=pkg.model.divisor(1, 0))
        report = verify_package(bent)
        failed = {r.name for r in report.results if not r.passed}
        assert "shifted-degrees" in failed

    def test_deterministic(self):
        pkg = build_package(KIND_SEMIPOS, cert_of(ArtinSchreier(2, 8)))
        assert verify_package(pkg) == verify_package(pkg)


class TestGridInvariants:
    def all_packages(self):
        for fam in GRID_FAMILIES:
            for kind in KINDS:
                yield fam, build_package(kind, cert_of(fam))

    def test_multisection_square(self):
        for fam, pkg in self.all_packages():
            p = pkg.model.characteristic
            n = pkg.degree_n()
            assert pkg.section_curve.self_intersection() == -p * p * n
            assert pkg.model.section_class().dot(pkg.section_curve) == 0

    def test_divisors_integral(self):
        for _, pkg in self.all_packages():
            assert pkg.divisor.is_integral()

    def test_adjunction_where_the_bound_is_exact(self):
        from svlab.lattice import adjunction_pa

        for fam, pkg in self.all_packages():
            g, n = pkg.model.genus, pkg.degree_n()
            p = pkg.model.characteristic
            if 2 * (g - 1) == p * n:
                assert adjunction_pa(pkg.model, pkg.section_curve) == g

    def test_boundary_coefficients_fractional(self):
        for _, pkg in self.all_packages():
            for _, coeff in pkg.boundary:
                assert 0 < coeff < 1

    def test_every_package_chi_positive(self):
        for _, pkg in self.all_packages():
            assert riemann_roch_chi(pkg.model, pkg.divisor) > 0
