"""Curve families: genera, expansions, differentials, certificates.

The numeric expectations are frozen from independent hand computation:
genus formulas from the defining equations, valuations by substituting
the catalogued parametrizations, n values as floor(v/p).
"""

import pytest

from svlab.charpcurve.families import (
    ArtinSchreier,
    CertificateError,
    FamilyParameterError,
    Hyperelliptic,
    SeriesUnavailable,
    TangoPlane,
    _n_from_valuation,
    certify_tango,
    default_witness,
    defining_residual,
    expand_at_infinity,
    genus,
    n_of_f,
    v_infinity_df,
)
from svlab.charpcurve.series import PrecisionError

GRID = [
    Hyperelliptic(3, 3),
    Hyperelliptic(5, 3),
    ArtinSchreier(2, 5),
    ArtinSchreier(3, 3),
    ArtinSchreier(2, 8),
    ArtinSchreier(2, 4),
]


class TestParameters:
    def test_constraints(self):
        with pytest.raises(FamilyParameterError):
            Hyperelliptic(2, 3)
        with pytest.raises(FamilyParameterError):
            Hyperelliptic(3, 4)
        with pytest.raises(FamilyParameterError):
            Hyperelliptic(3, 1)
        with pytest.raises(FamilyParameterError):
            ArtinSchreier(3, 2)
        with pytest.raises(FamilyParameterError):
            ArtinSchreier(4, 3)
        with pytest.raises(FamilyParameterError):
            TangoPlane(2)
        with pytest.raises(FamilyParameterError):
            TangoPlane(9)

    def test_genus(self):
        assert genus(Hyperelliptic(3, 3)) == 4
        assert genus(Hyperelliptic(5, 3)) == 7
        assert genus(ArtinSchreier(2, 5)) == 4
        assert genus(ArtinSchreier(3, 3)) == 7
        assert genus(ArtinSchreier(2, 8)) == 7
        assert genus(ArtinSchreier(2, 4)) == 3
        assert genus(TangoPlane(3)) == 3
        assert genus(TangoPlane(5)) == 10


class TestExpansion:
    def test_hyperelliptic_valuations(self):
        chart = expand_at_infinity(Hyperelliptic(3, 3))
        assert chart.x.valuation == -2
        assert chart.x.truncation is None
        assert chart.y.valuation == -9
        assert chart.f0.valuation == -3

    def test_artin_schreier_valuations(self):
        chart = expand_at_infinity(ArtinSchreier(2, 5))
        assert chart.y.valuation == -2
        assert chart.x.valuation == -9
        assert chart.f0.valuation == -2

    def test_residual_vanishes_across_grid(self):
        for fam in GRID:
            chart = expand_at_infinity(fam)
            res = defining_residual(fam, chart)
            assert not res.known_nonzero(), fam
            assert res.truncation is not None

    def test_precision_floor(self):
        fam = Hyperelliptic(3, 3)
        with pytest.raises(PrecisionError):
            expand_at_infinity(fam, precision=10)
        expand_at_infinity(fam, precision=11)

    def test_plane_family_has_no_expansion(self):
        with pytest.raises(SeriesUnavailable):
            expand_at_infinity(TangoPlane(3))


class TestDifferential:
    def test_frozen_valuations(self):
        assert v_infinity_df(Hyperelliptic(3, 3)) == 6
        assert v_infinity_df(ArtinSchreier(2, 5)) == 6
        assert v_infinity_df(Hyperelliptic(5, 3)) == 12
        assert v_infinity_df(ArtinSchreier(3, 3)) == 12
        assert v_infinity_df(ArtinSchreier(2, 8)) == 12

    def test_valuation_matches_degree_formula(self):
        for fam in GRID:
            assert v_infinity_df(fam) == 2 * genus(fam) - 2

    def test_short_window_is_a_precision_error(self):
        # at the floor precision the leading derivative term of this
        # family is still outside the window
        fam = Hyperelliptic(3, 5)
        with pytest.raises(PrecisionError):
            v_infinity_df(fam, precision=17)
        assert v_infinity_df(fam) == 12


class TestInvariant:
    def test_frozen_n_values(self):
        assert n_of_f(Hyperelliptic(3, 3)) == 2
        assert n_of_f(ArtinSchreier(2, 5)) == 3
        assert n_of_f(TangoPlane(5)) == 3

    def test_n_closed_forms(self):
        # h - 1 and h(p-1) - 2 respectively
        assert n_of_f(Hyperelliptic(5, 3)) == 2
        assert n_of_f(Hyperelliptic(3, 5)) == 4
        assert n_of_f(ArtinSchreier(3, 3)) == 4
        assert n_of_f(ArtinSchreier(2, 8)) == 6
        assert n_of_f(ArtinSchreier(2, 4)) == 2

    def test_valuation_off_the_canonical_degree_refused(self):
        # 2g - 2 = 6 here; any other order at infinity leaves part of the
        # divisor of the differential in the affine chart
        for v in (-2, 5, 7):
            with pytest.raises(CertificateError, match="not concentrated"):
                _n_from_valuation(Hyperelliptic(3, 3), v)


class TestCertificates:
    def test_hyperelliptic_33(self):
        cert = certify_tango(Hyperelliptic(3, 3))
        assert cert.genus == 4
        assert cert.v_inf == 6
        assert cert.n_f0 == 2
        assert cert.bound == 2
        assert cert.equality is True
        assert cert.star_condition is None
        assert cert.provenance == "computed"
        assert cert.witness == "y/x^p"

    def test_artin_schreier_25(self):
        cert = certify_tango(ArtinSchreier(2, 5))
        assert cert.v_inf == 6
        assert cert.n_f0 == 3
        assert cert.bound == 3
        assert cert.equality is True
        assert cert.star_condition is True

    def test_artin_schreier_24_star_fails(self):
        cert = certify_tango(ArtinSchreier(2, 4))
        assert cert.n_f0 == 2
        assert cert.equality is True
        assert cert.star_condition is False

    def test_plane_certificate_is_asserted(self):
        cert = certify_tango(TangoPlane(5))
        assert cert.v_inf is None
        assert cert.n_f0 == 3
        assert cert.bound == 3
        assert cert.equality is True
        assert cert.provenance == "asserted"
        assert cert.witness == "x0/x1"

    def test_equality_across_grid(self):
        for fam in GRID:
            cert = certify_tango(fam)
            assert cert.equality is True, fam
            assert cert.n_f0 >= 1
            assert cert.provenance == "computed"

    def test_star_only_for_p2(self):
        for fam in GRID:
            cert = certify_tango(fam)
            if fam.p == 2:
                assert cert.star_condition is not None
            else:
                assert cert.star_condition is None

    def test_precision_doubling_stability(self):
        for fam in GRID:
            base = certify_tango(fam)
            doubled = certify_tango(
                fam, precision=2 * (4 * genus(fam) + 2 * fam.p)
            )
            assert (base.v_inf, base.n_f0) == (doubled.v_inf, doubled.n_f0)

    def test_default_witness_tags(self):
        assert default_witness(Hyperelliptic(3, 3)) == "y/x^p"
        assert default_witness(ArtinSchreier(2, 5)) == "y"
        assert default_witness(TangoPlane(3)) == "x0/x1"


@pytest.mark.parametrize("call, refusal, match", [
    pytest.param(lambda: genus(object()), FamilyParameterError,
                 "unknown family", id="genus-of-no-family"),
    pytest.param(lambda: defining_residual(
        TangoPlane(3), expand_at_infinity(Hyperelliptic(3, 3))),
        SeriesUnavailable, "no defining residual", id="tango-residual"),
])
def test_live_refusals(call, refusal, match):
    with pytest.raises(refusal, match=match):
        call()
