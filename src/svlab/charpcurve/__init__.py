"""Prime-field Laurent-series kernel and the catalogued curve families.

Submodules: ``series`` (Laurent series over GF(p) with precision
tracking, roots by Newton iteration), ``families`` (curve families,
local expansions at infinity, and the invariant certificates built from
them)."""

from .series import LaurentSeries, PrecisionError, SeriesError
from .families import (
    ArtinSchreier,
    CertificateError,
    FamilyParameterError,
    Hyperelliptic,
    InfinityChart,
    NotSeparatingError,
    SeriesUnavailable,
    TangoCertificate,
    TangoPlane,
    certify_tango,
    default_witness,
    defining_residual,
    differential_valuation,
    expand_at_infinity,
    genus,
    n_of_f,
    v_infinity_df,
    witness_series,
)

__all__ = [
    "ArtinSchreier",
    "CertificateError",
    "FamilyParameterError",
    "Hyperelliptic",
    "InfinityChart",
    "LaurentSeries",
    "NotSeparatingError",
    "PrecisionError",
    "SeriesError",
    "SeriesUnavailable",
    "TangoCertificate",
    "TangoPlane",
    "certify_tango",
    "default_witness",
    "defining_residual",
    "differential_valuation",
    "expand_at_infinity",
    "genus",
    "n_of_f",
    "v_infinity_df",
    "witness_series",
]
