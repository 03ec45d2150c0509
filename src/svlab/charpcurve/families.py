"""Catalogued curve families and their invariants at infinity.

Three families are known to the kernel:

* ``Hyperelliptic(p, h)``:  y^2 = x^(ph) + x^(p+1) + 1,  p odd, h odd.
* ``ArtinSchreier(p, h)``:  y^(hp-1) = x^p - x,  h > 2.
* ``TangoPlane(p)``: a smooth plane curve of degree p + 1, p odd,
  carried as a catalogue entry only (no local expansion; its invariant
  is recorded with ``asserted`` provenance and is certified through the
  genus bound alone).

For the first two, the point at infinity is unique and the local
expansions below are exact catalogue data, validated by plugging them
back into the defining equation.  The Tango invariant n of a separating
function f is floor(v(df)/p) once the divisor of df is certified to sit
entirely at infinity; equality with floor(2(g-1)/p) pins the invariant
of the curve itself.
"""

from __future__ import annotations

from typing import Union

from ..primes import is_prime
from ..record import record
from .series import LaurentSeries, PrecisionError, SeriesError

COMPUTED = "computed"
ASSERTED = "asserted"


class FamilyParameterError(ValueError):
    pass


class NotSeparatingError(ValueError):
    """df vanished identically: f is a p-th power."""


class SeriesUnavailable(ValueError):
    """The family carries no catalogued expansion."""


class CertificateError(ValueError):
    """A required certificate did not hold."""


@record
class Hyperelliptic:
    p: int
    h: int

    def __post_init__(self):
        _require_prime(self.p)
        if self.p < 3:
            raise FamilyParameterError("this family needs p >= 3")
        if self.h < 3 or self.h % 2 == 0:
            raise FamilyParameterError("this family needs odd h >= 3")

    def describe(self) -> str:
        return f"y^2 = x^{self.p * self.h} + x^{self.p + 1} + 1"


@record
class ArtinSchreier:
    p: int
    h: int

    def __post_init__(self):
        _require_prime(self.p)
        if self.h <= 2:
            raise FamilyParameterError("this family needs h > 2")

    def describe(self) -> str:
        return f"y^{self.h * self.p - 1} = x^{self.p} - x"


@record
class TangoPlane:
    p: int

    def __post_init__(self):
        _require_prime(self.p)
        if self.p < 3:
            raise FamilyParameterError("this family needs p >= 3")

    def describe(self) -> str:
        return (
            f"x0^{self.p + 1} = x1·x2·(x0^{self.p - 1}"
            f" + x1^{self.p - 1} - x2^{self.p - 1})"
        )


CurveFamily = Union[Hyperelliptic, ArtinSchreier, TangoPlane]


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise FamilyParameterError(f"{p} is not prime")


def genus(family: CurveFamily) -> int:
    if isinstance(family, Hyperelliptic):
        return (family.p * family.h - 1) // 2
    if isinstance(family, ArtinSchreier):
        # 2(g-1) = p(h(p-1) - 2)
        return 1 + family.p * (family.h * (family.p - 1) - 2) // 2
    if isinstance(family, TangoPlane):
        return family.p * (family.p - 1) // 2
    raise FamilyParameterError(f"unknown family {family!r}")


def default_witness(family: CurveFamily) -> str:
    if isinstance(family, Hyperelliptic):
        return "y/x^p"
    if isinstance(family, ArtinSchreier):
        return "y"
    return "x0/x1"


def default_precision(family: CurveFamily) -> int:
    return 4 * genus(family) + 2 * family.p


def minimum_precision(family: CurveFamily) -> int:
    return 2 * genus(family) + family.p


@record
class InfinityChart:
    """Exact local data at the point at infinity, as series in the
    uniformizer t."""

    family: CurveFamily
    x: LaurentSeries
    y: LaurentSeries
    f0: LaurentSeries
    precision: int


def expand_at_infinity(
    family: CurveFamily, precision: int | None = None
) -> InfinityChart:
    """Laurent expansions of x, y and the default witness at the unique
    point at infinity, to ``precision`` known terms per series."""
    if isinstance(family, TangoPlane):
        raise SeriesUnavailable(
            "the plane family has no catalogued expansion; its invariant"
            " is carried with asserted provenance"
        )
    if precision is None:
        precision = default_precision(family)
    if precision < minimum_precision(family):
        raise PrecisionError(
            f"precision {precision} below the floor"
            f" {minimum_precision(family)} = 2g + p"
        )
    p, h = family.p, family.h

    if isinstance(family, Hyperelliptic):
        # x = t^-2 exactly; y = t^(-ph) * sqrt(1 + t^(2ph-2p-2) + t^(2ph))
        x = LaurentSeries.monomial(p, -2)
        inner = LaurentSeries.from_terms(
            p, {0: 1, 2 * p * h - 2 * p - 2: 1, 2 * p * h: 1}
        )
        y = inner.sqrt_unit(terms=precision).shifted(-p * h)
        f0 = y.shifted(2 * p)  # y / x^p
    else:
        # x = t^-(hp-1) exactly;
        # y = t^-p * (1 - t^((p-1)(hp-1)))^(1/(hp-1))
        m = h * p - 1
        x = LaurentSeries.monomial(p, -m)
        inner = LaurentSeries.from_terms(p, {0: 1, (p - 1) * m: -1})
        y = inner.nth_root_unit(m, terms=precision).shifted(-p)
        f0 = y

    chart = InfinityChart(family, x, y, f0, precision)
    res = defining_residual(family, chart)
    if res.known_nonzero():
        raise SeriesError(
            "catalogued expansion failed its residual check"
        )  # unreachable for valid parameters
    return chart


def defining_residual(
    family: CurveFamily, chart: InfinityChart
) -> LaurentSeries:
    """Defining equation evaluated on the expansion; every known
    coefficient must vanish for a valid chart."""
    x, y = chart.x, chart.y
    if isinstance(family, Hyperelliptic):
        rhs = (
            x ** (family.p * family.h)
            + x ** (family.p + 1)
            + LaurentSeries.monomial(family.p, 0)
        )
        return y * y - rhs
    if isinstance(family, ArtinSchreier):
        return y ** (family.h * family.p - 1) - (x ** family.p - x)
    raise SeriesUnavailable("no defining residual for this family")


def witness_series(
    family: CurveFamily, f0: str, precision: int | None = None
) -> LaurentSeries:
    chart = expand_at_infinity(family, precision)
    if f0 == default_witness(family):
        return chart.f0
    if f0 == "x":
        return chart.x
    if f0 == "y":
        return chart.y
    raise FamilyParameterError(
        f"no catalogued series for witness {f0!r} on {family!r}"
    )


def differential_valuation(s: LaurentSeries, decision_horizon: int) -> int:
    """Valuation of ds/dt, distinguishing "the function is a p-th power"
    from "the window is too short".

    A leading term beyond ``decision_horizon`` is treated as impossible
    (for the intended callers the horizon is 2g - 2, where a separating
    witness concentrated at infinity must show up), so an all-zero
    window reaching past it means the derivative really vanishes.
    """
    ds = s.derivative()
    if ds.known_nonzero():
        return ds.valuation
    if ds.truncation is None or ds.truncation > decision_horizon:
        raise NotSeparatingError(
            "derivative vanishes: not a separating function"
        )
    raise PrecisionError(
        f"window ends at t^{ds.truncation}, before the decision"
        f" horizon t^{decision_horizon}"
    )


def v_infinity_df(
    family: CurveFamily, f0: str | None = None,
    precision: int | None = None,
) -> int:
    """Order at infinity of the differential df0, as v(d f0(t) / dt).

    Raises NotSeparatingError when the derivative vanishes identically
    as far as the evidence can tell, PrecisionError when the window is
    too short to distinguish that from a late leading term.
    """
    if f0 is None:
        f0 = default_witness(family)
    s = witness_series(family, f0, precision)
    return differential_valuation(s, 2 * genus(family) - 2)


def n_of_f(
    family: CurveFamily, f0: str | None = None,
    precision: int | None = None,
) -> int:
    """Tango invariant of the witness: floor(v(df0) / p), valid once the
    divisor of df0 is certified to live at infinity only."""
    if isinstance(family, TangoPlane):
        # catalogue value, bound route; no series is computed
        return family.p - 2
    return _n_from_valuation(family, v_infinity_df(family, f0, precision))


def _n_from_valuation(family: CurveFamily, v: int) -> int:
    """floor(v / p) for v = v(d f0) at infinity, once v = 2g - 2.

    That one test certifies supp(d f0) = {infinity point}: the
    differential of the witness has degree 2g - 2 and no affine poles,
    so v at infinity equal to 2g - 2 leaves nothing for the affine
    part.  No affine pole, because in char p:

    * Hyperelliptic, 2y dy = r'(x) dx with r = x^(ph) + x^(p+1) + 1:
      r' = x^p, so d(y/x^p) = dx/(2y).  Poles could only sit where
      y = 0, and gcd(r, r') = gcd(r, x^p) = 1 because r(0) = 1, so
      those zeros of r are simple and cancel against the zero of dx
      there.
    * Artin-Schreier, F = x^p - x - y^(hp-1): F_x = -1 identically, so
      the affine curve is smooth and dy = -dx / ((hp-1) y^(hp-2)) holds
      with a nowhere-vanishing gradient; dy is affine-regular.

    Any other valuation is refused.
    """
    if v != 2 * genus(family) - 2:
        raise CertificateError(
            "divisor of the differential is not concentrated at infinity"
        )
    return v // family.p


@record
class TangoCertificate:
    family: CurveFamily
    witness: str
    genus: int
    v_inf: int | None
    n_f0: int
    bound: int
    equality: bool
    l_degree: int
    star_condition: bool | None
    provenance: str

    def __post_init__(self):
        if self.v_inf is not None and self.n_f0 != self.v_inf // self.family.p:
            raise CertificateError("n must be floor(v/p)")
        if self.l_degree != self.n_f0:
            raise CertificateError("the line bundle degree is n")


def certify_tango(
    family: CurveFamily, precision: int | None = None
) -> TangoCertificate:
    """Full certificate: genus, v at infinity, n of the witness, the
    genus bound floor(2(g-1)/p), and equality of the two (which pins
    the invariant of the curve at the witness value)."""
    g = genus(family)
    bound = (2 * (g - 1)) // family.p
    witness = default_witness(family)
    if isinstance(family, TangoPlane):
        n = n_of_f(family)
        v = None
        provenance = ASSERTED
    else:
        v = v_infinity_df(family, witness, precision)
        n = _n_from_valuation(family, v)
        provenance = COMPUTED
    star = (n % 3 == 0) if family.p == 2 else None
    return TangoCertificate(
        family=family,
        witness=witness,
        genus=g,
        v_inf=v,
        n_f0=n,
        bound=bound,
        equality=(n == bound),
        l_degree=n,
        star_condition=star,
        provenance=provenance,
    )

