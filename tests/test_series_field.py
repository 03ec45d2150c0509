"""Prime-field Laurent-series kernel."""

import random

import pytest

from svlab.charpcurve.series import (
    LaurentSeries,
    PrecisionError,
    SeriesError,
)
from svlab.charpcurve.families import (
    NotSeparatingError,
    differential_valuation,
)


def random_series(rng, p, exact=False):
    val = rng.randrange(-6, 4)
    n = rng.randrange(1, 10)
    coeffs = [rng.randrange(p) for _ in range(n)]
    coeffs[0] = rng.randrange(1, p)
    trunc = None if exact else val + n
    return LaurentSeries.make(p, val, coeffs, trunc)


def assert_agree(a, b):
    """Equal on the intersection of the known windows."""
    starts = [s.valuation for s in (a, b) if s.known_nonzero()]
    lo = min(starts) if starts else 0
    ends = [s.truncation for s in (a, b) if s.truncation is not None]
    if not ends:
        assert a.coeffs == b.coeffs and a.valuation == b.valuation
        return
    hi = min(ends)
    for k in range(lo, hi):
        assert a.coefficient(k) == b.coefficient(k), f"differ at t^{k}"


class TestSeriesRing:
    def test_normalization(self):
        p = 5
        s = LaurentSeries.make(p, -3, [0, 0, 2, 1], 4)
        assert s.valuation == -1
        assert s.coefficient(-1) == 2
        assert s.coefficient(3) == 0
        with pytest.raises(PrecisionError):
            s.coefficient(4)

    def test_window_below_the_valuation_is_empty(self):
        s = LaurentSeries.make(5, 5, [1, 2, 3, 4], 3)
        assert not s.known_nonzero()
        assert s.truncation == 3
        with pytest.raises(PrecisionError):
            s.coefficient(5)

    def test_mul_precision_rule(self):
        p = 5
        a = LaurentSeries.make(p, -2, [1, 1], 3)   # O(t^3)
        b = LaurentSeries.make(p, 1, [1], 6)       # O(t^6)
        prod = a * b
        assert prod.valuation == -1
        assert prod.truncation == min(3 + 1, 6 - 2)

    def test_exact_times_exact_stays_exact(self):
        p = 3
        a = LaurentSeries.from_terms(p, {-2: 1, 0: 2})
        b = LaurentSeries.from_terms(p, {1: 1})
        assert (a * b).truncation is None

    def test_derivative_drops_p_multiples(self):
        p = 3
        cubed = LaurentSeries.from_terms(p, {3: 1})
        d = cubed.derivative()
        assert not d.known_nonzero() and d.truncation is None
        p = 5
        s = LaurentSeries.from_terms(p, {3: 1})
        ds = s.derivative()
        assert ds.valuation == 2 and ds.coefficient(2) == 3

    def test_derivative_lowers_valuation_unless_p_divides(self):
        rng = random.Random(20260817)
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            s = random_series(rng, p)
            ds = s.derivative()
            if s.valuation % p != 0:
                assert ds.valuation == s.valuation - 1

    def test_frobenius_kills_derivative(self):
        rng = random.Random(20260818)
        for _ in range(60):
            p = rng.choice([2, 3, 5])
            s = random_series(rng, p, exact=True)
            d = (s ** p).derivative()
            assert not d.known_nonzero() and d.truncation is None

    def test_leibniz(self):
        rng = random.Random(20260819)
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            s, u = random_series(rng, p), random_series(rng, p)
            lhs = (s * u).derivative()
            rhs = s.derivative() * u + s * u.derivative()
            assert_agree(lhs, rhs)

    def test_pow_negative(self):
        # refused, not looped on: the halving loop never ends at -1
        s = LaurentSeries.make(5, 1, [1, 1], 7)
        for n in (-1, -2):
            with pytest.raises(SeriesError, match="nonnegative"):
                s ** n


class TestRoots:
    def test_sqrt_squares_back(self):
        p = 3
        u = LaurentSeries.from_terms(p, {0: 1, 10: 1, 18: 1})
        w = u.sqrt_unit(terms=22)
        assert_agree(w * w, u)
        assert w.coefficient(0) == 1
        assert w.coefficient(10) == 2  # 1/2 = 2 mod 3

    def test_sqrt_needs_odd_p(self):
        p = 2
        u = LaurentSeries.from_terms(p, {0: 1, 2: 1})
        with pytest.raises(SeriesError):
            u.sqrt_unit(terms=5)

    def test_nth_root_powers_back(self):
        p = 2
        u = LaurentSeries.from_terms(p, {0: 1, 9: 1})
        w = u.nth_root_unit(9, terms=24)
        assert_agree(w ** 9, u)

    def test_root_index_coprime_to_p(self):
        p = 3
        u = LaurentSeries.from_terms(p, {0: 1, 1: 1})
        with pytest.raises(SeriesError):
            u.nth_root_unit(6, terms=5)

    def test_root_random_roundtrip(self):
        rng = random.Random(20260820)
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            m = rng.choice([i for i in range(2, 8) if i % p != 0])
            n = rng.randrange(6, 15)
            coeffs = [1] + [rng.randrange(p) for _ in range(n - 1)]
            u = LaurentSeries.make(p, 0, coeffs, n)
            w = u.nth_root_unit(m)
            assert_agree(w ** m, u)

    def test_precision_doubling_stability(self):
        p = 3
        u = LaurentSeries.from_terms(p, {0: 1, 10: 1, 18: 1})
        w1 = u.sqrt_unit(terms=20)
        w2 = u.sqrt_unit(terms=40)
        assert_agree(w1, w2)


class TestDifferentialValuation:
    def test_visible_leading_term(self):
        p = 5
        s = LaurentSeries.make(p, -3, [1, 0, 0, 0, 1, 1], 5)
        assert differential_valuation(s, 10) == -4

    def test_pth_power_is_rejected(self):
        p = 3
        s = LaurentSeries.from_terms(p, {0: 1, 3: 1, 6: 2})
        with pytest.raises(NotSeparatingError):
            differential_valuation(s, 10)

    def test_all_zero_window_past_horizon_rejected(self):
        p = 3
        s = LaurentSeries.make(p, 0, [1, 0, 0, 1], 20)  # d/dt kills both
        with pytest.raises(NotSeparatingError):
            differential_valuation(s, 10)

    def test_short_window_raises_precision(self):
        p = 3
        s = LaurentSeries.make(p, 0, [1, 0, 0, 1], 5)
        with pytest.raises(PrecisionError):
            differential_valuation(s, 10)
