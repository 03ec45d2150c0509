"""Laurent series over a prime field GF(p), with conservative precision.

Coefficients are plain ints reduced mod p.  A series stores its
coefficients from the leading exponent up to (not including)
``truncation``, the first unknown exponent.  ``truncation`` None means
the series is exactly the stored polynomial.  All operations only ever
claim coefficients they actually know; windows shrink, they never grow
silently.

Formal differentiation follows char-p behaviour: terms with exponent
divisible by p vanish, so d/dt can raise the valuation arbitrarily or
kill a series entirely.

Roots of units are taken by Newton iteration with the precision
doubling each step (Brent & Kung, "Fast algorithms for manipulating
formal power series", J. ACM 1978).
"""

from __future__ import annotations

from math import gcd

from ..record import record


class SeriesError(ValueError):
    pass


class PrecisionError(SeriesError):
    """The requested information lies outside the known window."""


@record
class LaurentSeries:
    p: int
    valuation: int
    coeffs: tuple[int, ...]
    truncation: int | None = None

    # -- construction --------------------------------------------------

    @staticmethod
    def make(p, valuation, coeffs, truncation=None) -> "LaurentSeries":
        """Normalized constructor: reduces mod p, strips leading zeros,
        clips to the truncation window, canonicalizes empty windows."""
        cs = [c % p for c in coeffs]
        if truncation is not None and valuation + len(cs) > truncation:
            cs = cs[: max(0, truncation - valuation)]
        while cs and cs[0] == 0:
            cs.pop(0)
            valuation += 1
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            return LaurentSeries(p, truncation or 0, (), truncation)
        return LaurentSeries(p, valuation, tuple(cs), truncation)

    @staticmethod
    def monomial(p, exponent, scalar=1) -> "LaurentSeries":
        return LaurentSeries.make(p, exponent, [scalar])

    @staticmethod
    def zero(p, truncation=None) -> "LaurentSeries":
        return LaurentSeries.make(p, 0, [], truncation)

    @staticmethod
    def from_terms(p, terms, truncation=None) -> "LaurentSeries":
        """``terms``: mapping exponent -> coefficient."""
        if not terms:
            return LaurentSeries.zero(p, truncation)
        lo = min(terms)
        hi = max(terms)
        cs = [terms.get(k, 0) for k in range(lo, hi + 1)]
        return LaurentSeries.make(p, lo, cs, truncation)

    # -- inspection -----------------------------------------------------

    def known_nonzero(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, exponent: int) -> int:
        if self.truncation is not None and exponent >= self.truncation:
            raise PrecisionError(
                f"coefficient at t^{exponent} is beyond the window"
            )
        i = exponent - self.valuation
        if i < 0 or i >= len(self.coeffs):
            return 0
        return self.coeffs[i]

    def _window(self, n: int) -> list[int]:
        """Coefficients at t^valuation .. t^(valuation + n - 1)."""
        return [self.coefficient(self.valuation + i) for i in range(n)]

    def __repr__(self):
        parts = [
            f"{c}t^{k}" for k, c in enumerate(self.coeffs, self.valuation)
            if c
        ]
        body = " + ".join(parts) or "0"
        tail = "" if self.truncation is None else f" + O(t^{self.truncation})"
        return f"<{body}{tail} over GF({self.p})>"

    # -- ring operations -------------------------------------------------

    def _check(self, other):
        if self.p != other.p:
            raise SeriesError("series over different fields")

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check(other)
        trunc = _min_trunc(self.truncation, other.truncation)
        acc: dict[int, int] = {}
        for s in (self, other):
            for k, c in enumerate(s.coeffs, s.valuation):
                if trunc is None or k < trunc:
                    acc[k] = acc.get(k, 0) + c
        return LaurentSeries.from_terms(self.p, acc, trunc)

    def __neg__(self):
        return LaurentSeries(
            self.p, self.valuation,
            tuple(-c % self.p for c in self.coeffs), self.truncation,
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check(other)
        bounds = []
        if self.truncation is not None:
            bounds.append(self.truncation + _lower_bound(other))
        if other.truncation is not None:
            bounds.append(other.truncation + _lower_bound(self))
        trunc = min(bounds) if bounds else None
        v = self.valuation + other.valuation
        n = None if trunc is None else max(0, trunc - v)
        return LaurentSeries.make(
            self.p, v, _mul_trunc(self.coeffs, other.coeffs, n, self.p),
            trunc,
        )

    def shifted(self, k: int) -> "LaurentSeries":
        """Multiplication by t^k."""
        return LaurentSeries(
            self.p, self.valuation + k, self.coeffs,
            None if self.truncation is None else self.truncation + k,
        )

    def __pow__(self, n: int) -> "LaurentSeries":
        """The series to a nonnegative integer power."""
        if n < 0:
            raise SeriesError("powers take a nonnegative exponent")
        result = LaurentSeries.monomial(self.p, 0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "LaurentSeries":
        return LaurentSeries.make(
            self.p, self.valuation - 1,
            [c * k for k, c in enumerate(self.coeffs, self.valuation)],
            None if self.truncation is None else self.truncation - 1,
        )

    def sqrt_unit(self, terms: int | None = None) -> "LaurentSeries":
        """Square root of a series with constant term 1 (p odd)."""
        if self.p == 2:
            raise SeriesError("square roots by this recurrence need p odd")
        return self.nth_root_unit(2, terms)

    def nth_root_unit(self, m: int, terms: int | None = None):
        """m-th root of a series with valuation 0 and constant term 1;
        needs gcd(m, p) = 1 so the Newton step can divide by m.

        The step g <- g - (g^m - f) / (m g^(m-1)) doubles the number of
        correct terms, because every binomial coefficient in
        (g + e)^m is an integer and m itself is a unit mod p."""
        p = self.p
        if gcd(m, p) != 1:
            raise SeriesError("root index divisible by the characteristic")
        if self.valuation != 0 or not self.known_nonzero() \
                or self.coeffs[0] != 1:
            raise SeriesError("root recurrence needs constant term 1")
        if self.truncation is None:
            if terms is None:
                raise PrecisionError(
                    "root of an exact series needs an explicit window"
                )
            n = terms
        else:
            n = self.truncation
            if terms is not None:
                n = min(n, terms)
        f = self._window(n)
        minv = pow(m, -1, p)
        g, k = [1], 1
        while k < n:
            k = min(2 * k, n)
            g_m1 = [1]
            for bit in bin(m - 1)[2:]:
                g_m1 = _mul_trunc(g_m1, g_m1, k, p)
                if bit == "1":
                    g_m1 = _mul_trunc(g_m1, g, k, p)
            g_m = _mul_trunc(g_m1, g, k, p) + [0] * k
            r = [(a - b) * minv for a, b in zip(g_m, f[:k])]
            step = _mul_trunc(r, _inv_unit(g_m1, k, p), k, p)
            g = [(a - b) % p for a, b in zip(g + [0] * k, step)]
        return LaurentSeries.make(p, 0, g, n)


def _mul_trunc(a, b, n: int | None, p: int) -> list[int]:
    """Coefficients of the product of coefficient lists a and b below
    index n (all of them when n is None), reduced mod p."""
    size = len(a) + len(b) - 1
    if n is not None:
        size = min(size, n)
    out = [0] * max(size, 0)
    for i, ai in enumerate(a[:size]):
        if ai:
            for j, bj in enumerate(b[: size - i], i):
                out[j] += ai * bj
    return [c % p for c in out]


def _inv_unit(u, n: int, p: int) -> list[int]:
    """First n coefficients of 1/u for a coefficient list with u[0] a
    unit mod p."""
    c0inv = pow(u[0], -1, p)
    tail = [(i, c) for i, c in enumerate(u[1:n], 1) if c]
    w = [c0inv] + [0] * (n - 1)
    for k in range(1, n):
        w[k] = -c0inv * sum(c * w[k - i] for i, c in tail if i <= k) % p
    return w


def _min_trunc(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _lower_bound(s: LaurentSeries) -> int:
    """Exponent below which s is certainly zero."""
    if s.known_nonzero():
        return s.valuation
    if s.truncation is not None:
        return s.truncation
    return 0  # exact zero; bound is irrelevant, product is zero
