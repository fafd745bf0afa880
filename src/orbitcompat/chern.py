"""Expected Euler characteristics of complete intersections in projective
space, via the truncated expansion of the total Chern class

    c(X) = (1 + a)^(N+1) / prod_i (1 + d_i * a)

for X cut out by hypersurfaces of degrees d_1..d_k in P^N.  The expected
(Fulton-Johnson) Euler characteristic is the degree-n coefficient times
prod d_i, where n = N - k is the dimension of X.  Nothing here checks
smoothness; for singular X this number can differ from the topological one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

__all__ = [
    "TruncatedSeries",
    "CompleteIntersectionSpec",
    "chern_series",
    "expected_euler",
    "degree_product",
]


class TruncatedSeries:
    """A power series in one formal variable truncated at a fixed order.

    Coefficients are exact rationals; arithmetic never consults anything
    beyond the truncation order.  Immutable.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        cs = [Fraction(c) for c in coeffs[: order + 1]]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        self.order = order
        self.coeffs = tuple(cs)

    @staticmethod
    def one(order: int) -> "TruncatedSeries":
        return TruncatedSeries(order, [1])

    @staticmethod
    def binomial_power(order: int, exponent: int) -> "TruncatedSeries":
        """(1 + a)^exponent for a non-negative integer exponent."""
        return TruncatedSeries(order, [comb(exponent, k) for k in range(order + 1)])

    def _check(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError("truncation orders differ")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(
            self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(
            self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(n, out)

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Division by a unit (nonzero constant term), exact to the order."""
        self._check(other)
        b0 = other.coeffs[0]
        if b0 == 0:
            raise ZeroDivisionError("divisor has zero constant term")
        n = self.order
        out: list[Fraction] = []
        for k in range(n + 1):
            acc = self.coeffs[k]
            for j in range(1, k + 1):
                acc -= other.coeffs[j] * out[k - j]
            out.append(acc / b0)
        return TruncatedSeries(n, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, coeffs={list(self.coeffs)})"

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0 and k > 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*a")
            else:
                parts.append(f"{c}*a^{k}")
        return " + ".join(parts).replace("+ -", "- ")


@dataclass(frozen=True)
class CompleteIntersectionSpec:
    """k hypersurfaces of the given degrees inside P^(ambient_dim)."""

    ambient_dim: int
    degrees: tuple[int, ...]

    def __init__(self, ambient_dim: int, degrees):
        degrees = tuple(degrees)
        if any(int(d) != d for d in degrees):
            raise ValueError("degrees must be integers")
        degrees = tuple(map(int, degrees))
        if ambient_dim < 0:
            raise ValueError("ambient dimension must be >= 0")
        if any(d < 1 for d in degrees):
            raise ValueError("degrees must be positive")
        if len(degrees) > ambient_dim:
            raise ValueError("more hypersurfaces than the ambient dimension")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "degrees", degrees)

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.degrees)


def chern_series(spec: CompleteIntersectionSpec) -> TruncatedSeries:
    """Total Chern class of the complete intersection, truncated at its
    dimension."""
    n = spec.dim
    num = TruncatedSeries.binomial_power(n, spec.ambient_dim + 1)
    den = TruncatedSeries.one(n)
    for d in spec.degrees:
        den = den * TruncatedSeries(n, [1, d])
    return num / den


def degree_product(spec: CompleteIntersectionSpec) -> int:
    """prod d_i = the integral of the n-th power of the hyperplane class."""
    return prod(spec.degrees)


def expected_euler(spec: CompleteIntersectionSpec) -> int:
    """Top Chern coefficient times the degree; exact and always an integer
    (a non-integer signals an internal bug, not bad input)."""
    top = chern_series(spec).coeffs[spec.dim]
    chi = top * degree_product(spec)
    if chi.denominator != 1:
        raise ArithmeticError(f"non-integral Euler characteristic {chi}")
    return int(chi)
