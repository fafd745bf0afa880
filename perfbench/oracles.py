"""Closed-form oracles for the benchmark's outputs.

Nothing here imports orbitcompat: every expected value is derived from
geometry and integer arithmetic alone, so a wrong answer from the library
cannot also be the expected one.  The derivations are in README.md.
"""

from __future__ import annotations

from math import comb, factorial, prod
from typing import NamedTuple


class Hilbert(NamedTuple):
    """Reduced Hilbert numerator (None when only dimension and degree are
    known), projective dimension and degree."""

    numerator: tuple[int, ...] | None
    proj_dim: int
    degree: int


def poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def q_integer(d: int) -> list[int]:
    """[d]_q = 1 + q + ... + q^(d-1), the numerator of (1 - q^d)/(1 - q)."""
    return [1] * d


def q_product(degrees) -> tuple[int, ...]:
    out = [1]
    for d in degrees:
        out = poly_mul(out, q_integer(d))
    return tuple(out)


def complete_intersection(ambient: int, degrees) -> Hilbert:
    """Hypersurfaces of the given degrees meeting properly in P^ambient."""
    return Hilbert(q_product(degrees), ambient - len(degrees), prod(degrees))


def kostant_fibre(n: int) -> Hilbert:
    """Projective closure of a fibre of a linear function on a regular
    semisimple orbit of sl(n+1): the nilpotent cone cut by a hyperplane."""
    return Hilbert(q_product(range(2, n + 2)), n * (n + 1) - 1, factorial(n + 1))


def infinity_component(n: int) -> Hilbert:
    """Top-dimensional part of the generator-wise closure of a charvalues
    fibre in sl(n+1), n >= 3: the component {t = 0, det A = 0, tr(HA) = 0}
    of P^(n(n+2)), which outgrows the affine fibre's dimension n(n+1) - 1."""
    if n < 3:
        raise ValueError("the component at infinity dominates only for n >= 3")
    return Hilbert(None, n * (n + 2) - 3, n + 1)


def segre(n: int) -> Hilbert:
    """Segre P^n x P^n, the closure of the minimal orbit diag(1,..,1,-n)."""
    return Hilbert(tuple(comb(n, k) ** 2 for k in range(n + 1)), 2 * n, comb(2 * n, n))


def expected_euler(ambient: int, degrees) -> int:
    """Top Chern coefficient of (1+a)^(ambient+1) / prod(1 + d a), times
    prod d.  Each factor 1/(1 + d a) is the integer series sum (-d)^j a^j,
    so the whole computation stays in the integers."""
    dim = ambient - len(degrees)
    series = [comb(ambient + 1, k) for k in range(dim + 1)]
    for d in degrees:
        series = poly_mul(series, [(-d) ** j for j in range(dim + 1)])[: dim + 1]
    return series[dim] * prod(degrees)


def divides(a, b) -> bool:
    """Monomial a divides monomial b (exponent tuples)."""
    return all(x <= y for x, y in zip(a, b))


def is_standard(mono, leads) -> bool:
    """No leading monomial of the basis divides mono."""
    return not any(divides(lead, mono) for lead in leads)
