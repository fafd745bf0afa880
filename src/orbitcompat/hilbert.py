"""Hilbert series of homogeneous ideals via their leading-term monomial
ideal, giving dimension and degree of the projective variety.

For a monomial ideal I in n variables the Hilbert series of the quotient is
K(s) / (1-s)^n where K is computed by the pivot recursion of Bayer and
Stillman ("Computing the Hilbert series of monomial ideals", JSC 1992)

    K(I) = K(I + <x>) + s * K(I : x)

coming from the exact sequence 0 -> S/(I:x) -> S/I -> S/(I+<x>) -> 0, with
base cases: no generators (K = 1), unit ideal (K = 0) and pairwise-coprime
generators (K = prod(1 - s^deg)).  The pivot is the most frequently used
variable; subproblems are memoised on the generator set.  K is a list of
integer coefficients in s, constant term first, with no trailing zeros.

Writing K(s) = (1-s)^e * Q(s) with Q(1) != 0, the quotient has Krull
dimension n - e, the projective variety has dimension n - e - 1 and its
degree is Q(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .groebner import ReducedGB
from .polyring import Monomial, PolyError

__all__ = ["HilbertData", "hilbert", "hilbert_of_leading_terms"]


@dataclass(frozen=True)
class HilbertData:
    """Reduced numerator Q with series Q(s)/(1-s)^krull_dim, Q(1) = degree."""

    numerator: tuple[int, ...]
    krull_dim: int
    proj_dim: int
    degree: int


def _kpoly(gens: frozenset[Monomial], cache: dict) -> list[int]:
    """K-polynomial of the monomial ideal with minimal generators `gens`
    (exponent tuples), memoised in `cache`; callers must not mutate it."""
    got = cache.get(gens)
    if got is not None:
        return got
    if not gens:
        out = [1]
    elif any(not any(m) for m in gens):
        # the monomial 1: the unit ideal
        out = [0]
    else:
        counts = [0] * len(next(iter(gens)))
        for m in gens:
            for i, e in enumerate(m):
                if e:
                    counts[i] += 1
        most = max(counts)
        if most == 1:
            # pairwise coprime (in particular a single generator): a regular
            # sequence, K = prod (1 - s^deg), each factor applied in place
            out = [1]
            for m in gens:
                d = sum(m)
                out += [0] * d
                for i in range(len(out) - 1, d - 1, -1):
                    out[i] -= out[i - d]
        else:
            # pivot: the first of the most frequently used variables
            v = counts.index(most)
            unit = tuple(int(i == v) for i in range(len(counts)))
            plus = _kpoly(frozenset(m for m in gens if not m[v]) | {unit}, cache)
            # I : x_v lowers the exponent of x_v by one where it is positive
            lowered = (m[:v] + (m[v] - 1,) + m[v + 1 :] if m[v] else m for m in gens)
            colon = _kpoly(_minimalise(lowered), cache)
            # K = K(I + <x_v>) + s * K(I : x_v), trailing zeros trimmed
            out = plus + [0] * (len(colon) + 1 - len(plus))
            for i, c in enumerate(colon, start=1):
                out[i] += c
            while len(out) > 1 and out[-1] == 0:
                out.pop()
    cache[gens] = out
    return out


def _minimalise(monos) -> frozenset[Monomial]:
    minimal: list[Monomial] = []
    for m in sorted(monos, key=sum):
        if not any(all(x <= y for x, y in zip(g, m)) for g in minimal):
            minimal.append(m)
    return frozenset(minimal)


def hilbert_of_leading_terms(lead_monomials, nvars: int) -> HilbertData:
    """Hilbert data of the quotient by the monomial ideal of the given
    leading terms."""
    K = _kpoly(_minimalise(tuple(lead_monomials)), {})
    if not any(K):
        # only the unit ideal lands here: the quotient is the zero ring
        raise PolyError("unit ideal: the quotient ring is zero, no Hilbert data")
    e = 0
    while sum(K) == 0:
        # exact quotient K / (1 - s): q_i = K_0 + ... + K_i
        K = list(accumulate(K[:-1]))
        e += 1
    krull = nvars - e
    return HilbertData(
        numerator=tuple(K), krull_dim=krull, proj_dim=krull - 1, degree=sum(K)
    )


def hilbert(G: ReducedGB) -> HilbertData:
    """Dimension and degree data of Proj of the quotient by a homogeneous
    ideal, read off the leading-term ideal of its reduced basis.

    Only leading monomials are read, so a basis ``buchberger`` made under
    grevlex gives them from the kernel's minimal basis and is not
    tail-reduced.  Raises PolyError on an inhomogeneous or unit ideal.
    """
    if not G.is_homogeneous():
        raise PolyError("hilbert requires a homogeneous basis")
    return hilbert_of_leading_terms(G.leading_monomials(), len(G.ctx))
