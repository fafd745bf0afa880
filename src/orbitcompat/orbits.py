"""Adjoint-orbit constructors for sl(n+1) over the rationals.

Orbits of a diagonal matrix are cut out either by the entries of the minimal
polynomial evaluated at a generic traceless matrix, or by shifted
determinants (characteristic-polynomial values).  The linear potential
tr(H * A), its Weyl-orbit critical data and fibre ideals live here too.

Coordinates on sl(n+1): x_1..x_n on the diagonal (the last diagonal entry is
-(x_1+...+x_n)), y_k row-major above the diagonal, z_k column-major below.
For n = 1 the classical unsuffixed names x, y, z are used so printed ideals
match the familiar sl(2) forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations
from typing import NamedTuple

from .groebner import IdealPresentation
from .polyring import MultiPoly, PolyError, VarContext

__all__ = [
    "DiagSpec",
    "GenericMatrix",
    "OrbitIdeal",
    "Potential",
    "WeylCritical",
    "VerticalFibreClosure",
    "generic_matrix",
    "orbit_ideal_minpoly",
    "orbit_ideal_charvalues",
    "potential",
    "weyl_critical",
    "cut_by_potential",
    "fibre_ideal",
    "vertical_fibre_closure",
]


@dataclass(frozen=True)
class DiagSpec:
    """Eigenvalue list of a traceless diagonal matrix."""

    eigenvalues: tuple[Fraction, ...]

    def __init__(self, eigenvalues):
        vals = tuple(Fraction(v) for v in eigenvalues)
        if len(vals) < 2:
            raise PolyError("need at least a 2x2 matrix")
        if sum(vals) != 0:
            raise PolyError(f"eigenvalues must sum to zero, got {vals}")
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    @property
    def n(self) -> int:
        return len(self.eigenvalues) - 1

    def is_regular(self) -> bool:
        return len(set(self.eigenvalues)) == self.size

    def distinct(self) -> tuple[Fraction, ...]:
        seen: list[Fraction] = []
        for v in self.eigenvalues:
            if v not in seen:
                seen.append(v)
        return tuple(seen)


def _coordinate_names(n: int) -> tuple[list[str], list[str], list[str]]:
    if n == 1:
        return ["x"], ["y"], ["z"]
    m = n + 1
    xs = [f"x{i}" for i in range(1, n + 1)]
    ys = [f"y{k}" for k in range(1, n * m // 2 + 1)]
    zs = [f"z{k}" for k in range(1, n * m // 2 + 1)]
    return xs, ys, zs


@dataclass(frozen=True)
class GenericMatrix:
    """A generic traceless (n+1)x(n+1) matrix of coordinate polynomials."""

    n: int
    ctx: VarContext
    entries: tuple[tuple[MultiPoly, ...], ...]

    @property
    def size(self) -> int:
        return self.n + 1

    def add_scalar(self, c) -> "GenericMatrix":
        """The matrix plus c times the identity."""
        c = MultiPoly.constant(self.ctx, c)
        rows = []
        for i in range(self.size):
            rows.append(
                tuple(
                    self.entries[i][j] + c if i == j else self.entries[i][j]
                    for j in range(self.size)
                )
            )
        return GenericMatrix(self.n, self.ctx, tuple(rows))

    def matmul(self, other: "GenericMatrix") -> "GenericMatrix":
        m = self.size
        rows = []
        for i in range(m):
            row = []
            for j in range(m):
                acc = MultiPoly.zero(self.ctx)
                for k in range(m):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            rows.append(tuple(row))
        return GenericMatrix(self.n, self.ctx, tuple(rows))

    def det(self) -> MultiPoly:
        return _det([list(r) for r in self.entries], self.ctx)

    def all_entries(self) -> list[MultiPoly]:
        return [e for row in self.entries for e in row]


def _det(rows: list[list[MultiPoly]], ctx: VarContext) -> MultiPoly:
    m = len(rows)
    if m == 1:
        return rows[0][0]
    out = MultiPoly.zero(ctx)
    for j in range(m):
        a = rows[0][j]
        if a.is_zero():
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = a * _det(minor, ctx)
        out = out + term if j % 2 == 0 else out - term
    return out


@cache
def generic_matrix(n: int) -> GenericMatrix:
    """The generic element of sl(n+1): n diagonal coordinates and n(n+1)
    off-diagonal ones, trace identically zero.  Built once per rank and
    shared, like its context."""
    if n < 1:
        raise PolyError("matrix size parameter must be >= 1")
    xs, ys, zs = _coordinate_names(n)
    ctx = VarContext(xs + ys + zs)
    m = n + 1
    var = lambda name: MultiPoly.variable(ctx, name)
    rows = [[MultiPoly.zero(ctx) for _ in range(m)] for _ in range(m)]
    for i in range(n):
        rows[i][i] = var(xs[i])
    last = MultiPoly.zero(ctx)
    for name in xs:
        last = last - var(name)
    rows[n][n] = last
    k = 0
    for i in range(m):
        for j in range(i + 1, m):
            rows[i][j] = var(ys[k])
            k += 1
    k = 0
    for j in range(m):
        for i in range(j + 1, m):
            rows[i][j] = var(zs[k])
            k += 1
    return GenericMatrix(n, ctx, tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class OrbitIdeal:
    """An adjoint-orbit ideal with the data used to build it."""

    spec: DiagSpec
    style: str  # "minpoly" | "charvalues"
    presentation: IdealPresentation
    matrix: GenericMatrix


def orbit_ideal_minpoly(spec: DiagSpec) -> OrbitIdeal:
    """Orbit ideal from the minimal polynomial: the entries of the product
    of (A - lambda) over the distinct eigenvalues lambda."""
    distinct = spec.distinct()
    if len(distinct) < 2:
        raise PolyError("all eigenvalues equal: the orbit is a point")
    A = generic_matrix(spec.n)
    prod = A.add_scalar(-distinct[0])
    for lam in distinct[1:]:
        prod = prod.matmul(A.add_scalar(-lam))
    gens = prod.all_entries()
    return OrbitIdeal(
        spec, "minpoly", IdealPresentation(A.ctx, gens), A
    )


@cache
def _shifted_det(n: int) -> tuple[dict, ...]:
    """det(A + s) for the generic matrix A of sl(n+1) and a fresh variable s,
    as its coefficients D_0..D_{n+1} in powers of s: D_k maps monomials in
    A's context to coefficients."""
    A = generic_matrix(n)
    ctx = A.ctx.extend(A.ctx.fresh_name("s"))
    s = MultiPoly.variable(ctx, ctx.names[-1])
    rows = [
        [e.map_context(ctx) + s if i == j else e.map_context(ctx) for j, e in enumerate(row)]
        for i, row in enumerate(A.entries)
    ]
    parts = tuple({} for _ in range(n + 2))
    for mono, c in _det(rows, ctx).terms.items():
        parts[mono[-1]][mono[:-1]] = int(c)
    return parts


def orbit_ideal_charvalues(spec: DiagSpec, shifts) -> OrbitIdeal:
    """Orbit ideal from shifted determinants det(A + s) for s in shifts.

    Each -s must be an eigenvalue, otherwise the generator would not vanish
    on the orbit; n distinct shifts are required.  det(A + s) is expanded
    once per rank, as a polynomial in a fresh variable s, and each generator
    is read off it as sum_k shift^k D_k: no determinant is taken per call.
    """
    shifts = tuple(Fraction(s) for s in shifts)
    if len(set(shifts)) != len(shifts):
        raise PolyError("shifts must be distinct")
    if len(shifts) != spec.n:
        raise PolyError(f"need exactly {spec.n} shifts, got {len(shifts)}")
    for s in shifts:
        if -s not in spec.eigenvalues:
            raise PolyError(f"-({s}) is not an eigenvalue of {spec.eigenvalues}")
    A = generic_matrix(spec.n)
    gens = []
    for s in shifts:
        # D_k's coefficients are ints, so an integral shift stays in ints
        s = s.numerator if s.denominator == 1 else s
        terms: dict = {}
        for k, part in enumerate(_shifted_det(spec.n)):
            p = s**k
            for mono, c in part.items():
                terms[mono] = terms.get(mono, 0) + c * p
        gens.append(MultiPoly(A.ctx, terms))
    return OrbitIdeal(spec, "charvalues", IdealPresentation(A.ctx, gens), A)


class Potential(NamedTuple):
    poly: MultiPoly
    regular: bool  # H regular; a non-regular H is allowed but flagged


def potential(H: DiagSpec, n: int) -> Potential:
    """The linear height function tr(H * A) on the generic matrix."""
    if H.size != n + 1:
        raise PolyError(f"H has size {H.size}, expected {n + 1}")
    A = generic_matrix(n)
    h = H.eigenvalues
    out = MultiPoly.zero(A.ctx)
    for i in range(n + 1):
        out = out + A.entries[i][i].scale(h[i])
    return Potential(out, H.is_regular())


class WeylCritical(NamedTuple):
    points: tuple[tuple[Fraction, ...], ...]  # diagonals of w(H0), deduplicated
    values: tuple[Fraction, ...]  # tr(H * w(H0)), sorted ascending


def weyl_critical(H: DiagSpec, H0: DiagSpec) -> WeylCritical:
    """Critical points (the Weyl orbit of H0 on the diagonal) and critical
    values of the potential given by H."""
    if H.size != H0.size:
        raise PolyError("H and H0 sizes differ")
    points = tuple(sorted(set(permutations(H0.eigenvalues))))
    values = {sum(h * a for h, a in zip(H.eigenvalues, p)) for p in points}
    return WeylCritical(points, tuple(sorted(values)))


def cut_by_potential(
    ideal: IdealPresentation, pot: Potential, c
) -> IdealPresentation:
    """The ideal plus the generator pot - c, appended last."""
    cut = pot.poly - MultiPoly.constant(pot.poly.ctx, Fraction(c))
    return IdealPresentation(ideal.ctx, list(ideal.generators) + [cut])


def fibre_ideal(orbit: OrbitIdeal, H: DiagSpec, c) -> IdealPresentation:
    """The fibre of the potential over c: the orbit ideal plus the generator
    tr(H*A) - c."""
    return cut_by_potential(orbit.presentation, potential(H, orbit.spec.n), c)


@dataclass(frozen=True)
class VerticalFibreClosure:
    """The closure of the vertical fibre H0 + n^+ for H0 = diag(n,-1,..,-1),
    as a matrix family over [t, y_1..y_n] and the embedding into P^n."""

    n: int
    ctx: VarContext
    entries: tuple[tuple[MultiPoly, ...], ...]
    coordinates: tuple[str, ...]


def vertical_fibre_closure(n: int) -> VerticalFibreClosure:
    if n < 1:
        raise PolyError("matrix size parameter must be >= 1")
    _, ys, _ = _coordinate_names(n)
    ys = ys[:n]
    names = ["t"] + ys
    ctx = VarContext(names)
    t = MultiPoly.variable(ctx, "t")
    m = n + 1
    rows = [[MultiPoly.zero(ctx) for _ in range(m)] for _ in range(m)]
    rows[0][0] = t.scale(n)
    for j in range(1, m):
        rows[0][j] = MultiPoly.variable(ctx, ys[j - 1])
        rows[j][j] = -t
    return VerticalFibreClosure(n, ctx, tuple(tuple(r) for r in rows), tuple(names))
