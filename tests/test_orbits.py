"""Orbit ideals, potentials, Weyl critical data and the vertical fibre."""

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial, prod

import pytest

from orbitcompat import orbits
from orbitcompat import (
    DiagSpec,
    IdealPresentation,
    MultiPoly,
    PolyError,
    VarContext,
    buchberger,
    fibre_ideal,
    generic_matrix,
    ideal_equal,
    orbit_ideal_charvalues,
    orbit_ideal_minpoly,
    parse_poly,
    potential,
    vertical_fibre_closure,
    weyl_critical,
)


def test_diag_spec_validation():
    with pytest.raises(PolyError):
        DiagSpec([1, 1])  # trace 2
    with pytest.raises(PolyError):
        DiagSpec([0])
    assert DiagSpec([1, -1]).is_regular()
    assert not DiagSpec([2, -1, -1]).is_regular()


def test_generic_matrix_sl2():
    A = generic_matrix(1)
    assert A.ctx.names == ("x", "y", "z")
    assert [[str(e) for e in row] for row in A.entries] == [["x", "y"], ["z", "-x"]]


def test_generic_matrix_sl3_matches_standard_layout():
    A = generic_matrix(2)
    assert A.ctx.names == ("x1", "x2", "y1", "y2", "y3", "z1", "z2", "z3")
    expected = [
        ["x1", "y1", "y2"],
        ["z1", "x2", "y3"],
        ["z2", "z3", "-x1 - x2"],
    ]
    assert [[str(e) for e in row] for row in A.entries] == expected


def test_generic_matrix_trace_zero():
    A = generic_matrix(3)
    assert sum((A.entries[i][i] for i in range(A.size)), MultiPoly.zero(A.ctx)).is_zero()
    with pytest.raises(PolyError):
        generic_matrix(0)


def test_minpoly_orbit_sl3():
    orb = orbit_ideal_minpoly(DiagSpec([2, -1, -1]))
    gens = orb.presentation.generators
    assert len(gens) == 9
    corner = parse_poly("x1^2 + y1*z1 + y2*z2 - x1 - 2", orb.matrix.ctx)
    assert gens[0] == corner
    # oracle: the generators are the entries of (A+1)(A-2) = A^2 - A - 2,
    # assembled by direct matrix arithmetic
    A = orb.matrix
    direct = A.matmul(A)
    one = MultiPoly.constant(A.ctx, 1)
    for i in range(3):
        for j in range(3):
            expected = direct.entries[i][j] - A.entries[i][j] - (one + one if i == j else MultiPoly.zero(A.ctx))
            assert gens[3 * i + j] == expected


def test_minpoly_orbit_sl2_reduces_to_quadric():
    orb = orbit_ideal_minpoly(DiagSpec([1, -1]))
    quad = IdealPresentation(orb.matrix.ctx, [parse_poly("x^2 + y*z - 1", orb.matrix.ctx)])
    assert ideal_equal(orb.presentation, quad)


def test_minpoly_orbit_rejects_scalar_spec():
    with pytest.raises(PolyError):
        orbit_ideal_minpoly(DiagSpec([0, 0]))


@pytest.mark.parametrize(
    "builder,spec,extra",
    [
        (orbit_ideal_minpoly, DiagSpec([2, -1, -1]), None),
        (orbit_ideal_minpoly, DiagSpec([1, 0, -1]), None),
        (orbit_ideal_minpoly, DiagSpec([3, -1, -1, -1]), None),
        (orbit_ideal_charvalues, DiagSpec([1, 0, -1]), [0, -1]),
        (orbit_ideal_charvalues, DiagSpec([3, -1, -2]), [1, 2]),
    ],
)
def test_generators_vanish_on_the_whole_weyl_orbit(builder, spec, extra):
    orb = builder(spec) if extra is None else builder(spec, extra)
    xs = [n for n in orb.matrix.ctx.names if n.startswith("x")]
    offdiag = {n: 0 for n in orb.matrix.ctx.names if not n.startswith("x")}
    for perm in permutations(spec.eigenvalues):
        point = dict(offdiag)
        point.update({xs[i]: perm[i] for i in range(len(xs))})
        for g in orb.presentation.generators:
            v = g.substitute(point)
            assert v.is_zero(), (perm, str(g))


def test_charvalues_orbit_61():
    orb = orbit_ideal_charvalues(DiagSpec([1, 0, -1]), [0, -1])
    A = orb.matrix
    assert orb.presentation.generators[0] == A.det()
    assert orb.presentation.generators[1] == A.add_scalar(-1).det()


def test_charvalues_orbit_62():
    orb = orbit_ideal_charvalues(DiagSpec([3, -1, -2]), [1, 2])
    A = orb.matrix
    assert orb.presentation.generators[0] == A.add_scalar(1).det()
    assert orb.presentation.generators[1] == A.add_scalar(2).det()


# (eigenvalues, shifts) for n = 1..4: fractional shifts, a non-regular
# spectrum, and the sl(5) regular orbit of benchmarks/bench_gb.py sl5-fibre
CHARVALUES_CASES = [
    ([Fraction(1, 2), Fraction(-1, 2)], [Fraction(1, 2)]),
    ([1, 0, -1], [1, 0]),
    ([Fraction(2, 3), Fraction(1, 3), -1], [Fraction(-2, 3), 1]),
    ([1, 1, -2], [2, -1]),
    ([3, 1, -1, -3], [-3, -1, 1]),
    (
        [Fraction(5, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-7, 3)],
        [Fraction(-5, 2), Fraction(1, 2), Fraction(7, 3)],
    ),
    ([2, 1, 0, -1, -2], [-2, -1, 0, 1]),
]


@pytest.mark.parametrize("eigenvalues,shifts", CHARVALUES_CASES)
def test_charvalues_generators_are_laplace_determinants(eigenvalues, shifts):
    orb = orbit_ideal_charvalues(DiagSpec(eigenvalues), shifts)
    A = orb.matrix
    assert len(orb.presentation.generators) == len(shifts)
    for g, s in zip(orb.presentation.generators, shifts):
        assert g == A.add_scalar(s).det()


def _gauss_det(M):
    """det of a square Fraction matrix by Gaussian elimination."""
    M = [list(row) for row in M]
    m, det = len(M), Fraction(1)
    for col in range(m):
        pivot = next((r for r in range(col, m) if M[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            det = -det
        det *= M[col][col]
        for r in range(col + 1, m):
            f = M[r][col] / M[col][col]
            M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return det


@pytest.mark.parametrize("eigenvalues,shifts", CHARVALUES_CASES)
def test_charvalues_generators_at_rational_matrices(eigenvalues, shifts):
    # a second algorithm: the value of each generator at a rational point is
    # det(M + s) of the matrix M there, by elimination rather than expansion
    orb = orbit_ideal_charvalues(DiagSpec(eigenvalues), shifts)
    A = orb.matrix
    rng = random.Random(0)
    for _ in range(3):
        point = {name: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for name in A.ctx.names}
        M = [[e.substitute(point).constant_term() for e in row] for row in A.entries]
        for g, s in zip(orb.presentation.generators, shifts):
            shifted = [[v + s if i == j else v for j, v in enumerate(row)] for i, row in enumerate(M)]
            assert g.substitute(point).constant_term() == _gauss_det(shifted)


def test_charvalues_generators_do_not_depend_on_earlier_ranks():
    orbits._shifted_det.cache_clear()
    first = orbit_ideal_charvalues(DiagSpec([3, -1, -2]), [1, 2]).presentation
    sl4 = orbit_ideal_charvalues(DiagSpec([3, 1, -1, -3]), [-3, -1, 1]).presentation
    again = orbit_ideal_charvalues(DiagSpec([3, -1, -2]), [1, 2]).presentation
    assert len(sl4.ctx) == 15 and len(again.ctx) == 8
    assert again.generators == first.generators
    # one matrix and context per rank, shared by the orbit and the potential
    assert potential(DiagSpec([1, -1, 0]), 2).poly.ctx is again.ctx


def test_charvalues_rejects_bad_shift():
    with pytest.raises(PolyError):
        orbit_ideal_charvalues(DiagSpec([1, 0, -1]), [0, -2])
    with pytest.raises(PolyError):
        orbit_ideal_charvalues(DiagSpec([1, 0, -1]), [0])


def test_potential_sl2():
    pot = potential(DiagSpec([1, -1]), 1)
    assert str(pot.poly) == "2*x" and pot.regular


def test_potential_sl3():
    pot = potential(DiagSpec([1, -1, 0]), 2)
    assert str(pot.poly) == "x1 - x2" and pot.regular


def test_potential_flags_non_regular():
    pot = potential(DiagSpec([0, 0, 0]), 2)
    assert pot.poly.is_zero() and not pot.regular


def test_potential_size_mismatch():
    with pytest.raises(PolyError):
        potential(DiagSpec([1, -1]), 2)


CRITICAL_CASES = [
    ([1, -1, 0], [2, -1, -1], 3, {-3, 0, 3}),
    ([1, -1, 0], [1, 0, -1], 6, {-2, -1, 1, 2}),
    ([1, -1, 0], [3, -1, -2], 6, {-5, -4, -1, 1, 4, 5}),
]


@pytest.mark.parametrize("h,h0,npoints,values", CRITICAL_CASES)
def test_weyl_critical(h, h0, npoints, values):
    crit = weyl_critical(DiagSpec(h), DiagSpec(h0))
    assert len(crit.points) == npoints
    assert set(crit.values) == {Fraction(v) for v in values}


@pytest.mark.parametrize("h,h0,npoints,values", CRITICAL_CASES)
def test_critical_values_match_potential_at_points(h, h0, npoints, values):
    H, H0 = DiagSpec(h), DiagSpec(h0)
    crit = weyl_critical(H, H0)
    pot = potential(H, H.n).poly
    xs = [n for n in pot.ctx.names if n.startswith("x")]
    for point in crit.points:
        sub = {n: 0 for n in pot.ctx.names}
        sub.update({xs[i]: point[i] for i in range(len(xs))})
        got = pot.substitute(sub).constant_term()
        assert got in crit.values


def test_weyl_critical_point_count_is_multinomial():
    # the distinct permutations of a spectrum with multiplicities m_i number
    # (n+1)! / prod m_i!
    H0 = DiagSpec([2, 2, 1, -1, -2, -2])
    crit = weyl_critical(DiagSpec([5, 3, 1, -1, -3, -5]), H0)
    mults = Counter(H0.eigenvalues).values()
    assert len(crit.points) == factorial(6) // prod(map(factorial, mults)) == 180
    assert list(crit.points) == sorted(set(crit.points))
    assert all(sorted(p) == sorted(H0.eigenvalues) for p in crit.points)


def test_negation_symmetric_values_for_symmetric_spectrum():
    crit = weyl_critical(DiagSpec([1, -1, 0]), DiagSpec([1, 0, -1]))
    assert set(crit.values) == {-v for v in crit.values}


def test_fibre_ideal_appends_the_cut(fibration_110):
    orb = orbit_ideal_minpoly(DiagSpec([2, -1, -1]))
    fib = fibre_ideal(orb, DiagSpec([1, -1, 0]), 1)
    assert fib.generators[-1] == parse_poly("x1 - x2 - 1", fib.ctx)
    assert fib.generators[:-1] == orb.presentation.generators

    d = fibration_110
    assert list(d["I"].generators) == [d["p"], d["q"], d["f"]]


def test_sl2_fibre_at_zero():
    orb = orbit_ideal_minpoly(DiagSpec([1, -1]))
    fib = fibre_ideal(orb, DiagSpec([1, -1]), 0)
    G = buchberger(fib)
    ctx = fib.ctx
    target = buchberger(
        IdealPresentation(ctx, [parse_poly("x", ctx), parse_poly("y*z - 1", ctx)])
    )
    assert G == target


def test_vertical_fibre_closure_sl3():
    v = vertical_fibre_closure(2)
    assert v.coordinates == ("t", "y1", "y2")
    rows = [[str(e) for e in row] for row in v.entries]
    assert rows == [["2*t", "y1", "y2"], ["0", "-t", "0"], ["0", "0", "-t"]]


def test_vertical_fibre_closure_sl2():
    v = vertical_fibre_closure(1)
    assert v.coordinates == ("t", "y")
    assert [[str(e) for e in row] for row in v.entries] == [["t", "y"], ["0", "-t"]]


def test_vertical_fibre_closure_specialises_to_affine_slice():
    v = vertical_fibre_closure(3)
    at_one = [[e.substitute({"t": 1}) for e in row] for row in v.entries]
    # diagonal becomes diag(3, -1, -1, -1); first row carries the y's
    diag = [at_one[i][i].constant_term() for i in range(4)]
    assert diag == [3, -1, -1, -1]
    for j in range(1, 4):
        assert str(at_one[0][j]) == f"y{j}"
