"""Hilbert series: spec examples plus a brute-force standard-monomial oracle."""

import random
from itertools import product

import pytest

from orbitcompat import (
    GREVLEX,
    IdealPresentation,
    MultiPoly,
    PolyError,
    ReducedGB,
    VarContext,
    buchberger,
    homogenise_ideal,
    ideal_contains,
    parse_poly,
)
from orbitcompat.hilbert import hilbert, hilbert_of_leading_terms


def GB(ctx, *texts):
    return buchberger(IdealPresentation(ctx, [parse_poly(t, ctx) for t in texts]))


def test_zero_ideal():
    ctx = VarContext(["x", "y"])
    h = hilbert(ReducedGB(ctx, GREVLEX, ()))
    assert h.numerator == (1,)
    assert h.krull_dim == 2 and h.degree == 1


def test_quadric_hypersurface():
    ctx = VarContext(["x", "y", "z", "t"])
    h = hilbert(GB(ctx, "x^2 + y*z - t^2"))
    assert (h.krull_dim, h.proj_dim, h.degree) == (3, 2, 2)
    # oracle: the leading-term ideal is a single quadric monomial
    assert hilbert_of_leading_terms([(2, 0, 0, 0)], 4) == h


def test_fibre_homogenisation_dimensions_and_degrees(fibration_110):
    d = fibration_110
    hI = hilbert(buchberger(d["I_hom"]))
    hJ = hilbert(buchberger(d["J_hom"]))
    assert (hI.proj_dim, hI.degree) == (5, 9)
    assert (hJ.proj_dim, hJ.degree) == (5, 6)
    # complete-intersection oracle: degree = product of generator degrees
    assert hI.degree == 3 * 3 * 1
    assert hJ.degree == 3 * 2 * 1


@pytest.mark.parametrize("fibration", ["fibration_110", "fibration_321"])
def test_naive_closure_is_kostant_closure_plus_component_at_infinity(
    fibration, request
):
    """The generator-wise closure of the sl(3) fibre has two components of
    projective dimension 5: the saturated closure, a hyperplane section of
    the nilpotent cone (Kostant: (1+s)(1+s+s^2), degree 3!), and the
    component at infinity {t = 0, det A = 0, tr(HA) = 0}, a complete
    intersection of degrees 1, 3, 1.  Both contain the naive ideal, and
    their degrees add up to its degree: 9 = 6 + 3."""
    d = request.getfixturevalue(fibration)
    naive = d["I_hom"]
    ctx = naive.ctx
    saturated = homogenise_ideal(d["I"], "t")
    det_a = d["orbit"].matrix.det().map_context(ctx)
    infinity = IdealPresentation(
        ctx, [MultiPoly.variable(ctx, "t"), det_a, d["f"].map_context(ctx)]
    )
    hn, hs, hi = (hilbert(buchberger(X)) for X in (naive, saturated, infinity))
    assert (hn.numerator, hn.degree, hn.proj_dim) == ((1, 2, 3, 2, 1), 9, 5)
    assert (hs.numerator, hs.degree, hs.proj_dim) == ((1, 2, 2, 1), 6, 5)
    assert (hi.numerator, hi.degree, hi.proj_dim) == ((1, 1, 1), 3, 5)
    assert ideal_contains(saturated, naive)
    assert ideal_contains(infinity, naive)
    assert hn.degree == hs.degree + hi.degree


def test_rejects_inhomogeneous_basis():
    ctx = VarContext(["x", "y"])
    with pytest.raises(PolyError):
        hilbert(GB(ctx, "x^2 - y"))


def test_unit_ideal_has_no_hilbert_data():
    ctx = VarContext(["x", "y"])
    G = GB(ctx, "x", "x - 1")  # the unit ideal; its basis {1} is homogeneous
    assert G.contains_one()
    with pytest.raises(PolyError):
        hilbert(G)


def test_empty_projective_variety():
    # <x, t> in two variables: Proj is empty, Krull dimension 0, degree 1
    ctx = VarContext(["x", "t"])
    h = hilbert(GB(ctx, "x", "t"))
    assert (h.krull_dim, h.proj_dim, h.degree) == (0, -1, 1)


def test_regular_orbit_dimension(fibration_110):
    """The orbit cut out by two determinant conditions in sl(3) is a
    6-dimensional variety (codimension 2 in C^8), whatever informal
    dimension counts might suggest."""
    from orbitcompat import homogenise_naive

    d = fibration_110
    orbit_pres = d["orbit"].presentation
    h = hilbert(buchberger(homogenise_naive(orbit_pres, "t")))
    assert h.proj_dim == 6
    assert h.degree == 9  # complete intersection of two cubics


# -- brute-force oracle ----------------------------------------------------------


def _series_coeffs(h, nvars, upto):
    """Expand numerator / (1-s)^krull to `upto` coefficients."""
    # 1/(1-s)^k has coefficients C(n+k-1, k-1)
    from math import comb

    out = []
    for n in range(upto + 1):
        acc = 0
        for i, c in enumerate(h.numerator):
            if i <= n:
                k = h.krull_dim
                acc += c * (comb(n - i + k - 1, k - 1) if k > 0 else (1 if n == i else 0))
        out.append(acc)
    return out


def _standard_monomial_counts(gens, nvars, upto):
    counts = [0] * (upto + 1)
    for mono in product(range(upto + 1), repeat=nvars):
        d = sum(mono)
        if d > upto:
            continue
        if not any(all(g[i] <= mono[i] for i in range(nvars)) for g in gens):
            counts[d] += 1
    return counts


def _random_ideals(count, seed):
    """Seeded monomial ideals in 1-4 variables with 1-6 generators of
    exponents up to 3, none of them 1; some lists repeat a generator or hold
    a multiple of one, so the recursion starts from non-minimal input."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        nvars = rng.randint(1, 4)
        size = rng.randint(1, 6)
        gens = []
        while len(gens) < size:
            m = tuple(rng.randint(0, 3) for _ in range(nvars))
            if any(m):
                gens.append(m)
        if rng.random() < 0.3:
            gens.append(gens[0])
        if rng.random() < 0.3:
            gens.append(tuple(e + 1 for e in gens[-1]))
        cases.append((gens, nvars))
    return cases


@pytest.mark.parametrize(
    "gens,nvars",
    [
        ([(2, 0, 0), (0, 3, 0)], 3),
        ([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3),
        ([(2, 1, 0), (0, 0, 4)], 3),
        ([(1, 1), (2, 0)], 2),
        ([(3, 0, 0, 0), (0, 2, 1, 0), (1, 0, 0, 2)], 4),
    ]
    + _random_ideals(40, seed=2026),
)
def test_series_counts_standard_monomials(gens, nvars):
    h = hilbert_of_leading_terms(gens, nvars)
    upto = 6
    assert _series_coeffs(h, nvars, upto) == _standard_monomial_counts(
        gens, nvars, upto
    )
