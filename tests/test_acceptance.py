"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Everything here is exact arithmetic; the only tolerances
are wall-clock and memory budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import contextlib
import random
import resource
import time
from fractions import Fraction

import pytest

import orbitcompat as oc
from orbitcompat.chern import (
    CompleteIntersectionSpec,
    TruncatedSeries,
    chern_series,
    degree_product,
    expected_euler,
)
from orbitcompat.diamonds import (
    IncompleteDiamondError,
    diamond_pn_pn_dual,
    euler_from_diamond,
    fixture,
    lefschetz_restrict,
    render_diamond,
    vanishing_cycle_obstruction,
)
from orbitcompat.hilbert import hilbert


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:>2} FAIL  {label}")
        raise
    print(f"criterion {number:>2} PASS  {label}")


def _rss_gb():
    """Peak resident set size of this process so far; ru_maxrss is in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 2**20


def test_criterion_1_euler_characteristics():
    with criterion(1, "expected Euler characteristics, exact, < 1 s each"):
        for ambient, degrees, chi in [
            (2, [2], 2),
            (3, [4], 24),
            (8, [3, 3, 1], -846),
            (8, [2, 3, 1], -162),
        ]:
            t0 = time.perf_counter()
            assert expected_euler(CompleteIntersectionSpec(ambient, degrees)) == chi
            assert time.perf_counter() - t0 < 1.0


def test_criterion_2_series_golden():
    with criterion(2, "Chern series coefficients, exact"):
        got = chern_series(CompleteIntersectionSpec(8, [3, 3, 1]))
        assert list(got.coeffs) == [1, 2, 7, -4, 31, -94]
        got = chern_series(CompleteIntersectionSpec(8, [2, 3, 1]))
        assert list(got.coeffs) == [1, 3, 7, 3, 13, -27]


def test_criterion_3_sl2_pipeline():
    with criterion(3, "sl(2) pipeline: orbit, homogenisation, fibre, chi"):
        t0 = time.perf_counter()
        orbit = oc.orbit_ideal_minpoly(oc.DiagSpec([1, -1]))
        G = oc.buchberger(orbit.presentation)
        assert [str(g) for g in G.basis] == ["x^2 + y*z - 1"]

        hom = oc.homogenise_naive(orbit.presentation, "t")
        Gh = oc.buchberger(hom)
        assert [str(g) for g in Gh.basis] == ["x^2 + y*z - t^2"]

        fib = oc.fibre_ideal(orbit, oc.DiagSpec([1, -1]), 0)
        Gf = oc.buchberger(oc.homogenise_naive(fib, "t"))
        assert [str(g) for g in Gf.basis] == ["x", "y*z - t^2"]

        chi = expected_euler(CompleteIntersectionSpec(3, [2]))
        assert chi == 4 == fixture("sl2-orbit").entry_sum()
        assert time.perf_counter() - t0 < 1.0


def test_criterion_4_critical_values():
    with criterion(4, "Weyl critical points and values, exact"):
        t0 = time.perf_counter()
        cases = [
            ([1, -1, 0], [2, -1, -1], 3, {-3, 0, 3}),
            ([1, -1, 0], [1, 0, -1], 6, {-2, -1, 1, 2}),
            ([1, -1, 0], [3, -1, -2], 6, {-5, -4, -1, 1, 4, 5}),
        ]
        for h, h0, npoints, values in cases:
            crit = oc.weyl_critical(oc.DiagSpec(h), oc.DiagSpec(h0))
            assert len(crit.points) == npoints
            assert set(crit.values) == {Fraction(v) for v in values}
        assert time.perf_counter() - t0 < 1.0


def test_criterion_5_homogenisation_phenomenon(fibration_110):
    with criterion(5, "naive homogenisations differ, saturated ones agree"):
        d = fibration_110
        t0 = time.perf_counter()
        assert oc.ideal_equal(d["I"], d["J"])
        assert not oc.ideal_equal(d["I_hom"], d["J_hom"])
        assert oc.ideal_contains(d["J_hom"], d["I_hom"])
        satI = oc.homogenise_ideal(d["I"], "t")
        satJ = oc.homogenise_ideal(d["J"], "t")
        assert oc.ideal_equal(satI, satJ)
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"budget blown: {elapsed:.1f}s"
        assert _rss_gb() < 2.0, f"memory budget blown: {_rss_gb():.2f} GiB"


def test_criterion_6_hilbert_cross_check(fibration_110):
    with criterion(6, "Hilbert dimensions and degrees match the degree products"):
        d = fibration_110
        t0 = time.perf_counter()
        hI = hilbert(oc.buchberger(d["I_hom"]))
        hJ = hilbert(oc.buchberger(d["J_hom"]))
        assert hI.proj_dim == 5 and hJ.proj_dim == 5
        assert hI.degree == 9 == degree_product(CompleteIntersectionSpec(8, [3, 3, 1]))
        assert hJ.degree == 6 == degree_product(CompleteIntersectionSpec(8, [2, 3, 1]))
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0
        assert _rss_gb() < 2.0


def test_criterion_7_six_critical_value_reduction(fibration_321, fibration_110):
    with criterion(7, "6-critical-value fibration reproduces the same invariants"):
        d = fibration_321
        hI = hilbert(oc.buchberger(d["I_hom"]))
        hJ = hilbert(oc.buchberger(d["J_hom"]))
        ref_I = hilbert(oc.buchberger(fibration_110["I_hom"]))
        ref_J = hilbert(oc.buchberger(fibration_110["J_hom"]))
        assert hI == ref_I and hJ == ref_J
        # identical degree data means identical expected Euler characteristics
        chiI = expected_euler(CompleteIntersectionSpec(8, [g.degree() for g in d["I_hom"].generators]))
        chiJ = expected_euler(CompleteIntersectionSpec(8, [g.degree() for g in d["J_hom"].generators]))
        assert chiI == -846 and chiJ == -162


def test_criterion_8_diamond_suite():
    with criterion(8, "diamond closed forms, restriction, obstruction, K3"):
        orbit_diamond = diamond_pn_pn_dual(2)
        assert orbit_diamond.rows() == fixture("sl3-orbit").rows()

        restricted = lefschetz_restrict(orbit_diamond)
        fib = fixture("sl3-fibre")
        for p in range(4):
            for q in range(4):
                if p + q != 3:
                    assert restricted.entry(p, q) == fib.entry(p, q)

        assert vanishing_cycle_obstruction(fib) is True
        assert euler_from_diamond(fixture("k3")) == 24


def test_criterion_9_unknowns_stay_unknown():
    with criterion(9, "sheaf-cohomology grids are fixtures; unknowns error loudly"):
        # sheaf cohomology of these compactifications is beyond desk-scale
        # compute; the grids are stored as data and their holes must bite
        for name in ("fibre110-i", "fibre110-j", "fibre321-i", "fibre321-j"):
            d = fixture(name)
            assert d.unknown_cells(), name
            with pytest.raises(IncompleteDiamondError):
                euler_from_diamond(d)
        text = render_diamond(fixture("fibre110-i"))
        assert "16" in text and "?" in text


def test_criterion_10_property_suites(fibration_110):
    with criterion(10, "seeded property suites"):
        d = fibration_110
        rng = random.Random(20260810)

        # reduced-GB uniqueness under 20 generator shuffles
        base = oc.buchberger(d["I_hom"])
        gens = list(d["I_hom"].generators)
        for _ in range(20):
            rng.shuffle(gens)
            assert oc.buchberger(oc.IdealPresentation(d["I_hom"].ctx, gens)) == base

        # saturation idempotence
        t = oc.parse_poly("t", d["I_hom"].ctx)
        once = oc.saturate(d["I_hom"], t)
        assert oc.ideal_equal(oc.saturate(once, t), once)

        # homogenise_ideal is presentation-independent on 10 regenerations
        ref = oc.homogenise_ideal(d["I"], "t")
        p, q, f = d["p"], d["q"], d["f"]
        ctx = d["I"].ctx
        for _ in range(10):
            combo = [
                p + q.scale(rng.randint(-2, 2)),
                q + f.scale(rng.randint(-3, 3)) * oc.parse_poly(rng.choice(ctx.names), ctx),
                f,
                p,
            ]
            pres = oc.IdealPresentation(ctx, combo)
            assert oc.ideal_equal(pres, d["I"])
            assert oc.ideal_equal(oc.homogenise_ideal(pres, "t"), ref)

        # parser round-trip on the full corpus
        from test_parsing import CORPUS

        for text, names in CORPUS:
            ctx2 = oc.VarContext(names)
            poly = oc.parse_poly(text, ctx2)
            assert oc.parse_poly(oc.poly_to_string(poly), ctx2) == poly

        # series mul/div inverse on 100 random units
        for _ in range(100):
            order = rng.randint(0, 6)
            a = TruncatedSeries(
                order,
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)],
            )
            b_coeffs = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)
            ]
            b_coeffs[0] = Fraction(rng.choice([1, -1, 2]), 1)
            b = TruncatedSeries(order, b_coeffs)
            assert (a * b) / b == a
