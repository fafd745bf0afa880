"""Truncated series arithmetic and expected Euler characteristics."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from orbitcompat.chern import (
    CompleteIntersectionSpec,
    TruncatedSeries,
    chern_series,
    degree_product,
    expected_euler,
)


def S(coeffs, order=None):
    if order is None:
        order = len(coeffs) - 1
    return TruncatedSeries(order, coeffs)


def test_geometric_series():
    got = S([1], 3) / S([1, 2], 3)
    assert got == S([1, -2, 4, -8])


def test_conic_series():
    got = TruncatedSeries.binomial_power(2, 3) / S([1, 2], 2)
    assert got == S([1, 1, 1])


def test_quartic_series():
    got = TruncatedSeries.binomial_power(2, 4) / S([1, 4], 2)
    assert got == S([1, 0, 6])


def test_order_mismatch_and_nonunit_divisor():
    with pytest.raises(ValueError):
        S([1], 2) + S([1], 3)
    with pytest.raises(ZeroDivisionError):
        S([1, 1], 1) / S([0, 1], 1)


def test_chern_series_cubic_cubic_hyperplane():
    got = chern_series(CompleteIntersectionSpec(8, [3, 3, 1]))
    assert list(got.coeffs) == [1, 2, 7, -4, 31, -94]


def test_chern_series_quadric_cubic_hyperplane():
    got = chern_series(CompleteIntersectionSpec(8, [2, 3, 1]))
    assert list(got.coeffs) == [1, 3, 7, 3, 13, -27]


def test_chern_series_agrees_with_series_division():
    # the second algorithm: (1 + a)^(N+1) divided by each 1 + d*a in
    # TruncatedSeries arithmetic, on every spec with N <= 10, at most four
    # hypersurfaces and degrees 1 to 4
    specs = [
        CompleteIntersectionSpec(N, degrees)
        for N in range(11)
        for k in range(min(N, 4) + 1)
        for degrees in combinations_with_replacement(range(1, 5), k)
    ]
    assert len(specs) == 546
    for spec in specs:
        n = spec.dim
        want = TruncatedSeries.binomial_power(n, spec.ambient_dim + 1)
        for d in spec.degrees:
            want = want / S([1, d], n)
        assert chern_series(spec) == want, spec


def test_chern_series_of_projective_space():
    from math import comb

    for N in (1, 2, 5):
        got = chern_series(CompleteIntersectionSpec(N, []))
        assert list(got.coeffs) == [comb(N + 1, k) for k in range(N + 1)]


@pytest.mark.parametrize(
    "ambient,degrees,chi",
    [
        (2, [2], 2),
        (3, [4], 24),
        (8, [3, 3, 1], -846),
        (8, [2, 3, 1], -162),
        (3, [2], 4),  # quadric surface = P^1 x P^1
    ],
)
def test_expected_euler(ambient, degrees, chi):
    assert expected_euler(CompleteIntersectionSpec(ambient, degrees)) == chi


def test_euler_of_projective_spaces():
    for N in range(11):
        assert expected_euler(CompleteIntersectionSpec(N, [])) == N + 1


def test_degree_product():
    assert degree_product(CompleteIntersectionSpec(8, [3, 3, 1])) == 9
    assert degree_product(CompleteIntersectionSpec(8, [2, 3, 1])) == 6
    assert degree_product(CompleteIntersectionSpec(4, [])) == 1


def test_spec_validation():
    with pytest.raises(ValueError):
        CompleteIntersectionSpec(2, [1, 1, 1])
    with pytest.raises(ValueError):
        CompleteIntersectionSpec(3, [0])
    # a degree that is not an integer is refused, not truncated
    for degrees in ([Fraction(7, 2), 2.9, 3], [Fraction(7, 2)], [2.9], [3, 2.5]):
        with pytest.raises(ValueError, match="integers"):
            CompleteIntersectionSpec(8, degrees)
    # integer degrees, whatever their type, are kept as ints
    spec = CompleteIntersectionSpec(8, [Fraction(3), 3.0, 1])
    assert spec.degrees == (3, 3, 1) and all(type(d) is int for d in spec.degrees)


def test_mul_div_inverse_on_random_units():
    rng = random.Random(20260810)
    for _ in range(100):
        order = rng.randint(0, 6)
        a = S([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)], order)
        b_coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
        b_coeffs[0] = Fraction(rng.choice([1, -1, 2, 3]), rng.randint(1, 4))
        b = S(b_coeffs, order)
        assert (a * b) / b == a


def test_cross_check_with_diamond_entry_sum():
    # chi of the quadric surface equals the entry sum of its Hodge diamond
    from orbitcompat.diamonds import fixture

    assert expected_euler(CompleteIntersectionSpec(3, [2])) == fixture(
        "sl2-orbit"
    ).entry_sum()
