"""The benchmark's oracles against values derived by hand."""

import pytest

import oracles
from oracles import Hilbert


def test_bezout_numerators_of_the_naive_sl3_closures():
    # <p, q, f>: cubic, cubic, linear in P^8; <p, p-q, f>: cubic, quadric, linear
    assert oracles.complete_intersection(8, [3, 3, 1]) == Hilbert((1, 2, 3, 2, 1), 5, 9)
    assert oracles.complete_intersection(8, [3, 2, 1]) == Hilbert((1, 2, 2, 1), 5, 6)


@pytest.mark.parametrize(
    "n, expected",
    [
        (1, Hilbert((1, 1), 1, 2)),  # a conic
        (2, Hilbert((1, 2, 2, 1), 5, 6)),
        (3, Hilbert((1, 3, 5, 6, 5, 3, 1), 11, 24)),
    ],
)
def test_kostant_fibre(n, expected):
    assert oracles.kostant_fibre(n) == expected


def test_infinity_component_of_the_naive_sl4_closure():
    assert oracles.infinity_component(3) == Hilbert(None, 12, 4)
    with pytest.raises(ValueError):
        oracles.infinity_component(2)


@pytest.mark.parametrize(
    "n, expected",
    [
        (1, Hilbert((1, 1), 2, 2)),  # P^1 x P^1, a quadric surface
        (2, Hilbert((1, 4, 1), 4, 6)),
        (3, Hilbert((1, 9, 9, 1), 6, 20)),
    ],
)
def test_segre(n, expected):
    assert oracles.segre(n) == expected


@pytest.mark.parametrize(
    "ambient, degrees, chi",
    [
        (8, [3, 3, 1], -846),
        (8, [2, 3, 1], -162),
        (8, [3, 2, 1], -162),
        (2, [], 3),  # P^2
        (2, [2], 2),  # a conic is P^1
        (3, [4], 24),  # a quartic surface is K3
        (3, [2, 2], 0),  # an elliptic curve
    ],
)
def test_expected_euler(ambient, degrees, chi):
    assert oracles.expected_euler(ambient, degrees) == chi


def test_standard_monomials():
    leads = [(2, 0, 0), (1, 1, 0)]
    assert oracles.is_standard((1, 0, 5), leads)
    assert oracles.is_standard((0, 7, 7), leads)
    assert not oracles.is_standard((3, 0, 1), leads)
    assert not oracles.is_standard((1, 2, 0), leads)
    assert oracles.is_standard((5, 5, 5), [])
