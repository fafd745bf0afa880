"""The pure engine's signature pair loop, against its Gebauer-Moeller loop.

``pure.buchberger`` takes the signature loop when at most ``nvars``
generators remain after interreducing them.  The loops' minimal bases may
differ in their tails, but ``pure.interreduce`` makes the reduced basis of
either, which is unique, so on every input here the two must give
bit-identical reduced bases; the GM loop is the reference.
"""

import random

import pytest

from orbitcompat import DiagSpec, GBLimits, fibre_ideal, homogenise_naive, orbit_ideal_charvalues
from orbitcompat._kernel import pure
from orbitcompat.groebner import _clear_denominators

LIMITS = GBLimits()
GREVLEX, LEX, ELIM = (1, 0), (0, 0), (2, 1)


def raw(polys):
    return [_clear_denominators(g)[1] for g in polys]


def run(gens, nvars, code=GREVLEX):
    minimal = pure.buchberger(gens, nvars, *code, LIMITS.max_pairs, LIMITS.max_degree)
    return pure.interreduce(minimal, nvars, *code, LIMITS.max_degree)


def assert_loops_agree(monkeypatch, gens, nvars, code=GREVLEX):
    ran = []
    signature_loop = pure._signature_loop

    def spy(*args):
        ran.append(args)
        return signature_loop(*args)

    monkeypatch.setattr(pure, "_signature_loop", spy)
    got = run(gens, nvars, code)
    assert ran, "the signature loop did not run"
    monkeypatch.setattr(pure, "_signature_loop", pure._gm_loop)
    assert got == run(gens, nvars, code)
    monkeypatch.undo()


def random_fibre(rng, n):
    """The fibre of a random regular orbit of sl(n+1) under a random H."""
    while True:
        eigenvalues = [rng.randint(-3, 3) for _ in range(n)]
        eigenvalues.append(-sum(eigenvalues))
        if len(set(eigenvalues)) == n + 1:
            break
    shifts = [-e for e in rng.sample(eigenvalues, n)]
    H = [rng.randint(-2, 2) for _ in range(n)]
    H.append(-sum(H))
    orbit = orbit_ideal_charvalues(DiagSpec(eigenvalues), shifts)
    return fibre_ideal(orbit, DiagSpec(H), rng.randint(-3, 3))


@pytest.mark.parametrize("n,count", [(2, 16), (3, 2)])
def test_the_loops_agree_on_random_fibres(monkeypatch, n, count):
    # the affine run is the saturated closure's, the homogeneous one the
    # naive closure's
    rng = random.Random(1600 + n)
    for _ in range(count):
        fib = random_fibre(rng, n)
        hom = homogenise_naive(fib, "t")
        assert_loops_agree(monkeypatch, raw(fib.generators), len(fib.ctx))
        assert_loops_agree(monkeypatch, raw(hom.generators), len(hom.ctx))


def random_poly(rng, nvars):
    terms = {}
    for _ in range(rng.randint(2, 4)):
        degree = rng.randint(0, 3)
        exp = [0] * nvars
        for _ in range(degree):
            exp[rng.randrange(nvars)] += 1
        terms[tuple(exp)] = rng.choice([-3, -2, -1, 1, 2, 3])
    return list(terms.items())


@pytest.mark.parametrize("code", [GREVLEX, LEX, ELIM])
def test_the_loops_agree_on_small_dense_systems(monkeypatch, code):
    rng = random.Random(1610 + code[0])
    for _ in range(100):
        nvars = rng.randint(2, 4)
        gens = [random_poly(rng, nvars) for _ in range(rng.randint(2, nvars))]
        assert_loops_agree(monkeypatch, gens, nvars, code)


def times_random_monomial(rng, poly, nvars):
    shift = [0] * nvars
    for _ in range(rng.randint(1, 3)):
        shift[rng.randrange(nvars)] += 1
    return [(tuple(map(sum, zip(exp, shift))), c) for exp, c in poly]


@pytest.mark.parametrize("code", [GREVLEX, LEX, ELIM])
def test_the_loops_agree_on_systems_with_monomial_content(monkeypatch, code):
    # each generator is a multiple of a monomial, so the Koszul syzygies of
    # the signature loop are divided by the gcd of two monomial contents
    rng = random.Random(2400 + code[0])
    for _ in range(100):
        nvars = rng.randint(2, 4)
        gens = [
            times_random_monomial(rng, random_poly(rng, nvars), nvars)
            for _ in range(rng.randint(2, nvars))
        ]
        assert_loops_agree(monkeypatch, gens, nvars, code)


# Systems on which the signature loop once returned a wrong basis, because
# it dropped each result that a multiple of an older polynomial with the
# same signature top-reduced (singular top-reducible): under the add-last
# rewrite criterion the dropped result was the only polynomial that could
# rewrite multiples of its signature, so pairs there were lost.
SINGULAR_CASES = [
    (
        GREVLEX,
        4,
        [
            [((1, 0, 2, 0), -2), ((1, 0, 1, 0), -3), ((1, 1, 0, 2), 1), ((1, 0, 0, 0), -3)],
            [((0, 4, 1, 1), 1), ((0, 2, 2, 1), 1), ((2, 2, 1, 1), -2), ((0, 1, 2, 2), 1)],
            [((1, 1, 1, 1), -1), ((0, 2, 0, 2), 3), ((0, 0, 1, 1), 3), ((1, 0, 0, 1), -3)],
        ],
    ),
    (
        LEX,
        4,
        [
            [((1, 0, 0, 0), -2), ((2, 0, 0, 0), -2), ((0, 0, 0, 0), -2)],
            [((0, 1, 0, 1), 2), ((0, 0, 2, 1), 3)],
            [((0, 2, 0, 1), 1), ((0, 1, 1, 0), 1), ((0, 1, 0, 1), -2)],
            [((0, 3, 0, 0), 1), ((1, 2, 0, 0), 3), ((1, 0, 0, 0), -3)],
        ],
    ),
    (
        LEX,
        3,
        [
            [((1, 1, 3), 3), ((1, 0, 2), -2), ((1, 0, 3), -3)],
            [((2, 0, 0), 2), ((3, 1, 0), -1)],
            [((0, 2, 2), -2), ((0, 0, 1), -3), ((1, 2, 1), -2)],
        ],
    ),
]


@pytest.mark.parametrize("code,nvars,gens", SINGULAR_CASES, ids=["grevlex", "lex-dense", "lex-content"])
def test_singular_top_reducible_results_are_kept(monkeypatch, code, nvars, gens):
    assert_loops_agree(monkeypatch, gens, nvars, code)


def sl4_fibre():
    """The fibre of diag(3,1,-1,-3) under H = diag(3,1,-1,-3) at c = 0."""
    orbit = orbit_ideal_charvalues(DiagSpec([3, 1, -1, -3]), [-3, -1, 1])
    return fibre_ideal(orbit, DiagSpec([3, 1, -1, -3]), 0)


@pytest.fixture
def zero_reductions(monkeypatch):
    """Whether each ``_reduce`` call made from now on returned zero."""
    zeros = []
    reduce = pure._reduce

    def spy(*args, **kwargs):
        out = reduce(*args, **kwargs)
        zeros.append(not out[0])
        return out

    monkeypatch.setattr(pure, "_reduce", spy)
    return zeros


def test_the_saturated_sl4_fibre_reduces_no_pair_to_zero(zero_reductions):
    # the grevlex run of its saturated closure reduces 5 pairs; the GM loop
    # reduces 12, 7 of them to zero, and without the rewrite criterion the
    # signature loop reduces 6
    fib = sl4_fibre()
    basis = pure.buchberger(raw(fib.generators), len(fib.ctx), *GREVLEX, 5, LIMITS.max_degree)
    assert len(zero_reductions) > len(basis) and not any(zero_reductions)


def test_the_naive_sl4_fibre_closure_reduces_no_pair_to_zero(zero_reductions):
    # its interreduced inputs are t^2*a and t*b: without dividing their
    # Koszul syzygy by the gcd t of the monomial contents, 3 pairs reduce
    # to zero
    hom = homogenise_naive(sl4_fibre(), "t")
    basis = pure.buchberger(raw(hom.generators), len(hom.ctx), *GREVLEX, 11, LIMITS.max_degree)
    assert len(zero_reductions) > len(basis) and not any(zero_reductions)


def test_the_naive_sl4_fibre_closure_finishes_within_11_pairs():
    # the GM loop reduces 20 pairs here; without the gcd division of the
    # Koszul syzygies the signature loop reduces 14, and without the
    # syzygies of its reductions to zero as well, 27
    hom = homogenise_naive(sl4_fibre(), "t")
    assert pure.buchberger(raw(hom.generators), len(hom.ctx), *GREVLEX, 11, LIMITS.max_degree)
