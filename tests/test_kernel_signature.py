"""The pure engine's signature pair loop, against its Gebauer-Moeller loop.

``pure.buchberger`` takes the signature loop when at most ``nvars``
generators remain after interreducing them.  Both loops end in the same
interreduction and a reduced basis is unique, so on every input here
the two must return bit-identical bases; the GM loop is the reference.
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
    return pure.buchberger(gens, nvars, *code, LIMITS.max_pairs, LIMITS.max_degree)


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


def sl4_fibre():
    """The fibre of diag(3,1,-1,-3) under H = diag(3,1,-1,-3) at c = 0."""
    orbit = orbit_ideal_charvalues(DiagSpec([3, 1, -1, -3]), [-3, -1, 1])
    return fibre_ideal(orbit, DiagSpec([3, 1, -1, -3]), 0)


def test_the_saturated_sl4_fibre_reduces_no_pair_to_zero(monkeypatch):
    # the grevlex run of its saturated closure reduces 5 pairs; the GM loop
    # reduces 12, 7 of them to zero, and without the rewrite criterion the
    # signature loop reduces 6
    fib = sl4_fibre()
    zeros = []
    reduce = pure._reduce

    def spy(*args, **kwargs):
        out = reduce(*args, **kwargs)
        zeros.append(not out[0])
        return out

    monkeypatch.setattr(pure, "_reduce", spy)
    basis = pure.buchberger(raw(fib.generators), len(fib.ctx), *GREVLEX, 5, LIMITS.max_degree)
    assert len(zeros) > len(basis) and not any(zeros)


def test_the_naive_sl4_fibre_closure_finishes_within_14_pairs():
    # the GM loop reduces 20 pairs here, and without the syzygies of its
    # reductions to zero the signature loop reduces 27
    hom = homogenise_naive(sl4_fibre(), "t")
    assert pure.buchberger(raw(hom.generators), len(hom.ctx), *GREVLEX, 14, LIMITS.max_degree)
