"""The pure engine's interreduction, counted by its ``_reduce`` calls.

``pure.buchberger`` interreduces its inputs before the pair loop, and
``pure.interreduce`` the minimal basis it returns.  A pass runs again only when a result got a new
leading monomial, so a pass that changes only tails, or drops a zero, is
the last; the counts below pin that rule and the bases are the ones the
engine gave before it.
"""

import pickle

import pytest

from orbitcompat import DiagSpec, GBLimits, fibre_ideal, orbit_ideal_charvalues
from orbitcompat._kernel import pure
from orbitcompat.groebner import _clear_denominators

LIMITS = GBLimits()
GREVLEX, LEX = (1, 0), (0, 0)
X, X2, Y, Y3, Y6, ONE = (1, 0), (2, 0), (0, 1), (0, 3), (0, 6), (0, 0)


@pytest.mark.parametrize(
    "gens,code,basis,calls,vanishes",
    [
        # x^2 + y becomes x^2 - 1, a new tail only: one pass, then one
        # _reduce per element at the end
        pytest.param(
            [[(X2, 1), (Y, 1)], [(Y, 1), (ONE, 1)]],
            GREVLEX,
            [[(Y, 1), (ONE, 1)], [(X2, 1), (ONE, -1)]],
            4,
            False,
            id="new-tail",
        ),
        # x^2 + y vanishes against y + 1 and x^2 - 1: still one pass
        pytest.param(
            [[(X2, 1), (Y, 1)], [(Y, 1), (ONE, 1)], [(X2, 1), (ONE, -1)]],
            GREVLEX,
            [[(Y, 1), (ONE, 1)], [(X2, 1), (ONE, -1)]],
            5,
            True,
            id="vanishing",
        ),
        # x^2 - 1 becomes y^6 - 1, a new leading monomial: a second pass
        pytest.param(
            [[(X, 1), (Y3, -1)], [(X2, 1), (ONE, -1)]],
            LEX,
            [[(Y6, 1), (ONE, -1)], [(X, 1), (Y3, -1)]],
            6,
            False,
            id="new-lead",
        ),
    ],
)
def test_interreduction_passes_again_only_for_a_new_leading_monomial(
    monkeypatch, gens, code, basis, calls, vanishes
):
    results = []
    reduce = pure._reduce

    def spy(*args, **kwargs):
        out = reduce(*args, **kwargs)
        results.append(out[0])
        return out

    monkeypatch.setattr(pure, "_reduce", spy)
    minimal = pure.buchberger(gens, 2, *code, LIMITS.max_pairs, LIMITS.max_degree)
    assert pure.interreduce(minimal, LIMITS.max_degree) == basis
    assert len(results) == calls
    assert (not all(results)) == vanishes
    # a Basis of a plain copy of the term lists, without the engine
    # polynomials kept on buchberger's output, is keyed again and reduces
    # alike, and either way the output carries the basis keyed as
    # _key_basis keys its lists
    plain = pure.interreduce(pure.Basis.of_lists(minimal, 2, *code), LIMITS.max_degree)
    assert plain == basis
    kept = pure.interreduce(minimal, LIMITS.max_degree)
    assert kept.layout is plain.layout
    assert kept.polys == plain.polys == pure._key_basis(kept.layout, basis)


def test_interreduce_keys_the_sl4_fibre_alike_from_plain_lists():
    # the sl(4) fibre at H = diag(1,-1,0,0), c = 2, whose minimal grevlex
    # basis is not reduced
    orbit = orbit_ideal_charvalues(DiagSpec([3, 1, -1, -3]), [-3, -1, 1])
    fib = fibre_ideal(orbit, DiagSpec([1, -1, 0, 0]), 2)
    gens = [_clear_denominators(g)[1] for g in fib.generators]
    nvars = len(fib.ctx)
    minimal = pure.buchberger(gens, nvars, *GREVLEX, LIMITS.max_pairs, LIMITS.max_degree)
    kept = pure.interreduce(minimal)
    plain = pure.interreduce(pure.Basis.of_lists([list(p) for p in minimal], nvars, *GREVLEX))
    assert kept != minimal
    assert kept == plain and kept.polys == plain.polys and kept.layout is plain.layout
    assert kept.polys == pure._key_basis(kept.layout, kept)


def test_a_kernel_basis_strips_its_lists_only_when_read(monkeypatch):
    # the grevlex basis {y + 1, x^2 - 1}: its length, leading monomials,
    # gradedness and degree bound come off the packs, and reducing against
    # it reads only its engine polynomials
    gens = [[(X2, 1), (Y, 1)], [(Y, 1), (ONE, 1)]]
    basis = [[(Y, 1), (ONE, 1)], [(X2, 1), (ONE, -1)]]
    strip = pure._strip_keys
    stripped = []

    def counted(poly, L):
        stripped.append(poly)
        return strip(poly, L)

    minimal = pure.buchberger(gens, 2, *GREVLEX, LIMITS.max_pairs, LIMITS.max_degree)
    monkeypatch.setattr(pure, "_strip_keys", counted)
    assert len(minimal) == 2 and minimal
    assert minimal.leading_monomials() == [Y, X2]
    assert not minimal.graded() and minimal.top == 2
    reduced = pure.interreduce(minimal)
    assert stripped == []
    # a normal form strips its remainder alone: 3*x*y^2 -> 3*x
    assert pure.normal_form([((1, 2), 3)], reduced) == ([((1, 0), 3)], 1)
    assert len(stripped) == 1
    # reading the basis strips each element once, and it reads as its lists
    assert repr(minimal) == repr(basis) and minimal == basis and basis == minimal
    assert minimal[1] == basis[1] and list(minimal) == basis
    assert len(stripped) == 3
    # its lists pickle, unkeyed, in the 16-bit layout of its order
    back = pickle.loads(pickle.dumps(minimal))
    assert isinstance(back, pure.Basis) and back == minimal and back.polys is None
    assert back.layout is pure._layout(2, 16, *GREVLEX)
    assert back.leading_monomials() == [Y, X2] and back.top == 2 and not back.graded()
    assert pure.interreduce(back) == reduced
