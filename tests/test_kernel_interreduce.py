"""The pure engine's interreduction, counted by its ``_reduce`` calls.

``pure.buchberger`` interreduces its inputs before the pair loop and the
minimal basis after it.  A pass runs again only when a result got a new
leading monomial, so a pass that changes only tails, or drops a zero, is
the last; the counts below pin that rule and the bases are the ones the
engine gave before it.
"""

import pytest

from orbitcompat import GBLimits
from orbitcompat._kernel import pure

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
    assert pure.buchberger(gens, 2, *code, LIMITS.max_pairs, LIMITS.max_degree) == basis
    assert len(results) == calls
    assert (not all(results)) == vanishes
