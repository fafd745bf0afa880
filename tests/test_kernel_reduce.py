"""Property test of the pure engine's fraction-free reduction against the
division algorithm over Q, on seeded random inputs long enough to cross the
content-normalisation stride, given sorted or as unsorted terms to sum."""

import random
from fractions import Fraction
from itertools import product
from math import gcd

from orbitcompat import (
    GBLimits,
    IdealPresentation,
    MultiPoly,
    VarContext,
    buchberger,
    normal_form,
)
from orbitcompat._kernel import pure

CTX = VarContext(["x", "y", "z"])
KIND, BLOCK = 1, 0  # grevlex
LIMITS = GBLimits()


def key(e):
    return pure.packed_key(e, KIND, BLOCK)


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def remainder_over_q(f, basis):
    """Divide f by basis over Q ({exp: coeff} dicts), always on the largest
    remaining term and by the first basis element whose leader divides it.
    Returns the remainder and the number of division steps."""
    h = {e: Fraction(c) for e, c in f.items() if c}
    leads = [(max(g, key=key), g) for g in basis]
    rem = {}
    steps = 0
    while h:
        e0 = max(h, key=key)
        for ge, g in leads:
            if divides(ge, e0):
                break
        else:
            rem[e0] = h.pop(e0)
            continue
        q = h[e0] / g[ge]
        shift = tuple(a - b for a, b in zip(e0, ge))
        for e, c in g.items():
            m = tuple(a + b for a, b in zip(e, shift))
            v = h.get(m, 0) - q * c
            if v:
                h[m] = v
            else:
                del h[m]
        steps += 1
    return rem, steps


def random_poly(rng, terms, degree, coeff):
    out = {}
    for _ in range(terms):
        e = [0, 0, 0]
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(3)] += 1
        out[tuple(e)] = rng.choice([-1, 1]) * rng.randint(1, coeff)
    return out


def term(e, c):
    return key(e), pure._pack(e), c


def decoded(tail):
    return {pure._unpack(p, 3): c for _, p, c in tail}


def engine_poly(f):
    return sorted((term(e, c) for e, c in f.items() if c), reverse=True)


def head(f):
    return pure._head(engine_poly(f), 3)


def cases(seed, count):
    """Random Groebner bases with non-unit leading coefficients and inputs
    whose reduction takes more than twice the content stride."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        gens = [random_poly(rng, rng.randint(2, 4), 3, 7) for _ in range(3)]
        raw = [list(g.items()) for g in gens]
        basis = [dict(b) for b in pure.buchberger(raw, 3, KIND, BLOCK, LIMITS.max_pairs, LIMITS.max_degree)]
        if not basis or any(max(g, key=key) == (0, 0, 0) for g in basis):
            continue
        f = random_poly(rng, rng.randint(10, 20), 7, 9)
        rem, steps = remainder_over_q(f, basis)
        if steps > 2 * pure._CONTENT_STRIDE:
            found.append((basis, gens, f, rem))
    return found


def summed_terms(f, g):
    """f as unsorted engine terms with repeated keys: the terms of f + g,
    then those of -g."""
    fg = dict(f)
    for e, c in g.items():
        fg[e] = fg.get(e, 0) + c
    return [term(e, c) for e, c in fg.items() if c] + [term(e, -c) for e, c in g.items()]


def test_reduce_keeps_the_fraction_free_contract():
    rng = random.Random(1618)
    leading_coeffs = set()
    for basis, _, f, rem in cases(2718, 30):
        leads = [max(g, key=key) for g in basis]
        leading_coeffs.update(g[e] for g, e in zip(basis, leads))
        kbasis = [head(g) for g in basis]
        g = random_poly(rng, rng.randint(5, 10), 7, 9)
        shapes = (engine_poly(f), summed_terms(f, g))
        for track, terms in product((True, False), shapes):
            tail, mult = pure._reduce(terms, kbasis, track_multiplier=track)
            assert [t[0] for t in tail] == sorted((t[0] for t in tail), reverse=True)
            tail = decoded(tail)
            assert 0 not in tail.values()
            assert not any(divides(g, e) for e in tail for g in leads)
            if track:
                # mult*f - tail lies in the ideal: it divides to zero by the basis
                diff = {e: mult * c for e, c in f.items()}
                for e, c in tail.items():
                    diff[e] = diff.get(e, 0) - c
                assert mult != 0 and remainder_over_q(diff, basis)[0] == {}
                assert {e: Fraction(c, mult) for e, c in tail.items()} == rem
            elif rem:
                # the primitive multiple of the remainder, leading coefficient > 0
                top = max(rem, key=key)
                assert {e: c / rem[top] * tail[top] for e, c in rem.items()} == tail
                assert tail[top] > 0
                assert gcd(*tail.values()) == 1
            else:
                assert tail == {}
    assert leading_coeffs - {1}, "no basis with a leading coefficient other than 1"


def test_normal_form_is_the_remainder_over_q():
    rng = random.Random(31)
    for basis, gens, f, rem in cases(1414, 15):
        G = buchberger(IdealPresentation(CTX, [MultiPoly(CTX, g) for g in gens]))
        den = rng.randint(1, 6)
        F = MultiPoly(CTX, {e: Fraction(c, den) for e, c in f.items()})
        assert normal_form(F, G) == MultiPoly(CTX, {e: c / den for e, c in rem.items()})


def test_a_head_with_the_same_variables_need_not_divide():
    # x*y and x^2*y have the same variables, so only the exponents decide
    g = {(2, 1, 0): 3, (0, 0, 2): 1}
    f = {(1, 1, 0): 2, (0, 1, 1): -5}
    for track in (True, False):
        tail, mult = pure._reduce(engine_poly(f), [head(g)], track_multiplier=track)
        assert decoded(tail) == f and mult == 1


def test_a_cancelled_input_key_created_again_is_reduced():
    # y cancels among the input terms, then reducing x by x - 2y creates it
    # again; it must be taken like any other term
    x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    g = {x: 1, y: -2}
    f = {x: 3, y: 0, z: 1}
    terms = [term(x, 3), term(y, 4), term(z, 1), term(y, -4)]
    rem, _ = remainder_over_q(f, [g])
    assert rem == {y: 6, z: 1}
    for track in (True, False):
        tail, mult = pure._reduce(terms, [head(g)], track_multiplier=track)
        assert {e: Fraction(c, mult) for e, c in decoded(tail).items()} == rem
