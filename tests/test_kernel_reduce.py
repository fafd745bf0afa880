"""Property test of the pure engine's fraction-free reduction against the
division algorithm over Q, on seeded random inputs whose leading coefficients
grow past the bit length that starts a content pass (``pure._CONTENT_BITS``),
given sorted or as unsorted terms to sum; and a reduction whose remainder
builds up content, which the passes must keep bounded."""

import random
from contextlib import contextmanager
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
L = pure._layout(3, 16, KIND, BLOCK)  # the layout every run starts in


def key(e):
    return pure._encode(e, L)[0]


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
    return *pure._encode(e, L), c


def decoded(tail):
    return {pure._unpack(p, L): c for _, p, c in tail}


def engine_poly(f):
    return sorted((term(e, c) for e, c in f.items() if c), reverse=True)


def reduce(terms, basis, track):
    """``pure._reduce`` of engine ``terms`` modulo a basis of {exp: coeff}
    dicts, with the basis's own degree bound."""
    top = max(sum(e) for g in basis for e in g)
    return pure._reduce(terms, [engine_poly(g) for g in basis], L, top, track_multiplier=track)


def cases(seed, count):
    """Random Groebner bases with non-unit leading coefficients and inputs
    whose reduction takes more than 16 steps.  The input's coefficients share
    a factor of ``pure._CONTENT_BITS - 4`` bits, so a few scaling steps take
    the leading coefficient past ``_CONTENT_BITS`` in the middle of the
    reduction, and a content pass has that factor to divide out."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        gens = [random_poly(rng, rng.randint(2, 4), 3, 7) for _ in range(3)]
        raw = [list(g.items()) for g in gens]
        minimal = pure.buchberger(raw, 3, KIND, BLOCK, LIMITS.max_pairs, LIMITS.max_degree)
        basis = [dict(b) for b in pure.interreduce(minimal)]
        if not basis or any(max(g, key=key) == (0, 0, 0) for g in basis):
            continue
        common = rng.getrandbits(pure._CONTENT_BITS - 4) | 1 << (pure._CONTENT_BITS - 5)
        f = {e: common * c for e, c in random_poly(rng, rng.randint(10, 20), 7, 9).items()}
        rem, steps = remainder_over_q(f, basis)
        if steps > 16:
            found.append((basis, gens, f, rem))
    return found


@contextmanager
def content_passes(monkeypatch):
    """Record ``_reduce``'s content passes: for each, whether it divided
    the leading coefficient by a content greater than 1."""
    passes = []
    divide = pure._divide_content

    def spy(h, c0, mult, track_multiplier):
        out = divide(h, c0, mult, track_multiplier)
        passes.append(out[0] != c0)
        return out

    with monkeypatch.context() as m:
        m.setattr(pure, "_divide_content", spy)
        yield passes


def summed_terms(f, g):
    """f as unsorted engine terms with repeated keys: the terms of f + g,
    then those of -g."""
    fg = dict(f)
    for e, c in g.items():
        fg[e] = fg.get(e, 0) + c
    return [term(e, c) for e, c in fg.items() if c] + [term(e, -c) for e, c in g.items()]


def test_reduce_keeps_the_fraction_free_contract(monkeypatch):
    rng = random.Random(1618)
    leading_coeffs = set()
    divided = False
    for basis, _, f, rem in cases(2718, 30):
        leads = [max(g, key=key) for g in basis]
        leading_coeffs.update(g[e] for g, e in zip(basis, leads))
        g = random_poly(rng, rng.randint(5, 10), 7, 9)
        shapes = (engine_poly(f), summed_terms(f, g))
        for track, terms in product((True, False), shapes):
            with content_passes(monkeypatch) as passes:
                tail, mult = reduce(terms, basis, track)
            assert passes, "the reduction ran no content pass"
            divided = divided or any(passes)
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
    assert divided, "no content pass divided out a content"


def test_normal_form_is_the_remainder_over_q(monkeypatch):
    rng = random.Random(31)
    for basis, gens, f, rem in cases(1414, 15):
        G = buchberger(IdealPresentation(CTX, [MultiPoly(CTX, g) for g in gens]))
        den = rng.randint(1, 6)
        F = MultiPoly(CTX, {e: Fraction(c, den) for e, c in f.items()})
        with content_passes(monkeypatch) as passes:
            nf = normal_form(F, G)
        assert passes, "the reduction ran no content pass"
        assert nf == MultiPoly(CTX, {e: c / den for e, c in rem.items()})


def test_normal_form_leaves_its_keyed_basis_unchanged():
    # the reducers are the caller's own lists, shared by every call
    for basis, _, f, rem in cases(577, 3):
        lists = pure.Basis.of_lists([list(g.items()) for g in basis], 3, KIND, BLOCK)
        keyed = pure.interreduce(lists)
        before = [list(g) for g in keyed.polys], [list(g) for g in keyed]
        for _ in range(2):
            tail, mult = pure.normal_form(list(f.items()), keyed)
            assert {e: Fraction(c, mult) for e, c in tail} == rem
            assert (keyed.polys, keyed) == before


def test_content_passes_bound_a_tracked_remainder():
    # modulo a*x - y and y - a*z, x^n is z^n; reducing c*x^n scales by a at
    # each of n steps by the first (mult = a^n), then each step by the
    # second multiplies the remainder by a, so without content passes the
    # tail would end as c*a^n*z^n over mult = a^n
    rng = random.Random(2024)
    a = rng.choice([2, 3, 5, 7])
    n = rng.randint(150, 250)
    c = rng.choice([-1, 1]) * rng.choice([k for k in range(1, 10) if k % a])
    x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    basis = [{x: a, y: -1}, {y: 1, z: -a}]
    f = {(n, 0, 0): c}
    tail, mult = reduce(engine_poly(f), basis, True)
    tail = decoded(tail)
    assert tail == {(0, 0, n): c * mult}
    assert 0 < mult.bit_length() <= 2 * pure._CONTENT_BITS < n


def test_top_only_reduction_leaves_the_tail_as_it_stands():
    # modulo x - z, x*y steps to y*z and then y^2 leads, irreducible; top-only
    # reduction stops there and keeps x*z, which full reduction takes to z^2
    x2, xy, y2, xz, yz, z2 = (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)
    g = engine_poly({(1, 0, 0): 1, (0, 0, 1): -1})
    f = engine_poly({xy: 1, y2: 1, xz: 1})
    for top_only, want in ((True, {y2: 1, xz: 1, yz: 1}), (False, {y2: 1, yz: 1, z2: 1})):
        tail, _ = pure._reduce(f, [g], L, 1, top_only=top_only)
        assert [t[0] for t in tail] == sorted((t[0] for t in tail), reverse=True)
        assert decoded(tail) == want
    # a reducible leader is still reduced: x^2 steps to x*z, then to z^2
    tail, _ = pure._reduce(engine_poly({x2: 1}), [g], L, 1, top_only=True)
    assert decoded(tail) == {z2: 1}


def test_a_head_with_the_same_variables_need_not_divide():
    # x*y and x^2*y have the same variables, so only the exponents decide
    g = {(2, 1, 0): 3, (0, 0, 2): 1}
    f = {(1, 1, 0): 2, (0, 1, 1): -5}
    for track in (True, False):
        tail, mult = reduce(engine_poly(f), [g], track)
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
        tail, mult = reduce(terms, [g], track)
        assert {e: Fraction(c, mult) for e, c in decoded(tail).items()} == rem


def test_a_key_cancelled_and_made_again_enters_the_leader_list_once(monkeypatch):
    # modulo x^2 - z^2, x*y + z^2 and y^2 - z^2, reducing x^2 + x*y + y^2
    # makes z^2, cancels it and makes it again, all before z^2 is taken
    x2, xy, y2, z2 = (2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 2)
    basis = [{x2: 1, z2: -1}, {xy: 1, z2: 1}, {y2: 1, z2: -1}]
    f = {x2: 1, xy: 1, y2: 1}
    made = []

    def insort(order, k):
        assert k not in order, "a key entered the leader list twice"
        made.append(k)
        pure_insort(order, k)

    pure_insort = pure.insort
    monkeypatch.setattr(pure, "insort", insort)
    tail, mult = reduce(engine_poly(f), basis, True)
    assert made == [key(z2)]
    assert decoded(tail) == {z2: mult} and mult == 1
