"""Cross-validate the Groebner engine against sympy.

sympy plays no role in the implementation, which makes its `groebner` a
fully independent oracle: for every system here the reduced basis must
match monomial for monomial, coefficient for coefficient.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from orbitcompat import (
    GREVLEX,
    LEX,
    IdealPresentation,
    MultiPoly,
    VarContext,
    buchberger,
    eliminate,
    parse_poly,
)


def _to_sympy(p: MultiPoly, syms):
    return sympy.Poly.from_dict(
        {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.terms.items()},
        *syms,
        domain="QQ",
    )


def _from_sympy(poly, ctx):
    terms = {}
    for mono, coeff in poly.terms():
        terms[tuple(int(e) for e in mono)] = Fraction(
            int(coeff.p), int(coeff.q)
        )
    return MultiPoly(ctx, terms)


_SYMPY_ORDER = {"grevlex": "grevlex", "lex": "lex"}


def _both_bases(presentation, order):
    syms = sympy.symbols(list(presentation.ctx.names))
    mine = buchberger(presentation, order)
    theirs = sympy.groebner(
        [_to_sympy(g, syms) for g in presentation.generators],
        *syms,
        order=_SYMPY_ORDER[str(order)],
        domain="QQ",
    )
    their_polys = {_from_sympy(q, presentation.ctx) for q in theirs.polys}
    return set(mine.basis), their_polys


def ideal(names, *texts):
    ctx = VarContext(list(names))
    return IdealPresentation(ctx, [parse_poly(t, ctx) for t in texts])


SYSTEMS = [
    (ideal(["x", "y", "z"], "x^2 + y*z - 1", "2*x"), GREVLEX),
    (ideal(["x", "y", "z", "t"], "x^2 + y*z - t^2", "2*x"), GREVLEX),
    (ideal(["x", "y", "z"], "y - x^2", "z - x^3"), LEX),
    (
        ideal(
            ["a", "b", "c"],
            "a^2 + b^2 + c^2 - a",
            "a*b + b*c - b",
            "a + 2*b + 2*c - 1",
        ),
        GREVLEX,
    ),
    (
        ideal(
            ["x", "y", "z"],
            "x + y + z",
            "x*y + y*z + z*x",
            "x*y*z - 1",
        ),
        LEX,
    ),
]


@pytest.mark.parametrize("presentation,order", SYSTEMS)
def test_reduced_bases_match_sympy(presentation, order):
    mine, theirs = _both_bases(presentation, order)
    assert mine == theirs


def test_orbit_fibre_bases_match_sympy(fibration_110):
    d = fibration_110
    for pres in (d["I"], d["I_hom"], d["J_hom"]):
        mine, theirs = _both_bases(pres, GREVLEX)
        assert mine == theirs


def test_random_systems_match_sympy():
    rng = random.Random(31337)
    names = ["x", "y", "z"]
    ctx = VarContext(names)
    for _ in range(15):
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                mono = tuple(rng.randint(0, 2) for _ in range(3))
                terms[mono] = Fraction(rng.randint(-5, 5))
            p = MultiPoly(ctx, terms)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        pres = IdealPresentation(ctx, gens)
        order = rng.choice([GREVLEX, LEX])
        mine, theirs = _both_bases(pres, order)
        assert mine == theirs, [str(g) for g in gens]


def _eliminated_by_sympy(presentation, v):
    """Reduced grevlex basis of I ∩ Q[ctx minus v], through sympy alone: the
    elements of the lex basis with v first that are free of v generate the
    intersection, and sympy's grevlex run on them reduces that basis."""
    names = list(presentation.ctx.names)
    rest = [n for n in names if n != v]
    syms = sympy.symbols([v] + rest)
    lex_ctx = VarContext([v] + rest)
    lex = sympy.groebner(
        [_to_sympy(g.map_context(lex_ctx), syms) for g in presentation.generators],
        *syms,
        order="lex",
        domain="QQ",
    )
    free = [q.as_expr() for q in lex.polys if q.degree(syms[0]) <= 0]
    if not free:
        return set()
    kept = sympy.groebner(free, *syms[1:], order="grevlex", domain="QQ")
    return {_from_sympy(q, VarContext(rest)) for q in kept.polys}


def test_random_eliminations_match_sympy():
    """``eliminate`` runs the block elimination order; its output, reduced
    under grevlex, must equal sympy's lex-then-grevlex route."""
    rng = random.Random(27182)
    checked = 0
    while checked < 15:
        names = ["x", "y", "z", "w"][: rng.randint(3, 4)]
        ctx = VarContext(names)
        gens = []
        for _ in range(rng.randint(2, 3)):
            terms = {}
            for _ in range(rng.randint(2, 3)):
                mono = tuple(rng.randint(0, 2) for _ in names)
                terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            p = MultiPoly(ctx, terms)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        pres = IdealPresentation(ctx, gens)
        v = rng.choice(names)
        mine = set(buchberger(eliminate(pres, {v}), GREVLEX).basis)
        assert mine == _eliminated_by_sympy(pres, v), ([str(g) for g in gens], v)
        checked += 1
