"""Core polynomial arithmetic, rationals, orders and homogenisation."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcompat import (
    GREVLEX,
    LEX,
    ContextMismatch,
    IdealPresentation,
    MultiPoly,
    PolyError,
    VarContext,
    buchberger,
    dehomogenise_poly,
    elimination,
    homogenise_poly,
    normal_form,
    parse_poly,
)
from operator import add

from orbitcompat.polyring import MAX_EXPONENT


# -- exact rational scalars ---------------------------------------------------


def test_rationals_are_normalised():
    assert Fraction(2, 4) == Fraction(1, 2)
    assert Fraction(1, -2).denominator == 2  # denominator always positive
    assert Fraction(1, -2).numerator == -1
    assert Fraction(0, 7) == Fraction(0, 1)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_rationals_agree_with_integers(a, b):
    assert Fraction(a) + Fraction(b) == a + b
    assert Fraction(a) * Fraction(b) == a * b


# -- contexts -----------------------------------------------------------------


def test_context_rejects_duplicates_and_bad_names():
    with pytest.raises(PolyError):
        VarContext(["x", "x"])
    with pytest.raises(PolyError):
        VarContext(["1x"])
    with pytest.raises(PolyError):
        VarContext(["_x", "y"])
    with pytest.raises(PolyError):
        VarContext([])
    ctx = VarContext(["x", "y"])
    assert ctx.index("y") == 1
    with pytest.raises(PolyError):
        ctx.index("z")


def test_context_extend_and_fresh():
    ctx = VarContext(["x", "w"])
    assert ctx.fresh_name("w") == "w0"
    assert ctx.extend("t").names == ("x", "w", "t")
    with pytest.raises(PolyError):
        ctx.extend("x")


# -- arithmetic examples ------------------------------------------------------

XY = VarContext(["x", "y", "z"])


def P(text, ctx=XY):
    return parse_poly(text, ctx)


def test_addition_cancels():
    ctx = VarContext(["x"])
    assert P("x + 1", ctx) + P("x - 1", ctx) == P("2*x", ctx)


def test_difference_of_squares():
    ctx = VarContext(["x", "lam"])
    prod_ = P("x - lam", ctx) * P("x + lam", ctx)
    assert prod_ == P("x^2 - lam^2", ctx)


def test_multiplication_by_one_is_identity():
    p = P("x^2 + y*z - 1")
    assert p * MultiPoly.constant(XY, 1) == p


def test_context_mismatch_raises():
    with pytest.raises(ContextMismatch):
        P("x", VarContext(["x"])) + P("x", VarContext(["x", "y"]))


# every route that can sum coefficients to zero; the constructor drops the
# zero sums, so none is stored
@pytest.mark.parametrize(
    "make",
    [
        lambda: P("x + y") - P("y") - P("x"),
        lambda: P("x + y") * P("x - y") + P("y^2 - x^2"),
        lambda: P("x*y - y").substitute({"x": 1}),
        lambda: dehomogenise_poly(P("t*x - x", VarContext(["x", "t"])), "t"),
        lambda: P("x^2 + 3*y").scale(0),
        lambda: P("x*y - y*x"),
        lambda: P("2*x*y + y*x - 3*x*y"),
    ],
    ids=["sub", "mul", "substitute", "dehomogenise", "scale", "parse", "parse-ints"],
)
def test_zero_terms_never_stored(make):
    f = make()
    assert f.is_zero() and f.terms == {}


def test_exponent_overflow_is_hard_error():
    with pytest.raises(PolyError, match="overflow"):
        P("x") ** MAX_EXPONENT * P("x")


def test_construction_rejects_out_of_range_exponents():
    ctx = VarContext(["x", "y"])
    with pytest.raises(PolyError, match="negative exponent"):
        MultiPoly(ctx, {(1, 0): 1, (2, -1): 3})
    with pytest.raises(PolyError, match="overflow"):
        MultiPoly(ctx, {(0, MAX_EXPONENT + 1): 1})
    assert MultiPoly(ctx, {(MAX_EXPONENT, 0): 2}).terms == {(MAX_EXPONENT, 0): 2}


def test_construction_rejects_a_monomial_of_the_wrong_length():
    ctx = VarContext(["x", "y"])
    with pytest.raises(PolyError, match="^monomial length does not match context$"):
        MultiPoly(ctx, {(1, 0): 1, (1, 0, 0): 2})
    with pytest.raises(PolyError, match="^monomial length does not match context$"):
        MultiPoly(ctx, {(1,): 1})


def test_zero_coefficients_are_dropped_before_any_monomial_check():
    ctx = VarContext(["x", "y"])
    assert MultiPoly(ctx, {(1, -1): 0}).is_zero()
    assert MultiPoly(ctx, {(1, -1): Fraction(0), (0,): 0}).terms == {}
    assert MultiPoly(ctx, {(0, MAX_EXPONENT + 1): 0, (1, 1): 3}).terms == {(1, 1): 3}


# every construction route, each against a fixed polynomial.  The arithmetic
# adds coefficients only where monomials collide and parse_poly passes
# integer coefficients on as ints, so only the constructor makes them
# Fractions; an int stored in terms fails the type check here
F = Fraction
X, Y, Z, ONE = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
_LINEAR = IdealPresentation(XY, [P("2*x - 1"), P("3*y + 2"), P("z - x")])


@pytest.mark.parametrize(
    "make, want",
    [
        (lambda: P("x + 1/2") + P("x - y"), {X: F(2), ONE: F(1, 2), Y: F(-1)}),
        (lambda: P("x + y") - P("x - 2*z"), {Y: F(1), Z: F(2)}),
        (lambda: P("x + 1") * P("x - 1/3"), {(2, 0, 0): F(1), X: F(2, 3), ONE: F(-1, 3)}),
        (lambda: P("x - y") * P("x + y"), {(2, 0, 0): F(1), (0, 2, 0): F(-1)}),
        (lambda: P("x + 1/2").scale(4), {X: F(4), ONE: F(2)}),
        (lambda: 3 * P("x"), {X: F(3)}),
        (lambda: P("x*y + 2*y - z").substitute({"x": 2, "z": F(1, 2)}), {Y: F(4), ONE: F(-1, 2)}),
        (
            lambda: dehomogenise_poly(P("x*t + 2*x - t^2", VarContext(["x", "t"])), "t"),
            {(1,): F(3), (0,): F(-1)},
        ),
        (lambda: homogenise_poly(P("x^2 + 2"), "t"), {(2, 0, 0, 0): F(1), (0, 0, 0, 2): F(2)}),
        (lambda: buchberger(_LINEAR).basis[0], {Z: F(1), ONE: F(-1, 2)}),
        (lambda: normal_form(P("x*y + z"), buchberger(_LINEAR)), {ONE: F(1, 6)}),
        (lambda: P("3*x - 2"), {X: F(3), ONE: F(-2)}),
        (lambda: P("1/2*x - 3/4*y"), {X: F(1, 2), Y: F(-3, 4)}),
        (lambda: P("2*x*y + y*x - 3*x*y + 5*z - z"), {Z: F(4)}),
        (lambda: P("2*x*y + y*x + 1/2*y*x"), {(1, 1, 0): F(7, 2)}),
    ],
    ids=[
        "add", "sub", "mul", "mul-cancel", "scale", "rmul", "substitute",
        "dehomogenise", "homogenise", "buchberger", "normal_form",
        "parse-int", "parse-fraction", "parse-repeated", "parse-mixed",
    ],
)
def test_every_route_stores_fraction_coefficients(make, want):
    f = make()
    assert f.terms == want
    assert all(type(c) is Fraction for c in f.terms.values())


# -- ring axioms on random small polynomials ----------------------------------

_coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
_monos = st.tuples(*(st.integers(0, 3) for _ in range(3)))
_polys = st.dictionaries(_monos, _coeffs, max_size=5).map(
    lambda d: MultiPoly(XY, d)
)


@settings(max_examples=60)
@given(_polys, _polys, _polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# -- homogenisation ------------------------------------------------------------


def test_homogenise_quadric():
    assert homogenise_poly(P("x^2 + y*z - 1"), "t") == parse_poly(
        "x^2 + y*z - t^2", VarContext(["x", "y", "z", "t"])
    )


def test_homogenise_fibre():
    ctx = VarContext(["y", "z"])
    assert homogenise_poly(parse_poly("y*z - 1", ctx), "t") == parse_poly(
        "y*z - t^2", VarContext(["y", "z", "t"])
    )


def test_homogenise_fixed_point():
    h = homogenise_poly(P("x^2 + y*z"), "t")
    assert h == parse_poly("x^2 + y*z", VarContext(["x", "y", "z", "t"]))


def test_homogenise_rejects_zero_and_collisions():
    with pytest.raises(PolyError):
        homogenise_poly(MultiPoly.zero(XY), "t")
    with pytest.raises(PolyError):
        homogenise_poly(P("x"), "y")


@settings(max_examples=60)
@given(_polys)
def test_homogenise_round_trip(f):
    if f.is_zero():
        return
    h = homogenise_poly(f, "t")
    assert h.is_homogeneous()
    assert h.degree() == f.degree()
    assert dehomogenise_poly(h, "t") == f


# -- monomial orders -----------------------------------------------------------

_orders = [LEX, GREVLEX, elimination(1), elimination(2)]


def _all_monomials(nvars, maxdeg):
    return [
        m for m in product(range(maxdeg + 1), repeat=nvars) if sum(m) <= maxdeg
    ]


@pytest.mark.parametrize("order", _orders, ids=str)
@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_order_is_total_and_one_minimal(order, nvars):
    monos = _all_monomials(nvars, 4)
    keys = [order.key(m) for m in monos]
    assert len(set(keys)) == len(keys)  # total: no two monomials tie
    one = (0,) * nvars
    assert all(order.key(one) <= k for k in keys)


@pytest.mark.parametrize("order", _orders, ids=str)
def test_order_is_multiplicative(order):
    monos = _all_monomials(3, 3)
    for a in monos[:20]:
        for b in monos[:20]:
            if order.key(a) < order.key(b):
                for w in monos[:10]:
                    aw, bw = tuple(map(add, a, w)), tuple(map(add, b, w))
                    assert order.key(aw) < order.key(bw)


def test_elimination_order_separates_blocks():
    order = elimination(1)
    # any monomial containing the first variable beats any without it
    assert order.key((1, 0, 0)) > order.key((0, 5, 5))


def test_grevlex_tie_break():
    # x^2 > y*z > t^2 in grevlex over (x, y, z, t)
    kx2 = GREVLEX.key((2, 0, 0, 0))
    kyz = GREVLEX.key((0, 1, 1, 0))
    kt2 = GREVLEX.key((0, 0, 0, 2))
    assert kx2 > kyz > kt2
