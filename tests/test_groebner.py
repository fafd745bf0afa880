"""Groebner bases, ideal predicates, elimination, saturation and the two
homogenisations, checked against independent oracles wherever a value is
derived rather than trivial."""

import io
import pickle
import random
from fractions import Fraction

import pytest

import orbitcompat.groebner as groebner
from orbitcompat import (
    DiagSpec,
    GBLimits,
    GREVLEX,
    LEX,
    IdealPresentation,
    MultiPoly,
    PolyError,
    ReducedGB,
    ResourceLimitExceeded,
    VarContext,
    buchberger,
    dehomogenise_ideal,
    eliminate,
    elimination,
    fibre_ideal,
    homogenise_ideal,
    homogenise_naive,
    homogenise_poly,
    ideal_contains,
    ideal_equal,
    normal_form,
    orbit_ideal_charvalues,
    orbit_ideal_minpoly,
    parse_poly,
    saturate,
)
from orbitcompat._kernel import pure
from orbitcompat.hilbert import hilbert
from orbitcompat.ioformats import read_ideal, write_ideal
from test_kernel_signature import SINGULAR_CASES

XYZ = VarContext(["x", "y", "z"])


def P(text, ctx=XYZ):
    return parse_poly(text, ctx)


def ideal(ctx, *texts):
    return IdealPresentation(ctx, [parse_poly(t, ctx) for t in texts])


# -- presentations --------------------------------------------------------------


def test_a_presentation_drops_zeros_and_duplicates_in_order():
    f, g = P("x^2 - y*z"), P("y - 1")
    I = IdealPresentation(XYZ, [f, MultiPoly(XYZ, {}), g, f])
    assert I.generators == (f, g)
    assert IdealPresentation(XYZ, [g, f, g]).generators == (g, f)
    assert IdealPresentation(XYZ, [MultiPoly(XYZ, {})]).is_zero_ideal()


def test_the_sl2_minpoly_orbit_has_one_generator():
    # A^2 - 1 = (x^2 + y*z - 1)*Id for A = [[x, y], [z, -x]]: its four
    # entries are two zeros and one polynomial twice
    I = orbit_ideal_minpoly(DiagSpec([1, -1])).presentation
    assert I.generators == (P("x^2 + y*z - 1", I.ctx),)


# -- buchberger ----------------------------------------------------------------


@pytest.mark.parametrize("order", [LEX, elimination(1)], ids=["lex", "elim"])
def test_an_inhomogeneous_basis_under_another_order_is_inhomogeneous(order):
    # under these orders x + y^2 + z's first and last terms, x and z, have
    # one degree; only under grevlex do they have its largest and smallest
    G = buchberger(ideal(XYZ, "x + y^2 + z"), order)
    assert not G.is_homogeneous()
    with pytest.raises(PolyError):
        hilbert(G)


def test_principal_ideal_is_its_own_basis():
    G = buchberger(ideal(XYZ, "x^2 + y*z - 1"))
    assert [str(g) for g in G.basis] == ["x^2 + y*z - 1"]


def test_linear_elimination_lex():
    ctx = VarContext(["x", "y"])
    G = buchberger(ideal(ctx, "x", "x - y"), LEX)
    assert {str(g) for g in G.basis} == {"x", "y"}


def test_equal_ideals_reduce_to_one_basis(fibration_110):
    d = fibration_110
    GI = buchberger(d["I"])
    GJ = buchberger(d["J"])
    assert GI == GJ
    # oracle: mutual membership of the generators
    assert all(normal_form(g, GJ).is_zero() for g in d["I"].generators)
    assert all(normal_form(g, GI).is_zero() for g in d["J"].generators)


def test_equal_ideals_hash_alike(fibration_110):
    # equality and hashing read the reduced basis's integer lists, which are
    # canonical: two presentations of one ideal, and a pickled copy, hash
    # alike, for the affine bases and for their saturated closures
    d = fibration_110
    for make in (buchberger, lambda I: buchberger(homogenise_ideal(I, "t"))):
        G, H = make(fresh(d["I"])), make(fresh(d["J"]))
        back = pickle.loads(pickle.dumps(G))
        assert G == H == back
        assert hash(G) == hash(H) == hash(back)


def test_basis_is_reduced_and_monic(fibration_110):
    G = buchberger(fibration_110["I_hom"])
    leads = G.leading_monomials()
    for i, g in enumerate(G.basis):
        assert g.leading_coeff(G.order) == 1
        for mono in g.terms:
            assert not any(
                all(a <= b for a, b in zip(leads[j], mono))
                for j in range(len(leads))
                if j != i
            )


def test_leading_monomials_are_the_first_terms(fibration_110, fibration_321):
    # each element is stored leading term first, by the kernel under every
    # order kind and by homogenise_ideal in the basis it attaches.  Under
    # grevlex they are read off the kernel's minimal basis, before any tail
    # is reduced, and must be the reduced basis's
    bases = []
    for d in (fibration_110, fibration_321):
        bases += [buchberger(d["I"], order) for order in (LEX, elimination(2))]
        bases.append(homogenise_ideal(d["I"], "t")._bases[GREVLEX])
        for name in ("I", "J", "I_hom", "J_hom"):
            G = buchberger(fresh(d[name]))
            G.leading_monomials()
            assert G._basis is None, "the leading monomials were read off the reduced basis"
            bases.append(G)
    for G in bases:
        assert G.leading_monomials() == tuple(G.order.leading(g.terms) for g in G.basis)


def test_generator_permutations_reach_the_same_basis(fibration_110):
    I = fibration_110["I_hom"]
    G0 = buchberger(I)
    rng = random.Random(17)
    gens = list(I.generators)
    for _ in range(20):
        rng.shuffle(gens)
        assert buchberger(IdealPresentation(I.ctx, gens)) == G0


def test_resource_limit_raises():
    # katsura-3's dense quadrics need three S-pairs, so a one-pair cap trips
    ctx = VarContext(["a", "b", "c", "d"])
    gens = ideal(
        ctx,
        "a^2 + 2*b^2 + 2*c^2 + 2*d^2 - a",
        "2*a*b + 2*b*c + 2*c*d - b",
        "b^2 + 2*a*c + 2*b*d - c",
        "a + 2*b + 2*c + 2*d - 1",
    )
    with pytest.raises(ResourceLimitExceeded):
        buchberger(gens, GREVLEX, GBLimits(max_pairs=1))


@pytest.mark.parametrize("caps", [{"max_pairs": -3}, {"max_degree": -1}])
def test_negative_caps_are_refused_when_built(caps):
    (name,) = caps
    with pytest.raises(ValueError, match=f"GBLimits.{name} must be >= 0"):
        GBLimits(**caps)


def test_input_degree_cap_raises_before_the_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the kernel must not run past the input degree cap")

    I = ideal(XYZ, "x^3 + y", "y*z - 1")
    assert buchberger(I, GREVLEX, GBLimits(max_degree=3)) == buchberger(I)
    closed = homogenise_ideal(I, "t")
    monkeypatch.setattr(groebner._kernel, "buchberger_raw", refuse)
    with pytest.raises(ResourceLimitExceeded, match="degree 3"):
        buchberger(I, GREVLEX, GBLimits(max_degree=2))
    # an attached basis is no way round the cap
    with pytest.raises(ResourceLimitExceeded, match="degree 3"):
        buchberger(closed, GREVLEX, GBLimits(max_degree=2))


def test_degree_cap_bounds_every_polynomial_the_kernel_makes():
    # under lex, x - y^3 reduces the quadric x^2 - 1 to y^6 - 1
    xy = VarContext(["x", "y"])
    I = ideal(xy, "x - y^3", "x^2 - 1")
    with pytest.raises(ResourceLimitExceeded, match="degree cap 3"):
        buchberger(I, LEX, GBLimits(max_degree=3))
    G = buchberger(I, LEX, GBLimits(max_degree=6))
    assert G.basis == (P("y^6 - 1", xy), P("x - y^3", xy))


def test_degree_cap_bounds_the_reduced_tails_of_a_lex_basis():
    # the pair loop ends with the lex basis {y*z - z^5, y^3 - y^2*z^4,
    # x^4*z^6 - z^9 - z} of degree 10, and reducing the tail of y^3 makes
    # y^3 - z^12; buchberger reduces tails under other orders than grevlex
    # at once, under the cap
    I = ideal(XYZ, "y^3 - y^2*z^4", "x^4*y*z^2 - y^2*z - z")
    with pytest.raises(ResourceLimitExceeded, match="degree cap 11 .* degree 12"):
        buchberger(I, LEX, GBLimits(max_degree=11))
    G = buchberger(I, LEX, GBLimits(max_degree=12))
    assert G.basis == tuple(P(t) for t in ("y*z - z^5", "y^3 - z^12", "x^4*z^6 - z^9 - z"))


# -- normal form ----------------------------------------------------------------


def test_combination_of_generators_reduces_to_zero(fibration_110):
    d = fibration_110
    G = buchberger(IdealPresentation(d["I"].ctx, [d["p"], d["q"]]))
    x1 = MultiPoly.variable(d["I"].ctx, "x1")
    assert normal_form(d["p"] * x1 + d["q"], G).is_zero()


def test_unit_survives_proper_ideal():
    G = buchberger(ideal(XYZ, "x^2 + y*z - 1"))
    one = MultiPoly.constant(XYZ, 1)
    assert normal_form(one, G) == one


def test_homogenised_q_lies_in_J_hom(fibration_110):
    d = fibration_110
    # identity: q^h = p^h - t * (p-q)^h, checked by direct expansion
    ph = homogenise_poly(d["p"], "t")
    qh = homogenise_poly(d["q"], "t")
    pmqh = homogenise_poly(d["p"] - d["q"], "t")
    t = MultiPoly.variable(ph.ctx, "t")
    assert qh == ph - t * pmqh
    GJ = buchberger(d["J_hom"])
    assert normal_form(qh, GJ).is_zero()


def test_normal_form_idempotent_and_linear(fibration_110):
    d = fibration_110
    G = buchberger(d["I_hom"])
    ctx = d["I_hom"].ctx
    rng = random.Random(5)
    names = ctx.names
    for _ in range(8):
        f = MultiPoly.constant(ctx, rng.randint(-3, 3))
        for _ in range(4):
            f = f * parse_poly(rng.choice(names), ctx) + MultiPoly.constant(
                ctx, rng.randint(-2, 2)
            )
        g = parse_poly(rng.choice(names), ctx) * parse_poly(rng.choice(names), ctx)
        nf = normal_form(f, G)
        assert normal_form(nf, G) == nf
        assert normal_form(f + g, G) == normal_form(nf + normal_form(g, G), G)


def test_directly_built_basis_reduces_alike(fibration_110):
    # buchberger hands over the kernel's minimal basis and tail-reduces it
    # on first use; a basis built from the reduced basis's term lists, a
    # minimal basis too, must equal it, hash and print alike, and give the
    # same normal forms
    I = fibration_110["I_hom"]
    reduced = buchberger(fresh(I)).basis
    lists = [groebner._clear_denominators(g)[1] for g in reduced]
    for compare in (hash, repr, str, lambda G: G):
        G = buchberger(fresh(I))
        assert G._basis is None, "the basis was reduced before it was read"
        H = ReducedGB(G.ctx, G.order, lists)
        assert compare(G) == compare(H)
    assert G == H and G.basis == reduced
    ctx = G.ctx
    for text in ("x1^3*t", "x2*y3 - z1^2 + 3", "t^4 + y1*z2"):
        f = parse_poly(text, ctx)
        assert normal_form(f, H) == normal_form(f, G)


def test_a_minimal_basis_must_start_each_element_with_its_leading_term():
    # lists that are not a kernel Basis are checked: y + x^2 does not start
    # with its grevlex leading term x^2, and an empty element has none
    ctx = VarContext(["x", "y"])
    with pytest.raises(ValueError, match="element 0"):
        ReducedGB(ctx, GREVLEX, [[((0, 1), 1), ((2, 0), 1)]])
    with pytest.raises(ValueError, match="element 1"):
        ReducedGB(ctx, GREVLEX, [[((1, 0), 1)], []])
    G = ReducedGB(ctx, GREVLEX, [[((2, 0), 1), ((0, 1), 1)]])
    assert G.leading_monomials() == ((2, 0),)
    assert [str(g) for g in G.basis] == ["x^2 + y"]


def test_a_kernel_basis_for_another_order_or_variable_count_is_refused():
    # <x - y^3, x^2 - 1> has the lex leading monomials x and y^6 and the
    # grevlex ones x^2 and y^3: a lex kernel basis taken as a grevlex one
    # would report lex leading monomials as grevlex ones
    ctx = VarContext(["x", "y"])
    I = ideal(ctx, "x - y^3", "x^2 - 1")
    raw = [groebner._clear_denominators(g)[1] for g in I.generators]
    lex_minimal = groebner._kernel.buchberger_raw(raw, 2, *LEX.code, 100, 64)
    with pytest.raises(ValueError, match="keyed for"):
        ReducedGB(ctx, GREVLEX, lex_minimal)
    with pytest.raises(ValueError, match="keyed for"):
        ReducedGB(XYZ, LEX, lex_minimal)
    G = ReducedGB(ctx, LEX, lex_minimal)
    assert G.leading_monomials() == ((0, 6), (1, 0)) == buchberger(I, LEX).leading_monomials()
    assert buchberger(I).leading_monomials() == ((2, 0), (0, 3))


def test_a_basis_is_read_only_and_pickles(fibration_110):
    G = buchberger(fresh(fibration_110["I_hom"]))
    with pytest.raises(AttributeError):
        G.order = LEX
    back = pickle.loads(pickle.dumps(G))
    assert back == G and back.leading_monomials() == G.leading_monomials()


def test_hilbert_data_needs_no_tail_reduction(fibration_110, monkeypatch):
    # hilbert reads the minimal basis of the homogeneous I_hom; reading the
    # basis, a normal form or an equality tail-reduces it, once per basis
    I = fibration_110["I_hom"]
    interreduce = groebner._kernel.interreduce_raw
    calls = []

    def refuse(*args):
        raise AssertionError("hilbert tail-reduced the basis")

    def counted(*args):
        calls.append(args)
        return interreduce(*args)

    f = parse_poly("x1^2*t + y2", I.ctx)
    for read, reductions in (
        (lambda G: G.basis, 1),
        (lambda G: normal_form(f, G), 1),
        (lambda G: ideal_equal(fresh(I), fresh(I)), 2),
    ):
        monkeypatch.setattr(groebner._kernel, "interreduce_raw", refuse)
        G = buchberger(fresh(I))
        assert hilbert(G).degree == 9
        monkeypatch.setattr(groebner._kernel, "interreduce_raw", counted)
        calls.clear()
        read(G)
        assert len(calls) == reductions


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda d: buchberger(fresh(d["I_hom"])), id="lazy-grevlex"),
        pytest.param(lambda d: buchberger(homogenise_ideal(fresh(d["J"]))), id="attached"),
        pytest.param(lambda d: buchberger(fresh(d["I"]), LEX), id="eager-lex"),
    ],
)
def test_normal_form_reuses_the_kernels_keyed_basis(fibration_110, monkeypatch, build):
    # the kernel's reduced basis comes keyed, as its term lists would key,
    # so once the basis is read a normal form keys nothing again; an
    # unpickled copy, keyed again from plain lists, gives the same normal
    # form
    G = build(fibration_110)
    cleared = [groebner._clear_denominators(g)[1] for g in G.basis]
    reduced = G._tails()
    assert reduced == cleared
    assert reduced.polys == pure._key_basis(reduced.layout, cleared)
    f = parse_poly("x2*y3 - z1^2 + 3", G.ctx) * parse_poly("x1 + y2*z2", G.ctx)
    want = normal_form(f, pickle.loads(pickle.dumps(G)))

    def refuse(*args):
        raise AssertionError("normal_form keyed the basis again")

    monkeypatch.setattr(groebner._kernel, "interreduce_raw", refuse)
    monkeypatch.setattr(pure, "_key_basis", refuse)
    assert normal_form(f, G) == want


def test_every_computed_basis_is_kept(monkeypatch):
    I = ideal(XYZ, "x^2 - y*z", "y^2 - x*z")
    runs = []
    raw = groebner._kernel.buchberger_raw

    def counted(*args):
        runs.append(args[2:4])
        return raw(*args)

    monkeypatch.setattr(groebner._kernel, "buchberger_raw", counted)
    G = buchberger(I)
    assert buchberger(I) is G
    # one kernel run per order, each basis kept beside the others
    bases = {order: buchberger(I, order) for order in (LEX, elimination(1))}
    for order, H in bases.items():
        assert buchberger(I, order) is H and H.order == order
    assert buchberger(I) is G and I._bases == {GREVLEX: G, **bases}
    assert runs == [(1, 0), (0, 0), (2, 1)]
    # a basis of another order first does not hide a later grevlex one,
    # which every grevlex reader then reuses.  With two generators in three
    # variables homogenise_ideal runs its pair loop on the naive closure,
    # once for three calls, and keeps that basis there, not on J
    J = ideal(XYZ, "x^2 - y*z", "y^2 - x*z")
    G_lex = buchberger(J, LEX)
    for _ in range(3):
        homogenise_ideal(J)
    assert GREVLEX not in J._bases and GREVLEX in homogenise_naive(J)._bases
    assert buchberger(J) is J._bases[GREVLEX] and buchberger(J, LEX) is G_lex
    assert J._bases[GREVLEX] == G and ideal_equal(J, J) and ideal_contains(J, J)
    assert runs[3:] == [(0, 0), (1, 0), (1, 0)]


def test_an_unpickled_presentation_keeps_one_basis_per_order(monkeypatch):
    I = ideal(XYZ, "x^2 - y*z", "y^2 - x*z")
    orders = (GREVLEX, LEX, elimination(1))
    want = [buchberger(I, order) for order in orders]
    back = pickle.loads(pickle.dumps(I))
    runs = []
    raw = groebner._kernel.buchberger_raw

    def counted(*args):
        runs.append(args[2:4])
        return raw(*args)

    monkeypatch.setattr(groebner._kernel, "buchberger_raw", counted)
    for _ in range(2):
        assert [buchberger(back, order) for order in orders] == want
    assert runs == []
    # a pickle made before any basis was computed runs each order once
    back = pickle.loads(pickle.dumps(ideal(XYZ, "x^2 - y*z", "y^2 - x*z")))
    for _ in range(2):
        assert [buchberger(back, order) for order in orders] == want
    assert runs == [(1, 0), (0, 0), (2, 1)]


# -- containment and equality ----------------------------------------------------


def test_naive_homogenisations_nested_strictly(fibration_110):
    d = fibration_110
    assert ideal_contains(d["J_hom"], d["I_hom"])  # I_hom inside J_hom
    assert not ideal_contains(d["I_hom"], d["J_hom"])
    # oracle for the failure: (p-q)^h does not reduce to zero mod I_hom
    pmqh = homogenise_poly(d["p"] - d["q"], "t")
    GI = buchberger(d["I_hom"])
    assert not normal_form(pmqh, GI).is_zero()


def test_ideal_contains_itself(fibration_110):
    I = fibration_110["I"]
    assert ideal_contains(I, I)


def test_ideal_equal_on_presentations(fibration_110):
    d = fibration_110
    assert ideal_equal(d["I"], d["J"])
    assert not ideal_equal(d["I_hom"], d["J_hom"])
    ctx = VarContext(["x"])
    assert not ideal_equal(ideal(ctx, "x"), ideal(ctx, "x^2"))


# -- elimination ------------------------------------------------------------------


def test_eliminate_twisted_cubic():
    I = ideal(XYZ, "y - x^2", "z - x^3")
    out = eliminate(I, {"x"})
    ctx = VarContext(["y", "z"])
    target = parse_poly("z^2 - y^3", ctx)
    G = buchberger(out)
    assert normal_form(target, G).is_zero()
    # oracle: the eliminated generators vanish under the substitution
    # y = x^2, z = x^3, checked by direct polynomial arithmetic
    x = MultiPoly.variable(XYZ, "x")
    sub = {"y": x * x, "z": x * x * x}
    for g in out.generators:
        acc = MultiPoly.zero(XYZ)
        for mono, coeff in g.terms.items():
            term = MultiPoly.constant(XYZ, coeff)
            for name, e in zip(ctx.names, mono):
                term = term * sub[name] ** e
            acc = acc + term
        assert acc.is_zero()


def test_eliminate_trivial_cases():
    ctx = VarContext(["x", "y"])
    assert eliminate(ideal(ctx, "x"), {"x"}).is_zero_ideal()
    ctx2 = VarContext(["w", "y"])
    assert eliminate(ideal(ctx2, "1 - w*y"), {"w"}).is_zero_ideal()


def test_eliminate_rejects_bad_drops():
    ctx = VarContext(["x", "y"])
    with pytest.raises(PolyError):
        eliminate(ideal(ctx, "x"), {"q"})
    with pytest.raises(PolyError):
        eliminate(ideal(ctx, "x"), {"x", "y"})


# -- saturation --------------------------------------------------------------------


def test_saturate_strips_a_variable_factor():
    ctx = VarContext(["t", "x"])
    out = saturate(ideal(ctx, "t*x"), parse_poly("t", ctx))
    assert ideal_equal(out, ideal(ctx, "x"))


def test_saturate_smooth_quadric_is_fixed():
    ctx = VarContext(["x", "y", "z", "t"])
    I = ideal(ctx, "x^2 + y*z - t^2")
    out = saturate(I, parse_poly("t", ctx))
    assert out.ctx == I.ctx
    # oracle: already saturated, so membership both ways and idempotence
    assert ideal_equal(out, I)
    assert ideal_equal(saturate(out, parse_poly("t", ctx)), out)


def test_saturate_by_own_generator_gives_unit():
    ctx = VarContext(["x", "y"])
    out = saturate(ideal(ctx, "x"), parse_poly("x", ctx))
    assert buchberger(out).contains_one()


def test_saturate_idempotent_and_increasing(fibration_110):
    d = fibration_110
    Ih = d["I_hom"]
    t = parse_poly("t", Ih.ctx)
    once = saturate(Ih, t)
    assert ideal_equal(saturate(once, t), once)
    assert ideal_contains(once, Ih)


# -- homogenisation ------------------------------------------------------------------


def test_homogenise_naive_principal():
    out = homogenise_naive(ideal(XYZ, "x^2 + y*z - 1"), "t")
    assert [str(g) for g in out.generators] == ["x^2 + y*z - t^2"]


def test_homogenise_naive_degree_lists(fibration_110):
    d = fibration_110
    assert [g.degree() for g in d["I_hom"].generators] == [3, 3, 1]
    assert [g.degree() for g in d["J_hom"].generators] == [3, 2, 1]
    for g in d["I_hom"].generators + d["J_hom"].generators:
        assert g.is_homogeneous()


def test_homogenise_ideal_presentation_independent(fibration_110):
    d = fibration_110
    A = homogenise_ideal(d["I"], "t")
    B = homogenise_ideal(d["J"], "t")
    assert ideal_equal(A, B)


def test_homogenise_ideal_on_principal_equals_naive():
    I = ideal(XYZ, "x^2 + y*z - 1")
    assert ideal_equal(homogenise_ideal(I, "t"), homogenise_naive(I, "t"))


def test_homogenise_ideal_of_empty_variety_is_unit():
    # <x, x-1> = <1>: generator-wise homogenisation gives <x, x-t> = <x, t>,
    # whose saturation by t is the unit ideal (it contains t and x, and 1)
    ctx = VarContext(["x"])
    I = ideal(ctx, "x", "x - 1")
    naive = homogenise_naive(I, "t")
    assert {str(g) for g in buchberger(naive).basis} == {"x", "t"}
    out = homogenise_ideal(I, "t")
    G = buchberger(out)
    assert G.contains_one()
    for name in ("x", "t"):
        assert normal_form(parse_poly(name, out.ctx), G).is_zero()


def random_presentations(d, seed, count):
    """Random regenerations of the fibre ideal <p, q, f>."""
    rng = random.Random(seed)
    p, q, f = d["p"], d["q"], d["f"]
    ctx = d["I"].ctx
    out = []
    for _ in range(count):
        # random invertible integer combinations preserve the ideal
        g1 = p + q.scale(rng.randint(-2, 2))
        g2 = q + f.scale(rng.randint(-2, 2)) * parse_poly(rng.choice(ctx.names), ctx)
        out.append(IdealPresentation(ctx, [g1, g2, f, p]))
    return out


def test_random_presentations_homogenise_identically(fibration_110):
    """Ten random regenerations of the same ideal all saturate to one
    homogenisation."""
    d = fibration_110
    base = homogenise_ideal(d["I"], "t")
    for pres in random_presentations(d, 99, 10):
        assert ideal_equal(pres, d["I"])
        assert ideal_equal(homogenise_ideal(pres, "t"), base)


def test_homogenise_ideal_equals_saturation_by_elimination(fibration_110):
    """Second algorithm: I^h is the saturation of the generator-wise
    homogenisation by t, computed by eliminating a fresh variable."""
    d = fibration_110
    for pres in [d["I"], d["J"], *random_presentations(d, 3, 3)]:
        naive = homogenise_naive(pres, "t")
        by_elimination = saturate(naive, MultiPoly.variable(naive.ctx, "t"))
        assert ideal_equal(homogenise_ideal(pres, "t"), by_elimination)


def test_homogenise_ideal_does_not_depend_on_the_presentation():
    # the minimal grevlex bases of I and J differ, so a closure presented
    # by its minimal basis would tell the two presentations apart
    f = P("-3*x*z - x + 2*y")
    g = P("-3*x^2*z + 3*x*y*z + x*z - 3*z")
    h = P("-y*z - 3*y - 3")
    I = IdealPresentation(XYZ, [f, g, h])
    J = IdealPresentation(XYZ, [f + g, g, h - f])
    assert ideal_equal(I, J)
    assert [list(t) for t in buchberger(I)._minimal] != [list(t) for t in buchberger(J)._minimal]
    S_I, S_J = homogenise_ideal(I), homogenise_ideal(J)
    assert S_I == S_J and hash(S_I) == hash(S_J) and repr(S_I) == repr(S_J)
    texts = []
    for S in (S_I, S_J):
        buf = io.StringIO()
        write_ideal(buf, S)
        texts.append(buf.getvalue())
    assert texts[0] == texts[1]


def test_homogenise_ideal_returns_its_reduced_basis(
    fibration_110, fibration_321, monkeypatch
):
    # the result carries a minimal basis of I^h, and is presented by the
    # reduced basis of I^h, the homogenised reduced basis of I (CLO 8.4
    # Thm 4).  On the c = 2 fibre the two bases differ
    def refuse(*args, **kwargs):
        raise AssertionError("homogenise_ideal must not eliminate")

    monkeypatch.setattr(groebner, "saturate", refuse)
    monkeypatch.setattr(groebner, "eliminate", refuse)
    affine = [d[name] for d in (fibration_110, fibration_321) for name in ("I", "J")]
    for I in affine + [sl4_fibre_c2()]:
        out = homogenise_ideal(I, "t")
        reduced = tuple(homogenise_poly(g, "t") for g in buchberger(fresh(I)).basis)
        assert buchberger(out).basis == reduced
        assert [leading(g) for g in out.generators] == [leading(g) for g in reduced]
    G = buchberger(out)
    assert [list(t) for t in G._minimal] != [list(t) for t in G._tails()]
    assert out.generators == reduced


def test_saturated_hilbert_data_needs_no_tail_reduction(monkeypatch):
    def refuse(*args):
        raise AssertionError("the saturated closure was tail-reduced")

    monkeypatch.setattr(groebner._kernel, "interreduce_raw", refuse)
    h = hilbert(buchberger(homogenise_ideal(sl4_fibre())))
    assert (h.proj_dim, h.degree) == (11, 24)


def test_saturated_hilbert_data_builds_no_generators(monkeypatch):
    # the generators, monic MultiPolys, are built only when read
    def refuse(*args):
        raise AssertionError("the saturated closure built its generators")

    monkeypatch.setattr(groebner, "_monic", refuse)
    h = hilbert(buchberger(homogenise_ideal(sl4_fibre())))
    assert (h.proj_dim, h.degree) == (11, 24)


def test_homogenise_ideal_pickles_before_and_after_its_generators_are_read():
    I = sl4_fibre_c2()
    unread, read = homogenise_ideal(I, "t"), homogenise_ideal(fresh(I), "t")
    gens = read.generators
    for out in (unread, read):
        back = pickle.loads(pickle.dumps(out))
        # the attached minimal basis comes along, and unread generators
        # stay unbuilt
        assert back._bases[GREVLEX]._minimal == out._bases[GREVLEX]._minimal
        assert (back._generators is None) == (out is unread)
        assert back.generators == gens
        assert back == out and hash(back) == hash(out) and repr(back) == repr(out)
        assert buchberger(back) == buchberger(fresh(read))


def test_homogenise_ideal_of_an_unpickled_presentation():
    # unpickling keeps the presentation's naive closure and its minimal
    # basis, which homogenise_ideal saturates as it does a fresh one's
    I = sl4_fibre_c2()
    buchberger(homogenise_naive(I, "t"))
    back = pickle.loads(pickle.dumps(I))
    assert GREVLEX in homogenise_naive(back, "t")._bases
    out, want = homogenise_ideal(back, "t"), homogenise_ideal(fresh(I), "t")
    assert out._bases[GREVLEX]._minimal == want._bases[GREVLEX]._minimal
    assert out == want and buchberger(out) == buchberger(want)


def test_an_unpickled_saturated_closure_gives_hilbert_data_from_its_minimal_basis(
    monkeypatch,
):
    # a pickle holds the minimal basis alone, so neither pickling nor the
    # Hilbert data of the copy reduces a tail or builds a generator
    def refuse(*args):
        raise AssertionError("the closure was tail-reduced or built its generators")

    monkeypatch.setattr(groebner._kernel, "interreduce_raw", refuse)
    monkeypatch.setattr(groebner, "_monic", refuse)
    out = homogenise_ideal(sl4_fibre())
    back = pickle.loads(pickle.dumps(out))
    assert back._generators is None
    h = hilbert(buchberger(back))
    assert (h.proj_dim, h.degree) == (11, 24)
    assert h == hilbert(buchberger(out))


def test_an_unpickled_lex_basis_reduces_alike(fibration_110):
    G = buchberger(fresh(fibration_110["I"]), LEX)
    back = pickle.loads(pickle.dumps(G))
    assert back._minimal == G._minimal and back._basis is None
    assert back.leading_monomials() == G.leading_monomials()
    for text in ("x1^3", "x2*y3 - z1^2 + 3", "y1*z2 + x2^2"):
        f = parse_poly(text, G.ctx)
        assert normal_form(f, back) == normal_form(f, G)
    assert back == G


def test_equality_containment_and_normal_forms_build_no_monic_basis(
    fibration_110, monkeypatch
):
    # ideal_equal, ideal_contains and normal_form read the kernel's reduced
    # integer lists: once the inputs and their generators are built, none
    # of them makes a monic MultiPoly basis
    d = fibration_110
    S_I, S_J = (homogenise_ideal(fresh(d[name]), "t") for name in ("I", "J"))
    G = buchberger(fresh(d["I_hom"]))
    f = parse_poly("x1^2*t + y2", G.ctx)
    want = normal_form(f, buchberger(fresh(d["I_hom"])))

    def refuse(*args):
        raise AssertionError("a monic basis was built")

    monkeypatch.setattr(groebner, "_monic", refuse)
    assert ideal_equal(S_I, S_J)
    assert ideal_contains(S_I, S_J) and ideal_contains(S_J, S_I)
    assert ideal_contains(S_I, d["I_hom"]) and not ideal_contains(d["I_hom"], S_I)
    assert normal_form(f, G) == want and G._basis is None


def leading(g):
    return next(iter(g.terms))


def fresh(I):
    """The same generators, without the basis homogenise_ideal attaches."""
    return IdealPresentation(I.ctx, I.generators)


def sl4_fibre():
    orbit = orbit_ideal_charvalues(DiagSpec([3, 1, -1, -3]), [-3, -1, 1])
    return fibre_ideal(orbit, DiagSpec([3, 1, -1, -3]), 0)


def sl4_fibre_c2():
    """A fibre whose minimal and reduced grevlex bases differ."""
    orbit = orbit_ideal_charvalues(DiagSpec([3, 1, -1, -3]), [-3, -1, 1])
    return fibre_ideal(orbit, DiagSpec([1, -1, 0, 0]), 2)


def test_attached_basis_is_the_fresh_reduced_basis(fibration_110, fibration_321):
    affine = [d[name] for d in (fibration_110, fibration_321) for name in ("I", "J")]
    for I in affine + [sl4_fibre()]:
        out = homogenise_ideal(I, "t")
        G = buchberger(out)
        assert G is out._bases[GREVLEX]
        assert G == buchberger(fresh(out))


def test_other_orders_ignore_the_attached_basis(monkeypatch):
    out = homogenise_ideal(ideal(XYZ, "y - x^2", "z - x^3"), "t")
    runs = []
    raw = groebner._kernel.buchberger_raw

    def counted(*args):
        runs.append(args[2:4])
        return raw(*args)

    monkeypatch.setattr(groebner._kernel, "buchberger_raw", counted)
    for order in (LEX, elimination(1)):
        G = buchberger(out, order)
        assert G.order == order
        assert G == buchberger(fresh(out), order)
    # (kind, block) of each kernel run: lex twice, then elimination twice
    assert runs == [(0, 0), (0, 0), (2, 1), (2, 1)]
    buchberger(out)
    assert len(runs) == 4


def test_attached_basis_is_invisible(fibration_110):
    out = homogenise_ideal(fibration_110["I"], "t")
    plain = fresh(out)
    assert plain._bases == {}
    assert out == plain and hash(out) == hash(plain) and repr(out) == repr(plain)
    buf = io.StringIO()
    write_ideal(buf, out)
    back, _ = read_ideal(io.StringIO(buf.getvalue()))
    assert back == out and back._bases == {}
    # so is a basis kept on a naive closure, which homogenise_ideal computed
    naive = homogenise_naive(fibration_110["I"], "t")
    assert GREVLEX in naive._bases
    plain = fresh(naive)
    assert naive == plain and hash(naive) == hash(plain) and repr(naive) == repr(plain)
    texts = []
    for J in (naive, plain):
        buf = io.StringIO()
        write_ideal(buf, J)
        texts.append(buf.getvalue())
    assert texts[0] == texts[1]


# -- the two routes of homogenise_ideal -----------------------------------------


def affine_route(I, tvar="t"):
    """I^h's basis by the affine route, built by hand: the kernel's minimal
    grevlex basis of I, homogenised element by element with tvar last."""
    hom = []
    for terms in buchberger(fresh(I))._minimal:
        d = sum(terms[0][0])
        hom.append([(e + (d - sum(e),), c) for e, c in terms])
    return ReducedGB(I.ctx.extend(tvar), GREVLEX, hom)


def assert_routes_agree(I):
    """With at most as many generators as variables, homogenise_ideal
    saturates the naive closure's basis by t: the same reduced basis as the
    affine route, and a minimal basis with the same leading monomials."""
    assert len(I.generators) <= len(I.ctx)
    G = buchberger(homogenise_ideal(fresh(I), "t"))
    want = affine_route(I)
    assert G.leading_monomials() == want.leading_monomials()
    assert G == want


def test_the_naive_route_agrees_on_the_sl3_fixtures(fibration_110, fibration_321):
    for d in (fibration_110, fibration_321):
        for name in ("I", "J"):
            assert_routes_agree(d[name])


# (eigenvalues, charvalues shifts, H, c): the three fibres of perfbench's
# sl4-closures, then the non-regular H = diag(1,1,-1,-1) and two fibres of
# diag(2,1,0,-3) that it leaves out
SL4_FIBRES = [
    ((3, 1, -1, -3), (-3, -1, 1), (3, 1, -1, -3), 0),
    ((3, 1, -1, -3), (-3, -1, 1), (1, -1, 0, 0), 2),
    ((2, 1, -1, -2), (-2, -1, 1), (3, 1, -1, -3), 0),
    ((3, 1, -1, -3), (-3, -1, 1), (1, 1, -1, -1), 0),
    ((2, 1, 0, -3), (-2, -1, 0), (3, 1, -1, -3), Fraction(7, 3)),
    ((2, 1, 0, -3), (-2, -1, 0), (1, 0, 0, -1), Fraction(7, 3)),
]


@pytest.mark.parametrize("eigenvalues, shifts, H, c", SL4_FIBRES)
def test_the_naive_route_agrees_on_the_sl4_closures(eigenvalues, shifts, H, c):
    orbit = orbit_ideal_charvalues(DiagSpec(eigenvalues), shifts)
    I = fibre_ideal(orbit, DiagSpec(H), c)
    assert_routes_agree(I)
    # Kostant's data for sl(4): h-vector [4]_q!, degree 4! = 24
    h = hilbert(buchberger(homogenise_ideal(I, "t")))
    assert (h.numerator, h.proj_dim, h.degree) == ((1, 3, 5, 6, 5, 3, 1), 11, 24)


def random_system(rng):
    """At most nvars random polynomials in 2 to 4 variables, with terms of
    degree 0 to 3, so that some naive closures carry powers of t."""
    nvars = rng.randint(2, 4)
    ctx = VarContext(["x", "y", "z", "w"][:nvars])
    gens = []
    for _ in range(rng.randint(1, nvars)):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exp = [0] * nvars
            for _ in range(rng.randint(0, 3)):
                exp[rng.randrange(nvars)] += 1
            terms[tuple(exp)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        gens.append(MultiPoly(ctx, terms))
    return IdealPresentation(ctx, gens)


def test_the_naive_route_agrees_on_random_systems():
    rng = random.Random(3000)
    for _ in range(240):
        assert_routes_agree(random_system(rng))


# the systems on which the signature loop once returned a wrong basis, read
# as affine ideals (each case's order is the kernel test's, not used here)
@pytest.mark.parametrize(
    "nvars, gens",
    [case[1:] for case in SINGULAR_CASES],
    ids=["grevlex", "lex-dense", "lex-content"],
)
def test_the_naive_route_agrees_on_the_pinned_signature_loop_systems(nvars, gens):
    ctx = VarContext([f"x{i}" for i in range(nvars)])
    I = IdealPresentation(ctx, [MultiPoly(ctx, dict(terms)) for terms in gens])
    assert_routes_agree(I)


def counted_runs(monkeypatch):
    """The (kind, block) of every ``buchberger_raw`` run from now on."""
    runs = []
    raw = groebner._kernel.buchberger_raw

    def counted(*args):
        runs.append(args[2:4])
        return raw(*args)

    monkeypatch.setattr(groebner._kernel, "buchberger_raw", counted)
    return runs


def test_both_closures_of_a_fibre_run_one_pair_loop(fibration_110, monkeypatch):
    # the paper's pipeline: the naive closure's basis, then the saturated
    # closure's Hilbert data from the same presentation
    I = fresh(fibration_110["I"])
    runs = counted_runs(monkeypatch)
    naive = buchberger(homogenise_naive(I, "t"))
    S = homogenise_ideal(I, "t")
    h = hilbert(buchberger(S))
    assert runs == [(1, 0)]
    assert homogenise_naive(I, "t")._bases[GREVLEX] is naive
    assert (h.numerator, h.degree) == ((1, 2, 2, 1), 6)


def test_more_generators_than_variables_run_the_affine_loop(monkeypatch):
    # the sl(4) minimal orbit: 16 quadrics in 15 variables
    I = orbit_ideal_minpoly(DiagSpec([1, 1, 1, -3])).presentation
    assert len(I.generators) > len(I.ctx)
    runs = counted_runs(monkeypatch)
    S = homogenise_ideal(I, "t")
    assert runs == [(1, 0)] and GREVLEX in I._bases and I._naive == {}
    assert buchberger(S) == affine_route(I)


def test_containment_of_a_saturated_closure_does_not_tail_reduce_it(monkeypatch):
    # ideal_contains(A, S) reduces the minimal basis S carries against A's
    # reduced basis; only A's is tail-reduced
    fib = sl4_fibre()
    naive, S = homogenise_naive(fib, "t"), homogenise_ideal(fib, "t")
    same = homogenise_ideal(fresh(fib), "t")
    reduced = []
    interreduce = groebner._kernel.interreduce_raw

    def recorded(minimal, *args):
        reduced.append(minimal)
        return interreduce(minimal, *args)

    monkeypatch.setattr(groebner._kernel, "interreduce_raw", recorded)
    assert not ideal_contains(naive, S) and ideal_contains(same, S)
    assert reduced and not any(m is S._bases[GREVLEX]._minimal for m in reduced)
    assert S._generators is None
    # the answers the generators give
    assert not all(normal_form(g, buchberger(naive)).is_zero() for g in S.generators)
    assert all(normal_form(g, buchberger(same)).is_zero() for g in S.generators)


@pytest.mark.parametrize(
    "n, numerator, degree",
    [(2, (1, 4, 1), 6), (3, (1, 9, 9, 1), 20)],
)
def test_minimal_orbit_closure_is_segre(n, numerator, degree):
    """The closure of the orbit of diag(1,...,1,-n) is the Segre P^n x P^n:
    h-vector (C(n,k)^2), degree C(2n,n), projective dimension 2n."""
    orbit = orbit_ideal_minpoly(DiagSpec([1] * n + [-n]))
    h = hilbert(buchberger(homogenise_ideal(orbit.presentation, "t")))
    assert (h.numerator, h.degree, h.proj_dim) == (numerator, degree, 2 * n)


def test_dehomogenised_saturation_lands_in_the_affine_ideal(fibration_110):
    d = fibration_110
    G = buchberger(d["I"])
    sat = homogenise_ideal(d["I"], "t")
    for g in dehomogenise_ideal(sat, "t").generators:
        assert normal_form(g, G).is_zero()
