"""Groebner bases, ideal predicates, elimination, saturation and the two
homogenisations, checked against independent oracles wherever a value is
derived rather than trivial."""

import io
import random

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
from orbitcompat.hilbert import hilbert
from orbitcompat.ioformats import read_ideal, write_ideal

XYZ = VarContext(["x", "y", "z"])


def P(text, ctx=XYZ):
    return parse_poly(text, ctx)


def ideal(ctx, *texts):
    return IdealPresentation(ctx, [parse_poly(t, ctx) for t in texts])


# -- buchberger ----------------------------------------------------------------


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
    # order kind and by homogenise_ideal in the basis it attaches
    bases = []
    for d in (fibration_110, fibration_321):
        bases += [buchberger(d["I"], order) for order in (LEX, GREVLEX, elimination(2))]
        bases.append(homogenise_ideal(d["I"], "t")._reduced)
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
    # buchberger hands its kernel term lists to the basis; a basis built
    # from the polynomials alone converts them itself on first use
    G = buchberger(fibration_110["I_hom"])
    H = ReducedGB(G.ctx, G.order, G.basis)
    assert H == G and repr(H) == repr(G) and hash(H) == hash(G)
    ctx = G.ctx
    for text in ("x1^3*t", "x2*y3 - z1^2 + 3", "t^4 + y1*z2"):
        f = parse_poly(text, ctx)
        assert normal_form(f, H) == normal_form(f, G)


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


def test_homogenise_ideal_returns_its_reduced_basis(
    fibration_110, fibration_321, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("homogenise_ideal must not eliminate")

    monkeypatch.setattr(groebner, "saturate", refuse)
    monkeypatch.setattr(groebner, "eliminate", refuse)
    for d in (fibration_110, fibration_321):
        for name in ("I", "J"):
            out = homogenise_ideal(d[name], "t")
            assert buchberger(out).basis == out.generators


def fresh(I):
    """The same generators, without the basis homogenise_ideal attaches."""
    return IdealPresentation(I.ctx, I.generators)


def sl4_fibre():
    orbit = orbit_ideal_charvalues(DiagSpec([3, 1, -1, -3]), [-3, -1, 1])
    return fibre_ideal(orbit, DiagSpec([3, 1, -1, -3]), 0)


def test_attached_basis_is_the_fresh_reduced_basis(fibration_110, fibration_321):
    affine = [d[name] for d in (fibration_110, fibration_321) for name in ("I", "J")]
    for I in affine + [sl4_fibre()]:
        out = homogenise_ideal(I, "t")
        G = buchberger(out)
        assert G is out._reduced
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
    assert plain._reduced is None
    assert out == plain and hash(out) == hash(plain) and repr(out) == repr(plain)
    buf = io.StringIO()
    write_ideal(buf, out)
    back, _ = read_ideal(io.StringIO(buf.getvalue()))
    assert back == out and back._reduced is None
    assert homogenise_naive(fibration_110["I"], "t")._reduced is None


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
