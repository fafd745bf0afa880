"""The pure engine's monomial encoding, ``_encode``'s packed keys and packed
exponent vectors, in 16-bit and 32-bit layouts: keys ordered as
``make_key``, packs decoded exactly and ordered by divisibility, both
additive below the layout's bound, 2^15 or 2^31, and refused, never merged,
at or above it.  A 16-bit refusal reruns the entry point at 32 bits, so the
engine's own bound is 2^31, and the bases are those of a 32-bit run."""

from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitcompat import ResourceLimitExceeded
from orbitcompat._kernel import pure

TOP = 2**31 - 1  # the largest total degree a packed key holds
# the largest total degree each field width holds
TOPS = {16: 2**15 - 1, 32: TOP}
WIDTHS = st.sampled_from(sorted(TOPS))


def pack(e, bits):
    """The packed exponent vector of ``e``, which no order changes."""
    return pure._encode(e, pure._layout(len(e), bits, 1, 0))[1]


@st.composite
def exponent(draw, n, total=None, top=TOP):
    """An exponent tuple of length n and total degree ``total``, by default
    at most ``top``: ``top`` itself, any degree, or a small one."""
    if total is None:
        total = draw(st.one_of(st.just(top), st.integers(0, top), st.integers(0, 8)))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))


@st.composite
def order_and_pair(draw):
    """(L, a, b) for a layout L of a drawn width and order: b is drawn on
    its own, or moves some of a's degree between two variables so that the
    total degrees tie."""
    n = draw(st.sampled_from([1, 3, 16, 26]))
    bits = draw(WIDTHS)
    kind = draw(st.sampled_from([0, 1, 2]))
    block = draw(st.integers(0, n)) if kind == 2 else 0
    a = draw(exponent(n, top=TOPS[bits]))
    if draw(st.booleans()):
        b = draw(exponent(n, top=TOPS[bits]))
    else:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        moved = draw(st.integers(0, a[i]))
        b = list(a)
        b[i] -= moved
        b[j] += moved
        b = tuple(b)
    return pure._layout(n, bits, kind, block), a, b


@settings(max_examples=400, deadline=None)
@given(order_and_pair())
def test_packed_keys_order_as_make_key(case):
    L, a, b = case
    pa, pb = pure._encode(a, L)[0], pure._encode(b, L)[0]
    ka, kb = pure.make_key(a, *L[5:7]), pure.make_key(b, *L[5:7])
    assert (pa < pb) == (ka < kb)
    assert (pa > pb) == (ka > kb)
    assert (pa == pb) == (a == b)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_packed_keys_add(data):
    n = data.draw(st.sampled_from([1, 3, 16, 26]))
    bits = data.draw(WIDTHS)
    kind = data.draw(st.sampled_from([0, 1, 2]))
    block = data.draw(st.integers(0, n)) if kind == 2 else 0
    c = data.draw(exponent(n, top=TOPS[bits]))
    a = tuple(data.draw(st.integers(0, x)) for x in c)
    b = tuple(x - y for x, y in zip(c, a))
    L = pure._layout(n, bits, kind, block)
    (kc, pc), (ka, pa), (kb, pb) = (pure._encode(e, L) for e in (c, a, b))
    assert kc == ka + kb
    assert pc == pa + pb


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_grevlex_keys_read_off_the_pack_are_the_weighted_sums(data):
    # _encode reads a grevlex key off the pack; the weights of make_key's
    # unit vectors are the reference for every order
    n = data.draw(st.sampled_from([1, 3, 16, 26]))
    bits = data.draw(WIDTHS)
    e = data.draw(exponent(n, top=TOPS[bits]))
    L = pure._layout(n, bits, 1, 0)
    assert pure._encode(e, L)[0] == sum(map(mul, e, L[7]))


SIZES = st.sampled_from([1, 3, 16, 26])


@settings(max_examples=200, deadline=None)
@given(SIZES, WIDTHS, st.data())
def test_unpack_inverts_pack(n, bits, data):
    a = data.draw(exponent(n, top=TOPS[bits]))
    assert pure._unpack(pack(a, bits), pure._layout(n, bits, 1, 0)) == a


@st.composite
def divisor_pair(draw):
    """(n, bits, a, b): a drawn on its own, a divisor of b, or on b's
    variables but above b in one of them, as x^2*y against x*y."""
    n = draw(SIZES)
    bits = draw(WIDTHS)
    b = draw(exponent(n, top=TOPS[bits]))
    how = draw(st.sampled_from(["any", "divisor", "same variables"]))
    if how == "any":
        a = draw(exponent(n, top=TOPS[bits]))
    elif how == "divisor":
        a = tuple(draw(st.integers(0, x)) for x in b)
    else:
        support = [i for i, x in enumerate(b) if x]
        assume(support and sum(b) < TOPS[bits])
        a = list(b)
        a[draw(st.sampled_from(support))] += 1
        a = tuple(a)
    return n, bits, a, b


@settings(max_examples=400, deadline=None)
@given(divisor_pair())
def test_pack_difference_decides_divisibility(case):
    n, bits, a, b = case
    guard = pure._layout(n, bits, 1, 0)[1]
    divides = all(x <= y for x, y in zip(a, b))
    assert (not (pack(b, bits) - pack(a, bits)) & guard) == divides


@settings(max_examples=100, deadline=None)
@given(SIZES, st.data())
def test_a_pack_of_degree_2_31_raises(n, data):
    total = data.draw(st.one_of(st.just(2**31), st.integers(2**31, 2**33)))
    kind = data.draw(st.sampled_from([0, 1, 2]))
    block = data.draw(st.integers(0, n)) if kind == 2 else 0
    with pytest.raises(ResourceLimitExceeded):
        pure._encode(data.draw(exponent(n, total)), pure._layout(n, 32, kind, block))


@settings(max_examples=100, deadline=None)
@given(SIZES, st.data())
def test_a_pack_of_degree_2_15_widens_a_16_bit_layout(n, data):
    total = data.draw(st.one_of(st.just(2**15), st.integers(2**15, 2**33)))
    kind = data.draw(st.sampled_from([0, 1, 2]))
    block = data.draw(st.integers(0, n)) if kind == 2 else 0
    with pytest.raises(pure._Widen):
        pure._encode(data.draw(exponent(n, total)), pure._layout(n, 16, kind, block))


# lex with x > y, and the basis x - y^(2^30)
LEX = (0, 0)
BASIS = [[((1, 0), 1), ((0, 2**30), -1)]]


def keyed(basis, nvars):
    """``basis``, a reduced basis, keyed for ``normal_form`` as
    ``interreduce`` returns it."""
    return pure.interreduce(pure.Basis.of_lists(basis, nvars, *LEX))


def test_a_step_to_degree_2_31_raises():
    # x^2 -> x*y^(2^30) -> y^(2^31): the second step would make the monomial
    keyed_basis = keyed(BASIS, 2)
    with pytest.raises(ResourceLimitExceeded):
        pure.normal_form([((2, 0), 1)], keyed_basis)
    # one degree less is still held exactly
    tail, mult = pure.normal_form([((1, 2**30 - 1), 1)], keyed_basis)
    assert (tail, mult) == ([((0, TOP), 1)], 1)


def test_an_input_of_degree_2_31_raises():
    with pytest.raises(ResourceLimitExceeded):
        pure.normal_form([((0, 2**31), 1)], keyed(BASIS, 2))
    # keying a basis refuses it too
    with pytest.raises(ResourceLimitExceeded):
        keyed([[((0, 2**31), 1)]], 2)


def test_buchberger_refuses_degree_2_31():
    # reducing x^2 by x - y^(2^30) reaches y^(2^31)
    with pytest.raises(ResourceLimitExceeded):
        pure.buchberger(BASIS + [[((2, 0), 1)]], 2, *LEX, 100, 2**40)
    # x^2 - y and x*y^(2^31 - 2) - 1 make a pair whose lcm has degree 2^31
    gens = [[((2, 0), 1), ((0, 1), -1)], [((1, 2**31 - 2), 1), ((0, 0), -1)]]
    with pytest.raises(ResourceLimitExceeded):
        pure.buchberger(gens, 2, *LEX, 100, 2**40)
    # x*y - z^(2^31 - 1) and x^2 - 1: the S-polynomial holds x*z^(2^31 - 1)
    gens = [[((1, 1, 0), 1), ((0, 0, TOP), -1)], [((2, 0, 0), 1), ((0, 0, 0), -1)]]
    with pytest.raises(ResourceLimitExceeded):
        pure.buchberger(gens, 3, *LEX, 100, 2**40)


def test_the_degree_bound_is_the_whole_basis():
    # lex, x > y > z: z alone reduces y^(2^30)*z to 0, but next to
    # x - y^(2^30) the bound is the basis's largest degree, 2^30, and a
    # step shifting z by y^(2^30) is judged to reach 2^31
    z = [((0, 0, 1), 1)]
    f = [((0, 2**30, 1), 1)]
    assert pure.normal_form(f, keyed([z], 3)) == ([], 1)
    basis = keyed([[((1, 0, 0), 1), ((0, 2**30, 0), -1)], z], 3)
    with pytest.raises(ResourceLimitExceeded):
        pure.normal_form(f, basis)


# -- 16-bit runs and their reruns at 32 bits ------------------------------------

GREVLEX = (1, 0)


@pytest.mark.parametrize(
    "gens,code,basis",
    [
        # lex, x > y: x^2 - 1 reduces by x - y^40000 to y^80000 - 1
        pytest.param(
            [[((1, 0), 1), ((0, 40000), -1)], [((2, 0), 1), ((0, 0), -1)]],
            LEX,
            [[((0, 80000), 1), ((0, 0), -1)], [((1, 0), 1), ((0, 40000), -1)]],
            id="lex",
        ),
        # grevlex, x > y: the S-polynomial of x^40000 - y^40000 and x*y - 1
        # is y^40001 - x^39999
        pytest.param(
            [[((40000, 0), 1), ((0, 40000), -1)], [((1, 1), 1), ((0, 0), -1)]],
            GREVLEX,
            [
                [((1, 1), 1), ((0, 0), -1)],
                [((40000, 0), 1), ((0, 40000), -1)],
                [((0, 40001), 1), ((39999, 0), -1)],
            ],
            id="grevlex",
        ),
    ],
)
def test_bases_past_degree_2_15_are_those_of_32_bit_fields(gens, code, basis):
    minimal = pure.buchberger(gens, 2, *code, 100, 2**40)
    reduced = pure.interreduce(minimal)
    assert reduced == basis
    wide_layout = pure._layout(2, 32, *code)
    assert minimal.layout is reduced.layout is wide_layout
    wide = pure._buchberger(wide_layout, gens, 100, 2**40)
    assert minimal == wide and minimal.polys == wide.polys
    assert reduced.polys == pure._reduced_basis(wide_layout, wide, 2**31).polys


def test_interreduce_past_degree_2_15_reruns_at_32_bits():
    # lex, x > y > z: y^4 steps through y^2*z^20000 to z^40000
    minimal = [[((0, 2, 0), 1), ((0, 0, 20000), -1)], [((1, 0, 0), 1), ((0, 4, 0), -1)]]
    reduced = pure.interreduce(pure.Basis.of_lists(minimal, 3, *LEX))
    assert reduced == [minimal[0], [((1, 0, 0), 1), ((0, 0, 40000), -1)]]
    assert reduced.layout is pure._layout(3, 32, *LEX)


def test_a_normal_form_past_degree_2_15_against_a_16_bit_basis_is_exact():
    # lex, x > y, modulo x - y^2: x^20000 is held in 16 bits, and its steps
    # reach y^40000; x^40000 is not
    basis = [[((1, 0), 1), ((0, 2), -1)]]
    keyed_basis = keyed(basis, 2)
    narrow = pure._layout(2, 16, *LEX)
    assert keyed_basis.layout is narrow
    assert pure.normal_form([((20000, 0), 1)], keyed_basis) == ([((0, 40000), 1)], 1)
    f = [((40000, 0), 3), ((0, 1), -1)]
    assert pure.normal_form(f, keyed_basis) == ([((0, 80000), 3), ((0, 1), -1)], 1)
    # the caller's basis stays as it was keyed
    assert keyed_basis.layout is narrow and keyed_basis == basis
    assert keyed_basis.polys == pure._key_basis(narrow, basis)


def test_saturate_last_past_degree_2_15_reruns_at_32_bits():
    # grevlex, x > y > t: x*t^40000 - y*t^40000 divided by t^40000
    lists = [[((1, 0, 40000), 1), ((0, 1, 40000), -1)]]
    saturated = pure.saturate_last(pure.Basis.of_lists(lists, 3, *GREVLEX))
    assert saturated == [[((1, 0, 0), 1), ((0, 1, 0), -1)]]
    wide = pure._layout(3, 32, *GREVLEX)
    assert saturated.layout is wide
    assert saturated.polys == pure._key_basis(wide, saturated)


@st.composite
def small_system(draw):
    """(gens, f, kind, block): up to three polynomials in three variables,
    of up to three terms of degree at most three, and a polynomial f."""
    kind = draw(st.sampled_from([0, 1, 2]))
    block = draw(st.integers(1, 2)) if kind == 2 else 0
    exp = st.tuples(*[st.integers(0, 3)] * 3)
    coeff = st.integers(-5, 5).filter(bool)
    poly = st.dictionaries(exp, coeff, min_size=1, max_size=3).map(lambda d: list(d.items()))
    gens = draw(st.lists(poly, min_size=1, max_size=3))
    return gens, draw(poly), kind, block


@settings(max_examples=60, deadline=None)
@given(small_system())
def test_both_layouts_give_the_same_bases_and_normal_forms(case):
    gens, f, kind, block = case
    outcomes = []
    for bits in (16, 32):
        L = pure._layout(3, bits, kind, block)
        try:
            minimal = pure._buchberger(L, gens, 200, 12)
            reduced = pure._reduced_basis(L, minimal, 12)
        except ResourceLimitExceeded as e:
            outcomes.append(str(e))
            continue
        outcomes.append((minimal, reduced, pure._normal_form(L, f, reduced)))
    assert outcomes[0] == outcomes[1]


# -- the order is part of the keying context ---------------------------------


@pytest.mark.parametrize("n", [1, 3, 16])
def test_a_layout_is_one_object_per_width_and_order(n):
    assert pure._layout(n, 16, 1, 0) is pure._layout(n, 16, 1, 0)
    assert pure._layout(n, 16, 1, 0) is not pure._layout(n, 16, 0, 0)
    assert pure._layout(n, 16, 2, 1) is not pure._layout(n, 16, 2, 0)


def test_a_basis_is_keyed_again_for_another_order():
    # lex x > y > z against grevlex: x + y^2 leads with x under lex and y^2
    # under grevlex, so the two orders key its terms in opposite orders
    gens = [[((1, 0, 0), 1), ((0, 2, 0), 1)], [((0, 0, 3), 1), ((0, 0, 0), -1)]]
    grevlex = pure.interreduce(pure.buchberger(gens, 3, *GREVLEX, 100, 64))
    lex = pure._layout(3, 16, *LEX)
    assert grevlex.layout is pure._layout(3, 16, *GREVLEX) is not lex
    polys = grevlex.keyed(lex)
    assert polys is not grevlex.polys and polys != grevlex.polys
    assert polys == pure._key_basis(lex, grevlex)
    assert grevlex.keyed(grevlex.layout) is grevlex.polys
    # a normal form reads its order off the basis: x is irreducible by the
    # grevlex leading monomials y^2 and z^3, and reduces to -y^2 by the lex
    # ones, x and z^3
    x = [((1, 0, 0), 1)]
    assert pure.normal_form(x, grevlex) == (x, 1)
    lex_basis = pure.interreduce(pure.buchberger(gens, 3, *LEX, 100, 64))
    assert pure.normal_form(x, lex_basis) == ([((0, 2, 0), -1)], 1)
