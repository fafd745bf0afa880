"""The pure engine's monomial encoding, ``_encode``'s packed keys and packed
exponent vectors: keys ordered as ``make_key``, packs decoded exactly and
ordered by divisibility, both additive below total degree 2^31 and refused,
never merged, at or above it."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitcompat import ResourceLimitExceeded
from orbitcompat._kernel import pure

TOP = 2**31 - 1  # the largest total degree a packed key holds


def pack(e):
    """The packed exponent vector of ``e``, which no order changes."""
    return pure._encode(e, 1, 0)[1]


@st.composite
def exponent(draw, n, total=None):
    """An exponent tuple of length n and total degree ``total``, by default
    at most TOP: TOP itself, any degree, or a small one."""
    if total is None:
        total = draw(st.one_of(st.just(TOP), st.integers(0, TOP), st.integers(0, 8)))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))


@st.composite
def order_and_pair(draw):
    """(n, kind, block, a, b): b is drawn on its own, or moves some of a's
    degree between two variables so that the total degrees tie."""
    n = draw(st.sampled_from([1, 3, 16, 26]))
    kind = draw(st.sampled_from([0, 1, 2]))
    block = draw(st.integers(0, n)) if kind == 2 else 0
    a = draw(exponent(n))
    if draw(st.booleans()):
        b = draw(exponent(n))
    else:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        moved = draw(st.integers(0, a[i]))
        b = list(a)
        b[i] -= moved
        b[j] += moved
        b = tuple(b)
    return n, kind, block, a, b


@settings(max_examples=400, deadline=None)
@given(order_and_pair())
def test_packed_keys_order_as_make_key(case):
    _, kind, block, a, b = case
    pa, pb = pure._encode(a, kind, block)[0], pure._encode(b, kind, block)[0]
    ka, kb = pure.make_key(a, kind, block), pure.make_key(b, kind, block)
    assert (pa < pb) == (ka < kb)
    assert (pa > pb) == (ka > kb)
    assert (pa == pb) == (a == b)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_packed_keys_add(data):
    n = data.draw(st.sampled_from([1, 3, 16, 26]))
    kind = data.draw(st.sampled_from([0, 1, 2]))
    block = data.draw(st.integers(0, n)) if kind == 2 else 0
    c = data.draw(exponent(n))
    a = tuple(data.draw(st.integers(0, x)) for x in c)
    b = tuple(x - y for x, y in zip(c, a))
    (kc, pc), (ka, pa), (kb, pb) = (pure._encode(e, kind, block) for e in (c, a, b))
    assert kc == ka + kb
    assert pc == pa + pb


SIZES = st.sampled_from([1, 3, 16, 26])


@settings(max_examples=200, deadline=None)
@given(SIZES, st.data())
def test_unpack_inverts_pack(n, data):
    a = data.draw(exponent(n))
    assert pure._unpack(pack(a), n) == a


@st.composite
def divisor_pair(draw):
    """(n, a, b): a drawn on its own, a divisor of b, or on b's variables but
    above b in one of them, as x^2*y against x*y."""
    n = draw(SIZES)
    b = draw(exponent(n))
    how = draw(st.sampled_from(["any", "divisor", "same variables"]))
    if how == "any":
        a = draw(exponent(n))
    elif how == "divisor":
        a = tuple(draw(st.integers(0, x)) for x in b)
    else:
        support = [i for i, x in enumerate(b) if x]
        assume(support and sum(b) < TOP)
        a = list(b)
        a[draw(st.sampled_from(support))] += 1
        a = tuple(a)
    return n, a, b


@settings(max_examples=400, deadline=None)
@given(divisor_pair())
def test_pack_difference_decides_divisibility(case):
    n, a, b = case
    _, guard, _ = pure._layout(n)
    divides = all(x <= y for x, y in zip(a, b))
    assert (not (pack(b) - pack(a)) & guard) == divides


@settings(max_examples=100, deadline=None)
@given(SIZES, st.data())
def test_a_pack_of_degree_2_31_raises(n, data):
    total = data.draw(st.one_of(st.just(2**31), st.integers(2**31, 2**33)))
    kind = data.draw(st.sampled_from([0, 1, 2]))
    block = data.draw(st.integers(0, n)) if kind == 2 else 0
    with pytest.raises(ResourceLimitExceeded):
        pure._encode(data.draw(exponent(n, total)), kind, block)


# lex with x > y, and the basis x - y^(2^30)
LEX = (0, 0)
BASIS = [[((1, 0), 1), ((0, 2**30), -1)]]


def test_a_step_to_degree_2_31_raises():
    # x^2 -> x*y^(2^30) -> y^(2^31): the second step would make the monomial
    keyed = pure.key_basis(BASIS, *LEX)
    with pytest.raises(ResourceLimitExceeded):
        pure.normal_form([((2, 0), 1)], keyed, 2, *LEX)
    # one degree less is still held exactly
    tail, mult = pure.normal_form([((1, 2**30 - 1), 1)], keyed, 2, *LEX)
    assert (tail, mult) == ([((0, TOP), 1)], 1)


def test_an_input_of_degree_2_31_raises():
    keyed = pure.key_basis(BASIS, *LEX)
    with pytest.raises(ResourceLimitExceeded):
        pure.normal_form([((0, 2**31), 1)], keyed, 2, *LEX)
    with pytest.raises(ResourceLimitExceeded):
        pure.key_basis([[((0, 2**31), 1)]], *LEX)


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
    assert pure.normal_form(f, pure.key_basis([z], *LEX), 3, *LEX) == ([], 1)
    keyed = pure.key_basis([[((1, 0, 0), 1), ((0, 2**30, 0), -1)], z], *LEX)
    with pytest.raises(ResourceLimitExceeded):
        pure.normal_form(f, keyed, 3, *LEX)
