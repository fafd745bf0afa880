"""Parser and canonical printer, including the full round-trip corpus."""

import random
import re
import sys
import threading
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcompat import MultiPoly, PolyError, VarContext, parse_poly, poly_to_string
from orbitcompat.parsing import WHITESPACE, ParseError, _vocabulary

CTX = VarContext(["x", "y", "z", "t"])


def test_parse_quadric():
    f = parse_poly("x^2 + y*z - 1", CTX)
    assert f.terms == {
        (2, 0, 0, 0): Fraction(1),
        (0, 1, 1, 0): Fraction(1),
        (0, 0, 0, 0): Fraction(-1),
    }


def test_parse_zero():
    assert parse_poly("0", CTX).is_zero()


def test_parse_rational_coefficients():
    ctx = VarContext(["x1", "x2", "y1"])
    f = parse_poly("3/2*x1^2*y1 - x2", ctx)
    assert f.terms == {(2, 0, 1): Fraction(3, 2), (0, 1, 0): Fraction(-1)}


def test_parse_leading_sign_and_whitespace():
    assert parse_poly("-x + y", CTX) == parse_poly("y-x", CTX)
    assert parse_poly("  x ^ 2 *y ", CTX) == parse_poly("x^2*y", CTX)


def test_whitespace_is_what_the_patterns_skip():
    # the one definition that ideal files strip at line ends
    ascii_space = {chr(i) for i in range(128) if re.match(r"\s", chr(i), re.ASCII)}
    assert set(WHITESPACE) == ascii_space


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x + * y", CTX)
    assert "position" in str(err.value)


def test_unknown_variable():
    with pytest.raises(ParseError, match="unknown variable"):
        parse_poly("x + q", CTX)


# each rejected input with the position of the first character the grammar
# cannot take, or the end of the text
REJECTED = [
    ("", 0),
    ("x +", 3),
    ("x + * y", 4),
    ("x^", 2),
    ("3 x", 2),
    ("1/0", 2),
    ("x + q", 4),
    ("1-6*  q", 6),
    ("x^\u00b2", 2),  # superscript two
    ("\u0663*x", 0),  # Arabic-Indic three
    ("x +\u00a0y", 3),  # no-break space
    ("x*q", 2),
]


@pytest.mark.parametrize("text,pos", REJECTED, ids=[repr(r[0]) for r in REJECTED])
def test_rejected_input_position(text, pos):
    with pytest.raises(ParseError) as err:
        parse_poly(text, CTX)
    assert err.value.pos == pos


# -- the monomial vocabulary ---------------------------------------------------

# names that prefix each other, so that a run cut short reads as another name
PREFIXED = VarContext(["x", "x1", "y"])


def _outcome(text, ctx):
    """The polynomial ``text`` parses to, or the error it raises."""
    try:
        return parse_poly(text, ctx)
    except ParseError as e:
        return ("ParseError", e.message, e.pos)
    except PolyError as e:
        return ("PolyError", str(e))


def _warm(ctx):
    """Teach the vocabulary of ``ctx`` the text of every monomial of degree
    at most 3, as printing them does."""
    for mono in product(range(4), repeat=len(ctx)):
        if sum(mono) <= 3:
            poly_to_string(MultiPoly(ctx, {mono: 1}))


# a power spaced from its name must not read as the bare name the vocabulary
# knows, nor a longer name as a shorter one it starts with
ACCEPTED = [
    ("x ^ 2", {(2, 0, 0): 1}),
    ("x*y ^2", {(1, 0, 2): 1}),
    ("x1 ^2", {(0, 2, 0): 1}),
    ("x^2 *x1", {(2, 1, 0): 1}),
    ("2 *x1", {(0, 1, 0): 2}),
    ("3 /2*y", {(0, 0, 1): Fraction(3, 2)}),
    ("x^12*y - x^1", {(12, 0, 1): 1, (1, 0, 0): -1}),
]


@pytest.mark.parametrize("text,terms", ACCEPTED, ids=[a[0] for a in ACCEPTED])
def test_spaced_runs_read_the_same_cold_and_warm(text, terms):
    want = MultiPoly(PREFIXED, terms)
    _vocabulary.cache_clear()
    assert parse_poly(text, PREFIXED) == want
    _warm(PREFIXED)
    assert parse_poly(text, PREFIXED) == want
    assert parse_poly(text, PREFIXED) == want


@pytest.mark.parametrize("text,pos", REJECTED, ids=[repr(r[0]) for r in REJECTED])
def test_rejected_input_position_with_a_warm_vocabulary(text, pos):
    _warm(CTX)
    for _ in range(2):
        with pytest.raises(ParseError) as err:
            parse_poly(text, CTX)
        assert err.value.pos == pos


_PIECES = ["x", "x1", "y", "q", "^", "*", "/", "+", "-", "0", "1", "2", "12", " ", "\t"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=14).map("".join))
def test_a_warm_vocabulary_parses_as_an_empty_one(text):
    _vocabulary.cache_clear()
    cold = _outcome(text, PREFIXED)
    _warm(PREFIXED)
    # the second parse also reads any run the first one entered
    assert _outcome(text, PREFIXED) == cold
    assert _outcome(text, PREFIXED) == cold


def test_the_printer_teaches_the_parser():
    ctx = VarContext(["a", "b", "c"])
    _vocabulary.cache_clear()
    vocab = _vocabulary(ctx.names)
    f = MultiPoly(ctx, {(2, 1, 0): Fraction(3, 2), (0, 0, 3): -1, (0, 0, 0): 7})
    text = poly_to_string(f)
    assert text == "3/2*a^2*b - c^3 + 7"
    entries = dict(vocab.exps)
    assert {"a^2*b": (2, 1, 0), "c^3": (0, 0, 3)}.items() <= entries.items()
    assert parse_poly(text, ctx) == f
    assert vocab.exps == entries
    # a run read factor by factor is entered under its own text
    assert parse_poly("b*a^2 + a*a", ctx) == parse_poly("a^2*b + a^2", ctx)
    assert vocab.exps["b*a^2"] == (2, 1, 0) and vocab.exps["a*a"] == (2, 0, 0)


def test_threads_share_a_vocabulary_without_a_lock():
    # every entry is one assignment of a value each thread computes alike, so
    # threads filling the same entries at once print and read what one
    # thread alone does
    ctx = VarContext(["u", "v", "w"])
    rng = random.Random(20261022)
    polys = [
        MultiPoly(ctx, {tuple(rng.randint(0, 5) for _ in range(3)): rng.randint(-4, 4) for _ in range(6)})
        for _ in range(60)
    ]
    _vocabulary.cache_clear()
    want = [poly_to_string(f) for f in polys]
    _vocabulary.cache_clear()
    results = [None] * 6

    def work(i):
        # each thread starts at another polynomial
        turn = polys[10 * i :] + polys[: 10 * i]
        results[i] = [(poly_to_string(f), parse_poly(poly_to_string(f), ctx) == f) for f in turn]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    for i, got in enumerate(results):
        assert got == [(text, True) for text in want[10 * i :] + want[: 10 * i]]


def test_repeated_factor_accumulates():
    assert parse_poly("x*x*x", CTX) == parse_poly("x^3", CTX)


def test_print_is_canonical():
    f = parse_poly("y*z - 1 + x^2", CTX)
    assert poly_to_string(f) == "x^2 + y*z - 1"
    assert poly_to_string(parse_poly("0", CTX)) == "0"
    assert poly_to_string(parse_poly("-x - 1/2", CTX)) == "-x - 1/2"


# every polynomial literal appearing in the contract examples, plus assorted
# edge shapes
CORPUS = [
    ("x^2 + y*z - 1", ["x", "y", "z"]),
    ("x^2 + y*z - t^2", ["x", "y", "z", "t"]),
    ("y*z - 1", ["y", "z"]),
    ("y*z - t^2", ["y", "z", "t"]),
    ("2*x", ["x", "y", "z"]),
    ("0", ["x"]),
    ("3/2*x1^2*y1 - x2", ["x1", "x2", "y1"]),
    ("x1 - x2", ["x1", "x2"]),
    ("x1 - x2 - 1", ["x1", "x2"]),
    ("x1^2 + y1*z1 + y2*z2 - x1 - 2", ["x1", "x2", "y1", "y2", "z1", "z2"]),
    ("x - y", ["x", "y"]),
    ("x^2", ["x"]),
    ("y - x^2", ["x", "y", "z"]),
    ("z - x^3", ["x", "y", "z"]),
    ("z^2 - y^3", ["y", "z"]),
    ("1 - w*y", ["w", "y"]),
    ("t*x", ["t", "x"]),
    ("x - 1", ["x"]),
    ("-x^2 - 1/3", ["x"]),
    ("x^2*y^3*z - 7/5*z^4 + 2", ["x", "y", "z"]),
]


@pytest.mark.parametrize("text,names", CORPUS, ids=[c[0] for c in CORPUS])
def test_round_trip_corpus(text, names):
    ctx = VarContext(names)
    f = parse_poly(text, ctx)
    assert parse_poly(poly_to_string(f), ctx) == f


def test_round_trip_random_polynomials():
    rng = random.Random(20260810)
    ctx = VarContext(["x", "y", "z", "t"])
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            mono = tuple(rng.randint(0, 4) for _ in range(4))
            terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        f = MultiPoly(ctx, terms)
        assert parse_poly(poly_to_string(f), ctx) == f


_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|[0-9]+|[-+*/^]")
_small_polys = st.dictionaries(
    st.tuples(*(st.integers(0, 3) for _ in range(4))),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    max_size=5,
).map(lambda d: MultiPoly(CTX, d))


@settings(max_examples=200, deadline=None)
@given(_small_polys, st.data())
def test_spaces_between_tokens_change_nothing(f, data):
    tokens = _TOKEN.findall(poly_to_string(f))
    gaps = data.draw(
        st.lists(
            st.text(" \t\n\r\f\v", max_size=3),
            min_size=len(tokens) + 1,
            max_size=len(tokens) + 1,
        )
    )
    text = gaps[0] + "".join(t + g for t, g in zip(tokens, gaps[1:]))
    assert parse_poly(text, CTX) == f
