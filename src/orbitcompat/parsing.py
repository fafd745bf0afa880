"""Text form of polynomials.

Grammar (ASCII, whitespace insignificant)::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := coeff ('*' factor)* | factor ('*' factor)*
    factor := var ('^' nat)?
    coeff  := nat ('/' posnat)?
    var    := [A-Za-z][A-Za-z0-9_]*
    nat    := [0-9]+
    posnat := [0-9]*[1-9][0-9]*

Whitespace is ASCII: space, tab, newline, carriage return, form feed and
vertical tab.  Any other character outside the grammar, a non-ASCII digit,
letter or space included, is a ParseError.

Printing is canonical: terms sorted descending by a monomial order (grevlex
by default), coefficients as integers or num/den, explicit '*' between
factors and '^' for powers.  ``parse_poly(poly_to_string(f)) == f`` for every
polynomial.

Both directions share a vocabulary per tuple of variable names
(``_vocabulary``).  It holds each monomial's canonical text, the exponents
of each such text, and each monomial's sort key under each order it was
printed in.  The printer enters every monomial it prints, and the parser
every monomial run it has read factor by factor, so a text the library
wrote reads back without parsing a factor.  The vocabulary lasts as long
as this module and holds only monomials that were printed or parsed.  Each
entry is one dict assignment of a value that any thread would compute
alike, so concurrent use needs no locking.

The parser first tries each term against the shape the printer writes
(``_TERM``): a coefficient, a run of factors or both, joined by bare '*',
powers as bare '^' and digits.  Its guard makes every name and number the
grammar's whole token and leaves no '*', '/' or '^' after the term, so a
match is one term of the grammar, ending where the grammar ends it.  When
the vocabulary knows the run, its exponents are the grammar's: the run was
printed from them or read into them by the factor loop.  Every other term,
and every error, goes through the factor loop, so polynomials, messages
and positions are the grammar's.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache

from .polyring import GREVLEX, Monomial, MonomialOrder, MultiPoly, VarContext

# One pattern per production, each taking the whitespace before it.  The
# number after '/' or '^' may match empty, so that its error points past the
# operator.
_SIGN = re.compile(r"\s*([+-])", re.ASCII)
_COEFF = re.compile(r"\s*([0-9]+)(?:\s*/\s*([0-9]*))?", re.ASCII)
_FACTOR = re.compile(r"\s*([A-Za-z][A-Za-z0-9_]*)(?:\s*\^\s*([0-9]*))?", re.ASCII)
_STAR = re.compile(r"\s*\*", re.ASCII)
# the grammar's whitespace, the set that \s matches under re.ASCII
WHITESPACE = " \t\n\r\f\v"
# where an error or trailing text starts
_SPACE = re.compile(r"\s*", re.ASCII)
# a term as the printer writes it, then the sign of the next term, if any;
# see the module docstring for why a match reads as the grammar reads it
_FACTORS = r"[A-Za-z][A-Za-z0-9_]*(?:\^[0-9]+)?(?:\*[A-Za-z][A-Za-z0-9_]*(?:\^[0-9]+)?)*"
_TERM = re.compile(
    rf"\s*(?:([0-9]+)(?:/([0-9]+))?(?:\*({_FACTORS}))?|({_FACTORS}))"
    r"(?![A-Za-z0-9_]|\s*[*/^])(?:\s*([+-]))?",
    re.ASCII,
)


class _Texts(dict):
    """Canonical text of each monomial met, filled on first use; a new text
    is also entered in ``exps``, its inverse."""

    __slots__ = ("names", "exps")

    def __init__(self, names: tuple[str, ...], exps: dict[str, Monomial]):
        self.names = names
        self.exps = exps

    def __missing__(self, mono: Monomial) -> str:
        parts = []
        for name, e in zip(self.names, mono):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        text = "*".join(parts)
        self.exps[text] = mono
        self[mono] = text
        return text


class _Keys(dict):
    """Sort key of each monomial met under one order, filled on first use."""

    __slots__ = ("order",)

    def __init__(self, order: MonomialOrder):
        self.order = order

    def __missing__(self, mono: Monomial) -> tuple[int, ...]:
        key = self[mono] = self.order.key(mono)
        return key


class _Vocabulary:
    """What the printer and the parser have learnt of the monomials over one
    tuple of variable names: each name's position, each monomial's canonical
    text and sort key per order, and the exponents of each canonical text."""

    __slots__ = ("index", "exps", "texts", "keys", "one")

    def __init__(self, names: tuple[str, ...]):
        self.index = {name: i for i, name in enumerate(names)}
        self.exps: dict[str, Monomial] = {}
        self.texts = _Texts(names, self.exps)
        self.keys: dict[tuple[int, int], _Keys] = {}
        self.one = (0,) * len(names)  # the monomial 1

    def order_keys(self, order: MonomialOrder) -> _Keys:
        keys = self.keys.get(order.code)
        if keys is None:
            keys = self.keys.setdefault(order.code, _Keys(order))
        return keys


# unbounded: it holds only the monomials this process has printed or parsed
@cache
def _vocabulary(names: tuple[str, ...]) -> _Vocabulary:
    return _Vocabulary(names)


class ParseError(Exception):
    """Syntax or name error, with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos


def parse_poly(text: str, ctx: VarContext) -> MultiPoly:
    """Parse ``text`` into a polynomial over ``ctx``.

    A ParseError points at the first character the grammar cannot take, or
    at the end of the text.
    """
    vocab = _vocabulary(ctx.names)
    known = vocab.exps
    terms: dict[Monomial, Fraction | int] = {}
    m = _SIGN.match(text)  # optional before the first term, required after
    pos, sign = (m.end(), m[1]) if m else (0, "+")
    while sign:
        sign = -1 if sign == "-" else 1
        mono = None
        term = _TERM.match(text, pos)
        if term:
            num, den, run, bare, after = term.groups()
            run = run or bare
            # a zero denominator is left to the factor loop to refuse
            if den is None or int(den):
                mono = known.get(run) if run else vocab.one
        if mono is not None:
            if num is None:
                coeff = sign
            else:
                coeff = sign * int(num) if den is None else Fraction(sign * int(num), int(den))
            pos, sign = term.end(), after
        else:
            exps, coeff, pos = _term(text, pos, sign, vocab.index)
            mono = tuple(exps)
            if term and run:
                # the term ended with the run, so the loop read just the run
                known[run] = mono
            m = _SIGN.match(text, pos)
            pos, sign = (m.end(), m[1]) if m else (pos, None)
        terms[mono] = terms[mono] + coeff if mono in terms else coeff
    end = _SPACE.match(text, pos).end()
    if end < len(text):
        raise ParseError(f"unexpected {text[end]!r}", end)
    return MultiPoly(ctx, terms)


def _term(text: str, pos: int, sign: int, index: dict[str, int]) -> tuple[list[int], Fraction | int, int]:
    """The exponents and coefficient of the term at ``pos``, whose sign is
    ``sign``, read factor by factor, and where the term ends."""
    exps = [0] * len(index)
    expected = "expected a term"
    item = _COEFF.match(text, pos)  # the term's last item so far
    if item:
        num, den = item.groups()
        if den == "":
            raise ParseError("expected a number", item.end())
        if den is not None and not int(den):
            raise ParseError("zero denominator", item.start(2))
        coeff = sign * int(num) if den is None else Fraction(sign * int(num), int(den))
        pos = item.end()
    else:
        coeff = sign
    while True:
        if item:
            # after a coefficient or a factor only '*' continues the term
            star = _STAR.match(text, pos)
            if not star:
                break
            pos = star.end()
            expected = "expected a variable name"
        item = _FACTOR.match(text, pos)
        if not item:
            raise ParseError(expected, _SPACE.match(text, pos).end())
        name, power = item.groups()
        if name not in index:
            raise ParseError(f"unknown variable {name!r}", item.start(1))
        if power == "":
            raise ParseError("expected a number", item.end())
        exps[index[name]] += 1 if power is None else int(power)
        pos = item.end()
    return exps, coeff, pos


def format_rational(c: Fraction) -> str:
    """``n`` for an integer, ``n/d`` otherwise."""
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def poly_to_string(f: MultiPoly, order: MonomialOrder = GREVLEX) -> str:
    """Canonical text form: terms descending in ``order``."""
    if f.is_zero():
        return "0"
    vocab = _vocabulary(f.ctx.names)
    texts = vocab.texts
    terms = f.terms
    out = []
    for mono in sorted(terms, key=vocab.order_keys(order).__getitem__, reverse=True):
        coeff = terms[mono]
        mstr = texts[mono]
        num, den = coeff.as_integer_ratio()
        neg = num < 0
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if not mstr:
            body = mag
        elif mag == "1":
            body = mstr
        else:
            body = f"{mag}*{mstr}"
        if not out:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(out)
