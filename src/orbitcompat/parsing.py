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
"""

from __future__ import annotations

import re
from fractions import Fraction

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
    index = {name: i for i, name in enumerate(ctx.names)}
    terms: dict[Monomial, Fraction | int] = {}
    pos = 0
    m = _SIGN.match(text)  # optional before the first term, required after
    while True:
        if m:
            pos = m.end()
        sign = -1 if m and m[1] == "-" else 1
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
        mono = tuple(exps)
        terms[mono] = terms[mono] + coeff if mono in terms else coeff
        m = _SIGN.match(text, pos)
        if not m:
            break
    end = _SPACE.match(text, pos).end()
    if end < len(text):
        raise ParseError(f"unexpected {text[end]!r}", end)
    return MultiPoly(ctx, terms)


def format_rational(c: Fraction) -> str:
    """``n`` for an integer, ``n/d`` otherwise."""
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _monomial_str(mono: Monomial, ctx: VarContext) -> str:
    parts = []
    for name, e in zip(ctx.names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def poly_to_string(f: MultiPoly, order: MonomialOrder = GREVLEX) -> str:
    """Canonical text form: terms descending in ``order``."""
    if f.is_zero():
        return "0"
    out = []
    for mono in sorted(f.terms, key=order.key, reverse=True):
        coeff = f.terms[mono]
        mstr = _monomial_str(mono, f.ctx)
        neg = coeff.numerator < 0
        mag = format_rational(coeff).lstrip("-")
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
