"""Text form of polynomials.

Grammar (ASCII, whitespace insignificant)::

    expr   := ['-'] term (('+'|'-') term)*
    term   := coeff ('*' factor)* | factor ('*' factor)*
    factor := var ('^' nat)?
    coeff  := nat ('/' posnat)?
    var    := [A-Za-z][A-Za-z0-9_]*

Printing is canonical: terms sorted descending by a monomial order (grevlex
by default), coefficients as integers or num/den, explicit '*' between
factors and '^' for powers.  ``parse_poly(poly_to_string(f)) == f`` for every
polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from .polyring import GREVLEX, Monomial, MonomialOrder, MultiPoly, VarContext


class ParseError(Exception):
    """Syntax or name error, with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def at_end(self) -> bool:
        return self.peek() == ""

    def natural(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", start)
        return int(self.text[start : self.pos])

    def identifier(self) -> str:
        self.skip_ws()
        start = self.pos
        if self.pos >= len(self.text) or not self.text[self.pos].isalpha():
            raise ParseError("expected a variable name", start)
        self.pos += 1
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]


def parse_poly(text: str, ctx: VarContext) -> MultiPoly:
    """Parse ``text`` into a polynomial over ``ctx``."""
    sc = _Scanner(text)
    terms: dict[Monomial, Fraction] = {}
    sign = 1
    if sc.peek() == "-":
        sc.take()
        sign = -1
    elif sc.peek() == "+":
        sc.take()
    _read_term(sc, ctx, terms, sign)
    while not sc.at_end():
        op = sc.take()
        if op == "+":
            sign = 1
        elif op == "-":
            sign = -1
        else:
            raise ParseError(f"unexpected {op!r}", sc.pos - 1)
        _read_term(sc, ctx, terms, sign)
    return MultiPoly(ctx, terms)


def _read_term(sc: _Scanner, ctx: VarContext, terms: dict, sign: int) -> None:
    coeff = Fraction(sign)
    exps = [0] * len(ctx)
    ch = sc.peek()
    if ch.isdigit():
        num = sc.natural()
        den = 1
        if sc.peek() == "/":
            sc.take()
            pos = sc.pos
            den = sc.natural()
            if den == 0:
                raise ParseError("zero denominator", pos)
        coeff *= Fraction(num, den)
        while sc.peek() == "*":
            sc.take()
            _read_factor(sc, ctx, exps)
    elif ch.isalpha():
        _read_factor(sc, ctx, exps)
        while sc.peek() == "*":
            sc.take()
            _read_factor(sc, ctx, exps)
    else:
        raise ParseError("expected a term", sc.pos)
    mono = tuple(exps)
    s = terms.get(mono, Fraction(0)) + coeff
    if s:
        terms[mono] = s
    else:
        terms.pop(mono, None)


def _read_factor(sc: _Scanner, ctx: VarContext, exps: list[int]) -> None:
    pos = sc.pos
    name = sc.identifier()
    try:
        i = ctx.index(name)
    except Exception:
        raise ParseError(f"unknown variable {name!r}", pos) from None
    power = 1
    if sc.peek() == "^":
        sc.take()
        power = sc.natural()
    exps[i] += power


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
        neg = coeff < 0
        mag = -coeff if neg else coeff
        if not mstr:
            body = format_rational(mag)
        elif mag == 1:
            body = mstr
        else:
            body = f"{format_rational(mag)}*{mstr}"
        if not out:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(out)
