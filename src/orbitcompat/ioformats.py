"""Ideal files and JSON encodings.

An ideal file is plain text: one ``vars:`` header naming the context, then one
generator per line in the polynomial grammar.  ``#`` starts a comment; one
``# meta:`` comment may carry a JSON object of metadata (orbit files record
their eigenvalue spec and construction style there) and survives a round
trip.  An error at a line of the file names that line, and an error in a
JSON document names its field.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import IO

from .groebner import IdealPresentation, ReducedGB
from .hilbert import HilbertData
from .parsing import WHITESPACE, ParseError, parse_poly, poly_to_string
from .polyring import PolyError, VarContext

__all__ = [
    "read_ideal",
    "write_ideal",
    "ideal_to_json",
    "ideal_from_json",
    "gb_to_json",
    "hilbert_to_json",
]

_META_PREFIX = "# meta:"


def write_ideal(out: IO[str], ideal: IdealPresentation, meta: dict | None = None) -> None:
    if meta:
        out.write(f"{_META_PREFIX} {json.dumps(meta, sort_keys=True)}\n")
    out.write("vars: " + ",".join(ideal.ctx.names) + "\n")
    for g in ideal.generators:
        out.write(poly_to_string(g) + "\n")


def read_ideal(inp: IO[str]) -> tuple[IdealPresentation, dict]:
    meta: dict | None = None
    ctx: VarContext | None = None
    gens = []
    for lineno, raw in enumerate(inp, start=1):
        # only the grammar's whitespace is stripped; any other character at
        # a line's ends is a ParseError, as it is inside a polynomial
        line = raw.strip(WHITESPACE)
        if not line:
            continue
        if line.startswith(_META_PREFIX):
            if meta is not None:
                raise PolyError(f"line {lineno}: a second meta line")
            try:
                meta = json.loads(line[len(_META_PREFIX):])
            except json.JSONDecodeError as e:
                raise PolyError(f"line {lineno}: meta is not valid JSON: {e.msg}") from None
            if not isinstance(meta, dict):
                raise PolyError(f"line {lineno}: meta must be a JSON object")
            continue
        if line.startswith("#"):
            continue
        if line.startswith("vars:"):
            if ctx is not None:
                raise PolyError(f"line {lineno}: a second vars: header")
            # every comma separates two names, so an empty name between
            # commas reaches VarContext and is refused there
            header = line[len("vars:"):].strip(WHITESPACE)
            names = [n.strip(WHITESPACE) for n in header.split(",")] if header else []
            try:
                ctx = VarContext(names)
            except PolyError as e:
                raise PolyError(f"line {lineno}: {e}") from None
            continue
        if ctx is None:
            raise PolyError(f"line {lineno}: polynomial before the vars: header")
        try:
            gens.append(parse_poly(line, ctx))
        except ParseError as e:
            # the position counts from the start of the line, indent included
            indent = len(raw) - len(raw.lstrip(WHITESPACE))
            raise ParseError(f"line {lineno}: {e.message}", e.pos + indent) from None
        except PolyError as e:
            # the polynomial layer's refusals, such as an exponent overflow
            raise PolyError(f"line {lineno}: {e}") from None
    if ctx is None:
        raise PolyError("missing vars: header")
    return IdealPresentation(ctx, gens), meta or {}


def ideal_to_json(ideal: IdealPresentation, meta: dict | None = None) -> str:
    doc = {
        "vars": list(ideal.ctx.names),
        "generators": [poly_to_string(g) for g in ideal.generators],
    }
    if meta:
        doc["meta"] = meta
    return json.dumps(doc)


def _strings(doc: dict, field: str) -> list[str]:
    value = doc.get(field)
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise PolyError(f'ideal JSON: "{field}" must be a list of strings')
    return value


def ideal_from_json(text: str) -> tuple[IdealPresentation, dict]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise PolyError(f"ideal JSON is not valid JSON: {e.msg}") from None
    if not isinstance(doc, dict):
        raise PolyError("ideal JSON must be an object")
    names = _strings(doc, "vars")
    try:
        ctx = VarContext(names)
    except PolyError as e:
        raise PolyError(f'ideal JSON: "vars": {e}') from None
    gens = []
    for i, s in enumerate(_strings(doc, "generators")):
        try:
            gens.append(parse_poly(s, ctx))
        except ParseError as e:
            raise ParseError(f"generators[{i}]: {e.message}", e.pos) from None
        except PolyError as e:
            raise PolyError(f"generators[{i}]: {e}") from None
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise PolyError('ideal JSON: "meta" must be an object')
    return IdealPresentation(ctx, gens), meta


def gb_to_json(G: ReducedGB) -> str:
    return json.dumps(
        {
            "vars": list(G.ctx.names),
            "order": str(G.order),
            "basis": [poly_to_string(g, G.order) for g in G.basis],
        }
    )


def hilbert_to_json(h: HilbertData) -> str:
    return json.dumps(
        {
            "numerator": list(h.numerator),
            "krull_dim": h.krull_dim,
            "proj_dim": h.proj_dim,
            "degree": h.degree,
        }
    )


def parse_rational_list(text: str) -> list[Fraction]:
    try:
        return [Fraction(part.strip()) for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as e:
        raise PolyError(f"bad rational list {text!r}: {e}") from None
