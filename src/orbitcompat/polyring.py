"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial lives in a ``VarContext`` (a fixed, ordered tuple of variable
names) and is stored sparsely as a map from exponent tuples to nonzero
``fractions.Fraction`` coefficients.  The zero polynomial has an empty term
map.  All values are immutable after construction, so everything here is safe
to share between threads.

Monomials are plain ``tuple[int, ...]`` exponent vectors, one entry per
context variable.  Monomial orders are small objects exposing an additive
sort key: ``key(a) + key(b) == key(mul(a, b))`` componentwise, which is what
the Groebner engine relies on.  The key formulas live in one place, the
engine's ``make_key``; an order carries the ``(kind, block)`` code it takes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from ._kernel.pure import KINDS, make_key

Monomial = tuple[int, ...]

# Exponents are capped well below 2**31; degrees in this problem domain stay
# in single digits, so hitting the cap signals a runaway computation.
MAX_EXPONENT = 2**31 - 1

_IDENT_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


class PolyError(Exception):
    """Base class for polynomial-layer errors."""


class ContextMismatch(PolyError):
    """Operands live in different variable contexts."""


@dataclass(frozen=True)
class VarContext:
    """An ordered tuple of distinct variable names.

    The position of a name is its coordinate index; it never changes after
    construction.
    """

    names: tuple[str, ...]

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise PolyError("context needs at least one variable")
        seen = set()
        for name in names:
            if not name or name[0].isdigit() or not set(name) <= _IDENT_OK:
                raise PolyError(f"invalid variable name {name!r}")
            if name in seen:
                raise PolyError(f"duplicate variable name {name!r}")
            seen.add(name)
        object.__setattr__(self, "names", names)

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise PolyError(f"unknown variable {name!r}") from None

    def extend(self, name: str) -> "VarContext":
        """New context with `name` appended last."""
        if name in self.names:
            raise PolyError(f"variable {name!r} already in context")
        return VarContext(self.names + (name,))

    def without(self, names: Iterable[str]) -> "VarContext":
        gone = set(names)
        return VarContext(n for n in self.names if n not in gone)

    def fresh_name(self, stem: str = "w") -> str:
        """A name not present in the context."""
        if stem not in self.names:
            return stem
        i = 0
        while f"{stem}{i}" in self.names:
            i += 1
        return f"{stem}{i}"


def mono_one(nvars: int) -> Monomial:
    return (0,) * nvars


def mono_degree(m: Monomial) -> int:
    return sum(m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    out = tuple(x + y for x, y in zip(a, b))
    if any(e > MAX_EXPONENT for e in out):
        raise PolyError("monomial exponent overflow")
    return out


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order on a fixed number of variables.

    kind is one of "lex", "grevlex", "elim"; elim(k) is a block order that
    ranks any monomial involving one of the first k variables above every
    monomial in the remaining variables (grevlex inside each block).
    """

    kind: str
    block: int = 0
    # (kind number, block) as the Groebner engine takes them
    code: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise PolyError(f"unknown order kind {self.kind!r}")
        if self.kind == "elim" and self.block < 1:
            raise PolyError("elimination order needs a positive block size")
        object.__setattr__(self, "code", (KINDS[self.kind], self.block))

    def key(self, m: Monomial) -> tuple[int, ...]:
        """Sort key: key(a) < key(b) iff a < b in this order.

        Keys add componentwise under monomial multiplication, which makes
        the order multiplicative by construction.
        """
        return make_key(m, *self.code)

    def leading(self, monomials: Iterable[Monomial]) -> Monomial:
        return max(monomials, key=self.key)

    def __str__(self) -> str:
        return f"elim:{self.block}" if self.kind == "elim" else self.kind


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


def elimination(block: int) -> MonomialOrder:
    return MonomialOrder("elim", block)


def order_from_name(name: str) -> MonomialOrder:
    if name == "lex":
        return LEX
    if name == "grevlex":
        return GREVLEX
    if name.startswith("elim:"):
        try:
            return elimination(int(name.split(":", 1)[1]))
        except ValueError:
            raise PolyError(f"bad elimination block in {name!r}") from None
    raise PolyError(f"unknown monomial order {name!r}")


class MultiPoly:
    """A multivariate polynomial with exact rational coefficients.

    Immutable.  ``terms`` maps exponent tuples to nonzero Fractions; the
    zero polynomial is the empty map.
    """

    __slots__ = ("ctx", "terms", "_hash")

    def __init__(self, ctx: VarContext, terms: Mapping[Monomial, Fraction | int]):
        cleaned: dict[Monomial, Fraction] = {}
        n = len(ctx)
        for mono, coeff in terms.items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if len(mono) != n:
                raise PolyError("monomial length does not match context")
            if any(e < 0 for e in mono):
                raise PolyError("negative exponent")
            if any(e > MAX_EXPONENT for e in mono):
                raise PolyError("monomial exponent overflow")
            cleaned[mono] = coeff
        self.ctx = ctx
        self.terms = cleaned
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ctx: VarContext) -> "MultiPoly":
        return MultiPoly(ctx, {})

    @staticmethod
    def constant(ctx: VarContext, value) -> "MultiPoly":
        return MultiPoly(ctx, {mono_one(len(ctx)): Fraction(value)})

    @staticmethod
    def variable(ctx: VarContext, name: str) -> "MultiPoly":
        exp = [0] * len(ctx)
        exp[ctx.index(name)] = 1
        return MultiPoly(ctx, {tuple(exp): Fraction(1)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {mono_degree(m) for m in self.terms}
        return len(degs) <= 1

    def constant_term(self) -> Fraction:
        return self.terms.get(mono_one(len(self.ctx)), Fraction(0))

    def leading_monomial(self, order: MonomialOrder) -> Monomial:
        if not self.terms:
            raise PolyError("zero polynomial has no leading monomial")
        return order.leading(self.terms)

    def leading_coeff(self, order: MonomialOrder) -> Fraction:
        return self.terms[self.leading_monomial(order)]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch(
                f"contexts differ: {self.ctx.names} vs {other.ctx.names}"
            )

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return MultiPoly(self.ctx, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) - c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return MultiPoly(self.ctx, out)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return MultiPoly(self.ctx, out)

    __rmul__ = __mul__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.ctx, {m: -c for m, c in self.terms.items()})

    def scale(self, factor) -> "MultiPoly":
        factor = Fraction(factor)
        if factor == 0:
            return MultiPoly.zero(self.ctx)
        return MultiPoly(self.ctx, {m: c * factor for m, c in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise PolyError("negative power")
        out = MultiPoly.constant(self.ctx, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ctx, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        from .parsing import poly_to_string

        return f"MultiPoly({poly_to_string(self)!r})"

    def __str__(self) -> str:
        from .parsing import poly_to_string

        return poly_to_string(self)

    # -- substitution and context maps --------------------------------------

    def substitute(self, values: Mapping[str, Fraction | int]) -> "MultiPoly":
        """Replace the named variables with rational constants."""
        idx = {self.ctx.index(name): Fraction(v) for name, v in values.items()}
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            c = coeff
            new = list(mono)
            for i, v in idx.items():
                if mono[i]:
                    c *= v ** mono[i]
                new[i] = 0
            if not c:
                continue
            key = tuple(new)
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return MultiPoly(self.ctx, out)

    def map_context(self, new_ctx: VarContext) -> "MultiPoly":
        """Re-express the polynomial in ``new_ctx`` (a superset reordering).

        Every variable that actually occurs must exist in the new context.
        """
        positions = []
        for i, name in enumerate(self.ctx.names):
            if name in new_ctx.names:
                positions.append(new_ctx.index(name))
            else:
                positions.append(-1)
        n = len(new_ctx)
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            new = [0] * n
            for i, e in enumerate(mono):
                if not e:
                    continue
                if positions[i] < 0:
                    raise PolyError(
                        f"variable {self.ctx.names[i]!r} not in target context"
                    )
                new[positions[i]] = e
            out[tuple(new)] = coeff
        return MultiPoly(new_ctx, out)


def homogenise_poly(f: MultiPoly, tvar: str) -> MultiPoly:
    """Homogenise f with a fresh variable appended last to the context.

    The result is homogeneous of degree deg(f) and recovers f when the new
    variable is set to 1.
    """
    if f.is_zero():
        raise PolyError("cannot homogenise the zero polynomial")
    ctx = f.ctx.extend(tvar)
    d = f.degree()
    out = {}
    for mono, coeff in f.terms.items():
        out[mono + (d - mono_degree(mono),)] = coeff
    return MultiPoly(ctx, out)


def dehomogenise_poly(f: MultiPoly, tvar: str) -> MultiPoly:
    """Set tvar = 1 and drop it from the context."""
    ti = f.ctx.index(tvar)
    ctx = f.ctx.without([tvar])
    out: dict[Monomial, Fraction] = {}
    for mono, coeff in f.terms.items():
        key = mono[:ti] + mono[ti + 1 :]
        s = out.get(key, 0) + coeff
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return MultiPoly(ctx, out)
