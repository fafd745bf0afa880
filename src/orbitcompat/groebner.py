"""Ideal presentations, reduced Groebner bases and the operations built on
them: normal forms, membership and equality tests, elimination, saturation
and the two homogenisation procedures.

The numeric work happens in ``_kernel``, the pure-Python engine, on raw
integer term lists; this module owns the conversions, the caps
(``GBLimits``) and the contracts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from . import _kernel
from .errors import ResourceLimitExceeded
from .polyring import (
    GREVLEX,
    ContextMismatch,
    Monomial,
    MonomialOrder,
    MultiPoly,
    PolyError,
    VarContext,
    dehomogenise_poly,
    elimination,
    homogenise_poly,
)

__all__ = [
    "IdealPresentation",
    "ReducedGB",
    "GBLimits",
    "ResourceLimitExceeded",
    "buchberger",
    "normal_form",
    "ideal_contains",
    "ideal_equal",
    "eliminate",
    "saturate",
    "homogenise_naive",
    "homogenise_ideal",
]


@dataclass(frozen=True)
class GBLimits:
    """Caps for a Buchberger run; generous defaults for this problem size.

    ``max_pairs`` bounds the S-pairs reduced, and ``max_degree`` the total
    degree of every generator and of every polynomial the engine makes,
    under any monomial order.  A basis already stored on the presentation,
    attached by ``homogenise_ideal`` or kept from an earlier run, does no
    work, so it hits neither cap; the generators' degrees are still checked.
    Raises ValueError on a negative cap.
    """

    max_pairs: int = 500_000
    max_degree: int = 64

    def __post_init__(self):
        for name in ("max_pairs", "max_degree"):
            if getattr(self, name) < 0:
                raise ValueError(f"GBLimits.{name} must be >= 0, got {getattr(self, name)}")


DEFAULT_LIMITS = GBLimits()


@dataclass(frozen=True)
class IdealPresentation:
    """A finite generator list; the ideal is its span, not canonicalised.

    Zero generators and exact duplicates are dropped at construction; the
    order of what remains is preserved, since generator-wise operations
    (naive homogenisation above all) depend on the presentation.  An empty
    list after dropping presents the zero ideal, which elimination can
    legitimately produce.
    """

    ctx: VarContext
    generators: tuple[MultiPoly, ...]
    # the reduced basis of the ideal once known: attached by
    # homogenise_ideal or kept from the first buchberger run; buchberger
    # returns it for its order
    _reduced: ReducedGB | None = field(default=None, compare=False, repr=False)

    def __init__(self, ctx: VarContext, generators):
        gens = []
        for g in generators:
            if g.ctx != ctx:
                raise ContextMismatch("generator context differs from ideal context")
            if not g.is_zero() and g not in gens:
                gens.append(g)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "_reduced", None)

    def is_zero_ideal(self) -> bool:
        return not self.generators


class ReducedGB:
    """The unique reduced Groebner basis of an ideal for an order.

    Every element is monic and no term of any element is divisible by the
    leading term of another.  ``basis`` is sorted ascending by leading
    monomial, so equal ideals compare equal structurally: equality, hashing
    and ``repr`` read it.  Each element is stored leading term first: its
    first term is its leading term under ``order``, as the kernel returns it
    and as ``homogenise_poly`` keeps it.

    ``buchberger`` under grevlex hands over the kernel's minimal basis,
    whose leading monomials are the reduced basis's, in the same order.
    ``leading_monomials``, ``contains_one`` and ``is_homogeneous`` read it,
    and ``basis`` is tail-reduced from it by ``_kernel.interreduce_raw`` on
    first use and kept.  Under grevlex no tail term has a higher degree than
    its leading term, so reading ``basis`` never hits a degree cap.  The
    attributes are read-only.
    """

    __slots__ = ("ctx", "order", "_basis", "_minimal", "_keyed")

    def __init__(self, ctx: VarContext, order: MonomialOrder, basis):
        _set = object.__setattr__
        _set(self, "ctx", ctx)
        _set(self, "order", order)
        _set(self, "_basis", tuple(basis))
        # the kernel's minimal basis, [(exp, int)] lists, when built from one
        _set(self, "_minimal", None)
        # the basis keyed for the kernel's normal form, built on first use
        _set(self, "_keyed", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"ReducedGB is read-only: cannot set {name!r}")

    def __reduce__(self):
        return ReducedGB, (self.ctx, self.order, self.basis)

    @classmethod
    def _from_minimal(cls, ctx: VarContext, order: MonomialOrder, minimal: list) -> ReducedGB:
        G = cls(ctx, order, ())
        object.__setattr__(G, "_basis", None)
        object.__setattr__(G, "_minimal", minimal)
        return G

    @property
    def basis(self) -> tuple[MultiPoly, ...]:
        if self._basis is None:
            raw = _kernel.interreduce_raw(self._minimal, len(self.ctx), *self.order.code)
            object.__setattr__(self, "_basis", _monic(self.ctx, raw))
        return self._basis

    def __eq__(self, other):
        if not isinstance(other, ReducedGB):
            return NotImplemented
        return (self.ctx, self.order, self.basis) == (other.ctx, other.order, other.basis)

    def __hash__(self):
        return hash((self.ctx, self.order, self.basis))

    def __repr__(self):
        return f"ReducedGB(ctx={self.ctx!r}, order={self.order!r}, basis={self.basis!r})"

    def _kernel_basis(self) -> list:
        if self._keyed is None:
            raw = [_clear_denominators(g)[1] for g in self.basis]
            keyed = _kernel.key_basis(raw, *self.order.code)
            object.__setattr__(self, "_keyed", keyed)
        return self._keyed

    def leading_monomials(self) -> tuple[Monomial, ...]:
        if self._minimal is not None:
            return tuple(terms[0][0] for terms in self._minimal)
        return tuple(next(iter(g.terms)) for g in self._basis)

    def contains_one(self) -> bool:
        leads = self.leading_monomials()
        return len(leads) == 1 and not any(leads[0])

    def is_homogeneous(self) -> bool:
        # a grevlex element's first and last terms have its largest and
        # smallest degree.  A homogeneous ideal can have an inhomogeneous
        # minimal basis, {x, y^2 + x} of <x, y^2> for one, so that case
        # asks the reduced basis
        if self._minimal is not None and all(
            sum(terms[0][0]) == sum(terms[-1][0]) for terms in self._minimal
        ):
            return True
        return all(g.is_homogeneous() for g in self.basis)


def _clear_denominators(f: MultiPoly) -> tuple[int, list[tuple[Monomial, int]]]:
    """``(d, terms of d*f)`` for the lcm d of the coefficient denominators."""
    den = 1
    for c in f.terms.values():
        den = lcm(den, c.denominator)
    return den, [(m, c.numerator * (den // c.denominator)) for m, c in f.terms.items()]


def _monic(ctx: VarContext, raw: list) -> tuple[MultiPoly, ...]:
    """The kernel's polynomials as monic ``MultiPoly``s.

    They are primitive with positive leading coefficient and sorted
    leading-term-first, so dividing by the first coefficient is monic.
    """
    return tuple(
        MultiPoly(ctx, {m: Fraction(c, terms[0][1]) for m, c in terms}) for terms in raw
    )


def buchberger(
    I: IdealPresentation,
    order: MonomialOrder = GREVLEX,
    limits: GBLimits = DEFAULT_LIMITS,
) -> ReducedGB:
    """Compute the reduced Groebner basis of the presented ideal.

    Deterministic: the reduced basis is unique for (ideal, order), so the
    result does not depend on generator order or pair selection.  The first
    basis computed for a presentation is kept on it, and a later call for
    the same order returns it.  Under grevlex the tails are reduced only
    when the basis is read (see ``ReducedGB``); under other orders here,
    since a reduced tail can have a higher degree than the minimal basis.
    Raises ResourceLimitExceeded when a generator's degree exceeds
    ``limits.max_degree``, before the kernel runs, and when the total degree
    of any polynomial the kernel makes does, under any monomial order.
    """
    top = max((g.degree() for g in I.generators), default=-1)
    if top > limits.max_degree:
        raise ResourceLimitExceeded(
            f"degree cap {limits.max_degree} exceeded by an input of degree {top}"
        )
    if I._reduced is not None and I._reduced.order == order:
        return I._reduced
    raw = [_clear_denominators(g)[1] for g in I.generators]
    nvars = len(I.ctx)
    minimal = _kernel.buchberger_raw(raw, nvars, *order.code, limits.max_pairs, limits.max_degree)
    if order.kind == "grevlex":
        G = ReducedGB._from_minimal(I.ctx, order, minimal)
    else:
        reduced = _kernel.interreduce_raw(minimal, nvars, *order.code, limits.max_degree)
        G = ReducedGB(I.ctx, order, _monic(I.ctx, reduced))
    if I._reduced is None:
        object.__setattr__(I, "_reduced", G)
    return G


def normal_form(f: MultiPoly, G: ReducedGB) -> MultiPoly:
    """Remainder of f on division by G; zero iff f lies in the ideal."""
    if f.ctx != G.ctx:
        raise ContextMismatch("polynomial context differs from basis context")
    if f.is_zero() or not G.basis:
        return f
    den, fraw = _clear_denominators(f)
    tail, mult = _kernel.normal_form_raw(
        fraw, G._kernel_basis(), len(G.ctx), *G.order.code
    )
    scale = mult * den
    return MultiPoly(G.ctx, {m: Fraction(c, scale) for m, c in tail})


def ideal_contains(
    A: IdealPresentation,
    B: IdealPresentation,
    order: MonomialOrder = GREVLEX,
    limits: GBLimits = DEFAULT_LIMITS,
) -> bool:
    """True iff B is contained in A (every generator of B reduces to zero)."""
    if A.ctx != B.ctx:
        raise ContextMismatch("ideals live in different contexts")
    G = buchberger(A, order, limits)
    return all(normal_form(g, G).is_zero() for g in B.generators)


def ideal_equal(
    A: IdealPresentation,
    B: IdealPresentation,
    order: MonomialOrder = GREVLEX,
    limits: GBLimits = DEFAULT_LIMITS,
) -> bool:
    """Decidable ideal equality via uniqueness of the reduced basis."""
    if A.ctx != B.ctx:
        raise ContextMismatch("ideals live in different contexts")
    return buchberger(A, order, limits) == buchberger(B, order, limits)


def eliminate(
    I: IdealPresentation,
    drop: set[str] | frozenset[str],
    limits: GBLimits = DEFAULT_LIMITS,
) -> IdealPresentation:
    """Generators of the elimination ideal I ∩ Q[ctx minus drop].

    Computed from a Groebner basis under a block order ranking the dropped
    variables first; the basis elements free of them generate the
    intersection.
    """
    drop = set(drop)
    if not drop:
        raise PolyError("no variables to eliminate")
    unknown = drop - set(I.ctx.names)
    if unknown:
        raise PolyError(f"cannot drop variables not in context: {sorted(unknown)}")
    if drop == set(I.ctx.names):
        raise PolyError("cannot eliminate every variable")
    first = [n for n in I.ctx.names if n in drop]
    rest = [n for n in I.ctx.names if n not in drop]
    work_ctx = VarContext(first + rest)
    k = len(first)
    work = IdealPresentation(work_ctx, [g.map_context(work_ctx) for g in I.generators])
    G = buchberger(work, elimination(k), limits)
    kept_ctx = VarContext(rest)
    kept = [
        g.map_context(kept_ctx)
        for g in G.basis
        if all(m[:k] == (0,) * k for m in g.terms)
    ]
    return IdealPresentation(kept_ctx, kept)


def saturate(
    I: IdealPresentation,
    f: MultiPoly,
    limits: GBLimits = DEFAULT_LIMITS,
) -> IdealPresentation:
    """The saturation I : f^infinity.

    Uses the fresh-variable trick: adjoin w with the relation 1 - w*f and
    eliminate w.  Idempotent, and always contains I.
    """
    if f.is_zero():
        raise PolyError("cannot saturate by the zero polynomial")
    if f.ctx != I.ctx:
        raise ContextMismatch("saturating polynomial context differs")
    w = I.ctx.fresh_name("w")
    big_ctx = VarContext((w,) + I.ctx.names)
    one = MultiPoly.constant(big_ctx, 1)
    wf = MultiPoly.variable(big_ctx, w) * f.map_context(big_ctx)
    gens = [g.map_context(big_ctx) for g in I.generators] + [one - wf]
    big = IdealPresentation(big_ctx, gens)
    out = eliminate(big, {w}, limits)
    return IdealPresentation(I.ctx, [g.map_context(I.ctx) for g in out.generators])


def homogenise_naive(
    I: IdealPresentation, tvar: str = "t"
) -> IdealPresentation:
    """Homogenise generator by generator; the result DEPENDS on the
    presentation, which is exactly the phenomenon the library exists to
    exhibit."""
    new_ctx = I.ctx.extend(tvar)
    return IdealPresentation(
        new_ctx, [homogenise_poly(g, tvar) for g in I.generators]
    )


def homogenise_ideal(
    I: IdealPresentation,
    tvar: str = "t",
    limits: GBLimits = DEFAULT_LIMITS,
) -> IdealPresentation:
    """The homogenisation I^h of the ideal itself.  Presentation-independent.

    Homogenising the reduced basis of I under a graded order, element by
    element, generates I^h (Cox, Little, O'Shea, *Ideals, Varieties, and
    Algorithms*, section 8.4, Theorem 4).  With tvar appended last, each
    element keeps its grevlex leading monomial and no term of one becomes
    divisible by another's, so the generators returned are the reduced
    grevlex basis of I^h, in its order, and the result carries that basis
    so that ``buchberger(result)`` returns it without a second run.  I^h
    equals the saturation of the generator-wise homogenisation by tvar.
    """
    ctx = I.ctx.extend(tvar)
    G = buchberger(I, GREVLEX, limits)
    out = IdealPresentation(ctx, [homogenise_poly(g, tvar) for g in G.basis])
    object.__setattr__(out, "_reduced", ReducedGB(ctx, GREVLEX, out.generators))
    return out


def dehomogenise_ideal(I: IdealPresentation, tvar: str) -> IdealPresentation:
    """Set tvar = 1 in every generator (drops the variable)."""
    ctx = I.ctx.without([tvar])
    return IdealPresentation(ctx, [dehomogenise_poly(g, tvar) for g in I.generators])
