"""Ideal presentations, reduced Groebner bases and the operations built on
them: normal forms, membership and equality tests, elimination, saturation
and the two homogenisation procedures.

The numeric work happens in ``_kernel``, the pure-Python engine, on raw
integer term lists; this module owns the conversions, the caps
(``GBLimits``) and the contracts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, lcm

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
    under any monomial order; under every order but grevlex ``buchberger``
    also reduces the tails at once, under the same cap.  A basis already
    stored on the presentation, attached by ``homogenise_ideal`` or kept
    from an earlier run, runs no pair loop, so it hits neither cap; the
    generators' degrees are still checked.  ``homogenise_ideal`` applies
    the caps to the one pair loop it runs: with at most as many generators
    as variables that is the naive closure's, whose generators have the
    degrees of I's, and otherwise I's own.  A presentation keeps every
    basis computed for it, one per order.  A grevlex basis is tail-reduced
    when first compared, hashed, reduced against or read, uncapped: that
    reduction makes no polynomial of a higher degree than the minimal basis
    has.  The kernel packs monomials
    in 16-bit fields and runs a call again in 32-bit ones when a degree
    reaches 2^15, so a run past that degree costs a rerun but gives the
    same basis; total degree 2^31 is the kernel's own bound, past any cap.
    Raises ValueError on a negative cap.
    """

    max_pairs: int = 500_000
    max_degree: int = 64

    def __post_init__(self):
        for name in ("max_pairs", "max_degree"):
            if getattr(self, name) < 0:
                raise ValueError(f"GBLimits.{name} must be >= 0, got {getattr(self, name)}")


DEFAULT_LIMITS = GBLimits()


class IdealPresentation:
    """A finite generator list; the ideal is its span, not canonicalised.

    Zero generators and exact duplicates are dropped at construction; the
    order of what remains is preserved, since generator-wise operations
    (naive homogenisation above all) depend on the presentation.  An empty
    list after dropping presents the zero ideal, which elimination can
    legitimately produce.  Equality, hashing and ``repr`` read ``ctx`` and
    ``generators``, and the attributes are read-only.  A presentation keeps
    every basis computed for it, one per order, and its naive closures, one
    per variable name; a saturated closure is presented by its reduced
    basis, built when first read.
    """

    def __init__(self, ctx: VarContext, generators):
        gens = []
        for g in generators:
            if g.ctx != ctx:
                raise ContextMismatch("generator context differs from ideal context")
            if not g.is_zero() and g not in gens:
                gens.append(g)
        _set = object.__setattr__
        _set(self, "ctx", ctx)
        # None while homogenise_ideal's result has not built them
        _set(self, "_generators", tuple(gens))
        # order -> ReducedGB: attached by homogenise_ideal, kept by buchberger
        _set(self, "_bases", {})
        # tvar -> homogenise_naive's result, kept with its bases
        _set(self, "_naive", {})

    @property
    def generators(self) -> tuple[MultiPoly, ...]:
        if self._generators is None:
            # homogenise_ideal's result: the reduced basis it carries
            object.__setattr__(self, "_generators", self._bases[GREVLEX].basis)
        return self._generators

    def __setattr__(self, name, value):
        raise AttributeError(f"IdealPresentation is read-only: cannot set {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ctx, self.generators) == (other.ctx, other.generators)

    def __hash__(self):
        return hash((self.ctx, self.generators))

    def __repr__(self):
        return f"IdealPresentation(ctx={self.ctx!r}, generators={self.generators!r})"

    def is_zero_ideal(self) -> bool:
        return not self.generators


class ReducedGB:
    """The unique reduced Groebner basis of an ideal for an order.

    Every element of ``basis`` is monic and no term of any element is
    divisible by the leading term of another.  ``basis`` is sorted
    ascending by leading monomial, each element leading term first.

    It is built from a minimal basis in the kernel's form: primitive
    ``[(exp, int)]`` lists, each sorted leading term first, whose leading
    monomials are the reduced basis's.  Lists that are not a
    ``_kernel.Basis``, a pickle's among them, are checked for that order,
    and a ``_kernel.Basis`` must be keyed for it and the context's variable
    count; ValueError otherwise.  ``leading_monomials``, ``contains_one``
    and ``is_homogeneous`` read the minimal basis, and a pickle holds it
    alone.  ``_kernel.interreduce_raw`` tail-reduces it on first use into
    the kernel's keyed reduced basis, whose integer lists are canonical:
    equality, hashing and ``normal_form`` read them, and ``basis`` is built
    from them on first read.  ``buchberger`` reduces the tails at once,
    under its degree cap, under every order but grevlex, where no tail term
    has a higher degree than its leading term.  The attributes are
    read-only.
    """

    __slots__ = ("ctx", "order", "_minimal", "_reduced", "_basis")

    def __init__(self, ctx: VarContext, order: MonomialOrder, minimal):
        keying = (len(ctx), *order.code)
        if isinstance(minimal, _kernel.Basis):
            if minimal.keying != keying:
                raise ValueError(
                    f"kernel basis keyed for (nvars, kind, block) {minimal.keying}, "
                    f"not {keying}: {len(ctx)} variables under {order}"
                )
        else:
            for i, terms in enumerate(minimal):
                keys = [order.key(m) for m, _ in terms]
                if not keys or any(k >= keys[0] for k in keys[1:]):
                    raise ValueError(
                        f"minimal basis element {i} does not start with its "
                        f"{order} leading term: {terms!r}"
                    )
            minimal = _kernel.Basis.of_lists(minimal, *keying)
        _set = object.__setattr__
        _set(self, "ctx", ctx)
        _set(self, "order", order)
        _set(self, "_minimal", minimal)
        # the kernel's reduced basis, and its monic MultiPolys, once made
        _set(self, "_reduced", None)
        _set(self, "_basis", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"ReducedGB is read-only: cannot set {name!r}")

    def __reduce__(self):
        # a plain list: the engine polynomials a kernel basis keeps are not
        # pickled
        return ReducedGB, (self.ctx, self.order, list(self._minimal))

    def _tails(self, max_degree=inf):
        """The reduced basis as the kernel returns it, tail-reduced from the
        minimal basis on first call, refusing a polynomial of total degree
        above ``max_degree``."""
        if self._reduced is None:
            reduced = _kernel.interreduce_raw(self._minimal, max_degree)
            object.__setattr__(self, "_reduced", reduced)
        return self._reduced

    @property
    def basis(self) -> tuple[MultiPoly, ...]:
        if self._basis is None:
            object.__setattr__(self, "_basis", _monic(self.ctx, self._tails()))
        return self._basis

    def __eq__(self, other):
        if not isinstance(other, ReducedGB):
            return NotImplemented
        return (self.ctx, self.order, self._tails()) == (other.ctx, other.order, other._tails())

    def __hash__(self):
        return hash((self.ctx, self.order, tuple(map(tuple, self._tails()))))

    def __repr__(self):
        return f"ReducedGB(ctx={self.ctx!r}, order={self.order!r}, basis={self.basis!r})"

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(terms[0][0] for terms in self._minimal)

    def contains_one(self) -> bool:
        leads = self.leading_monomials()
        return len(leads) == 1 and not any(leads[0])

    def is_homogeneous(self) -> bool:
        # a grevlex element's first and last terms have its largest and
        # smallest degree; under lex x + y^2 + z's do not.  A homogeneous
        # ideal can have an inhomogeneous minimal basis, {x, y^2 + x} of
        # <x, y^2> for one, so that case asks the reduced basis
        if self.order.kind == "grevlex" and all(
            sum(terms[0][0]) == sum(terms[-1][0]) for terms in self._minimal
        ):
            return True
        return all(len({sum(e) for e, _ in terms}) == 1 for terms in self._tails())


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
    result does not depend on generator order or pair selection.  A
    presentation keeps every basis computed for it, one per order, and a
    later call for that order returns it; ``homogenise_ideal``, and
    ``ideal_equal`` and ``ideal_contains`` by default, read the grevlex
    one.  Under grevlex the tails are reduced only when the basis is read
    (see ``ReducedGB``); under other orders here, since a reduced tail can
    have a higher degree than the minimal basis.
    Raises ResourceLimitExceeded when a generator's degree exceeds
    ``limits.max_degree``, before the kernel runs, and when the total degree
    of any polynomial the kernel makes does, under any monomial order.
    """
    if I._generators is None:
        # homogenise_ideal's result, its generators not built: each element
        # of its homogeneous minimal basis has its leading term's degree
        top = max((sum(terms[0][0]) for terms in I._bases[GREVLEX]._minimal), default=-1)
    else:
        top = max((g.degree() for g in I.generators), default=-1)
    if top > limits.max_degree:
        raise ResourceLimitExceeded(
            f"degree cap {limits.max_degree} exceeded by an input of degree {top}"
        )
    if order in I._bases:
        return I._bases[order]
    raw = [_clear_denominators(g)[1] for g in I.generators]
    nvars = len(I.ctx)
    minimal = _kernel.buchberger_raw(raw, nvars, *order.code, limits.max_pairs, limits.max_degree)
    G = ReducedGB(I.ctx, order, minimal)
    if order.kind != "grevlex":
        # a reduced tail can outgrow the minimal basis's degree: under lex
        # {x - y^3, y^2 - z^7} reduces to degree 8
        G._tails(limits.max_degree)
    I._bases[order] = G
    return G


def normal_form(f: MultiPoly, G: ReducedGB) -> MultiPoly:
    """Remainder of f on division by G; zero iff f lies in the ideal."""
    if f.ctx != G.ctx:
        raise ContextMismatch("polynomial context differs from basis context")
    if f.is_zero() or not G._minimal:
        return f
    den, fraw = _clear_denominators(f)
    tail, mult = _kernel.normal_form_raw(fraw, G._tails())
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
    if B._generators is None:
        # homogenise_ideal's result, its generators not built: the minimal
        # basis it carries spans the same ideal, with no tail reduction
        tails = G._tails()
        minimal = B._bases[GREVLEX]._minimal
        return all(not _kernel.normal_form_raw(terms, tails)[0] for terms in minimal)
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
    # eliminate's context, I.ctx's names in their order, equals I.ctx
    return eliminate(IdealPresentation(big_ctx, gens), {w}, limits)


def homogenise_naive(
    I: IdealPresentation, tvar: str = "t"
) -> IdealPresentation:
    """Homogenise generator by generator; the result DEPENDS on the
    presentation, which is exactly the phenomenon the library exists to
    exhibit.

    The result is kept on I: a later call with the same tvar returns the
    same object, carrying every basis computed for it, so
    ``homogenise_ideal`` reuses a basis the caller already has.
    """
    out = I._naive.get(tvar)
    if out is None:
        new_ctx = I.ctx.extend(tvar)
        out = IdealPresentation(new_ctx, [homogenise_poly(g, tvar) for g in I.generators])
        I._naive[tvar] = out
    return out


def homogenise_ideal(
    I: IdealPresentation,
    tvar: str = "t",
    limits: GBLimits = DEFAULT_LIMITS,
) -> IdealPresentation:
    """The homogenisation I^h of the ideal itself.  Presentation-independent.

    I^h is the saturation ``homogenise_naive(I, tvar)`` : t^∞, t = tvar,
    and is computed by one of two routes, each ending in a minimal grevlex
    basis of I^h with tvar appended last:

    - with at most as many generators as variables, the regime in which
      the kernel runs its signature loop, from the naive closure's minimal
      basis.  By Bayer's lemma (Bayer-Stillman, Invent. Math. 87 (1987);
      Eisenbud, *Commutative Algebra*, Prop. 15.12), for a homogeneous
      ideal J under grevlex with t last, t divides an element of a Groebner
      basis of J iff it divides its leading term, and dividing each element
      by its leading term's power of t gives a Groebner basis of J : t^∞.
      The divided basis is minimalised.  The naive closure is the one
      ``homogenise_naive`` keeps on I, so a caller that already has its
      basis runs no pair loop here;
    - with more generators, from the kernel's minimal grevlex basis of I,
      homogenised element by element (Cox, Little, O'Shea, *Ideals,
      Varieties, and Algorithms*, section 8.4, Theorem 4): with tvar last
      each element keeps its grevlex leading monomial.  On the 16 quadrics
      of the sl(4) minimal orbit the naive closure's pair loop took ten
      times as long.

    No tail reduction runs on either route.  The result carries the basis:
    ``buchberger(result)`` returns it without a second pair loop, and
    ``hilbert`` reads it as it is.  The result is presented by its reduced
    basis, the homogenised reduced basis of I, which is unique, so equal
    ideals give equal results; it is built when first read, and a pickle
    holds the minimal basis alone.
    """
    ctx = I.ctx.extend(tvar)
    if len(I.generators) <= len(I.ctx):
        naive = buchberger(homogenise_naive(I, tvar), GREVLEX, limits)
        minimal = _saturate_last(naive._minimal)
    else:
        # a grevlex leading term has its element's largest degree
        hom = []
        for terms in buchberger(I, GREVLEX, limits)._minimal:
            d = sum(terms[0][0])
            hom.append([(e + (d - sum(e),), c) for e, c in terms])
        # sorted by construction: appending t last keeps grevlex order
        minimal = _kernel.Basis.of_lists(hom, len(ctx), *GREVLEX.code)
    out = IdealPresentation(ctx, ())
    object.__setattr__(out, "_generators", None)
    out._bases[GREVLEX] = ReducedGB(ctx, GREVLEX, minimal)
    return out


def _saturate_last(minimal):
    """A minimal grevlex basis of J : t^∞ from ``minimal``, the kernel's
    minimal grevlex basis of a homogeneous ideal J, t its last variable.

    Each element is divided by its leading term's power of t, which divides
    every term (Bayer's lemma, see ``homogenise_ideal``); division keeps
    each element's term order.  Of the results, sorted ascending by leading
    monomial, those whose leading monomial an earlier one's divides are
    dropped.  A ``_kernel.Basis`` keyed as ``minimal``.
    """
    divided = []
    for terms in minimal:
        k = terms[0][0][-1]
        divided.append([(e[:-1] + (e[-1] - k,), c) for e, c in terms] if k else terms)
    divided.sort(key=lambda terms: GREVLEX.key(terms[0][0]))
    kept = []
    for terms in divided:
        lead = terms[0][0]
        if not any(all(map(int.__le__, other[0][0], lead)) for other in kept):
            kept.append(terms)
    return _kernel.Basis.of_lists(kept, *minimal.keying)


def dehomogenise_ideal(I: IdealPresentation, tvar: str) -> IdealPresentation:
    """Set tvar = 1 in every generator (drops the variable)."""
    ctx = I.ctx.without([tvar])
    return IdealPresentation(ctx, [dehomogenise_poly(g, tvar) for g in I.generators])
