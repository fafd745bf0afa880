"""Pure-Python Groebner engine.

Works on raw term lists so the hot loops never touch the public polynomial
wrappers.  A term is ``(key, pack, coeff)`` where ``key`` is the monomial's
packed sort key under the active order, ``pack`` its packed exponent vector
and ``coeff`` a Python int.  A polynomial is a list of terms sorted
descending by key and kept primitive (integer content 1, positive leading
coefficient), which keeps the arithmetic fraction-free: reductions scale by
leading coefficients instead of dividing.

Orders are encoded as ``(kind, block)`` with kind 0 = lex, 1 = grevlex,
2 = block elimination (grevlex on the first ``block`` variables, then
grevlex on the rest); ``KINDS`` maps the kind names to these numbers.
``make_key`` is the one copy of the three key formulas: ``polyring``'s
``MonomialOrder.key`` calls it too.  Each formula is linear in the
exponent, so the engine packs a key into one int: ``packed_key`` is the dot
product of the exponent with per-variable weights, the weight of a variable
being ``make_key`` of its unit vector read as signed 32-bit digits, most
significant field first.  While a monomial's total degree is below 2^31
every field of its key fits its digit, so packed keys order monomials as
``make_key`` does and are injective; being a dot product they are additive,
so a product's key is a sum of ints.

The exponent vector is packed too (Bachmann and Schoenemann, "Monomial
representations for Groebner bases computations", ISSAC 1998): ``_pack``
lays out ``nvars + 1`` unsigned 32-bit fields, exponent ``i`` in field
``i`` and the total degree in the top one.  A product's pack is the sum of
the packs, the total degree is the pack shifted down by ``_layout``'s
shift, and ``a`` divides ``b`` iff ``(pack(b) - pack(a)) & guard == 0``,
the guard holding bit 31 of every exponent field: with every exponent below
2^31 a nonnegative difference leaves the guard bits clear, and the lowest
negative field of a difference sets its own.  Exponent tuples are made only
at input, at output, for a new polynomial's leading monomial and for the
lcms of ``update``.  Key and pack creation refuse a monomial of total
degree 2^31 or more, and each reduction step checks that the monomials it
makes stay below it, raising ``ResourceLimitExceeded`` rather than merging
two monomials under one key.

A reducer enters ``_reduce`` as a head record ``(exp, pack, coeff, key,
rest, top)``: its leading exponent, pack, coefficient and key, its
remaining terms and its top total degree.  ``buchberger`` makes one per
polynomial, when the polynomial is created; ``normal_form`` makes them from
the ``key_basis`` output on each call.

Reduction (``_reduce``) keeps the remainder still to be reduced as a
``{key: coeff}`` dict with a side map from key to pack.  It sums its input
into that dict, so the input need not be sorted or merged: an S-polynomial
goes in as the two shifted, scaled tails (the leading terms cancel).  A
leader list, every key seen and not yet taken in ascending order, gives the
leading term by a pop from its end; a key enters it once, by
``bisect.insort``, when a step first creates it.  The head search is one
subtraction and one AND per head.  A step subtracts the reducer term by
term, shifting each key and each pack by one integer addition, so the
interpreted work of a step grows with the reducer's length, not the
remainder's.  A step scales the remainder only by ``gc // gcd(gc, c0)``
(reducer and remainder leading coefficients), which is 1 for most steps.
Irreducible terms go to the tail with the scale they were taken at and are
brought up to date only when the integer content is normalised, every
``_CONTENT_STRIDE`` steps, and at the end.

``buchberger`` keeps one record per critical pair, ``(key of lcm, pack of
lcm, i, j, lcm)``, made once when ``update`` creates the pair.  The
Gebauer-Moeller tests decide divisibility on the stored packs, and the
normal strategy takes the next pair as ``min`` of the records: the order
key is injective, so that is the smallest lcm, ties broken by the indices.
``normal_form`` reduces against a basis keyed once by ``key_basis``.

This is the package's only Groebner engine.  It has no caps of its own:
``buchberger`` takes them from the caller, whose defaults live in
``groebner.GBLimits``; the 2^31 degree bound is the packs' own.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache
from math import gcd
from operator import itemgetter, mul
from struct import Struct

from ..errors import ResourceLimitExceeded

# Re-normalise integer content after this many reduction steps to keep
# coefficient growth in check without paying a gcd on every step.
_CONTENT_STRIDE = 8

# packed keys hold make_key's fields as signed digits of this many bits, and
# packs the exponents as unsigned fields of as many; a field stays within
# half its width while the total degree is below the bound
_FIELD_BITS = 32
_DEGREE_BOUND = 1 << (_FIELD_BITS - 1)


# the order kinds by name, as ``make_key`` and the engine number them
KINDS = {"lex": 0, "grevlex": 1, "elim": 2}


def make_key(exp, kind, block):
    """Sort key of ``exp``: key(a) < key(b) iff a < b in the order."""
    if kind == 0:
        return exp
    if kind == 1:
        return (sum(exp), *(-e for e in reversed(exp)))
    head = exp[:block]
    tail = exp[block:]
    return (
        sum(head),
        *(-e for e in reversed(head)),
        sum(tail),
        *(-e for e in reversed(tail)),
    )


@lru_cache(maxsize=64)
def _weights(nvars, kind, block):
    """Packed keys of the unit vectors: ``make_key``'s fields as digits."""
    weights = []
    for i in range(nvars):
        unit = (0,) * i + (1,) + (0,) * (nvars - i - 1)
        w = 0
        for field in make_key(unit, kind, block):
            w = (w << _FIELD_BITS) + field
        weights.append(w)
    return tuple(weights)


def _degree_guard(degree):
    if degree >= _DEGREE_BOUND:
        raise ResourceLimitExceeded(
            f"total degree {degree} reaches 2^{_FIELD_BITS - 1}, the bound of packed monomial keys"
        )


def packed_key(exp, kind, block):
    """The int sort key of ``exp``: ordered as ``make_key``, and additive.

    Raises ResourceLimitExceeded when ``exp`` has total degree 2^31 or more.
    """
    _degree_guard(sum(exp))
    return sum(map(mul, exp, _weights(len(exp), kind, block)))


@lru_cache(maxsize=64)
def _layout(nvars):
    """``(struct, guard, shift)`` for packs of ``nvars`` exponents.

    ``struct`` reads and writes the ``nvars + 1`` unsigned 32-bit fields,
    least significant first; ``guard`` has bit 31 of every exponent field
    set; a pack shifted right by ``shift`` is its total degree.  The degree
    field needs no guard bit, since divisibility of the exponents implies
    its own, and the lcms in ``update`` may take it past 2^31.
    """
    guard = sum(1 << (_FIELD_BITS * i + _FIELD_BITS - 1) for i in range(nvars))
    return Struct(f"<{nvars + 1}I"), guard, _FIELD_BITS * nvars


def _pack(exp):
    """The packed exponent vector of ``exp``: additive, and ordered by
    divisibility through ``_layout``'s guard.

    Raises ResourceLimitExceeded when ``exp`` has total degree 2^31 or more.
    """
    degree = sum(exp)
    _degree_guard(degree)
    return int.from_bytes(_layout(len(exp))[0].pack(*exp, degree), "little")


def _unpack(pack, nvars):
    """The exponent tuple of a pack of ``nvars`` exponents."""
    struct = _layout(nvars)[0]
    return struct.unpack(pack.to_bytes(struct.size, "little"))[:nvars]


def _attach_keys(pairs, kind, block):
    """[(exp, int)] -> engine poly, normalised primitive."""
    terms = [(packed_key(e, kind, block), _pack(e), c) for e, c in pairs if c]
    terms.sort(key=lambda t: t[0], reverse=True)
    return _primitive(terms)


def _head(poly, nvars):
    """Head record ``(exp, pack, coeff, key, rest, top)`` of a nonzero poly.

    ``exp`` is the leading exponent, decoded from its pack; ``top`` is the
    largest total degree among the terms.
    """
    k, p, c = poly[0]
    top = max(map(itemgetter(1), poly)) >> _layout(nvars)[2]
    return _unpack(p, nvars), p, c, k, poly[1:], top


def _strip_keys(poly, nvars):
    """Engine poly -> [(exp, int)]."""
    return [(_unpack(p, nvars), c) for _, p, c in poly]


def _content(terms):
    g = 0
    for _, _, c in terms:
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


def _primitive(terms):
    """Divide out the content; flip signs so the leading coefficient is > 0."""
    if not terms:
        return terms
    g = _content(terms)
    if terms[0][2] < 0:
        g = -g
    if g != 1:
        terms = [(k, p, c // g) for k, p, c in terms]
    return terms


def _reduce(f, heads, track_multiplier=False):
    """Fully reduce ``f`` modulo the basis given by its ``heads`` (fraction-free).

    ``f`` is any iterable of terms, in any order: terms with the same key
    are summed and zero sums dropped.  ``heads`` are the ``_head`` records
    of the basis.  Returns ``(tail, mult)`` with ``mult * f = (combination
    of basis) + tail``, the tail sorted descending and no tail monomial
    divisible by any basis leading monomial.  When ``track_multiplier`` is
    false the tail is normalised primitive and mult is meaningless (callers
    that only need the remainder up to a scalar).  Raises
    ResourceLimitExceeded before a step would make a monomial of total
    degree 2^31 or more.

    Each step pops the largest key from a sorted leader list instead of
    scanning the remainder, and skips it if its terms cancelled.  The head
    search tests each head's pack against the term's with one subtraction
    and one AND.  Steps, and so the result, are those of taking ``max`` of
    the remainder each time.
    """
    _, guard, shift = _layout(len(heads[0][0]) if heads else 0)
    # the remainder still to reduce, as key -> coeff; packs maps every key
    # ever seen to its pack
    h = {}
    packs = {}
    for k, p, c in f:
        c += h.pop(k, 0)
        if c:
            h[k] = c
        packs[k] = p
    # the leader list: every key of packs not yet taken, ascending.  A key
    # whose terms cancelled stays in it, since a later step can create it
    # again; every key a step creates lies below the key it takes, so the
    # last live key is always the largest of h
    order = sorted(packs)
    # irreducible terms (key, pack, coeff, scale when taken): the true
    # coefficient is coeff * (scale // taken), brought up to date by _settle
    tail = []
    scale = 1
    mult = 1
    steps = 0
    while order:
        k0 = order.pop()
        c0 = h.pop(k0, 0)
        if not c0:
            continue
        p0 = packs[k0]
        for ge, gp, gc, gk, grest, gtop in heads:
            if not (p0 - gp) & guard:
                break
        else:
            tail.append((k0, p0, c0, scale))
            continue
        dpack = p0 - gp
        # the monomials this step makes have degree at most gtop + |dpack|
        _degree_guard(gtop + (dpack >> shift))
        # h <- m*h - b*x^dpack*g with m*c0 = b*gc, the smallest such m > 0
        common = gcd(gc, c0)
        b = c0 // common
        if common != gc:
            m = gc // common
            for k in h:
                h[k] *= m
            scale *= m
            mult *= m
        dkey = k0 - gk
        for k, p, c in grest:
            sk = k + dkey
            sc = h.get(sk, 0) - b * c
            if sc:
                h[sk] = sc
                if sk not in packs:
                    packs[sk] = p + dpack
                    insort(order, sk)
            else:
                del h[sk]
        steps += 1
        if steps % _CONTENT_STRIDE == 0 and h:
            tail = _settle(tail, scale)
            scale = 1
            g0 = gcd(*h.values(), *(t[2] for t in tail))
            if track_multiplier:
                g0 = gcd(g0, mult)
            if g0 > 1:
                for k in h:
                    h[k] //= g0
                tail = [(k, p, c // g0, 1) for k, p, c, _ in tail]
                if track_multiplier:
                    mult //= g0
    tail = [(k, p, c) for k, p, c, _ in _settle(tail, scale)]
    if not track_multiplier:
        return _primitive(tail), 1
    return tail, mult


def _settle(tail, scale):
    """Bring lazily scaled tail terms up to date with ``scale``."""
    return [
        (k, p, c if s == scale else c * (scale // s), 1) for k, p, c, s in tail
    ]


def buchberger(gens, nvars, kind, block, max_pairs, max_degree):
    """Reduced Groebner basis of ``gens`` (list of [(exp, int)] term lists).

    Every exponent has length ``nvars``, which sizes the packs.  Returns a
    list of primitive integer polynomials as [(exp, int)] lists, each sorted
    descending in the order, the basis sorted ascending by leading monomial.
    Raises ResourceLimitExceeded past the caps, and before making a monomial
    of total degree 2^31 or more.
    """
    struct, guard, shift = _layout(nvars)
    pack_fields = struct.pack
    polys = []
    for g in gens:
        p = _attach_keys(g, kind, block)
        if p:
            polys.append(p)
    if not polys:
        return []

    # Mutual pre-reduction of the inputs until stable; cheap and trims the
    # pair set considerably.
    while True:
        polys.sort(key=lambda p: p[0][0])
        heads = [_head(p, nvars) for p in polys]
        nxt = []
        nxt_heads = []
        changed = False
        for i, p in enumerate(polys):
            others = nxt_heads + heads[i + 1 :]
            if others:
                r, _ = _reduce(p, others)
            else:
                r = p
            if r:
                nxt.append(r)
                nxt_heads.append(_head(r, nvars))
            if r != p:
                changed = True
        polys = nxt
        if not changed:
            break
        if not polys:
            return []

    # the head record of every polynomial ever created; G and pairs hold
    # indices into it
    f = nxt_heads

    def update(G, B, ih):
        # Gebauer-Moeller pair pruning, [Becker-Weispfenning] p. 230, on
        # pair records (key of lcm, pack of lcm, ih, ig, lcm)
        mh, ph = f[ih][:2]
        B = [
            pr
            for pr in B
            if (pr[1] - ph) & guard
            or tuple(map(max, f[pr[2]][0], mh)) == pr[4]
            or tuple(map(max, f[pr[3]][0], mh)) == pr[4]
        ]
        # of several new pairs with equal lcm the chain test keeps the last
        # candidate, so candidate order decides which pair survives; it is
        # the iteration order of a fresh copy of G
        C = [(tuple(map(max, mh, f[ig][0])), ig) for ig in set(G)]
        # the lcms' packs; their degree may pass 2^31, which the degree
        # field holds and a kept pair's key refuses
        lcms = [int.from_bytes(pack_fields(*m, sum(m)), "little") for m, _ in C]
        D = []  # packs of the new pairs' lcms kept, coprime ones included
        for n, (m, ig) in enumerate(C):
            pm = lcms[n]
            if pm == ph + f[ig][1]:
                D.append(pm)  # coprime leading monomials: kept out of B
            elif not (
                any(not (pm - q) & guard for q in lcms[n + 1 :])
                or any(not (pm - q) & guard for q in D)
            ):
                D.append(pm)
                B.append((packed_key(m, kind, block), pm, ih, ig, m))
        G_new = {ig for ig in G if (f[ig][1] - ph) & guard}
        G_new.add(ih)
        return G_new, B

    by_key = itemgetter(3)
    G = set()
    CP = []
    for i in range(len(f)):
        G, CP = update(G, CP, i)
    # G's head records by leading key, sorted again only when G changes
    divisors = sorted((f[ig] for ig in G), key=by_key)

    pairs_done = 0
    while CP:
        # normal strategy: smallest lcm in the order, then smallest indices;
        # the key is injective, so comparing records compares exactly that
        best = min(CP)
        CP.remove(best)
        pairs_done += 1
        if pairs_done > max_pairs:
            raise ResourceLimitExceeded(f"pair cap {max_pairs} exceeded")
        key, lcm, i1, i2, _ = best
        _, p1, c1, k1, rest1, top1 = f[i1]
        _, p2, c2, k2, rest2, top2 = f[i2]
        dp1 = lcm - p1
        dp2 = lcm - p2
        _degree_guard(max(top1 + (dp1 >> shift), top2 + (dp2 >> shift)))
        d = gcd(c1, c2)
        # the S-polynomial (c2/d) x^(lcm-e1) p1 - (c1/d) x^(lcm-e2) p2 as the
        # two shifted, scaled tails (the leading terms cancel), which _reduce
        # sums; keys and packs are additive, so a cofactor's key and pack are
        # differences
        s = (
            (k + dk, p + dp, m * c)
            for rest, m, dk, dp in (
                (rest1, c2 // d, key - k1, dp1),
                (rest2, -(c1 // d), key - k2, dp2),
            )
            for k, p, c in rest
        )
        r, _ = _reduce(s, divisors)
        if not r:
            continue
        if r[0][1] >> shift > max_degree:
            raise ResourceLimitExceeded(f"degree cap {max_degree} exceeded")
        f.append(_head(r, nvars))
        G, CP = update(G, CP, len(f) - 1)
        divisors = sorted((f[ig] for ig in G), key=by_key)

    # G is already minimal: update drops every member whose leading monomial
    # the new one divides, and a new polynomial is reduced against G first.
    # Tail-reduce each member against the rest for the unique reduced basis.
    result = []
    for idx, (_, p, c, k, rest, _) in enumerate(divisors):
        others = divisors[:idx] + divisors[idx + 1 :]
        q = [(k, p, c), *rest]
        if others:
            r, _ = _reduce(q, others)
        else:
            r = q
        result.append(r)
    result.sort(key=lambda p: p[0][0])
    return [_strip_keys(p, nvars) for p in result]


def key_basis(basis_pairs, kind, block):
    """A basis of [(exp, int)] term lists keyed for ``normal_form``.

    Key a basis once and pass the result to every ``normal_form`` call
    against it under the same order.  Raises ResourceLimitExceeded on a
    monomial of total degree 2^31 or more.
    """
    keyed = (_attach_keys(b, kind, block) for b in basis_pairs)
    return [p for p in keyed if p]


def normal_form(fpairs, basis, nvars, kind, block):
    """Exact remainder of f modulo a (Groebner) basis.

    The input is an [(exp, int)] term list over ``nvars`` variables, which
    size the packs, and the basis the output of ``key_basis`` for the same
    order; returns ``(tail, mult)`` with the exact normal form equal to
    tail / mult, tail as an [(exp, int)] list.  The input is not
    content-normalised: the multiplier accounts for everything.  Raises
    ResourceLimitExceeded on, or before making, a monomial of total degree
    2^31 or more.
    """
    terms = ((packed_key(e, kind, block), _pack(e), c) for e, c in fpairs)
    tail, mult = _reduce(terms, [_head(p, nvars) for p in basis], track_multiplier=True)
    return _strip_keys(tail, nvars), mult
