"""Pure-Python Groebner engine.

Works on raw term lists so the hot loops never touch the public polynomial
wrappers.  A term is ``(key, exp, coeff)`` where ``key`` is the monomial's
packed sort key under the active order, ``exp`` the exponent tuple and
``coeff`` a Python int.  A polynomial is a list of terms sorted descending
by key and kept primitive (integer content 1, positive leading
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
so a product's key is a sum of ints.  Key creation refuses a monomial of
total degree 2^31 or more, and each reduction step checks that the
monomials it makes stay below it, raising ``ResourceLimitExceeded`` rather
than merging two monomials under one key.

A reducer enters ``_reduce`` as a head record ``(exp, mask, coeff, key,
rest, top)``: its leading exponent, variable mask (one bit per variable
with a positive exponent), leading coefficient and key, its remaining
terms and its top total degree.  ``buchberger`` makes one per polynomial,
when the polynomial is created; ``normal_form`` makes them from the
``key_basis`` output on each call.

Reduction (``_reduce``) keeps the remainder still to be reduced as a
``{key: coeff}`` dict with a side map from key to exponent.  It sums its
input into that dict, so the input need not be sorted or merged: an
S-polynomial goes in as the two shifted, scaled tails (the leading terms
cancel).  A leader list, every key seen and not yet taken in ascending
order, gives the leading term by a pop from its end; a key enters it once,
by ``bisect.insort``, when a step first creates it.  The head search tests
divisibility only for heads whose mask lies within the term's.  A step
subtracts the reducer term by term, so the interpreted work of a step
grows with the reducer's length, not the remainder's.  A step scales the
remainder only by ``gc // gcd(gc, c0)`` (reducer and remainder leading
coefficients), which is 1 for most steps.  Irreducible terms go to the tail
with the scale they were taken at and are brought up to date only when the
integer content is normalised, every ``_CONTENT_STRIDE`` steps, and at the
end.

``buchberger`` keeps one record per critical pair, ``(key of lcm, lcm, i,
j)``, made once when ``update`` creates the pair.  Both Gebauer-Moeller
pruning tests read the stored lcm, and the normal strategy takes the next
pair as ``min`` of the records: the order key is injective, so that is the
smallest lcm, ties broken by the indices.  ``normal_form`` reduces against a
basis keyed once by ``key_basis``.

This is the package's only Groebner engine.  It has no caps of its own:
``buchberger`` takes them from the caller, whose defaults live in
``groebner.GBLimits``; the 2^31 degree bound is the packed keys' own.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache
from itertools import compress
from math import gcd
from operator import add, itemgetter, mul, sub

from ..errors import ResourceLimitExceeded

# Re-normalise integer content after this many reduction steps to keep
# coefficient growth in check without paying a gcd on every step.
_CONTENT_STRIDE = 8

# packed keys hold make_key's fields as signed digits of this many bits; a
# field stays within half a digit while the total degree is below the bound
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


def _attach_keys(pairs, kind, block):
    """[(exp, int)] -> engine poly, normalised primitive."""
    terms = [(packed_key(e, kind, block), e, c) for e, c in pairs if c]
    terms.sort(key=lambda t: t[0], reverse=True)
    return _primitive(terms)


def _head(poly):
    """Head record ``(exp, mask, coeff, key, rest, top)`` of a nonzero poly.

    ``mask`` has one bit per variable, set where the leading exponent is
    > 0; ``top`` is the largest total degree among the terms.
    """
    k, e, c = poly[0]
    bits = [1 << i for i in range(len(e))]
    top = max(map(sum, map(itemgetter(1), poly)))
    return e, sum(compress(bits, e)), c, k, poly[1:], top


def _strip_keys(poly):
    return [(e, c) for _, e, c in poly]


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
        terms = [(k, e, c // g) for k, e, c in terms]
    return terms


def _divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


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
    search calls ``_divides`` only on heads whose variable mask fits in the
    term's; the mask filters, ``_divides`` decides.  Steps, and so the
    result, are those of taking ``max`` of the remainder each time.
    """
    bits = [1 << i for i in range(len(heads[0][0]))] if heads else []
    # the remainder still to reduce, as key -> coeff; exps maps every key
    # ever seen to its exponent, computed once per new key
    h = {}
    exps = {}
    for k, e, c in f:
        c += h.pop(k, 0)
        if c:
            h[k] = c
        exps[k] = e
    # the leader list: every key of exps not yet taken, ascending.  A key
    # whose terms cancelled stays in it, since a later step can create it
    # again; every key a step creates lies below the key it takes, so the
    # last live key is always the largest of h
    order = sorted(exps)
    # irreducible terms (key, exp, coeff, scale when taken): the true
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
        e0 = exps[k0]
        # a head divides e0 only if its variables are among e0's
        nm0 = ~sum(compress(bits, e0))
        for ge, gm, gc, gk, grest, gtop in heads:
            if not gm & nm0 and _divides(ge, e0):
                break
        else:
            tail.append((k0, e0, c0, scale))
            continue
        dexp = tuple(map(sub, e0, ge))
        # the monomials this step makes have degree at most gtop + |dexp|
        _degree_guard(gtop + sum(dexp))
        # h <- m*h - b*x^dexp*g with m*c0 = b*gc, the smallest such m > 0
        common = gcd(gc, c0)
        b = c0 // common
        if common != gc:
            m = gc // common
            for k in h:
                h[k] *= m
            scale *= m
            mult *= m
        dkey = k0 - gk
        for k, e, c in grest:
            sk = k + dkey
            sc = h.get(sk, 0) - b * c
            if sc:
                h[sk] = sc
                if sk not in exps:
                    exps[sk] = tuple(map(add, e, dexp))
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
                tail = [(k, e, c // g0, 1) for k, e, c, _ in tail]
                if track_multiplier:
                    mult //= g0
    tail = [(k, e, c) for k, e, c, _ in _settle(tail, scale)]
    if not track_multiplier:
        return _primitive(tail), 1
    return tail, mult


def _settle(tail, scale):
    """Bring lazily scaled tail terms up to date with ``scale``."""
    return [
        (k, e, c if s == scale else c * (scale // s), 1) for k, e, c, s in tail
    ]


def buchberger(gens, nvars, kind, block, max_pairs, max_degree):
    """Reduced Groebner basis of ``gens`` (list of [(exp, int)] term lists).

    Returns a list of primitive integer polynomials as [(exp, int)] lists,
    each sorted descending in the order, the basis sorted ascending by
    leading monomial.  Raises ResourceLimitExceeded past the caps, and
    before making a monomial of total degree 2^31 or more.
    ``nvars`` is unused; it stays because ``perfbench/tracing.py`` reads the
    order kind as the third positional argument.
    """
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
        heads = [_head(p) for p in polys]
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
                nxt_heads.append(_head(r))
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
        # pair records (key of lcm, lcm, ih, ig)
        mh = f[ih][0]
        B = [
            pr
            for pr in B
            if not _divides(mh, pr[1])
            or tuple(map(max, f[pr[2]][0], mh)) == pr[1]
            or tuple(map(max, f[pr[3]][0], mh)) == pr[1]
        ]
        # of several new pairs with equal lcm the chain test keeps the last
        # candidate, so candidate order decides which pair survives; it is
        # the iteration order of a fresh copy of G
        C = []
        for ig in set(G):
            mg = f[ig][0]
            C.append((tuple(map(max, mh, mg)), tuple(map(add, mh, mg)), ig))
        D = []  # lcms of the new pairs kept, coprime ones included
        for n, (m, product, ig) in enumerate(C):
            if product == m:
                D.append(m)  # coprime leading monomials: kept out of B
            elif not (
                any(_divides(m2, m) for m2, _, _ in C[n + 1 :])
                or any(_divides(m2, m) for m2 in D)
            ):
                D.append(m)
                B.append((packed_key(m, kind, block), m, ih, ig))
        G_new = {ig for ig in G if not _divides(mh, f[ig][0])}
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
        key, lcm_exp, i1, i2 = best
        e1, _, c1, k1, rest1, top1 = f[i1]
        e2, _, c2, k2, rest2, top2 = f[i2]
        de1 = tuple(map(sub, lcm_exp, e1))
        de2 = tuple(map(sub, lcm_exp, e2))
        _degree_guard(max(top1 + sum(de1), top2 + sum(de2)))
        d = gcd(c1, c2)
        # the S-polynomial (c2/d) x^(lcm-e1) p1 - (c1/d) x^(lcm-e2) p2 as the
        # two shifted, scaled tails (the leading terms cancel), which _reduce
        # sums; keys are additive, so a cofactor's key is a difference of keys
        s = (
            (k + dk, tuple(map(add, e, de)), m * c)
            for rest, m, dk, de in (
                (rest1, c2 // d, key - k1, de1),
                (rest2, -(c1 // d), key - k2, de2),
            )
            for k, e, c in rest
        )
        r, _ = _reduce(s, divisors)
        if not r:
            continue
        if sum(r[0][1]) > max_degree:
            raise ResourceLimitExceeded(f"degree cap {max_degree} exceeded")
        f.append(_head(r))
        G, CP = update(G, CP, len(f) - 1)
        divisors = sorted((f[ig] for ig in G), key=by_key)

    # G is already minimal: update drops every member whose leading monomial
    # the new one divides, and a new polynomial is reduced against G first.
    # Tail-reduce each member against the rest for the unique reduced basis.
    result = []
    for idx, (e, _, c, k, rest, _) in enumerate(divisors):
        others = divisors[:idx] + divisors[idx + 1 :]
        p = [(k, e, c), *rest]
        if others:
            r, _ = _reduce(p, others)
        else:
            r = p
        result.append(r)
    result.sort(key=lambda p: p[0][0])
    return [_strip_keys(p) for p in result]


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

    The input is an [(exp, int)] term list and the basis the output of
    ``key_basis`` for the same order; returns ``(tail, mult)`` with the exact
    normal form equal to tail / mult, tail as an [(exp, int)] list.  The input
    is not content-normalised: the multiplier accounts for everything.
    Raises ResourceLimitExceeded on, or before making, a monomial of total
    degree 2^31 or more.  ``nvars`` is unused, as in ``buchberger``.
    """
    terms = ((packed_key(e, kind, block), e, c) for e, c in fpairs)
    tail, mult = _reduce(terms, [_head(p) for p in basis], track_multiplier=True)
    return _strip_keys(tail), mult
