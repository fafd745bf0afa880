"""Pure-Python Groebner engine.

Works on raw term lists so the hot loops never touch the public polynomial
wrappers.  A term is ``(key, exp, coeff)`` where ``key`` is the monomial's
sort key under the active order, ``exp`` the exponent tuple and ``coeff`` a
Python int.  A polynomial is a list of terms sorted descending by key and
kept primitive (integer content 1, positive leading coefficient), which
keeps the arithmetic fraction-free: reductions scale by leading coefficients
instead of dividing.

Reduction (``_reduce``) keeps the remainder still to be reduced as a
``{key: coeff}`` dict with a side map from key to exponent.  It sums its
input into that dict, so the input need not be sorted or merged: an
S-polynomial goes in as the two shifted, scaled tails (the leading terms
cancel).  It takes the leading term with ``max`` and subtracts each reducer
term by term, so the interpreted work of a step grows with the reducer's
length, not the remainder's (the ``max`` scan runs in C).  A step scales the
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

Orders are encoded as ``(kind, block)`` with kind 0 = lex, 1 = grevlex,
2 = block elimination (grevlex on the first ``block`` variables, then
grevlex on the rest); ``KINDS`` maps the kind names to these numbers.
``make_key`` is the one copy of the three key formulas: ``polyring``'s
``MonomialOrder.key`` calls it too.  All three keys are additive under
monomial multiplication, so products just add key tuples.

This is the package's only Groebner engine.  It has no caps of its own:
``buchberger`` takes them from the caller, whose defaults live in
``groebner.GBLimits``.
"""

from __future__ import annotations

from math import gcd
from operator import add, sub

from ..errors import ResourceLimitExceeded

# Re-normalise integer content after this many reduction steps to keep
# coefficient growth in check without paying a gcd on every step.
_CONTENT_STRIDE = 8


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


def _attach_keys(pairs, kind, block):
    """[(exp, int)] -> engine poly, normalised primitive."""
    terms = [(make_key(e, kind, block), e, c) for e, c in pairs if c]
    terms.sort(key=lambda t: t[0], reverse=True)
    return _primitive(terms)


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


def _reduce(f, basis, track_multiplier=False):
    """Fully reduce ``f`` modulo ``basis`` (fraction-free).

    ``f`` is any iterable of terms, in any order: terms with the same key
    are summed and zero sums dropped.  Returns ``(tail, mult)`` with
    ``mult * f = (combination of basis) + tail``, the tail sorted descending
    and no tail monomial divisible by any basis leading monomial.  When
    ``track_multiplier`` is false the tail is normalised primitive and mult
    is meaningless (callers that only need the remainder up to a scalar).
    """
    heads = [(g[0][1], g[0][2], g[0][0], g[1:]) for g in basis]
    # the remainder still to reduce, as key -> coeff; exps maps every key
    # ever seen to its exponent, computed once per new key
    h = {}
    exps = {}
    for k, e, c in f:
        c += h.pop(k, 0)
        if c:
            h[k] = c
        exps[k] = e
    # irreducible terms (key, exp, coeff, scale when taken): the true
    # coefficient is coeff * (scale // taken), brought up to date by _settle
    tail = []
    scale = 1
    mult = 1
    steps = 0
    while h:
        k0 = max(h)
        c0 = h.pop(k0)
        e0 = exps[k0]
        for ge, gc, gk, grest in heads:
            if _divides(ge, e0):
                break
        else:
            tail.append((k0, e0, c0, scale))
            continue
        # h <- m*h - b*x^dexp*g with m*c0 = b*gc, the smallest such m > 0
        common = gcd(gc, c0)
        b = c0 // common
        if common != gc:
            m = gc // common
            for k in h:
                h[k] *= m
            scale *= m
            mult *= m
        dexp = tuple(map(sub, e0, ge))
        dkey = tuple(map(sub, k0, gk))
        for k, e, c in grest:
            sk = tuple(map(add, k, dkey))
            sc = h.get(sk, 0) - b * c
            if sc:
                h[sk] = sc
                if sk not in exps:
                    exps[sk] = tuple(map(add, e, dexp))
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
    leading monomial.  Raises ResourceLimitExceeded past the caps.
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
        nxt = []
        changed = False
        for i, p in enumerate(polys):
            others = nxt + polys[i + 1 :]
            if others:
                r, _ = _reduce(p, others)
            else:
                r = p
            if r:
                nxt.append(r)
            if r != p:
                changed = True
        polys = nxt
        if not changed:
            break
        if not polys:
            return []

    f = list(polys)  # every polynomial ever created; G and pairs hold indices

    def update(G, B, ih):
        # Gebauer-Moeller pair pruning, [Becker-Weispfenning] p. 230, on
        # pair records (key of lcm, lcm, ih, ig)
        mh = f[ih][0][1]
        B = [
            pr
            for pr in B
            if not _divides(mh, pr[1])
            or tuple(map(max, f[pr[2]][0][1], mh)) == pr[1]
            or tuple(map(max, f[pr[3]][0][1], mh)) == pr[1]
        ]
        # of several new pairs with equal lcm the chain test keeps the last
        # candidate, so candidate order decides which pair survives; it is
        # the iteration order of a fresh copy of G
        C = []
        for ig in set(G):
            mg = f[ig][0][1]
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
                B.append((make_key(m, kind, block), m, ih, ig))
        G_new = {ig for ig in G if not _divides(mh, f[ig][0][1])}
        G_new.add(ih)
        return G_new, B

    G = set()
    CP = []
    for i in range(len(f)):
        G, CP = update(G, CP, i)

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
        p1, p2 = f[i1], f[i2]
        (k1, e1, c1), (k2, e2, c2) = p1[0], p2[0]
        d = gcd(c1, c2)
        # the S-polynomial (c2/d) x^(lcm-e1) p1 - (c1/d) x^(lcm-e2) p2 as the
        # two shifted, scaled tails (the leading terms cancel), which _reduce
        # sums; keys are additive, so a cofactor's key is a difference of keys
        s = (
            (tuple(map(add, k, dk)), tuple(map(add, e, de)), m * c)
            for p, m, dk, de in (
                (p1, c2 // d, tuple(map(sub, key, k1)), tuple(map(sub, lcm_exp, e1))),
                (p2, -(c1 // d), tuple(map(sub, key, k2)), tuple(map(sub, lcm_exp, e2))),
            )
            for k, e, c in p[1:]
        )
        divisors = sorted((f[ig] for ig in G), key=lambda p: p[0][0])
        r, _ = _reduce(s, divisors)
        if not r:
            continue
        if sum(r[0][1]) > max_degree:
            raise ResourceLimitExceeded(f"degree cap {max_degree} exceeded")
        f.append(r)
        G, CP = update(G, CP, len(f) - 1)

    # Minimalise: drop members whose leading monomial another member divides.
    chosen = sorted(G, key=lambda ig: f[ig][0][0])
    minimal = []
    for ig in chosen:
        e = f[ig][0][1]
        if any(_divides(f[jg][0][1], e) for jg in minimal):
            continue
        minimal = [jg for jg in minimal if not _divides(e, f[jg][0][1])]
        minimal.append(ig)

    # Tail-reduce each member against the rest for the unique reduced basis.
    result = []
    mins = [f[ig] for ig in minimal]
    for idx, p in enumerate(mins):
        others = mins[:idx] + mins[idx + 1 :]
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
    against it under the same order.
    """
    keyed = (_attach_keys(b, kind, block) for b in basis_pairs)
    return [p for p in keyed if p]


def normal_form(fpairs, basis, nvars, kind, block):
    """Exact remainder of f modulo a (Groebner) basis.

    The input is an [(exp, int)] term list and the basis the output of
    ``key_basis`` for the same order; returns ``(tail, mult)`` with the exact
    normal form equal to tail / mult, tail as an [(exp, int)] list.  The input
    is not content-normalised: the multiplier accounts for everything.
    ``nvars`` is unused, as in ``buchberger``.
    """
    terms = ((make_key(e, kind, block), e, c) for e, c in fpairs)
    tail, mult = _reduce(terms, basis, track_multiplier=True)
    return _strip_keys(tail), mult
