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

A reducer is a plain engine polynomial: the head search and a step read
its first term, and the step subtracts the terms after it.  Each step is
checked against one degree bound for the whole basis, its largest total
degree, which ``buchberger`` keeps as a running maximum over the
polynomials it makes and ``normal_form`` reads off the ``key_basis`` output.

Reduction (``_reduce``) keeps the whole remainder as one ``{key: coeff}``
dict with a side map from key to pack.  It sums its input into that dict,
so the input need not be sorted or merged: an S-polynomial goes in as the
two shifted, scaled tails (the leading terms cancel).  A leader list, every
key seen and not yet taken in ascending order, gives the leading term by a
pop from its end; a key enters it once, by ``bisect.insort``, when a step
first creates it.  The head search is one subtraction and one AND per
reducer.  A step subtracts the reducer term by term, shifting each key and
each pack by one integer addition, so the interpreted work of a step grows
with the reducer's length, not the remainder's.  A step scales the
remainder only by ``gc // gcd(gc, c0)`` (reducer and remainder leading
coefficients), which is 1 for most steps.  An irreducible term stays in the
dict, at the remainder's scale: every key a step makes lies below the key
it takes, so no later step touches it, and at the end the dict holds
exactly the tail.  The content pass (``_divide_content``) runs over the
whole remainder, so it runs only when a step's leading coefficient has
grown past twice the bit length it had after the last pass, and never below
``_CONTENT_BITS``: a pass every few steps costs more than the steps, and
dividing out small factors leaves later leaders coprime to the reducers'
leading coefficients, so more steps scale the whole remainder.

``buchberger`` interreduces its inputs, runs one of two pair loops, and
interreduces the minimal basis the loop returns into the reduced one
(Becker and Weispfenning, "Groebner Bases", 1993, section 5.4).  A pass of
``_interreduce`` reduces each polynomial against the results before it and
the polynomials after it, so after a pass that moved no leading monomial
every result is irreducible by the final leading monomials: another pass
runs only if one moved, and on a minimal basis none does.  Every polynomial
the engine makes goes through ``_capped``, which raises the running degree
bound to its total degree and refuses it past ``max_degree``.  The loops
share the S-polynomial (``_spoly``) and ``_reduce``.  The signature loop
runs when at most ``nvars`` inputs remain, the Gebauer-Moeller (GM) loop
otherwise.  A regular sequence has at most ``nvars`` elements, and on a
homogeneous one the signature loop reduces no pair to zero; on the six
``sl4-closures`` fibre runs it reduced 9 pairs to zero where GM reduced 53,
in about half the time.  With more generators GM's reductions to zero are
cheap and its bookkeeping is lighter: on the 16 quadrics of the sl(4)
minimal orbit, in 15 variables, the signature loop took five times as long.
Both loops count against ``max_pairs`` the S-pairs they reduce, not the
pairs their criteria discard.

The GM loop keeps one record per critical pair, ``(key of lcm, pack of lcm,
i, j, lcm)``, made once when ``update`` creates the pair.  The
Gebauer-Moeller tests decide divisibility on the stored packs, and the
normal strategy takes the next pair as ``min`` of the records: the order
key is injective, so that is the smallest lcm, ties broken by the indices.

The signature loop follows Faugere's F5 (ISSAC 2002) in the form the
Eder-Faugere survey (JSC 2017) gives.  Each polynomial carries a signature
``t*e_i``, the leading term of a module element whose image it is,
ordered by ``(t*lm(f_i), i)`` (the Schreyer order) and kept as the key and
pack of ``t*lm(f_i)`` with ``i``.  Pairs are taken by ascending signature,
and a pair is discarded when its signature is divisible by a syzygy's (the
Koszul syzygy of every pair, and every reduction to zero, kept as a minimal
set per index) or by the signature of a polynomial made after the pair's
generator (the add-last rewrite criterion of Eder and Roune, ISSAC 2013);
of several pairs with one signature only the one whose generator came last
is kept.  Reduction is regular: a multiple
``t*g`` may reduce a term only if its signature lies below the pair's.  So
every polynomial ``g`` enters ``_reduce`` waiting, with the threshold
``sv - (sig key - lead key of g)`` for a pair of signature key ``sv``
(plus one when ``g``'s index is below the pair's, ties going by index), and
joins the reducers once the leading key falls below it.  A result whose
leading term is that of a multiple with the same signature (singular
top-reducible) adds nothing and is dropped.  The loop keeps every
polynomial it makes and returns those with minimal leading monomials.

``normal_form`` reduces against a basis keyed once by ``key_basis``.

This is the package's only Groebner engine.  It has no caps of its own:
``buchberger`` takes them from the caller, whose defaults live in
``groebner.GBLimits``; the 2^31 degree bound is the packs' own.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache
from heapq import heappop, heappush
from itertools import chain, islice
from math import gcd
from operator import itemgetter, mul, neg
from struct import Struct

from ..errors import ResourceLimitExceeded

# _reduce divides out the integer content only once a leading coefficient
# has more bits than this: two 30-bit CPython digits, and arithmetic on
# smaller ints is no cheaper, so dividing their content out saves nothing
_CONTENT_BITS = 60

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
        return (sum(exp), *map(neg, reversed(exp)))
    return make_key(exp[:block], 1, 0) + make_key(exp[block:], 1, 0)


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


def _top(terms, shift):
    """The largest total degree among ``terms``, 0 if there are none."""
    return max(map(itemgetter(1), terms), default=0) >> shift


def _lead_key(poly):
    """The key of a nonzero engine polynomial's leading term."""
    return poly[0][0]


def _strip_keys(poly, nvars):
    """Engine poly -> [(exp, int)].

    The packs are written to one bytes object and read back by one
    ``iter_unpack``; each exponent tuple drops the pack's degree field.
    """
    struct = _layout(nvars)[0]
    size = struct.size
    data = b"".join([p.to_bytes(size, "little") for _, p, _ in poly])
    return [(e[:nvars], t[2]) for e, t in zip(struct.iter_unpack(data), poly)]


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


def _reduce(f, basis, nvars, top, track_multiplier=False, waiting=()):
    """Fully reduce ``f`` modulo ``basis`` (fraction-free).

    ``f`` is any iterable of terms, in any order: terms with the same key
    are summed and zero sums dropped.  ``basis`` holds engine polynomials
    over ``nvars`` variables, and ``top`` is at least the total degree of
    each of their terms.  Returns ``(tail, mult)`` with ``mult * f =
    (combination of basis) + tail``, the tail sorted descending and no tail
    monomial divisible by any basis leading monomial.  When
    ``track_multiplier`` is false the tail is normalised primitive and mult
    is meaningless (callers that only need the remainder up to a scalar).
    Raises ResourceLimitExceeded before a step could make a monomial of
    total degree 2^31 or more, judged by ``top``, not by the reducer.

    ``waiting`` holds further reducers as ``(threshold, polynomial)`` pairs
    sorted ascending by threshold.  A reducer is appended to ``basis``
    (which must then be a list of the caller's own) once the leading key
    falls below its threshold: terms leave the remainder in descending key
    order, so it reduces exactly the terms whose keys lie below.  The list
    is consumed.

    Each step pops the largest key from a sorted leader list instead of
    scanning the remainder, and skips it if its terms cancelled; steps, and
    so the result, are those of taking ``max`` of the terms not yet found
    irreducible each time.
    """
    _, guard, shift = _layout(nvars)
    # the whole remainder, irreducible terms included, as key -> coeff;
    # packs maps every key ever seen to its pack
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
    # last live key is always the largest of h not yet taken, and the keys
    # taken and found irreducible are never touched again
    order = sorted(packs)
    mult = 1
    # a step whose leading coefficient has more bits than this divides out
    # the content first
    limit = _CONTENT_BITS
    while order:
        k0 = order.pop()
        c0 = h.pop(k0, 0)
        if not c0:
            continue
        while waiting and k0 < waiting[-1][0]:
            basis.append(waiting.pop()[1])
        p0 = packs[k0]
        for g in basis:
            if not (p0 - g[0][1]) & guard:
                break
        else:
            # irreducible: it stays in h, at the remainder's scale
            h[k0] = c0
            continue
        terms = iter(g)
        gk, gp, gc = next(terms)
        dpack = p0 - gp
        # the monomials this step makes have degree at most top + |dpack|
        _degree_guard(top + (dpack >> shift))
        if c0.bit_length() > limit:
            c0, mult = _divide_content(h, c0, mult, track_multiplier)
            limit = max(2 * c0.bit_length(), _CONTENT_BITS)
        # h <- m*h - b*x^dpack*g with m*c0 = b*gc, the smallest such m > 0
        common = gcd(gc, c0)
        b = c0 // common
        if common != gc:
            m = gc // common
            for k in h:
                h[k] *= m
            mult *= m
        dkey = k0 - gk
        for k, p, c in terms:
            sk = k + dkey
            sc = h.get(sk, 0) - b * c
            if sc:
                h[sk] = sc
                if sk not in packs:
                    packs[sk] = p + dpack
                    insort(order, sk)
            else:
                del h[sk]
    # every key is taken, so h holds exactly the irreducible terms
    tail = [(k, packs[k], h[k]) for k in sorted(h, reverse=True)]
    if not track_multiplier:
        return _primitive(tail), 1
    return tail, mult


def _divide_content(h, c0, mult, track_multiplier):
    """Divide the integer content out of a remainder of ``_reduce``.

    The remainder is the leading coefficient ``c0`` and the dict ``h``,
    which is divided in place; with ``track_multiplier`` the content
    includes ``mult``.  Returns ``c0`` and ``mult``, each divided by the
    content.
    """
    g = gcd(c0, *h.values())
    if track_multiplier:
        g = gcd(g, mult)
    if g > 1:
        for k in h:
            h[k] //= g
        c0 //= g
        if track_multiplier:
            mult //= g
    return c0, mult


def buchberger(gens, nvars, kind, block, max_pairs, max_degree):
    """Reduced Groebner basis of ``gens`` (list of [(exp, int)] term lists).

    Every exponent has length ``nvars``, which sizes the packs.  Returns a
    list of primitive integer polynomials as [(exp, int)] lists, each sorted
    descending in the order, the basis sorted ascending by leading monomial.
    Raises ResourceLimitExceeded past the caps, ``max_degree`` bounding the
    total degree of every polynomial it makes, and before making a monomial
    of total degree 2^31 or more.
    """
    polys = key_basis(gens, kind, block)
    # the degree bound of every _reduce call: the largest total degree of
    # any polynomial made so far
    top = _top(chain.from_iterable(polys), _layout(nvars)[2])
    polys, top = _interreduce(polys, nvars, top, max_degree)
    # a regular sequence has at most nvars elements; see the module docstring
    loop = _signature_loop if len(polys) <= nvars else _gm_loop
    divisors, top = loop(polys, nvars, kind, block, max_pairs, max_degree, top)
    return [_strip_keys(p, nvars) for p in _interreduce(divisors, nvars, top, max_degree)[0]]


def _interreduce(polys, nvars, top, max_degree):
    """``polys`` interreduced, sorted by leading key, and their degree bound;
    ``top`` bounds the degree of ``polys``.  Zeros are dropped.
    """
    shift = _layout(nvars)[2]
    while True:
        polys.sort(key=_lead_key)
        done = []
        moved = False
        for i, p in enumerate(polys):
            others = done + polys[i + 1 :]
            r = _reduce(p, others, nvars, top)[0] if others else p
            if r:
                top = _capped(r, shift, top, max_degree)
                moved = moved or r[0][0] != p[0][0]
                done.append(r)
        polys = done
        if not moved:
            return polys, top


def _capped(r, shift, top, max_degree):
    """``top`` raised to the total degree of ``r``; raises
    ResourceLimitExceeded if that exceeds ``max_degree``."""
    degree = _top(r, shift)
    if degree > max_degree:
        raise ResourceLimitExceeded(
            f"degree cap {max_degree} exceeded by a polynomial of degree {degree}"
        )
    return max(top, degree)


def _gm_loop(f, nvars, kind, block, max_pairs, max_degree, top):
    """A minimal Groebner basis of the polynomials ``f`` by Gebauer-Moeller.

    ``f`` is interreduced and sorted by leading key, and ``top`` its degree
    bound.  Returns the basis sorted by leading key, and the degree bound
    of every polynomial made.
    """
    struct, guard, shift = _layout(nvars)
    pack_fields = struct.pack
    # f holds every polynomial ever created, exps their leading exponents;
    # G and pairs hold indices into them
    exps = [_unpack(p[0][1], nvars) for p in f]

    def update(G, B, ih):
        # Gebauer-Moeller pair pruning, [Becker-Weispfenning] p. 230, on
        # pair records (key of lcm, pack of lcm, ih, ig, lcm)
        mh, ph = exps[ih], f[ih][0][1]
        B = [
            pr
            for pr in B
            if (pr[1] - ph) & guard
            or tuple(map(max, exps[pr[2]], mh)) == pr[4]
            or tuple(map(max, exps[pr[3]], mh)) == pr[4]
        ]
        # of several new pairs with equal lcm the chain test keeps the last
        # candidate, so candidate order decides which pair survives; it is
        # the iteration order of a fresh copy of G
        C = [(tuple(map(max, mh, exps[ig])), ig) for ig in set(G)]
        # the lcms' packs; their degree may pass 2^31, which the degree
        # field holds and a kept pair's key refuses
        lcms = [int.from_bytes(pack_fields(*m, sum(m)), "little") for m, _ in C]
        D = []  # packs of the new pairs' lcms kept, coprime ones included
        for n, (m, ig) in enumerate(C):
            pm = lcms[n]
            if pm == ph + f[ig][0][1]:
                D.append(pm)  # coprime leading monomials: kept out of B
            elif not (
                any(not (pm - q) & guard for q in lcms[n + 1 :])
                or any(not (pm - q) & guard for q in D)
            ):
                D.append(pm)
                B.append((packed_key(m, kind, block), pm, ih, ig, m))
        G_new = {ig for ig in G if (f[ig][0][1] - ph) & guard}
        G_new.add(ih)
        return G_new, B

    G = set()
    CP = []
    for i in range(len(f)):
        G, CP = update(G, CP, i)
    # G's polynomials by leading key, sorted again only when G changes
    divisors = sorted((f[ig] for ig in G), key=_lead_key)

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
        r, _ = _reduce(_spoly(f, key, lcm, i1, i2, top, shift), divisors, nvars, top)
        if not r:
            continue
        top = _capped(r, shift, top, max_degree)
        f.append(r)
        exps.append(_unpack(r[0][1], nvars))
        G, CP = update(G, CP, len(f) - 1)
        divisors = sorted((f[ig] for ig in G), key=_lead_key)

    # G is already minimal: update drops every member whose leading monomial
    # the new one divides, and a new polynomial is reduced against G first
    return divisors, top


def _spoly(f, key, lcm, i1, i2, top, shift):
    """The S-polynomial of ``f[i1]`` and ``f[i2]`` at the lcm of key ``key``
    and pack ``lcm``, ``(c2/d) x^(lcm-e1) f[i1] - (c1/d) x^(lcm-e2) f[i2]``.

    It is the two shifted, scaled tails (the leading terms cancel), which
    ``_reduce`` sums; keys and packs are additive, so a cofactor's key and
    pack are differences.  Raises ResourceLimitExceeded if a step reducing
    it against a basis of degree bound ``top`` could reach degree 2^31.
    """
    k1, p1, c1 = f[i1][0]
    k2, p2, c2 = f[i2][0]
    dp1 = lcm - p1
    dp2 = lcm - p2
    _degree_guard(top + (max(dp1, dp2) >> shift))
    d = gcd(c1, c2)
    return (
        (k + dk, p + dp, m * c)
        for g, m, dk, dp in (
            (f[i1], c2 // d, key - k1, dp1),
            (f[i2], -(c1 // d), key - k2, dp2),
        )
        for k, p, c in islice(g, 1, None)
    )


def _signature_loop(f, nvars, kind, block, max_pairs, max_degree, top):
    """A minimal Groebner basis of the polynomials ``f`` by signatures.

    ``f`` is interreduced and sorted by leading key, and ``top`` its degree
    bound.  Returns the basis sorted by leading key, and the degree bound
    of every polynomial made.  A polynomial's signature is ``t*e_i``, kept
    as ``(key, i, pack)`` of ``t*lm(f[i])``: the Schreyer order compares
    ``(key, i)``, and ``t*e_i`` divides ``s*e_i`` iff the packs do.
    """
    _, guard, shift = _layout(nvars)
    exps = [_unpack(p[0][1], nvars) for p in f]
    sigs = [(p[0][0], i, p[0][1]) for i, p in enumerate(f)]
    # per index i, the minimal packs of the syzygy signatures known
    syz = [[] for _ in f]
    # pair records (signature key, index, generator, other, lcm key, lcm
    # pack, signature pack), the generator being the side of the larger
    # signature
    pairs = []

    def covered(i, sp):
        return any(not (sp - q) & guard for q in syz[i])

    def note(i, sp):
        if not covered(i, sp):
            syz[i] = [q for q in syz[i] if (q - sp) & guard]
            syz[i].append(sp)

    def add_pairs(n):
        kn, pn, _ = f[n][0]
        skn, i_n, spn = sigs[n]
        for j in range(n):
            kj, pj, _ = f[j][0]
            skj, i_j, spj = sigs[j]
            # the Koszul syzygy f[j]*sig(n) - f[n]*sig(j) has the larger
            # side's signature unless the two sides cancel.  Each side is a
            # multiple of the pair's side from the same polynomial, so
            # bounding its degree bounds the pair's signature too
            a, b = (skn + kj, i_n, spn + pj), (skj + kn, i_j, spj + pn)
            _degree_guard(max(a[2], b[2]) >> shift)
            if a[:2] != b[:2]:
                note(*max(a, b)[1:])
            m = tuple(map(max, exps[n], exps[j]))
            key, lcm = packed_key(m, kind, block), _pack(m)
            a = (skn + key - kn, i_n, n, j, key, lcm, spn + lcm - pn)
            b = (skj + key - kj, i_j, j, n, key, lcm, spj + lcm - pj)
            if a[:2] != b[:2]:
                heappush(pairs, max(a, b))

    for n in range(len(f)):
        add_pairs(n)
    pairs_done = 0
    while pairs:
        # the smallest signature, and of its pairs the one whose generator
        # came last
        sk, i, g, o, key, lcm, sp = heappop(pairs)
        while pairs and pairs[0][:2] == (sk, i):
            sk, i, g, o, key, lcm, sp = heappop(pairs)
        # the syzygy criterion, then the add-last rewrite criterion
        if covered(i, sp) or any(
            s[1] == i and not (sp - s[2]) & guard for s in islice(sigs, g + 1, None)
        ):
            continue
        pairs_done += 1
        if pairs_done > max_pairs:
            raise ResourceLimitExceeded(f"pair cap {max_pairs} exceeded")
        # regular reduction: a multiple of p reduces a term of key k only if
        # its signature lies below (sk, i), that is k < sk - (sig key - lead
        # key of p), or k equal to that with p's index below i
        waiting = sorted(
            ((sk - s[0] + p[0][0] + (s[1] < i), p) for s, p in zip(sigs, f)),
            key=itemgetter(0),
        )
        r, _ = _reduce(_spoly(f, key, lcm, g, o, top, shift), [], nvars, top, waiting=waiting)
        if not r:
            note(i, sp)
            continue
        kr, pr, _ = r[0]
        # singular top-reducible: a multiple of some p has r's leading
        # monomial and signature, so r adds nothing
        if any(
            s[1] == i and s[0] - p[0][0] == sk - kr and not (pr - p[0][1]) & guard
            for s, p in zip(sigs, f)
        ):
            continue
        top = _capped(r, shift, top, max_degree)
        f.append(r)
        sigs.append((sk, i, sp))
        exps.append(_unpack(pr, nvars))
        add_pairs(len(f) - 1)

    # keep one polynomial per minimal leading monomial; a divisor's key is
    # never larger
    divisors = []
    for p in sorted(f, key=_lead_key):
        if all((p[0][1] - q[0][1]) & guard for q in divisors):
            divisors.append(p)
    return divisors, top


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
    top = _top(chain.from_iterable(basis), _layout(nvars)[2])
    tail, mult = _reduce(terms, basis, nvars, top, track_multiplier=True)
    return _strip_keys(tail, nvars), mult
