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
``MonomialOrder.key`` calls it too.  ``_encode`` makes a monomial's two
ints, its key and its pack, with one degree sum and one degree check.  Each
key formula is linear in the exponent, so the key is the dot product of the
exponent with the layout's per-variable weights, the weight of a variable
being ``make_key`` of its unit vector read as signed digits of the layout's
field width, most significant field first.  While a monomial's total degree is
below the layout's bound, half the field range, every field of its key fits
its digit, so keys order monomials as ``make_key`` does and are injective;
being a dot product they are additive.
A grevlex key's digits are the pack's fields with the exponents negated,
so ``_encode`` reads it off the pack as twice the degree field minus the
pack, the same int without the dot product.  ``_encode_terms`` keys a whole
input term list in one pass, with one degree check on its largest degree;
``_encode`` is left for single monomials.

The pack is the packed exponent vector (Bachmann and Schoenemann, "Monomial
representations for Groebner bases computations", ISSAC 1998): ``nvars +
1`` unsigned fields, exponent ``i`` in field ``i`` and the total degree in
the top one.  A product's pack is the sum of the packs, the total degree is
the pack shifted down by ``_layout``'s shift, and ``a`` divides ``b`` iff
``(pack(b) - pack(a)) & guard == 0``, the guard holding the top bit of
every exponent field: with every exponent below the layout's bound a
nonnegative difference leaves the guard bits clear, and the lowest negative
field of a difference sets its own.  Exponent tuples are made only at
input, at output, for a new polynomial's leading monomial and for the
candidate lcms of ``update``.  ``_encode`` refuses a monomial of total
degree at or above the bound, and each reduction step checks that the
monomials it makes stay below it, through ``_degree_guard``, rather than
merging two monomials under one key.

A layout (``_layout``) is the whole keying context: the field width, the
variable count and the order.  Every entry point runs in 16-bit fields,
bound 2^15, as Singular keeps exponents at the narrowest width the degrees
allow: keys and packs take half the CPython digits of 32-bit ones (10
against 20 in the 17 variables of an sl(4) closure), so each remainder
term's add and hashes cost less.  When a degree reaches 2^15, ``_degree_guard`` raises
``_Widen`` and the entry point runs the whole call again in the layout's
32-bit twin (``_widening``), where the guard raises
``ResourceLimitExceeded`` at 2^31, the public bound.  Keys order
monomials, and packs decide divisibility, as ``make_key`` and the
exponents do at either width, so the rerun gives the result bit for bit.
A ``Basis`` carries its layout, so ``interreduce`` and ``normal_form``
read the order off it, and is keyed again from its own lists, never mixed,
in another (layouts match by identity): a ``normal_form`` that reaches
2^15 against a 16-bit basis keys that basis's lists at 32 bits for its
rerun, and no polynomial keyed under one order is reused under another.

A reducer is a plain engine polynomial: the head search and a step read
its first term, and the step subtracts the terms after it.  Each step is
checked against one degree bound for the whole basis, its largest total
degree, which ``buchberger`` keeps as a running maximum over the
polynomials it makes, and ``interreduce`` and ``normal_form`` read off the
``Basis`` (``Basis.top``), which finds it once.

Reduction (``_reduce``) keeps the whole remainder as one ``{key: coeff}``
dict with a side map from key to pack.  It sums its input into that dict,
so the input need not be sorted or merged: an S-polynomial goes in as the
two shifted, scaled tails (the leading terms cancel).  A leader list, every
key seen and not yet taken in ascending order, gives the leading term by a
pop from its end; a key enters it once, by ``bisect.insort``, when a step
first creates it.  A step's term does one ``h.get``; only a key new to the
dict looks in the pack map, where a key that cancelled earlier is found,
still in the leader list.  The head search tests the reducers in order,
one subtraction and one AND each, and takes the first that divides; a
normal form tests only the candidates its basis's lead-support index gives
(see below).  A step subtracts the reducer term by term, shifting each key
and each pack by one integer addition, so the interpreted work of a step grows
with the reducer's length, not the remainder's.  A step scales the
remainder only by ``gc // gcd(gc, c0)`` (reducer and remainder leading
coefficients), which is 1 for most steps.  An irreducible term stays in the
dict, at the remainder's scale: every key a step makes lies below the key
it takes, so no later step touches it, and at the end the dict holds
exactly the tail.  It comes back with its multiplier, so the multiplier
times the input minus the tail lies in the ideal, and the content pass
(``_divide_content``) divides the remainder and the multiplier by their
common content.  The pass runs over the whole remainder, so it runs only
when a step's leading coefficient has grown past twice the bit length it
had after the last pass, and never below ``_CONTENT_BITS``: a pass every
few steps costs more than the steps, and dividing out small factors leaves
later leaders coprime to the reducers' leading coefficients, so more steps
scale the whole remainder.

``buchberger`` interreduces its inputs, runs one of two pair loops, and
returns the minimal basis the loop ends with.  ``saturate_last`` divides a
minimal grevlex basis by the powers of its last variable in its leading
terms (Bayer's lemma), which gives a saturated closure's minimal basis from
the naive closure's.  ``interreduce`` tail-reduces a minimal basis into the
reduced one (Becker and Weispfenning, "Groebner Bases", 1993, section
5.4), so a caller that needs only leading monomials, as Hilbert data does,
never pays for it.  All three return a ``Basis`` of the engine polynomials
they made, which ``saturate_last``, ``interreduce`` and ``normal_form``
take without keying them again.  A ``Basis`` strips its ``[(exp, int)]``
lists off them only when they are first read, and answers its length,
leading monomials, grevlex gradedness and degree bound off the packs, so a
closure whose Hilbert data is all that is read unpacks no term list.  The
signature loop and ``saturate_last`` keep a minimal basis through one
helper, ``_minimal``.  A pass of ``_interreduce`` reduces each
polynomial against the results before it and the polynomials after it, so
after a pass that moved no leading monomial every result is irreducible by
the final leading monomials: another pass runs only if one moved, and on a
minimal basis none does.  Every polynomial the engine makes goes through
``_capped``, which raises the running degree bound to its total degree and
refuses it past ``max_degree``.

When the interreduced inputs are homogeneous under grevlex, the pair loops
top-reduce: ``_reduce`` stops at the first irreducible leading term, which
is all a pair loop reads, and every tail keeps the degree of its leading
term.  Every other run reduces fully: under lex an unreduced tail can
outgrow the degree cap that its reduced form meets, and katsura-6, an
affine grevlex run, took twice as long with top reduction, its long
unreduced tails slowing both the loop and ``interreduce``.

The loops share the S-polynomial (``_spoly``) and ``_reduce``.  The
signature loop runs when at most ``nvars`` inputs remain, the
Gebauer-Moeller (GM) loop otherwise.  A regular sequence has at most
``nvars`` elements, and on a homogeneous one the signature loop reduces no
pair to zero.  On the naive closures that one ``sl4-closures`` round runs
it gives the same bases as GM about five times as fast: 0.026-0.037 s
against 0.15-0.18 s a round (Python 3.11, shared 2-core machine).  With
more generators GM's reductions to zero are cheap and its bookkeeping is
lighter: on the 16 quadrics of the sl(4) minimal orbit, in 15 variables,
GM took 0.040 s and the signature loop 0.361 s.  Both loops count against
``max_pairs`` the S-pairs they reduce, not the pairs their criteria
discard.

The GM loop keeps one record per critical pair, ``(key of lcm, pack of lcm,
i, j)``, made once when ``update`` creates it, and the records in a heap,
as the signature loop does.  The key is injective, so the smallest record
is the smallest lcm, ties broken by the indices (the normal strategy).  The
basis is a list of indices in ascending order, and so are a new
polynomial's candidate pairs: of several with one lcm, the chain test keeps
at most the one of largest index.

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
joins the reducers once the leading key falls below it.  The loop keeps
every nonzero result, even one whose leading term is that of a multiple
with the same signature (singular top-reducible): under add-last
rewriting it is the only polynomial that rewrites the multiples of its
signature, and dropping it lost pairs, so that about one small random
system in 200 got a wrong basis.  It returns the polynomials with minimal
leading monomials.

The Koszul syzygy of two polynomials ``g_n`` and ``g_j`` is taken divided
by ``d``, the gcd of their monomial contents (the largest monomial
dividing every term, ``_monomial_content``): ``(g_j/d)*sig(n) -
(g_n/d)*sig(j)`` is a syzygy too, and its signature is that of
``g_j*sig(n) - g_n*sig(j)`` divided by ``d``, so it discards more pairs.
Naive closures need it: every charvalues generator has top form det A, so
after interreduction two naive inputs carry a monomial content, ``t^2*a``
and ``t*b``, and without the division the naive sl(4) closure reduced 3
of its 14 pairs to zero and took three times as long.  The content scan
stops at the first term that leaves the content 1, so it costs little
where there is none.

``normal_form`` reduces against a ``Basis`` keyed once, as ``interreduce``
returns it, and finds each head's reducer through the basis's lead-support
index (``_LeadIndex``), the support mask Singular-style engines keep beside
a packed leading monomial.  A head's support, the set of its nonzero
exponent fields, is three int operations on its pack; the index maps each
support met so far to the reducers whose leading support lies inside it,
in basis order, so the first divisor among them is the one a scan of the
whole basis finds, and every step, the tail and the multiplier are those of
the scan.  The reducers' supports are found once per basis, and an entry
once per support, so the index pays only when it persists: against the
68 reducers of the sl(4) minimal orbit's reduced basis, a head of a
``perfbench`` ``membership`` query makes one divisibility test on average,
where the scan made 21.  The pair loops and ``_interreduce`` scan, since
their reducers change from call to call, and so does a 32-bit rerun, which
keys its own lists.

This is the package's only Groebner engine.  It has no caps of its own:
``buchberger`` takes them from the caller, whose defaults live in
``groebner.GBLimits``; the 2^31 degree bound is that of 32-bit packs.
"""

from __future__ import annotations

from bisect import insort
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import chain, islice
from math import gcd
from operator import itemgetter, mul, neg
from struct import Struct

from ..errors import ResourceLimitExceeded

# _reduce divides out the integer content only once a leading coefficient
# has more bits than this: two 30-bit CPython digits, and arithmetic on
# smaller ints is no cheaper, so dividing their content out saves nothing
_CONTENT_BITS = 60

# the public bound on total degree, that of 32-bit fields
_DEGREE_BOUND = 1 << 31


class _Widen(Exception):
    """A degree reached the bound of 16-bit fields: the run goes again at 32."""


# the order kinds by name, as ``make_key`` and the engine number them
KINDS = {"lex": 0, "grevlex": 1, "elim": 2}


def make_key(exp, kind, block):
    """Sort key of ``exp``: key(a) < key(b) iff a < b in the order."""
    if kind == 0:
        return exp
    if kind == 1:
        return (sum(exp), *map(neg, reversed(exp)))
    return make_key(exp[:block], 1, 0) + make_key(exp[block:], 1, 0)


def _degree_guard(degree, L):
    """Refuse a total degree that the layout ``L`` cannot hold: at 16 bits
    by raising ``_Widen``, so that the entry point reruns at 32, and at 32
    bits by raising ResourceLimitExceeded."""
    bound = L[3]
    if degree >= bound:
        if bound < _DEGREE_BOUND:
            raise _Widen
        raise ResourceLimitExceeded(
            f"total degree {degree} reaches 2^31, the bound of packed monomial keys"
        )


# unbounded, so that each layout is one object: engine polynomials are
# matched to a layout by identity
@cache
def _layout(nvars, bits, kind, block):
    """``(struct, guard, shift, bound, nvars, kind, block, weights)`` for
    packs of ``nvars`` exponents in ``bits``-wide fields, 16 or 32, and keys
    in the order ``(kind, block)``.

    ``struct`` reads and writes the ``nvars + 1`` unsigned fields ("H" or
    "I"), least significant first; ``guard`` has the top bit of every
    exponent field set; a pack shifted right by ``shift`` is its total
    degree; ``bound``, 2^(bits - 1), is the first total degree the layout
    cannot hold.  The degree field needs no guard bit, since divisibility of
    the exponents implies its own, and the candidate lcms in ``update`` may
    take it past ``bound``: below twice the bound, so it still fits.
    ``weights`` are the packed keys of the unit vectors, ``make_key``'s
    fields as signed digits of the field width.
    """
    guard = sum(1 << (bits * i + bits - 1) for i in range(nvars))
    units = [(0,) * i + (1,) + (0,) * (nvars - i - 1) for i in range(nvars)]
    weights = tuple(
        sum(f << bits * k for k, f in enumerate(reversed(make_key(u, kind, block)))) for u in units
    )
    struct = Struct(f"<{nvars + 1}{'H' if bits == 16 else 'I'}")
    return struct, guard, bits * nvars, 1 << (bits - 1), nvars, kind, block, weights


def _widening(run, L, *args):
    """``run(L, *args)``, and again in ``L``'s 32-bit twin if a 16-bit run
    raises ``_Widen``."""
    try:
        return run(L, *args)
    except _Widen:
        pass
    return run(_layout(L[4], 32, L[5], L[6]), *args)


def _encode(exp, L):
    """``(key, pack)`` of ``exp`` in the layout ``L``: the int sort key,
    ordered as ``make_key``, and the packed exponent vector, ordered by
    divisibility through the layout's guard; both additive.

    Refuses, through ``_degree_guard``, an ``exp`` of total degree at or
    above the layout's bound.
    """
    degree = sum(exp)
    _degree_guard(degree, L)
    pack = int.from_bytes(L[0].pack(*exp, degree), "little")
    if L[5] == 1:
        # the grevlex key's digits are the pack's fields, the exponents
        # negated: the degree over -e_(n-1), ..., -e_0
        return (degree << (L[2] + 1)) - pack, pack
    return sum(map(mul, exp, L[7])), pack


def _unpack(pack, L):
    """The exponent tuple of a pack in the layout ``L``."""
    struct = L[0]
    return struct.unpack(pack.to_bytes(struct.size, "little"))[:-1]


def _encode_terms(pairs, L):
    """The ``(key, pack, coeff)`` terms of a list of ``(exp, coeff)`` pairs
    in the layout ``L``, in their order, each as ``_encode`` keys it.

    One ``_degree_guard`` on the largest total degree refuses the list
    before any term is keyed; under grevlex each key is read off its pack
    as ``_encode`` reads it.
    """
    degrees = list(map(sum, map(itemgetter(0), pairs)))
    _degree_guard(max(degrees, default=0), L)
    fields = L[0].pack
    if L[5] == 1:
        up = L[2] + 1
        return [
            ((d << up) - p, p, c)
            for d, (e, c) in zip(degrees, pairs)
            for p in (int.from_bytes(fields(*e, d), "little"),)
        ]
    weights = L[7]
    return [
        (sum(map(mul, e, weights)), int.from_bytes(fields(*e, d), "little"), c)
        for d, (e, c) in zip(degrees, pairs)
    ]


def _attach_keys(pairs, L):
    """[(exp, int)] -> engine poly in the layout ``L``, normalised primitive."""
    terms = _encode_terms([t for t in pairs if t[1]], L)
    terms.sort(key=itemgetter(0), reverse=True)
    return _primitive(terms)


def _top(terms, shift):
    """The largest total degree among ``terms``, 0 if there are none."""
    return max(map(itemgetter(1), terms), default=0) >> shift


def _graded(polys, shift):
    """True if each engine polynomial's first and last terms have one total
    degree: grevlex is graded, so under it each is then homogeneous."""
    return all(p[0][1] >> shift == p[-1][1] >> shift for p in polys)


def _lead_key(poly):
    """The key of a nonzero engine polynomial's leading term."""
    return poly[0][0]


def _strip_keys(poly, L):
    """Engine poly in the layout ``L`` -> [(exp, int)].

    The packs are written to one bytes object and read back by one
    ``iter_unpack``; each exponent tuple drops the pack's degree field.
    """
    struct = L[0]
    size = struct.size
    data = b"".join([p.to_bytes(size, "little") for _, p, _ in poly])
    return [(e[:-1], t[2]) for e, t in zip(struct.iter_unpack(data), poly)]


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


def _reduce(f, basis, L, top, waiting=(), top_only=False, index=None):
    """Fully reduce ``f`` modulo ``basis`` (fraction-free).

    ``f`` is any iterable of terms, in any order: terms with the same key
    are summed and zero sums dropped.  ``basis`` holds engine polynomials
    in the layout ``L``, as ``f``'s terms are, and ``top`` is at least the
    total degree of each of their terms.  Returns ``(tail, mult)``, the
    int ``mult`` nonzero, with ``mult * f - tail`` in the ideal of the
    reducers, the tail sorted descending and no tail monomial divisible by
    any basis leading monomial.  The tail is not normalised: the pair loops
    and ``_interreduce`` keep ``_primitive`` of it.  Refuses, through
    ``_degree_guard``, a step that could make a monomial of total degree at
    or above the layout's bound, judged by ``top``, not by the reducer.

    ``waiting`` holds further reducers as ``(threshold, polynomial)`` pairs
    sorted ascending by threshold.  A reducer is appended to ``basis``
    (which must then be a list of the caller's own) once the leading key
    falls below its threshold: terms leave the remainder in descending key
    order, so it reduces exactly the terms whose keys lie below.  The list
    is consumed.

    With ``top_only`` the reduction stops at the first irreducible leading
    term and the tail after it is returned as it stands, reducible or not.

    The head search takes the first reducer in ``basis`` whose leading
    monomial divides the head.  Given an ``index``, the ``_LeadIndex`` of
    exactly ``basis``, it tests only the candidates the index gives for the
    head's support, which hold that first divisor, so the steps and the
    result are the same; an index cannot serve ``waiting``, which changes
    the reducers.

    Each step pops the largest key from a sorted leader list instead of
    scanning the remainder, and skips it if its terms cancelled; steps, and
    so the result, are those of taking ``max`` of the terms not yet found
    irreducible each time.
    """
    guard, shift = L[1], L[2]
    if index is not None:
        ones = index.ones
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
        for g in basis if index is None else index[((p0 | guard) - ones) & guard]:
            if not (p0 - g[0][1]) & guard:
                break
        else:
            # irreducible: it stays in h, at the remainder's scale
            h[k0] = c0
            if top_only:
                break
            continue
        terms = iter(g)
        gk, gp, gc = next(terms)
        dpack = p0 - gp
        # the monomials this step makes have degree at most top + |dpack|
        _degree_guard(top + (dpack >> shift), L)
        if c0.bit_length() > limit:
            c0, mult = _divide_content(h, c0, mult)
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
            hc = h.get(sk)
            if hc is None:
                h[sk] = -b * c
                # a key cancelled earlier is still in packs and the leader
                # list, and must not enter it twice
                if sk not in packs:
                    packs[sk] = p + dpack
                    insort(order, sk)
            else:
                hc -= b * c
                if hc:
                    h[sk] = hc
                else:
                    del h[sk]
    # h holds exactly the irreducible terms, and with top_only every term
    # after the first of them
    return [(k, packs[k], h[k]) for k in sorted(h, reverse=True)], mult


def _divide_content(h, c0, mult):
    """Divide a remainder of ``_reduce`` and its multiplier by their common
    integer content.

    The remainder is the leading coefficient ``c0`` and the dict ``h``,
    which is divided in place.  The content is the gcd of ``c0``, ``mult``
    and every coefficient in ``h``, so ``mult * f - remainder`` stays in
    the ideal.  Returns ``c0`` and ``mult``, each divided by it.
    """
    g = gcd(c0, mult, *h.values())
    if g > 1:
        for k in h:
            h[k] //= g
        c0 //= g
        mult //= g
    return c0, mult


def buchberger(gens, nvars, kind, block, max_pairs, max_degree):
    """Minimal Groebner basis of ``gens`` (list of [(exp, int)] term lists).

    Every exponent has length ``nvars``, which sizes the packs.  Returns a
    ``Basis`` of primitive integer polynomials, read as [(exp, int)] lists,
    each sorted descending in the order, the basis sorted ascending by
    leading monomial: the leading monomials of the reduced basis, which
    ``interreduce`` makes from it.  Raises ResourceLimitExceeded past the
    caps, ``max_degree`` bounding the total degree of every polynomial it
    makes, and before making a monomial of total degree 2^31 or more.
    """
    return _widening(_buchberger, _layout(nvars, 16, kind, block), gens, max_pairs, max_degree)


def _buchberger(L, gens, max_pairs, max_degree):
    """``buchberger`` in the layout ``L``."""
    shift = L[2]
    polys = _key_basis(L, gens)
    # the degree bound of every _reduce call: the largest total degree of
    # any polynomial made so far
    top = _top(chain.from_iterable(polys), shift)
    polys, top = _interreduce(polys, L, top, max_degree)
    top_only = L[5] == 1 and _graded(polys, shift)
    # a regular sequence has at most nvars elements; see the module docstring
    loop = _signature_loop if len(polys) <= L[4] else _gm_loop
    divisors = loop(polys, L, max_pairs, max_degree, top, top_only)
    return Basis.of(divisors, L)


class Basis:
    """A basis's [(exp, int)] lists, each primitive and sorted leading term
    first, with their ``layout`` and ``polys``, the engine polynomials keyed
    from them in it, or None: such a basis is keyed in each call that takes
    it.  The kernel's own are keyed at the width their run ended at, and
    strip their lists off ``polys`` only when first iterated, indexed,
    compared or printed; the length, the leading monomials, the gradedness
    test and the degree bound ``top`` are read off the packs.  A keyed
    basis also keeps the lead-support index of ``polys`` (``lead_index``),
    made by its first normal form, which later ones reuse.  It compares
    equal to its lists, prints as them and pickles as them, unkeyed and
    without an index.
    """

    __slots__ = ("polys", "layout", "_lists", "_top", "_index")

    def __init__(self, lists, polys, layout):
        self._lists = None if lists is None else list(lists)
        self.polys = polys
        self.layout = layout
        self._top = None
        self._index = None

    @classmethod
    def of(cls, polys, L):
        """The basis of the engine polynomials ``polys`` in the layout ``L``."""
        return cls(None, polys, L)

    @classmethod
    def of_lists(cls, lists, nvars, kind, block):
        """The unkeyed basis of ``lists`` in the 16-bit layout of the order."""
        return cls(lists, None, _layout(nvars, 16, kind, block))

    def _stripped(self):
        """The [(exp, int)] lists, stripped off ``polys`` on first call."""
        if self._lists is None:
            self._lists = [_strip_keys(p, self.layout) for p in self.polys]
        return self._lists

    def __len__(self):
        return len(self.polys if self._lists is None else self._lists)

    def __iter__(self):
        return iter(self._stripped())

    def __getitem__(self, i):
        return self._stripped()[i]

    def __eq__(self, other):
        if isinstance(other, Basis):
            other = other._stripped()
        return self._stripped() == other

    __hash__ = None

    def __repr__(self):
        return repr(self._stripped())

    def __reduce__(self):
        return Basis.of_lists, (self._stripped(), *self.keying)

    @property
    def keying(self):
        """``(nvars, kind, block)``, the variables and order of the layout."""
        return self.layout[4:7]

    @property
    def top(self):
        """The largest total degree of any term, the degree bound of a
        reduction against the basis in every layout; read once."""
        if self._top is None:
            if self.polys is None:
                self._top = max((sum(e) for t in self._lists for e, _ in t), default=0)
            else:
                self._top = _top(chain.from_iterable(self.polys), self.layout[2])
        return self._top

    def leading_monomials(self):
        """The exponent tuple of each element's leading term."""
        if self.polys is None:
            return [terms[0][0] for terms in self._lists]
        L = self.layout
        return [_unpack(p[0][1], L) for p in self.polys]

    def graded(self):
        """True if each element's first and last terms have one total
        degree: under grevlex, a graded order, each is then homogeneous."""
        if self.polys is None:
            return all(sum(t[0][0]) == sum(t[-1][0]) for t in self._lists)
        return _graded(self.polys, self.layout[2])

    def keyed(self, L):
        """``polys`` if they are in the layout ``L``, else the lists keyed in it."""
        return self.polys if self.layout is L and self.polys else _key_basis(L, self)

    def lead_index(self):
        """The ``_LeadIndex`` of ``polys``, made on first call and kept."""
        if self._index is None:
            self._index = _LeadIndex(self.polys, self.layout)
        return self._index


class _LeadIndex(dict):
    """The head search of normal forms against one basis: the support of a
    head, the guard bits of its nonzero exponent fields, maps to the tuple
    of reducers whose leading support lies inside it, in basis order.  A
    reducer outside that tuple has a variable the head lacks, so cannot
    divide it, and the first divisor in the tuple is the first in the basis.

    A support is ``((pack | guard) - ones) & guard``, ``ones`` the low bit
    of every exponent field: each field is at least its guard bit, so no
    subtraction borrows, and a field keeps its guard bit iff it was
    nonzero.  The reducers' supports are found once; an entry is made the
    first time its support is met, and kept for the basis's lifetime.
    """

    __slots__ = ("ones", "_reducers")

    def __init__(self, polys, L):
        guard = L[1]
        # each field's top bit shifted down to its bottom one; the bound is
        # 2^(bits - 1)
        self.ones = ones = guard >> (L[3].bit_length() - 1)
        self._reducers = [(g, ((g[0][1] | guard) - ones) & guard) for g in polys]

    def __missing__(self, support):
        # a list, not a generator: a generator per miss ran 9 collections of
        # the youngest GC generation in a seed-11 sl3-sweep round, not 3
        found = self[support] = tuple([g for g, s in self._reducers if s | support == support])
        return found


def saturate_last(basis):
    """A minimal grevlex basis of J : t^inf from ``basis``, a ``Basis`` of a
    minimal grevlex basis of a homogeneous ideal J, t its last variable.

    By Bayer's lemma (Bayer and Stillman, Invent. Math. 87 (1987)) the
    power t^k of t in an element's leading term divides every term, and the
    quotients form a Groebner basis of J : t^inf.  Keys and packs are
    additive, so each term of an engine polynomial loses the key and pack
    of t^k in the basis's own layout, and keeps its place in the element's
    order.  ``_minimal`` then keeps the quotients with minimal
    leading monomials.  Runs in the basis's layout, and again at 32 bits if
    a 16-bit run reaches degree 2^15; returns a ``Basis`` keyed in the
    layout it ran in, which ``interreduce`` takes without keying it again.
    """
    return _widening(_saturate_last, basis.layout, basis)


def _saturate_last(L, basis):
    """``saturate_last`` in the layout ``L``."""
    polys = basis.keyed(L)
    # the key and pack of t^k for each element, k its leading term's power of t
    shifts = [_encode((0,) * (L[4] - 1) + _unpack(g[0][1], L)[-1:], L) for g in polys]
    divided = [[(k - tk, p - tp, c) for k, p, c in g] for g, (tk, tp) in zip(polys, shifts)]
    return Basis.of(_minimal(divided, L[1]), L)


def interreduce(basis, max_degree=_DEGREE_BOUND):
    """The reduced Groebner basis from a minimal one, ``buchberger``'s output.

    Takes a ``Basis`` of a minimal basis, free of zeros, and runs in its
    layout.  Returns a ``Basis`` keyed for ``normal_form``.  Raises
    ResourceLimitExceeded if a polynomial it makes has total degree above
    ``max_degree``; under grevlex none has a larger degree than the input,
    since no term has a larger degree than its leading term.
    """
    return _widening(_reduced_basis, basis.layout, basis, max_degree)


def _reduced_basis(L, basis, max_degree):
    """``interreduce`` in the layout ``L``."""
    polys = basis.keyed(L)
    return Basis.of(_interreduce(list(polys), L, basis.top, max_degree)[0], L)


def _interreduce(polys, L, top, max_degree):
    """``polys`` interreduced, sorted by leading key, and their degree bound;
    ``top`` bounds the degree of ``polys``.  Zeros are dropped.
    """
    shift = L[2]
    while True:
        polys.sort(key=_lead_key)
        done = []
        moved = False
        for i, p in enumerate(polys):
            others = done + polys[i + 1 :]
            r = _primitive(_reduce(p, others, L, top)[0]) if others else p
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


def _gm_loop(f, L, max_pairs, max_degree, top, top_only):
    """A minimal Groebner basis of the polynomials ``f`` by Gebauer-Moeller.

    ``f`` is interreduced and sorted by leading key, and ``top`` its degree
    bound; ``top_only`` is ``_reduce``'s.  Returns the basis sorted by
    leading key.
    """
    guard, shift = L[1], L[2]
    pack_fields = L[0].pack
    # f holds every polynomial ever created, exps their leading exponents;
    # G and pairs hold indices into them
    exps = [_unpack(p[0][1], L) for p in f]

    def update(G, B, ih):
        # Gebauer-Moeller pair pruning, [Becker-Weispfenning] p. 230, on
        # pair records (key of lcm, pack of lcm, ih, ig)
        mh, ph = exps[ih], f[ih][0][1]
        # an old pair goes if lm(h) divides its lcm and neither lcm with h
        # equals it; lcm(i, h) divides the pair's lcm, so it equals it iff
        # their degrees agree
        B = [
            pr
            for pr in B
            if (pr[1] - ph) & guard
            or sum(map(max, exps[pr[2]], mh)) == pr[1] >> shift
            or sum(map(max, exps[pr[3]], mh)) == pr[1] >> shift
        ]
        # of several new pairs with equal lcm the chain test keeps the last
        # candidate, so the candidates go in ascending index order
        C = [(tuple(map(max, mh, exps[ig])), ig) for ig in G]
        # the lcms' packs; their degree may pass the layout's bound, which
        # the degree field holds and a kept pair's _encode refuses
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
                B.append((*_encode(m, L), ih, ig))
        heapify(B)
        # ih is the largest index yet, so G stays ascending
        G = [ig for ig in G if (f[ig][0][1] - ph) & guard]
        G.append(ih)
        return G, B

    G = []
    CP = []
    for i in range(len(f)):
        G, CP = update(G, CP, i)
    # G's polynomials by leading key, sorted again only when G changes
    divisors = sorted((f[ig] for ig in G), key=_lead_key)

    pairs_done = 0
    while CP:
        # normal strategy: smallest lcm in the order, then smallest indices;
        # the key is injective, so comparing records compares exactly that
        key, lcm, i1, i2 = heappop(CP)
        pairs_done += 1
        if pairs_done > max_pairs:
            raise ResourceLimitExceeded(f"pair cap {max_pairs} exceeded")
        spol = _spoly(f, key, lcm, i1, i2, top, L)
        r = _primitive(_reduce(spol, divisors, L, top, top_only=top_only)[0])
        if not r:
            continue
        top = _capped(r, shift, top, max_degree)
        f.append(r)
        exps.append(_unpack(r[0][1], L))
        G, CP = update(G, CP, len(f) - 1)
        divisors = sorted((f[ig] for ig in G), key=_lead_key)

    # G is already minimal: update drops every member whose leading monomial
    # the new one divides, and a new polynomial is reduced against G first
    return divisors


def _spoly(f, key, lcm, i1, i2, top, L):
    """The S-polynomial of ``f[i1]`` and ``f[i2]`` at the lcm of key ``key``
    and pack ``lcm``, ``(c2/d) x^(lcm-e1) f[i1] - (c1/d) x^(lcm-e2) f[i2]``.

    It is the two shifted, scaled tails (the leading terms cancel), which
    ``_reduce`` sums; keys and packs are additive, so a cofactor's key and
    pack are differences.  Refuses, through ``_degree_guard``, one that a
    step reducing it against a basis of degree bound ``top`` could take to
    the layout ``L``'s bound.
    """
    k1, p1, c1 = f[i1][0]
    k2, p2, c2 = f[i2][0]
    dp1 = lcm - p1
    dp2 = lcm - p2
    _degree_guard(top + (max(dp1, dp2) >> L[2]), L)
    d = gcd(c1, c2)
    return (
        (k + dk, p + dp, m * c)
        for g, m, dk, dp in (
            (f[i1], c2 // d, key - k1, dp1),
            (f[i2], -(c1 // d), key - k2, dp2),
        )
        for k, p, c in islice(g, 1, None)
    )


def _signature_loop(f, L, max_pairs, max_degree, top, top_only):
    """A minimal Groebner basis of the polynomials ``f`` by signatures.

    ``f`` is interreduced and sorted by leading key, and ``top`` its degree
    bound; ``top_only`` is ``_reduce``'s.  Returns the basis sorted by
    leading key.  A polynomial's signature is ``t*e_i``, kept as ``(key, i,
    pack)`` of ``t*lm(f[i])``: the Schreyer order compares ``(key, i)``,
    and ``t*e_i`` divides ``s*e_i`` iff the packs do.
    """
    guard, shift = L[1], L[2]
    exps = [_unpack(p[0][1], L) for p in f]
    contents = [_monomial_content(p, L) for p in f]
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
        cn = contents[n]
        for j in range(n):
            kj, pj, _ = f[j][0]
            skj, i_j, spj = sigs[j]
            # the Koszul syzygy (f[j]/d)*sig(n) - (f[n]/d)*sig(j), d the gcd
            # of the two monomial contents, has the larger side's signature
            # unless the two sides cancel.  Each side is a multiple of the
            # pair's side from the same polynomial, so bounding its degree
            # bounds the pair's signature too
            dk = dp = 0
            if cn and contents[j]:
                d = tuple(map(min, cn, contents[j]))
                if any(d):
                    dk, dp = _encode(d, L)
            a, b = (skn + kj - dk, i_n, spn + pj - dp), (skj + kn - dk, i_j, spj + pn - dp)
            _degree_guard(max(a[2], b[2]) >> shift, L)
            if a[:2] != b[:2]:
                note(*max(a, b)[1:])
            m = tuple(map(max, exps[n], exps[j]))
            key, lcm = _encode(m, L)
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
        spol = _spoly(f, key, lcm, g, o, top, L)
        r = _primitive(_reduce(spol, [], L, top, waiting=waiting, top_only=top_only)[0])
        if not r:
            note(i, sp)
            continue
        top = _capped(r, shift, top, max_degree)
        f.append(r)
        sigs.append((sk, i, sp))
        exps.append(_unpack(r[0][1], L))
        contents.append(_monomial_content(r, L))
        add_pairs(len(f) - 1)

    return _minimal(f, guard)


def _minimal(polys, guard):
    """The polynomials of ``polys`` with minimal leading monomials, one per
    monomial, sorted by leading key; ``guard`` is their layout's.

    A divisor's key is never larger, so one pass in key order keeps each
    polynomial whose leading monomial no kept one divides; of several with
    one leading monomial it keeps the first in ``polys``.
    """
    kept = []
    for p in sorted(polys, key=_lead_key):
        if all((p[0][1] - q[0][1]) & guard for q in kept):
            kept.append(p)
    return kept


def _monomial_content(poly, L):
    """The exponent tuple of the largest monomial dividing every term of the
    engine polynomial ``poly`` in the layout ``L``, or None if that is 1.

    A term the running content divides costs one subtraction and one AND;
    the scan stops at the first term that leaves the content 1.
    """
    struct, guard = L[0], L[1]
    pc = poly[0][1]
    content = _unpack(pc, L)
    for _, p, _ in poly:
        if (p - pc) & guard:
            content = tuple(map(min, content, _unpack(p, L)))
            if not any(content):
                return None
            pc = int.from_bytes(struct.pack(*content, sum(content)), "little")
    return content if pc else None


def _key_basis(L, basis_pairs):
    """[(exp, int)] term lists -> engine polynomials in the layout ``L``,
    each sorted and normalised primitive, zeros dropped."""
    keyed = (_attach_keys(b, L) for b in basis_pairs)
    return [p for p in keyed if p]


def normal_form(fpairs, basis):
    """Exact remainder of f modulo a (Groebner) basis.

    The input is an [(exp, int)] term list over the basis's variables, and
    the basis a ``Basis``, as ``interreduce`` returns it, whose layout fixes
    the order; returns ``(tail, mult)`` with the exact normal form equal to
    tail / mult, tail as an [(exp, int)] list.  The input is not
    content-normalised: the multiplier accounts for everything.  Runs in
    the basis's layout and finds each head's reducer through the basis's
    lead-support index, made by the first call and kept; if a 16-bit run
    reaches degree 2^15, the basis's lists are keyed at 32 bits for the
    rerun, which scans them and leaves the index as it was.  Raises
    ResourceLimitExceeded on, or before making, a monomial of total degree
    2^31 or more.
    """
    return _widening(_normal_form, basis.layout, fpairs, basis)


def _normal_form(L, fpairs, basis):
    """``normal_form`` in the layout ``L``, keying ``basis`` again if it is
    in another: such a keying is the call's own, and its head search scans
    it, while the basis's own polynomials are searched through its index."""
    polys = basis.keyed(L)
    index = basis.lead_index() if polys is basis.polys else None
    tail, mult = _reduce(_encode_terms(fpairs, L), polys, L, basis.top, index=index)
    return _strip_keys(tail, L), mult
