#!/usr/bin/env python3
"""Time the package's one Groebner engine, ``_kernel.pure``, on raw term lists.

Workloads:
  orbit-fibre    GB of the naive homogenisation of the 4-critical-value
                 fibre ideal (9 variables, grevlex)
  orbit-saturate the route `saturate` takes on the same ideal: adjoin w and
                 1 - w*t, then eliminate w (elimination order in 10
                 variables); `homogenise_ideal` no longer goes this way.
                 It is kept as the only timing of an elimination order:
                 `eliminate` and `saturate` are public, but no pipeline
                 route and no perfbench workload runs them
  sl4-minimal    the saturated closure of the sl(4) minimal orbit of
                 diag(1,1,1,-3): the one grevlex run `homogenise_ideal`
                 makes, on the orbit's 16 generators in 15 variables
  sl5-minimal    the same for the sl(5) minimal orbit of diag(1,1,1,1,-4),
                 24 variables, tens of seconds a run (slow)
  sl5-fibre      the affine fibre's own grevlex run: the regular sl(5)
                 fibre of diag(2,1,0,-1,-2) (charvalues shifts -2,-1,0,1)
                 under H = diag(2,1,0,-1,-2) at c = 1, five generators in
                 24 variables, about a minute a run (slow).  Its reduced
                 basis is the one sl5-saturated must match
  sl5-naive      the naive closure of the same fibre, 25 variables: a
                 pair loop of under a second, then a tail reduction of
                 about a minute to a basis of a million terms (slow)
  sl5-saturated  the route `homogenise_ideal` takes to the saturated
                 closure of the same fibre: the naive closure's pair
                 loop, then ``pure.saturate_last``, which divides each
                 element by its leading term's power of t and minimalises
                 the result (Bayer's lemma), under a second; its tail
                 reduction takes about half a minute (slow)
  katsura-5/6    dense quadrics, classic stress systems
  cyclic-5       the cyclic-roots system
  sl4-naive      the naive closure of the first ``sl4-closures`` fibre of
                 ``perfbench``: diag(3,1,-1,-3) (charvalues shifts -3,-1,1)
                 under H = diag(3,1,-1,-3) at c = 0, 16 variables; the
                 heaviest homogeneous run here, so the one that times the
                 pair loops' top reduction

Each run times ``pure.buchberger``, which returns a minimal basis, or for
sl5-saturated the route of ``ROUTES``, and ``pure.interreduce``, which
tail-reduces it, in two columns, the best of the repeats.  The checks read
the leading terms of the minimal basis, which are the reduced basis's.
Each basis of katsura-5/6 and cyclic-5 is checked by counting the standard
monomials of its leading terms (the number of solutions with
multiplicity), the sl4-minimal and sl5-minimal closures against the Segre
P^3 x P^3 and P^4 x P^4: h-vector (C(n,k)^2), degree C(2n,n), projective
dimension 2n, so (1,9,9,1), 20, 6 and (1,16,36,16,1), 70, 8, the
sl5-fibre and sl5-saturated closures against Kostant's: h-vector the
q-factorial [5]_q!, so (1,4,9,15,20,22,20,15,9,4,1), degree 5! = 120,
projective dimension 19, and the sl4-naive and sl5-naive closures by their
whole Hilbert data: the projective dimension and degree of their
components at infinity, 12 and 4, and 21 and 5, and the numerators
pinned in ``NAIVE_SL4`` and ``NAIVE_SL5`` from certified bases.  The
closed forms are ``segre``, ``kostant_fibre`` and ``infinity_component``
of ``perfbench/oracles.py``.  A mismatch exits with status 1.

The ``bits`` column is the width of the packed monomial fields the run
ended at.  The engine starts every run at 16 bits and reruns it at 32 only
when a degree reaches 2^15, and every run here is capped at degree
``MAX_DEGREE``, far below, so a workload at 32 bits has widened for no
cause and exits with status 1.

The last column is the first 12 hex digits of the sha256 of the reduced
basis as the engine returns it, so two runs give bit-identical bases iff
their columns agree.  Each workload's digest is checked against
``DIGESTS``, and a mismatch exits with status 1 too.  A workload of
``ROUTES`` ends in the reduced basis of a saturated closure I^h, which is
digested with t set to 1: that is the reduced basis of I, so sl5-saturated
must give sl5-fibre's digest.

The library is imported from ``src/`` next to this directory, and the
oracles from ``perfbench/``, so the script runs from a checkout without
installing the package.

Usage: python benchmarks/bench_gb.py [--repeat N] [--skip-slow]
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "src"))
# the closed forms the closures are checked against
sys.path.insert(0, str(_ROOT / "perfbench"))

import oracles  # noqa: E402
from workloads import FIBRES_SL4  # noqa: E402

from orbitcompat import (  # noqa: E402
    DiagSpec,
    IdealPresentation,
    VarContext,
    fibre_ideal,
    homogenise_naive,
    orbit_ideal_charvalues,
    orbit_ideal_minpoly,
    parse_poly,
)
from orbitcompat._kernel import pure  # noqa: E402
from orbitcompat.hilbert import hilbert_of_leading_terms  # noqa: E402


def raw_terms(polys):
    """The kernel's term lists of `polys`.  A coefficient that is not an
    integer raises: truncating it would time a different system."""
    raw = []
    for g in polys:
        if any(c.denominator != 1 for c in g.terms.values()):
            raise ValueError(f"non-integer coefficient in {g}")
        raw.append([(m, int(c)) for m, c in g.terms.items()])
    return raw


def fibre(eigenvalues, shifts, H, c):
    orbit = orbit_ideal_charvalues(DiagSpec(eigenvalues), shifts)
    return fibre_ideal(orbit, DiagSpec(H), c)


# the 4-critical-value sl(3) fibre of orbit-fibre and orbit-saturate
SL3_FIBRE = ([1, 0, -1], [0, -1], [1, -1, 0], 0)

# the regular sl(5) fibre of sl5-fibre and sl5-naive
SL5_FIBRE = ([2, 1, 0, -1, -2], [-2, -1, 0, 1], [2, 1, 0, -1, -2], 1)


def orbit_saturate_raw():
    # the saturation workload: naive homogenisation + (1 - w*t), eliminate w
    hom = homogenise_naive(fibre(*SL3_FIBRE), "t")
    names = ("w",) + hom.ctx.names
    ctx = VarContext(names)
    gens = [g.map_context(ctx) for g in hom.generators]
    gens.append(parse_poly("1 - w*t", ctx))
    return raw_terms(gens), len(ctx), 2, 1


def minimal_orbit_raw(eigenvalues):
    orbit = orbit_ideal_minpoly(DiagSpec(eigenvalues))
    return raw_terms(orbit.presentation.generators), len(orbit.presentation.ctx), 1, 0


def fibre_raw(eigenvalues, shifts, H, c, naive=False):
    """The grevlex run of a fibre, whose minimal basis homogenised is its
    saturated closure's, or with ``naive`` of its naive closure."""
    fib = fibre(eigenvalues, shifts, H, c)
    if naive:
        fib = homogenise_naive(fib, "t")
    return raw_terms(fib.generators), len(fib.ctx), 1, 0


def katsura(n):
    names = [f"u{i}" for i in range(n + 1)]
    ctx = VarContext(names)
    u = lambda i: parse_poly(names[abs(i)], ctx)
    gens = []
    for m in range(n):
        acc = parse_poly("0", ctx)
        for i in range(-n, n + 1):
            j = m - i
            if abs(j) <= n:
                acc = acc + u(i) * u(j)
        gens.append(acc - u(m))
    total = parse_poly("0", ctx)
    for i in range(-n, n + 1):
        total = total + u(i)
    gens.append(total - parse_poly("1", ctx))
    return raw_terms(gens), n + 1, 1, 0


def cyclic(n):
    names = [f"x{i}" for i in range(n)]
    ctx = VarContext(names)
    xs = [parse_poly(nm, ctx) for nm in names]
    gens = []
    for d in range(1, n):
        acc = parse_poly("0", ctx)
        for i in range(n):
            prod = parse_poly("1", ctx)
            for k in range(d):
                prod = prod * xs[(i + k) % n]
            acc = acc + prod
        gens.append(acc)
    prod = parse_poly("1", ctx)
    for x in xs:
        prod = prod * x
    gens.append(prod - parse_poly("1", ctx))
    return raw_terms(gens), n, 1, 0


WORKLOADS = {
    "orbit-fibre": (lambda: fibre_raw(*SL3_FIBRE, naive=True), False),
    # kept as the only elimination-order timing: no pipeline route or
    # perfbench workload runs `eliminate`
    "orbit-saturate": (orbit_saturate_raw, False),
    "sl4-minimal": (lambda: minimal_orbit_raw([1, 1, 1, -3]), False),
    "katsura-5": (lambda: katsura(5), False),
    "cyclic-5": (lambda: cyclic(5), False),
    "katsura-6": (lambda: katsura(6), False),
    "sl4-naive": (lambda: fibre_raw(*FIBRES_SL4[0][:4], naive=True), False),
    "sl5-minimal": (lambda: minimal_orbit_raw([1, 1, 1, 1, -4]), True),
    "sl5-fibre": (lambda: fibre_raw(*SL5_FIBRE), True),
    "sl5-naive": (lambda: fibre_raw(*SL5_FIBRE, naive=True), True),
    "sl5-saturated": (lambda: fibre_raw(*SL5_FIBRE, naive=True), True),
}


def saturated_route(gens, nvars, kind, block, max_pairs, max_degree):
    """``homogenise_ideal``'s route from a naive closure's terms, in
    ``pure.buchberger``'s form: the minimal basis, saturated by the last
    variable t."""
    return pure.saturate_last(pure.buchberger(gens, nvars, kind, block, max_pairs, max_degree))


# workloads timed through another route than ``pure.buchberger``
ROUTES = {"sl5-saturated": saturated_route}


def dehomogenised(basis):
    """``basis``, the kernel's reduced grevlex basis of a saturated closure
    I^h, with its last variable t set to 1: the reduced basis of I, since
    no leading term of it has a power of t and grevlex with t last orders
    every element's terms as I's order does."""
    return [[(e[:-1], c) for e, c in terms] for terms in basis]


# the degree cap of every run, far below 2^15
MAX_DEGREE = 200


def digest(basis):
    """The first 12 hex digits of the sha256 of ``basis``'s repr."""
    return hashlib.sha256(repr(basis).encode()).hexdigest()[:12]


def bench(raw_args, repeat, route=pure.buchberger):
    """``(best time of the minimal basis, best time of its tail reduction,
    minimal basis, reduced basis)`` over ``repeat`` runs, the minimal basis
    made by ``route``."""
    loop_times, reduce_times = [], []
    for _ in range(repeat):
        t0 = time.perf_counter()
        minimal = route(*raw_args, 2_000_000, MAX_DEGREE)
        t1 = time.perf_counter()
        reduced = pure.interreduce(minimal, MAX_DEGREE)
        loop_times.append(t1 - t0)
        reduce_times.append(time.perf_counter() - t1)
    return min(loop_times), min(reduce_times), minimal, reduced


def width(basis):
    """The field width, 16 or 32 bits, of the layout of ``basis``, a
    ``pure.Basis`` as ``pure.buchberger`` or ``pure.interreduce`` returns it."""
    return basis.layout[3].bit_length()


def standard_monomials(basis, nvars):
    # kernel polynomials are sorted leading term first
    h = hilbert_of_leading_terms([terms[0][0] for terms in basis], nvars)
    return h.degree if h.krull_dim == 0 else None


def closure_hilbert(basis, nvars):
    # homogenising each element with t appended last keeps its grevlex
    # leading monomial, so the closure's leading terms are these times t^0
    h = hilbert_of_leading_terms([terms[0][0] + (0,) for terms in basis], nvars + 1)
    return oracles.Hilbert(h.numerator, h.proj_dim, h.degree)


def hilbert_data(basis, nvars):
    # a homogeneous basis: its own leading terms give the Hilbert data
    h = hilbert_of_leading_terms([terms[0][0] for terms in basis], nvars)
    return oracles.Hilbert(h.numerator, h.proj_dim, h.degree)


# The naive closures' full Hilbert data.  ``infinity_component`` gives the
# projective dimension and degree of their top-dimensional component; the
# numerators, which see the lower-dimensional components too, are pinned
# from bases certified by a Gebauer-Moeller (GM) loop run on the minimal
# basis in which every S-pair its criteria leave reduced to zero: 20 pairs
# for the 14-element sl(4) basis, 112 for the 46-element sl(5) basis
NAIVE_SL4 = oracles.infinity_component(3)._replace(
    numerator=(1, 2, 3, 4, 2, 0, -2, -3, -2, -1)
)
NAIVE_SL5 = oracles.infinity_component(4)._replace(
    numerator=(1, 2, 3, 4, 5, 2, -1, -4, -6, -6, -3, 0, 2, 3, 2, 1)
)


# what each checked workload's minimal basis must give: the standard
# monomial count of a zero-dimensional system (2^n for katsura-n, 70 for
# cyclic-5), or the Hilbert data of a closure
EXPECTED = {
    "katsura-5": (standard_monomials, 32),
    "katsura-6": (standard_monomials, 64),
    "cyclic-5": (standard_monomials, 70),
    "sl4-minimal": (closure_hilbert, oracles.segre(3)),
    "sl5-minimal": (closure_hilbert, oracles.segre(4)),
    "sl5-fibre": (closure_hilbert, oracles.kostant_fibre(4)),
    "sl5-saturated": (hilbert_data, oracles.kostant_fibre(4)),
    "sl4-naive": (hilbert_data, NAIVE_SL4),
    "sl5-naive": (hilbert_data, NAIVE_SL5),
}

# every workload's reduced basis digest: a reduced basis is unique, and the
# engine returns it primitive and sorted, so a digest changes only when the
# engine's output format does
DIGESTS = {
    "orbit-fibre": "917ab68b9e04",
    "orbit-saturate": "5efba89c61b7",
    "sl4-minimal": "fcd2d95beaca",
    "katsura-5": "02e920507443",
    "cyclic-5": "2a7184a69e35",
    "katsura-6": "b6e59c868fb9",
    "sl4-naive": "6dd319b81b13",
    "sl5-minimal": "2d1a7128ddca",
    "sl5-fibre": "02d0f55fb221",
    "sl5-naive": "94e09f77fe01",
    "sl5-saturated": "02d0f55fb221",
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--skip-slow", action="store_true", help="leave out the workloads flagged slow")
    args = ap.parse_args(argv)

    print(f"{'workload':<16} {'minimal':>9} {'reduce':>9}  basis  bits  sha256")
    print("-" * 64)
    wrong = []
    for name, (make, slow) in WORKLOADS.items():
        if slow and args.skip_slow:
            continue
        raw_args = make()
        route = ROUTES.get(name, pure.buchberger)
        loop_s, reduce_s, minimal, reduced = bench(raw_args, args.repeat, route)
        got = digest(dehomogenised(reduced) if name in ROUTES else reduced)
        bits = max(width(minimal), width(reduced))
        print(f"{name:<16} {loop_s:>8.3f}s {reduce_s:>8.3f}s  {len(reduced):>5}  {bits:>4}  {got}")
        if bits != 16:
            wrong.append(f"{name}: ran at {bits} bits, capped at degree {MAX_DEGREE}")
        if got != DIGESTS[name]:
            wrong.append(f"{name}: sha256 {got}, expected {DIGESTS[name]}")
        if name in EXPECTED:
            measure, want = EXPECTED[name]
            got = measure(minimal, raw_args[1])
            if got != want:
                wrong.append(f"{name}: {measure.__name__} {got}, expected {want}")
    for line in wrong:
        print(f"error: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
