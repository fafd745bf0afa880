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
  katsura-5/6    dense quadrics, classic stress systems
  cyclic-5       the cyclic-roots system

Each basis of katsura-5/6 and cyclic-5 is checked by counting the standard
monomials of its leading terms (the number of solutions with multiplicity),
and the sl4-minimal and sl5-minimal closures against the Segre P^3 x P^3
and P^4 x P^4: h-vector (C(n,k)^2), degree C(2n,n), projective dimension
2n, so (1,9,9,1), 20, 6 and (1,16,36,16,1), 70, 8.  A mismatch exits with
status 1.

The last column is the first 12 hex digits of the sha256 of the basis as
the engine returns it, so two runs give bit-identical bases iff their
columns agree.

Usage: python benchmarks/bench_gb.py [--repeat N] [--skip-slow]
"""

import argparse
import hashlib
import statistics
import sys
import time
from math import comb

from orbitcompat import (
    DiagSpec,
    IdealPresentation,
    VarContext,
    fibre_ideal,
    homogenise_naive,
    orbit_ideal_charvalues,
    orbit_ideal_minpoly,
    parse_poly,
)
from orbitcompat._kernel import pure
from orbitcompat.hilbert import hilbert_of_leading_terms


def raw_terms(polys):
    """The kernel's term lists of `polys`.  A coefficient that is not an
    integer raises: truncating it would time a different system."""
    raw = []
    for g in polys:
        if any(c.denominator != 1 for c in g.terms.values()):
            raise ValueError(f"non-integer coefficient in {g}")
        raw.append([(m, int(c)) for m, c in g.terms.items()])
    return raw


def orbit_fibre_raw():
    spec = DiagSpec([1, 0, -1])
    orbit = orbit_ideal_charvalues(spec, [0, -1])
    fib = fibre_ideal(orbit, DiagSpec([1, -1, 0]), 0)
    hom = homogenise_naive(fib, "t")
    return raw_terms(hom.generators), len(hom.ctx), 1, 0


def orbit_saturate_raw():
    # the saturation workload: naive homogenisation + (1 - w*t), eliminate w
    spec = DiagSpec([1, 0, -1])
    orbit = orbit_ideal_charvalues(spec, [0, -1])
    fib = fibre_ideal(orbit, DiagSpec([1, -1, 0]), 0)
    hom = homogenise_naive(fib, "t")
    names = ("w",) + hom.ctx.names
    ctx = VarContext(names)
    gens = [g.map_context(ctx) for g in hom.generators]
    gens.append(parse_poly("1 - w*t", ctx))
    return raw_terms(gens), len(ctx), 2, 1


def minimal_orbit_raw(eigenvalues):
    orbit = orbit_ideal_minpoly(DiagSpec(eigenvalues))
    return raw_terms(orbit.presentation.generators), len(orbit.presentation.ctx), 1, 0


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
    "orbit-fibre": (orbit_fibre_raw, False),
    # kept as the only elimination-order timing: no pipeline route or
    # perfbench workload runs `eliminate`
    "orbit-saturate": (orbit_saturate_raw, False),
    "sl4-minimal": (lambda: minimal_orbit_raw([1, 1, 1, -3]), False),
    "katsura-5": (lambda: katsura(5), True),
    "cyclic-5": (lambda: cyclic(5), True),
    "katsura-6": (lambda: katsura(6), True),
    "sl5-minimal": (lambda: minimal_orbit_raw([1, 1, 1, 1, -4]), True),
}


def bench(raw_args, repeat):
    times = []
    basis = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        basis = pure.buchberger(*raw_args, 2_000_000, 200)
        times.append(time.perf_counter() - t0)
    return min(times), statistics.mean(times), basis


def standard_monomials(basis, nvars):
    # kernel polynomials are sorted leading term first
    h = hilbert_of_leading_terms([terms[0][0] for terms in basis], nvars)
    return h.degree if h.krull_dim == 0 else None


def closure_hilbert(basis, nvars):
    # homogenising each element with t appended last keeps its grevlex
    # leading monomial, so the closure's leading terms are these times t^0
    h = hilbert_of_leading_terms([terms[0][0] + (0,) for terms in basis], nvars + 1)
    return h.numerator, h.degree, h.proj_dim


def segre(n):
    """h-vector, degree and projective dimension of P^n x P^n."""
    return tuple(comb(n, k) ** 2 for k in range(n + 1)), comb(2 * n, n), 2 * n


# what each checked workload's basis must give: the standard monomial count
# of a zero-dimensional system (2^n for katsura-n, 70 for cyclic-5), or the
# Hilbert data of a closure
EXPECTED = {
    "katsura-5": (standard_monomials, 32),
    "katsura-6": (standard_monomials, 64),
    "cyclic-5": (standard_monomials, 70),
    "sl4-minimal": (closure_hilbert, segre(3)),
    "sl5-minimal": (closure_hilbert, segre(4)),
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--skip-slow", action="store_true", help="leave out the workloads flagged slow")
    args = ap.parse_args(argv)

    print(f"{'workload':<16} {'best':>9} {'mean':>9}  basis  sha256")
    print("-" * 58)
    wrong = []
    for name, (make, slow) in WORKLOADS.items():
        if slow and args.skip_slow:
            continue
        raw_args = make()
        best, mean, basis = bench(raw_args, args.repeat)
        digest = hashlib.sha256(repr(basis).encode()).hexdigest()[:12]
        print(f"{name:<16} {best:>8.3f}s {mean:>8.3f}s  {len(basis):>5}  {digest}")
        if name in EXPECTED:
            measure, want = EXPECTED[name]
            got = measure(basis, raw_args[1])
            if got != want:
                wrong.append(f"{name}: {measure.__name__} {got}, expected {want}")
    for line in wrong:
        print(f"error: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
