"""The benchmark's three workloads.

A workload's ``setup(lib, seed)`` draws its inputs from the seed and returns
one round, a list of ``Op``, and a check of anything it prebuilt.  Every run
repeats whole rounds of the same ops, so per-operation counts are exact for
a seed and independent of how many rounds fit in the run.  ``Op.run`` is the
timed call into the library; ``Op.check`` compares its output with the
closed forms in ``oracles`` and runs outside the timed region.

Every library call is looked up on its module at call time
(``lib.groebner.buchberger``), so the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Any, Callable

import oracles

# sl(3): stratified round, ROUND_SL3 / 4 instances in each
# (regular H or not) x (critical value or generic) cell
ROUND_SL3 = 128
# membership: queries per round; each is r + sum of H_GENERATORS multiples
# h*g of orbit generators, h with H_TERMS terms of degree <= 2
ROUND_MEMBERSHIP = 256
H_GENERATORS = 6
H_TERMS = 3
# the minimal orbit, whose closure is Segre P^3 x P^3
MINIMAL_SL4 = (1, 1, 1, -3)
# sl(4) fibres: (orbit eigenvalues, shifts for the charvalues presentation,
# H, fibre value, whether the value is critical).  A run averages each
# closure over its rounds, and with two or three rounds the timings spread
# 27-42% between runs, so a round must repeat four times or more within one
# run: the minimal orbit's saturated closure (13-20 s), H = diag(1,1,-1,-1)
# (17-20 s) and the 1.5-2.3 s saturated closures of diag(2,1,0,-3) are not
# among them.
FIBRES_SL4 = [
    ((3, 1, -1, -3), (-3, -1, 1), (3, 1, -1, -3), Fraction(0), True),
    ((3, 1, -1, -3), (-3, -1, 1), (1, -1, 0, 0), Fraction(2), True),
    ((2, 1, -1, -2), (-2, -1, 1), (3, 1, -1, -3), Fraction(0), False),
]


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list]


def _expect(problems: list, label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def _expect_hilbert(problems: list, label: str, h, want: oracles.Hilbert) -> None:
    if want.numerator is not None:
        _expect(problems, f"{label} numerator", tuple(h.numerator), want.numerator)
    _expect(problems, f"{label} proj_dim", h.proj_dim, want.proj_dim)
    _expect(problems, f"{label} degree", h.degree, want.degree)


def _critical_values(H, eigenvalues) -> list[Fraction]:
    return sorted({sum(h * x for h, x in zip(H, perm)) for perm in permutations(eigenvalues)})


# -- sl3-sweep ---------------------------------------------------------------


def _draw_sl3(rng: random.Random, regular_h: bool, critical: bool) -> dict:
    while True:
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        eigenvalues = (a, b, -a - b)
        if len(set(eigenvalues)) == 3:
            break
    shifts = rng.sample([-e for e in eigenvalues], 2)
    if regular_h:
        while True:
            h1, h2 = rng.randint(-3, 3), rng.randint(-3, 3)
            H = (h1, h2, -h1 - h2)
            if len(set(H)) == 3:
                break
    else:
        h = rng.choice([1, -1, 2, -2])
        H = tuple(rng.sample([h, h, -2 * h], 3))
    values = _critical_values(H, eigenvalues)
    if critical:
        c = rng.choice(values)
    else:
        while True:
            c = Fraction(rng.randint(-9, 9), rng.randint(2, 5))
            if c not in values:
                break
    return {"eigenvalues": eigenvalues, "shifts": shifts, "H": H, "c": c}


def _round_trip(lib, ideal):
    buf = io.StringIO()
    lib.ioformats.write_ideal(buf, ideal)
    back, _ = lib.ioformats.read_ideal(io.StringIO(buf.getvalue()))
    return back


def _sl3_pipeline(lib, inst: dict) -> dict:
    orbits, groebner, hilbert, chern = lib.orbits, lib.groebner, lib.hilbert, lib.chern
    orbit = orbits.orbit_ideal_charvalues(orbits.DiagSpec(inst["eigenvalues"]), inst["shifts"])
    I = orbits.fibre_ideal(orbit, orbits.DiagSpec(inst["H"]), inst["c"])
    p, q, f = I.generators
    J = groebner.IdealPresentation(I.ctx, [p, p - q, f])
    I_hom = groebner.homogenise_naive(I, "t")
    J_hom = groebner.homogenise_naive(J, "t")
    out = {
        "hilbert_I_hom": hilbert.hilbert(groebner.buchberger(I_hom)),
        "hilbert_J_hom": hilbert.hilbert(groebner.buchberger(J_hom)),
    }
    S_I = groebner.homogenise_ideal(I, "t")
    S_J = groebner.homogenise_ideal(J, "t")
    out["hilbert_sat"] = hilbert.hilbert(groebner.buchberger(S_I))
    out["saturations_equal"] = groebner.ideal_equal(S_I, S_J)
    out["I_hom_in_J_hom"] = groebner.ideal_contains(J_hom, I_hom)
    out["J_hom_in_sat"] = groebner.ideal_contains(S_I, J_hom)
    ambient = len(I_hom.ctx) - 1
    for name, ideal in (("I", I), ("J", J)):
        spec = chern.CompleteIntersectionSpec(ambient, [g.degree() for g in ideal.generators])
        out[f"euler_{name}"] = chern.expected_euler(spec)
    ideals = {"I": I, "J": J, "I_hom": I_hom, "J_hom": J_hom, "S_I": S_I, "S_J": S_J}
    out["round_trips"] = {name: (ideal, _round_trip(lib, ideal)) for name, ideal in ideals.items()}
    return out


def _sl3_check(out: dict) -> list:
    problems: list = []
    # generator degrees (3, 3, 1) and (3, 2, 1) by construction, in P^8
    _expect_hilbert(problems, "I_hom", out["hilbert_I_hom"], oracles.complete_intersection(8, [3, 3, 1]))
    _expect_hilbert(problems, "J_hom", out["hilbert_J_hom"], oracles.complete_intersection(8, [3, 2, 1]))
    _expect_hilbert(problems, "saturated", out["hilbert_sat"], oracles.kostant_fibre(2))
    for key in ("saturations_equal", "I_hom_in_J_hom", "J_hom_in_sat"):
        _expect(problems, key, out[key], True)
    _expect(problems, "euler_I", out["euler_I"], oracles.expected_euler(8, [3, 3, 1]))
    _expect(problems, "euler_J", out["euler_J"], oracles.expected_euler(8, [3, 2, 1]))
    for name, (ideal, back) in out["round_trips"].items():
        _expect(problems, f"round trip of {name}", back, ideal)
    return problems


def setup_sl3(lib, seed: int):
    rng = random.Random(seed)
    cells = [(regular, critical) for regular in (True, False) for critical in (True, False)]
    insts = [_draw_sl3(rng, *cell) for cell in cells for _ in range(ROUND_SL3 // len(cells))]
    rng.shuffle(insts)
    ops = [Op(f"sl3 {inst}", lambda inst=inst: _sl3_pipeline(lib, inst), _sl3_check) for inst in insts]
    return ops, lambda: []


# -- sl4-closures ------------------------------------------------------------


def _closure(lib, build, mode: str):
    groebner = lib.groebner
    I = build()
    if mode == "naive":
        closed = groebner.homogenise_naive(I, "t")
    else:
        closed = groebner.homogenise_ideal(I, "t")
    return lib.hilbert.hilbert(groebner.buchberger(closed))


def _hilbert_check(want: oracles.Hilbert):
    def check(h) -> list:
        problems: list = []
        _expect_hilbert(problems, "closure", h, want)
        return problems

    return check


def setup_sl4(lib, seed: int):
    orbits = lib.orbits
    ops = []
    for eigenvalues, shifts, H, c, critical in FIBRES_SL4:
        if (c in _critical_values(H, eigenvalues)) != critical:
            raise ValueError(f"fibre value {c} of {eigenvalues}, H={H} is mislabelled")

        def build(eigenvalues=eigenvalues, shifts=shifts, H=H, c=c):
            orbit = orbits.orbit_ideal_charvalues(orbits.DiagSpec(eigenvalues), shifts)
            return orbits.fibre_ideal(orbit, orbits.DiagSpec(H), c)

        for mode, want in (("naive", oracles.infinity_component(3)), ("saturated", oracles.kostant_fibre(3))):
            ops.append(
                Op(
                    f"sl4 fibre {eigenvalues} H={H} c={c} {mode}",
                    lambda build=build, mode=mode: _closure(lib, build, mode),
                    _hilbert_check(want),
                )
            )
    random.Random(seed).shuffle(ops)
    return ops, lambda: []


# -- membership --------------------------------------------------------------


def _random_monomial(rng: random.Random, nvars: int, degree: int) -> tuple[int, ...]:
    exp = [0] * nvars
    for _ in range(degree):
        exp[rng.randrange(nvars)] += 1
    return tuple(exp)


def setup_membership(lib, seed: int):
    orbits, groebner, MultiPoly = lib.orbits, lib.groebner, lib.MultiPoly
    orbit = orbits.orbit_ideal_minpoly(orbits.DiagSpec(MINIMAL_SL4))
    G = groebner.buchberger(orbit.presentation)
    gens = orbit.presentation.generators
    ctx = orbit.presentation.ctx
    leads = G.leading_monomials()
    nvars = len(ctx)
    rng = random.Random(seed)

    def coeff() -> Fraction:
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 3))

    ops = []
    for i in range(ROUND_MEMBERSHIP):
        r_terms: dict = {}
        while len(r_terms) < 6:
            m = _random_monomial(rng, nvars, rng.randint(0, 3))
            if oracles.is_standard(m, leads):
                r_terms[m] = coeff()
        r = MultiPoly(ctx, r_terms)
        f = r
        for g in rng.sample(gens, H_GENERATORS):
            h = MultiPoly(ctx, {_random_monomial(rng, nvars, rng.randint(0, 2)): coeff() for _ in range(H_TERMS)})
            f = f + h * g
        ops.append(
            Op(
                f"membership query {i}",
                lambda f=f: lib.groebner.normal_form(f, G),
                lambda nf, r=r: _membership_check(nf, r, leads),
            )
        )

    def check_basis() -> list:
        # leading terms of an affine grevlex basis give the Hilbert function
        # of the projective closure, up to one factor 1/(1-s)
        h = lib.hilbert.hilbert_of_leading_terms(leads, nvars)
        want = oracles.segre(3)
        problems: list = []
        _expect(problems, "basis numerator", tuple(h.numerator), want.numerator)
        _expect(problems, "basis krull_dim", h.krull_dim, want.proj_dim)
        _expect(problems, "basis degree", h.degree, want.degree)
        return problems

    return ops, check_basis


def _membership_check(nf, r, leads) -> list:
    problems: list = []
    # the remainder is unique, so r itself must come back when r is reduced
    bad = [m for m in r.terms if not oracles.is_standard(m, leads)]
    _expect(problems, "non-standard monomials in r", bad, [])
    _expect(problems, "normal form", nf, r)
    return problems


WORKLOADS = {
    "sl3-sweep": setup_sl3,
    "sl4-closures": setup_sl4,
    "membership": setup_membership,
}
