"""Round-trip the six ideals of one sl(3) fibre through ideal files and JSON.

Needs only the standard library, so it runs under any supported Python,
with or without pytest:

    python tests/smoke_round_trip.py

The six ideals are those one ``perfbench`` ``sl3-sweep`` operation writes
and reads back (seed 11's first): the fibre I, the presentation J of the
same ideal, both naive closures and both saturated ones.  Each is written
twice, so that the second reading meets monomials the vocabulary knows, and
must read back equal.  Exits 1 with a message on the first difference.
"""

from __future__ import annotations

import io
import platform
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from orbitcompat import groebner, ioformats, orbits  # noqa: E402


def six_ideals() -> dict:
    orbit = orbits.orbit_ideal_charvalues(orbits.DiagSpec((-4, -2, 6)), (2, -6))
    I = orbits.fibre_ideal(orbit, orbits.DiagSpec((-2, -3, 5)), Fraction(-1, 3))
    p, q, f = I.generators
    J = groebner.IdealPresentation(I.ctx, [p, p - q, f])
    return {
        "I": I,
        "J": J,
        "I_hom": groebner.homogenise_naive(I, "t"),
        "J_hom": groebner.homogenise_naive(J, "t"),
        "S_I": groebner.homogenise_ideal(I, "t"),
        "S_J": groebner.homogenise_ideal(J, "t"),
    }


def main() -> int:
    ideals = six_ideals()
    for _ in range(2):
        for name, ideal in ideals.items():
            buf = io.StringIO()
            ioformats.write_ideal(buf, ideal)
            back, _ = ioformats.read_ideal(io.StringIO(buf.getvalue()))
            from_json, _ = ioformats.ideal_from_json(ioformats.ideal_to_json(ideal))
            if back != ideal or from_json != ideal:
                print(f"{name} does not read back equal", file=sys.stderr)
                return 1
    terms = sum(len(g.terms) for ideal in ideals.values() for g in ideal.generators)
    print(f"Python {platform.python_version()}: six ideals, {terms} terms, read back equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
