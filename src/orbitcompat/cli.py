"""Command-line front end.

One subcommand per activity -- orbit, fibre, homogenise, gb, euler, diamond,
critical -- composable through ideal files, text or JSON, so a whole
compactification pipeline is a short shell script.  Output is pretty text by
default or JSON with --format json.  Exit codes: 0 success, 1 domain error,
2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from fractions import Fraction

from .chern import CompleteIntersectionSpec, chern_series, degree_product, expected_euler
from .diamonds import (
    FIXTURES,
    diamond_pn_pn_dual,
    diamond_to_json,
    fixture,
    lefschetz_restrict,
    render_diamond,
)
from .errors import ResourceLimitExceeded
from .groebner import (
    GBLimits,
    IdealPresentation,
    buchberger,
    homogenise_ideal,
    homogenise_naive,
)
from .hilbert import hilbert
from .ioformats import (
    gb_to_json,
    hilbert_to_json,
    ideal_from_json,
    ideal_to_json,
    parse_rational_list,
    read_ideal,
    write_ideal,
)
from .orbits import (
    DiagSpec,
    cut_by_potential,
    orbit_ideal_charvalues,
    orbit_ideal_minpoly,
    potential,
    weyl_critical,
)
from .parsing import WHITESPACE, ParseError, format_rational
from .polyring import PolyError, order_from_name


class CliError(Exception):
    """Domain-level failure: report and exit 1."""


def _limits() -> GBLimits:
    cap = os.environ.get("ORBITCOMPAT_MAX_PAIRS")
    if cap:
        try:
            pairs = int(cap)
        except ValueError:
            raise CliError(f"ORBITCOMPAT_MAX_PAIRS={cap!r} is not an integer")
        if pairs < 1:
            raise CliError(f"ORBITCOMPAT_MAX_PAIRS={cap!r} must be at least 1")
        return GBLimits(max_pairs=pairs)
    return GBLimits()


def _emit_ideal(args, ideal: IdealPresentation, meta: dict | None) -> None:
    """Write the ideal to ``--output``, or to standard output, whose errors
    ``main`` reports."""
    try:
        with open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout) as out:
            if args.format == "json":
                out.write(ideal_to_json(ideal, meta) + "\n")
            else:
                write_ideal(out, ideal, meta)
    except OSError as e:
        if not args.output:
            raise
        raise CliError(f"cannot write {args.output}: {e}")


def _load_ideal(path: str):
    """Read an ideal file in either format: JSON if it starts with '{'."""
    try:
        with open(path) as fh:
            text = fh.read()
            if text.lstrip(WHITESPACE).startswith("{"):
                return ideal_from_json(text)
            fh.seek(0)
            return read_ideal(fh)
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}")


def _diag(text: str) -> DiagSpec:
    return DiagSpec(parse_rational_list(text))


def cmd_orbit(args) -> int:
    spec = _diag(args.h0)
    if spec.n != args.n:
        raise CliError(f"--h0 lists {spec.size} eigenvalues but --n is {args.n}")
    if args.style == "minpoly":
        if args.shifts:
            raise CliError("--shifts only applies to --style charvalues")
        orb = orbit_ideal_minpoly(spec)
    else:
        if not args.shifts:
            raise CliError("--style charvalues needs --shifts")
        orb = orbit_ideal_charvalues(spec, parse_rational_list(args.shifts))
    meta = {
        "style": orb.style,
        "spec": [format_rational(v) for v in spec.eigenvalues],
    }
    _emit_ideal(args, orb.presentation, meta)
    return 0


def _infer_n(nvars: int) -> int:
    # the generic sl(n+1) context has n^2 + 2n coordinates
    n = math.isqrt(nvars + 1) - 1
    if n < 1 or n * n + 2 * n != nvars:
        raise CliError(f"{nvars} variables do not form a generic matrix context")
    return n


def cmd_fibre(args) -> int:
    ideal, meta = _load_ideal(args.orbit)
    n = _infer_n(len(ideal.ctx))
    h = _diag(args.h)
    pot = potential(h, n)
    if pot.poly.ctx != ideal.ctx:
        raise CliError("orbit file context does not match the generic matrix layout")
    if not pot.regular:
        print("warning: H has repeated eigenvalues; the potential is not Lefschetz", file=sys.stderr)
    try:
        c = Fraction(args.value)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"--value {args.value!r} is not a rational number")
    fib = cut_by_potential(ideal, pot, c)
    meta = dict(meta)
    meta.update({"h": [format_rational(v) for v in h.eigenvalues], "value": format_rational(c)})
    _emit_ideal(args, fib, meta)
    return 0


def cmd_homogenise(args) -> int:
    ideal, meta = _load_ideal(args.ideal)
    if args.mode == "naive":
        out = homogenise_naive(ideal, args.tvar)
    else:
        out = homogenise_ideal(ideal, args.tvar, _limits())
    meta = dict(meta)
    meta["homogenisation"] = args.mode
    _emit_ideal(args, out, meta)
    return 0


def cmd_gb(args) -> int:
    ideal, _ = _load_ideal(args.ideal)
    order = order_from_name(args.order)
    G = buchberger(ideal, order, _limits())
    hd = None
    if args.hilbert:
        hd = hilbert(G)
    if args.format == "json":
        doc = json.loads(gb_to_json(G))
        if hd is not None:
            doc["hilbert"] = json.loads(hilbert_to_json(hd))
        print(json.dumps(doc))
        return 0
    print("vars: " + ",".join(G.ctx.names))
    print(f"order: {G.order}")
    print("basis:")
    for g in G.basis:
        print(f"  {g}")
    if hd is not None:
        print("hilbert:")
        print(f"  numerator: {list(hd.numerator)}")
        print(f"  krull_dim: {hd.krull_dim}")
        print(f"  proj_dim: {hd.proj_dim}")
        print(f"  degree: {hd.degree}")
    return 0


def cmd_euler(args) -> int:
    try:
        degrees = parse_rational_list(args.degrees)
        spec = CompleteIntersectionSpec(args.ambient, degrees)
    except ValueError as e:
        raise CliError(str(e))
    series = chern_series(spec)
    chi = expected_euler(spec)
    d = degree_product(spec)
    if args.format == "json":
        print(json.dumps({"series": [int(c) for c in series.coeffs], "chi": chi, "d": d}))
        return 0
    print(f"complete intersection of degrees ({args.degrees or ''}) in P^{spec.ambient_dim}, dimension {spec.dim}")
    print(f"chern series: {series}")
    print(f"degree product: {d}")
    print(f"expected euler characteristic: {chi}")
    return 0


def _named_diamond(name: str):
    if name.startswith("pnpn"):
        try:
            return diamond_pn_pn_dual(int(name[4:]))
        except ValueError:
            raise CliError(f"bad diamond name {name!r}")
    try:
        return fixture(name)
    except KeyError as e:
        raise CliError(str(e.args[0]))


def cmd_diamond(args) -> int:
    picked = [x for x in (args.name, args.pnpn, args.lefschetz_from) if x is not None]
    if len(picked) != 1:
        raise CliError("pick exactly one of --name, --pnpn, --lefschetz-from")
    if args.pnpn is not None:
        d = diamond_pn_pn_dual(args.pnpn)
    elif args.name is not None:
        d = _named_diamond(args.name)
    else:
        d = lefschetz_restrict(_named_diamond(args.lefschetz_from))
    if args.format == "json":
        print(diamond_to_json(d))
    else:
        print(render_diamond(d))
    return 0


def cmd_critical(args) -> int:
    h = _diag(args.h)
    h0 = _diag(args.h0)
    if h.n != args.n or h0.n != args.n:
        raise CliError("--h/--h0 sizes must be n+1")
    crit = weyl_critical(h, h0)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "points": [[format_rational(v) for v in pt] for pt in crit.points],
                    "values": [format_rational(v) for v in crit.values],
                }
            )
        )
        return 0
    print(f"critical points ({len(crit.points)}):")
    for pt in crit.points:
        print("  diag(" + ", ".join(format_rational(v) for v in pt) + ")")
    print("critical values: " + ", ".join(format_rational(v) for v in crit.values))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="orbitcompat",
        description="Exact computations for compactified adjoint orbits and their fibres.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, output=False):
        p.add_argument("--format", choices=["pretty", "json"], default="pretty")
        if output:
            p.add_argument("-o", "--output", help="write the ideal here instead of stdout")

    p = sub.add_parser("orbit", help="build an adjoint-orbit ideal")
    p.add_argument("--n", type=int, required=True, help="sl(n+1)")
    p.add_argument("--h0", required=True, help="comma-separated eigenvalues of H0")
    p.add_argument("--style", choices=["minpoly", "charvalues"], default="minpoly")
    p.add_argument("--shifts", help="comma-separated shifts for charvalues")
    common(p, output=True)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("fibre", help="cut an orbit with the potential tr(H*A) - c")
    p.add_argument("--orbit", required=True, help="orbit ideal file")
    p.add_argument("--h", required=True, help="comma-separated eigenvalues of H")
    p.add_argument("--value", required=True, help="the fibre value c (rational)")
    common(p, output=True)
    p.set_defaults(func=cmd_fibre)

    p = sub.add_parser("homogenise", help="homogenise an ideal file")
    p.add_argument("--ideal", required=True)
    p.add_argument("--mode", choices=["naive", "saturated"], required=True)
    p.add_argument("--tvar", default="t")
    common(p, output=True)
    p.set_defaults(func=cmd_homogenise)

    p = sub.add_parser("gb", help="reduced Groebner basis of an ideal file")
    p.add_argument("--ideal", required=True)
    p.add_argument("--order", default="grevlex", help="grevlex | lex | elim:k")
    p.add_argument("--hilbert", action="store_true", help="also report Hilbert data")
    common(p)
    p.set_defaults(func=cmd_gb)

    p = sub.add_parser("euler", help="expected Euler characteristic of a complete intersection")
    p.add_argument("--ambient", type=int, required=True, help="N of the ambient P^N")
    p.add_argument("--degrees", default="", help="comma-separated hypersurface degrees")
    common(p)
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("diamond", help="named Hodge diamonds and operations on them")
    p.add_argument("--name", help="fixture name, or pnpnN")
    p.add_argument("--pnpn", type=int, help="diamond of P^n x dual(P^n)")
    p.add_argument("--lefschetz-from", dest="lefschetz_from", help="restrict a named diamond")
    common(p)
    p.set_defaults(func=cmd_diamond)

    p = sub.add_parser("critical", help="Weyl critical points and values of the potential")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--h0", required=True)
    common(p)
    p.set_defaults(func=cmd_critical)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.func(args)
        # a closed pipe shows at the latest here, not in the flush at exit
        sys.stdout.flush()
        return code
    except OSError as e:
        # only standard output gets here, as the commands report their own
        # files' errors: closed early, as by `| head`, or full.  As the
        # Python docs' note on SIGPIPE advises, point it at devnull, so that
        # the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write standard output: {e}", file=sys.stderr)
        return 1
    except (CliError, PolyError, ParseError, ResourceLimitExceeded, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
