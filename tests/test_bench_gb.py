"""The basis checks of ``benchmarks/bench_gb.py``, and the pair pruning and
pair selection of the pure engine on its systems.

Systems, expected values and basis digests come from the script's own
``WORKLOADS``, ``EXPECTED`` and ``DIGESTS``, and bases from its own
``bench``, so an engine change that breaks the script, or changes a reduced
basis by a single bit, fails here; so does one that changes a normal form
of the script's normal-form row, ``bench_normal_forms``.  The checks read
the minimal basis and the digests the reduced one, as the script's do.
katsura-6 (about 0.15 s), sl5-minimal (tens of seconds), sl5-fibre and
sl5-naive (about a minute each) and sl5-saturated (half a minute) are left
to the script, whose ``--skip-slow`` leaves out only the last four; the
minimal bases of sl5-naive and sl5-saturated, which take about a second,
are checked here.
"""

import heapq
import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from orbitcompat import GBLimits, VarContext, parse_poly
from orbitcompat._kernel import pure

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_gb.py"
_spec = importlib.util.spec_from_file_location("bench_gb", _SCRIPT)
bench_gb = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gb)


@pytest.mark.parametrize("name", ["katsura-5", "cyclic-5", "sl4-minimal", "sl4-naive"])
def test_bench_basis_checks_pass(name):
    make, _ = bench_gb.WORKLOADS[name]
    raw = make()
    _, _, minimal, reduced = bench_gb.bench(raw, 1)
    measure, want = bench_gb.EXPECTED[name]
    assert measure(minimal, raw[1]) == want
    assert bench_gb.digest(reduced) == bench_gb.DIGESTS[name]


def test_the_normal_form_row_pins_its_remainders():
    # the script's only run of pure.normal_form: seeded products reduced
    # against the reduced sl4-minimal basis, none of them to zero
    _, reduced, results = bench_gb.bench_normal_forms(1)
    assert bench_gb.digest(reduced) == bench_gb.DIGESTS["sl4-minimal"]
    assert len(results) == bench_gb.NF_QUERIES and all(tail for tail, _ in results)
    assert bench_gb.digest(results) == bench_gb.DIGESTS[bench_gb.NF_ROW]


def finishes_within(name, max_pairs):
    raw = bench_gb.WORKLOADS[name][0]()
    basis = pure.buchberger(*raw, max_pairs, GBLimits().max_degree)
    measure, want = bench_gb.EXPECTED[name]
    assert measure(basis, raw[1]) == want


def test_cyclic5_finishes_within_102_pairs():
    # five generators in five variables run the signature loop, which
    # reduces 54 pairs; the Gebauer-Moeller loop took 102 here, 123 without
    # its chain test on old pairs and 226 without it on new pairs
    finishes_within("cyclic-5", 102)


def test_the_naive_sl5_closure_finishes_within_47_pairs():
    # five generators in 25 variables run the signature loop, which reduces
    # 47 pairs and none of them to zero; the check is the closure's whole
    # Hilbert data, ``NAIVE_SL5``
    finishes_within("sl5-naive", 47)


def test_the_saturated_sl5_route_gives_kostant_data():
    # the naive closure's pair loop, then the division by powers of t; the
    # check is Kostant's Hilbert data of the saturated closure
    make, slow = bench_gb.WORKLOADS["sl5-saturated"]
    raw = make()
    limits = GBLimits()
    minimal = bench_gb.ROUTES["sl5-saturated"](*raw, limits.max_pairs, limits.max_degree)
    measure, want = bench_gb.EXPECTED["sl5-saturated"]
    assert slow and measure(minimal, raw[1]) == want


@pytest.mark.parametrize(
    "fibre", [bench_gb.SL3_FIBRE, bench_gb.FIBRES_SL4[0][:4]], ids=["sl3", "sl4"]
)
def test_the_saturated_route_dehomogenises_to_the_affine_reduced_basis(fibre):
    # why sl5-saturated must give sl5-fibre's digest, on fibres small
    # enough to tail-reduce here
    limits = GBLimits()
    caps = (limits.max_pairs, limits.max_degree)
    minimal = bench_gb.saturated_route(*bench_gb.fibre_raw(*fibre, naive=True), *caps)
    saturated = pure.interreduce(minimal)
    affine = pure.interreduce(pure.buchberger(*bench_gb.fibre_raw(*fibre), *caps))
    assert bench_gb.digest(bench_gb.dehomogenised(saturated)) == bench_gb.digest(affine)


def test_sl4_minimal_finishes_within_597_pairs():
    # 16 generators in 15 variables run the Gebauer-Moeller loop, whose
    # pruning leaves 597 pairs to process; without the chain test on old
    # pairs 936 are left, without it on new pairs 1020
    finishes_within("sl4-minimal", 597)


# Pair selection of the Gebauer-Moeller loop: every pop must take the
# smallest pair record.  Bases and pair counts cannot see a wrong selection:
# a loop that pops from a list that is no heap still ends with the reduced
# basis, and on sl4-minimal within its 597 pairs.  So these tests read the
# heap at each pop.


@pytest.fixture
def checked_pops(monkeypatch):
    """Runs ``pure.buchberger`` on ``(gens, nvars, kind, block)`` with every
    ``heappop`` of the GM loop checked; returns the number of pops it made
    and the reduced basis."""

    def run(raw_args):
        pops = []

        def heappop(heap):
            assert heap[0] == min(heap), f"pop {len(pops)} is not the smallest record"
            pops.append(heap[0])
            return heapq.heappop(heap)

        def signature_loop(*args):
            raise AssertionError("the signature loop ran, not the GM loop")

        monkeypatch.setattr(pure, "heappop", heappop)
        monkeypatch.setattr(pure, "_signature_loop", signature_loop)
        limits = GBLimits()
        minimal = pure.buchberger(*raw_args, limits.max_pairs, limits.max_degree)
        return len(pops), pure.interreduce(minimal)

    return run


def test_sl4_minimal_pops_the_smallest_pair(checked_pops):
    pops, basis = checked_pops(bench_gb.WORKLOADS["sl4-minimal"][0]())
    assert pops == 597
    assert bench_gb.digest(basis) == bench_gb.DIGESTS["sl4-minimal"]


def random_quadrics(seed, count, nvars):
    """``count`` dense random quadrics, with constant and linear terms, in
    ``nvars`` variables.  With more generators than variables GM runs, and
    the basis is 1: the quadrics have no common zero."""
    rng = random.Random(seed)
    monomials = [
        tuple(int(k == i) + int(k == j) for k in range(nvars))
        for i in range(-1, nvars)
        for j in range(i, nvars)
    ]
    return [[(m, rng.randint(-5, 5)) for m in monomials] for _ in range(count)]


def test_seeded_quadrics_pop_the_smallest_pair(checked_pops):
    # grevlex, six quadrics in four variables
    pops, basis = checked_pops((random_quadrics(11, 6, 4), 4, 1, 0))
    assert pops > 0 and basis == [[((0, 0, 0, 0), 1)]]


def test_a_run_widened_to_32_bits_fails_the_script(monkeypatch, capsys):
    # every run is capped far below degree 2^15, so none may end at 32 bits
    widening = pure._widening

    def wide(run, L, *args):
        return widening(run, pure._layout(L[4], 32, L[5], L[6]), *args)

    monkeypatch.setattr(pure, "_widening", wide)
    monkeypatch.setattr(bench_gb, "WORKLOADS", {"orbit-fibre": bench_gb.WORKLOADS["orbit-fibre"]})
    assert bench_gb.main(["--repeat", "1"]) == 1
    assert "orbit-fibre: ran at 32 bits" in capsys.readouterr().err


def test_raw_terms_refuses_a_fractional_coefficient():
    # int() would truncate 1/2 to 0 and time a different system
    ctx = VarContext(["x", "y"])
    assert bench_gb.raw_terms([parse_poly("2*x - y", ctx)]) == [[((1, 0), 2), ((0, 1), -1)]]
    with pytest.raises(ValueError):
        bench_gb.raw_terms([parse_poly("1/2*x - y", ctx)])


def test_the_script_runs_from_a_checkout(tmp_path):
    # with -S and no PYTHONPATH no installed copy of the package is on the
    # path, so the script must find the tree's src/ itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-S", str(_SCRIPT), "--help"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
