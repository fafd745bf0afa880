"""The basis checks of ``benchmarks/bench_gb.py``, and the pair pruning of the
pure engine on one of its systems.

Systems and expected values come from the script's own ``WORKLOADS`` and
``EXPECTED``, and bases from its own ``bench``, so an engine change that
breaks the script fails here.  katsura-6 (about 1.5 s) and sl5-minimal (tens
of seconds) are left to the script.
"""

import importlib.util
from pathlib import Path

import pytest

from orbitcompat import GBLimits, VarContext, parse_poly
from orbitcompat._kernel import pure

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_gb.py"
_spec = importlib.util.spec_from_file_location("bench_gb", _SCRIPT)
bench_gb = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gb)


@pytest.mark.parametrize("name", ["katsura-5", "cyclic-5", "sl4-minimal"])
def test_bench_basis_checks_pass(name):
    make, _ = bench_gb.WORKLOADS[name]
    raw = make()
    _, _, basis = bench_gb.bench(raw, 1)
    measure, want = bench_gb.EXPECTED[name]
    assert measure(basis, raw[1]) == want


def test_cyclic5_finishes_within_102_pairs():
    # Gebauer-Moeller pruning leaves 102 pairs to process; without the chain
    # test on old pairs 123 are left, without it on new pairs 226
    raw = bench_gb.WORKLOADS["cyclic-5"][0]()
    max_degree = GBLimits().max_degree
    basis = pure.buchberger(*raw, 102, max_degree)
    measure, want = bench_gb.EXPECTED["cyclic-5"]
    assert measure(basis, raw[1]) == want


def test_raw_terms_refuses_a_fractional_coefficient():
    # int() would truncate 1/2 to 0 and time a different system
    ctx = VarContext(["x", "y"])
    assert bench_gb.raw_terms([parse_poly("2*x - y", ctx)]) == [[((1, 0), 2), ((0, 1), -1)]]
    with pytest.raises(ValueError):
        bench_gb.raw_terms([parse_poly("1/2*x - y", ctx)])
