"""Bit-identical kernel outputs on one seed-11 round of each ``perfbench``
workload.

Each workload's round is built by ``perfbench/workloads.py`` against the
library imported here, and every op runs with its oracle check, as the
benchmark runs them.  The three kernel entry points that ``groebner``
calls are wrapped, and for each the test pins how often it ran and the
sha256 of the concatenated ``repr`` of its results, in call order (the
first 12 hex digits).  A change that alters what the kernel is given or
returns, by a single bit, fails here; one that changes the inputs on
purpose updates the pins and says why.
"""

import hashlib
import importlib
from pathlib import Path
from types import SimpleNamespace

import pytest

from orbitcompat import _kernel, polyring

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 11
ENTRY_POINTS = ("buchberger_raw", "interreduce_raw", "normal_form_raw")

# per workload and entry point: (calls, digest), or None for no calls.
# homogenise_ideal runs its pair loop on the naive closure that
# homogenise_naive keeps, so sl3-sweep's saturated closures reuse the naive
# ones' bases (two runs per fibre), and each sl4-closures saturated op runs
# the loop on its fibre's naive closure, not on the fibre
PINS = {
    "sl3-sweep": {
        "buchberger_raw": (256, "36a2d93c63c7"),
        "interreduce_raw": (384, "2be48f4e8b4a"),
        "normal_form_raw": (768, "775adfa74338"),
    },
    "sl4-closures": {
        "buchberger_raw": (6, "f1a5fffc215f"),
        "interreduce_raw": None,
        "normal_form_raw": None,
    },
    # the interreduced basis is bench_gb's sl4-minimal one, digest and all
    "membership": {
        "buchberger_raw": (1, "064c0a71988a"),
        "interreduce_raw": (1, "fcd2d95beaca"),
        "normal_form_raw": (256, "db70a6cfbf28"),
    },
}


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as m:
        m.syspath_prepend(str(PERFBENCH))
        return importlib.import_module("workloads")


# the modules as perfbench/run.py hands them to a workload; the package
# itself exports functions under some of these names
LIB = SimpleNamespace(
    **{
        name: importlib.import_module(f"orbitcompat.{name}")
        for name in ("orbits", "groebner", "_kernel", "hilbert", "chern", "ioformats", "polyring")
    },
    MultiPoly=polyring.MultiPoly,
)


@pytest.mark.parametrize("name", sorted(PINS))
def test_kernel_outputs_are_pinned(name, workloads, monkeypatch):
    results = {entry: [] for entry in ENTRY_POINTS}

    def recorded(entry):
        run = getattr(_kernel, entry)

        def wrapper(*args):
            out = run(*args)
            results[entry].append(repr(out))
            return out

        return wrapper

    for entry in ENTRY_POINTS:
        monkeypatch.setattr(_kernel, entry, recorded(entry))
    ops, check_setup = workloads.WORKLOADS[name](LIB, SEED)
    problems = check_setup()
    for op in ops:
        problems += op.check(op.run())
    assert problems == []
    got = {
        entry: (len(reprs), hashlib.sha256("".join(reprs).encode()).hexdigest()[:12])
        if reprs
        else None
        for entry, reprs in results.items()
    }
    assert got == PINS[name]
