"""Spans around the library's public entry points, recorded from outside.

``Tracer.install`` replaces each entry point listed in ``ENTRY_POINTS`` with
a wrapper at the module attribute its callers look up (``groebner`` calls
``_kernel.buchberger_raw``, ``ideal_contains`` calls the module-level
``buchberger`` and ``normal_form``, ``fibre_ideal`` calls ``potential``), so
nested calls are traced too.  ``uninstall`` puts the originals back.

A span is ``[name, start_ns, end_ns, parent, op, attr]``.  Spans live in
memory; ``Tracer.spans`` is written out when the run ends.  Kernel calls
also keep references to their inputs and outputs, which ``drain_counts``
turns into exact term and coefficient counts between rounds, outside any
timed region.
"""

from __future__ import annotations

import time
from collections import defaultdict

ENTRY_POINTS = {
    "orbits": ["orbit_ideal_charvalues", "orbit_ideal_minpoly", "potential", "fibre_ideal"],
    "groebner": [
        "buchberger",
        "normal_form",
        "homogenise_naive",
        "homogenise_ideal",
        "ideal_equal",
        "ideal_contains",
    ],
    "_kernel": ["buchberger_raw", "normal_form_raw"],
    "hilbert": ["hilbert"],
    "chern": ["expected_euler"],
    "ioformats": ["write_ideal", "read_ideal"],
}

OP = "bench.op"


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.saved: list[tuple] = []
        self.kernel_io: list[tuple] = []
        self.counts = {
            "kernel.input_terms": 0,
            "kernel.basis_elems": 0,
            "kernel.output_terms": 0,
            "kernel.max_coeff_bits": 0,
            "hilbert.lead_monomials": 0,
            "ioformats.bytes": 0,
        }

    def install(self) -> None:
        for mod_name, attrs in ENTRY_POINTS.items():
            mod = self.modules[mod_name]
            for attr in attrs:
                fn = getattr(mod, attr)
                self.saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(f"{mod_name}.{attr}", fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self.saved):
            setattr(mod, attr, fn)
        self.saved.clear()

    def begin(self, name: str, attr=None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, attr])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            # buchberger_raw(gens, nvars, kind, block, ...): the order kind
            attr = args[2] if name == "_kernel.buchberger_raw" else None
            idx = tracer.begin(name, attr)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if name.startswith("_kernel."):
                tracer.kernel_io.append((name, args, result))
            elif name == "hilbert.hilbert":
                tracer.counts["hilbert.lead_monomials"] += len(args[0].basis)
            elif name == "ioformats.write_ideal":
                tracer.counts["ioformats.bytes"] += args[0].tell()
            return result

        traced.__wrapped__ = fn
        return traced

    def drain_counts(self) -> None:
        """Fold the kept kernel inputs and outputs into the counters."""
        c = self.counts
        for name, args, result in self.kernel_io:
            if name == "_kernel.buchberger_raw":
                inputs, outputs, multiplier = args[0], result, 1
                c["kernel.basis_elems"] += len(result)
            else:
                inputs, outputs, multiplier = [args[0], *args[1]], [result[0]], result[1]
            c["kernel.input_terms"] += sum(len(g) for g in inputs)
            bits = abs(multiplier).bit_length()
            for terms in outputs:
                c["kernel.output_terms"] += len(terms)
                for _, coeff in terms:
                    bits = max(bits, abs(coeff).bit_length())
            c["kernel.max_coeff_bits"] = max(c["kernel.max_coeff_bits"], bits)
        self.kernel_io.clear()

    def self_times(self) -> dict:
        """Per span name and attribute: (calls, self time in ns)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = defaultdict(lambda: [0, 0])
        for i, (name, start, end, _, _, attr) in enumerate(self.spans):
            entry = out[(name, attr)]
            entry[0] += 1
            entry[1] += end - start - child_ns[i]
        return dict(out)


KIND_NAMES = {0: "lex", 1: "grevlex", 2: "elim"}


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """The per-layer metrics, per operation, from a finished traced pass."""
    calls: dict = defaultdict(int)
    self_ms: dict = defaultdict(float)
    for (name, attr), (n, ns) in tracer.self_times().items():
        if name == "_kernel.buchberger_raw":
            self_ms[f"kernel.buchberger_raw.{KIND_NAMES[attr]}_ms"] += ns / 1e6
        key = name.removeprefix("_")
        calls[key] += n
        self_ms[key] += ns / 1e6
        layer = name.split(".")[0].removeprefix("_")
        calls[layer] += n
        self_ms[layer] += ns / 1e6

    def per_op(x):
        return x / ops

    c = tracer.counts
    return {
        "kernel.buchberger_raw.elim_ms": (per_op(self_ms["kernel.buchberger_raw.elim_ms"]), "ms/op"),
        "kernel.buchberger_raw.grevlex_ms": (per_op(self_ms["kernel.buchberger_raw.grevlex_ms"]), "ms/op"),
        "kernel.buchberger_raw.calls": (per_op(calls["kernel.buchberger_raw"]), "count/op"),
        "kernel.input_terms": (per_op(c["kernel.input_terms"]), "count/op"),
        "kernel.basis_elems": (per_op(c["kernel.basis_elems"]), "count/op"),
        "kernel.output_terms": (per_op(c["kernel.output_terms"]), "count/op"),
        "kernel.max_coeff_bits": (c["kernel.max_coeff_bits"], "bits"),
        "kernel.normal_form_raw.ms": (per_op(self_ms["kernel.normal_form_raw"]), "ms/op"),
        "kernel.normal_form_raw.calls": (per_op(calls["kernel.normal_form_raw"]), "count/op"),
        "groebner.convert_ms": (
            per_op(self_ms["groebner.buchberger"] + self_ms["groebner.normal_form"]),
            "ms/op",
        ),
        "groebner.homogenise_ideal.ms": (per_op(self_ms["groebner.homogenise_ideal"]), "ms/op"),
        "groebner.homogenise_naive.ms": (per_op(self_ms["groebner.homogenise_naive"]), "ms/op"),
        "groebner.ideal_equal.ms": (per_op(self_ms["groebner.ideal_equal"]), "ms/op"),
        "groebner.ideal_contains.ms": (per_op(self_ms["groebner.ideal_contains"]), "ms/op"),
        "groebner.buchberger.calls": (per_op(calls["groebner.buchberger"]), "count/op"),
        "orbits.ms": (per_op(self_ms["orbits"]), "ms/op"),
        "orbits.calls": (per_op(calls["orbits"]), "count/op"),
        "hilbert.ms": (per_op(self_ms["hilbert"]), "ms/op"),
        "hilbert.calls": (per_op(calls["hilbert"]), "count/op"),
        "hilbert.lead_monomials": (per_op(c["hilbert.lead_monomials"]), "count/op"),
        "chern.ms": (per_op(self_ms["chern"]), "ms/op"),
        "ioformats.ms": (per_op(self_ms["ioformats"]), "ms/op"),
        "ioformats.bytes": (per_op(c["ioformats.bytes"]), "bytes/op"),
    }


def layer_table(tracer: Tracer, ops: int) -> list[dict]:
    """Self time and calls of every span name, for the trace file."""
    rows = []
    for (name, attr), (n, ns) in sorted(tracer.self_times().items(), key=lambda kv: -kv[1][1]):
        label = f"{name}[{KIND_NAMES[attr]}]" if name == "_kernel.buchberger_raw" else name
        rows.append({"span": label, "calls": n, "self_ms": ns / 1e6, "self_ms_per_op": ns / 1e6 / ops})
    return rows
