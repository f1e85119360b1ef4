"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` wraps each function in ``TRACED`` wherever an
``arrcomp`` module namespace holds it, so calls made through those names
(by the CLI and by the library itself) open a span; ``uninstall`` puts the
originals back.  A function that a later version of the library removes
is skipped and its layer reads zero.  Spans are kept in memory: name,
start, end, parent, and the kernel time of the calibration clock that fell
inside them, which is excluded from their duration.

A span's self time is its duration minus its children's.  Library code
that is not traced (``solve_affine``, ``is_modular``, ``make_arrangement``
and so on) counts toward the traced span that called it.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) -> layer name.  ``cli.run`` is opened by the
# benchmark itself around each command, so its self time is the CLI's own
# work: argument parsing, file reading, rendering, the envelope.
TRACED = {
    ("fileformat", "parse_arrangement"): "fileformat.parse",
    ("fileformat", "load_arrangement_file"): "fileformat.parse",
    ("fileformat", "serialize_arrangement"): "fileformat.serialize",
    ("arrangement", "intersection_poset"): "arrangement.poset",
    ("arrangement", "braid_arrangement"): "library.other",
    ("linalg", "rref"): "linalg.rref",
    ("linalg", "smith_normal_form"): "linalg.snf",
    ("lattice", "mobius"): "lattice.mobius",
    ("lattice", "fiber_type"): "lattice.fiber_type",
    ("lattice", "char_poly"): "library.other",
    ("lattice", "betti_numbers"): "library.other",
    ("topology", "order_complex_below"): "topology.order_complex",
    ("topology", "reduced_homology"): "topology.homology",
    ("topology", "gm_wedge"): "topology.gm_wedge",
    ("topology", "suspension_wedge"): "library.other",
    ("surgery", "surgery_fiber_type"): "surgery.tables",
    ("surgery", "surgery_pure_braid"): "surgery.tables",
    ("surgery", "spf_pure_braid"): "surgery.spf",
}
LAYERS = sorted(set(TRACED.values()) | {"cli.run"})


def _count(layer: str, args, result) -> tuple:
    """(counter name, amount) recorded when a span of ``layer`` closes."""
    if layer == "arrangement.poset":
        return "arrangement.flats", len(result)
    if layer == "linalg.rref":
        return "linalg.rref_calls", 1
    if layer == "linalg.snf":
        return "linalg.snf_entries", args[0].rows * args[0].cols
    if layer == "topology.order_complex":
        return "topology.faces", len(result.simplices)
    return None, 0


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        # [layer, start, end, parent index, kernel time inside]
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.missing: list[str] = []

    def open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent, self.clock.kernel_total])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = self.clock.kernel_total - span[4]
        self._stack.pop()

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            name, amount = _count(layer, args, result)
            if name:
                self.counts[name] = self.counts.get(name, 0) + amount
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.startswith("arrcomp")]
        for (module, function), layer in TRACED.items():
            original = getattr(sys.modules.get(f"arrcomp.{module}"), function, None)
            if original is None:
                self.missing.append(f"{module}.{function}")
                continue
            wrapper = self.wrap(layer, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def self_times(self) -> dict:
        """Raw self seconds per layer; inclusive seconds of the poset build
        under the key ``arrangement.poset_inclusive``."""
        durations = [end - start - kernel for _, start, end, _, kernel in self.spans]
        own = list(durations)
        for span, duration in zip(self.spans, durations):
            if span[3] >= 0:
                own[span[3]] -= duration
        totals = {layer: 0.0 for layer in LAYERS}
        totals["arrangement.poset_inclusive"] = 0.0
        for span, duration, self_time in zip(self.spans, durations, own):
            totals[span[0]] += self_time
            if span[0] == "arrangement.poset":
                totals["arrangement.poset_inclusive"] += duration
        return totals

    def dump(self) -> dict:
        return {
            "fields": ["layer", "start", "end", "parent", "kernel_s"],
            "spans": self.spans,
            "counts": self.counts,
            "missing": self.missing,
        }
