"""Spans around kappalat's layer entry points, installed at run time.

The benchmark wraps the names each consuming module calls (``cli`` calls
``io.parse_lattice``, ``io`` calls ``build_lattice``, ``lattice`` calls
``_backend.first_missing_meet`` and so on), so no source file changes.
Only coarse entry points are wrapped, never per-element helpers such as
``jlabel``.  A layer is named by its module; the four ``_backend``
kernels form the ``kernel`` layer.  The size counters use the names the
library's own stage recorder is meant to adopt.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name)
ENTRY_POINTS = (
    ("kappalat.io", "parse_lattice", "io.parse"),
    ("kappalat.io", "build_lattice", "lattice.build"),
    ("kappalat._backend", "first_missing_meet", "kernel.first_missing_meet"),
    ("kappalat.labeling", "semidistributive_witness", "labeling.sd_witness"),
    ("kappalat._backend", "sd_witness", "kernel.sd_witness"),
    ("kappalat.labeling", "full_labeling", "labeling.full_labeling"),
    ("kappalat.intervals", "derived_poset", "intervals.derived_poset"),
    ("kappalat._backend", "interval_images", "kernel.interval_images"),
    ("kappalat._backend", "transitive_reduction", "kernel.transitive_reduction"),
    ("kappalat.orders", "order_poset", "orders.order_poset"),
    ("kappalat.orders", "first_order_mismatch", "orders.first_order_mismatch"),
    ("kappalat.orders", "sufficiency_failures", "orders.sufficiency_failures"),
    ("kappalat.io", "emit_dot", "io.emit"),
    ("kappalat.io", "family_document", "io.emit"),
    ("kappalat.io", "emit_family_dot", "io.emit"),
    ("kappalat.io", "relation_document", "io.emit"),
    ("kappalat.io", "emit_relation_dot", "io.emit"),
)
ROOT = "cli.command"  # span the harness opens around each cli_main call
LAYERS = (ROOT, *dict.fromkeys(name for _, _, name in ENTRY_POINTS))
COUNTERS = (
    "lattice.n",
    "lattice.covers",
    "labeling.jirr",
    "intervals.swept",
    "intervals.label_sets",
    "intervals.hasse_edges",
    "orders.hasse_edges",
)


def _count(name: str, args: tuple, result, counts: Counter) -> None:
    """Size counters read off a layer's arguments and result."""
    if name == "lattice.build":
        counts["lattice.n"] += result.n
        counts["lattice.covers"] += len(result.covers)
    elif name == "labeling.full_labeling":
        counts["labeling.jirr"] += result.jirr.bit_count()
    elif name == "intervals.derived_poset":
        counts["intervals.swept"] += args[0].interval_count()
        counts["intervals.label_sets"] += len(result.members)
        counts["intervals.hasse_edges"] += len(result.hasse)
    elif name == "orders.order_poset":
        counts["orders.hasse_edges"] += len(result.hasse)


class Trace:
    """Self time per (request, layer) and size counters of one pass.

    A span's self time is its elapsed time minus that of the spans it
    encloses; it is added to ``self_times`` as each span ends.
    """

    def __init__(self) -> None:
        self.self_times: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.request = ""
        self._child: list[float] = [0.0]  # time of the ended children of each open span

    def span(self, name: str, fn, *args, **kwargs):
        self._child.append(0.0)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            child = self._child.pop()
            self._child[-1] += elapsed
            self.self_times[self.request, name] += elapsed - child
        _count(name, args, result, self.counts)
        return result

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        saved = []
        try:
            for module, attr, name in ENTRY_POINTS:
                mod = sys.modules[module]
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, functools.partial(self.span, name, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)
