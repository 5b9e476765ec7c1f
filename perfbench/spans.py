"""Spans around the benchmark's own calls into the pglab layers.

A span is (layer, start, end, item, error).  Item -1 is the set-up phase.
Spans stay in memory; the worker summarises them and writes them out when
its pass ends.  With tracing off, `call` is a plain call and records nothing.
"""

from __future__ import annotations

from time import perf_counter

SETUP_ITEM = -1

# Layer span name -> the end-to-end metric it should move, on which
# workload, and (in brackets) the workloads that bypass it.
LAYERS = {
    "groups.automorphisms": "setup_s on all",
    "corpus.build": "setup_s on all",
    "polyadic.from_table": "items_per_s on tables (sweep, homs)",
    "polyadic.canonical_hg": "items_per_s, item_tail_ms on tables (sweep)",
    "congruence.theorem": "items_per_s on tables, small on sweep (homs)",
    "congruence.oracle": "items_per_s, item_tail_ms on sweep (homs)",
    "congruence.kernel": "items_per_s on sweep, tables",
    "congruence.lattice": "items_per_s, item_tail_ms on sweep (tables, homs)",
    "substructures.subgroups.theorem": "items_per_s on sweep",
    "substructures.subgroups.oracle": "items_per_s on sweep",
    "substructures.normal.theorem": "items_per_s on sweep, tables",
    "substructures.normal.oracle": "items_per_s on sweep, tables",
    "simplicity.report": "items_per_s on sweep, tables",
    "simplicity.census": "items_per_s on census",
    "morphisms.homs.theorem": "items_per_s on homs (sweep)",
    "morphisms.homs.oracle": "items_per_s, item_tail_ms on homs (sweep, tables)",
    "morphisms.split": "items_per_s on homs",
    "morphisms.iso": "items_per_s on tables",
}


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.item = SETUP_ITEM
        self.spans: list[tuple[str, float, float, int, bool]] = []
        self.items: list[tuple[int, float, float]] = []

    def call(self, layer: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        failed = False
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            failed = True
            raise
        finally:
            self.spans.append((layer, start, perf_counter(), self.item, failed))

    def item_span(self, item: int, start: float, end: float) -> None:
        if self.enabled:
            self.items.append((item, start, end))

    def summary(self, layers) -> dict[str, float]:
        """Per-layer calls, busy time and errors, plus the items' glue time.

        Layer spans are leaves (the benchmark calls no layer from inside
        another), so a layer's self time equals its busy time, and an item's
        self time is its span minus the layer spans inside it.
        """
        out: dict[str, float] = {}
        for layer in layers:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.busy_s"] = 0.0
            out[f"{layer}.errors"] = 0
        child_s = 0.0
        for layer, start, end, item, failed in self.spans:
            out[f"{layer}.calls"] += 1
            out[f"{layer}.busy_s"] += end - start
            out[f"{layer}.errors"] += int(failed)
            if item != SETUP_ITEM:
                child_s += end - start
        item_s = sum(end - start for _, start, end in self.items)
        out["bench.item.busy_s"] = item_s
        out["bench.glue.self_s"] = item_s - child_s
        return out
