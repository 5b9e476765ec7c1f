"""One pass of a workload in a fresh interpreter; run.py starts it.

Set-up (import, catalog and corpus, the inputs made from the seed) runs
first and is timed from the moment the parent started this process.  Then
every item of the pass runs once, closed loop, and the worker prints one
JSON line.  A fresh interpreter per pass matters: pglab keeps module-level
caches keyed by structure value, so a second pass in one process would
time cache hits instead of work.

Between the steps of set-up, and between the parts of the pass after
every gauge.EVERY_S of item time, the worker times the speed gauge
(gauge.py); the gauge's own time is kept out of the set-up and item times.
An item is timed part by part (a census item's parts are its cells; other
items are one part), so that the gauge also runs inside long items.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# Gauge samples at each of the four points of set-up, and at most in one
# go between two parts of the pass (one per gauge.EVERY_S of item time).
SETUP_GAUGES = 10
GAUGE_BURST = 10


def _parse() -> argparse.Namespace:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--items", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    return ap.parse_args()


def main() -> int:
    args = _parse()
    import gauge

    setup_gauges = gauge.samples(SETUP_GAUGES)
    import pglab

    if not Path(pglab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"pglab imported from {pglab.__file__}, not from this checkout", file=sys.stderr)
        return 3
    from pglab import automorphisms, corpus_bases, standard_corpus
    from spans import LAYERS, Tracer
    from workloads import WORKLOADS

    setup_gauges += gauge.samples(SETUP_GAUGES)
    wl = WORKLOADS[args.workload]
    tr = Tracer(bool(args.trace))
    for base in corpus_bases():
        tr.call("groups.automorphisms", automorphisms, base)
    corpus = tr.call("corpus.build", standard_corpus)
    setup_gauges += gauge.samples(SETUP_GAUGES)
    rng = random.Random(f"{args.workload}/{args.seed}")
    items = wl.inputs(corpus, rng, args.items)
    setup_gauges += gauge.samples(SETUP_GAUGES)
    setup_s = time.monotonic() - args.started - sum(dt for _, dt in setup_gauges)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_gauges": setup_gauges}))
        return 0

    item_ms = [0.0] * len(items)
    parts: list[tuple[int, float, float]] = []  # (item, start, ms)
    ok = [True] * len(items)
    kept: list = []
    work = 0
    counters: Counter = Counter()
    failures: list[str] = []
    gauges: list[tuple[float, float]] = []
    since_gauge = gauge.EVERY_S
    for i, item in enumerate(items):
        tr.item = i
        for part in wl.parts(item):
            if since_gauge >= gauge.EVERY_S:
                gauges += gauge.samples(min(GAUGE_BURST, int(since_gauge / gauge.EVERY_S)))
                since_gauge = 0.0
            t0 = perf_counter()
            try:
                out = wl.item(tr, part)
                found, extra = out if wl.post_check else (out, None)
                counters.update(found)
                work += wl.units(found)
                kept.append((i, part, extra))
            except Exception as exc:  # item boundary: count the failure, keep going
                failures.append(f"item {i}: {type(exc).__name__}: {exc}")
                ok[i] = False
            t1 = perf_counter()
            tr.item_span(i, t0, t1)
            item_ms[i] += (t1 - t0) * 1e3
            parts.append((i, t0, (t1 - t0) * 1e3))
            since_gauge += t1 - t0
    gauges += gauge.samples(GAUGE_BURST)

    if wl.post_check:
        for i, part, extra in kept:
            try:
                wl.post_check(part, extra)
            except Exception as exc:  # a failed post-check fails its item
                failures.append(f"item {i} post-check: {type(exc).__name__}: {exc}")
                ok[i] = False

    for line in failures[:5]:
        print(f"[{args.workload} seed {args.seed}] FAIL {line}", file=sys.stderr)
    result = {
        "setup_s": setup_s,
        "setup_gauges": setup_gauges,
        "item_ms": item_ms,
        "parts": parts,
        "gauges": gauges,
        "failed": ok.count(False),
        "work": work,
        "counters": dict(counters),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if args.trace:
        result["layers"] = tr.summary(LAYERS)
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({"layers": tr.spans, "items": tr.items}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
