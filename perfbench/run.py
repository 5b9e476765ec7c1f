"""Layered pglab benchmark.

    python3 perfbench/run.py --workload sweep|homs|tables|census \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; pglab is imported from its `src/`.

The seed picks one pass: a fixed number of items.  With --trace 0 the run
repeats that pass a fixed number of times (PASSES_AT_15S), each time in a
fresh worker interpreter (see worker.py).  The count is fixed rather than
set by a clock, so every run does the same work.

Times are scaled to the reference machine by the speed gauge (gauge.py),
which the worker times between the parts of its pass: the shared machine
this was built on changes speed by up to 1.9x, for seconds or minutes at a
time, and the scaled times move far less with it than the raw ones.  Each
item keeps its fastest scaled time over the repeats.  The median and the
tail are Harrell-Davis estimates (quantile.py).  Set-up is timed in every
repeat and in extra fresh interpreters, at least five in all, scaled by
the gauge samples of its own process, and reported as the median.  The
unscaled figures are printed too.

With --trace 1 the run makes the pass twice, untraced and traced, and
reports the per-layer metrics of the traced pass and the throughput lost
to tracing.

Every item checks its answers.  Every repeat must give the same answer
counts, equal to those in expected.json where they are recorded for the
seed.  The last line of standard output is one JSON object with the
result.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gauge
from quantile import harrell_davis
from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
# Items per pass (the census pass is the whole grid).
DEFAULT_ITEMS = {"sweep": 80, "homs": 1100, "tables": 65, "census": 4}
# Fresh-worker passes per run at --seconds 15, scaled with --seconds (at
# least one).  A pass takes about 8 s (sweep), 5 s (homs), 10 s (tables)
# and 20 s (census) on the reference machine.  Census makes two passes
# although they take longer than --seconds: its arity-5 item is six cells
# of up to 8 s, too long for the gauge to follow, and with one pass its
# tail spread 0.20 over ten seeds.
PASSES_AT_15S = {"sweep": 2, "homs": 2, "tables": 1, "census": 2}
SETUP_SAMPLES = 5
# Workloads whose pass is the same for every seed.
SEED_FREE = ("homs", "census")
RUN_LIMIT_S = 175  # a run ends within 180 s: later workers get what is left
TAIL_BEYOND = 10
# Gauge samples this close to a part (or as close as the part is long)
# scale its time.
WINDOW_S = 0.05
# One worker at a time, each single-threaded; a fixed hash seed keeps set
# iteration order, and so the work done, the same from run to run.
WORKER_ENV = {
    "PYTHONPATH": str(ROOT / "src"),
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
YIELDS = {
    "congruence.oracle.yield": ("congruence.found", "congruence.oracle.partitions"),
    "substructures.subgroups.oracle.yield": (
        "substructures.subgroups.found", "substructures.subgroups.oracle.subsets"),
    "morphisms.homs.oracle.yield": ("morphisms.homs.found", "morphisms.homs.oracle.maps"),
}
FOUND = (
    "congruence.found",
    "substructures.subgroups.found",
    "substructures.normal.found",
    "morphisms.homs.found",
    "simplicity.census.candidates",
    "simplicity.census.classes",
)


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, trace: bool = False, setup_only: bool = False) -> dict:
    """Run one worker to completion; the run's time limit bounds it."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--items", str(args.items),
        "--trace", str(int(trace)),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **WORKER_ENV)
    started = time.monotonic()
    proc = subprocess.run(
        cmd + ["--started", repr(started)], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=max(1.0, args.deadline - started),
    )
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the Harrell-Davis estimate at
    the highest percentile with at least TAIL_BEYOND samples beyond it, or
    the maximum when the run has too few samples for that percentile to lie
    above the median."""
    n = len(samples)
    if n < 2 * TAIL_BEYOND + 1:
        return max(samples), 100.0, 0
    q = (n - TAIL_BEYOND) / n
    return harrell_davis(samples, q), 100.0 * q, TAIL_BEYOND


def speed(gauges: list) -> float:
    """Factor that scales times to the reference machine, from gauge samples."""
    return gauge.REFERENCE_S / statistics.mean(dt for _, dt in gauges)


def scaled_items(p: dict) -> list[float]:
    """Item times of one pass, each part scaled by the gauge samples taken
    within WINDOW_S or the part's own length of it, whichever is longer (at
    least the two nearest).  A short part runs in the speed the gauge shows
    next to it; a long one spans many changes of speed, which samples from
    a longer stretch of the pass average out."""
    starts = [t for t, _ in p["gauges"]]
    out = [0.0] * len(p["item_ms"])
    for i, t0, ms in p["parts"]:
        reach = max(WINDOW_S, ms / 1e3)
        lo = bisect.bisect_left(starts, t0 - reach)
        hi = bisect.bisect_right(starts, t0 + ms / 1e3 + reach)
        lo, hi = min(lo, len(starts) - 2), max(hi, lo + 2)
        out[i] += ms * speed(p["gauges"][lo:hi])
    return out


def throughput(work: int, item_ms: list[float]) -> float:
    """Work units (items, or census candidates) per second of item time."""
    return work / (sum(item_ms) / 1e3)


def end_to_end(args, passes: list[dict]) -> tuple[dict, list[str]]:
    item_ms = [min(times) for times in zip(*map(scaled_items, passes))]
    raw_ms = [min(times) for times in zip(*(p["item_ms"] for p in passes))]
    setup_runs = list(passes)
    while len(setup_runs) < SETUP_SAMPLES:
        setup_runs.append(run_worker(args, setup_only=True))
    setups = [p["setup_s"] * speed(p["setup_gauges"]) for p in setup_runs]
    tail_ms, pct, beyond = tail(item_ms)
    attempted = len(item_ms)
    failed = sum(p["failed"] for p in passes)
    unit = "candidates" if args.workload == "census" else "items"
    metrics = {
        "items_per_s": (throughput(passes[0]["work"], item_ms), "items/s"),
        "item_p50_ms": (harrell_davis(item_ms, 0.5), "ms"),
        "item_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
    }
    notes = {
        "items_per_s": f"{unit} per second, fastest scaled time of {len(passes)} repeats per item",
        "item_p50_ms": f"Harrell-Davis median of {attempted} items",
        "item_tail_ms": f"Harrell-Davis p{pct:.1f} of {attempted} items, {beyond} beyond",
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "peak_rss_mb": "ru_maxrss of the worker, largest pass",
    }
    lines = [f"  {k:<14} {v:12.4f} {u:<8} {notes[k]}" for k, (v, u) in metrics.items()]
    runs = attempted * len(passes)
    lines.append(f"  {'fail_ratio':<14} {failed / runs:12.4f} {'ratio':<8} {failed} of {runs} item runs")
    factors = " ".join(f"{speed(p['gauges']):.3f}" for p in passes)
    lines.append(
        f"  times above are scaled to the reference machine by the speed gauge "
        f"(mean factor per pass {factors}); unscaled {throughput(passes[0]['work'], raw_ms):.4f} "
        f"{unit}/s, p50 {harrell_davis(raw_ms, 0.5):.4f} ms, tail {tail(raw_ms)[0]:.4f} ms, "
        f"setup {statistics.median(p['setup_s'] for p in setup_runs):.4f} s"
    )
    return metrics, lines


def per_layer(untraced: dict, traced: dict) -> tuple[dict, list[str]]:
    layers, counters = traced["layers"], traced["counters"]
    metrics = {}
    for name, value in layers.items():
        metrics[name] = (value, "s" if name.endswith("_s") else "count")
    for name, (found, tried) in YIELDS.items():
        metrics[name] = (counters.get(found, 0) / counters[tried] if counters.get(tried) else 0.0, "ratio")
    for name in FOUND:
        metrics[name] = (counters.get(name, 0), "count")
    rates = [throughput(p["work"], scaled_items(p)) for p in (untraced, traced)]
    metrics["bench.trace_overhead"] = (1 - rates[1] / rates[0], "ratio")
    lines = []
    for layer, moves in LAYERS.items():
        calls, busy, errors = (layers[f"{layer}.{k}"] for k in ("calls", "busy_s", "errors"))
        lines.append(f"  {layer:<32} {calls:7d} calls {busy:10.4f} s {errors:3d} errors   moves {moves}")
    for name in list(YIELDS) + list(FOUND):
        lines.append(f"  {name:<32} {metrics[name][0]:.6g} {metrics[name][1]}")
    lines.append(
        f"  {'bench.glue.self_s':<32} {layers['bench.glue.self_s']:.4f} s of "
        f"{layers['bench.item.busy_s']:.4f} s in items (harness time between layer calls)"
    )
    lines.append(
        f"  {'bench.trace_overhead':<32} {metrics['bench.trace_overhead'][0]:+.4f} "
        f"(items_per_s traced {rates[1]:.4f} vs untraced {rates[0]:.4f}, one pass each)"
    )
    return metrics, lines


def fingerprint(args, passes: list[dict]) -> tuple[bool, str]:
    """Answer counts: the same in every repeat, and equal to expected.json
    when it records them for this seed."""
    got_all = [p["counters"] for p in passes]
    if any(c != got_all[0] for c in got_all):
        return False, f"answer counts differ between repeats: {got_all}"
    table = json.loads(Path(args.expected).read_text()).get(args.workload, {}).get(f"items={args.items}", {})
    want = table.get(str(args.seed), table.get("*"))
    if want is None:
        return True, "no recorded answer counts for this seed; theorem/oracle agreement is the check"
    got = {k: got_all[0].get(k, 0) for k in want}
    if got != want:
        return False, f"answer counts differ from expected.json: got {got}, expected {want}"
    return True, f"answer counts match expected.json ({len(want)} counts)"


def record(args, pass0: dict) -> None:
    """Store the answer counts of this seed (census and homs: of every seed)."""
    path = Path(args.expected)
    data = json.loads(path.read_text()) if path.exists() else {}
    entry = data.setdefault(args.workload, {}).setdefault(f"items={args.items}", {})
    entry["*" if args.workload in SEED_FREE else str(args.seed)] = {
        k: pass0["counters"][k] for k in sorted(pass0["counters"])
    }
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=DEFAULT_ITEMS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int, help="items per pass (default: per workload)")
    ap.add_argument("--expected", default=str(EXPECTED), help="recorded answer counts")
    ap.add_argument("--record", action="store_true", help="record this seed's answer counts")
    args = ap.parse_args()
    args.items = args.items or DEFAULT_ITEMS[args.workload]
    args.deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "pglab" / "__init__.py").is_file():
        print(f"no pglab sources under {ROOT / 'src'}; run from a pglab checkout", file=sys.stderr)
        return 2

    try:
        if args.trace:
            untraced = run_worker(args)
            traced = run_worker(args, trace=True)
            passes = [untraced, traced]
            metrics, lines = per_layer(untraced, traced)
        else:
            repeats = max(1, round(PASSES_AT_15S[args.workload] * args.seconds / 15))
            passes = [run_worker(args) for _ in range(repeats)]
            metrics, lines = end_to_end(args, passes)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.record:
        record(args, passes[0])
    matches, note = fingerprint(args, passes)
    attempted = sum(len(p["item_ms"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    mode = "traced" if args.trace else "untraced"
    print(f"{args.workload} seed {args.seed} ({mode}): {attempted} items, {failed} failed")
    print("\n".join(lines))
    print(f"  {'fingerprint' if matches else 'FINGERPRINT MISMATCH'}: {note}")
    print(json.dumps({
        "correct": failed == 0 and matches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
