#!/usr/bin/env python3
"""Perf floors for the committed BENCH artifacts: fails when a BENCH
JSON reports a derived rate below a conservative minimum.

The floors are deliberately far below the rates a development machine
records (tens of millions of events/s): they are not regression
detectors for small slowdowns — shared CI runners are too noisy for
that — but tripwires for the failure modes that motivated the event
kernel rework and the SoA flow-state rework, such as reintroducing a
per-event heap allocation, an accidental O(n)-per-op calendar, or a
per-packet hash lookup on the admission path, which each cost an order
of magnitude.

Usage:
    scripts/check_perf_floor.py [--floor=EVENTS_PER_SEC] BENCH.json [...]

Each report's floors are looked up by its "bench" name in FLOORS as a
{derived-metric: floor} dict (falling back to DEFAULT_FLOORS); every
listed metric must be present and at or above its floor.  --floor
overrides the lookup for every file with a single events_per_sec floor
(the pre-dict behaviour, kept for one-off local runs).  Only the Python
standard library is used.
"""
import json
import sys
from pathlib import Path

DEFAULT_FLOORS = {"events_per_sec": 5.0e5}
# Per-bench floors where the workload differs materially from the
# Table-1 single-multiplexer runs.
#
# bench_fabric times a 16-switch leaf-spine fabric (16 hosts, 160
# ports, per-hop routing + end-to-end audit per packet), so its
# per-event cost is inherently higher; development machines record
# several million events/s, making 1e5 the same order-of-magnitude
# tripwire DEFAULT_FLOORS is for the kernel.
#
# bench_million_flow holds one million resident flows in the SoA
# FlowTable and measures admission churn (decisions_per_sec: full
# admit/teardown round trips) and the O(1) per-packet threshold check
# (packet_checks_per_sec).  Development machines record ~5M decisions/s
# and ~30M checks/s; the floors trip on a return to per-flow hashing or
# per-decision allocation, not on runner noise.
#
# bench_event_kernel also carries kernel_depth_flatness: the calendar
# hold-model rate at depth 16k over the rate at depth 64.  The floor is
# the "flat within 1.5x" target (1/1.5 = 0.67).  A ratio cancels most of
# the machine's speed, so unlike the absolute floors this one is tight:
# it trips on the calendar's depth cliff returning (the ring stuck at 256
# buckets once narrowed put the ratio near 0.3).
FLOORS = {
    "bench_event_kernel": {"events_per_sec": 5.0e5, "kernel_depth_flatness": 0.67},
    "bench_fabric": {"events_per_sec": 1.0e5},
    "bench_million_flow": {
        "decisions_per_sec": 1.0e6,
        "packet_checks_per_sec": 5.0e6,
    },
    # bench_parallel_engine compares the sharded engine against serial on
    # a dense leaf-spine.  The unconditional floors are sanity tripwires:
    # the engine must still move events, and 8-way sharding must never be
    # slower than serial (even one core gains ~1.5-2x from the smaller
    # per-shard calendars).  The real 2.5x speedup target is hardware-
    # gated below.
    "bench_parallel_engine": {
        "events_per_sec": 1.0e5,
        "speedup_shards8": 1.0,
    },
}

# Hardware-gated floors: bench -> (gate metric, gate minimum, floors).
# Applied only when the artifact's derived[gate metric] >= gate minimum,
# so a single-core container is not asked to demonstrate parallel
# speedup it physically cannot express.  bench_parallel_engine's target:
# >= 2.5x at 8 shards on any machine with 8 hardware threads.
HARDWARE_FLOORS = {
    "bench_parallel_engine": ("hardware_threads", 8, {"speedup_shards8": 2.5}),
}


def fmt(value: float) -> str:
    """Rates print as integers, ratios with three decimals."""
    return f"{value:.0f}" if abs(value) >= 100 else f"{value:.3f}"


def main(argv: list[str]) -> int:
    override = None
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--floor="):
            override = float(arg.split("=", 1)[1])
        else:
            paths.append(Path(arg))
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2

    failures = 0
    for path in paths:
        report = json.loads(path.read_text())
        if override is not None:
            floors = {"events_per_sec": override}
        else:
            floors = FLOORS.get(report.get("bench", ""), DEFAULT_FLOORS)
        derived = report.get("derived", {})
        if override is None:
            gate = HARDWARE_FLOORS.get(report.get("bench", ""))
            if gate is not None:
                gate_metric, gate_min, extra = gate
                if derived.get(gate_metric, 0) >= gate_min:
                    floors = {**floors, **extra}
                else:
                    print(
                        f"{path}: {gate_metric}="
                        f"{derived.get(gate_metric, 0):.0f} < {gate_min}; "
                        f"hardware-gated floors {sorted(extra)} not applied"
                    )
        for metric, floor in sorted(floors.items()):
            rate = derived.get(metric)
            if rate is None:
                print(f"{path}: missing derived.{metric}", file=sys.stderr)
                failures += 1
            elif rate < floor:
                print(
                    f"{path}: {metric} {fmt(rate)} below floor {fmt(floor)}",
                    file=sys.stderr,
                )
                failures += 1
            else:
                print(f"{path}: {metric} {fmt(rate)} >= floor {fmt(floor)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
