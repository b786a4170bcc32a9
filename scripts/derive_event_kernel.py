#!/usr/bin/env python3
"""Derives the event-kernel perf artifact from a bench_scalability report.

Reads a fresh BENCH_scalability JSON (written by
`bench_scalability --metrics-out=...`), stamps in the pre-rework
baseline event rate and the resulting speedup, derives the calendar's
depth flatness (the hold-model rate at depth 16k over the rate at depth
64; 1.0 means no depth cliff at all), and writes the combined report as
a schema-v1 BENCH_event_kernel.json.  The committed copy at
results/BENCH_event_kernel.json is the before/after record of the event
kernel rework (InlineAction + bucketed calendar queue; DESIGN.md
section 11).

Usage:
    scripts/derive_event_kernel.py BENCH_scalability.json OUT.json

Only the Python standard library is used.
"""
import json
import sys
from pathlib import Path

# Table-1 scenario event rate measured immediately before the event
# kernel rework (std::function actions + binary-heap calendar), on the
# same machine and build type as the committed "after" numbers.
BASELINE_EVENTS_PER_SEC = 5771403.74482


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(argv[1])
    dst = Path(argv[2])
    report = json.loads(src.read_text())

    derived = report.get("derived", {})
    for key in ("events_per_sec", "kernel_hold_events_per_sec_d64",
                "kernel_hold_events_per_sec_d16k"):
        if key not in derived:
            print(f"{src}: missing derived.{key}", file=sys.stderr)
            return 1

    report["bench"] = "bench_event_kernel"
    derived["events_per_sec_before"] = BASELINE_EVENTS_PER_SEC
    derived["speedup"] = derived["events_per_sec"] / BASELINE_EVENTS_PER_SEC
    derived["kernel_depth_flatness"] = (derived["kernel_hold_events_per_sec_d16k"] /
                                        derived["kernel_hold_events_per_sec_d64"])
    report["derived"] = derived

    dst.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {dst} (speedup {derived['speedup']:.3f}x, "
          f"depth flatness {derived['kernel_depth_flatness']:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
