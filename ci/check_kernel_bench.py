#!/usr/bin/env python3
"""Bench-regression gate over the packed-kernel smoke benchmarks.

Reads the JSON emitted by ``trace_breakdown --kernel-smoke``
(``BENCH_kernel.json``) and/or ``trace_breakdown --population-smoke``
(``BENCH_population.json``) and fails the build if the packed kernels
have regressed:

* every row must report ``identical: true`` — the packed kernels'
  *raison d'etre* is bit-identity with the scalar reference, so a
  single false is an instant failure;
* every row's speedup must clear a conservative per-delay-model floor.
  The floors sit below locally measured numbers (kernel smoke, C432 to
  C6288: zero-delay 16.1x-50.3x, unit 5.9x-14.2x, fanout 3.0x-12.1x,
  where C6288's 64-lane fanout row sits at the 3.0x floor; population
  sweep: zero-delay 20x-44x, unit 7.5x-12x on a shared dev box) so that
  noisy CI runners rarely flake, while a real regression — say the packed
  lane loop quietly falling back to per-lane evaluation, or the
  population path dropping back to per-pair dispatch — still trips them.

The gate dispatches floors on the file's ``benchmark`` field, so the
same script checks both artifacts.

Usage: check_kernel_bench.py BENCH_kernel.json [BENCH_population.json ...]
"""

import json
import sys

# Conservative per-delay-model floors, keyed by benchmark kind (see
# module docstring for the measured headroom).
SPEEDUP_FLOORS = {
    "kernel_smoke": {
        "zero": 10.0,
        "unit": 4.0,
        "fanout": 3.0,
    },
    "population_smoke": {
        "zero": 8.0,
        "unit": 3.0,
        "fanout": 2.5,
    },
}
# Any unlisted delay model or benchmark kind uses this floor.
DEFAULT_FLOOR = 2.5

EXPECTED_KERNELS = {"packed64", "packed128"}


def check(path):
    with open(path) as f:
        bench = json.load(f)

    benchmark = bench.get("benchmark", "kernel_smoke")
    floors = SPEEDUP_FLOORS.get(benchmark, {})
    print(f"== {path} ({benchmark}) ==")

    rows = bench.get("rows", [])
    if not rows:
        print(f"FAIL: {path} has no benchmark rows")
        return 1

    kernels = {row["kernel"] for row in rows}
    missing = EXPECTED_KERNELS - kernels
    if missing:
        print(f"FAIL: benchmark is missing kernel rows for: {sorted(missing)}")
        return 1

    failures = []
    for row in rows:
        label = f"{row['circuit']:6s} {row['kernel']:9s} {row['delay_model']:6s}"
        floor = floors.get(row["delay_model"], DEFAULT_FLOOR)
        speedup = row["speedup"]
        identical = row["identical"]
        status = "ok"
        if not identical:
            status = "NOT BIT-IDENTICAL"
            failures.append(f"{label}: packed readings diverged from scalar")
        elif speedup < floor:
            status = f"speedup {speedup:.2f}x below floor {floor:.1f}x"
            failures.append(f"{label}: {status}")
        print(f"{label}  speedup {speedup:7.2f}x  (floor {floor:4.1f}x)  {status}")

    if failures:
        print(f"\nFAIL: {len(failures)} {benchmark} regression(s):")
        for f in failures:
            print(f"  - {f}")
        return 1

    print(f"\nOK: {len(rows)} rows bit-identical and above their speedup floors")
    return 0


def main(paths):
    worst = 0
    for path in paths:
        worst = max(worst, check(path))
    return worst


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__)
        sys.exit(2)
    sys.exit(main(sys.argv[1:]))
