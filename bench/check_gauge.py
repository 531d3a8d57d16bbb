"""Check that the Gauge's scaling keeps the size of a real change to graphce.

    python3 bench/check_gauge.py --workload survey-n7 --seconds 90

Passes of one workload alternate between its plain items and the same items
with a regression of known size injected: every item is called twice within
its timed interval (with graphce's caches cleared between the calls of a CLI
item), so its work doubles.  The median ratio of doubled to plain pass time
must read 2 scaled as it reads raw; the scaled plain pass times should spread
less than the raw ones; and the kernel should track graphce, which the slope
and correlation of log raw pass time on log kernel time show.
"""

from __future__ import annotations

import argparse
import math
import random
import statistics
import sys
import time

import run as bench


def _spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def _doubled(items: list[bench.Item]) -> list[bench.Item]:
    def twice(item):
        def call():
            item.call()
            if item.cli:
                bench._clear_caches()
            return item.call()
        return call

    return [bench.Item(twice(item), item.expect, item.check, item.cli) for item in items]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=90)
    parser.add_argument("--items", type=int, help="use only the first ITEMS items of a pass")
    args = parser.parse_args()
    sys.path.insert(0, str(bench.SRC))
    import graphce
    import graphce.cli

    items = bench.BUILDERS[args.workload](graphce, random.Random(f"{args.workload}:{args.seed}"))[:args.items]
    gauge = bench.Gauge()
    plain, doubled = bench.Run(items, gauge), bench.Run(_doubled(items), gauge)
    rows = []  # (raw, scaled, kernel median) for a plain pass, then for the doubled pass after it
    end = time.perf_counter() + args.seconds
    while len(rows) < 4 or time.perf_counter() < end:
        row = []
        for run in (plain, doubled):
            first = len(gauge.durs)
            raw, item_s = run.one_pass()
            row.append((raw, sum(item_s), statistics.median(gauge.durs[first:])))
        rows.append(row)
    if plain.failed or doubled.failed:
        print(f"error: {plain.failed + doubled.failed} items failed", file=sys.stderr)
        return 1

    raw = [r[0][0] for r in rows]
    kernel = [r[0][2] for r in rows]
    log_kernel, log_raw = [math.log(k) for k in kernel], [math.log(t) for t in raw]
    raw_ratio = [r[1][0] / r[0][0] for r in rows]
    scaled_ratio = [r[1][1] / r[0][1] for r in rows]
    print(f"{args.workload}: {len(rows)} pass pairs, {len(items)} items per pass")
    print(f"  plain pass time spread     raw {_spread(raw):.3f}  scaled {_spread([r[0][1] for r in rows]):.3f}"
          f"  kernel {_spread(kernel):.3f}")
    print(f"  log raw on log kernel      slope {statistics.linear_regression(log_kernel, log_raw).slope:.2f}"
          f"  correlation {statistics.correlation(log_kernel, log_raw):.2f}")
    print(f"  doubled / plain pass time  raw {statistics.median(raw_ratio):.3f}"
          f"  scaled {statistics.median(scaled_ratio):.3f}  (medians over pairs; the work is exactly doubled)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
