#!/usr/bin/env python3
"""How steady is this host?  Times a fixed pure-Python loop back to back.

    python3 perfbench/noise.py --seconds 60

Prints the range of single loop times and the medians of consecutive
2-second windows, plus process CPU time against wall time.  On a host
shared with other tenants the window medians drift by tens of percent
while CPU time stays equal to wall time: the work is not descheduled, it
runs slower.  The benchmark's choice of statistics rests on this.
"""

from __future__ import annotations

import argparse
import statistics
import time


def loop() -> int:
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=60)
    args = parser.parse_args()
    times, windows, window = [], [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    window_end = wall0 + 2
    while time.perf_counter() - wall0 < args.seconds:
        t = time.perf_counter()
        loop()
        now = time.perf_counter()
        times.append((now - t) * 1000)
        window.append(times[-1])
        if now >= window_end:
            windows.append(statistics.median(window))
            window, window_end = [], now + 2
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    print(f"{len(times)} loops: min {min(times):.1f} ms, median {statistics.median(times):.1f} ms, "
          f"max {max(times):.1f} ms")
    print(f"2-second window medians: {min(windows):.1f}-{max(windows):.1f} ms")
    print("  " + " ".join(f"{w:.1f}" for w in windows))
    print(f"cpu {cpu:.1f} s / wall {wall:.1f} s")


if __name__ == "__main__":
    main()
