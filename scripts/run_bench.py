#!/usr/bin/env python3
"""Sweep the partition-scan benchmark over KB sizes and domain counts.

Prints one row per configuration: scan counts for full-relation vs
domain-filtered matching, the reduction factor, and materialization time.

    python scripts/run_bench.py
    python scripts/run_bench.py --facts 1000 10000 --domains 10 50 --seed 3
"""

from __future__ import annotations

import argparse

from cdcgraph.synthetic import run_bench


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--facts", type=int, nargs="+", default=[1_000, 10_000, 50_000])
    parser.add_argument("--domains", type=int, nargs="+", default=[1, 10, 50])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    header = f"{'facts':>8} {'domains':>8} {'full':>8} {'filtered':>10} {'factor':>8} {'mat (s)':>8} {'derived':>9}"
    print(header)
    print("-" * len(header))
    for n_facts in args.facts:
        for n_domains in args.domains:
            if n_facts < n_domains:
                continue
            r = run_bench(n_facts, n_domains, args.seed)
            print(
                f"{r['n_facts']:>8} {r['n_domains']:>8} {r['scanned_full']:>8} "
                f"{r['scanned_filtered_mean']:>10.1f} {r['reduction_factor']:>7.1f}x "
                f"{r['materialize_seconds']:>8.3f} {r['derived_facts']:>9}"
            )


if __name__ == "__main__":
    main()
