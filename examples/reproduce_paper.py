#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation.

    python examples/reproduce_paper.py              # quick (minutes)
    python examples/reproduce_paper.py --scale 4    # closer to paper scale
    python examples/reproduce_paper.py --only fig9a fig13

Each figure prints as a text table shaped like the paper's plot, followed
by its shape checks (see EXPERIMENTS.md for the expected shapes and the
paper-vs-measured record).
"""

import argparse
import time

from repro.harness.figures import (
    figure9,
    figure10,
    figure11,
    figure12,
    figure13,
)
from repro.harness.tables import figure1_table, figure8_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=1,
                        help="multiply iteration counts by this factor")
    parser.add_argument("--only", nargs="*", default=None,
                        help="subset of: fig1 fig8 fig9a fig9b fig10a "
                             "fig10b fig11a fig11b fig12a fig12b fig13")
    args = parser.parse_args()
    s = args.scale

    jobs = {
        "fig1": lambda: figure1_table(),
        "fig8": lambda: figure8_table(),
        "fig9a": lambda: figure9("A", iters_per_thread=100 * s),
        "fig9b": lambda: figure9("B", write_ratios=(100, 50),
                                 iters_per_thread=100 * s),
        "fig10a": lambda: figure10("A", iters_per_thread=60 * s),
        "fig10b": lambda: figure10(
            "B", thread_counts=(4, 8, 16, 32),
            iters_per_thread=60 * s,
            locks=("lcu", "mcs", "mrsw", "tatas"),
        ),
        "fig11a": lambda: figure11("A", txns_per_thread=40 * s),
        "fig11b": lambda: figure11("B", thread_counts=(1, 4, 8, 16),
                                   txns_per_thread=30 * s),
        "fig12a": lambda: figure12(
            "A", sizes={"rb": 2_048 * s, "skip": 2_048 * s,
                        "hash": 8_192 * s},
            txns_per_thread=30 * s,
        ),
        "fig12b": lambda: figure12(
            "B", sizes={"rb": 1_024 * s, "skip": 1_024 * s,
                        "hash": 4_096 * s},
            txns_per_thread=25 * s,
        ),
        "fig13": lambda: figure13(seeds=tuple(range(1, 3 + s))),
    }
    selected = args.only or list(jobs)

    for name in selected:
        if name not in jobs:
            parser.error(f"unknown figure {name}")
        t0 = time.time()
        result = jobs[name]()
        dt = time.time() - t0
        print()
        print("=" * 72)
        if isinstance(result, str):
            print(result)
        else:
            print(result.text)
            if result.checks:
                status = "OK" if all(result.checks.values()) else "MISMATCH"
                print(f"shape checks [{status}]: {result.checks}")
        print(f"({name} regenerated in {dt:.1f}s host time)")


if __name__ == "__main__":
    main()
