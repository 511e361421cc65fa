#!/usr/bin/env python3
"""Quickstart: generate a synthetic residential trace and put DNS in context.

Runs the full pipeline of the paper on a small synthetic neighbourhood
(10 houses, 6 simulated hours) and prints the headline results:
Table 2's classification, the blocking fractions, and the significance
quadrant of §6.

Usage:
    python examples/quickstart.py [seed] [workers]

Pass a worker count >1 to generate the houses over worker processes —
the trace, and so every number printed, is byte-identical either way.
"""

import sys

from repro.core.context import ContextStudy
from repro.workload.generate import generate_trace
from repro.workload.scenario import ScenarioConfig


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    config = ScenarioConfig(seed=seed, houses=10, duration=6 * 3600.0)

    print(f"Generating synthetic residential trace (seed={seed})...")
    trace = generate_trace(config, workers=workers)
    study = ContextStudy(trace)
    print(f"  {trace.summary()}\n")

    print("Table 2 — DNS information origin by connection:")
    print(study.classification_table())
    print()

    breakdown = study.breakdown
    print(
        f"{100 * (1 - breakdown.blocked_fraction()):.1f}% of connections never "
        f"block on DNS (paper: ~58%)."
    )

    delays = study.lookup_delays()
    print(
        f"Blocked connections wait a median of {1000 * delays.median:.1f} ms on "
        f"DNS (paper: 8.5 ms); only {100 * delays.over_100ms_fraction:.1f}% wait "
        f"more than 100 ms."
    )

    quadrant = study.significance_quadrant()
    print(
        f"A DNS lookup is 'significant' (>20 ms AND >1% of the transaction) for "
        f"{100 * quadrant.significant_of_all:.1f}% of all connections "
        f"(paper: 3.6%)."
    )

    validation = study.validate_against_truth()
    print(
        f"\nHeuristic classification agrees with simulation ground truth for "
        f"{100 * validation['agreement']:.1f}% of connections."
    )


if __name__ == "__main__":
    main()
