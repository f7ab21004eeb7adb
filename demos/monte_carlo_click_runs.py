#!/usr/bin/env python3
"""Click-level Monte Carlo runs over the twelve pair-detection outcomes.

Build the exact outcome distribution for unpolarized input, then simulate
detection runs: each emitted pair picks one outcome, and every detector of
that outcome fires with the set efficiency.  The efficiency-corrected
estimates recover the exact probabilities, runs are reproducible from the
seed alone, and the fixed-block generator makes sharded runs add up exactly.
"""

import argparse
import math

import numpy as np

from twophoton import (
    BLOCK_PAIRS,
    OPPOSITE,
    OUTCOMES,
    BeamSplitterSpec,
    InputSpec,
    RunConfig,
    consistency_z,
    estimate,
    full_outcome_distribution,
    sample_counts,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=400000, help="emitted pairs per run")
    parser.add_argument("--efficiency", type=float, default=0.75, help="detector efficiency")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    dist = full_outcome_distribution(
        InputSpec.unpolarized(), 0.0, math.pi / 6.0,
        BeamSplitterSpec.fifty_fifty(), phi=0.0, psi=0.0,
    )

    # ------------------------------------------------------------------
    # One run: counts, corrected estimates, pulls against the exact values
    # ------------------------------------------------------------------
    cfg = RunConfig(args.pairs, efficiency=args.efficiency, seed=args.seed)
    counts = sample_counts(dist, cfg)
    probability, _ = estimate(counts, cfg)
    recorded = counts.sum()
    print(f"run: {args.pairs} pairs, efficiency {args.efficiency}, seed {args.seed}")
    print(f"recorded {recorded} events ({recorded / args.pairs:.1%} of emitted pairs)")
    print(f"{'outcome':<26} {'count':>7} {'estimate':>10} {'exact':>10} {'z':>6}")
    for label, count, p, exact in zip(OUTCOMES, counts.tolist(), probability.tolist(), dist.tolist()):
        z = consistency_z(p, exact, cfg)
        print(f"{label:<26} {count:>7} {p:>10.5f} {exact:>10.5f} {z:>6.2f}")
    print()

    # ------------------------------------------------------------------
    # Aggregate split/bunch shares
    # ------------------------------------------------------------------
    opp = probability[OPPOSITE].sum()
    same = probability[~OPPOSITE].sum()
    print(f"estimated split share {opp:.4f} (exact 0.25), bunch share {same:.4f} (exact 0.75)")
    print()

    # ------------------------------------------------------------------
    # Reproducibility and block sharding
    # ------------------------------------------------------------------
    again = sample_counts(dist, cfg)
    print(f"same seed reproduces every count exactly: {np.array_equal(again, counts)}")
    if args.pairs >= 2 * BLOCK_PAIRS:
        first = sample_counts(dist, RunConfig(BLOCK_PAIRS, efficiency=args.efficiency, seed=args.seed))
        nested = bool((first <= counts).all())
        print(f"first {BLOCK_PAIRS}-pair block is an exact prefix shard: {nested}")


if __name__ == "__main__":
    main()
