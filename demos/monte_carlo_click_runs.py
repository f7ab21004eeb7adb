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

from twophoton import (
    BLOCK_PAIRS,
    BeamSplitterSpec,
    InputSpec,
    OutcomeKind,
    PhaseGeometry,
    RunConfig,
    all_outcomes,
    consistency_z,
    estimate,
    full_outcome_distribution,
    sample_run,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=400000, help="emitted pairs per run")
    parser.add_argument("--efficiency", type=float, default=0.75, help="detector efficiency")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    dist = full_outcome_distribution(
        InputSpec.unpolarized(), 0.0, math.pi / 6.0,
        BeamSplitterSpec.fifty_fifty(), PhaseGeometry(0.0, 0.0),
    )

    # ------------------------------------------------------------------
    # One run: counts, corrected estimates, pulls against the exact values
    # ------------------------------------------------------------------
    cfg = RunConfig(args.pairs, efficiency=args.efficiency, seed=args.seed)
    table = sample_run(dist, cfg)
    ests = estimate(table)
    recorded = sum(table.counts.values())
    print(f"run: {args.pairs} pairs, efficiency {args.efficiency}, seed {args.seed}")
    print(f"recorded {recorded} events ({recorded / args.pairs:.1%} of emitted pairs)")
    print(f"{'outcome':<26} {'count':>7} {'estimate':>10} {'exact':>10} {'z':>6}")
    for outcome, exact in zip(all_outcomes(), dist.tolist()):
        est = ests[outcome]
        z = consistency_z(est, exact, table.n_emitted, table.efficiency)
        print(f"{outcome.label():<26} {table.counts[outcome]:>7} "
              f"{est.probability:>10.5f} {exact:>10.5f} {z:>6.2f}")
    print()

    # ------------------------------------------------------------------
    # Aggregate split/bunch shares
    # ------------------------------------------------------------------
    opp = sum(est.probability for o, est in ests.items() if o.kind is OutcomeKind.OPPOSITE)
    same = sum(est.probability for o, est in ests.items() if o.kind is OutcomeKind.SAME_ARM)
    print(f"estimated split share {opp:.4f} (exact 0.25), bunch share {same:.4f} (exact 0.75)")
    print()

    # ------------------------------------------------------------------
    # Reproducibility and block sharding
    # ------------------------------------------------------------------
    again = sample_run(dist, cfg)
    print(f"same seed reproduces every count exactly: {again.counts == table.counts}")
    if args.pairs >= 2 * BLOCK_PAIRS:
        first = sample_run(dist, RunConfig(BLOCK_PAIRS, efficiency=args.efficiency, seed=args.seed))
        nested = all(first.counts[o] <= table.counts[o] for o in table.counts)
        print(f"first {BLOCK_PAIRS}-pair block is an exact prefix shard: {nested}")


if __name__ == "__main__":
    main()
