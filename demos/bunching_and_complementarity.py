#!/usr/bin/env python3
"""Photon bunching: what does not split must bunch.

With analyzers removed, a photon pair either splits (one photon per side) or
bunches (both photons on one side).  Removing an analyzer sums its ports, so
both rates are sums of the twelve-outcome distribution: the opposite-side
outcomes split the pair and the same-side ones bunch it.  The two rates add
to one at fringe phase 0, so the interference that suppresses splitting of
identical photons shows up as enhanced bunching.  Same-side pairs carry
their own fringe in the pairing phase psi, and a single detector can also
swallow both photons at once (a double trigger).
"""

import math

from twophoton import (
    OPPOSITE,
    BeamSplitterSpec,
    InputSpec,
    full_outcome_distribution,
    p_same_arm,
    same_arm_probability,
)


def main() -> None:
    bs = BeamSplitterSpec.fifty_fifty()

    # ------------------------------------------------------------------
    # Splitting vs bunching as the photons are made distinguishable
    # ------------------------------------------------------------------
    print("split + bunch = 1 (no analyzers, fringe phase 0)")
    print(f"{'rel pol/deg':>12} {'p(split)':>10} {'p(bunch)':>10} {'sum':>8}")
    for deg in (0, 30, 45, 60, 90):
        inp = InputSpec.polarized(0.0, math.radians(deg))
        # every port of both analyzers, each at angle 0
        dist = full_outcome_distribution(inp, 0.0, 0.0, bs, phi=0.0, psi=0.0)
        split, bunch = dist[OPPOSITE].sum(), dist[~OPPOSITE].sum()
        print(f"{deg:12d} {split:10.6f} {bunch:10.6f} {split + bunch:8.4f}")
    print()

    # ------------------------------------------------------------------
    # The pairing fringe of a same-side detection
    # ------------------------------------------------------------------
    print("same-side pair rate vs pairing phase psi (identical photons,")
    print("both analyzers open along x):")
    inp = InputSpec.polarized(0.0, 0.0)
    print(f"{'psi/deg':>8} {'engine':>12} {'closed form':>12}")
    for deg in (0, 60, 90, 120, 180):
        psi = math.radians(deg)
        eng = same_arm_probability(inp, "side2", 0.0, 0.0, bs, psi)
        ana = p_same_arm(0.0, 0.0, 0.0, 0.0, bs, psi)
        print(f"{deg:8d} {eng:12.6f} {ana:12.6f}")
    print()

    # ------------------------------------------------------------------
    # Double triggers: both photons into one detector
    # ------------------------------------------------------------------
    print("double-trigger rate of a single detector behind an analyzer:")
    for deg in (0, 45, 90):
        theta = math.radians(deg)
        # a same-side pair whose two channels are this one detector, halved
        # because its two clicks are one event
        p = 0.5 * same_arm_probability(inp, "side1", theta, theta, bs, 0.0)
        print(f"  analyzer at {deg:3d} deg -> {p:.6f}")
    print()
    print("at 0 deg both pairings land in the open channel (rate 1/4); at")
    print("45 deg each photon passes with probability 1/2 (rate 1/16); at")
    print("90 deg the closed analyzer blocks everything.")


if __name__ == "__main__":
    main()
