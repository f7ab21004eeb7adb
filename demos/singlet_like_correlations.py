#!/usr/bin/env python3
"""Unpolarized photon pairs leave the splitter with singlet-like correlations.

Feed unpolarized light into both sides and look only at coincidences (one
photon per side).  The post-selected pairs behave like a polarization
singlet: the coincidence rate depends only on the angle between the two
analyzers, vanishes when they are parallel (at fringe phase 0), and is
invariant under rotating both analyzers together.
"""

import math

import numpy as np

from twophoton import (
    BeamSplitterSpec,
    InputSpec,
    coincidence_probability,
    p_unpolarized_5050,
)


def main() -> None:
    bs = BeamSplitterSpec.fifty_fifty()
    unpol = InputSpec.unpolarized()
    phi = 0.0

    # ------------------------------------------------------------------
    # Rate vs analyzer difference: sin^2(difference)/8
    # ------------------------------------------------------------------
    print("coincidence rate vs analyzer difference (unpolarized input, phase 0)")
    print(f"{'diff/deg':>9} {'engine':>12} {'closed form':>12} {'sin^2/8':>12}")
    for deg in (0, 22.5, 45, 67.5, 90):
        d = math.radians(deg)
        eng = coincidence_probability(unpol, 0.0, d, bs, phi)
        ana = p_unpolarized_5050(0.0, d, 0.0)
        law = math.sin(d) ** 2 / 8.0
        print(f"{deg:9.1f} {eng:12.8f} {ana:12.8f} {law:12.8f}")
    print()

    # ------------------------------------------------------------------
    # Co-rotation invariance: only the difference matters
    # ------------------------------------------------------------------
    rng = np.random.default_rng(7)
    print("co-rotating both analyzers by a common offset leaves the rate fixed")
    base1, base2 = 0.2, 1.1
    reference = coincidence_probability(unpol, base1, base2, bs, phi)
    worst = 0.0
    for offset in rng.uniform(-math.pi, math.pi, size=8):
        p = coincidence_probability(unpol, base1 + offset, base2 + offset, bs, phi)
        worst = max(worst, abs(p - reference))
        print(f"  offset {math.degrees(offset):8.2f} deg -> rate {p:.10f}")
    print(f"largest deviation from the unrotated rate: {worst:.2e}")
    print()
    print("the post-selected pair is rotationally symmetric - the operational")
    print("signature of a singlet - even though the source is just two")
    print("independent unpolarized beams.")


if __name__ == "__main__":
    main()
