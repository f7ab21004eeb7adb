#!/usr/bin/env python3
"""Fourth-order interference of a photon pair meeting at a beam splitter.

Two photons with identical polarization arrive on opposite sides.  A
coincidence (one click on each side) can happen in two ways - both photons
transmitted, or both reflected - and the two amplitudes interfere.  At the
symmetric detector position (fringe phase 0) they cancel exactly; sliding a
detector scans a fringe whose visibility depends on how alike the photons
are in polarization.
"""

import argparse
import math

from twophoton import (
    BeamSplitterSpec,
    InputSpec,
    coincidence_probability,
    p_coincidence,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=13, help="fringe-phase samples over one turn")
    args = parser.parse_args()

    bs = BeamSplitterSpec.fifty_fifty()
    inp = InputSpec.polarized(0.0, 0.0)  # identical x-polarized photons

    # ------------------------------------------------------------------
    # Fringe scan: aligned photons, aligned analyzers
    # ------------------------------------------------------------------
    print("fringe scan, identical photons (operator engine vs closed form)")
    print(f"{'phi/deg':>8} {'engine':>12} {'closed form':>12}")
    for k in range(args.steps):
        phi = 2.0 * math.pi * k / (args.steps - 1)
        eng = coincidence_probability(inp, 0.0, 0.0, bs, phi)
        ana = p_coincidence(0.0, 0.0, 0.0, 0.0, bs, phi)
        print(f"{math.degrees(phi):8.1f} {eng:12.6f} {ana:12.6f}")
    print()

    # ------------------------------------------------------------------
    # The dip fills in as the photons become distinguishable
    # ------------------------------------------------------------------
    print("zero-phase coincidence vs relative polarization of the photons")
    print(f"{'angle/deg':>10} {'p(coincidence)':>15}")
    for deg in (0, 15, 30, 45, 60, 75, 90):
        rel = math.radians(deg)
        p = coincidence_probability(InputSpec.polarized(0.0, rel), 0.0, rel, bs, phi=0.0)
        print(f"{deg:10d} {p:15.6f}")
    print()
    print("identical photons never split at phase 0; fully distinguishable")
    print("(crossed) photons reach the independent-particle value 1/4.")


if __name__ == "__main__":
    main()
