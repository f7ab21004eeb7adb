"""Closed-form detection probabilities.

Everything here is plain trigonometry in the incident polarization angles
(`pol1`, `pol2`), the analyzer angles (`ana1`, `ana2` or `ana_a`, `ana_b`),
the splitter amplitudes, and the fringe phases `phi`/`psi`.  These forms are
written down directly — they share no computation with `engine`, which
derives the same numbers by operator algebra; the two routes are compared
point by point in the tests and in `twophoton compare`.

Like the engine, every form broadcasts: angles, phases and splitter
amplitudes may be numpy arrays, and each element of the result is bitwise
the value of the scalar call at that element.

Functions without splitter arguments assume the 50:50 splitter.
`p_classical` is an unnormalized relative rate, not a probability.
"""

from __future__ import annotations

import numpy as np

from .elements import BeamSplitterSpec  # parameter container only

_FIFTY_FIFTY = BeamSplitterSpec.fifty_fifty()


def pair_path_amplitudes(
    pol1: float, pol2: float, ana1: float, ana2: float, bs: BeamSplitterSpec
) -> tuple[float, float]:
    """Amplitudes (A, B) of the both-transmitted and both-reflected
    coincidence paths."""
    c1p, s1p = np.cos(pol1), np.sin(pol1)
    c2p, s2p = np.cos(pol2), np.sin(pol2)
    c1, s1 = np.cos(ana1), np.sin(ana1)
    c2, s2 = np.cos(ana2), np.sin(ana2)
    a = (
        bs.tx**2 * c1p * c2p * c1 * c2
        + bs.ty**2 * s1p * s2p * s1 * s2
        + bs.tx * bs.ty * (c1p * s2p * c1 * s2 + s1p * c2p * s1 * c2)
    )
    b = (
        bs.rx**2 * c1p * c2p * c1 * c2
        + bs.ry**2 * s1p * s2p * s1 * s2
        + bs.rx * bs.ry * (c1p * s2p * s1 * c2 + s1p * c2p * c1 * s2)
    )
    return a, b


def p_coincidence(
    pol1: float, pol2: float, ana1: float, ana2: float, bs: BeamSplitterSpec, phi: float
) -> float:
    """Opposite-side coincidence probability A^2 + B^2 - 2AB cos(phi)."""
    a, b = pair_path_amplitudes(pol1, pol2, ana1, ana2, bs)
    return a * a + b * b - 2.0 * a * b * np.cos(phi)


def p_no_polarizers(pol1: float, pol2: float, phi: float) -> float:
    """Opposite-side coincidence with analyzers removed, 50:50 splitter.

    At phi = 0 this is sin^2(pol1 - pol2)/2; for general phi it is the
    four-port sum of `p_coincidence` (the analyzer angles drop out).
    """
    d = np.sin(pol1 - pol2)
    half = np.pi / 2.0
    summed = sum(
        p_coincidence(pol1, pol2, da, db, _FIFTY_FIFTY, phi)
        for da in (0.0, half)
        for db in (0.0, half)
    )
    # the exact form at phi = 0 is kept: the four-port sum differs from it
    # in the last bit at most points; [()] unwraps a scalar call's 0-d result
    return np.where(phi == 0.0, 0.5 * d * d, summed)[()]


def bunch_path_amplitudes(
    pol1: float, pol2: float, ana_a: float, ana_b: float, bs: BeamSplitterSpec
) -> tuple[float, float]:
    """Pairing amplitudes (C, D) for both photons leaving on side 2: C pairs
    photons with detectors as the channel labels do, D swaps them.

    Both pairings start with the same two terms, the ones with both photons
    on one axis (both x or both y); they differ in the two mixed terms.
    """
    c1p, s1p = np.cos(pol1), np.sin(pol1)
    c2p, s2p = np.cos(pol2), np.sin(pol2)
    ca, sa = np.cos(ana_a), np.sin(ana_a)
    cb, sb = np.cos(ana_b), np.sin(ana_b)
    shared = bs.tx * bs.rx * c1p * c2p * ca * cb + bs.ty * bs.ry * s1p * s2p * sa * sb
    c = shared + bs.tx * bs.ry * s1p * c2p * sa * cb + bs.ty * bs.rx * c1p * s2p * ca * sb
    d = shared + bs.tx * bs.ry * s1p * c2p * ca * sb + bs.ty * bs.rx * c1p * s2p * sa * cb
    return c, d


def p_same_arm(
    pol1: float,
    pol2: float,
    ana_a: float,
    ana_b: float,
    bs: BeamSplitterSpec,
    psi: float,
) -> float:
    """Same-side pair probability (C^2 + D^2 + 2CD cos(psi))/2."""
    c, d = bunch_path_amplitudes(pol1, pol2, ana_a, ana_b, bs)
    return 0.5 * (c * c + d * d + 2.0 * c * d * np.cos(psi))


def p_same_arm_no_polarizers(pol1: float, pol2: float) -> float:
    """Same-side pairs, both sides, analyzers removed: (1 + cos^2(pol1-pol2))/2.

    50:50 splitter, coincident-fringe geometry (psi = 0).
    """
    c = np.cos(pol1 - pol2)
    return 0.5 * (1.0 + c * c)


def p_double_trigger(pol1: float, pol2: float, theta: float) -> float:
    """Single-detector double trigger behind a theta analyzer, 50:50 splitter.

    (1/4) cos^2(pol1-theta) cos^2(pol2-theta): the same-side pair form
    (1/8) cos^2 cos^2 (1 + cos(psi)) at psi = 0, since both pairings share
    one detector position.
    """
    c1 = np.cos(pol1 - theta)
    c2 = np.cos(pol2 - theta)
    return 0.25 * c1 * c1 * c2 * c2


def p_unpolarized(ana1: float, ana2: float, bs: BeamSplitterSpec, phi: float) -> float:
    """Opposite-side coincidence for unpolarized light on both sides."""
    c1, s1 = np.cos(ana1), np.sin(ana1)
    c2, s2 = np.cos(ana2), np.sin(ana2)
    c1sq, s1sq = c1 * c1, s1 * s1
    c2sq, s2sq = c2 * c2, s2 * s2
    through = 0.25 * (bs.tx**2 * c1sq + bs.ty**2 * s1sq) * (bs.tx**2 * c2sq + bs.ty**2 * s2sq)
    bounced = 0.25 * (bs.rx**2 * c1sq + bs.ry**2 * s1sq) * (bs.rx**2 * c2sq + bs.ry**2 * s2sq)
    cross = bs.tx * bs.rx * c1 * c2 + bs.ty * bs.ry * s1 * s2
    return through + bounced - 0.5 * cross * cross * np.cos(phi)


def p_unpolarized_5050(
    ana1: float, ana2: float, phi: float, prefactor: float = 0.125
) -> float:
    """50:50 reduction of `p_unpolarized`: (1/8)[1 - cos(phi) cos^2(ana2-ana1)].

    `prefactor` exposes the leading constant so self-test tooling can inject
    a deliberately wrong value as a negative control.
    """
    c = np.cos(ana2 - ana1)
    return prefactor * (1.0 - np.cos(phi) * c * c)


def p_unpolarized_same_arm(ana_a: float, ana_b: float) -> float:
    """Same-side pairs for unpolarized light, both sides summed, at fixed
    port angles: (1/8)[1 + cos^2(ana_a - ana_b)].  50:50 splitter, psi = 0."""
    c = np.cos(ana_a - ana_b)
    return 0.125 * (1.0 + c * c)


def p_classical(ana1: float, ana2: float, phi: float) -> float:
    """Classical-field coincidence benchmark (unnormalized relative rate):
    3 + 2(1 - cos(phi)) cos^2(ana2 - ana1).  Never drops below 3, while the
    quantum rate at phi = 0 reaches 0."""
    c = np.cos(ana2 - ana1)
    return 3.0 + 2.0 * (1.0 - np.cos(phi)) * c * c
