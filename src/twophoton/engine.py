"""Detection probabilities from the two-photon amplitude rule.

Every probability here comes from one mechanism: write each detector
operator as its row over the four occupied input modes (`elements`), take
the pair amplitude <0| d_a d_b |psi> of the input product state as a 2x2
permanent (`fock.vacuum_amplitude`), and square its magnitude.  No
closed-form trigonometric shortcuts are used, so this module serves as the
independent oracle for `formulas`.

Unpolarized input is handled as an incoherent, equal-weight mixture of the
four basis polarization products; probabilities, never amplitudes, are
averaged.

Every angle, phase and splitter amplitude may be a numpy array: the
arguments broadcast, and the result is an array of the broadcast shape (a
float when every argument is scalar); `full_outcome_distribution` adds a
last axis of the twelve outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .elements import (
    AnalyzerSetting,
    BeamSplitterSpec,
    PhaseGeometry,
    Port,
    detector_operator,
    same_arm_operator_pair,
)
from .fock import Arm, IncidentPolarization, product_state, vacuum_amplitude

HALF_PI = math.pi / 2.0

# Pair bookkeeping of a one-sided detection: the pair could equally have
# taken the other side.
ONE_SIDED = 0.5

# The four equally weighted polarization products that make up unpolarized
# light on both sides: (x,x), (x,y), (y,x), (y,y).
_UNPOLARIZED_WEIGHTS = np.full(4, 0.25)
_UNPOLARIZED_STATE = product_state(
    IncidentPolarization(np.array([0.0, 0.0, HALF_PI, HALF_PI]), np.array([0.0, HALF_PI, 0.0, HALF_PI]))
)


@dataclass(frozen=True)
class InputSpec:
    """Input light: a definite polarization product, or unpolarized on both sides."""

    polarization: IncidentPolarization | None

    @classmethod
    def polarized(cls, theta1: float, theta2: float) -> "InputSpec":
        return cls(IncidentPolarization(theta1, theta2))

    @classmethod
    def unpolarized(cls) -> "InputSpec":
        return cls(None)

    def components(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Weights (C,) and photon rows (..., C, 4) of the pure components
        whose probabilities are averaged.  For polarized input each row's
        leading axes are its own angle's, (*shape(theta1), 1, 4) and
        (*shape(theta2), 1, 4), which broadcast against each other."""
        if self.polarization is None:
            return _UNPOLARIZED_WEIGHTS, _UNPOLARIZED_STATE
        p1, p2 = product_state(self.polarization)
        return np.ones(1), (p1[..., None, :], p2[..., None, :])


class OutcomeKind(Enum):
    OPPOSITE = 0
    SAME_ARM = 1


@dataclass(frozen=True)
class Outcome:
    """One exclusive pair-detection outcome.

    OPPOSITE: one click on each side; port1/port2 are the side-1/side-2
    analyzer ports.  SAME_ARM: both clicks on `arm`; port1/port2 are the
    ports of its two frequency channels (w1, w2).
    """

    kind: OutcomeKind
    port1: Port
    port2: Port
    arm: Arm | None = None

    def __post_init__(self) -> None:
        if self.kind is OutcomeKind.SAME_ARM and self.arm is None:
            raise ValueError("same-arm outcome needs an arm")
        if self.kind is OutcomeKind.OPPOSITE and self.arm is not None:
            raise ValueError("opposite-arm outcome must not carry an arm")

    def label(self) -> str:
        p = {Port.PARALLEL: "par", Port.PERPENDICULAR: "perp"}
        if self.kind is OutcomeKind.OPPOSITE:
            return f"side1[{p[self.port1]}]+side2[{p[self.port2]}]"
        return f"{self.arm.name.lower()}[w1:{p[self.port1]}+w2:{p[self.port2]}]"


def all_outcomes() -> tuple[Outcome, ...]:
    """The twelve exclusive pair outcomes in canonical order: the four
    opposite-side outcomes, then side 1's and side 2's four same-side ones,
    ports in `Port` order."""
    out = [
        Outcome(OutcomeKind.OPPOSITE, p1, p2) for p1 in Port for p2 in Port
    ]
    for arm in Arm:
        out.extend(Outcome(OutcomeKind.SAME_ARM, pa, pb, arm) for pa in Port for pb in Port)
    return tuple(out)


_OUTCOMES = all_outcomes()
# The opposite-side outcomes, as a mask over the last axis of a distribution
# or of its counts.
OPPOSITE = np.array([o.kind is OutcomeKind.OPPOSITE for o in _OUTCOMES])
OPPOSITE.setflags(write=False)
_FACTORS = np.where(OPPOSITE, 1.0, ONE_SIDED)


def _detect(inp: InputSpec, u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    """Mixture-averaged |<0| d_a d_b |psi>|^2 for detector rows u_a, u_b.

    The components are added in order, so a batch of points rounds exactly
    as each of its points evaluated alone.
    """
    weights, state = inp.components()
    amp = vacuum_amplitude(u_a[..., None, :], u_b[..., None, :], state)
    return (np.abs(amp) ** 2 * weights).sum(-1)


def _result(p: np.ndarray) -> float | np.ndarray:
    return float(p) if p.ndim == 0 else p


def coincidence_probability(
    inp: InputSpec,
    theta1: float,
    theta2: float,
    bs: BeamSplitterSpec,
    geom: PhaseGeometry,
    ports: tuple[Port, Port] = (Port.PARALLEL, Port.PARALLEL),
) -> float:
    """Joint click probability, one detector on each side.

    Side-1 analyzer at theta1, side-2 at theta2 (given ports); the fringe
    phase `geom.phi` sets the relative phase of the two contributing paths.
    """
    u1 = detector_operator(AnalyzerSetting(Arm.SIDE1, theta1, ports[0]), bs, geom)
    u2 = detector_operator(AnalyzerSetting(Arm.SIDE2, theta2, ports[1]), bs, geom)
    return _result(_detect(inp, u1, u2))


def coincidence_no_polarizers(inp: InputSpec, bs: BeamSplitterSpec, geom: PhaseGeometry) -> float:
    """Opposite-side coincidence with analyzers removed.

    Removing an analyzer is summing its two ports, so this is the four-port
    sum of `coincidence_probability`; the analyzer angle drops out of the
    sum and is taken as 0.
    """
    return sum(
        coincidence_probability(inp, 0.0, 0.0, bs, geom, (p1, p2))
        for p1 in Port
        for p2 in Port
    )


def same_arm_probability(
    inp: InputSpec,
    arm: Arm,
    theta_a: float,
    theta_b: float,
    bs: BeamSplitterSpec,
    geom: PhaseGeometry,
    ports: tuple[Port, Port] = (Port.PARALLEL, Port.PARALLEL),
) -> float:
    """Probability that both photons exit on `arm` and its two frequency-channel
    detectors fire at analyzer angles (theta_a, theta_b).

    `geom.psi` is the relative phase between the two photon-to-detector
    pairings.  The leading `ONE_SIDED` = 1/2 is the pair bookkeeping of a
    one-sided detection.
    """
    u_a, u_b = same_arm_operator_pair(arm, (theta_a, theta_b), bs, geom, ports)
    return _result(ONE_SIDED * _detect(inp, u_a, u_b))


def same_arm_both_arms(
    inp: InputSpec,
    theta_a: float,
    theta_b: float,
    bs: BeamSplitterSpec,
    geom: PhaseGeometry,
    ports: tuple[Port, Port] = (Port.PARALLEL, Port.PARALLEL),
) -> float:
    """Same-side pair probability summed over both sides at fixed port angles."""
    return sum(
        same_arm_probability(inp, arm, theta_a, theta_b, bs, geom, ports) for arm in Arm
    )


def same_arm_no_polarizers(inp: InputSpec, bs: BeamSplitterSpec, geom: PhaseGeometry) -> float:
    """Same-side pair probability, both sides, analyzers removed (all ports
    summed, so the analyzer angle drops out and is taken as 0)."""
    return sum(
        same_arm_both_arms(inp, 0.0, 0.0, bs, geom, (pa, pb))
        for pa in Port
        for pb in Port
    )


def double_trigger_probability(
    inp: InputSpec, arm: Arm, theta: float, bs: BeamSplitterSpec
) -> float:
    """Probability that a single detector on `arm` behind a theta analyzer
    registers both photons.

    Both photons reach one detector, so the two pairings share one position
    and their relative phase is identically zero.  The squared vacuum
    amplitude of the repeated operator counts the ordered pairings twice and
    is halved, and the same one-sided 1/2 bookkeeping as in
    `same_arm_probability` applies.
    """
    u, _ = same_arm_operator_pair(arm, (theta, theta), bs, PhaseGeometry(0.0, 0.0))
    return _result(0.5 * ONE_SIDED * _detect(inp, u, u))


def full_outcome_distribution(
    inp: InputSpec,
    theta1: float,
    theta2: float,
    bs: BeamSplitterSpec,
    geom: PhaseGeometry,
) -> np.ndarray:
    """Probabilities of the twelve exclusive pair outcomes, on a last axis
    in `all_outcomes()` order.

    All analyzers on side 1 sit at theta1 and all on side 2 at theta2.
    Opposite-side entries use `geom.phi`, same-side entries `geom.psi`; the
    partition sums to one exactly when the two fringe phases agree
    (cos(phi) = cos(psi), e.g. the symmetric geometry phi = psi), which is
    the regime where the twelve outcomes are one experiment's event space.
    Single-detector double triggers are a different event space and are not
    part of this partition.  Each of the ten distinct detector rows is
    built once: the four same-side row pairs (side x port) and the two
    side-1 opposite-side rows (one per port); a side-2 opposite-side row is
    the second row of side 2's pair at its port.  The twelve outcomes index
    them, and all twelve amplitudes come from one stacked evaluation.
    """
    sides = ((Arm.SIDE1, theta1), (Arm.SIDE2, theta2))
    # same[arm, port] = (first, second): the rows of a same-side pair with both ports at `port`
    same = {
        (arm, port): same_arm_operator_pair(arm, (theta, theta), bs, geom, (port, port))
        for arm, theta in sides
        for port in Port
    }
    side1 = {port: detector_operator(AnalyzerSetting(Arm.SIDE1, theta1, port), bs, geom) for port in Port}
    pairs = [
        # a side-2 detector row carries no phase: it is the second row of side 2's pair at its port
        (side1[o.port1], same[Arm.SIDE2, o.port2][1])
        if o.kind is OutcomeKind.OPPOSITE
        else (same[o.arm, o.port1][0], same[o.arm, o.port2][1])
        for o in _OUTCOMES
    ]
    # the detector rows of all twelve outcomes, stacked: (..., 12, 1, 4)
    u_a, u_b = (np.stack(np.broadcast_arrays(*rows), axis=-2)[..., None, :] for rows in zip(*pairs))
    _, (p1, p2) = inp.components()
    p = np.abs(vacuum_amplitude(u_a, u_b, (p1[..., None, :, :], p2[..., None, :, :]))) ** 2
    if inp.polarization is None:
        # Unlike `_detect`, the four components are added as
        # (p0 + p2) + (p1 + p3): the Monte Carlo counts drawn from the
        # distribution depend on this order.
        p = ((p[..., 0] + p[..., 2]) + (p[..., 1] + p[..., 3])) * 0.25
    else:
        p = p[..., 0]
    return _FACTORS * p
