"""Detection probabilities from the two-photon amplitude rule.

Every probability here comes from one mechanism: write each detector
operator as its row over the four occupied input modes
(`elements.analyzer_rows`), take the pair amplitude <0| d_a d_b |psi> of
the input product state, whose photon rows `InputSpec` holds, as a 2x2
permanent (`fock.vacuum_amplitude`), and square its magnitude.  A sum
over analyzer ports or over the two sides is one evaluation with the ports
or sides on broadcast axes, added in the order of a loop over them.  No
closed-form trigonometric shortcuts are used, so this module serves as the
independent oracle for `formulas`.

Unpolarized input is handled as an incoherent, equal-weight mixture of the
four basis polarization products; probabilities, never amplitudes, are
averaged.

Every angle, phase and splitter amplitude, and the arm of
`double_trigger_probability`, may be a numpy array: the arguments
broadcast, and the result is an array of the broadcast shape (a float when
every argument is scalar); `full_outcome_distribution` adds a last axis of
the twelve outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .elements import OTHER_SIDE, BeamSplitterSpec, PhaseGeometry, Port, Role, analyzer_rows
from .fock import Arm, product_state, vacuum_amplitude

HALF_PI = math.pi / 2.0

# Pair bookkeeping of a one-sided detection: the pair could equally have
# taken the other side.
ONE_SIDED = 0.5

# The four equally weighted polarization products that make up unpolarized
# light on both sides: (x,x), (x,y), (y,x), (y,y).
_UNPOLARIZED_WEIGHTS = np.full(4, 0.25)
_UNPOLARIZED_STATE = product_state(
    np.array([0.0, 0.0, HALF_PI, HALF_PI]), np.array([0.0, HALF_PI, 0.0, HALF_PI])
)


@dataclass(frozen=True)
class InputSpec:
    """Input light: a definite polarization product, or unpolarized on both sides.

    `polarization` holds the photon rows `fock.product_state` builds from
    the incident angles, or None for unpolarized light.
    """

    polarization: tuple[np.ndarray, np.ndarray] | None

    @classmethod
    def polarized(cls, theta1: float, theta2: float) -> "InputSpec":
        """Linearly polarized photons at theta1 (side 1) and theta2 (side 2),
        in radians; the angles may be arrays and broadcast."""
        return cls(product_state(theta1, theta2))

    @classmethod
    def unpolarized(cls) -> "InputSpec":
        return cls(None)


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


def _both_sides(u: np.ndarray) -> np.ndarray:
    """Side-1 rows u and their side-2 rows, on a new axis before the modes."""
    return np.stack((u, u[..., OTHER_SIDE]), axis=-2)


def _squared_amplitudes(inp: InputSpec, u_a: np.ndarray, u_b: np.ndarray, axes: int) -> np.ndarray:
    """|<0| d_a d_b |psi>|^2 for detector rows u_a, u_b.

    The last `axes` batch axes of the rows (ports, sides, outcomes) are ones
    the incident angles do not span.  Unpolarized input adds a last axis of
    its four components.
    """
    if inp.polarization is None:
        return np.abs(vacuum_amplitude(u_a[..., None, :], u_b[..., None, :], _UNPOLARIZED_STATE)) ** 2
    lift = (..., *(None,) * axes, slice(None))
    p1, p2 = inp.polarization
    return np.abs(vacuum_amplitude(u_a, u_b, (p1[lift], p2[lift]))) ** 2


def _detect(inp: InputSpec, u_a: np.ndarray, u_b: np.ndarray, axes: int = 0) -> np.ndarray:
    """Mixture-averaged |<0| d_a d_b |psi>|^2 for detector rows u_a, u_b
    (see `_squared_amplitudes` for `axes`).

    The components are added in order, so a batch of points rounds exactly
    as each of its points evaluated alone.
    """
    p = _squared_amplitudes(inp, u_a, u_b, axes)
    if inp.polarization is None:
        return (p * _UNPOLARIZED_WEIGHTS).sum(-1)
    return p


def _in_order(p: np.ndarray, axes: int) -> np.ndarray:
    """The sum over the last `axes` axes of p, its terms added one at a time
    in C order: the rounding of a Python `sum` over them."""
    return np.cumsum(p.reshape(*p.shape[: p.ndim - axes], -1), axis=-1)[..., -1]


def _result(p: np.ndarray) -> float | np.ndarray:
    return float(p) if p.ndim == 0 else p


def _pair_rows(
    arm: Arm, theta_a: float, theta_b: float, bs: BeamSplitterSpec, geom: PhaseGeometry, ports: tuple[Port, Port]
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the two detectors of a same-side pair on `arm`, at theta_a
    and theta_b and at the ports `ports`; the first row carries `geom.psi`."""
    u_a = analyzer_rows(Role.PAIR_FIRST, arm, theta_a, bs, geom, ports[:1])[..., 0, :]
    u_b = analyzer_rows(Role.PAIR_SECOND, arm, theta_b, bs, geom, ports[1:])[..., 0, :]
    return u_a, u_b


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
    u1 = analyzer_rows(Role.OPPOSITE, Arm.SIDE1, theta1, bs, geom, ports[:1])[..., 0, :]
    u2 = analyzer_rows(Role.OPPOSITE, Arm.SIDE2, theta2, bs, geom, ports[1:])[..., 0, :]
    return _result(_detect(inp, u1, u2))


def coincidence_no_polarizers(inp: InputSpec, bs: BeamSplitterSpec, geom: PhaseGeometry) -> float:
    """Opposite-side coincidence with analyzers removed.

    Removing an analyzer is summing its two ports, so this is the four-port
    sum of `coincidence_probability`, added in `Port` order; the analyzer
    angle drops out of the sum and is taken as 0.  The ports are axes of
    one evaluation.
    """
    # each side's rows of its two ports, in `Port` order, on an axis before the modes
    u1, u2 = (analyzer_rows(Role.OPPOSITE, arm, 0.0, bs, geom) for arm in Arm)
    return _result(_in_order(_detect(inp, u1[..., :, None, :], u2[..., None, :, :], axes=2), 2))


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
    u_a, u_b = _pair_rows(arm, theta_a, theta_b, bs, geom, ports)
    return _result(ONE_SIDED * _detect(inp, u_a, u_b))


def same_arm_both_arms(
    inp: InputSpec,
    theta_a: float,
    theta_b: float,
    bs: BeamSplitterSpec,
    geom: PhaseGeometry,
    ports: tuple[Port, Port] = (Port.PARALLEL, Port.PARALLEL),
) -> float:
    """Same-side pair probability summed over both sides at fixed port
    angles, side 1 first; the sides are an axis of one evaluation."""
    u_a, u_b = _pair_rows(Arm.SIDE1, theta_a, theta_b, bs, geom, ports)
    return _result(_in_order(ONE_SIDED * _detect(inp, _both_sides(u_a), _both_sides(u_b), axes=1), 1))


def same_arm_no_polarizers(inp: InputSpec, bs: BeamSplitterSpec, geom: PhaseGeometry) -> float:
    """Same-side pair probability, both sides, analyzers removed (all ports
    summed, so the analyzer angle drops out and is taken as 0).

    The four port pairs of `same_arm_both_arms` are added in `Port` order,
    and ports and sides are axes of one evaluation.
    """
    # first and second rows: (..., port, side, mode)
    u_a, u_b = (
        _both_sides(analyzer_rows(role, Arm.SIDE1, 0.0, bs, geom)) for role in (Role.PAIR_FIRST, Role.PAIR_SECOND)
    )
    p = ONE_SIDED * _detect(inp, u_a[..., :, None, :, :], u_b[..., None, :, :, :], axes=3)
    return _result(_in_order(_in_order(p, 1), 2))


def double_trigger_probability(
    inp: InputSpec, arm: Arm | np.ndarray, theta: float, bs: BeamSplitterSpec
) -> float:
    """Probability that a single detector on `arm` behind a theta analyzer
    registers both photons.  `arm` may be an array of `Arm`s, which
    broadcasts like every other argument.

    Both photons reach one detector, so the two pairings share one position
    and their relative phase is identically zero.  The squared vacuum
    amplitude of the repeated operator counts the ordered pairings twice and
    is halved, and the same one-sided 1/2 bookkeeping as in
    `same_arm_probability` applies.  One `analyzer_rows` call builds the
    detector's row on side 1: the parallel port's first row of a same-side
    pair at psi = 0.  On side 2 it is that row with the sides' modes swapped
    (`OTHER_SIDE`).
    """
    arms = np.asarray(arm, dtype=object)
    side2 = arms == Arm.SIDE2
    if not np.all(side2 | (arms == Arm.SIDE1)):
        raise ValueError(f"arm must be an Arm, got {arm!r}")
    u = analyzer_rows(Role.PAIR_FIRST, Arm.SIDE1, theta, bs, PhaseGeometry(), (Port.PARALLEL,))[..., 0, :]
    u = np.where(side2[..., None], u[..., OTHER_SIDE], u)
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
    part of this partition.

    The ten distinct detector rows come from five `analyzer_rows` calls,
    both ports each: side 1's opposite-side rows and each side's same-side
    pair.  A side-2 opposite-side row carries no phase, so it is the second
    row of side 2's pair at its port.  All twelve amplitudes come from one
    stacked evaluation.
    """
    d1 = analyzer_rows(Role.OPPOSITE, Arm.SIDE1, theta1, bs, geom)
    f1, s1, f2, s2 = (
        analyzer_rows(role, arm, theta, bs, geom)
        for arm, theta in ((Arm.SIDE1, theta1), (Arm.SIDE2, theta2))
        for role in (Role.PAIR_FIRST, Role.PAIR_SECOND)
    )
    # the detector rows of all twelve outcomes, in `all_outcomes()` order:
    # (..., 12, 4).  The first detector's port changes every second outcome
    # and the second detector's port every outcome.
    u_a = np.repeat(np.concatenate(np.broadcast_arrays(d1, f1, f2), axis=-2), 2, axis=-2)
    u_b = np.concatenate(np.broadcast_arrays(s2, s2, s1, s1, s2, s2), axis=-2)
    p = _squared_amplitudes(inp, u_a, u_b, axes=1)
    if inp.polarization is None:
        # Unlike `_detect`, the four components are added as
        # (p0 + p2) + (p1 + p3): the Monte Carlo counts drawn from the
        # distribution depend on this order.
        p = ((p[..., 0] + p[..., 2]) + (p[..., 1] + p[..., 3])) * 0.25
    return _FACTORS * p
