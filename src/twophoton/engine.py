"""Detection probabilities from the two-photon amplitude rule.

Every probability here comes from one mechanism: write each detector
operator as its row over the four occupied input modes
(`elements.analyzer_rows`), take the pair amplitude <0| d_a d_b |psi> of
the input product state, whose photon rows `InputSpec` holds, as a 2x2
permanent (`fock.vacuum_amplitude`), and square its magnitude.  No
closed-form trigonometric shortcuts are used, so this module serves as the
independent oracle for `formulas`.

Unpolarized input is handled as an incoherent, equal-weight mixture of the
four basis polarization products; probabilities, never amplitudes, are
averaged.

Every angle, phase and splitter amplitude, and the arm of
`same_arm_probability`, may be a numpy array: the arguments broadcast, and
the result is an array of the broadcast shape (a float when every argument
is scalar);
`full_outcome_distribution` adds a last axis of the twelve outcomes, whose
labels `OUTCOMES` holds in the same order.

Each function takes the one fringe phase it reads, in radians: `phi` for
an opposite-side coincidence, `psi` for a same-side pair and both for
`full_outcome_distribution`.

An analyzer port is an index on a row axis, not an argument: the single
probabilities read the parallel port (index 0), and a perpendicular port at
theta is the parallel port at theta + pi/2.  Removing an analyzer sums its
two ports, so a rate without analyzers is a sum of the entries of
`full_outcome_distribution` at analyzer angle 0, which span both ports of
every detector on both sides.  A side is an index swap, not a second build:
a side-2 row is its side-1 row indexed by `OTHER_SIDE`.  A function whose
side is fixed indexes the rows directly; every other side selection goes
through `_on_arm`.  A side is named by the same label the `arm` config key
takes, "side1" or "side2", the prefixes of the `OUTCOMES` labels; an array
of labels puts sides on an axis of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elements import OTHER_SIDE, BeamSplitterSpec, analyzer_rows
from .fock import N_MODES, product_state, vacuum_amplitude

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


_PORT_NAMES = ("par", "perp")  # port index 0 and 1 of `analyzer_rows`

# The labels of the twelve exclusive pair outcomes, in the order of a
# distribution's last axis: the four opposite-side ones (one click on each
# side, at the side-1 and side-2 analyzer ports), then side 1's and side 2's
# four same-side ones (both clicks on that side, at the ports of its two
# frequency channels w1, w2).  Within a group the first port changes every
# second outcome and the second port every outcome.
OUTCOMES = (
    *(f"side1[{a}]+side2[{b}]" for a in _PORT_NAMES for b in _PORT_NAMES),
    *(f"{side}[w1:{a}+w2:{b}]" for side in ("side1", "side2") for a in _PORT_NAMES for b in _PORT_NAMES),
)
# The opposite-side outcomes, as a mask over the last axis of a distribution
# or of its counts.
OPPOSITE = np.arange(len(OUTCOMES)) < 4
OPPOSITE.setflags(write=False)
_FACTORS = np.where(OPPOSITE, 1.0, ONE_SIDED)


def _on_arm(u: np.ndarray, arm: str | np.ndarray) -> np.ndarray:
    """Side-1 rows u moved to `arm`: unchanged on side 1, their sides' modes
    swapped on side 2.  `arm` may be an array of labels; it broadcasts
    against the rows' leading axes."""
    arms = np.asarray(arm)
    side2 = arms == "side2"
    if not np.all(side2 | (arms == "side1")):
        raise ValueError(f"arm must be 'side1' or 'side2', got {arm!r}")
    return np.where(side2[..., None], u[..., OTHER_SIDE], u)


def _squared_amplitudes(inp: InputSpec, u_a: np.ndarray, u_b: np.ndarray, axes: int) -> np.ndarray:
    """|<0| d_a d_b |psi>|^2 for detector rows u_a, u_b.

    The last `axes` batch axes of the rows (a distribution's outcomes) are
    ones the incident angles do not span.  Unpolarized input adds a last
    axis of its four components.
    """
    if inp.polarization is None:
        return np.abs(vacuum_amplitude(u_a[..., None, :], u_b[..., None, :], _UNPOLARIZED_STATE)) ** 2
    lift = (..., *(None,) * axes, slice(None))
    p1, p2 = inp.polarization
    return np.abs(vacuum_amplitude(u_a, u_b, (p1[lift], p2[lift]))) ** 2


def _detect(inp: InputSpec, u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    """Mixture-averaged |<0| d_a d_b |psi>|^2 for detector rows u_a, u_b,
    whose batch axes all broadcast against the incident angles'.

    The components are added in order, so a batch of points rounds exactly
    as each of its points evaluated alone.
    """
    p = _squared_amplitudes(inp, u_a, u_b, 0)
    if inp.polarization is None:
        return (p * _UNPOLARIZED_WEIGHTS).sum(-1)
    return p


def _in_order(p: np.ndarray) -> np.ndarray:
    """The sum over the last axis of p, its terms added one at a time: the
    rounding of a Python `sum` over them."""
    return np.cumsum(p, axis=-1)[..., -1]


def _result(p: np.ndarray) -> float | np.ndarray:
    return float(p) if p.ndim == 0 else p


def coincidence_probability(
    inp: InputSpec,
    theta1: float,
    theta2: float,
    bs: BeamSplitterSpec,
    phi: float,
) -> float:
    """Joint click probability, one detector on each side.

    Side-1 analyzer at theta1, side-2 at theta2 (parallel ports); the fringe
    phase `phi` sets the relative phase of the two contributing paths.
    """
    u1 = analyzer_rows(theta1, bs, phi=phi)[..., 0, :]
    u2 = analyzer_rows(theta2, bs)[..., 0, OTHER_SIDE]
    return _result(_detect(inp, u1, u2))


def same_arm_probability(
    inp: InputSpec,
    arm: str | np.ndarray,
    theta_a: float,
    theta_b: float,
    bs: BeamSplitterSpec,
    psi: float,
) -> float:
    """Probability that both photons exit on `arm` and its two frequency-channel
    detectors fire behind the parallel ports of analyzers at (theta_a, theta_b).
    `arm` may be an array of labels, which broadcasts like every other
    argument.

    `psi` is the relative phase between the two photon-to-detector
    pairings.  The leading `ONE_SIDED` = 1/2 is the pair bookkeeping of a
    one-sided detection.
    """
    # the parallel-port rows of the pair's two detectors; the first carries psi
    u_a = _on_arm(analyzer_rows(theta_a, bs, psi=psi)[..., 0, :], arm)
    u_b = _on_arm(analyzer_rows(theta_b, bs)[..., 0, :], arm)
    return _result(ONE_SIDED * _detect(inp, u_a, u_b))


def full_outcome_distribution(
    inp: InputSpec,
    theta1: float,
    theta2: float,
    bs: BeamSplitterSpec,
    phi: float,
    psi: float,
) -> np.ndarray:
    """Probabilities of the twelve exclusive pair outcomes, on a last axis
    in `OUTCOMES` order.

    All analyzers on side 1 sit at theta1 and all on side 2 at theta2.
    Opposite-side entries use `phi`, same-side entries `psi`; the
    partition sums to one exactly when the two fringe phases agree
    (cos(phi) = cos(psi), e.g. the symmetric geometry phi = psi), which is
    the regime where the twelve outcomes are one experiment's event space.
    Single-detector double triggers are a different event space and are not
    part of this partition.

    The ten distinct detector rows come from five `analyzer_rows` calls,
    both ports each: side 1's opposite-side rows and each side's same-side
    pair, side 2's swapped by `OTHER_SIDE`.  A side-2 opposite-side row
    carries no phase, so it is the second row of side 2's pair at its port.
    All twelve amplitudes come from one stacked evaluation.
    """
    d1 = analyzer_rows(theta1, bs, phi=phi)
    f1, s1 = analyzer_rows(theta1, bs, psi=psi), analyzer_rows(theta1, bs)
    f2, s2 = analyzer_rows(theta2, bs, psi=psi)[..., OTHER_SIDE], analyzer_rows(theta2, bs)[..., OTHER_SIDE]
    # the detector rows of all twelve outcomes, in `OUTCOMES` order: three
    # groups, each over the first detector's port, then the second's
    lead_a, lead_b = np.broadcast(d1, f1, f2).shape[:-2], np.broadcast(s1, s2).shape[:-2]
    u_a = np.empty((*lead_a, 3, 2, 2, N_MODES), dtype=complex)
    u_b = np.empty((*lead_b, 3, 2, 2, N_MODES), dtype=complex)
    for group, (first, second) in enumerate(((d1, s2), (f1, s1), (f2, s2))):
        u_a[..., group, :, :, :] = first[..., :, None, :]
        u_b[..., group, :, :, :] = second[..., None, :, :]
    u_a, u_b = u_a.reshape(*lead_a, 12, N_MODES), u_b.reshape(*lead_b, 12, N_MODES)
    p = _squared_amplitudes(inp, u_a, u_b, axes=1)
    if inp.polarization is None:
        # Unlike `_detect`, the four components are added as
        # (p0 + p2) + (p1 + p3): the Monte Carlo counts drawn from the
        # distribution depend on this order.
        p = ((p[..., 0] + p[..., 2]) + (p[..., 1] + p[..., 3])) * 0.25
    return _FACTORS * p
