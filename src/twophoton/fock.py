"""Two-photon states over the four occupied input modes, and the amplitude rule.

Photon pairs enter the beam splitter from opposite sides, one photon per
side, and each side carries its own frequency slot, so only four input modes
are ever occupied: (side1, x), (side1, y), (side2, x), (side2, y), in that
order (`mode_index`).  A photon is a row vector over these modes, and so is
every detector field operator d = sum_m u_m a_m, which is linear in the
input annihilators.

For the product state |psi> = a^dag(p1) a^dag(p2)|0>, the pair amplitude
<0| d_a d_b |psi> is the permanent of the 2x2 matrix of overlaps,
(u_a.p1)(u_b.p2) + (u_a.p2)(u_b.p1): the standard amplitude rule of linear
optics (Scheel, quant-ph/0406127; Aaronson & Arkhipov, arXiv:1011.3245).
Every array argument broadcasts over leading batch axes.  Each photon's row
spans only its own angle's axes, so an overlap u.p runs once per (detector
row, photon row) pair and only the permanent runs over every point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

TOL = 1e-12  # repo-wide numeric tolerance

N_MODES = 4


class Arm(Enum):
    """Input/output side of the beam splitter."""

    SIDE1 = 0
    SIDE2 = 1


class Pol(Enum):
    """Linear polarization axis."""

    X = 0
    Y = 1


def mode_index(arm: Arm, pol: Pol) -> int:
    """Position of the occupied input mode (arm, pol) in every row vector."""
    return 2 * arm.value + pol.value


def _all_finite(v) -> bool:
    if isinstance(v, (int, float)):
        return math.isfinite(v)
    return bool(np.all(np.isfinite(v)))


@dataclass(frozen=True)
class IncidentPolarization:
    """Linear polarization angles (radians) of the photons on side 1 and side 2.

    The angles may be numpy arrays; they broadcast against each other.
    """

    theta1: float
    theta2: float

    def __post_init__(self) -> None:
        for name in ("theta1", "theta2"):
            v = getattr(self, name)
            if not _all_finite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")


def product_state(inc: IncidentPolarization) -> tuple[np.ndarray, np.ndarray]:
    """Row vectors (p1, p2) of the two photons of a linearly polarized pair.

    The side-1 photon is cos(theta1)|side1 x> + sin(theta1)|side1 y> and the
    side-2 photon likewise on the side-2 modes; the amplitude of the pattern
    with one photon in mode m1 and one in mode m2 is p1[m1] * p2[m2].

    Each row spans its own angle only: p1 is (*shape(theta1), 4) and p2 is
    (*shape(theta2), 4), and `vacuum_amplitude` broadcasts them.
    """
    p1, p2 = np.zeros(np.shape(inc.theta1) + (N_MODES,)), np.zeros(np.shape(inc.theta2) + (N_MODES,))
    p1[..., 0], p1[..., 1] = np.cos(inc.theta1), np.sin(inc.theta1)
    p2[..., 2], p2[..., 3] = np.cos(inc.theta2), np.sin(inc.theta2)
    return p1, p2


def vacuum_amplitude(
    u_a: np.ndarray, u_b: np.ndarray, state: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """<0| d_a d_b |psi> for detector rows u_a, u_b and photon rows (p1, p2).

    The 2x2 permanent (u_a.p1)(u_b.p2) + (u_a.p2)(u_b.p1); its squared
    magnitude is a joint detection probability.  Each dot product is four
    terms added left to right, the order `sum` takes over the mode axis.
    """
    p1, p2 = state
    a1, a2 = _dot(u_a, p1), _dot(u_a, p2)
    b1, b2 = _dot(u_b, p1), _dot(u_b, p2)
    return a1 * b2 + a2 * b1


def _dot(u: np.ndarray, p: np.ndarray) -> np.ndarray:
    return u[..., 0] * p[..., 0] + u[..., 1] * p[..., 1] + u[..., 2] * p[..., 2] + u[..., 3] * p[..., 3]
