"""Click-level Monte Carlo sampling of pair-detection outcomes.

Pairs are independent: each drawn pair selects one outcome from a
distribution, the twelve probabilities of `full_outcome_distribution` in
`all_outcomes()` order; then every detector of that outcome fires
independently with the configured efficiency, and the outcome is recorded
only if all its detectors fired.

Determinism and sharding: the run is cut into fixed blocks of
`BLOCK_PAIRS` pairs.  Block j uses the counter-based Philox generator keyed
by SeedSequence(seed, spawn_key=(j,)) — algorithm id "philox4x64/block-v1".
Blocks are the atomic unit of work, so distributing them over any number of
workers and adding the counts reproduces the single-process result exactly.
Within a block the uniform draws are consumed in a fixed order (outcome
draw, then one efficiency draw per detector), and efficiency draws are made
even at efficiency 1 so that runs with the same seed share their random
numbers across efficiency settings.  block-v1 fixes only these draws: how a
block tallies them into outcome counts is free to change, as long as the
counts stay the same.  The counts also depend on the last bit of every
probability, so on the order in which `full_outcome_distribution` adds the
four components of unpolarized light: (p0 + p2) + (p1 + p3).

The efficiency lies in (0, 1], with efficiency**2 > 0, wherever a run or
its counts are used: every estimate divides by efficiency**2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import Outcome, all_outcomes
from .fock import TOL

BLOCK_PAIRS = 1 << 16

RNG_ALGORITHM = "philox4x64/block-v1"

OUTCOMES = all_outcomes()


@dataclass(frozen=True)
class RunConfig:
    """Simulated run: emitted pair count, detector efficiency, and the seed
    that fully determines the run."""

    n_pairs: int
    efficiency: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_pairs < 0:
            raise ValueError(f"n_pairs must be >= 0, got {self.n_pairs}")
        _check_efficiency(self.efficiency)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class CountTable:
    """Recorded counts per outcome, plus the run bookkeeping needed to turn
    them back into probabilities."""

    counts: dict[Outcome, int]
    n_emitted: int
    efficiency: float

    def __post_init__(self) -> None:
        _check_efficiency(self.efficiency)


@dataclass(frozen=True)
class OutcomeEstimate:
    """Efficiency-corrected probability estimate for one outcome."""

    probability: float
    stderr: float
    n_recorded: int
    zero_count: bool  # no events recorded; estimate is a lower-bound 0


def _check_efficiency(efficiency: float) -> None:
    if not (0.0 < efficiency <= 1.0 and efficiency**2 > 0.0):
        raise ValueError(f"efficiency must lie in (0, 1] with efficiency**2 > 0, got {efficiency!r}")


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(block,))))


def sample_run(probs: np.ndarray, cfg: RunConfig) -> CountTable:
    """Draw cfg.n_pairs pairs from the twelve outcome probabilities `probs`
    (in `all_outcomes()` order) and tally recorded outcomes."""
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (len(OUTCOMES),):
        raise ValueError(f"expected {len(OUTCOMES)} outcome probabilities, got shape {probs.shape}")
    if np.any(probs < -TOL):
        k = int(np.argmin(probs))
        raise ValueError(f"negative probability {float(probs[k])!r} for {OUTCOMES[k].label()}")
    total = float(np.cumsum(probs)[-1])
    if not abs(total - 1.0) <= TOL:
        raise ValueError(f"distribution must be normalized to sample, total={total!r}")
    edges = np.cumsum(np.maximum(probs, 0.0))
    edges[-1] = 1.0  # guard the final edge against rounding
    # below[k] counts the recorded draws u < edges[k], i.e. those in outcomes
    # 0..k; the final edge is 1.0 > u, so a cumulative sum that rounds past
    # 1.0 before it only empties the outcomes after the crossing.
    below = np.zeros(len(OUTCOMES), dtype=np.int64)
    n_blocks = (cfg.n_pairs + BLOCK_PAIRS - 1) // BLOCK_PAIRS
    for block in range(n_blocks):
        start = block * BLOCK_PAIRS
        m = min(BLOCK_PAIRS, cfg.n_pairs - start)
        rng = _block_rng(cfg.seed, block)
        u = rng.random(m)
        fired = rng.random(m) < cfg.efficiency
        fired &= rng.random(m) < cfg.efficiency
        u = u[fired]
        below += [np.count_nonzero(u < edge) for edge in edges]
    counts = np.diff(below, prepend=0)
    return CountTable(
        counts={o: int(c) for o, c in zip(OUTCOMES, counts)},
        n_emitted=cfg.n_pairs,
        efficiency=cfg.efficiency,
    )


def estimate(table: CountTable) -> dict[Outcome, OutcomeEstimate]:
    """Efficiency-corrected probability estimates with binomial standard errors.

    The correction divides by efficiency**n_detectors (all detectors of an
    outcome must fire for it to be recorded).  Outcomes with zero recorded
    counts are flagged; their estimate and error are reported as 0.
    """
    if table.n_emitted <= 0:
        raise ValueError("cannot estimate from a run with no emitted pairs")
    n = table.n_emitted
    out: dict[Outcome, OutcomeEstimate] = {}
    for outcome, count in table.counts.items():
        correction = table.efficiency**outcome.n_detectors
        if count == 0:
            out[outcome] = OutcomeEstimate(0.0, 0.0, 0, True)
            continue
        p_rec = count / n
        se_rec = math.sqrt(p_rec * (1.0 - p_rec) / n)
        out[outcome] = OutcomeEstimate(p_rec / correction, se_rec / correction, count, False)
    return out


def consistency_z(est: OutcomeEstimate, p_true: float, n_emitted: int, efficiency: float) -> float:
    """Deviation of an estimate from a reference probability in units of the
    binomial standard deviation of the recorded rate."""
    _check_efficiency(efficiency)
    p_rec = p_true * efficiency**2
    sigma = math.sqrt(p_rec * (1.0 - p_rec) / n_emitted) / efficiency**2
    if sigma == 0.0:
        return 0.0 if est.probability == p_true else math.inf
    return (est.probability - p_true) / sigma


def pearson_chi2(table: CountTable, probs: np.ndarray) -> tuple[float, int]:
    """Pearson chi-square of a run against the twelve outcome probabilities
    `probs` (in `all_outcomes()` order) it was drawn from.

    The cells are the outcomes plus the pairs not recorded: outcome o has
    probability p_o * efficiency**2 and the unrecorded cell the rest.  A cell
    whose probability is at most TOL cannot hold counts; it is left out of
    the sum and of the degrees of freedom (the remaining cells less one, 12
    when all twelve outcomes can occur at efficiency below 1), and a count
    in it makes the statistic infinite.
    """
    n = table.n_emitted
    if n <= 0:
        raise ValueError("cannot test a run with no emitted pairs")
    q = np.asarray(probs, dtype=float) * table.efficiency**2
    q = np.append(q, 1.0 - q.sum())
    observed = np.array([table.counts.get(o, 0) for o in OUTCOMES])
    observed = np.append(observed, n - observed.sum())
    live = q > TOL
    dof = int(live.sum()) - 1
    if np.any(observed[~live]):
        return math.inf, dof
    expected = n * q[live]
    return float(np.sum((observed[live] - expected) ** 2 / expected)), dof
