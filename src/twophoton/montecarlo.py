"""Click-level Monte Carlo sampling of pair-detection outcomes.

Pairs are independent: each drawn pair selects one outcome from a
distribution, the twelve probabilities of `full_outcome_distribution` in
`OUTCOMES` order; then every detector of that outcome fires
independently with the configured efficiency, and the outcome is recorded
only if all its detectors fired.

Determinism and sharding: the run is cut into fixed blocks of
`BLOCK_PAIRS` pairs.  Block j uses the counter-based Philox generator keyed
by SeedSequence(seed, spawn_key=(j,)) — algorithm id "philox4x64/block-v1".
Blocks are the atomic unit of work, so distributing them over any number of
workers and adding the counts reproduces the single-process result exactly.
Within a block the draws follow a fixed order: the outcome draw, then one
efficiency draw per detector.  The efficiency draws are always part of the
block's stream, so runs with the same seed share their random numbers
across efficiency settings, and lower efficiency can only remove events.
At efficiency 1 every detector fires and the two efficiency streams are not
drawn at all: a block's generator is dropped after the block, so nothing
reads its stream past the outcome draw.  block-v1 fixes only these draws:
how a block tallies them into outcome counts is free to change, as long as
the counts stay the same.  A detector fires when its draw random() <
efficiency.  Since random() is (word >> 11) * 2**-53 of a raw Philox word,
that holds iff word < ceil(efficiency * 2**53) << 11, so the efficiency
streams are drawn as raw words and compared with that threshold, with no
conversion to floats.  A pair whose detectors did not both fire is not
removed from the block: its outcome draw is pushed past the last edge by
adding 2.0 (a row sums to 1 within TOL and has no entry below -TOL, so
every edge is far below 2.0).  One distribution is tallied by counting the
block's outcome draws below each of its twelve cumulative edges, one pass
per edge.  A stack of distributions sorts the block's draws once and reads
the count below every edge of every row with one `searchsorted`.  On one
core a sort costs about as much as 15 count passes over 10 000 draws and 27
over a whole block of 65 536: about even at two rows (24 edges), a win
beyond, and a loss on one row (12 edges).  The counts also depend on the
last bit of every probability, so on the order in which
`full_outcome_distribution` adds the four components of unpolarized light:
(p0 + p2) + (p1 + p3).

Since a block's draws depend only on (seed, block), `sample_counts` draws
each block once and tallies it against a whole stack of distributions.
Every row of an `mc_run` sweep therefore uses the same seed's draws: the
rows' estimates are correlated, not independent samples.

Counts and estimates are arrays with the outcomes on the last axis, in
`OUTCOMES` order, so they broadcast over a (..., 12) stack;
`engine.OPPOSITE` masks the opposite-side outcomes.  A run's pair count and
efficiency live only in its `RunConfig`, which holds an integer count of at
least one pair, an integer seed and a real efficiency in (0, 1] with
efficiency**2 > 0: every estimate divides by the count and the efficiency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import OUTCOMES, _in_order
from .fock import TOL

BLOCK_PAIRS = 1 << 16

RNG_ALGORITHM = "philox4x64/block-v1"


@dataclass(frozen=True)
class RunConfig:
    """Simulated run: emitted pair count, detector efficiency, and the seed
    that fully determines the run."""

    n_pairs: int
    efficiency: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_pairs", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_pairs < 1:
            raise ValueError(f"n_pairs must be >= 1, got {self.n_pairs}")
        eff = self.efficiency
        if isinstance(eff, bool) or not isinstance(eff, (int, float, np.integer, np.floating)):
            raise ValueError(f"efficiency must be a real number, got {eff!r}")
        if not (0.0 < eff <= 1.0 and eff**2 > 0.0):
            raise ValueError(f"efficiency must lie in (0, 1] with efficiency**2 > 0, got {eff!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _word_threshold(efficiency: float) -> int:
    """The raw Philox word below which an efficiency draw fires.

    `Generator.random()` is (word >> 11) * 2**-53, so random() < efficiency
    iff word >> 11 < ceil(efficiency * 2**53) iff word < that ceiling << 11.
    """
    return math.ceil(math.ldexp(efficiency, 53)) << 11


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(block,))))


def _at_row(row: int, lead: tuple[int, ...]) -> str:
    """The prefix that names row `row` of a stack with leading shape `lead`."""
    if not lead:
        return ""
    index = np.unravel_index(row, lead)
    return f"row {int(index[0]) if len(lead) == 1 else tuple(map(int, index))}: "


def sample_counts(probs: np.ndarray, cfg: RunConfig) -> np.ndarray:
    """Recorded counts of a run of `cfg` drawn from each distribution of
    `probs`, shape (..., 12) in `OUTCOMES` order: int64, same shape.

    Each block is drawn once and every row is tallied against it, so a row
    gets exactly the counts that a one-row `sample_counts` of it gives.  The
    efficiency draws are raw Philox words tested against `_word_threshold`,
    and not drawn at efficiency 1; an unrecorded pair's outcome draw is
    pushed past the last edge instead of being removed.  One row counts the
    block's draws below each edge in its own pass; a stack of two or more
    rows sorts them once and finds all its edges with one `searchsorted`,
    which costs about as much at 24 edges and less beyond (see the module
    docstring).
    """
    probs = np.asarray(probs, dtype=float)
    n = len(OUTCOMES)
    if probs.ndim == 0 or probs.shape[-1] != n:
        raise ValueError(f"expected {n} outcome probabilities on the last axis, got shape {probs.shape}")
    lead = probs.shape[:-1]
    rows = probs.reshape(-1, n)
    if rows.shape[0] == 0:  # no distributions: no counts, and no block to draw
        return np.zeros(probs.shape, dtype=np.int64)
    negative = np.any(rows < -TOL, axis=1)
    if negative.any():
        r = int(np.argmax(negative))
        k = int(np.argmin(rows[r]))
        value = float(rows[r, k])
        raise ValueError(f"{_at_row(r, lead)}negative probability {value!r} for {OUTCOMES[k]}")
    totals = _in_order(rows)
    unnormalized = ~(np.abs(totals - 1.0) <= TOL)  # a nan total fails too
    if unnormalized.any():
        r = int(np.argmax(unnormalized))
        total = float(totals[r])
        raise ValueError(f"{_at_row(r, lead)}distribution must be normalized to sample, total={total!r}")
    edges = np.cumsum(np.maximum(rows, 0.0), axis=1)
    edges[:, -1] = 1.0  # guard the final edge against rounding
    # below[r, k] counts the block's draws u < edges[r, k].  A recorded
    # pair's draw lies in [0, 1) and an unrecorded one's is at least 2.0,
    # past every edge, so that is the recorded pairs in outcomes 0..k of row r.
    # The final edge is 1.0, above every recorded draw, so a cumulative sum
    # that rounds past 1.0 before it only empties the outcomes after the
    # crossing.  On sorted draws, searchsorted(side="left") is that count for
    # every finite edge, monotone or not.
    edges = edges.ravel()
    stacked = rows.shape[0] > 1
    below = np.zeros(edges.size, dtype=np.int64)
    n_blocks = (cfg.n_pairs + BLOCK_PAIRS - 1) // BLOCK_PAIRS
    threshold = None if cfg.efficiency == 1 else np.uint64(_word_threshold(cfg.efficiency))
    for block in range(n_blocks):
        start = block * BLOCK_PAIRS
        m = min(BLOCK_PAIRS, cfg.n_pairs - start)
        rng = _block_rng(cfg.seed, block)
        u = rng.random(m)
        if threshold is not None:
            words = rng.bit_generator.random_raw(m)
            np.maximum(words, rng.bit_generator.random_raw(m), out=words)
            u += (words >= threshold) * 2.0
        if stacked:
            u.sort()
            below += np.searchsorted(u, edges)
        else:
            below += [np.count_nonzero(u < edge) for edge in edges]
    return np.diff(below.reshape(rows.shape), axis=1, prepend=0).reshape(probs.shape)


def estimate(counts: np.ndarray, cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """Efficiency-corrected probability estimates of the recorded `counts` of
    a run of `cfg`, with binomial standard errors: two float arrays of the
    shape of `counts`, so a (..., 12) stack gives one row per run.

    Both detectors of an outcome must fire for it to be recorded, so both
    divide by efficiency**2.  A zero count estimates 0 with error 0.
    """
    n = cfg.n_pairs
    correction = cfg.efficiency**2
    p_rec = np.asarray(counts) / n
    return p_rec / correction, np.sqrt(p_rec * (1.0 - p_rec) / n) / correction


def consistency_z(probability: float, p_true: float, cfg: RunConfig) -> float:
    """Deviation of an estimate from a reference probability in units of the
    binomial standard deviation of the recorded rate of a run of `cfg`.

    A reference that rounds past 1 (a sure outcome summed from rounded
    terms) is taken as 1.
    """
    p_true = min(p_true, 1.0)
    n, eff = cfg.n_pairs, cfg.efficiency
    p_rec = p_true * eff**2
    if p_rec == 0.0 and p_true > 0.0:  # the product underflowed; the same sigma, factored
        sigma = math.sqrt(p_true * (1.0 - p_rec) / n) / eff
    else:
        sigma = math.sqrt(p_rec * (1.0 - p_rec) / n) / eff**2
    if sigma == 0.0:
        return 0.0 if probability == p_true else math.inf
    return (probability - p_true) / sigma


def pearson_chi2(counts: np.ndarray, probs: np.ndarray, cfg: RunConfig) -> tuple[float, int]:
    """Pearson chi-square of the twelve recorded `counts` of a run of `cfg`
    against the twelve outcome probabilities `probs` it was drawn from, both
    in `OUTCOMES` order.

    The cells are the outcomes plus the pairs not recorded: outcome o has
    probability p_o * efficiency**2 and the unrecorded cell the rest.  A cell
    whose probability is at most TOL cannot hold counts; it is left out of
    the sum and of the degrees of freedom (the remaining cells less one, 12
    when all twelve outcomes can occur at efficiency below 1), and a count
    in it makes the statistic infinite.  The statistic is of one run: counts
    or probabilities of any shape but (12,), a stack of runs among them,
    are rejected.
    """
    shapes = np.shape(counts), np.shape(probs)
    if shapes != ((len(OUTCOMES),),) * 2:
        message = f"expected the {len(OUTCOMES)} outcome counts and probabilities of one run"
        raise ValueError(f"{message}, got shapes {shapes[0]} and {shapes[1]}")
    n = cfg.n_pairs
    q = np.asarray(probs, dtype=float) * cfg.efficiency**2
    q = np.append(q, 1.0 - q.sum())
    observed = np.append(counts, n - np.sum(counts))
    live = q > TOL
    dof = int(live.sum()) - 1
    if np.any(observed[~live]):
        return math.inf, dof
    expected = n * q[live]
    return float(np.sum((observed[live] - expected) ** 2 / expected)), dof
