import math
import re

import numpy as np
import pytest

from twophoton.elements import BeamSplitterSpec
from twophoton.engine import (
    OPPOSITE,
    OUTCOMES,
    InputSpec,
    full_outcome_distribution,
)
from twophoton.fock import TOL
from twophoton.montecarlo import (
    BLOCK_PAIRS,
    RNG_ALGORITHM,
    RunConfig,
    _word_threshold,
    consistency_z,
    estimate,
    pearson_chi2,
    sample_counts,
)

BS = BeamSplitterSpec.fifty_fifty()
SURE = 0  # side1[par]+side2[par]
POINT_MASS = np.array([float(k == SURE) for k in range(12)])


def singlet_like_distribution():
    return full_outcome_distribution(
        InputSpec.polarized(0.0, math.pi / 2.0), 0.0, math.pi / 2.0, BS, 0.0, 0.0
    )


def unpolarized_distribution():
    return full_outcome_distribution(
        InputSpec.unpolarized(), 0.0, math.pi / 6.0, BS, 0.0, 0.0
    )


def test_rng_contract_constants():
    # these two values are part of the reproducibility contract
    assert BLOCK_PAIRS == 65536
    assert RNG_ALGORITHM == "philox4x64/block-v1"


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(-1)
    with pytest.raises(ValueError):
        RunConfig(10, efficiency=1.5)
    with pytest.raises(ValueError):
        RunConfig(10, efficiency=0.0)
    with pytest.raises(ValueError):
        RunConfig(10, efficiency=1e-170)  # its square, which every estimate divides by, is 0
    with pytest.raises(ValueError):
        RunConfig(10, seed=-3)
    # counts and seeds are integers: a bool, a float or a string is turned away by name
    for bad in (True, 1.5, 10.0, "10"):
        with pytest.raises(ValueError, match=f"^n_pairs must be an integer, got {bad!r}$"):
            RunConfig(bad)
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {bad!r}$"):
            RunConfig(10, seed=bad)
    assert RunConfig(np.int64(10), seed=np.uint32(3)) == RunConfig(10, seed=3)
    # the efficiency is a real scalar: the tally takes its ceiling
    for bad in (True, np.bool_(True), np.array([0.5]), np.array(0.5), "0.9", None, 0.5 + 0j):
        with pytest.raises(ValueError, match=f"^efficiency must be a real number, got {re.escape(repr(bad))}$"):
            RunConfig(10, efficiency=bad)
    assert RunConfig(10, efficiency=np.float32(0.5)) == RunConfig(10, efficiency=0.5)
    assert RunConfig(10, efficiency=np.int64(1)) == RunConfig(10, efficiency=1.0)


def test_point_mass_at_full_efficiency_records_every_pair():
    dist = POINT_MASS
    counts = sample_counts(dist, RunConfig(5000, efficiency=1.0, seed=0))
    assert counts[SURE] == 5000


def test_point_mass_at_half_efficiency_records_a_quarter():
    # both detectors must fire independently: 0.5 * 0.5
    dist = POINT_MASS
    n = 200000
    counts = sample_counts(dist, RunConfig(n, efficiency=0.5, seed=1))
    rate = counts[SURE] / n
    assert abs(rate - 0.25) < 5.0 * math.sqrt(0.25 * 0.75 / n)


def test_estimate_binomial_arithmetic():
    counts = np.zeros(12, dtype=np.int64)
    counts[SURE] = 250
    probability, stderr = estimate(counts, RunConfig(1000))
    assert probability[SURE] == 0.25
    assert abs(stderr[SURE] - 0.0137) < 5e-4
    # a zero count estimates 0 with error 0
    others = np.arange(12) != SURE
    assert not probability[others].any() and not stderr[others].any()


def test_same_seed_reproduces_counts_exactly():
    dist = singlet_like_distribution()
    cfg = RunConfig(30000, seed=5)
    assert np.array_equal(sample_counts(dist, cfg), sample_counts(dist, cfg))


def test_different_seeds_give_different_counts():
    dist = singlet_like_distribution()
    a = sample_counts(dist, RunConfig(30000, seed=1))
    b = sample_counts(dist, RunConfig(30000, seed=2))
    assert not np.array_equal(a, b)


def test_blockwise_reference_reimplementation():
    # Replay the documented algorithm: fixed 2^16-pair blocks, Philox keyed
    # by SeedSequence(seed, spawn_key=(block,)), draw order outcome then two
    # efficiency draws.  Counts must match across a block boundary.
    dist = unpolarized_distribution()
    n, seed, eff = BLOCK_PAIRS + 777, 9, 0.8
    tallied = sample_counts(dist, RunConfig(n, efficiency=eff, seed=seed))

    outcomes = OUTCOMES
    edges = np.cumsum(dist)
    edges[-1] = 1.0
    counts = np.zeros(len(outcomes), dtype=np.int64)
    done = 0
    block = 0
    while done < n:
        m = min(BLOCK_PAIRS, n - done)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(block,))))
        drawn = np.searchsorted(edges, rng.random(m), side="right")
        fired = rng.random(m) < eff
        fired &= rng.random(m) < eff
        counts += np.bincount(drawn[fired], minlength=len(outcomes))
        done += m
        block += 1
    assert tallied.tolist() == counts.tolist()


def _searchsorted_replay(dists, cfg):
    # The searchsorted/bincount tally of test_blockwise_reference_reimplementation,
    # for every row of `dists` (..., 12).  A block's draws depend only on
    # (seed, block, m), so each block is drawn once and every row is binned
    # against its recorded outcome draws.
    edges = np.cumsum(dists, axis=-1)
    edges[..., -1] = 1.0
    rows = edges.reshape(-1, len(OUTCOMES))
    counts = np.zeros(rows.shape, dtype=np.int64)
    for block in range(-(-cfg.n_pairs // BLOCK_PAIRS)):
        m = min(BLOCK_PAIRS, cfg.n_pairs - block * BLOCK_PAIRS)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed, spawn_key=(block,))))
        u = rng.random(m)
        fired = rng.random(m) < cfg.efficiency
        fired &= rng.random(m) < cfg.efficiency
        recorded = u[fired]
        for row_edges, row_counts in zip(rows, counts):
            row_counts += np.bincount(np.searchsorted(row_edges, recorded, side="right"), minlength=len(OUTCOMES))
    return counts.reshape(edges.shape)


def zero_first_and_last():
    return np.array([0.0 if k in (0, 11) else 0.1 for k in range(12)])


def point_mass_on_last():
    return np.array([float(k == 11) for k in range(12)])


def rounds_past_one_before_the_last_edge():
    # Normalized within TOL, but the cumulative sum passes 1.0 at the
    # eleventh edge, so edges[-1] = 1.0 leaves `edges` non-monotone.
    probs = [(1.0 + 5e-13) / 11] * 11 + [1e-13]
    assert np.cumsum(probs)[-2] > 1.0 and abs(sum(probs) - 1.0) <= TOL
    return np.array(probs)


# 1 - 2**-53 is the largest efficiency below 1, 0.5 an exact dyadic, 0.9 mc_bulk's
EDGE_EFFICIENCIES = [1.0 - 2.0**-53, 0.5, 0.9]


@pytest.mark.parametrize("efficiency", [*EDGE_EFFICIENCIES, 0.37, 2.0**-53, 1e-160, np.float32(0.9)])
def test_word_threshold_splits_the_words_as_the_float_rule_does(efficiency):
    # random() is (word >> 11) * 2**-53 of the next raw Philox word ...
    a, b = (np.random.Generator(np.random.Philox(np.random.SeedSequence(3, spawn_key=(1,)))) for _ in range(2))
    words = b.bit_generator.random_raw(1000)
    assert a.random(1000).tolist() == ((words >> np.uint64(11)) * 2.0**-53).tolist()

    # ... so the last word that fires and the first that does not straddle random() < efficiency,
    # compared as a float64 draw compares: a float32 efficiency is widened, not the draw narrowed
    def fires(word):
        return np.float64((word >> 11) * 2.0**-53) < efficiency

    threshold = _word_threshold(efficiency)
    assert threshold % 2048 == 0 and 0 < threshold < 2**64
    assert fires(threshold - 1) and not fires(threshold)


@pytest.mark.parametrize("n_pairs", [1, 10_000, BLOCK_PAIRS, 2 * BLOCK_PAIRS + 777])
@pytest.mark.parametrize("efficiency", [1.0, 0.37, *EDGE_EFFICIENCIES])
@pytest.mark.parametrize(
    "make_dist",
    [
        unpolarized_distribution,
        singlet_like_distribution,
        zero_first_and_last,
        point_mass_on_last,
        rounds_past_one_before_the_last_edge,
    ],
)
def test_tally_is_bit_identical_to_the_searchsorted_replay(make_dist, efficiency, n_pairs):
    dist = make_dist()
    cfg = RunConfig(n_pairs, efficiency=efficiency, seed=4)
    assert sample_counts(dist, cfg).tolist() == _searchsorted_replay(dist, cfg).tolist()


def point_mass_on_first():
    return np.array([float(k == 0) for k in range(12)])


def distribution_stack():
    return np.stack(
        [
            unpolarized_distribution(),
            singlet_like_distribution(),
            rounds_past_one_before_the_last_edge(),
            zero_first_and_last(),
            point_mass_on_first(),
            point_mass_on_last(),
        ]
    )


def two_row_stack():
    # the fewest rows that sort the block, one of them with a non-monotone edge
    return np.stack([unpolarized_distribution(), rounds_past_one_before_the_last_edge()])


def random_angle_stack():
    # 74 engine rows at random analyzer angles and an asymmetric splitter: every
    # edge falls off any lattice, as in an mc_run sweep
    rng = np.random.default_rng(2024)
    phase = 0.7  # phi = psi
    bs = BeamSplitterSpec.from_transmission(0.9, 0.6)
    return np.concatenate(
        [
            full_outcome_distribution(InputSpec.unpolarized(), *rng.uniform(0.0, math.pi, (2, 37)), bs, phase, phase),
            full_outcome_distribution(InputSpec.polarized(0.4, 1.3), *rng.uniform(0.0, math.pi, (2, 37)), bs, phase, phase),
        ]
    )


@pytest.mark.parametrize("n_pairs", [1, BLOCK_PAIRS, 2 * BLOCK_PAIRS + 777])
@pytest.mark.parametrize("efficiency", [1.0, 0.37, 1e-160, *EDGE_EFFICIENCIES])
@pytest.mark.parametrize("make_stack", [two_row_stack, distribution_stack, random_angle_stack])
def test_sample_counts_equals_one_row_runs_row_by_row(make_stack, efficiency, n_pairs):
    stack = make_stack()
    cfg = RunConfig(n_pairs, efficiency=efficiency, seed=6)
    counts = sample_counts(stack, cfg)
    assert counts.shape == stack.shape and counts.dtype == np.int64
    replay = _searchsorted_replay(stack, cfg)
    for row, probs, replayed in zip(counts, stack, replay):
        assert row.tolist() == sample_counts(probs, cfg).tolist() == replayed.tolist()
    # more leading axes are rows too, and one row keeps its (12,) shape
    square = sample_counts(stack.reshape(2, -1, 12), cfg)
    assert np.array_equal(square, counts.reshape(2, -1, 12))
    one = sample_counts(stack[1], cfg)
    assert one.shape == (12,) and np.array_equal(one, counts[1])


@pytest.mark.parametrize("n_pairs", [1, 2 * BLOCK_PAIRS + 777])
@pytest.mark.parametrize("efficiency", [1.0, 0.37, 1e-160])
def test_estimate_on_a_stack_is_the_scalar_arithmetic_row_by_row(efficiency, n_pairs):
    cfg = RunConfig(n_pairs, efficiency=efficiency, seed=6)
    counts = sample_counts(distribution_stack(), cfg)
    probability, stderr = estimate(counts, cfg)
    assert probability.shape == stderr.shape == counts.shape
    eps2 = efficiency**2
    for row, p_row, se_row in zip(counts.tolist(), probability.tolist(), stderr.tolist()):
        p_rec = [c / n_pairs for c in row]
        assert p_row == [p / eps2 for p in p_rec]
        assert se_row == [math.sqrt(p * (1.0 - p) / n_pairs) / eps2 for p in p_rec]
    assert (counts == 0).any()
    assert not probability[counts == 0].any() and not stderr[counts == 0].any()


def test_sample_counts_names_the_row_it_rejects():
    stack = distribution_stack()
    width = r"expected 12 outcome probabilities on the last axis, got shape \(6, 11\)"
    with pytest.raises(ValueError, match=width):
        sample_counts(stack[:, :11], RunConfig(100))
    with pytest.raises(ValueError, match=r"got shape \(\)"):
        sample_counts(np.float64(1.0), RunConfig(100))
    negative = stack.copy()
    negative[4, :2] = 1.01, -0.01
    with pytest.raises(ValueError, match=r"^row 4: negative probability -0.01 for side1\[par\]\+side2"):
        sample_counts(negative, RunConfig(100))
    unnormalized = stack.copy()
    unnormalized[3, 1] += 1e-9
    with pytest.raises(ValueError, match=r"^row 3: distribution must be normalized to sample, total="):
        sample_counts(unnormalized, RunConfig(100))
    with pytest.raises(ValueError, match=r"^row \(1, 0\): distribution must be normalized"):
        sample_counts(unnormalized.reshape(2, 3, 12), RunConfig(100))
    unnormalized[2, 5] = np.nan
    with pytest.raises(ValueError, match=r"^row 2: distribution must be normalized to sample, total=nan$"):
        sample_counts(unnormalized, RunConfig(100))


@pytest.mark.parametrize("shape", [(0, 12), (2, 0, 12)])
def test_sample_counts_of_an_empty_stack_is_empty(shape):
    counts = sample_counts(np.zeros(shape), RunConfig(BLOCK_PAIRS + 1, efficiency=0.9, seed=4))
    assert counts.shape == shape and counts.dtype == np.int64


def test_block_decomposition_makes_shards_additive():
    # A worker that owns only the first block must reproduce exactly the
    # first-block share of the full run.
    dist = unpolarized_distribution()
    seed = 3
    full = sample_counts(dist, RunConfig(2 * BLOCK_PAIRS, seed=seed))
    first = sample_counts(dist, RunConfig(BLOCK_PAIRS, seed=seed))
    second_share = full - first
    assert (second_share >= 0).all()
    assert second_share.sum() == BLOCK_PAIRS


def test_lower_efficiency_only_removes_events():
    # Common random numbers: the same pairs are drawn, fewer survive.
    dist = unpolarized_distribution()
    hi = sample_counts(dist, RunConfig(50000, efficiency=1.0, seed=11))
    lo = sample_counts(dist, RunConfig(50000, efficiency=0.6, seed=11))
    assert (lo <= hi).all()
    assert hi.sum() == 50000


def test_sampling_requires_a_normalized_distribution():
    # Unequal fringe phases break the partition and must be rejected.
    dist = full_outcome_distribution(
        InputSpec.polarized(0.0, 0.0), 0.0, 0.0, BS, phi=0.0, psi=math.pi
    )
    with pytest.raises(ValueError, match="normalized"):
        sample_counts(dist, RunConfig(100))


def test_sampling_rejects_negative_probabilities():
    dist = POINT_MASS.copy()
    dist[0], dist[1] = 1.01, -0.01
    with pytest.raises(ValueError, match=r"negative probability -0.01 for side1\[par\]\+side2\[perp\]"):
        sample_counts(dist, RunConfig(100))
    # a rounding residue within TOL is sampled as zero
    dist[0], dist[1] = 1.0 + 1e-13, -1e-13
    assert sample_counts(dist, RunConfig(100))[1] == 0


def test_sampling_rejects_anything_but_twelve_probabilities():
    for bad in (POINT_MASS[:11], np.float64(1.0)):
        with pytest.raises(ValueError, match="expected 12 outcome probabilities"):
            sample_counts(bad, RunConfig(100))


def test_estimate_corrects_for_squared_efficiency():
    dist = unpolarized_distribution()
    eff = 0.5
    cfg = RunConfig(200000, efficiency=eff, seed=21)
    counts = sample_counts(dist, cfg)
    probability, stderr = estimate(counts, cfg)
    for count, p, se in zip(counts.tolist(), probability.tolist(), stderr.tolist()):
        if count == 0:
            assert p == 0.0 and se == 0.0
            continue
        p_rec = count / cfg.n_pairs
        assert abs(p - p_rec / eff**2) < 1e-15
        assert abs(se - math.sqrt(p_rec * (1.0 - p_rec) / cfg.n_pairs) / eff**2) < 1e-15


def test_run_config_rejects_an_empty_run():
    # estimate, pearson_chi2 and consistency_z divide by n_pairs; a run
    # without pairs cannot be configured, so none of them sees one
    with pytest.raises(ValueError, match=r"^n_pairs must be >= 1, got 0$"):
        RunConfig(0)
    cfg = RunConfig(1)
    counts = sample_counts(unpolarized_distribution(), cfg)
    assert counts.sum() == 1
    probability, stderr = estimate(counts, cfg)
    assert probability.sum() == 1.0 and not stderr.any()


def test_consistency_z_matches_binomial_scaling():
    dist = unpolarized_distribution()
    n = 100000
    cfg = RunConfig(n, seed=2)
    probability, _ = estimate(sample_counts(dist, cfg), cfg)
    for p, p_true in zip(probability.tolist(), dist.tolist()):
        z = consistency_z(p, p_true, cfg)
        if p_true == 0.0 or p_true == 1.0:
            continue
        sigma = math.sqrt(p_true * (1.0 - p_true) / n)
        assert abs(z - (p - p_true) / sigma) < 1e-9


def test_consistency_z_survives_an_underflowing_recorded_rate():
    # efficiency**2 = 1e-320 is subnormal, so p_true * efficiency**2 rounds
    # to 0 while p_true does not; sigma = sqrt(p_true / n) / efficiency
    p_true, n, eff = 4.93038065763132e-32, 1000, 1e-160
    assert p_true * eff**2 == 0.0
    z = consistency_z(0.0, p_true, RunConfig(n, efficiency=eff))
    assert math.isfinite(z)
    assert z == pytest.approx(-p_true / (math.sqrt(p_true / n) / eff), rel=1e-12)


@pytest.mark.parametrize("efficiency", [1.0, 0.37])
def test_consistency_z_takes_a_reference_past_one_as_one(efficiency):
    # A sure outcome summed from rounded terms can read 1 + 1e-15; at
    # efficiency 1 its recorded-rate variance would then be negative.
    cfg = RunConfig(1000, efficiency=efficiency)
    for probability in (1.0, 0.98):
        assert consistency_z(probability, 1.0 + 1e-15, cfg) == consistency_z(probability, 1.0, cfg)
    assert consistency_z(1.0, 1.0 + 1e-15, cfg) == 0.0


def test_estimates_track_exact_probabilities():
    # loose 5-sigma sanity bound on a single moderate run
    dist = unpolarized_distribution()
    n = 200000
    cfg = RunConfig(n, seed=13)
    probability, _ = estimate(sample_counts(dist, cfg), cfg)
    for p, p_true in zip(probability.tolist(), dist.tolist()):
        if p_true < 1e-6:
            assert p < 1e-4
            continue
        z = consistency_z(p, p_true, cfg)
        assert abs(z) < 5.0


def test_estimates_converge_across_one_hundred_seeds():
    # 1200 outcome estimates at n = 10^6: at least 99% within 3 sigma of the
    # generating distribution, and at least 99 of the 100 seeds within 4 sigma
    # on every outcome.
    dist = unpolarized_distribution()
    n = 1_000_000
    within3 = 0
    clean_seeds = 0
    total = 0
    for seed in range(100):
        cfg = RunConfig(n, seed=seed)
        probability, _ = estimate(sample_counts(dist, cfg), cfg)
        seed_clean = True
        for p, p_true in zip(probability.tolist(), dist.tolist()):
            if p_true <= 0.0:
                continue
            z = abs(consistency_z(p, p_true, cfg))
            total += 1
            within3 += z <= 3.0
            seed_clean &= z <= 4.0
        clean_seeds += seed_clean
    assert within3 >= math.ceil(0.99 * total)
    assert clean_seeds >= 99


def test_opposite_side_share_concentrates_at_one_quarter():
    # For unpolarized zero-phase input the split/bunch split is 1/4 : 3/4.
    dist = unpolarized_distribution()
    n = 200000
    hits = 0
    for seed in range(5):
        opp = sample_counts(dist, RunConfig(n, seed=seed))[OPPOSITE].sum()
        z = (opp / n - 0.25) / math.sqrt(0.25 * 0.75 / n)
        hits += abs(z) <= 3.0
    assert hits >= 4


def test_pearson_chi2_matches_a_hand_computed_table():
    # n = 1200, p = 1/12, efficiency 0.5: every outcome expects 25 counts and
    # the unrecorded cell 900.  Two outcomes off by 5 add 25/25 each; the
    # unrecorded cell is exact.
    dist = np.full(12, 1.0 / 12.0)
    counts = np.full(12, 25)
    counts[0] += 5
    counts[7] -= 5
    stat, dof = pearson_chi2(counts, dist, RunConfig(1200, efficiency=0.5))
    assert abs(stat - 2.0) < 1e-12 and dof == 12


def test_pearson_chi2_leaves_out_cells_that_cannot_hold_counts():
    # At efficiency 1 the unrecorded cell is empty by construction, and so
    # are zero-probability outcomes: 10 cells remain, 9 degrees of freedom.
    # Counts of 11 and 9 against 10 add 1/10 each; a count in an impossible
    # cell makes the statistic infinite.
    dist = zero_first_and_last()
    counts = np.array([0 if k in (0, 11) else 10 + (k == 1) - (k == 2) for k in range(12)])
    cfg = RunConfig(100)
    stat, dof = pearson_chi2(counts, dist, cfg)
    assert abs(stat - 0.2) < 1e-12 and dof == 9
    counts[11] = 1
    counts[1] -= 1
    assert pearson_chi2(counts, dist, cfg) == (math.inf, 9)


def test_pearson_chi2_takes_one_run_only():
    # a stack of two runs was once summed into one table, (inf, 23), and
    # eleven cells were read as a whole run
    dist = full_outcome_distribution(InputSpec.unpolarized(), np.array([0.0, 0.9]), math.pi / 6.0, BS, 0.0, 0.0)
    cfg = RunConfig(20000, efficiency=0.9, seed=3)
    counts = sample_counts(dist, cfg)
    for row in range(2):
        stat, dof = pearson_chi2(counts[row], dist[row], cfg)
        assert math.isfinite(stat) and dof == 12
    for bad_counts, bad_probs, shown in (
        (counts, dist, r"\(2, 12\) and \(2, 12\)"),
        (counts[0], dist, r"\(12,\) and \(2, 12\)"),
        (counts[0, :11], dist[0, :11], r"\(11,\) and \(11,\)"),
        (counts[0], dist[0, :11], r"\(12,\) and \(11,\)"),
        (counts[0].sum(), dist[0], r"\(\) and \(12,\)"),
    ):
        message = rf"^expected the 12 outcome counts and probabilities of one run, got shapes {shown}$"
        with pytest.raises(ValueError, match=message):
            pearson_chi2(bad_counts, bad_probs, cfg)
