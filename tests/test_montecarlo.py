import math

import numpy as np
import pytest

from twophoton.elements import BeamSplitterSpec, PhaseGeometry, Port
from twophoton.engine import (
    InputSpec,
    Outcome,
    OutcomeKind,
    all_outcomes,
    full_outcome_distribution,
)
from twophoton.fock import TOL
from twophoton.montecarlo import (
    BLOCK_PAIRS,
    RNG_ALGORITHM,
    CountTable,
    OutcomeEstimate,
    RunConfig,
    consistency_z,
    estimate,
    pearson_chi2,
    sample_counts,
    sample_run,
)

BS = BeamSplitterSpec.fifty_fifty()
TWELVE = all_outcomes()
SURE_OUTCOME = Outcome(OutcomeKind.OPPOSITE, Port.PARALLEL, Port.PARALLEL)
POINT_MASS = np.array([float(o == SURE_OUTCOME) for o in TWELVE])


def singlet_like_distribution():
    return full_outcome_distribution(
        InputSpec.polarized(0.0, math.pi / 2.0), 0.0, math.pi / 2.0, BS, PhaseGeometry(0.0, 0.0)
    )


def unpolarized_distribution():
    return full_outcome_distribution(
        InputSpec.unpolarized(), 0.0, math.pi / 6.0, BS, PhaseGeometry(0.0, 0.0)
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


def test_point_mass_at_full_efficiency_records_every_pair():
    dist = POINT_MASS
    table = sample_run(dist, RunConfig(5000, efficiency=1.0, seed=0))
    assert table.counts[SURE_OUTCOME] == 5000


def test_point_mass_at_half_efficiency_records_a_quarter():
    # both detectors must fire independently: 0.5 * 0.5
    dist = POINT_MASS
    n = 200000
    table = sample_run(dist, RunConfig(n, efficiency=0.5, seed=1))
    rate = table.counts[SURE_OUTCOME] / n
    assert abs(rate - 0.25) < 5.0 * math.sqrt(0.25 * 0.75 / n)


def test_estimate_binomial_arithmetic():
    table = CountTable({SURE_OUTCOME: 250}, n_emitted=1000, efficiency=1.0)
    est = estimate(table)[SURE_OUTCOME]
    assert est.probability == 0.25
    assert abs(est.stderr - 0.0137) < 5e-4
    assert est.n_recorded == 250 and not est.zero_count


def test_same_seed_reproduces_counts_exactly():
    dist = singlet_like_distribution()
    cfg = RunConfig(30000, seed=5)
    a = sample_run(dist, cfg)
    b = sample_run(dist, cfg)
    assert a.counts == b.counts


def test_different_seeds_give_different_counts():
    dist = singlet_like_distribution()
    a = sample_run(dist, RunConfig(30000, seed=1))
    b = sample_run(dist, RunConfig(30000, seed=2))
    assert a.counts != b.counts


def test_blockwise_reference_reimplementation():
    # Replay the documented algorithm: fixed 2^16-pair blocks, Philox keyed
    # by SeedSequence(seed, spawn_key=(block,)), draw order outcome then two
    # efficiency draws.  Counts must match across a block boundary.
    dist = unpolarized_distribution()
    n, seed, eff = BLOCK_PAIRS + 777, 9, 0.8
    table = sample_run(dist, RunConfig(n, efficiency=eff, seed=seed))

    outcomes = TWELVE
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
    assert table.counts == {o: int(c) for o, c in zip(outcomes, counts)}


def _searchsorted_replay(dist, cfg):
    # The searchsorted/bincount tally of test_blockwise_reference_reimplementation.
    outcomes = TWELVE
    edges = np.cumsum(dist)
    edges[-1] = 1.0
    counts = np.zeros(len(outcomes), dtype=np.int64)
    for block in range(-(-cfg.n_pairs // BLOCK_PAIRS)):
        m = min(BLOCK_PAIRS, cfg.n_pairs - block * BLOCK_PAIRS)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed, spawn_key=(block,))))
        drawn = np.searchsorted(edges, rng.random(m), side="right")
        fired = rng.random(m) < cfg.efficiency
        fired &= rng.random(m) < cfg.efficiency
        counts += np.bincount(drawn[fired], minlength=len(outcomes))
    return {o: int(c) for o, c in zip(outcomes, counts)}


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


@pytest.mark.parametrize("n_pairs", [0, 1, 10_000, BLOCK_PAIRS, 2 * BLOCK_PAIRS + 777])
@pytest.mark.parametrize("efficiency", [1.0, 0.37])
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
    assert sample_run(dist, cfg).counts == _searchsorted_replay(dist, cfg)


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


@pytest.mark.parametrize("n_pairs", [0, 1, BLOCK_PAIRS, 2 * BLOCK_PAIRS + 777])
@pytest.mark.parametrize("efficiency", [1.0, 0.37, 1e-160])
def test_sample_counts_equals_sample_run_row_by_row(efficiency, n_pairs):
    stack = distribution_stack()
    cfg = RunConfig(n_pairs, efficiency=efficiency, seed=6)
    counts = sample_counts(stack, cfg)
    assert counts.shape == stack.shape and counts.dtype == np.int64
    for row, probs in zip(counts, stack):
        tallied = dict(zip(TWELVE, row.tolist()))
        assert tallied == sample_run(probs, cfg).counts == _searchsorted_replay(probs, cfg)
    # more leading axes are rows too, and one row keeps its (12,) shape
    square = sample_counts(stack.reshape(2, 3, 12), cfg)
    assert np.array_equal(square, counts.reshape(2, 3, 12))
    one = sample_counts(stack[1], cfg)
    assert one.shape == (12,) and np.array_equal(one, counts[1])


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


def test_block_decomposition_makes_shards_additive():
    # A worker that owns only the first block must reproduce exactly the
    # first-block share of the full run.
    dist = unpolarized_distribution()
    seed = 3
    full = sample_run(dist, RunConfig(2 * BLOCK_PAIRS, seed=seed))
    first = sample_run(dist, RunConfig(BLOCK_PAIRS, seed=seed))
    second_share = {o: full.counts[o] - first.counts[o] for o in full.counts}
    assert all(c >= 0 for c in second_share.values())
    assert sum(second_share.values()) == BLOCK_PAIRS


def test_lower_efficiency_only_removes_events():
    # Common random numbers: the same pairs are drawn, fewer survive.
    dist = unpolarized_distribution()
    hi = sample_run(dist, RunConfig(50000, efficiency=1.0, seed=11))
    lo = sample_run(dist, RunConfig(50000, efficiency=0.6, seed=11))
    for outcome in hi.counts:
        assert lo.counts[outcome] <= hi.counts[outcome]
    assert sum(hi.counts.values()) == 50000


def test_sampling_requires_a_normalized_distribution():
    # Unequal fringe phases break the partition and must be rejected.
    dist = full_outcome_distribution(
        InputSpec.polarized(0.0, 0.0), 0.0, 0.0, BS, PhaseGeometry(phi=0.0, psi=math.pi)
    )
    with pytest.raises(ValueError, match="normalized"):
        sample_run(dist, RunConfig(100))


def test_sampling_rejects_negative_probabilities():
    dist = POINT_MASS.copy()
    dist[0], dist[1] = 1.01, -0.01
    with pytest.raises(ValueError, match=r"negative probability -0.01 for side1\[par\]\+side2\[perp\]"):
        sample_run(dist, RunConfig(100))
    # a rounding residue within TOL is sampled as zero
    dist[0], dist[1] = 1.0 + 1e-13, -1e-13
    assert sample_run(dist, RunConfig(100)).counts[TWELVE[1]] == 0


def test_sampling_rejects_anything_but_twelve_probabilities():
    for bad in (POINT_MASS[:11], np.stack([POINT_MASS, POINT_MASS]), np.float64(1.0)):
        with pytest.raises(ValueError, match="expected 12 outcome probabilities"):
            sample_run(bad, RunConfig(100))


def test_estimate_corrects_for_squared_efficiency():
    dist = unpolarized_distribution()
    eff = 0.5
    table = sample_run(dist, RunConfig(200000, efficiency=eff, seed=21))
    ests = estimate(table)
    for outcome, est in ests.items():
        count = table.counts[outcome]
        if count == 0:
            assert est.zero_count
            assert est.probability == 0.0 and est.stderr == 0.0
            continue
        p_rec = count / table.n_emitted
        assert abs(est.probability - p_rec / eff**2) < 1e-15
        se = math.sqrt(p_rec * (1.0 - p_rec) / table.n_emitted)
        assert abs(est.stderr - se / eff**2) < 1e-15
        assert est.n_recorded == count


def test_estimate_rejects_empty_run():
    table = sample_run(unpolarized_distribution(), RunConfig(0))
    assert sum(table.counts.values()) == 0
    with pytest.raises(ValueError):
        estimate(table)


def test_consistency_z_matches_binomial_scaling():
    dist = unpolarized_distribution()
    n = 100000
    table = sample_run(dist, RunConfig(n, seed=2))
    ests = estimate(table)
    for outcome, p_true in zip(TWELVE, dist.tolist()):
        est = ests[outcome]
        z = consistency_z(est, p_true, n, 1.0)
        if p_true == 0.0 or p_true == 1.0:
            continue
        sigma = math.sqrt(p_true * (1.0 - p_true) / n)
        assert abs(z - (est.probability - p_true) / sigma) < 1e-9


def test_consistency_z_survives_an_underflowing_recorded_rate():
    # efficiency**2 = 1e-320 is subnormal, so p_true * efficiency**2 rounds
    # to 0 while p_true does not; sigma = sqrt(p_true / n) / efficiency
    p_true, n, eff = 4.93038065763132e-32, 1000, 1e-160
    assert p_true * eff**2 == 0.0
    est = OutcomeEstimate(probability=0.0, stderr=0.0, n_recorded=0, zero_count=True)
    z = consistency_z(est, p_true, n, eff)
    assert math.isfinite(z)
    assert z == pytest.approx(-p_true / (math.sqrt(p_true / n) / eff), rel=1e-12)


def test_estimates_track_exact_probabilities():
    # loose 5-sigma sanity bound on a single moderate run
    dist = unpolarized_distribution()
    n = 200000
    table = sample_run(dist, RunConfig(n, seed=13))
    ests = estimate(table)
    for outcome, p_true in zip(TWELVE, dist.tolist()):
        est = ests[outcome]
        if p_true < 1e-6:
            assert est.probability < 1e-4
            continue
        z = consistency_z(est, p_true, n, 1.0)
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
        table = sample_run(dist, RunConfig(n, seed=seed))
        ests = estimate(table)
        seed_clean = True
        for outcome, p_true in zip(TWELVE, dist.tolist()):
            est = ests[outcome]
            if p_true <= 0.0:
                continue
            z = abs(consistency_z(est, p_true, n, 1.0))
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
        table = sample_run(dist, RunConfig(n, seed=seed))
        opp = sum(c for o, c in table.counts.items() if o.kind is OutcomeKind.OPPOSITE)
        z = (opp / n - 0.25) / math.sqrt(0.25 * 0.75 / n)
        hits += abs(z) <= 3.0
    assert hits >= 4


def test_pearson_chi2_matches_a_hand_computed_table():
    # n = 1200, p = 1/12, efficiency 0.5: every outcome expects 25 counts and
    # the unrecorded cell 900.  Two outcomes off by 5 add 25/25 each; the
    # unrecorded cell is exact.
    dist = np.full(12, 1.0 / 12.0)
    counts = {o: 25 for o in TWELVE}
    counts[TWELVE[0]] += 5
    counts[TWELVE[7]] -= 5
    stat, dof = pearson_chi2(CountTable(counts, n_emitted=1200, efficiency=0.5), dist)
    assert abs(stat - 2.0) < 1e-12 and dof == 12


def test_pearson_chi2_leaves_out_cells_that_cannot_hold_counts():
    # At efficiency 1 the unrecorded cell is empty by construction, and so
    # are zero-probability outcomes: 10 cells remain, 9 degrees of freedom.
    # Counts of 11 and 9 against 10 add 1/10 each; a count in an impossible
    # cell makes the statistic infinite.
    dist = zero_first_and_last()
    counts = {o: 0 if k in (0, 11) else 10 + (k == 1) - (k == 2) for k, o in enumerate(TWELVE)}
    stat, dof = pearson_chi2(CountTable(counts, n_emitted=100, efficiency=1.0), dist)
    assert abs(stat - 0.2) < 1e-12 and dof == 9
    counts[TWELVE[11]] = 1
    counts[TWELVE[1]] -= 1
    assert pearson_chi2(CountTable(counts, n_emitted=100, efficiency=1.0), dist) == (math.inf, 9)
    with pytest.raises(ValueError):
        pearson_chi2(CountTable(dict.fromkeys(TWELVE, 0), n_emitted=0, efficiency=1.0), dist)


def test_efficiency_domain_is_enforced_where_it_is_used():
    table = CountTable({SURE_OUTCOME: 5}, n_emitted=10, efficiency=1.0)
    with pytest.raises(ValueError):
        CountTable({SURE_OUTCOME: 5}, n_emitted=10, efficiency=0.0)
    with pytest.raises(ValueError):
        consistency_z(estimate(table)[SURE_OUTCOME], 0.5, 10, 0.0)
