"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line (visible with `pytest -s`; `pytest -v` shows the same verdict
per test name)."""

import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import twophoton
from twophoton import formulas
from twophoton.compare import ANGLES, run_comparison
from twophoton.elements import BeamSplitterSpec
from twophoton.engine import (
    OPPOSITE,
    InputSpec,
    coincidence_probability,
    full_outcome_distribution,
)
from twophoton.montecarlo import RunConfig, sample_counts

TOL = 1e-12
BS = BeamSplitterSpec.fifty_fifty()
HALF_PI = math.pi / 2.0


def report(n: int, name: str, ok: bool, detail: str) -> str:
    line = f"criterion {n} ({name}): {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    return line


def test_criterion_1_engine_formula_agreement():
    t0 = time.monotonic()
    results = run_comparison()
    elapsed = time.monotonic() - t0
    n_total = sum(r.n_points for r in results)
    worst = max(r.max_dev for r in results)
    four_angle = {r.name: r.n_points for r in results}
    ok = (
        all(r.passed(TOL) for r in results)
        and n_total >= 10_000
        and four_angle["coincidence"] >= 10_000
        and four_angle["same_arm"] >= 10_000
        and elapsed < 60.0
    )
    line = report(
        1,
        "engine vs closed forms",
        ok,
        f"{n_total} points, max |dev| = {worst:.3e}, {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_2_pinned_closed_form_values():
    checks = []
    # crossed photons through crossed analyzers: single surviving path, 1/4
    for phi in (0.0, HALF_PI, math.pi, 2.0 * math.pi / 3.0):
        checks.append(abs(formulas.p_coincidence(0.0, HALF_PI, 0.0, HALF_PI, BS, phi) - 0.25))
    # crossed photons, no analyzers, zero phase: 1/2
    checks.append(abs(formulas.p_no_polarizers(0.0, HALF_PI, 0.0) - 0.5))
    # aligned everything at pi fringe phase: certain coincidence
    checks.append(abs(formulas.p_coincidence(0.0, 0.0, 0.0, 0.0, BS, math.pi) - 1.0))
    # aligned everything at quarter fringe phase: 1/2
    checks.append(abs(formulas.p_coincidence(0.0, 0.0, 0.0, 0.0, BS, HALF_PI) - 0.5))
    # aligned bunching at psi = 0: 1/2
    checks.append(abs(formulas.p_same_arm(0.0, 0.0, 0.0, 0.0, BS, 0.0) - 0.5))
    # splitting + bunching exhaust all pairs on the full angle grid
    for pol1, pol2 in itertools.product(ANGLES, repeat=2):
        total = formulas.p_no_polarizers(pol1, pol2, 0.0) + formulas.p_same_arm_no_polarizers(
            pol1, pol2
        )
        checks.append(abs(total - 1.0))
    # aligned double trigger: 1/4
    checks.append(abs(formulas.p_double_trigger(0.0, 0.0, 0.0) - 0.25))
    # unpolarized coincidence at zero phase: 0 aligned, 1/8 crossed
    checks.append(abs(formulas.p_unpolarized_5050(0.3, 0.3, 0.0) - 0.0))
    checks.append(abs(formulas.p_unpolarized_5050(0.0, HALF_PI, 0.0) - 0.125))
    # unpolarized bunching: 1/4 aligned, 1/8 crossed
    checks.append(abs(formulas.p_unpolarized_same_arm(0.0, 0.0) - 0.25))
    checks.append(abs(formulas.p_unpolarized_same_arm(0.0, HALF_PI) - 0.125))
    worst = max(checks)
    ok = worst <= TOL
    line = report(2, "pinned values", ok, f"{len(checks)} values, max |dev| = {worst:.3e}")
    assert ok, line


def total_deviation(dist: np.ndarray) -> np.ndarray:
    """|total - 1| of each distribution on the last axis, added left to right."""
    return np.abs(np.cumsum(dist, axis=-1)[..., -1] - 1.0).ravel()


def test_criterion_3_distribution_normalization():
    t0 = time.monotonic()
    rng = np.random.default_rng(2026)
    # polarized inputs over the whole four-angle grid, in one batched call
    pol1, pol2, ana1, ana2 = np.meshgrid(*[ANGLES] * 4, indexing="ij", sparse=True)
    devs = [*total_deviation(full_outcome_distribution(InputSpec.polarized(pol1, pol2), ana1, ana2, BS, 0.0, 0.0))]
    n_polarized = len(devs)
    # unpolarized input over the full analyzer grid
    ana1, ana2 = np.meshgrid(ANGLES, ANGLES, indexing="ij", sparse=True)
    devs += [*total_deviation(full_outcome_distribution(InputSpec.unpolarized(), ana1, ana2, BS, 0.0, 0.0))]
    # 20 random fringe-phase pairs on the matched surface cos(phi) = cos(psi),
    # where the twelve outcomes form one experiment's partition (the
    # off-surface total is pinned by the deviation-law test in test_engine.py)
    for _ in range(20):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        psi = rng.choice([phi, -phi, 2.0 * math.pi - phi])
        pol1, pol2, ana1, ana2 = rng.uniform(0.0, math.pi, size=4)
        inp = InputSpec.polarized(pol1, pol2) if rng.random() < 0.5 else InputSpec.unpolarized()
        dist = full_outcome_distribution(inp, ana1, ana2, BS, phi, psi)
        devs += [*total_deviation(dist)]
    worst = max(devs)
    elapsed = time.monotonic() - t0
    ok = worst <= TOL and len(devs) == 20_736 + 144 + 20
    line = report(
        3,
        "normalization",
        ok,
        f"{len(devs)} distributions ({n_polarized} polarized grid), max |total-1| = {worst:.3e}, "
        f"{elapsed:.2f}s",
    )
    assert ok, line


def test_criterion_4_quantum_classical_contrast():
    quantum_min = min(
        formulas.p_unpolarized(ana1, ana2, BS, 0.0)
        for ana1, ana2 in itertools.product(ANGLES, repeat=2)
    )
    classical_min = min(
        formulas.p_classical(ana1, ana2, phi)
        for ana1, ana2 in itertools.product(ANGLES, repeat=2)
        for phi in (0.0, HALF_PI, math.pi, 2.0 * math.pi / 3.0)
    )
    ok = abs(quantum_min) <= TOL and classical_min == 3.0
    line = report(
        4,
        "quantum floor 0 vs classical floor 3",
        ok,
        f"min quantum = {quantum_min:.3e}, min classical = {classical_min!r}",
    )
    assert ok, line


def test_criterion_5_common_rotation_invariance():
    rng = np.random.default_rng(515)
    unpol = InputSpec.unpolarized()
    devs = []
    for _ in range(50):
        ana1, ana2, delta = rng.uniform(-math.pi, math.pi, size=3)
        base = coincidence_probability(unpol, ana1, ana2, BS, 0.0)
        rotated = coincidence_probability(unpol, ana1 + delta, ana2 + delta, BS, 0.0)
        devs.append(abs(rotated - base))
    worst = max(devs)
    ok = worst <= TOL
    line = report(5, "analyzer co-rotation invariance", ok, f"50 offsets, max |dev| = {worst:.3e}")
    assert ok, line


def test_criterion_6_monte_carlo_consistency():
    t0 = time.monotonic()
    dist = full_outcome_distribution(
        InputSpec.unpolarized(), 0.0, math.pi / 6.0, BS, 0.0, 0.0
    )
    n = 1_000_000
    sigma = math.sqrt(0.25 * 0.75 / n)
    hits = 0
    worst_z = 0.0
    for seed in range(20):
        opp = sample_counts(dist, RunConfig(n, efficiency=1.0, seed=seed))[OPPOSITE].sum()
        z = (opp / n - 0.25) / sigma
        worst_z = max(worst_z, abs(z))
        hits += abs(z) <= 3.0
    elapsed = time.monotonic() - t0
    ok = hits >= 18 and elapsed < 60.0
    line = report(
        6,
        "Monte Carlo opposite-side share",
        ok,
        f"{hits}/20 seeds within 3 sigma of 1/4, worst |z| = {worst_z:.2f}, {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_7_compare_negative_control():
    # the child imports the same package as this process
    package_root = str(Path(twophoton.__file__).resolve().parents[1])
    path = [package_root, *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "twophoton.cli",
            "compare",
            "--step",
            "8",
            "--perturb",
            "unpolarized_5050_prefactor=0.13",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )
    ok = proc.returncode == 2 and "unpolarized_5050" in proc.stdout and "FAIL" in proc.stdout
    line = report(
        7,
        "perturbed-constant negative control",
        ok,
        f"exit code {proc.returncode}, perturbed check flagged "
        f"{'yes' if 'FAIL' in proc.stdout else 'no'}",
    )
    assert ok, line
