#!/usr/bin/env python3
"""Benchmark for twophoton: the three things its users run, end to end and
layer by layer.

    python3 perfbench/run.py --workload compare_grid --seed 1 --seconds 25 --trace 0

Workloads (perfbench/README.md says why each exists):

  compare_grid  `twophoton compare` on the full default grid (48 672 points)
  sweep_batch   eight `twophoton sweep` configs, one per experiment, with
                seed-drawn off-lattice angles and splitters
  mc_bulk       one `twophoton mc` run of whole 2**16-pair blocks

Every op goes through the public entry point `twophoton.cli.main(argv)` in
this one process, pinned to one core, with no worker threads, and its output
is checked by a correctness gate.  A run does one warm-up pass, then repeats
timed passes of its workload for about `--seconds` seconds (at least two)
and reports medians over passes, corrected to nominal machine speed by a
reference kernel (reference.py) timed next to each pass.

With `--trace 0` the run reports the end-to-end metrics.  With `--trace 1`
it alternates untraced and traced passes and reports per-layer metrics from
spans recorded around the calls into each layer (see spans.py).  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; a full report goes to `.perfbench_out/`.

Exit code 0: every gate held.  1: a gate missed.  2: bad usage, or the
package source is not next to the benchmark (no result is printed).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TypeVar

import spans
from reference import NOMINAL_S, reference_kernel_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
T = TypeVar("T")

TOL = 1e-12  # the project's agreement tolerance
MC_RUN_Z = 5.0  # bound on |estimate - exact| / sigma for sweep mc_run rows
CHI2_TAIL = 1e-6  # Pearson chi-square gate rejects below this tail probability
MIN_PASSES = 2  # timed passes at least; with the warm-up, output is checked to repeat
NEGATIVE_CONTROL = "unpolarized_5050_prefactor=0.13"
NEGATIVE_CONTROL_STEP = 4096
REF_BURST = 3  # reference-kernel runs per speed sample
MARK_INTERVAL_S = 0.5  # speed samples taken while a pass runs

END_TO_END = (
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.24),
    ("items_per_s", "1/s", "higher", 0.24),
    ("cpu_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("ok_rate", "ratio", "higher", 0.01),
)


@dataclass(frozen=True)
class Size:
    compare_step: int  # `compare --step`: thins the two four-angle families
    sweep_steps: int  # rows per sweep config
    mc_run_pairs: int  # pairs per sweep mc_run row, under one block
    mc_bulk_blocks: int  # 2**16-pair blocks in the mc_bulk run
    setup_spawns: int  # fresh interpreters timed for setup_s


SIZES = {
    "full": Size(compare_step=1, sweep_steps=73, mc_run_pairs=10_000, mc_bulk_blocks=256, setup_spawns=7),
    "smoke": Size(
        compare_step=NEGATIVE_CONTROL_STEP,
        sweep_steps=5,
        mc_run_pairs=2_000,
        mc_bulk_blocks=2,
        setup_spawns=2,
    ),
}

# mc_bulk: unpolarized input, efficiency below 1, phi = psi (the partition is
# an event space only when cos(phi) = cos(psi)).  `mc` validates the whole
# config, and the default experiment accepts only polarized input, so the
# experiment is set to one that accepts both.
MC_BULK_SETS = (
    "experiment=mc_run",
    "input=unpolarized",
    "theta1_deg=0.0",
    "theta2_deg=30.0",
    "phi_deg=60.0",
    "psi_deg=60.0",
    "efficiency=0.9",
)
# Count digests of the mc_bulk run at the CLI's default seed 0, recorded at
# the seed commit under philox4x64/block-v1, keyed by block count.
PINNED_MC_DIGESTS = {
    256: "3bd0d56478d6afd3",
    2: "da1dd53b78e8499d",
}


@dataclass
class Op:
    """One workload op: a cli.main call, its exit code and captured stdout."""

    label: str
    argv: list[str]
    rc: int | None = None
    out: str = ""
    error: str | None = None


def call_cli(op: Op) -> None:
    from twophoton import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            op.rc = cli.main(op.argv)
    except SystemExit as exc:  # argparse rejects the arguments
        op.rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an uncaught error is a failed op, not a dead benchmark
        op.error = traceback.format_exc(limit=3)
    op.out = buf.getvalue()


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# --------------------------------------------------------------- compare_grid


def compare_expected_points(step: int) -> dict[str, int]:
    """Points per family of `twophoton compare --step step`."""
    four_angle = len(range(0, 12**4, step))
    return {
        "coincidence": four_angle,
        "same_arm": four_angle,
        "unpolarized": 12 * 12 * 4 * 4,
        "unpolarized_5050": 12 * 12 * 4,
        "no_polarizers": 12 * 12 * 4,
        "same_arm_no_polarizers": 12 * 12,
        "unpolarized_same_arm": 12 * 12,
        "double_trigger": 12**3 * 2,
    }


COMPARE_LINE = re.compile(r"^(\S+)\s+n=\s*(\d+)\s+max\|dev\|=(\S+)\s+mean\|dev\|=\S+\s+(\S+)$")


def compare_gate(op: Op, expected: dict[str, int]) -> list[str]:
    """Families that fail: not shown, wrong point count, over tolerance or
    not marked pass.  A nonzero exit with every family passing fails the op
    as a whole."""
    seen = {m[1]: m for m in map(COMPARE_LINE.match, op.out.splitlines()) if m}
    failed = []
    for family, n_points in expected.items():
        m = seen.get(family)
        if m is None or int(m[2]) != n_points or not float(m[3]) <= TOL or m[4] != "pass":
            failed.append(family)
    if not failed and (op.rc != 0 or op.error):
        failed.append(op.label)
    return failed


class CompareGrid:
    item = "engine-vs-closed-form point"

    def __init__(self, seed: int, size: Size):
        self.step = size.compare_step
        self.expected = compare_expected_points(self.step)
        self.items = sum(self.expected.values())
        self.setup_sets: list[str] = []

    def ops(self) -> list[Op]:
        return [Op("compare", ["compare", "--step", str(self.step)])]

    def check(self, ops: list[Op]) -> tuple[int, list[str]]:
        return len(self.expected), compare_gate(ops[0], self.expected)

    def final_checks(self) -> dict:
        """Negative control: a perturbed closed-form constant must fail
        exactly the unpolarized_5050 family, with exit code 2."""
        op = Op("compare", ["compare", "--step", str(NEGATIVE_CONTROL_STEP), "--perturb", NEGATIVE_CONTROL])
        call_cli(op)
        failed = compare_gate(op, compare_expected_points(NEGATIVE_CONTROL_STEP))
        bites = failed == ["unpolarized_5050"] and op.rc == 2
        control = {"perturb": NEGATIVE_CONTROL, "exit_code": op.rc, "failed_ops": failed, "ok": bites}
        return {"negative_control": control}

    def counts(self) -> dict:
        return {"points_per_pass": self.items, "families": len(self.expected), "compare_step": self.step}


# ---------------------------------------------------------------- sweep_batch


def sweep_configs(seed: int, size: Size) -> list[tuple[str, dict]]:
    """One config per experiment.  The seed draws every parameter that is
    not swept, continuously, so points fall off the pi/12 lattice; the
    structure (inputs, swept parameter, step count) is fixed, so every seed
    does the same amount of work."""
    rng = random.Random(seed)

    def angle() -> float:
        return rng.uniform(0.0, 180.0)

    def phase() -> float:
        return rng.uniform(0.0, 360.0)

    def split() -> float:
        return rng.uniform(0.05, 0.95)

    def sweep(param: str, stop: float) -> dict:
        return {"sweep.param": param, "sweep.start": 0.0, "sweep.stop": stop, "sweep.steps": size.sweep_steps}

    configs = [
        ("coincidence", {"theta1p_deg": angle(), "theta2p_deg": angle(), "theta1_deg": angle(),
                         "theta2_deg": angle(), "tx": split(), "ty": split(), **sweep("phi_deg", 360.0)}),
        ("no_polarizers", {"theta1p_deg": angle(), "theta2p_deg": angle(), **sweep("phi_deg", 360.0)}),
        ("same_arm", {"theta1p_deg": angle(), "theta2p_deg": angle(), "theta1_deg": angle(),
                      "theta2_deg": angle(), "tx": split(), "ty": split(), "arm": "side1",
                      **sweep("psi_deg", 360.0)}),
        ("double_trigger", {"theta1p_deg": angle(), "theta2p_deg": angle(), **sweep("theta1_deg", 180.0)}),
        ("unpolarized", {"input": "unpolarized", "theta1_deg": angle(), "theta2_deg": angle(),
                         "tx": split(), "ty": split(), **sweep("phi_deg", 360.0)}),
        ("classical", {"theta1_deg": angle(), "theta2_deg": angle(), **sweep("phi_deg", 360.0)}),
    ]
    # full_distribution and mc_run sweep an analyzer with phi = psi fixed
    fringe = phase()
    configs.append(("full_distribution", {"input": "unpolarized", "theta2_deg": angle(), "phi_deg": fringe,
                                          "psi_deg": fringe, "tx": split(), "ty": split(),
                                          **sweep("theta1_deg", 180.0)}))
    fringe = phase()
    configs.append(("mc_run", {"theta1p_deg": angle(), "theta2p_deg": angle(), "theta2_deg": angle(),
                               "phi_deg": fringe, "psi_deg": fringe, "tx": split(), "ty": split(),
                               "efficiency": rng.uniform(0.8, 1.0), "n_pairs": size.mc_run_pairs,
                               **sweep("theta1_deg", 180.0)}))
    return [(name, {"experiment": name, **values}) for name, values in configs]


def as_sets(config: dict) -> list[str]:
    # repr() of a float round-trips exactly through the CLI's float()
    return [f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}"
            for key, value in config.items()]


ENGINE_BACKED = {"coincidence", "no_polarizers", "same_arm", "double_trigger", "unpolarized"}


def sweep_row_ok(experiment: str, config: dict, row: list[str]) -> bool:
    if len(row) != 4:
        return False
    if experiment == "classical":  # benchmark rate only, no engine cells
        return row[2] == row[3] == "" and 3.0 <= float(row[1]) <= 7.0
    first, second, dev = float(row[1]), float(row[2]), float(row[3])
    if experiment in ENGINE_BACKED:
        return dev <= TOL and abs(first - second) <= TOL and -TOL <= second <= 1.0 + TOL
    if experiment == "full_distribution":
        return first == 1.0 and abs(second - 1.0) <= TOL and dev <= TOL
    # mc_run: estimate of the opposite-side total against the exact value
    n, eff = config["n_pairs"], config["efficiency"]
    p_rec = first * eff * eff
    sigma = math.sqrt(max(p_rec * (1.0 - p_rec), 0.0) / n) / (eff * eff)
    return dev <= MC_RUN_Z * sigma if sigma > 0 else dev == 0.0


class SweepBatch:
    item = "sweep row"

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.configs = sweep_configs(seed, size)
        self.steps = size.sweep_steps
        self.items = len(self.configs) * self.steps
        self.first_csv: dict[str, str] = {}
        self.setup_sets = as_sets(self.configs[-1][1])

    def ops(self) -> list[Op]:
        return [
            Op(name, ["sweep", "--seed", str(self.seed)] + [a for s in as_sets(config) for a in ("--set", s)])
            for name, config in self.configs
        ]

    def check(self, ops: list[Op]) -> tuple[int, list[str]]:
        failed = []
        for op, (name, config) in zip(ops, self.configs):
            header, rows = parse_csv(op.out)
            first_col = config["sweep.param"]
            want = [first_col, "exact", "estimate", "abs_deviation"] if name == "mc_run" else [
                first_col, "analytic", "engine", "abs_deviation"]
            # the same config swept again must give byte-identical CSV
            same = self.first_csv.setdefault(name, op.out) == op.out
            try:
                rows_ok = all(sweep_row_ok(name, config, row) for row in rows)
            except ValueError:
                rows_ok = False
            if op.rc != 0 or op.error or header != want or len(rows) != self.steps or not rows_ok or not same:
                failed.append(name)
        return len(ops), failed

    def final_checks(self) -> dict:
        return {}

    def counts(self) -> dict:
        return {
            "configs": len(self.configs),
            "rows_per_pass": self.items,
            "mc_run_pairs_per_row": self.configs[-1][1]["n_pairs"],
            "configs_drawn": dict(self.configs),
        }


# -------------------------------------------------------------------- mc_bulk


def chi2_quantile(dof: int, tail: float) -> float:
    """Upper chi-square quantile by the Wilson-Hilferty cube approximation."""
    z = statistics.NormalDist().inv_cdf(1.0 - tail)
    a = 2.0 / (9.0 * dof)
    return dof * (1.0 - a + z * math.sqrt(a)) ** 3


def mc_counts(op: Op) -> dict[str, tuple[int, float]]:
    """outcome label -> (count, exact probability) from the mc report; empty
    when the report is malformed."""
    header, rows = parse_csv(op.out)
    if header != ["outcome", "count", "estimate", "stderr", "exact", "z"]:
        return {}
    try:
        return {row[0]: (int(row[1]), float(row[4])) for row in rows}
    except (IndexError, ValueError):
        return {}


def count_digest(counts: dict[str, tuple[int, float]]) -> str:
    text = "\n".join(f"{label}={count}" for label, (count, _) in sorted(counts.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pearson_chi2(counts: dict[str, tuple[int, float]], n_pairs: int, efficiency: float) -> tuple[float, int]:
    """Pearson chi-square of the twelve outcome counts, plus the pairs not
    recorded, against the exact distribution thinned by efficiency**2."""
    observed, expected = [], []
    for count, p in counts.values():
        observed.append(count)
        expected.append(n_pairs * p * efficiency**2)
    observed.append(n_pairs - sum(observed))
    expected.append(n_pairs - sum(expected))
    stat, cells = 0.0, 0
    for o, e in zip(observed, expected):
        if e > 0:
            stat += (o - e) ** 2 / e
            cells += 1
        elif o > 0:
            return math.inf, max(cells - 1, 1)
    return stat, cells - 1


class McBulk:
    item = "emitted pair"

    def __init__(self, seed: int, size: Size):
        from twophoton.montecarlo import BLOCK_PAIRS

        self.seed = seed
        self.blocks = size.mc_bulk_blocks
        self.n_pairs = self.blocks * BLOCK_PAIRS
        self.items = self.n_pairs
        self.efficiency = float(dict(s.split("=") for s in MC_BULK_SETS)["efficiency"])
        self.setup_sets = [*MC_BULK_SETS, f"n_pairs={self.n_pairs}"]
        self.first_counts: dict | None = None
        self.chi2: tuple[float, int] | None = None

    def argv(self, seed: int) -> list[str]:
        return ["mc", "--seed", str(seed)] + [a for s in self.setup_sets for a in ("--set", s)]

    def ops(self) -> list[Op]:
        return [Op("mc", self.argv(self.seed))]

    def check(self, ops: list[Op]) -> tuple[int, list[str]]:
        op = ops[0]
        counts = mc_counts(op)
        if self.first_counts is None:
            self.first_counts = counts
        stat, dof = (math.inf, 1)
        if len(counts) == 12:
            stat, dof = pearson_chi2(counts, self.n_pairs, self.efficiency)
        self.chi2 = (stat, dof)
        ok = (
            op.rc == 0
            and not op.error
            and len(counts) == 12
            and stat <= chi2_quantile(dof, CHI2_TAIL)
            and counts == self.first_counts  # same seed, same counts
        )
        return 1, [] if ok else ["mc"]

    def final_checks(self) -> dict:
        """Count digest at the default seed against the one recorded at the
        seed commit, so block-v1 bit-identity is checked on every run."""
        op = Op("mc", self.argv(0))
        call_cli(op)
        digest = count_digest(mc_counts(op))
        pinned = PINNED_MC_DIGESTS.get(self.blocks)
        stat, dof = self.chi2 or (math.nan, 0)
        return {
            "pinned_digest": {
                "seed": 0, "digest": digest, "recorded": pinned, "ok": op.rc == 0 and digest == pinned
            },
            "chi2": {
                "stat": stat, "dof": dof, "bound": chi2_quantile(max(dof, 1), CHI2_TAIL), "tail": CHI2_TAIL
            },
        }

    def counts(self) -> dict:
        return {
            "pairs_per_pass": self.n_pairs, "blocks_per_pass": self.blocks, "mc_sets": list(self.setup_sets)
        }


WORKLOADS = {"compare_grid": CompareGrid, "sweep_batch": SweepBatch, "mc_bulk": McBulk}


# ------------------------------------------------------------------ measuring


# The child times itself ready, then runs the reference kernel on the same
# core and reports how long that took, so the parent can leave it out.
SETUP_CODE = """
import sys, time, statistics
sys.path.insert(0, sys.argv[1])
import twophoton
from twophoton import cli
cli.parse_config(cli.apply_set_overrides(cli.parse_config({}), sys.argv[3:]))
ready = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from reference import reference_kernel_s
reference_kernel_s()  # the first run in a process also pays for allocation
probe = statistics.median(reference_kernel_s() for _ in range(%d))
print(time.perf_counter() - ready, probe)
"""


class SpeedProbe:
    """Machine speed, sampled with bursts of the reference kernel ("marks").

    While a pass runs, an interval timer takes a mark every MARK_INTERVAL_S
    seconds; the signal handler runs in the main thread between bytecodes,
    so it needs no hook in the package.  Marks also go between passes.  The
    work between two marks is scaled by the kernel's nominal time over the
    mean of the two bursts, so a run on a slowed machine reports what it
    would take at nominal speed (see reference.py).  Burst time is not
    counted as work.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.marks: list[tuple[float, float, float, float]] = []  # start, end, kernel s, cpu s
        self._marking = False
        self.mark()

    def mark(self, *_signal_args) -> None:
        if self._marking:  # a timer signal that arrives during a burst
            return
        self._marking = True
        start, cpu = time.perf_counter(), time.process_time()
        burst = [reference_kernel_s() for _ in range(REF_BURST)]
        self.samples += burst
        self.marks.append((start, time.perf_counter(), statistics.median(burst), time.process_time() - cpu))
        self._marking = False

    def measure(self, run: Callable[[], T]) -> tuple[T, float, float, float]:
        """Call `run` under the mark timer, then mark.  Return its result,
        its raw wall and CPU seconds (without the bursts inside it) and the
        factor that corrects them to nominal speed."""
        first = len(self.marks)
        begin, kernel_s = time.perf_counter(), self.marks[-1][2]
        previous = signal.signal(signal.SIGALRM, self.mark)
        signal.setitimer(signal.ITIMER_REAL, MARK_INTERVAL_S, MARK_INTERVAL_S)
        cpu0 = time.process_time()
        try:
            result = run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        cpu = time.process_time() - cpu0
        self.mark()
        raw = corrected = 0.0
        for start, end, next_kernel_s, _ in self.marks[first:]:
            raw += start - begin
            corrected += (start - begin) * NOMINAL_S / ((kernel_s + next_kernel_s) / 2.0)
            begin, kernel_s = end, next_kernel_s
        cpu -= sum(m[3] for m in self.marks[first:-1])
        return result, raw, cpu, corrected / raw


def measure_setup(spawns: int, sets: list[str]) -> tuple[float, list[float]]:
    """Median seconds from starting a fresh interpreter to `import twophoton`
    plus parsing the workload's config, over `spawns` interpreters, corrected
    to nominal speed by the reference kernel run in each interpreter right
    after; also the raw seconds."""
    raw, corrected = [], []
    for _ in range(spawns):
        t0 = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CODE % REF_BURST, str(SRC), str(HERE), *sets],
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
            check=True,
            timeout=60,
        )
        elapsed = time.perf_counter() - t0
        after_ready, kernel_s = map(float, child.stdout.split())
        raw.append(elapsed - after_ready)
        corrected.append(raw[-1] * NOMINAL_S / kernel_s)
    return statistics.median(corrected), raw


def rng_floor_us_per_block(seed: int, blocks: int = 24) -> float:
    """Median time of the part of a block that block-v1 fixes: Philox keyed by
    SeedSequence(seed, spawn_key=(j,)) plus three draws of a block's size."""
    import numpy as np
    from twophoton.montecarlo import BLOCK_PAIRS

    times = []
    for j in range(blocks):
        t0 = time.perf_counter()
        g = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(j,))))
        g.random(BLOCK_PAIRS)
        g.random(BLOCK_PAIRS)
        g.random(BLOCK_PAIRS)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


class Runner:
    """Runs passes of one workload, times them and gates their outputs."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed: list[str] = []

    def run_ops(self, tracer: spans.Tracer | None = None) -> list[Op]:
        ops = self.workload.ops()
        for op in ops:
            if tracer is not None:
                tracer.begin_op(op.label)
            call_cli(op)
        return ops

    def gate(self, ops: list[Op], tracer: spans.Tracer | None = None) -> None:
        attempted, failed = self.workload.check(ops)
        self.attempted += attempted
        self.failed += failed
        if tracer is not None:
            csv_ops = [op for op in ops if op.argv[0] != "compare"]
            tracer.counters["cli.csv_bytes"] += sum(len(op.out.encode()) for op in csv_ops)
        for op in ops:
            if op.error:
                print(f"op {op.label} raised:\n{op.error}", file=sys.stderr)

    def run_pass(self, tracer: spans.Tracer | None = None) -> float:
        """Run and gate one pass; return its wall seconds."""
        t0 = time.perf_counter()
        ops = self.run_ops(tracer)
        wall = time.perf_counter() - t0
        self.gate(ops, tracer)
        return wall

    def warm_up(self) -> float:
        """One gated pass before timing.  The first `compare` in a process
        runs about 20% slower than later ones, and alternating untraced and
        traced passes must not charge that to either side."""
        return self.run_pass()


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, workload) -> dict:
    import numpy as np
    from twophoton import __version__
    from twophoton.montecarlo import BLOCK_PAIRS, RNG_ALGORITHM

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "twophoton").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_commit": git_commit(),
        "src_sha256": src_hash.hexdigest()[:16],
        "twophoton_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": cpu_model(),
        "rng_algorithm": RNG_ALGORITHM,
        "block_pairs": BLOCK_PAIRS,
        "item": workload.item,
        **workload.counts(),
    }


def pin_to_one_core() -> int | None:
    """Keep this process and its children on one core, so the speed probe
    and the timed work see the same core's load: on a VM whose cores are
    shared with other tenants, the cores slow down independently."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def keep_going(start: float, seconds: float, passes: int, per_round: float) -> bool:
    """Start another round only if it is expected to end within the budget."""
    return passes < MIN_PASSES or time.perf_counter() - start + per_round <= seconds


def run_untraced(runner: Runner, args, size: Size) -> tuple[dict, dict]:
    setup_s, raw_setup = measure_setup(size.setup_spawns, runner.workload.setup_sets)
    warmup_s = runner.warm_up()
    probe = SpeedProbe()
    walls, cpus, factors = [], [], []
    start = time.perf_counter()
    while keep_going(start, args.seconds, len(walls), statistics.median(walls) if walls else 0.0):
        ops, wall, cpu, factor = probe.measure(runner.run_ops)
        runner.gate(ops)
        walls.append(wall)
        cpus.append(cpu)
        factors.append(factor)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(w * f for w, f in zip(walls, factors))
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "items_per_s": runner.workload.items / wall_s,
        "cpu_s": statistics.median(c * f for c, f in zip(cpus, factors)),
        "peak_rss_mb": peak_rss_mb,
        "ok_rate": (runner.attempted - len(runner.failed)) / runner.attempted,
    }
    raw = {
        "setup_s": statistics.median(raw_setup),
        "warmup_pass_s": warmup_s,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "reference_kernel_s": statistics.median(probe.samples),
    }
    extra = {"raw": raw, "pass_wall_s": walls, "pass_cpu_s": cpus, "pass_speed_factor": factors}
    return metrics, extra


def run_traced(runner: Runner, args) -> tuple[dict, dict]:
    tracer = spans.Tracer()
    warmup_s = runner.warm_up()
    plain, traced = [], []
    start = time.perf_counter()
    per_round = 0.0
    while keep_going(start, args.seconds, len(plain) + len(traced), per_round):
        plain.append(runner.run_pass())
        with spans.installed(tracer):
            traced.append(runner.run_pass(tracer))
        per_round = statistics.median(plain) + statistics.median(traced)
    metrics = spans.layer_metrics(tracer, len(traced))
    metrics["montecarlo.rng_floor_us_per_block"] = rng_floor_us_per_block(args.seed)
    metrics["trace.overhead_pct"] = (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0
    span_file = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
    tracer.write(span_file)
    extra = {
        "warmup_pass_s": warmup_s,
        "pass_wall_s": plain,
        "traced_pass_wall_s": traced,
        "span_file": str(span_file.relative_to(ROOT)),
        "spans_recorded": len(tracer.spans),
        "spans_dropped": tracer.dropped,
    }
    return metrics, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring budget of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=sorted(SIZES), default="full", help="smoke: tiny inputs for self-tests"
    )
    args = parser.parse_args(argv)

    if not (SRC / "twophoton" / "__init__.py").is_file():
        print(f"perfbench: package source not found at {SRC / 'twophoton'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import twophoton

    if Path(twophoton.__file__).resolve().parent != (SRC / "twophoton").resolve():
        print(f"perfbench: imported twophoton from {twophoton.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    pinned_cpu = pin_to_one_core()
    size = SIZES[args.size]
    workload = WORKLOADS[args.workload](args.seed, size)
    runner = Runner(workload)
    if args.trace:
        values, extra = run_traced(runner, args)
        spec = [(name, unit) for name, unit, _ in spans.per_layer_spec()]
    else:
        values, extra = run_untraced(runner, args, size)
        spec = [(name, unit) for name, unit, _, _ in END_TO_END]
    checks = workload.final_checks()
    correct = not runner.failed and all(c.get("ok", True) for c in checks.values())

    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in spec}
    report = {
        "provenance": {**provenance(args, workload), "nproc": nproc, "pinned_cpu": pinned_cpu},
        "checks": checks,
        "failed_ops": runner.failed,
        **extra,
        "result": {
            "correct": correct, "attempted": runner.attempted, "failed": len(runner.failed), "metrics": metrics
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    report_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_file.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size}: "
          f"{len(extra['pass_wall_s'])} untraced passes, report {report_file.relative_to(ROOT)}")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    for name, check in checks.items():
        print(f"check {name} " + json.dumps(check, sort_keys=True))
    if "raw" in extra:
        print("uncorrected " + json.dumps(extra["raw"], sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(report["result"]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
