"""Self-tests of the benchmark at its smoke size.

    python3 -m pytest perfbench -q

They run the benchmark the way it is run for real, as a command, and check
its output format, its gates (including the negative control) and its
refusal to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_matches_the_metrics_the_run_emits():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [tuple(m.values()) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [tuple(m.values()) for m in BENCHMARK["per_layer"]] == spans.per_layer_spec()


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_passes_every_gate(workload, trace):
    proc = bench(
        "--workload", workload, "--seed", "5", "--seconds", "0.1", "--trace", trace, "--size", "smoke"
    )
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = BENCHMARK["per_layer"] if trace == "1" else BENCHMARK["end_to_end"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [(m["name"], m["unit"]) for m in wanted]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    if trace == "1" and workload == "compare_grid":
        m = {k: v["value"] for k, v in result["metrics"].items()}
        engine = sum(m[f"{layer}.self_s"] for layer in ("fock", "elements", "engine"))
        total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
        assert engine > total / 2
        smoke_points = run.compare_expected_points(run.SIZES["smoke"].compare_step)
        assert m["compare.coincidence.points"] == smoke_points["coincidence"]


def test_negative_control_registers_as_a_failed_op():
    op = run.Op("compare", ["compare", "--step", "4096", "--perturb", run.NEGATIVE_CONTROL])
    run.call_cli(op)
    assert op.rc == 2
    assert run.compare_gate(op, run.compare_expected_points(4096)) == ["unpolarized_5050"]
    clean = run.Op("compare", ["compare", "--step", "4096"])
    run.call_cli(clean)
    assert run.compare_gate(clean, run.compare_expected_points(4096)) == []


def test_sweep_gate_rejects_a_wrong_row():
    batch = run.SweepBatch(5, run.SIZES["smoke"])
    ops = batch.ops()
    for op in ops:
        run.call_cli(op)
    assert batch.check(ops) == (8, [])
    # an engine value off by 1e-9 must fail its config, and so must a CSV
    # that differs from the first sweep of the same config
    header, *rows = ops[0].out.splitlines()
    cells = rows[0].split(",")
    cells[2] = repr(float(cells[2]) + 1e-9)
    cells[3] = "1e-09"
    ops[0].out = "\n".join([header, ",".join(cells), *rows[1:]]) + "\n"
    assert batch.check(ops) == (8, ["coincidence"])


def test_mc_gate_rejects_counts_off_the_distribution():
    bulk = run.McBulk(0, run.SIZES["smoke"])
    op = bulk.ops()[0]
    run.call_cli(op)
    counts = run.mc_counts(op)
    assert run.count_digest(counts) == run.PINNED_MC_DIGESTS[bulk.blocks]
    stat, dof = run.pearson_chi2(counts, bulk.n_pairs, bulk.efficiency)
    assert dof == 12 and stat < run.chi2_quantile(dof, run.CHI2_TAIL)
    label = next(iter(counts))
    skewed = {**counts, label: (counts[label][0] + 2000, counts[label][1])}
    assert run.pearson_chi2(skewed, bulk.n_pairs, bulk.efficiency)[0] > run.chi2_quantile(dof, run.CHI2_TAIL)


def test_chi2_quantile_is_close_to_the_exact_one():
    # exact upper 1e-6 quantiles of chi-square with 11 and 12 degrees of freedom
    assert run.chi2_quantile(11, 1e-6) == pytest.approx(48.866, rel=0.03)
    assert run.chi2_quantile(12, 1e-6) == pytest.approx(50.825, rel=0.03)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "mc_bulk", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
