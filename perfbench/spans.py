"""In-memory span tracer for the twophoton benchmark.

The tracer never edits the package.  `installed()` replaces, for the
duration of a `with` block, the names that each calling module binds (for
example `engine.apply_operator_expr`, which the engine imported from `fock`,
or `compare.coincidence_probability`, which compare imported from `engine`)
with wrappers that record one span per call.  A span is named after the
layer that owns the function, so `engine.apply_operator_expr` is recorded as
`fock.apply_operator_expr`.

Aggregates per span name (calls, busy time, self time) and per layer (entries
from another layer, busy time, self time) are updated exactly at every span
end.  Raw spans (id, name, start, end, parent id, op id) are kept in memory
up to `span_cap` and written out once, by `write()`, at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

LAYERS = ("fock", "elements", "engine", "formulas", "compare", "montecarlo", "cli")

ENGINE_FNS = (
    "coincidence_probability",
    "coincidence_no_polarizers",
    "same_arm_probability",
    "same_arm_both_arms",
    "same_arm_no_polarizers",
    "double_trigger_probability",
    "full_outcome_distribution",
)

FORMULA_FNS = (
    "p_coincidence",
    "p_no_polarizers",
    "p_same_arm",
    "p_same_arm_no_polarizers",
    "p_double_trigger",
    "p_unpolarized",
    "p_unpolarized_5050",
    "p_unpolarized_same_arm",
    "p_classical",
)

COMPARE_FAMILIES = (
    "coincidence",
    "same_arm",
    "unpolarized",
    "unpolarized_5050",
    "no_polarizers",
    "same_arm_no_polarizers",
    "unpolarized_same_arm",
    "double_trigger",
)


def _count_points(family: str, counters: dict, result) -> None:
    counters[f"compare.{family}.points"] += result.n_points


def _count_blocks(counters: dict, result) -> None:
    from twophoton.montecarlo import BLOCK_PAIRS

    counters["montecarlo.blocks"] += -(-result.n_emitted // BLOCK_PAIRS)
    counters["montecarlo.pairs_emitted"] += result.n_emitted
    counters["montecarlo.pairs_recorded"] += sum(result.counts.values())


def traced_bindings() -> list[tuple[str, str, str, Callable | None, bool]]:
    """(binding module, attribute, span name, on-return hook, starts an op).

    A function is wrapped in every module that calls it through its own
    binding, so calls from each caller are seen.
    """
    table: list[tuple[str, str, str, Callable | None, bool]] = [
        ("engine", "apply_operator_expr", "fock.apply_operator_expr", None, False),
        ("engine", "product_state", "fock.product_state", None, False),
        ("engine", "vacuum_amplitude", "fock.vacuum_amplitude", None, False),
        ("engine", "detector_operator", "elements.detector_operator", None, False),
        ("engine", "same_arm_operator_pair", "elements.same_arm_operator_pair", None, False),
    ]
    # the engine calls its own public functions (for example the 12-outcome
    # distribution calls coincidence_probability), compare and cli call them
    # through names imported from the engine
    for fn in ("coincidence_probability", "same_arm_probability", "same_arm_both_arms"):
        table.append(("engine", fn, f"engine.{fn}", None, False))
    for fn in ENGINE_FNS:
        if fn != "full_outcome_distribution":
            table.append(("compare", fn, f"engine.{fn}", None, False))
        if fn not in ("same_arm_both_arms", "same_arm_no_polarizers"):
            table.append(("cli", fn, f"engine.{fn}", None, False))
    # compare and cli reach the closed forms as attributes of the module
    for fn in FORMULA_FNS:
        table.append(("formulas", fn, f"formulas.{fn}", None, False))
    table.append(("compare", "run_comparison", "compare.run_comparison", None, False))
    for family in COMPARE_FAMILIES:
        hook = partial(_count_points, family)
        table.append(("compare", f"check_{family}", f"compare.{family}", hook, True))
    table += [
        ("cli", "sample_run", "montecarlo.sample_run", _count_blocks, False),
        ("cli", "estimate", "montecarlo.estimate", None, False),
        ("cli", "consistency_z", "montecarlo.consistency_z", None, False),
        ("cli", "main", "cli.main", None, False),
        ("cli", "parse_config", "cli.parse_config", None, False),
        ("cli", "apply_set_overrides", "cli.apply_set_overrides", None, False),
        ("cli", "run_sweep", "cli.run_sweep", None, False),
    ]
    return table


class Tracer:
    """Span recorder with exact per-name and per-layer aggregates."""

    def __init__(self, span_cap: int = 100_000):
        self.span_cap = span_cap
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.dropped = 0
        self.ops: list[str] = []
        self.stats: dict[str, list[int]] = {}  # name -> [calls, busy_ns, self_ns]
        self.layer_entries = dict.fromkeys(LAYERS, 0)
        self.layer_busy_ns = dict.fromkeys(LAYERS, 0)
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._depth = dict.fromkeys(LAYERS, 0)
        self._stack: list[list] = []  # [span id, start ns, child ns, op id]
        self._next_id = 0

    def begin_op(self, label: str) -> None:
        """Start a new op; every span until the next op belongs to it."""
        self.ops.append(label)

    def wrap(self, fn: Callable, name: str, hook: Callable | None, op_root: bool) -> Callable:
        layer = name.split(".", 1)[0]
        stats = self.stats.setdefault(name, [0, 0, 0])
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if op_root:
                self.begin_op(name)
            parent = self._stack[-1][0] if self._stack else -1
            sid = self._next_id
            self._next_id = sid + 1
            self._depth[layer] += 1
            frame = [sid, clock(), 0, len(self.ops) - 1]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - frame[1]
                self._stack.pop()
                if self._stack:
                    self._stack[-1][2] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[2]
                self._depth[layer] -= 1
                if self._depth[layer] == 0:
                    self.layer_entries[layer] += 1
                    self.layer_busy_ns[layer] += dur
                if len(self.spans) < self.span_cap:
                    self.spans.append((sid, name, frame[1], end, parent, frame[3]))
                else:
                    self.dropped += 1
            if hook is not None:
                hook(self.counters, result)
            return result

        return traced

    def layer_self_ns(self, layer: str) -> int:
        prefix = layer + "."
        return sum(s[2] for name, s in self.stats.items() if name.startswith(prefix))

    def write(self, path: Path) -> None:
        """Write raw spans, grouped per op, with the exact aggregates."""
        by_op: dict[int, list] = {}
        for sid, name, start, end, parent, op in self.spans:
            by_op.setdefault(op, []).append([sid, name, start, end, parent])
        doc = {
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent_id"],
            "spans_recorded": len(self.spans),
            "spans_dropped": self.dropped,
            "ops": [
                {"op": i, "label": self.ops[i] if i >= 0 else "(none)", "spans": spans}
                for i, spans in sorted(by_op.items())
            ],
            "per_name": {
                name: {"calls": s[0], "busy_ns": s[1], "self_ns": s[2]}
                for name, s in sorted(self.stats.items())
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every traced binding for the duration of the block.

    A binding the package no longer has is skipped, so the trace keeps
    working across refactors and the missing span reads as zero calls.
    """
    originals = []
    for mod, attr, name, hook, op_root in traced_bindings():
        module = importlib.import_module(f"twophoton.{mod}")
        fn = getattr(module, attr, None)
        if fn is not None:
            originals.append((module, attr, fn, name, hook, op_root))
    for module, attr, fn, name, hook, op_root in originals:
        setattr(module, attr, tracer.wrap(fn, name, hook, op_root))
    try:
        yield tracer
    finally:
        for module, attr, fn, *_ in originals:
            setattr(module, attr, fn)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(metric name, unit, better) for every per-layer metric, in report order."""
    spec = []
    for layer in LAYERS:
        spec += [
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.busy_s", "s", "lower"),
            (f"{layer}.self_s", "s", "lower"),
        ]
    spec += [
        ("fock.apply_operator_expr.calls", "count", "lower"),
        ("fock.apply_operator_expr.busy_s", "s", "lower"),
        ("fock.apply_operator_expr.us_per_call", "us", "lower"),
        ("fock.product_state.calls", "count", "lower"),
        ("fock.product_state.busy_s", "s", "lower"),
        ("fock.vacuum_amplitude.calls", "count", "lower"),
        ("elements.detector_operator.calls", "count", "lower"),
        ("elements.detector_operator.busy_s", "s", "lower"),
        ("elements.same_arm_operator_pair.calls", "count", "lower"),
        ("elements.same_arm_operator_pair.busy_s", "s", "lower"),
    ]
    for fn in ENGINE_FNS:
        spec += [(f"engine.{fn}.calls", "count", "lower"), (f"engine.{fn}.us_per_call", "us", "lower")]
    spec.append(("formulas.us_per_call", "us", "lower"))
    for family in COMPARE_FAMILIES:
        spec += [(f"compare.{family}.points", "count", "higher"), (f"compare.{family}.s", "s", "lower")]
    spec += [
        ("montecarlo.blocks", "count", "higher"),
        ("montecarlo.us_per_block", "us", "lower"),
        ("montecarlo.recorded_fraction", "ratio", "higher"),
        ("montecarlo.rng_floor_us_per_block", "us", "lower"),
        ("montecarlo.sample_run.us_per_call", "us", "lower"),
        ("cli.parse_config.calls", "count", "lower"),
        ("cli.parse_config.busy_s", "s", "lower"),
        ("cli.csv_bytes", "bytes", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return spec


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass, from the tracer's exact aggregates.

    Leaves out the two metrics the tracer cannot see by itself:
    `montecarlo.rng_floor_us_per_block` and `trace.overhead_pct`.
    """
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = tracer.layer_entries[layer] / passes
        m[f"{layer}.busy_s"] = tracer.layer_busy_ns[layer] / passes / 1e9
        m[f"{layer}.self_s"] = tracer.layer_self_ns(layer) / passes / 1e9

    def per_call_us(busy_ns: float, calls: float) -> float:
        return busy_ns / calls / 1e3 if calls else 0.0

    for name, (calls, busy_ns, _) in tracer.stats.items():
        m[f"{name}.calls"] = calls / passes
        m[f"{name}.busy_s"] = busy_ns / passes / 1e9
        m[f"{name}.us_per_call"] = per_call_us(busy_ns, calls)
    m["formulas.us_per_call"] = per_call_us(
        tracer.layer_busy_ns["formulas"], tracer.layer_entries["formulas"]
    )
    for family in COMPARE_FAMILIES:
        m[f"compare.{family}.points"] = tracer.counters[f"compare.{family}.points"] / passes
        m[f"compare.{family}.s"] = m.get(f"compare.{family}.busy_s", 0.0)
    blocks = tracer.counters["montecarlo.blocks"]
    sample_ns = tracer.stats.get("montecarlo.sample_run", [0, 0, 0])[1]
    m["montecarlo.blocks"] = blocks / passes
    m["montecarlo.us_per_block"] = per_call_us(sample_ns, blocks)
    emitted = tracer.counters["montecarlo.pairs_emitted"]
    recorded = tracer.counters["montecarlo.pairs_recorded"]
    m["montecarlo.recorded_fraction"] = recorded / emitted if emitted else 0.0
    m["cli.csv_bytes"] = tracer.counters["cli.csv_bytes"] / passes
    return m
