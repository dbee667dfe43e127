"""Per-layer spans for the traced benchmark run, from outside the package.

The package binds names with ``from .x import y``, so a wrapper has to go
where the caller looks the name up: ``drcontracts.cli.optimal_contract`` and
``drcontracts.aggregation.optimal_contract`` are two bindings of one
function.  :class:`Tracer` swaps each binding in :data:`WRAPS` for a timing
wrapper while it is active and puts the original back on exit, so the
package's files and its untraced behaviour stay untouched.

A span records its name, start, end, parent, thread and run id.  Spans stay
in memory until the run ends.  A span's self time is its duration minus the
union of its children's intervals; with every span on one thread, the self
times of a stage's spans add up to the stage's wall time exactly, which
:func:`layer_metrics` reports as ``trace.self_sum_ratio``.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass, field

# (module, attribute path, span name).  The span name's first part is the
# layer it is charged to.
WRAPS = [
    ("drcontracts.cli", "read_load_csv", "estimation.read_load_csv"),
    ("drcontracts.cli", "read_shapes_csv", "estimation.read_shapes_csv"),
    ("drcontracts.cli", "build_capability_model", "estimation.build_capability_model"),
    ("drcontracts.cli", "model_json_text", "estimation.model_json_text"),
    ("drcontracts.estimation", "CapabilityModel.load", "estimation.load"),
    ("drcontracts.estimation", "nnls", "nnls.nnls"),
    ("drcontracts.estimation", "fit_normal", "distributions.fit_normal"),
    ("drcontracts.distributions", "EmpiricalDistribution.transform_uniform",
     "distributions.transform_uniform"),
    ("drcontracts.distributions", "NormalDistribution.transform_uniform",
     "distributions.transform_uniform"),
    ("drcontracts.cli", "restrict_to_common", "distributions.restrict_to_common"),
    ("drcontracts.aggregation", "sum_empirical", "distributions.sum_empirical"),
    ("drcontracts.cli", "optimal_contract", "contracts.optimal_contract"),
    ("drcontracts.aggregation", "optimal_contract", "contracts.optimal_contract"),
    ("drcontracts.cli", "grid_search_optimal", "contracts.grid_search_optimal"),
    ("drcontracts.cli", "member_sigmas", "aggregation.member_sigmas"),
    ("drcontracts.cli", "aggregate_distribution", "aggregation.aggregate_distribution"),
    ("drcontracts.aggregation", "aggregate_distribution",
     "aggregation.aggregate_distribution"),
    ("drcontracts.cli", "complementarity", "aggregation.complementarity"),
    ("drcontracts.cli", "profit_delta_oracle", "aggregation.profit_delta_oracle"),
    ("drcontracts.cli", "profit_delta_from_sigmas", "aggregation.profit_delta_from_sigmas"),
    ("drcontracts.cli", "write_ranking_csv", "aggregation.write_ranking_csv"),
    ("drcontracts.cli", "simulate_horizon", "simulation.simulate_horizon"),
    ("drcontracts.simulation", "simulate_horizon", "simulation.simulate_horizon"),
    ("drcontracts.cli", "analytic_summary", "simulation.analytic_summary"),
    ("drcontracts._kernels", "settle_trials", "kernels.settle_trials"),
]


# Per-layer metric: (unit, better, the end-to-end metric and workload it
# should move).  Written down before any optimisation, so a later change
# can be held to it.
LAYER_METRICS = {
    "cli.self_s": ("s", "lower", "every *_s stage metric on every workload"),
    "estimation.parse_s": ("s", "lower", "estimate_s on year"),
    "estimation.rows_per_s": ("rows/s", "higher", "estimate_s on year"),
    "estimation.model_self_s": ("s", "lower", "estimate_s on year"),
    "estimation.serialize_s": ("s", "lower", "estimate_s on year"),
    "estimation.model_bytes": ("B", "lower", "estimate_s on year"),
    "estimation.load_s": (
        "s", "lower", "contract_s, aggregate_s and simulate_s on year"
    ),
    "nnls.calls": ("count", "lower", "estimate_s on year; barely on fixtures"),
    "nnls.s": ("s", "lower", "estimate_s on year; barely on fixtures"),
    "nnls.us_per_call": ("us", "lower", "estimate_s on year; barely on fixtures"),
    "distributions.fit_normal_s": ("s", "lower", "estimate_s on year"),
    "distributions.transform_s": (
        "s", "lower", "simulate_s and simulate_normal_s on fixtures"
    ),
    "distributions.transform_cells": (
        "count", "lower", "simulate_s and simulate_normal_s on fixtures"
    ),
    "distributions.align_s": ("s", "lower", "aggregate_s on year"),
    "contracts.decisions": ("count", "lower", "contract_s and aggregate_s on year"),
    "contracts.decide_s": ("s", "lower", "contract_s and aggregate_s on year"),
    "contracts.us_per_decision": ("us", "lower", "contract_s and aggregate_s on year"),
    "contracts.fallback_share": (
        "ratio", "lower", "contract_s and aggregate_s on year; 0 on fixtures at alpha 0.5"
    ),
    "contracts.clipped_share": ("ratio", "lower", "contract_s and aggregate_s on year"),
    "contracts.oracle_s": ("s", "lower", "contract_s on year"),
    "contracts.objective_gap_rel": (
        "ratio", "lower", "no time: the optimizer's shortfall below its grid oracle"
    ),
    "aggregation.pairs": ("count", "lower", "aggregate_s on year"),
    "aggregation.oracle_s": ("s", "lower", "aggregate_s on year"),
    "aggregation.self_s": ("s", "lower", "aggregate_s on year"),
    "simulation.horizon_s": (
        "s", "lower", "simulate_s and simulate_normal_s on fixtures; not on year"
    ),
    "simulation.cells_per_s": (
        "cells/s", "higher", "simulate_s and simulate_normal_s on fixtures; not on year"
    ),
    "simulation.self_s": (
        "s", "lower", "simulate_s and simulate_normal_s on fixtures; not on year"
    ),
    "simulation.analytic_s": ("s", "lower", "simulate_s on fixtures"),
    "kernels.settle_calls": ("count", "lower", "simulate_s on fixtures"),
    "kernels.settle_s": ("s", "lower", "simulate_s on fixtures"),
    "kernels.cells_per_s": ("cells/s", "higher", "simulate_s on fixtures"),
    "kernels.bytes_moved": (
        "B", "lower", "simulate_s on fixtures; computed from array sizes"
    ),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall time"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    thread: int
    run_id: int
    count: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _counts(name: str, args: tuple, result) -> dict:
    """Work counted at the boundary, from the call's arguments and result."""
    if name == "estimation.read_load_csv":
        return {"rows": len(result)}
    if name == "estimation.model_json_text":
        return {"bytes": len(result.encode())}
    if name == "distributions.transform_uniform":
        return {"cells": int(args[1].size)}
    if name == "contracts.optimal_contract":
        return {
            "decisions": 1,
            "fallback": int(result.used_grid_fallback),
            "clipped": int(result.clipped != "none"),
        }
    if name == "simulation.simulate_horizon":
        return {"cells": result.n_trials * result.windows}
    if name == "kernels.settle_trials":
        u_event, capability, contracts = args[:3]
        out_bytes = sum(a.nbytes for a in result)
        moved = u_event.nbytes + capability.nbytes + contracts.nbytes + out_bytes
        return {"cells": int(u_event.size), "bytes": int(moved)}
    return {}


class Tracer:
    """Installs the wrappers in WRAPS for the duration of a ``with`` block."""

    def __init__(self, run_id: int = 0) -> None:
        self.spans: list[Span] = []
        self.run_id = run_id
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, parent, threading.get_ident(), self.run_id)
        self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
        span.count = _counts(name, args, result)
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def __enter__(self) -> Tracer:
        for module_name, path, name in WRAPS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, original.__func__))
            else:
                replacement = self._wrap(name, original)
            setattr(owner, attr, replacement)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(i, [])):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced pass, keyed ``module.metric``."""
    selfs = self_times(spans)
    dur: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    self_by_layer: dict[str, float] = {}
    count: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        dur[span.name] = dur.get(span.name, 0.0) + span.duration
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) + own
        self_by_layer[span.layer] = self_by_layer.get(span.layer, 0.0) + own
        count[span.name + ".calls"] = count.get(span.name + ".calls", 0) + 1
        for key, value in span.count.items():
            count[f"{span.name}.{key}"] = count.get(f"{span.name}.{key}", 0) + value

    def d(name: str) -> float:
        return dur.get(name, 0.0)

    def c(name: str) -> float:
        return count.get(name, 0)

    parse_s = d("estimation.read_load_csv") + d("estimation.read_shapes_csv")
    nnls_calls = c("nnls.nnls.calls")
    decisions = c("contracts.optimal_contract.decisions")
    horizon_s = d("simulation.simulate_horizon")
    settle_s = d("kernels.settle_trials")
    roots = [s for s in spans if s.parent is None]
    wall = sum(s.duration for s in roots)
    return {
        "cli.self_s": self_by_layer.get("cli", 0.0),
        "estimation.parse_s": parse_s,
        "estimation.rows_per_s": _ratio(c("estimation.read_load_csv.rows"), parse_s),
        "estimation.model_self_s": self_by_name.get("estimation.build_capability_model", 0.0),
        "estimation.serialize_s": d("estimation.model_json_text"),
        "estimation.model_bytes": c("estimation.model_json_text.bytes"),
        "estimation.load_s": d("estimation.load"),
        "nnls.calls": nnls_calls,
        "nnls.s": d("nnls.nnls"),
        "nnls.us_per_call": 1e6 * _ratio(d("nnls.nnls"), nnls_calls),
        "distributions.fit_normal_s": d("distributions.fit_normal"),
        "distributions.transform_s": d("distributions.transform_uniform"),
        "distributions.transform_cells": c("distributions.transform_uniform.cells"),
        "distributions.align_s": d("distributions.restrict_to_common")
        + d("distributions.sum_empirical"),
        "contracts.decisions": decisions,
        "contracts.decide_s": d("contracts.optimal_contract"),
        "contracts.us_per_decision": 1e6 * _ratio(d("contracts.optimal_contract"), decisions),
        "contracts.fallback_share": _ratio(c("contracts.optimal_contract.fallback"), decisions),
        "contracts.clipped_share": _ratio(c("contracts.optimal_contract.clipped"), decisions),
        "contracts.oracle_s": d("contracts.grid_search_optimal"),
        "aggregation.pairs": c("aggregation.profit_delta_oracle.calls"),
        "aggregation.oracle_s": d("aggregation.profit_delta_oracle"),
        "aggregation.self_s": self_by_layer.get("aggregation", 0.0),
        "simulation.horizon_s": horizon_s,
        "simulation.cells_per_s": _ratio(c("simulation.simulate_horizon.cells"), horizon_s),
        "simulation.self_s": self_by_name.get("simulation.simulate_horizon", 0.0),
        "simulation.analytic_s": d("simulation.analytic_summary"),
        "kernels.settle_calls": c("kernels.settle_trials.calls"),
        "kernels.settle_s": settle_s,
        "kernels.cells_per_s": _ratio(c("kernels.settle_trials.cells"), settle_s),
        "kernels.bytes_moved": c("kernels.settle_trials.bytes"),
        "trace.wall_s": wall,
        "trace.self_sum_ratio": _ratio(sum(selfs), wall),
    }


def stage_breakdown(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Self time per layer inside each root (stage) span, plus its wall time."""
    selfs = self_times(spans)
    root_of: list[int] = []
    for i, span in enumerate(spans):
        root_of.append(i if span.parent is None else root_of[span.parent])
    out: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        root = spans[root_of[i]]
        row = out.setdefault(root.name, {"wall_s": 0.0})
        if root_of[i] == i:
            row["wall_s"] += span.duration
        row[span.layer] = row.get(span.layer, 0.0) + selfs[i]
    return out
