#!/usr/bin/env python3
"""Pipeline benchmark: the drcontracts CLI stages, end to end.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 60 --trace 0
    for w in fixtures year; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 60 --trace 0
    done

Run it from the repository root (or any copy of it that has ``src/``,
``fixtures/`` and ``perfbench/``); it builds nothing and installs nothing,
running the package from ``src/``.

Every run measures five operations, one after another and each in a fresh
interpreter, because every user call pays the imports:

* ``estimate``, ``contract``, ``aggregate`` and ``simulate``: the four CLI
  stages, each one child process running ``drcontracts.cli.main``;
* ``library``: one ``simulate_horizon`` call on the same building's fitted
  normals with the library's round-robin schedule, timed inside its child
  after the import.

After one untimed import, a run makes one pass over the five in pipeline
order, then repeats ``estimate`` and ``simulate`` so that their outputs can
be checked against a repeat.  For the rest of ``--seconds`` it runs, each
time, the operation with the least measured time so far that still fits
before the end.  So every stage gets about the same share of the run, a
short stage is sampled more often than a long one, and each stage's samples
spread over the whole run.  On a shared machine, whose speed drifts over
seconds, the medians then average the drift within a run instead of catching
one moment of it; drift over minutes still moves whole runs.

Workloads (inputs derive from ``--seed``; generated files live in a temp dir
under ``.perfbench_work/`` and never touch ``fixtures/``):

* ``fixtures``: the committed fixtures and config (alpha 0.5; ``simulate``
  runs 5000 trials on 2 streams).  Imports are most of every CLI stage, so
  per-call fixed costs show here.  ``library`` is the Monte Carlo at scale:
  20000 trials x 1464 windows on one stream, settling fitted normals (58 of
  96 point masses, ndtri transform) in an interleaved schedule, where the
  CLI's ``simulate`` settles empirical buckets in its grouped, contiguous
  one, so a speedup that only helps one of the two layouts shows on the
  other.
* ``year``: 4 buildings x 365 days of hourly load (35,040 rows, 576 buckets
  per building).  ``contract`` adds ``--alpha-sweep 1.5:3:2`` (alpha 1.5 is
  the grid-fallback regime), ``aggregate`` pairs the building with one
  candidate, and the Monte Carlo is kept small (500 trials), so estimation,
  the optimizer and aggregation carry the work.

End-to-end metrics (``--trace 0``): the median wall time of each stage
(``estimate_s`` ... ``simulate_s``), ``simulate_normal_s`` (the library
call alone), ``pipeline_s`` (sum of the four CLI stage medians),
``setup_s`` (spawn until ``import drcontracts.cli`` finished, the fixed cost
every CLI call pays, sampled in every child) and ``peak_rss_mb`` (largest
peak RSS of any one child, from that child's own rusage via ``os.wait4``).

Every output is checked (see ``checks.py``); a non-zero exit or a failed
check counts the operation as failed, and ``error_rate`` = failed /
attempted is printed beside the result.  ``model.json`` and ``report.json``
must be byte-identical across the repeats of one run, the CLI's determinism
contract.

``--trace 1`` runs each pass in this process through ``drcontracts.cli.main``
instead: once untraced and once with the wrappers of ``spans.py``
installed, and reports the per-layer metrics of ``spans.LAYER_METRICS``
plus the tracing overhead (traced minus untraced wall time).  It forces one
simulation stream, so span self times partition each stage's wall time;
results are bit-identical across stream counts, so the counts do not change.

``benchmarks/bench_settlement.py`` times the settlement kernel alone.  It is
a diagnostic, not evidence: the ``kernels.*`` layer metrics of the traced
run, read against ``simulate_s`` and ``simulate_normal_s`` on ``fixtures``,
replace it.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs
import spans
from child import now

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
WORK_PARENT = ROOT / ".perfbench_work"
# A run must end within 180 s; no operation may start after this.
DEADLINE_S = 165.0

CLI_STAGES = ("estimate", "contract", "aggregate", "simulate")
E2E_UNITS = {
    "setup_s": "s",
    "estimate_s": "s",
    "contract_s": "s",
    "aggregate_s": "s",
    "simulate_s": "s",
    "simulate_normal_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    building: str
    candidates: tuple[str, ...]
    alpha_sweep: str | None = None  # contract's --alpha-sweep A0:A1:N
    n_trials: int | None = None  # None keeps the committed config's value
    streams: int | None = None
    library_trials: int | None = None  # the library call's own trials, on one stream
    year: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fixtures",
            "the committed fixtures every user runs, imports dominate the CLI "
            "stages; the library call is 20000 trials x 1464 windows of Monte Carlo",
            "acme_plant",
            ("birch_mall", "cedar_office"),
            library_trials=20000,
        ),
        Workload(
            "year",
            "4 buildings x 365 days generated from the seed; estimation, the "
            "contract optimizer (alpha sweep into the fallback regime) and "
            "aggregation do the work",
            "b00",
            ("b01",),
            alpha_sweep="1.5:3:2",
            n_trials=500,
            streams=1,
            year=True,
        ),
    )
}


@dataclass(frozen=True)
class Op:
    stage: str
    args: tuple[str, ...]  # child.py mode and its arguments


def prepare(w: Workload, seed: int, work: Path, streams: int | None) -> dict:
    """Write the workload's inputs into work; return their SHA-256 digests."""
    shutil.copyfile(FIXTURES / "shapes.csv", work / "shapes.csv")
    if w.year:
        inputs.write_year_load(work / "load.csv", work / "shapes.csv", seed)
    else:
        shutil.copyfile(FIXTURES / "sample_load.csv", work / "load.csv")
    simulation = {"seed": seed}
    if w.n_trials is not None:
        simulation["n_trials"] = w.n_trials
    if streams or w.streams:
        simulation["parallel_streams"] = streams or w.streams
    base = json.loads((FIXTURES / "config.json").read_text())
    configs = {"config.json": inputs.derive_config(base, "load.csv", **simulation)}
    if w.library_trials is not None:
        configs["library_config.json"] = inputs.derive_config(
            base, "load.csv", **dict(simulation, n_trials=w.library_trials, parallel_streams=1)
        )
    for name, config in configs.items():
        (work / name).write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")
    digests = {f"fixtures/{p.name}": checks.digest(p) for p in sorted(FIXTURES.iterdir())}
    for name in (*configs, "load.csv", "shapes.csv"):
        digests[f"work/{name}"] = checks.digest(work / name)
    return digests


def operations(w: Workload, work: Path) -> list[Op]:
    cfg = str(work / "config.json")
    library_cfg = str(work / ("library_config.json" if w.library_trials else "config.json"))
    sweep = ("--alpha-sweep", w.alpha_sweep) if w.alpha_sweep else ()

    def out(name: str) -> str:
        return str(work / name)

    return [
        Op("estimate", ("cli", "estimate", "--config", cfg, "--out", out("model.json"))),
        Op(
            "contract",
            ("cli", "contract", "--config", cfg, "--out", out("contracts.csv"),
             "--building", w.building, *sweep),
        ),
        Op(
            "aggregate",
            ("cli", "aggregate", "--config", cfg, "--out", out("ranking.csv"),
             "--base", w.building, "--candidates", *w.candidates),
        ),
        Op(
            "simulate",
            ("cli", "simulate", "--config", cfg, "--out", out("report.json"),
             "--building", w.building),
        ),
        Op(
            "library",
            ("library", library_cfg, w.building, out("contracts.csv"), out("library.json")),
        ),
    ]


class Run:
    """Counts, checks and samples of one benchmark run in one work dir."""

    def __init__(self, w: Workload, work: Path) -> None:
        self.w = w
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {name: [] for name in E2E_UNITS}
        self.peak_rss_kb = 0
        self.first_digest: dict[str, str] = {}
        self.objective_gap = 0.0
        self.backend = "unknown"
        self.argvs: list[list[str]] = []
        terms = json.loads((work / "config.json").read_text())["terms"]
        self.c_max = float(terms.get("c_max", float("inf")))

    def check(self, stage: str) -> list[str]:
        """Check what one operation wrote; record digests for the repeats."""
        work, w = self.work, self.w
        model = work / "model.json"
        if stage == "estimate":
            problems = checks.check_model(model, w.building)
            problems += self._same_as_first(model)
        elif stage == "contract":
            problems = checks.check_schedule(
                work / "contracts.csv", model, w.building, self.c_max
            )
            if w.alpha_sweep:
                n = int(w.alpha_sweep.split(":")[2])
                problems += checks.check_sweep(work / "contracts_alpha_sweep.csv", n)
        elif stage == "aggregate":
            problems = checks.check_ranking(work / "ranking.csv", list(w.candidates))
        elif stage == "simulate":
            problems = checks.check_report(work / "report.json")
            problems += self._same_as_first(work / "report.json")
            if not problems:
                report = json.loads((work / "report.json").read_text())
                self.backend = report["result"]["backend"]
        else:
            problems = checks.check_library(work / "library.json")
            if not problems:
                out = json.loads((work / "library.json").read_text())
                self.samples["simulate_normal_s"].extend(out["simulate_normal_s"])
                self.objective_gap = out["objective_gap_rel"]
        return problems

    def _same_as_first(self, path: Path) -> list[str]:
        if not path.exists():
            return []
        value = checks.digest(path)
        first = self.first_digest.setdefault(path.name, value)
        return [] if value == first else [f"{path.name} differs from the first repeat"]

    def record(self, stage: str, code: int, extra: list[str]) -> None:
        self.attempted += 1
        problems = [f"{stage} exited {code}"] if code != 0 else []
        problems += extra
        if code == 0:
            problems += self.check(stage)
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def spawn(run: Run, op: Op, env: dict, deadline: float) -> float:
    """Run one operation in a fresh interpreter, record its costs; return its wall time."""
    stamp = run.work / "stamp"
    stamp.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), str(stamp), *op.args]
    if argv not in run.argvs:
        run.argvs.append(argv)
    with open(run.work / "stderr.txt", "w") as err:
        start = now()
        proc = subprocess.Popen(argv, cwd=run.work, env=env, stdout=subprocess.DEVNULL, stderr=err)
        # os.wait4 reaps the child and returns its own rusage, so the peak RSS
        # belongs to this one process; the timer kills it at the deadline.
        timer = threading.Timer(max(deadline - now(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = now() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    run.peak_rss_kb = max(run.peak_rss_kb, usage.ru_maxrss)
    extra = []
    if code != 0:
        tail = (run.work / "stderr.txt").read_text().strip().splitlines()[-3:]
        extra = [f"{op.stage} stderr: {line}" for line in tail]
    elif stamp.exists():
        run.samples["setup_s"].append(float(stamp.read_text()) - start)
    if op.stage in CLI_STAGES and code == 0:
        run.samples[f"{op.stage}_s"].append(wall)
    run.record(op.stage, code, extra)
    return wall


def measure(w: Workload, seconds: float, work: Path) -> Run:
    """Untraced operations for the given seconds, in the order the module docstring gives."""
    start = now()
    deadline = start + DEADLINE_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run = Run(w, work)
    ops = operations(w, work)
    by_stage = {op.stage: op for op in ops}
    # An untimed import first, so the first timed child does not pay for
    # reading the interpreter's and the package's files into the page cache.
    subprocess.run([sys.executable, "-c", "import drcontracts.cli"], cwd=work, env=env,
                   stdout=subprocess.DEVNULL, timeout=120)
    spent = dict.fromkeys(by_stage, 0.0)
    last = dict.fromkeys(by_stage, 0.0)
    for op in [*ops, by_stage["estimate"], by_stage["simulate"]]:
        last[op.stage] = spawn(run, op, env, deadline)
        spent[op.stage] += last[op.stage]
    while True:
        t = now()
        fits = [s for s in by_stage if t - start + last[s] <= seconds and t + last[s] < deadline]
        if not fits:
            return run
        stage = min(fits, key=spent.__getitem__)
        last[stage] = spawn(run, by_stage[stage], env, deadline)
        spent[stage] += last[stage]


def e2e_metrics(run: Run) -> tuple[dict[str, float], dict[str, int]]:
    """Each end-to-end metric and the number of samples behind it."""
    out, n = {}, {}
    for name, values in run.samples.items():
        if values:
            out[name], n[name] = statistics.median(values), len(values)
    if all(f"{s}_s" in out for s in CLI_STAGES):
        out["pipeline_s"] = sum(out[f"{s}_s"] for s in CLI_STAGES)
        n["pipeline_s"] = min(n[f"{s}_s"] for s in CLI_STAGES)
    out["peak_rss_mb"], n["peak_rss_mb"] = run.peak_rss_kb / 1024.0, run.attempted
    return out, n


def in_process_pass(run: Run, ops: list[Op], tracer) -> dict[str, float]:
    """One pass through cli.main in this process; wall time per stage."""
    import drcontracts.cli
    from child import library_call

    walls = {}
    for op in ops:
        if list(op.args) not in run.argvs:
            run.argvs.append(list(op.args))
        if op.stage == "library":
            fn, args, name = library_call, op.args[1:4], "bench.library_call"
        else:
            fn, args, name = drcontracts.cli.main, (list(op.args[1:]),), f"cli.{op.stage}"
        extra: list[str] = []
        code = 0
        start = now()
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                result = tracer.span(name, fn, *args) if tracer else fn(*args)
            except Exception as exc:  # a stage that raises counts as failed
                result, code, extra = None, 1, [f"{op.stage} raised {exc!r}"]
        walls[op.stage] = now() - start
        if result is not None and op.stage == "library":
            (run.work / "library.json").write_text(json.dumps(result))
        elif result is not None:
            code = result
        run.record(op.stage, code, extra)
    return walls


def traced(w: Workload, seconds: float, work: Path) -> tuple[Run, int, dict, dict]:
    """Pairs of untraced and traced in-process passes; median layer metrics."""
    sys.path.insert(0, str(SRC))
    start = now()
    run = Run(w, work)
    ops = operations(w, work)
    per_pass: list[dict[str, float]] = []
    in_process_pass(run, ops, None)  # warm-up, so one-time costs do not count as overhead
    tracer = None
    last = 0.0
    while not per_pass or now() - start + last <= seconds:
        pair_start = now()
        untraced_walls = in_process_pass(run, ops, None)
        tracer = spans.Tracer(run_id=len(per_pass))
        with tracer:
            traced_walls = in_process_pass(run, ops, tracer)
        metrics = spans.layer_metrics(tracer.spans)
        metrics["trace.overhead_s"] = sum(traced_walls.values()) - sum(untraced_walls.values())
        metrics["contracts.objective_gap_rel"] = run.objective_gap
        per_pass.append(metrics)
        last = now() - pair_start
    medians = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    return run, len(per_pass), medians, spans.stage_breakdown(tracer.spans)


def provenance(w: Workload, seed: int, run: Run, digests: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": w.name,
        "seed": seed,
        "operations": run.attempted,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernels_backend": run.backend,
        "nproc": len(os.sched_getaffinity(0)),
        "inputs_sha256": digests,
        "argv": run.argvs,
    }


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1={q1:.4f} q3={q3:.4f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "drcontracts", FIXTURES / "config.json") if not p.exists()]
    if missing:
        print(f"error: not a drcontracts checkout, missing {missing}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    compileall.compile_dir(str(SRC / "drcontracts"), quiet=1)
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_PARENT))
    try:
        digests = prepare(w, args.seed, work, streams=1 if args.trace else None)
        if args.trace:
            run, passes, metrics, breakdown = traced(w, args.seconds, work)
            units = {name: spec[0] for name, spec in spans.LAYER_METRICS.items()}
            counts = {name: passes for name in metrics}
        else:
            run = measure(w, args.seconds, work)
            metrics, counts = e2e_metrics(run)
            units = E2E_UNITS
            breakdown = {}
        report = provenance(w, args.seed, run, digests)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing_metrics = sorted(set(units) - set(metrics))
    if missing_metrics:
        run.failed += 1
        run.problems.append(f"no samples for {missing_metrics}")
    print(f"workload {w.name}, seed {args.seed}, trace {args.trace}: {w.why}")
    for name in units:
        if name in metrics:
            print(f"  {name:32s} {metrics[name]:.6g} {units[name]}  n={counts[name]}  "
                  f"{_quartiles(run.samples.get(name, []))}")
    if args.trace:
        print(f"  traced wall {metrics['trace.wall_s']:.4f} s, "
              f"layer self times sum to {metrics['trace.self_sum_ratio']:.9f} of it")
        for stage, row in breakdown.items():
            parts = ", ".join(f"{k} {v:.4f}" for k, v in row.items() if k != "wall_s")
            total = sum(v for k, v in row.items() if k != "wall_s")
            print(f"  {stage}: wall {row['wall_s']:.4f} s = self {total:.4f} s ({parts})")
        for name, (_, _, moves) in spans.LAYER_METRICS.items():
            print(f"  {name} moves: {moves}")
    print(f"  error_rate {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} failed / {run.attempted} attempted)")
    print(f"  objective_gap_rel {run.objective_gap:.6g} ratio (reported, not a gate)")
    for problem in run.problems:
        print(f"  FAILED: {problem}")
    print("provenance " + json.dumps(report, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
