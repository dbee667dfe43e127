"""Output checks for each benchmark operation.

Each check reads what one operation wrote and returns a list of problems;
an empty list means the output is correct.  The harness counts an
operation as failed when its process exits non-zero or its check finds a
problem, and ``error_rate`` is failed / attempted.

``objective_gap_rel`` is reported, not checked: it measures a known
optimizer defect the benchmark must show rather than hide.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Largest |z| any MC-vs-analytic convergence row of ``simulate`` may show.
# Rows are approximately standard normal, and a report has at most a few
# hundred of them, so an honest simulation passes this bound with
# probability above 1 - 1e-6.
Z_BOUND = 6.0


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_model(path: Path, building: str) -> list[str]:
    try:
        model = json.loads(path.read_text())
        buckets = model["buildings"][building]["buckets"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: unreadable model: {exc!r}"]
    if not buckets:
        return [f"{path.name}: building {building} has no buckets"]
    return []


def check_schedule(path: Path, model_path: Path, building: str, c_max: float) -> list[str]:
    """One row per model bucket of the building, every c_star in [0, c_max]."""
    try:
        rows = _read_csv(path)
        model = json.loads(model_path.read_text())
        expected = len(model["buildings"][building]["buckets"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: unreadable schedule or model: {exc!r}"]
    problems = []
    if len(rows) != expected:
        problems.append(f"{path.name}: {len(rows)} rows for {expected} buckets")
    for i, row in enumerate(rows, start=2):
        c = row.get("c_star") or ""
        if not (_finite(c) and 0.0 <= float(c) <= c_max):
            problems.append(f"{path.name}:{i}: c_star {c!r} outside [0, {c_max:g}]")
    return problems


def check_sweep(path: Path, n: int) -> list[str]:
    try:
        rows = _read_csv(path)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable sweep: {exc!r}"]
    if len(rows) != n or not all(_finite(r.get("total_objective") or "") for r in rows):
        return [f"{path.name}: expected {n} finite sweep rows"]
    return []


def check_ranking(path: Path, candidates: list[str]) -> list[str]:
    try:
        rows = _read_csv(path)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable ranking: {exc!r}"]
    if sorted(r.get("candidate_id") for r in rows) != sorted(candidates):
        return [f"{path.name}: ranking does not list exactly {candidates}"]
    bad = [r["candidate_id"] for r in rows if not _finite(r.get("delta_j_oracle") or "")]
    return [f"{path.name}: non-finite delta_j_oracle for {bad}"] if bad else []


def check_report(path: Path) -> list[str]:
    """Every convergence row's |z| stays under Z_BOUND."""
    try:
        rows = json.loads(path.read_text())["convergence"]
        zs = [row["z_score"] for row in rows]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: unreadable report: {exc!r}"]
    if not zs:
        return [f"{path.name}: no convergence rows"]
    worst = max((abs(z) for z in zs if z is not None), default=0.0)
    if not worst < Z_BOUND:
        return [f"{path.name}: max |z| = {worst:.3g} >= {Z_BOUND:g}"]
    return []


def check_library(path: Path) -> list[str]:
    """Finite profits, positive call times, identical results across repeats."""
    try:
        out = json.loads(path.read_text())
        times = [float(t) for t in out["simulate_normal_s"]]
        float(out["objective_gap_rel"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: unreadable library result: {exc!r}"]
    problems = []
    if not out.get("profits_finite"):
        problems.append(f"{path.name}: non-finite profits")
    if not out.get("repeats_identical"):
        problems.append(f"{path.name}: repeated calls disagree")
    if not times or min(times) <= 0.0:
        problems.append(f"{path.name}: bad call times {times!r}")
    return problems
