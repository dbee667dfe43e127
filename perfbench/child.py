"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py STAMP cli ARGV...
    python3 perfbench/child.py STAMP library CONFIG BUILDING SCHEDULE OUT

Every child first imports ``drcontracts.cli``, the fixed cost every CLI call
pays, and writes the CLOCK_MONOTONIC time at which the import finished to
STAMP.  The parent subtracts its own spawn time from it to get ``setup_s``.
CLOCK_MONOTONIC is one clock for every process on the machine, so the two
readings are comparable.

``cli`` then runs ``drcontracts.cli.main(ARGV)``, exactly as
``python -m drcontracts ARGV`` would.  ``library`` runs :func:`library_call`,
repeating the call for at least two seconds so that one child gives several
samples, and writes its result to OUT as JSON.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def read_schedule(path) -> dict:
    """Contract sizes by bucket key from a ``contract`` schedule CSV."""
    from drcontracts.estimation import BucketKey
    from drcontracts.formatting import parse_flag

    with open(path, newline="") as handle:
        return {
            BucketKey(int(r["month"]), int(r["hour"]), parse_flag(r["is_weekend"])): r
            for r in csv.DictReader(handle)
        }


def objective_gap_rel(terms, building, schedule: dict) -> float:
    """Largest relative shortfall of objective(c_star) below objective(c_star_grid).

    The schedule's ``c_star_grid`` column is the brute-force oracle the CLI
    writes beside the analytic optimum; a positive gap means the optimizer
    returned a worse contract than the oracle found.
    """
    from drcontracts.contracts import objective

    worst = 0.0
    for key, row in schedule.items():
        dist = building.buckets[key].empirical
        at_star = float(objective(terms, dist, float(row["c_star"])))
        at_grid = float(objective(terms, dist, float(row["c_star_grid"])))
        if at_grid > 0.0:
            worst = max(worst, (at_grid - at_star) / at_grid)
    return worst


def library_call(
    config_path: str, building_id: str, schedule_path: str, min_seconds: float = 0.0
) -> dict:
    """Time ``simulate_horizon`` calls on the building's fitted normals.

    Each call uses the library's default round-robin schedule over as many
    windows as the CLI ``simulate`` replays for this building, with the
    contract sizes of the ``contract`` schedule.  The call repeats until
    min_seconds have been spent in it (at least once); only the calls are
    timed, not loading the model or the objective-gap check around them.
    """
    from drcontracts import simulation
    from drcontracts.cli import load_run_config
    from drcontracts.estimation import CapabilityModel

    config = load_run_config(config_path)
    terms = config.require_terms()
    building = CapabilityModel.load(config.path("model")).building(building_id)
    schedule = read_schedule(schedule_path)
    normals = {key: b.normal for key, b in building.buckets.items()}
    contracts = {key: float(schedule[key]["c_star"]) for key in normals}
    windows = sum(b.empirical.n for b in building.buckets.values())
    raw = dict(config.simulation_raw, windows_per_horizon=windows)
    sim_config = simulation.SimulationConfig(**raw)

    times: list[float] = []
    means: set[float] = set()
    while not times or sum(times) < min_seconds:
        start = now()
        result = simulation.simulate_horizon(terms, normals, contracts, sim_config)
        times.append(now() - start)
        means.add(result.mean)
    return {
        "simulate_normal_s": times,
        "cells": result.n_trials * result.windows,
        "profits_finite": bool(all(math.isfinite(x) for x in result.profits.tolist())),
        "repeats_identical": len(means) == 1,
        "objective_gap_rel": objective_gap_rel(terms, building, schedule),
    }


def main(argv: list[str]) -> int:
    import drcontracts.cli

    ready = now()
    stamp, mode, rest = argv[0], argv[1], argv[2:]
    with open(stamp, "w") as handle:
        handle.write(repr(ready))
    if mode == "cli":
        return drcontracts.cli.main(rest)
    if mode == "library":
        config_path, building_id, schedule_path, out = rest
        with open(out, "w") as handle:
            json.dump(library_call(config_path, building_id, schedule_path, 2.0), handle)
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
