"""Seeded input generation for the benchmark workloads.

Generated inputs go to a directory the caller chooses (a temp dir inside the
checkout), never into ``fixtures/``.  The ``year`` load table reuses the
committed end-use shapes, so its buildings decompose the way the fixture
buildings do.
"""

from __future__ import annotations

import csv
import json
from datetime import date, timedelta
from pathlib import Path

import numpy as np

YEAR_START = date(2021, 1, 1)
YEAR_DAYS = 365
YEAR_BUILDINGS = 4
NOISE_STD = 0.3


def read_shapes(path: Path) -> dict[tuple[str, str], np.ndarray]:
    """(end_use, day_type) -> 24-hour weight profile, from a shapes CSV."""
    out: dict[tuple[str, str], np.ndarray] = {}
    with path.open(newline="") as handle:
        for row in csv.DictReader(handle):
            key = (row["end_use"], row["day_type"])
            out.setdefault(key, np.zeros(24))[int(row["hour"])] = float(row["weight"])
    return out


def _profile(shapes, end_use: str, weekend: bool) -> np.ndarray:
    if (end_use, "all") in shapes:
        return shapes[(end_use, "all")]
    return shapes[(end_use, "weekend" if weekend else "weekday")]


def write_year_load(path: Path, shapes_path: Path, seed: int) -> list[str]:
    """Hourly load for YEAR_BUILDINGS buildings over YEAR_DAYS days.

    Each building's daily HVAC weight follows a seasonal curve plus a shock,
    correlated across buildings, so partners differ in complementarity.  The
    buildings' sizes and correlations are fixed and the seed draws only the
    daily shocks and the hourly noise: every seed then gives the optimizer
    the same kind of buckets and about the same amount of work.  Returns the
    building ids.
    """
    ids = [f"b{i:02d}" for i in range(YEAR_BUILDINGS)]
    k = len(ids)
    fixed = np.random.default_rng(0x5EA5)
    base_w = fixed.uniform(180.0, 300.0, k)
    hvac_mean = fixed.uniform(90.0, 150.0, k)
    hvac_std = hvac_mean * fixed.uniform(0.08, 0.15, k)
    factors = fixed.normal(size=(k, 2))
    corr = factors @ factors.T + np.eye(k)
    d = np.sqrt(np.diag(corr))
    chol = np.linalg.cholesky(corr / np.outer(d, d))
    rng = np.random.default_rng(seed)
    shapes = read_shapes(shapes_path)

    days = [YEAR_START + timedelta(days=i) for i in range(YEAR_DAYS)]
    weekend = np.array([day.weekday() >= 5 for day in days])
    season = 1.0 + 0.35 * np.cos(2.0 * np.pi * (np.arange(YEAR_DAYS) - 196) / 365.0)
    shocks = rng.standard_normal((YEAR_DAYS, k)) @ chol.T
    hvac_w = np.maximum(hvac_mean * season[:, None] + hvac_std * shocks, 0.0)
    light_w = np.where(weekend, 30.0, 60.0)

    hvac_p = np.where(
        weekend[:, None], _profile(shapes, "hvac", True), _profile(shapes, "hvac", False)
    )  # (days, 24)
    base_p = _profile(shapes, "base", False)
    light_p = _profile(shapes, "lighting", False)
    noise = rng.normal(0.0, NOISE_STD, (k, YEAR_DAYS, 24))
    load = np.maximum(
        base_w[:, None, None] * base_p
        + hvac_w.T[:, :, None] * hvac_p[None]
        + (light_w[:, None] * light_p)[None]
        + noise,
        0.0,
    )

    stamps = [f"{day.isoformat()}T{h:02d}:00:00" for day in days for h in range(24)]
    lines = ["timestamp,building_id,load_kwh"]
    for b, bid in enumerate(ids):
        values = load[b].ravel()
        lines.extend(f"{s},{bid},{v:.6f}" for s, v in zip(stamps, values))
    path.write_text("\n".join(lines) + "\n")
    return ids


def derive_config(base: dict, load_csv: str, **simulation) -> dict:
    """The committed fixture config with another load file and simulation block."""
    config = json.loads(json.dumps(base))
    config["paths"]["load_csv"] = load_csv
    config["simulation"].update(simulation)
    return config
