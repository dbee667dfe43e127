#!/usr/bin/env python3
"""Regenerate the bundled fixture set under fixtures/.

The generator is fully deterministic (fixed RNG seed, fixed formatting), so
re-running it reproduces the committed files byte for byte.  Three synthetic
buildings are metered hourly over March-April 2021; each day's load is a
noisy mix of reference end-use shapes whose daily weights are drawn from a
correlated distribution, giving the buildings genuinely different
complementarity against each other.
"""

from __future__ import annotations

import json
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"

SEED = 20210301
START = datetime(2021, 3, 1)
DAYS = 61  # March (31) + April (30)

BUILDINGS = ["acme_plant", "birch_mall", "cedar_office"]
BASE_WEIGHT = {"acme_plant": 240.0, "birch_mall": 300.0, "cedar_office": 180.0}
HVAC_MEAN = {"acme_plant": 120.0, "birch_mall": 150.0, "cedar_office": 90.0}
HVAC_STD = {"acme_plant": 14.0, "birch_mall": 18.0, "cedar_office": 10.0}
# Daily HVAC weight correlation across (acme, birch, cedar): acme and birch
# are complementary (negative), acme and cedar move together.
HVAC_CORR = np.array(
    [
        [1.0, -0.6, 0.4],
        [-0.6, 1.0, -0.3],
        [0.4, -0.3, 1.0],
    ]
)
APRIL_HVAC_SCALE = 1.15
LIGHT_WEIGHT_WEEKDAY = 60.0
LIGHT_WEIGHT_WEEKEND = 30.0
NOISE_STD = 0.3


def _normalized(profile: np.ndarray) -> np.ndarray:
    return profile / profile.sum()


def end_use_shapes() -> dict[str, dict[str, np.ndarray]]:
    hours = np.arange(24)
    base = _normalized(1.0 + 0.35 * np.sin((hours - 5.0) / 24.0 * 2.0 * np.pi))
    hvac_weekday = np.zeros(24)
    hvac_weekday[8:20] = np.concatenate(
        [np.linspace(0.4, 1.0, 6), np.linspace(1.0, 0.5, 6)]
    )
    hvac_weekend = np.zeros(24)
    hvac_weekend[10:17] = 0.8
    lighting = np.zeros(24)
    lighting[6:23] = 0.4
    lighting[17:22] = 1.0
    return {
        "base": {"all": _normalized(base)},
        "hvac": {
            "weekday": _normalized(hvac_weekday),
            "weekend": _normalized(hvac_weekend),
        },
        "lighting": {"all": _normalized(lighting)},
    }


def write_shapes_csv(path: Path, shapes: dict[str, dict[str, np.ndarray]]) -> None:
    lines = ["end_use,day_type,hour,weight"]
    for end_use, by_day in shapes.items():
        for day_type, profile in by_day.items():
            for hour in range(24):
                lines.append(f"{end_use},{day_type},{hour},{profile[hour]:.9g}")
    path.write_text("\n".join(lines) + "\n")


def write_load_csv(path: Path, shapes: dict[str, dict[str, np.ndarray]]) -> None:
    rng = np.random.default_rng(SEED)
    chol = np.linalg.cholesky(HVAC_CORR)
    means = np.array([HVAC_MEAN[b] for b in BUILDINGS])
    stds = np.array([HVAC_STD[b] for b in BUILDINGS])

    lines = ["timestamp,building_id,load_kwh"]
    day_rows: dict[str, list[str]] = {b: [] for b in BUILDINGS}
    for day in range(DAYS):
        date = START + timedelta(days=day)
        is_weekend = date.weekday() >= 5
        scale = APRIL_HVAC_SCALE if date.month == 4 else 1.0
        shocks = chol @ rng.standard_normal(len(BUILDINGS))
        hvac_weights = np.maximum(means * scale + stds * shocks, 0.0)
        light = LIGHT_WEIGHT_WEEKEND if is_weekend else LIGHT_WEIGHT_WEEKDAY
        day_key = "weekend" if is_weekend else "weekday"
        hvac_profile = shapes["hvac"][day_key]
        base_profile = shapes["base"]["all"]
        light_profile = shapes["lighting"]["all"]
        for idx, building in enumerate(BUILDINGS):
            noise = rng.normal(0.0, NOISE_STD, size=24)
            loads = np.maximum(
                BASE_WEIGHT[building] * base_profile
                + hvac_weights[idx] * hvac_profile
                + light * light_profile
                + noise,
                0.0,
            )
            for hour in range(24):
                stamp = (date + timedelta(hours=hour)).isoformat()
                day_rows[building].append(
                    f"{stamp},{building},{loads[hour]:.6f}"
                )
    for building in BUILDINGS:
        lines.extend(day_rows[building])
    path.write_text("\n".join(lines) + "\n")


def write_config(path: Path) -> None:
    config = {
        "terms": {
            "pi_e": 4.0,
            "pi_r": 0.01,
            "pi_p": 5.0,
            "p": 3.0 / 720.0,
            "alpha": 0.5,
            "c_hat": 0.95,
        },
        "estimation": {
            "curtailable_fraction": 0.6,
            "curtailable_end_use": "hvac",
            "min_bucket_size": 4,
        },
        "simulation": {
            "n_trials": 5000,
            "seed": 7,
        },
        "paths": {
            "load_csv": "sample_load.csv",
            "shapes_csv": "shapes.csv",
            "model": "model.json",
            "contracts": "contracts.csv",
        },
    }
    path.write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")


def main() -> None:
    FIXTURES_DIR.mkdir(exist_ok=True)
    shapes = end_use_shapes()
    write_shapes_csv(FIXTURES_DIR / "shapes.csv", shapes)
    write_load_csv(FIXTURES_DIR / "sample_load.csv", shapes)
    write_config(FIXTURES_DIR / "config.json")
    for name in ("shapes.csv", "sample_load.csv", "config.json"):
        print(f"wrote {FIXTURES_DIR / name}")


if __name__ == "__main__":
    main()
