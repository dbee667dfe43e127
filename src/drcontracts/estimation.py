"""Capability estimation from metered load data.

Pipeline: decompose each complete day's 24-hour load profile, a row of its
building's day table, into reference end-use shapes by non-negative least
squares and take the curtailable fraction of the HVAC component as that day's
hourly curtailment-capability estimate, one row of a (days x 24) array.  The
days of one (month, weekday/weekend) give each hour-of-day's bucket its column,
in day order.  Each kept (month, day type) becomes one block, its hour columns
sorted along its rows, and ``fit_rows`` moment-matches a normal to every row,
with no per-bucket object.  model.json stores the array and the fits; its
reader checks them and builds the same blocks.  Two buildings' samples pair by
day: ``restrict_to_common`` keeps the days both have, so the same bucket of
each restricted series holds the same days in the same order.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass
from datetime import date, datetime
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .distributions import (
    EmpiricalDistribution,
    NormalDistribution,
    check_normal_parameters,
    fit_normal,  # noqa: F401  (not called here; bound only because perfbench/spans.py wraps it)
    fit_rows,
)
from .errors import InputFormatError, ModelConsistencyError
from .formatting import is_integer, is_number, json_text, read_csv_rows
from .nnls import nnls

HOURS_PER_DAY = 24
DEFAULT_CURTAILABLE_FRACTION = 0.6
DEFAULT_MIN_BUCKET_SIZE = 4

MODEL_SCHEMA_VERSION = 2

LOAD_CSV_HEADER = ["timestamp", "building_id", "load_kwh"]
SHAPES_CSV_HEADER = ["end_use", "day_type", "hour", "weight"]
_DAY_TYPES = ("weekday", "weekend", "all")


@dataclass(frozen=True)
class DayTable:
    """One building's days, ascending, and read-only (days x 24) kWh; NaN for a missing hour."""

    days: tuple[date, ...]
    values: np.ndarray

    @property
    def metered_hours(self) -> int:
        """The cells that are not NaN, one per data row of the load CSV."""
        return int(np.count_nonzero(~np.isnan(self.values)))


@dataclass(frozen=True)
class LoadTable:
    """Every building's day table, by building id; len() is the number of metered hours."""

    buildings: Mapping[str, DayTable]

    def __len__(self) -> int:
        return sum(table.metered_hours for table in self.buildings.values())


@dataclass(frozen=True, order=True)
class BucketKey:
    """Calendar cell pooling capability estimates: month x hour x day type."""

    month: int
    hour: int
    is_weekend: bool

    def __post_init__(self) -> None:
        if not 1 <= self.month <= 12:
            raise ValueError(f"month must lie in 1..12, got {self.month}")
        if not 0 <= self.hour <= 23:
            raise ValueError(f"hour must lie in 0..23, got {self.hour}")

    @property
    def label(self) -> str:
        return _label(self.month, self.hour, self.is_weekend)


def _label(month: int, hour: int, is_weekend: bool) -> str:
    return f"{month:02d}-{hour:02d}-{'weekend' if is_weekend else 'weekday'}"


def _cells(groups) -> list[tuple[int, int, bool]]:
    """(month, hour, is_weekend) of each bucket of the (month, is_weekend) groups, in key order."""
    cells = ((month, hour, weekend) for month, weekend in groups for hour in range(HOURS_PER_DAY))
    return sorted(cells)


@dataclass(frozen=True, eq=False)
class EndUseShapes:
    """Reference hourly load shapes, one row per end use.

    weekday/weekend are (n_uses, 24) weight matrices in the order of ``names``.
    Exactly one end use is the curtailable one (HVAC in the source data).
    """

    names: tuple[str, ...]
    weekday: np.ndarray
    weekend: np.ndarray
    curtailable: str

    def __post_init__(self) -> None:
        names = tuple(str(n) for n in self.names)
        if not names:
            raise ValueError("need at least one end use")
        if len(set(names)) != len(names):
            raise ValueError("end-use names must be unique")
        if self.curtailable not in names:
            raise ValueError(
                f"curtailable end use {self.curtailable!r} not among {list(names)}"
            )
        k = len(names)
        for attr in ("weekday", "weekend"):
            mat = np.array(getattr(self, attr), dtype=float, copy=True)
            if mat.shape != (k, HOURS_PER_DAY):
                raise ValueError(f"{attr} matrix must be ({k}, 24), got {mat.shape}")
            if not np.all(np.isfinite(mat)) or np.min(mat) < 0.0:
                raise ValueError(f"{attr} weights must be finite and >= 0")
            zero_rows = np.where(~mat.any(axis=1))[0]
            if zero_rows.size:
                raise ValueError(
                    f"all-zero {attr} shape for end use {names[zero_rows[0]]!r}"
                )
            mat.flags.writeable = False
            object.__setattr__(self, attr, mat)
        object.__setattr__(self, "names", names)

    @property
    def curtailable_index(self) -> int:
        return self.names.index(self.curtailable)

    def day_matrix(self, is_weekend: bool) -> np.ndarray:
        """Design matrix (24, n_uses) for one day type."""
        mat = self.weekend if is_weekend else self.weekday
        return mat.T


def decompose_load(
    day_profile, shapes: EndUseShapes, is_weekend: bool = False
) -> tuple[np.ndarray, float]:
    """NNLS weights of the end-use shapes for one 24-hour profile."""
    profile = np.asarray(day_profile, dtype=float)
    if profile.shape != (HOURS_PER_DAY,):
        raise ValueError(f"day profile must have 24 hours, got shape {profile.shape}")
    if not np.all(np.isfinite(profile)) or np.min(profile) < 0.0:
        raise ValueError("day profile must be finite and >= 0")
    return nnls(shapes.day_matrix(is_weekend), profile)


@dataclass(frozen=True)
class CurtailableSeries:
    """One building's complete days, ascending, and their read-only (days x 24) kWh."""

    days: tuple[date, ...]
    values: np.ndarray
    skipped_days: int

    @cached_property
    def groups(self) -> dict[tuple[int, bool], list[int]]:
        """The rows of each (month, is_weekend), in day order."""
        groups: dict[tuple[int, bool], list[int]] = {}
        for row, day in enumerate(self.days):
            groups.setdefault((day.month, day.weekday() >= 5), []).append(row)
        return groups

    @cached_property
    def buckets(self) -> dict[BucketKey, EmpiricalDistribution]:
        """The day rows pooled into calendar buckets, built on first access.

        The days of one (month, day type) give each hour's bucket its column
        of samples, in day order.
        """
        out = {}
        for (month, is_weekend), rows in self.groups.items():
            block = self.values[rows]
            for hour in range(HOURS_PER_DAY):
                out[BucketKey(month, hour, is_weekend)] = EmpiricalDistribution(block[:, hour])
        return out


def curtailable_series(
    table: DayTable, shapes: EndUseShapes, fraction: float
) -> CurtailableSeries:
    """Estimate one building's curtailable kWh, one row of 24 hours per complete day.

    Only complete days (no NaN hour) are decomposed; incomplete days are
    skipped and counted.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"curtailable fraction must lie in [0, 1], got {fraction!r}")
    complete = ~np.isnan(table.values).any(axis=1)
    days = [day for day, ok in zip(table.days, complete) if ok]
    ci = shapes.curtailable_index
    rows: list[np.ndarray] = []
    for day, profile in zip(days, table.values[complete]):
        is_weekend = day.weekday() >= 5
        weights, _ = decompose_load(profile, shapes, is_weekend)
        rows.append(fraction * weights[ci] * shapes.day_matrix(is_weekend)[:, ci])

    values = np.array(rows).reshape(len(days), HOURS_PER_DAY)
    values.flags.writeable = False
    return CurtailableSeries(tuple(days), values, skipped_days=len(table.days) - len(days))


def restrict_to_common(series: Sequence[CurtailableSeries]) -> list[CurtailableSeries]:
    """Each series restricted to the days all of them have, in ascending order.

    This is the one rule by which buildings' samples pair: the same bucket of
    each restricted series holds the same days in the same order.  A series
    that keeps every day comes back as itself.  Series that share no day come
    back with no days.
    """
    if not series:
        raise ValueError("restrict_to_common needs at least one series, got none")
    shared = set(series[0].days).intersection(*(s.days for s in series[1:]))
    out = []
    for s in series:
        if len(s.days) == len(shared):
            out.append(s)
            continue
        rows = [row for row, day in enumerate(s.days) if day in shared]
        values = s.values[rows]
        values.flags.writeable = False
        out.append(CurtailableSeries(tuple(s.days[r] for r in rows), values, s.skipped_days))
    return out


def split_blocks(
    series: CurtailableSeries, min_bucket_size: int
) -> tuple[dict[tuple[int, bool], np.ndarray], tuple[tuple[str, int], ...]]:
    """The sorted_block of each (month, is_weekend) group of at least min_bucket_size
    days, in key order, and (label, size) of the buckets of the rest."""
    groups = series.groups
    kept = sorted(group for group, rows in groups.items() if len(rows) >= min_bucket_size)
    dropped = _cells(groups.keys() - set(kept))
    blocks = {group: sorted_block(series.values[groups[group]]) for group in kept}
    return blocks, tuple((_label(*cell), len(groups[cell[0], cell[2]])) for cell in dropped)


@dataclass(frozen=True, eq=False)
class BucketBlock:
    """The 24 buckets of one (month, day type), hour h in row h of each read-only array.

    samples is (24 x days), C-contiguous and sorted stably along its rows,
    as EmpiricalDistribution sorts; fits[h] holds hour h's mu, sigma and fit distance.
    """

    samples: np.ndarray
    fits: np.ndarray

    def __post_init__(self) -> None:
        for array in (self.samples, self.fits):
            array.flags.writeable = False


def sorted_block(days: np.ndarray) -> np.ndarray:
    """A (days x hours) array's hour columns, sorted, as BucketBlock.samples holds them."""
    samples = np.array(days.T, order="C")
    samples.sort(axis=1, kind="stable")
    return samples


@dataclass(frozen=True)
class EstimationConfig:
    curtailable_fraction: float = DEFAULT_CURTAILABLE_FRACTION
    min_bucket_size: int = DEFAULT_MIN_BUCKET_SIZE
    curtailable_end_use: str = "hvac"

    def __post_init__(self) -> None:
        fraction = self.curtailable_fraction
        if not (is_number(fraction) and 0.0 <= fraction <= 1.0):
            raise ValueError(
                f"curtailable_fraction must be a number in [0, 1], got {fraction!r}"
            )
        if not (is_integer(self.min_bucket_size) and self.min_bucket_size >= 2):
            raise ValueError(
                f"min_bucket_size must be an integer >= 2, got {self.min_bucket_size!r}"
            )
        end_use = self.curtailable_end_use
        if not (isinstance(end_use, str) and end_use):
            raise ValueError(f"curtailable_end_use must be a non-empty string, got {end_use!r}")


@dataclass(frozen=True)
class BucketModel:
    """Estimated capability distribution for one calendar bucket."""

    empirical: EmpiricalDistribution
    normal: NormalDistribution
    fit_distance: float


@dataclass(frozen=True)
class BuildingModel:
    """One building's day matrix and the bucket table kept from it."""

    building_id: str
    series: CurtailableSeries
    table: Mapping[tuple[int, bool], BucketBlock]
    dropped_buckets: tuple[tuple[str, int], ...]

    @cached_property
    def buckets(self) -> dict[BucketKey, BucketModel]:
        """Each kept bucket's samples and fit, in key order, built on first access.

        The samples are the series' own buckets, in day order.
        """
        samples = self.series.buckets
        out = {}
        for key in self.sorted_keys():
            mu, sigma, distance = self.table[key.month, key.is_weekend].fits[key.hour].tolist()
            out[key] = BucketModel(samples[key], NormalDistribution(mu, sigma), distance)
        return out

    @property
    def days_used(self) -> int:
        return len(self.series.days)

    @property
    def skipped_days(self) -> int:
        return self.series.skipped_days

    def sorted_keys(self) -> list[BucketKey]:
        return [BucketKey(*cell) for cell in _cells(self.table)]


@dataclass(frozen=True)
class CapabilityModel:
    """Per-building bucket distributions, the settings that made them, and provenance."""

    buildings: Mapping[str, BuildingModel]
    config: EstimationConfig
    record_counts: Mapping[str, int]
    source_digest: str | None = None

    def building(self, building_id: str) -> BuildingModel:
        try:
            return self.buildings[building_id]
        except KeyError:
            raise ModelConsistencyError(
                f"unknown building {building_id!r}; model has {sorted(self.buildings)}"
            ) from None

    def to_json_dict(self) -> dict:
        buildings = {}
        for bid in sorted(self.buildings):
            bm = self.buildings[bid]
            buildings[bid] = {
                "days": [day.isoformat() for day in bm.series.days],
                "values": bm.series.values.tolist(),
                "skipped_days": bm.skipped_days,
                "buckets": {
                    _label(month, hour, is_weekend): dict(zip(("mu", "sigma", "fit_distance"), fit))
                    for (month, is_weekend), block in bm.table.items()
                    for hour, fit in enumerate(block.fits.tolist())
                },
            }
        return {
            "schema_version": MODEL_SCHEMA_VERSION,
            "metadata": {
                "curtailable_fraction": self.config.curtailable_fraction,
                "curtailable_end_use": self.config.curtailable_end_use,
                "min_bucket_size": int(self.config.min_bucket_size),
                "source_digest": self.source_digest,
                "record_counts": {k: self.record_counts[k] for k in sorted(self.record_counts)},
            },
            "buildings": buildings,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> CapabilityModel:
        try:
            version = obj["schema_version"]
            if version != MODEL_SCHEMA_VERSION:
                raise InputFormatError(
                    f"unsupported model schema version {version!r}; re-run estimate"
                )
            _check_keys("model", obj, ("schema_version", "metadata", "buildings"))
            meta = obj["metadata"]
            settings = ("curtailable_fraction", "min_bucket_size", "curtailable_end_use")
            _check_keys("metadata", meta, settings + ("source_digest", "record_counts"))
            config = EstimationConfig(**{name: meta[name] for name in settings})
            counts = meta["record_counts"]
            digest = meta["source_digest"]
            if not (digest is None or isinstance(digest, str)):
                raise ValueError(f"source_digest must be a string or null, got {digest!r}")
            return cls(
                buildings={
                    bid: _read_building(bid, raw, config.min_bucket_size)
                    for bid, raw in obj["buildings"].items()
                },
                config=config,
                record_counts={k: _count("record count", v) for k, v in counts.items()},
                source_digest=digest,
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, InputFormatError):
                raise
            raise InputFormatError(f"malformed capability model: {exc}") from exc

    @classmethod
    def load(cls, path) -> CapabilityModel:
        try:
            obj = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InputFormatError(f"cannot read capability model {path}: {exc}") from exc
        return cls.from_json_dict(obj)


def _read_building(bid: str, raw: dict, min_bucket_size: int) -> BuildingModel:
    """Check the stored days, values and fits, and build the bucket table from them."""
    _check_keys(f"building {bid!r}", raw, ("days", "values", "skipped_days", "buckets"))
    series = _read_series(raw)
    kept, dropped = split_blocks(series, min_bucket_size)
    fits = raw["buckets"]
    cells = _cells(kept)
    labels = [_label(*cell) for cell in cells]
    if set(fits) != set(labels):
        raise ValueError(
            f"building {bid!r}: bucket labels differ from the buckets its days and values "
            f"keep (missing {sorted(set(labels) - set(fits))}, "
            f"extra {sorted(set(fits) - set(labels))})"
        )
    params = {group: [] for group in kept}
    for (month, _, is_weekend), label in zip(cells, labels):
        fit = fits[label]
        _check_keys(f"bucket {label} of {bid!r}", fit, ("mu", "sigma", "fit_distance"))
        mu, sigma, distance = (_number(name, fit[name]) for name in ("mu", "sigma", "fit_distance"))
        check_normal_parameters(mu, sigma)
        if not 0.0 <= distance <= 1.0:
            raise ValueError(f"fit_distance must lie in [0, 1], got {distance!r}")
        params[month, is_weekend].append((mu, sigma, distance))
    table = {group: BucketBlock(kept[group], np.array(fit)) for group, fit in params.items()}
    return BuildingModel(bid, series, table, dropped)


def _read_series(raw: dict) -> CurtailableSeries:
    rows, texts = raw["values"], raw["days"]
    # Check element types first: NumPy would turn "1.5" and true into floats.
    if not (
        isinstance(rows, list)
        and all(isinstance(row, list) and len(row) == HOURS_PER_DAY for row in rows)
        and set(map(type, chain.from_iterable(rows))) <= {int, float}
    ):
        raise ValueError("values must be a list of 24-long rows of JSON numbers")
    values = np.array(rows, dtype=float).reshape(len(rows), HOURS_PER_DAY)
    if not (np.isfinite(values).all() and (values >= 0.0).all()):
        raise ValueError("values must be finite and >= 0")
    values.flags.writeable = False
    try:
        days = tuple(map(date.fromisoformat, texts))
    except (TypeError, ValueError):
        days = ()
    if [d.isoformat() for d in days] != texts or any(a >= b for a, b in zip(days, days[1:])):
        raise ValueError("days must be a list of YYYY-MM-DD dates, strictly ascending")
    if len(days) != len(rows):
        raise ValueError(f"values has {len(rows)} rows for {len(days)} days")
    return CurtailableSeries(days, values, _count("skipped_days", raw["skipped_days"]))


def _check_keys(where: str, obj, keys: tuple[str, ...]) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ValueError(f"unknown keys in {where}: {unknown}")


def _number(name: str, value) -> float:
    if not is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _count(name: str, value) -> int:
    if not (is_integer(value) and value >= 0):
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
    return value


def model_json_text(model: CapabilityModel) -> str:
    """Canonical serialization: identical models produce identical bytes."""
    return json_text(model.to_json_dict())


def build_capability_model(
    table: LoadTable,
    shapes: EndUseShapes,
    config: EstimationConfig,
    source_digest: str | None = None,
) -> CapabilityModel:
    """Run the full estimation pipeline over every building in the table."""
    buildings = {}
    for bid in sorted(table.buildings):
        series = curtailable_series(table.buildings[bid], shapes, config.curtailable_fraction)
        kept, dropped = split_blocks(series, config.min_bucket_size)
        blocks = {group: BucketBlock(samples, fit_rows(samples)) for group, samples in kept.items()}
        buildings[bid] = BuildingModel(bid, series, blocks, dropped)
    if not any(b.table for b in buildings.values()):
        raise ModelConsistencyError("no valid buckets after the minimum-size rule")
    return CapabilityModel(
        buildings=buildings,
        config=config,
        record_counts={bid: t.metered_hours for bid, t in table.buildings.items()},
        source_digest=source_digest,
    )


def _is_date(text: str) -> bool:
    """Whether text is a bare date, which fromisoformat would read as midnight."""
    try:
        date.fromisoformat(text)
    except ValueError:
        return False
    return True


def read_load_csv(path) -> LoadTable:
    """Parse the metered-load CSV (header: timestamp,building_id,load_kwh).

    Each load goes straight into the 24-hour row of its building and day;
    an hour with no row stays NaN.
    """
    by_building = defaultdict(lambda: defaultdict(lambda: [math.nan] * HOURS_PER_DAY))

    def parse(row: list[str]) -> None:
        try:
            ts = datetime.fromisoformat(row[0])
        except ValueError as exc:
            raise ValueError(f"bad timestamp {row[0]!r}: {exc}") from None
        if not ts.hour and _is_date(row[0]):
            raise ValueError(f"timestamps need an hour, got {row[0]!r}")
        try:
            load = float(row[2])
        except ValueError:
            raise ValueError(f"bad load_kwh {row[2]!r}") from None
        if ts.tzinfo is not None:
            raise ValueError(f"timestamps must be naive local time, got {ts.isoformat()}")
        if ts.minute or ts.second or ts.microsecond:
            raise ValueError(f"timestamps must be on the hour, got {ts.isoformat()}")
        building = row[1].strip()
        if not building:
            raise ValueError("building_id must be non-empty")
        if not (math.isfinite(load) and load >= 0.0):
            raise ValueError(f"load_kwh must be finite and >= 0, got {load!r}")
        hours = by_building[building][ts.date()]
        if not math.isnan(hours[ts.hour]):
            raise ValueError(f"duplicate timestamp {ts.isoformat()} for building {building!r}")
        hours[ts.hour] = load

    read_csv_rows(path, "load CSV", (LOAD_CSV_HEADER,), parse)
    tables = {}
    for building, days in by_building.items():
        ordered = sorted(days)
        values = np.array([days[day] for day in ordered])
        values.flags.writeable = False
        tables[building] = DayTable(tuple(ordered), values)
    return LoadTable(tables)


def read_shapes_csv(path, curtailable: str) -> EndUseShapes:
    """Parse the end-use shapes CSV (header: end_use,day_type,hour,weight).

    An end use provides either a single 'all' shape or separate complete
    weekday and weekend shapes; mixing the two styles is rejected.
    """
    vectors: dict[tuple[str, str], dict[int, float]] = {}

    def parse(row: list[str]) -> str:
        name, day_type, hour_text, weight_text = (f.strip() for f in row)
        if day_type not in _DAY_TYPES:
            raise ValueError(f"day_type must be one of {_DAY_TYPES}, got {day_type!r}")
        try:
            hour = int(hour_text)
        except ValueError:
            raise ValueError(f"bad hour {hour_text!r}") from None
        if not 0 <= hour <= 23:
            raise ValueError(f"hour must lie in 0..23, got {hour}")
        try:
            weight = float(weight_text)
        except ValueError:
            raise ValueError(f"bad weight {weight_text!r}") from None
        if not (math.isfinite(weight) and weight >= 0.0):
            raise ValueError("weight must be finite and >= 0")
        vec = vectors.setdefault((name, day_type), {})
        if hour in vec:
            raise ValueError(f"duplicate hour {hour} for ({name!r}, {day_type!r})")
        vec[hour] = weight
        return name

    names = read_csv_rows(path, "shapes CSV", (SHAPES_CSV_HEADER,), parse)
    order = list(dict.fromkeys(names))

    def complete(name: str, day_type: str) -> np.ndarray:
        vec = vectors[(name, day_type)]
        missing = [h for h in range(HOURS_PER_DAY) if h not in vec]
        if missing:
            raise InputFormatError(
                f"{path}: ({name!r}, {day_type!r}) missing hours {missing[:4]}"
            )
        return np.array([vec[h] for h in range(HOURS_PER_DAY)])

    weekday_rows = []
    weekend_rows = []
    for name in order:
        has_all = (name, "all") in vectors
        has_specific = (name, "weekday") in vectors or (name, "weekend") in vectors
        if has_all and has_specific:
            raise InputFormatError(
                f"{path}: end use {name!r} mixes 'all' with weekday/weekend rows"
            )
        if has_all:
            vec = complete(name, "all")
            weekday_rows.append(vec)
            weekend_rows.append(vec)
        else:
            if (name, "weekday") not in vectors or (name, "weekend") not in vectors:
                raise InputFormatError(
                    f"{path}: end use {name!r} needs both weekday and weekend shapes "
                    "(or a single 'all' shape)"
                )
            weekday_rows.append(complete(name, "weekday"))
            weekend_rows.append(complete(name, "weekend"))
    try:
        return EndUseShapes(
            names=tuple(order),
            weekday=np.vstack(weekday_rows),
            weekend=np.vstack(weekend_rows),
            curtailable=curtailable,
        )
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc
