"""Load decomposition, calendar bucketing, and capability-model round trips."""

from __future__ import annotations

import json
import re
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from drcontracts import (
    EmpiricalDistribution,
    InputFormatError,
    ModelConsistencyError,
    build_capability_model,
    curtailable_series,
    decompose_load,
    estimation,
    nnls,
    read_load_csv,
    read_shapes_csv,
    restrict_to_common,
    sum_empirical,
)
from drcontracts.estimation import (
    BucketKey,
    CapabilityModel,
    DayTable,
    EndUseShapes,
    EstimationConfig,
    LoadTable,
    model_json_text,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def two_use_shapes(weekend_scale: float = 1.0) -> EndUseShapes:
    """Base + HVAC shapes; HVAC runs 8:00-19:59 on any day."""
    base = np.full(24, 1.0 / 24.0)
    hvac = np.zeros(24)
    hvac[8:20] = 1.0 / 12.0
    return EndUseShapes(
        names=("base", "hvac"),
        weekday=np.vstack([base, hvac]),
        weekend=np.vstack([base * weekend_scale, hvac]),
        curtailable="hvac",
    )


def day_loads(day: date, shapes: EndUseShapes, w_base: float, w_hvac: float) -> list[float]:
    """The 24 hourly loads of the base and HVAC shapes at these weights."""
    return (shapes.day_matrix(day.weekday() >= 5) @ np.array([w_base, w_hvac])).tolist()


def day_table(loads: dict[date, list[float]]) -> DayTable:
    """One building's day table; a day with fewer than 24 loads misses its last hours."""
    days = tuple(sorted(loads))
    values = np.full((len(days), 24), np.nan)
    for row, day in enumerate(days):
        values[row, : len(loads[day])] = loads[day]
    values.flags.writeable = False
    return DayTable(days, values)


def day_column(series, key: BucketKey) -> list[float]:
    """The key's hour over the series' days of its (month, day type), in day order."""
    rows = [
        row
        for row, day in enumerate(series.days)
        if (day.month, day.weekday() >= 5) == (key.month, key.is_weekend)
    ]
    return series.values[rows, key.hour].tolist()


class TestEstimationConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"curtailable_fraction": True},
            {"curtailable_fraction": 1.5},
            {"min_bucket_size": 4.0},
            {"min_bucket_size": True},
            {"min_bucket_size": 1},
            {"curtailable_end_use": ""},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EstimationConfig(**kwargs)

    def test_numpy_integer_bucket_size_accepted(self):
        assert EstimationConfig(min_bucket_size=np.int64(6)).min_bucket_size == 6


class TestBucketKey:
    def test_weekday_weekend_split(self):
        # 2021-03-06 was a Saturday
        shapes = two_use_shapes()
        days = (date(2021, 3, 6), date(2021, 3, 1))
        loads = {day: day_loads(day, shapes, 120.0, 80.0) for day in days}
        series = curtailable_series(day_table(loads), shapes, fraction=0.6)
        assert series.days == (date(2021, 3, 1), date(2021, 3, 6))
        buckets = series.buckets
        assert buckets[BucketKey(3, 14, True)].original_samples.tolist() == [
            series.values[1, 14]
        ]
        assert buckets[BucketKey(3, 14, False)].original_samples.tolist() == [
            series.values[0, 14]
        ]
        for key, dist in buckets.items():
            assert dist.original_samples.tolist() == day_column(series, key)

    def test_label_round_trip(self):
        key = BucketKey(11, 7, True)
        assert key.label == "11-07-weekend"
        # The model reader matches stored labels against rebuilt keys, so
        # labels must name keys one to one, and sort as the keys do.
        keys = [
            BucketKey(m, h, w) for m in range(1, 13) for h in range(24) for w in (False, True)
        ]
        assert len({k.label for k in keys}) == len(keys)
        assert sorted(keys, key=lambda k: k.label) == sorted(keys)

    def test_ranges_validated(self):
        with pytest.raises(ValueError):
            BucketKey(0, 5, False)
        with pytest.raises(ValueError):
            BucketKey(3, 24, False)


class TestShapes:
    def test_curtailable_must_be_known(self):
        base = np.full((1, 24), 1.0 / 24.0)
        with pytest.raises(ValueError):
            EndUseShapes(
                names=("base",), weekday=base, weekend=base, curtailable="hvac"
            )

    def test_all_zero_shape_rejected(self):
        rows = np.vstack([np.full(24, 1.0 / 24.0), np.zeros(24)])
        with pytest.raises(ValueError):
            EndUseShapes(
                names=("base", "hvac"), weekday=rows, weekend=rows, curtailable="hvac"
            )


class TestDecomposition:
    def test_exact_recovery_without_noise(self):
        shapes = two_use_shapes()
        profile = shapes.day_matrix(False) @ np.array([120.0, 80.0])
        weights, residual = decompose_load(profile, shapes, is_weekend=False)
        assert weights == pytest.approx([120.0, 80.0], abs=1e-9)
        assert residual == pytest.approx(0.0, abs=1e-9)

    def test_noisy_recovery_close(self):
        shapes = two_use_shapes()
        rng = np.random.default_rng(9)
        profile = shapes.day_matrix(False) @ np.array([120.0, 80.0])
        profile = profile + rng.normal(0.0, 0.05, 24)
        weights, _ = decompose_load(profile, shapes, is_weekend=False)
        assert weights == pytest.approx([120.0, 80.0], abs=2.0)


class TestCurtailableSeries:
    def test_values_scale_with_fraction_and_shape(self):
        shapes = two_use_shapes()
        march1 = date(2021, 3, 1)
        table = day_table({march1: day_loads(march1, shapes, 120.0, 80.0)})
        series = curtailable_series(table, shapes, fraction=0.5)
        assert series.days == (march1,)
        # hour 10 carries hvac weight 80/12; half of it is curtailable
        assert series.values[0, 10] == pytest.approx(0.5 * 80.0 / 12.0)
        assert series.values[0, 2] == pytest.approx(0.0)
        assert series.skipped_days == 0

    def test_incomplete_days_skipped_and_counted(self):
        shapes = two_use_shapes()
        march1, march2 = date(2021, 3, 1), date(2021, 3, 2)
        loads = {
            march1: day_loads(march1, shapes, 120.0, 80.0),
            march2: day_loads(march2, shapes, 120.0, 80.0)[:23],
        }
        series = curtailable_series(day_table(loads), shapes, fraction=0.5)
        assert series.days == (march1,)
        assert series.skipped_days == 1

    def test_one_nnls_call_per_complete_day_on_the_fixtures(self, monkeypatch):
        """The benchmark times nnls per call through this name; batching would change its count."""
        table = read_load_csv(FIXTURES / "sample_load.csv")
        shapes = read_shapes_csv(FIXTURES / "shapes.csv", "hvac")
        calls = []

        def counting(a, b):
            calls.append(1)
            return nnls(a, b)

        monkeypatch.setattr(estimation, "nnls", counting)
        build_capability_model(table, shapes, EstimationConfig())
        complete = sum(
            int((~np.isnan(t.values).any(axis=1)).sum()) for t in table.buildings.values()
        )
        assert len(calls) == complete > 0

    @pytest.mark.parametrize("bad", [-1.0, np.inf])
    def test_complete_day_with_a_bad_hour_raises_the_decompose_load_error(self, bad):
        shapes = two_use_shapes()
        march1, march2 = date(2021, 3, 1), date(2021, 3, 2)
        loads = {day: day_loads(day, shapes, 120.0, 80.0) for day in (march1, march2)}
        loads[march2][5] = bad
        with pytest.raises(ValueError) as expected:
            decompose_load(loads[march2], shapes)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            curtailable_series(day_table(loads), shapes, fraction=0.5)

    def test_building_without_a_complete_day_gives_an_empty_series(self):
        shapes = two_use_shapes()
        march1, march2 = date(2021, 3, 1), date(2021, 3, 2)
        loads = {day: day_loads(day, shapes, 120.0, 80.0)[:20] for day in (march1, march2)}
        series = curtailable_series(day_table(loads), shapes, fraction=0.5)
        assert series.days == ()
        assert series.values.shape == (0, 24)
        assert series.skipped_days == 2

    def test_duplicate_timestamps_rejected(self, tmp_path):
        # A day table cannot hold two loads for one hour: a repeated hour is
        # stopped at its CSV row, before any table reaches curtailable_series.
        shapes = two_use_shapes()
        march1 = date(2021, 3, 1)
        rows = [
            f"2021-03-01T{hour:02d}:00:00,b1,{load!r}\n"
            for hour, load in enumerate(day_loads(march1, shapes, 120.0, 80.0))
        ]
        path = tmp_path / "load.csv"
        path.write_text("timestamp,building_id,load_kwh\n" + "".join(rows))
        series = curtailable_series(read_load_csv(path).buildings["b1"], shapes, fraction=0.5)
        assert series.days == (march1,) and series.skipped_days == 0

        path.write_text("timestamp,building_id,load_kwh\n" + "".join(rows + rows[:1]))
        with pytest.raises(InputFormatError, match=r"load\.csv:26: duplicate timestamp"):
            read_load_csv(path)


class TestBucketing:
    def test_exhaustive_and_exclusive(self):
        shapes = two_use_shapes()
        days = [date(2021, 3, 1) + timedelta(days=i) for i in range(14)]
        loads = {day: day_loads(day, shapes, 120.0, 80.0) for day in days}
        series = curtailable_series(day_table(loads), shapes, fraction=0.6)
        buckets = series.buckets
        total = sum(dist.n for dist in buckets.values())
        assert total == 14 * 24
        # 10 weekdays and 4 weekend days in the first two March weeks
        assert buckets[BucketKey(3, 10, False)].n == 10
        assert buckets[BucketKey(3, 10, True)].n == 4

    def test_buckets_are_built_once_and_kept_by_the_model(self):
        shapes = two_use_shapes()
        days = [date(2021, 3, 1) + timedelta(days=i) for i in range(14)]
        table = day_table({day: day_loads(day, shapes, 120.0, 80.0) for day in days})
        model = build_capability_model(
            LoadTable({"b1": table}), shapes, EstimationConfig(min_bucket_size=5)
        )
        building = model.building("b1")
        buckets = building.series.buckets
        assert building.series.buckets is buckets
        # The weekend buckets (4 days) are dropped; the kept ones are the series' own.
        assert len(buckets) == 48 and len(building.buckets) == 24
        for key, fit in building.buckets.items():
            assert fit.empirical is buckets[key]

    def test_alignment_labels_are_timestamps(self):
        shapes = two_use_shapes()
        march1 = date(2021, 3, 1)
        table = day_table({march1: day_loads(march1, shapes, 120.0, 80.0)})
        series = curtailable_series(table, shapes, fraction=0.6)
        assert series.days == (march1,)
        buckets = series.buckets
        assert buckets[BucketKey(3, 10, False)].original_samples.tolist() == [
            series.values[0, 10]
        ]

    def test_day_rows_across_month_end_and_weekend(self):
        shapes = two_use_shapes(weekend_scale=0.5)
        loads = {}
        # Thu 2021-02-25 .. Wed 2021-03-03; Sat 2021-02-27 misses its last hour
        for i in range(7):
            day = date(2021, 2, 25) + timedelta(days=i)
            hours = day_loads(day, shapes, 100.0 + i, 60.0 + 5.0 * i)
            loads[day] = hours[:23] if i == 2 else hours
        series = curtailable_series(day_table(loads), shapes, fraction=0.6)
        assert series.skipped_days == 1
        assert date(2021, 2, 27) not in series.days
        assert series.values.shape == (6, 24) and not series.values.flags.writeable

        buckets = series.buckets
        # Every (day, hour) lands in exactly one bucket: the bucket of its
        # hour and its day's (month, day type), which holds those days in order.
        cells = {(d.month, h, d.weekday() >= 5) for d in series.days for h in range(24)}
        assert {(k.month, k.hour, k.is_weekend) for k in buckets} == cells
        for key, dist in buckets.items():
            assert dist.original_samples.tolist() == day_column(series, key)
        assert sum(dist.n for dist in buckets.values()) == 6 * 24
        # only Sun 2021-02-28 is left of the weekend
        sunday = series.days.index(date(2021, 2, 28))
        assert buckets[BucketKey(2, 9, True)].original_samples.tolist() == [
            series.values[sunday, 9]
        ]
        assert buckets[BucketKey(3, 9, False)].n == 3


class TestRestrictToCommon:
    """Buildings pair their samples by day, through restrict_to_common."""

    @staticmethod
    def series_of(days: list[int], gaps: tuple[int, ...] = ()):
        """March 2021 days; a day in gaps misses its last hour."""
        shapes = two_use_shapes(weekend_scale=0.5)
        loads = {}
        for day in days:
            hours = day_loads(date(2021, 3, day), shapes, 100.0 + day, 40.0 + 3.0 * day)
            loads[date(2021, 3, day)] = hours[:23] if day in gaps else hours
        return curtailable_series(day_table(loads), shapes, fraction=0.6)

    def test_shared_days_in_ascending_order(self):
        a = self.series_of([1, 2, 3, 4, 5, 6])
        b = self.series_of([3, 4, 5, 6, 7, 8, 9], gaps=(4,))
        ra, rb = restrict_to_common([a, b])
        shared = (date(2021, 3, 3), date(2021, 3, 5), date(2021, 3, 6))
        assert ra.days == rb.days == shared
        for full, restricted in ((a, ra), (b, rb)):
            rows = [full.days.index(day) for day in shared]
            assert restricted.values.tobytes() == full.values[rows].tobytes()
            assert not restricted.values.flags.writeable
        assert restrict_to_common([a])[0].days == a.days

    def test_days_shuffled_across_two_series(self):
        a = self.series_of([8, 1, 5, 2, 4])
        b = self.series_of([9, 5, 1, 8, 2, 3])
        ra, rb = restrict_to_common([a, b])
        shared = [date(2021, 3, d) for d in (1, 2, 5, 8)]
        assert list(ra.days) == list(rb.days) == shared
        ba, bb = ra.buckets, rb.buckets
        assert set(ba) == set(bb)
        for key in ba:
            # The k-th samples of a bucket pair come from the same day.
            cell = (key.month, key.is_weekend)
            days = [d for d in shared if (d.month, d.weekday() >= 5) == cell]
            expected = [
                a.values[a.days.index(d), key.hour] + b.values[b.days.index(d), key.hour]
                for d in days
            ]
            total = sum_empirical([ba[key], bb[key]])
            assert total.original_samples.tolist() == expected

    def test_series_keeping_every_day_comes_back_as_itself(self):
        a = self.series_of([1, 2, 3, 4, 5, 6])
        b = self.series_of([2, 3, 4, 5])
        buckets = b.buckets
        ra, rb = restrict_to_common([a, b])
        assert rb is b and rb.buckets is buckets
        # a drops days 1 and 6: a new series, bucketed anew.
        assert ra is not a and ra.days == b.days
        assert not set(map(id, ra.buckets.values())) & set(map(id, a.buckets.values()))
        twin = self.series_of([1, 2, 3, 4, 5, 6])
        assert [s is t for s, t in zip(restrict_to_common([a, twin]), (a, twin))] == [True] * 2
        assert restrict_to_common([a])[0] is a

    def test_groups_that_lose_no_day_keep_their_samples(self):
        a = self.series_of(list(range(1, 15)))
        b = self.series_of([day for day in range(1, 15) if day != 6])  # Sat 2021-03-06
        ra, rb = restrict_to_common([a, b])
        assert rb is b and ra is not a
        assert set(ra.buckets) == set(a.buckets)
        for key, dist in ra.buckets.items():
            # Only the March weekend lost a day; every restricted bucket is new.
            assert dist is not a.buckets[key]
            same = dist.original_samples.tobytes() == a.buckets[key].original_samples.tobytes()
            assert same == (not key.is_weekend)
            assert dist.original_samples.tolist() == day_column(ra, key)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="needs at least one series, got none"):
            restrict_to_common([])

    def test_no_shared_day_gives_empty_series(self):
        a = self.series_of([1, 2])
        b = self.series_of([3, 4])
        for restricted in restrict_to_common([a, b]):
            assert restricted.days == ()
            assert restricted.values.shape == (0, 24)
            assert restricted.buckets == {}


FIT_DISTANCE = ("buildings", "b1", "buckets", "03-10-weekday", "fit_distance")
FIT_RANGE = r"fit_distance must lie in \[0, 1\]"


class TestCapabilityModel:
    def build_small_model(
        self, days: int = 10, extra: dict[str, DayTable] | None = None
    ) -> CapabilityModel:
        shapes = two_use_shapes()
        rng = np.random.default_rng(4)
        tables = dict(extra or {})
        for building, scale in (("b1", 1.0), ("b2", 1.4)):
            loads = {}
            for i in range(days):
                day = date(2021, 3, 1) + timedelta(days=i)
                w_hvac = max(80.0 * scale + rng.normal(0.0, 8.0), 0.0)
                loads[day] = day_loads(day, shapes, 120.0 * scale, w_hvac)
            tables[building] = day_table(loads)
        config = EstimationConfig(
            curtailable_fraction=0.6, min_bucket_size=4, curtailable_end_use="hvac"
        )
        return build_capability_model(LoadTable(tables), shapes, config, source_digest="d1")

    def test_small_buckets_dropped_and_recorded(self):
        model = self.build_small_model(days=10)
        building = model.building("b1")
        # 10 days from Mon 2021-03-01: 8 weekdays, 2 weekend days; weekend
        # buckets fall below min_bucket_size=4.
        kept_weekend = [k for k in building.buckets if k.is_weekend]
        assert kept_weekend == []
        assert all(count == 2 for _, count in building.dropped_buckets)
        assert len(building.dropped_buckets) == 24

    def test_unknown_building_raises(self):
        model = self.build_small_model()
        with pytest.raises(ModelConsistencyError):
            model.building("nope")

    def test_json_round_trip_byte_identical(self):
        model = self.build_small_model()
        text = model_json_text(model)
        restored = CapabilityModel.from_json_dict(json.loads(text))
        assert model_json_text(restored) == text

    def test_load_rebuilds_estimate_time_buckets(self):
        shapes = two_use_shapes()
        # b3: 10 complete days and a 23-hour one; b4: 2 days, every bucket dropped.
        b3 = {}
        for i in range(11):
            day = date(2021, 3, 1) + timedelta(days=i)
            hours = day_loads(day, shapes, 100.0, 60.0 + i)
            b3[day] = hours if i < 10 else hours[:23]
        april5, april6 = date(2021, 4, 5), date(2021, 4, 6)
        b4 = {
            april5: day_loads(april5, shapes, 90.0, 50.0),
            april6: day_loads(april6, shapes, 90.0, 55.0),
        }
        model = self.build_small_model(extra={"b3": day_table(b3), "b4": day_table(b4)})
        assert model.building("b3").skipped_days == 1
        assert model.building("b4").buckets == {}

        text = model_json_text(model)
        restored = CapabilityModel.from_json_dict(json.loads(text))
        assert model_json_text(restored) == text
        assert sorted(restored.buildings) == ["b1", "b2", "b3", "b4"]
        for bid, built in model.buildings.items():
            loaded = restored.building(bid)
            assert loaded.dropped_buckets == built.dropped_buckets
            assert loaded.days_used == built.days_used
            assert loaded.skipped_days == built.skipped_days
            assert loaded.series.days == built.series.days
            assert loaded.series.values.tobytes() == built.series.values.tobytes()
            assert loaded.sorted_keys() == built.sorted_keys()
            for key, fit in built.buckets.items():
                back = loaded.buckets[key]
                assert back.empirical.samples.tobytes() == fit.empirical.samples.tobytes()
                assert back.empirical.original_samples.tolist() == day_column(
                    loaded.series, key
                )
                assert back.normal.mu.hex() == fit.normal.mu.hex()
                assert back.normal.sigma.hex() == fit.normal.sigma.hex()
                assert back.fit_distance.hex() == fit.fit_distance.hex()

    def test_null_source_digest_loads(self):
        obj = json.loads(model_json_text(self.build_small_model()))
        obj["metadata"]["source_digest"] = None
        assert CapabilityModel.from_json_dict(obj).source_digest is None

    def test_schema_version_checked(self):
        model = self.build_small_model()
        obj = json.loads(model_json_text(model))
        obj["schema_version"] = 99
        with pytest.raises(InputFormatError):
            CapabilityModel.from_json_dict(obj)

    @pytest.mark.parametrize(
        "path, value, named",
        [
            (("metadata", "curtailable_fraction"), True, "curtailable_fraction"),
            (("metadata", "min_bucket_size"), 4.7, "min_bucket_size"),
            (("metadata", "curtailable_end_use"), 7, "curtailable_end_use"),
            (("metadata", "record_counts", "b1"), -240, "record count"),
            (("metadata", "record_counts", "b1"), 240.0, "record count"),
            (("buildings", "b1", "values", 0, 10), "1.5", "JSON numbers"),
            (("buildings", "b1", "skipped_days"), -1, "skipped_days"),
            (("buildings", "b1", "values", 0, 10), True, "JSON numbers"),
            (("buildings", "b1", "buckets", "03-10-weekday", "fit_distance"), True, "fit_distance"),
            (("buildings", "b1", "buckets", "03-10-weekday", "mu"), "8.0", "mu"),
            (("buildings", "b1", "buckets", "03-10-weekday", "sigma"), False, "sigma"),
            (("buildings", "b1", "values", 0, 10), None, "JSON numbers"),
            (("buildings", "b1", "values", 0), lambda row: row[:23], "JSON numbers"),
            (("buildings", "b1", "values", 0, 10), float("nan"), "finite and >= 0"),
            (("buildings", "b1", "values", 0, 10), -1.0, "finite and >= 0"),
            (("buildings", "b1", "days", 0), "2021-02-30", "YYYY-MM-DD dates"),
            (("buildings", "b1", "days", 1), "2021-03-01", "YYYY-MM-DD dates, strictly ascending"),
            (("buildings", "b1", "days", 1), "2021-02-28", "YYYY-MM-DD dates, strictly ascending"),
            (("buildings", "b1", "days"), lambda days: days[:-1], "10 rows for 9 days"),
            (
                ("buildings", "b1", "buckets"),
                lambda fits: {k: v for k, v in fits.items() if k != "03-10-weekday"},
                "bucket labels",
            ),
            (
                ("buildings", "b1", "buckets", "03-10-weekend"),
                {"mu": 1.0, "sigma": 0.0, "fit_distance": 0.0},
                "bucket labels",
            ),
            (("schema_version",), 1, "re-run estimate"),
            (("comment",), "x", r"unknown keys in model: \['comment'\]"),
            (("metadata", "days_used"), 10, r"unknown keys in metadata: \['days_used'\]"),
            (("buildings", "b1", "days_used"), 61.9, r"building 'b1': \['days_used'\]"),
            (
                ("buildings", "b1", "buckets", "03-10-weekday", "samples"),
                [1.0],
                r"bucket 03-10-weekday of 'b1': \['samples'\]",
            ),
            (("buildings", "b1"), [], "building 'b1' must be an object"),
            (("metadata", "source_digest"), 5, "source_digest must be a string or null"),
            (FIT_DISTANCE, float("nan"), FIT_RANGE),
            (FIT_DISTANCE, -1, FIT_RANGE),
            (FIT_DISTANCE, 7.5, FIT_RANGE),
            (FIT_DISTANCE, float("inf"), FIT_RANGE),
        ],
    )
    def test_field_types_checked_not_coerced(self, path, value, named):
        obj = json.loads(model_json_text(self.build_small_model()))
        target = obj
        for step in path[:-1]:
            target = target[step]
        # A callable edits the stored value; anything else replaces it.
        target[path[-1]] = value(target[path[-1]]) if callable(value) else value
        with pytest.raises(InputFormatError, match=named):
            CapabilityModel.from_json_dict(obj)

    def test_empty_model_rejected(self):
        shapes = two_use_shapes()
        march1 = date(2021, 3, 1)
        table = LoadTable({"b1": day_table({march1: day_loads(march1, shapes, 120.0, 80.0)})})
        config = EstimationConfig(
            curtailable_fraction=0.6, min_bucket_size=4, curtailable_end_use="hvac"
        )
        with pytest.raises(ModelConsistencyError, match="no valid buckets"):
            build_capability_model(table, shapes, config, source_digest="d")


class TestCsvReaders:
    def write(self, tmp_path, name: str, text: str):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_load_csv_happy_path(self, tmp_path):
        path = self.write(
            tmp_path,
            "load.csv",
            "timestamp,building_id,load_kwh\n"
            "2021-03-02T05:00:00,b1,7.0\n"
            "2021-03-01T00:00:00,b1,5.0\n"
            "2021-03-01T00:00:00,b2,4.0\n"
            "2021-03-01T01:00:00,b1,6.5\n",
        )
        table = read_load_csv(path)
        assert len(table) == 4
        b1, b2 = table.buildings["b1"], table.buildings["b2"]
        # Days ascend whatever the row order; an hour with no row is NaN.
        assert b1.days == (date(2021, 3, 1), date(2021, 3, 2))
        assert b1.values.shape == (2, 24) and not b1.values.flags.writeable
        assert b1.values[0, :2].tolist() == [5.0, 6.5] and b1.values[1, 5] == 7.0
        assert (b1.metered_hours, b2.metered_hours) == (3, 1)
        assert np.isnan(b1.values).sum() == 2 * 24 - 3
        assert b2.days == (date(2021, 3, 1),) and b2.values[0, 0] == 4.0

    @pytest.mark.parametrize(
        "stamps, outcome",
        [
            (["20210101T00"], datetime(2021, 1, 1, 0)),
            (["2021-03-01T05"], datetime(2021, 3, 1, 5)),
            (["2021-03-01 05:00"], datetime(2021, 3, 1, 5)),
            (["2021-W09-1T05"], datetime(2021, 3, 1, 5)),
            (["2021-03-01"], "load.csv:2: timestamps need an hour, got '2021-03-01'"),
            (["20210301"], "load.csv:2: timestamps need an hour, got '20210301'"),
            (["2021-W09-1"], "load.csv:2: timestamps need an hour, got '2021-W09-1'"),
            (["2021-01"], "load.csv:2: bad timestamp '2021-01'"),
            (
                ["2021-03-01T00:00:00+01:00"],
                "load.csv:2: timestamps must be naive local time, got 2021-03-01T00:00:00+01:00",
            ),
            (
                ["2021-03-01T00:00:00Z"],
                "load.csv:2: timestamps must be naive local time, got 2021-03-01T00:00:00+00:00",
            ),
            (
                ["2021-03-01T05:30"],
                "load.csv:2: timestamps must be on the hour, got 2021-03-01T05:30:00",
            ),
            (
                ["2021-03-01T05:00:00", "2021-W09-1T05"],
                "load.csv:3: duplicate timestamp 2021-03-01T05:00:00 for building 'b1'",
            ),
        ],
        ids=[
            "basic", "hour-only", "space", "iso-week", "date-only",
            "date-only-basic", "date-only-iso-week", "year-month", "offset", "zulu", "half-hour", "two-spellings",
        ],
    )
    def test_load_csv_timestamp_forms(self, tmp_path, stamps, outcome):
        """The timestamp forms the load reader accepts, and how it rejects the rest."""
        rows = "".join(f"{stamp},b1,5.0\n" for stamp in stamps)
        path = self.write(tmp_path, "load.csv", "timestamp,building_id,load_kwh\n" + rows)
        if isinstance(outcome, str):
            with pytest.raises(InputFormatError, match=re.escape(outcome)):
                read_load_csv(path)
            return
        table = read_load_csv(path).buildings["b1"]
        assert table.days == (outcome.date(),)
        assert np.flatnonzero(~np.isnan(table.values[0])).tolist() == [outcome.hour]

    @pytest.mark.parametrize(
        "building, load, message",
        [
            ("b1", "-1.0", "load_kwh must be finite and >= 0, got -1.0"),
            ("b1", "nan", "load_kwh must be finite and >= 0, got nan"),
            ("b1", "inf", "load_kwh must be finite and >= 0, got inf"),
            (" ", "5.0", "building_id must be non-empty"),
        ],
        ids=["negative", "nan", "inf", "blank-building"],
    )
    def test_load_csv_bad_row_rejected(self, tmp_path, building, load, message):
        path = self.write(
            tmp_path,
            "load.csv",
            "timestamp,building_id,load_kwh\n"
            "2021-03-01T00:00:00,b1,5.0\n"
            f"2021-03-01T01:00:00,{building},{load}\n",
        )
        with pytest.raises(InputFormatError, match=re.escape(f"load.csv:3: {message}")):
            read_load_csv(path)

    def test_load_csv_bad_header(self, tmp_path):
        path = self.write(tmp_path, "load.csv", "time,building,load\n")
        with pytest.raises(InputFormatError, match="header"):
            read_load_csv(path)

    def test_load_csv_line_numbers_in_errors(self, tmp_path):
        path = self.write(
            tmp_path,
            "load.csv",
            "timestamp,building_id,load_kwh\n"
            "2021-03-01T00:00:00,b1,5.0\n"
            "2021-03-01T01:30:00,b1,6.5\n",
        )
        with pytest.raises(InputFormatError, match="load.csv:3"):
            read_load_csv(path)

    @pytest.mark.parametrize("shapes", [False, True])
    def test_row_errors_located_by_line(self, tmp_path, shapes):
        header = "end_use,day_type,hour,weight" if shapes else "timestamp,building_id,load_kwh"

        def read(text):
            path = self.write(tmp_path, "in.csv", text)
            return read_shapes_csv(path, "hvac") if shapes else read_load_csv(path)

        with pytest.raises(InputFormatError, match="empty file"):
            read("")
        with pytest.raises(InputFormatError, match="no data rows"):
            read(header + "\n\n")
        with pytest.raises(InputFormatError, match=r"in\.csv:3: expected \d fields, got 2"):
            read(header + "\n\nb1,5.0\n")

    def test_load_csv_duplicate_rows_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "load.csv",
            "timestamp,building_id,load_kwh\n"
            "2021-03-01T00:00:00,b1,5.0\n"
            "2021-03-01T00:00:00,b1,6.5\n",
        )
        with pytest.raises(InputFormatError, match="duplicate"):
            read_load_csv(path)

    def test_load_csv_timezone_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "load.csv",
            "timestamp,building_id,load_kwh\n2021-03-01T00:00:00+02:00,b1,5.0\n",
        )
        with pytest.raises(InputFormatError):
            read_load_csv(path)

    def shapes_text(self) -> str:
        lines = ["end_use,day_type,hour,weight"]
        for hour in range(24):
            lines.append(f"base,all,{hour},{1 / 24:.9g}")
        for hour in range(24):
            weight = 1 / 12 if 8 <= hour < 20 else 0.0
            lines.append(f"hvac,weekday,{hour},{weight:.9g}")
        for hour in range(24):
            weight = 1 / 8 if 10 <= hour < 18 else 0.0
            lines.append(f"hvac,weekend,{hour},{weight:.9g}")
        return "\n".join(lines) + "\n"

    def test_shapes_csv_happy_path(self, tmp_path):
        path = self.write(tmp_path, "shapes.csv", self.shapes_text())
        shapes = read_shapes_csv(path, "hvac")
        assert shapes.names == ("base", "hvac")
        assert shapes.weekday[1, 8] == pytest.approx(1 / 12)
        assert shapes.weekend[1, 8] == 0.0
        # 'all' day type populates both matrices
        assert shapes.weekend[0, 3] == pytest.approx(1 / 24)

    def test_shapes_csv_unknown_curtailable(self, tmp_path):
        path = self.write(tmp_path, "shapes.csv", self.shapes_text())
        with pytest.raises(InputFormatError, match="lighting"):
            read_shapes_csv(path, "lighting")

    def test_shapes_csv_incomplete_hours_rejected(self, tmp_path):
        text = self.shapes_text().rstrip("\n").rsplit("\n", 1)[0] + "\n"
        path = self.write(tmp_path, "shapes.csv", text)
        with pytest.raises(InputFormatError, match="hvac"):
            read_shapes_csv(path, "hvac")

    def test_shapes_csv_all_xor_split_enforced(self, tmp_path):
        text = self.shapes_text() + "base,weekday,0,0.1\n"
        # completing the weekday split for 'base' still clashes with its 'all'
        for hour in range(1, 24):
            text += f"base,weekday,{hour},0.1\n"
        path = self.write(tmp_path, "shapes.csv", text)
        with pytest.raises(InputFormatError):
            read_shapes_csv(path, "hvac")

    def test_shapes_csv_duplicate_hour_rejected(self, tmp_path):
        text = self.shapes_text() + "hvac,weekday,5,0.2\n"
        path = self.write(tmp_path, "shapes.csv", text)
        with pytest.raises(InputFormatError, match="duplicate"):
            read_shapes_csv(path, "hvac")
