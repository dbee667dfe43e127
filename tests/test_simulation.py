"""Monte Carlo settlement: determinism, convergence, and tail estimation."""

from __future__ import annotations

import json
import warnings
from collections import Counter

import numpy as np
import pytest

from drcontracts import _kernels, simulation
from drcontracts import (
    ClippedMassWarning,
    CvarEstimate,
    EmpiricalDistribution,
    ModelConsistencyError,
    NormalDistribution,
    ProgramTerms,
    SimulationConfig,
    analytic_summary,
    convergence_rows,
    cvar,
    expected_profit,
    optimal_contract,
    simulate_horizon,
    write_profits_csv,
)
from drcontracts.contracts import tail_cutoff
from conftest import sampled_normal, terms_for_psi
from oracles import dense_event_cells, dense_simulate_horizon, philox_stream


def small_config(**overrides) -> SimulationConfig:
    defaults = dict(n_trials=600, windows_per_horizon=24, seed=11)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestSimulationConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_trials": 0},
            {"n_trials": 2.5},
            {"n_trials": 10, "windows_per_horizon": 0},
            {"n_trials": 10, "seed": -1},
            {"n_trials": 10, "seed": 2**64},
            {"n_trials": 100.0},
            {"n_trials": True},
            {"n_trials": 10, "seed": 7.0},
            {"n_trials": 10, "seed": True},
            {"n_trials": 10, "windows_per_horizon": 2.5},
            {"n_trials": 10, "windows_per_horizon": True},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimulationConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        config = SimulationConfig(
            n_trials=np.int64(10), seed=np.uint64(7), windows_per_horizon=np.int32(2)
        )
        assert config.n_trials == 10 and config.seed == 7 and config.windows_per_horizon == 2


class TestDeterminism:
    def test_same_seed_reproduces_bitwise(self, basic_terms):
        dist = NormalDistribution(100.0, 10.0)
        first = simulate_horizon(basic_terms, dist, 90.0, small_config())
        second = simulate_horizon(basic_terms, dist, 90.0, small_config())
        assert np.array_equal(first.profits, second.profits)
        assert first.event_total == second.event_total
        assert first.shortfall_total == second.shortfall_total

    def test_chunk_size_does_not_change_draws(self, basic_terms, monkeypatch):
        dist = NormalDistribution(100.0, 10.0)
        baseline = simulate_horizon(basic_terms, dist, 90.0, small_config())
        monkeypatch.setattr("drcontracts.simulation.CHUNK_TRIALS", 64)
        rechunked = simulate_horizon(basic_terms, dist, 90.0, small_config())
        assert np.array_equal(baseline.profits, rechunked.profits)
        assert baseline.cvar["all"].value == rechunked.cvar["all"].value

    def test_different_seed_changes_draws(self, basic_terms):
        dist = NormalDistribution(100.0, 10.0)
        first = simulate_horizon(basic_terms, dist, 90.0, small_config(seed=1))
        second = simulate_horizon(basic_terms, dist, 90.0, small_config(seed=2))
        assert not np.array_equal(first.profits, second.profits)


class TestStreams:
    """One generator per purpose, moved from block to block by its counter."""

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_reset_reproduces_each_block_stream(self, seed):
        for purpose in (simulation.EVENT_PURPOSE, simulation.TAIL_VALUE_PURPOSE):
            stream = simulation._Stream(seed, purpose)
            for block in (1, 0, 2**63, 2**64 - 1, 1):
                oracle = philox_stream(seed, purpose, block)
                gen = stream.at(block)
                assert gen.random(3).tobytes() == oracle.random(3).tobytes()
                # Three doubles leave the four-word buffer part used: a reset
                # must drop the rest of it.
                gen = stream.at(block)
                oracle = philox_stream(seed, purpose, block)
                assert gen.standard_exponential(9).tobytes() == (
                    oracle.standard_exponential(9).tobytes()
                )

    @pytest.mark.parametrize("n_trials, windows", [(400, 60), (100_000, 24)])
    def test_one_philox_per_purpose_per_call(self, basic_terms, monkeypatch, n_trials, windows):
        built = []
        philox = np.random.Philox

        def counting(*args, key, **kwargs):
            built.append(int(key[1]))
            return philox(*args, key=key, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        config = small_config(n_trials=n_trials, windows_per_horizon=windows)
        result = simulate_horizon(basic_terms, NormalDistribution(100.0, 10.0), 90.0, config)
        assert result.event_total > 0 and result.cvar["all"].tail_count > 0
        assert sorted(built) == [
            simulation.EVENT_PURPOSE,
            simulation.CAPABILITY_PURPOSE,
            simulation.TAIL_PURPOSE,
            simulation.TAIL_VALUE_PURPOSE,
        ]

    @pytest.mark.parametrize("case", ["interleaved", "mixed"])
    def test_refill_on_every_block_matches_dense(self, case, monkeypatch):
        """A first batch of one gap falls short in every block, so each block's
        arrivals come from the refill path; no draw moves."""
        monkeypatch.setattr("drcontracts.simulation.CHUNK_TRIALS", 128)
        monkeypatch.setattr(simulation, "_gap_batch", lambda total: 1)
        visits = Counter()
        at = simulation._Stream.at

        def counting(self, block):
            visits[int(self._state["state"]["key"][1]), block] += 1
            return at(self, block)

        monkeypatch.setattr(simulation._Stream, "at", counting)
        terms = ProgramTerms(pi_e=4.0, pi_r=0.01, pi_p=5.0, p=0.05)
        capability, contracts, schedule, windows = sparse_cases()[case]
        config = small_config(n_trials=300, windows_per_horizon=windows or 1, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClippedMassWarning)
            result = simulate_horizon(terms, capability, contracts, config, schedule)
        monkeypatch.setattr(simulation._Stream, "at", at)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClippedMassWarning)
            oracle = dense_simulate_horizon(terms, capability, contracts, config, schedule)
        assert_bitwise_equal(result, oracle)
        # Each block's arrival streams are visited to fill and again to refill.
        for purpose in (simulation.EVENT_PURPOSE, simulation.TAIL_PURPOSE):
            assert [visits[purpose, block] for block in range(5)] == [2] * 5


class TestChunkingInvariance:
    """Chunking moves no output bit.

    Every draw comes from the streams of its block of BLOCK_TRIALS trials,
    which never straddles a chunk.  Profits and counts are per trial, so no
    partition of the trials can move them.  A group's tail terms are summed
    per block, and the block sums are reduced once at the end, so CVaR values
    and their standard errors add the same values in the same order at any
    chunk size.
    """

    SEEDS = range(6)

    def test_profits_and_counts_do_not_depend_on_chunking(
        self, basic_terms, monkeypatch
    ):
        dist = NormalDistribution(100.0, 10.0)
        config = dict(n_trials=700, windows_per_horizon=48)
        baseline = [
            simulate_horizon(basic_terms, dist, 90.0, small_config(seed=s, **config))
            for s in self.SEEDS
        ]
        monkeypatch.setattr("drcontracts.simulation.CHUNK_TRIALS", 64)
        for seed, base in zip(self.SEEDS, baseline):
            rechunked = simulate_horizon(
                basic_terms, dist, 90.0, small_config(seed=seed, **config)
            )
            assert rechunked.profits.tobytes() == base.profits.tobytes()
            assert rechunked.event_total == base.event_total
            assert rechunked.shortfall_total == base.shortfall_total
            assert rechunked.clip_count == base.clip_count
            assert rechunked.cvar["all"].tail_count == base.cvar["all"].tail_count

    def test_cvar_does_not_depend_on_chunking(self, basic_terms, monkeypatch):
        capability = {
            "a": NormalDistribution(100.0, 10.0),
            "b": NormalDistribution(1.0, 10.0),  # cutoff clipped to zero
            "c": sampled_normal(60.0, 15.0, 23, seed=4),
            "d": NormalDistribution(40.0, 0.0),
        }
        contracts = {"a": 90.0, "b": 5.0, "c": 55.0, "d": 35.0}
        config = dict(n_trials=1001, windows_per_horizon=22)
        outputs = []
        for chunk in (4096, 64):
            monkeypatch.setattr("drcontracts.simulation.CHUNK_TRIALS", chunk)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ClippedMassWarning)
                runs = [
                    simulate_horizon(
                        basic_terms, capability, contracts, small_config(seed=s, **config)
                    )
                    for s in self.SEEDS
                ]
            outputs.append([json.dumps(r.to_json_dict(), sort_keys=True) for r in runs])
        assert all(out == outputs[0] for out in outputs[1:])
        tail_counts = [json.loads(out)["cvar"] for out in outputs[0]]
        assert all(est["tail_count"] > 0 for cv in tail_counts for est in cv.values())

    def test_one_value_tail_has_zero_standard_error(self, monkeypatch):
        # Every tail draw of "clip" is the atom clipped onto zero and every one
        # of "ties" is its smallest sample, so each tail settles to one term.
        # Adding that term up in floating point leaves sum(x^2)/n - mean^2 a
        # rounding residue; the spread must read exactly 0 all the same.
        terms = ProgramTerms(pi_e=4.0, pi_r=0.01, pi_p=5.0, p=0.05)
        capability = {
            "clip": NormalDistribution(1.0, 10.0),
            "ties": EmpiricalDistribution(np.array([0.3, 0.3, 0.3, 4.1, 9.7])),
            "spread": NormalDistribution(50.0, 10.0),
        }
        contracts = {"clip": 5.3, "ties": 2.7, "spread": 45.1}
        config = dict(n_trials=1001, windows_per_horizon=30)
        for chunk in (4096, 64):
            monkeypatch.setattr("drcontracts.simulation.CHUNK_TRIALS", chunk)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ClippedMassWarning)
                result = simulate_horizon(terms, capability, contracts, small_config(**config))
            assert result.cvar["clip"].standard_error == 0.0
            assert result.cvar["ties"].standard_error == 0.0
            assert result.cvar["spread"].standard_error > 0.0
            assert min(est.tail_count for est in result.cvar.values()) > 1
        summary = analytic_summary(terms, capability, contracts, small_config(**config))
        z = {row.quantity: row.z_score for row in convergence_rows(result, summary)}
        assert z["cvar[clip]"] is None and z["cvar[ties]"] is None
        assert z["cvar[spread]"] is not None


def test_each_chunk_settles_through_the_kernel_module(basic_terms, monkeypatch):
    # Tracing wraps the module attribute, so the engine must look it up there.
    calls = []
    settle = _kernels.settle_trials

    def recording_settle(cells, capability, contracts, n_rows, *rates):
        calls.append((n_rows, cells.tobytes()))
        return settle(cells, capability, contracts, n_rows, *rates)

    monkeypatch.setattr(_kernels, "settle_trials", recording_settle)
    monkeypatch.setattr("drcontracts.simulation.CHUNK_TRIALS", 128)
    config = small_config()
    dist = NormalDistribution(100.0, 10.0)
    simulate_horizon(basic_terms, dist, 90.0, config)
    assert [n_rows for n_rows, _ in calls] == [128] * 4 + [88]
    # The chunks settle in order, and each call gets its chunk's event cells,
    # block after block, in row-major order: two 64-trial blocks per chunk,
    # the last one short.
    block_cells = config.windows_per_horizon * simulation.BLOCK_TRIALS
    expected = []
    for row_start in range(0, config.n_trials, 128):
        n_rows = min(128, config.n_trials - row_start)
        cells = []
        for b in range(-(-n_rows // 64)):
            block = row_start // 64 + b
            rows = min(64, config.n_trials - 64 * block)
            events = dense_event_cells(
                config.seed, basic_terms.p, config.windows_per_horizon, block, rows
            )
            cells += [b * block_cells + cell for cell in events]
        expected.append((n_rows, np.array(cells, dtype=np.int64).tobytes()))
    assert calls == expected


def assert_bitwise_equal(result, oracle) -> None:
    assert result.profits.tobytes() == oracle.profits.tobytes()
    # json.dumps writes each float's repr, which pins every bit (and -0.0).
    assert json.dumps(result.to_json_dict(), sort_keys=True) == json.dumps(
        oracle.to_json_dict(), sort_keys=True
    )


def sparse_cases():
    """(capability map, contracts, schedule, windows) covering every group kind."""
    normals = {
        "a": NormalDistribution(100.0, 10.0),
        "b": NormalDistribution(50.0, 25.0),
        "c": NormalDistribution(80.0, 5.0),
    }
    grouped = ["a"] * 10 + ["b"] * 8 + ["c"] * 6
    shuffled = [str(k) for k in np.random.default_rng(3).permutation(grouped)]
    mixed = {
        "clip": NormalDistribution(1.0, 2.0),
        "clip_far": NormalDistribution(3.0, 5.0),
        "clip_tail": NormalDistribution(10.0, 6.0),
        "point": NormalDistribution(40.0, 0.0),
        "point_frac": NormalDistribution(40.3, 0.0),  # a tail term off the integers
        "point_neg": NormalDistribution(-1.0, 0.0),
        "point_zero": NormalDistribution(0.0, 0.0),
        "flat": NormalDistribution(1e9, 1e-9),
        "const": EmpiricalDistribution(np.full(5, 7.5)),
        "single": EmpiricalDistribution(np.array([12.0])),
        "emp": sampled_normal(60.0, 15.0, 23, seed=4),
        "ties": EmpiricalDistribution(np.array([0.0, 0.0, 0.0, 4.0, 9.0, 9.0])),
    }
    mixed_contracts = {
        "clip": 0.5,
        "clip_far": 2.0,
        "clip_tail": 8.0,
        "point": 35.0,
        "point_frac": 36.1,
        "point_neg": 1.0,
        "point_zero": 0.0,
        "flat": 50.0,
        "const": 7.5,
        "single": 15.0,
        "emp": 55.0,
        "ties": 3.0,
    }
    mixed_schedule = [str(k) for k in np.random.default_rng(8).choice(sorted(mixed), 37)]
    contracts = {"a": 90.0, "b": 40.0, "c": 79.0}
    return {
        "interleaved": (normals, contracts, None, 24),
        "grouped": (normals, contracts, grouped, None),
        "shuffled": (normals, contracts, shuffled, None),
        "mixed": (mixed, mixed_contracts, mixed_schedule, None),
    }


class TestSparseChunkMatchesDense:
    """The sparse chunk against the dense oracle, bit for bit."""

    @pytest.mark.parametrize("case", ["interleaved", "grouped", "shuffled", "mixed"])
    @pytest.mark.parametrize("seed", [1, 3])
    def test_bitwise_equal_to_dense_chunk(self, case, seed, monkeypatch):
        # 64-trial chunks: 300 trials make four full chunks and a partial one.
        monkeypatch.setattr("drcontracts.simulation.CHUNK_TRIALS", 64)
        terms = ProgramTerms(pi_e=4.0, pi_r=0.01, pi_p=5.0, p=0.05)
        capability, contracts, schedule, windows = sparse_cases()[case]
        config = small_config(n_trials=300, windows_per_horizon=windows or 1, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClippedMassWarning)
            result = simulate_horizon(terms, capability, contracts, config, schedule)
            oracle = dense_simulate_horizon(
                terms, capability, contracts, config, schedule
            )
        assert_bitwise_equal(result, oracle)
        assert result.event_total > 0
        assert any(est.tail_count > 0 for est in result.cvar.values())

    def test_mixed_case_exercises_every_group_kind(self):
        terms = ProgramTerms(pi_e=4.0, pi_r=0.01, pi_p=5.0, p=0.05)
        capability, contracts, schedule, _ = sparse_cases()["mixed"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClippedMassWarning)
            result = simulate_horizon(
                terms, capability, contracts, small_config(n_trials=300), schedule
            )
        assert set(schedule) == set(capability)
        assert result.clip_count > 0
        counts = {label: est.tail_count for label, est in result.cvar.items()}
        assert counts["clip"] > 0  # its cutoff clips to zero, with the draws
        assert counts["clip_tail"] > 0
        for label in ("point", "point_frac", "point_neg", "point_zero", "const", "single"):
            # a single-point draw sits on its own cutoff: every draw is tail
            assert counts[label] == 300 * schedule.count(label)
        # "flat" rounds every draw onto its cutoff, but it is no point mass:
        # its tail is drawn at the rate F(q_hat) = 1/2, and is one value.
        assert 0 < counts["flat"] < 300 * schedule.count("flat")
        assert result.cvar["flat"].standard_error == 0.0

    def test_many_seeds_on_fitted_normals(self, basic_terms, monkeypatch):
        monkeypatch.setattr("drcontracts.simulation.CHUNK_TRIALS", 128)
        rng = np.random.default_rng(21)
        capability = {
            f"h{i:02d}": NormalDistribution(float(mu), float(sigma))
            for i, (mu, sigma) in enumerate(
                zip(rng.uniform(20.0, 150.0, 12), rng.uniform(0.0, 30.0, 12))
            )
        }
        capability["h00"] = NormalDistribution(0.0, 0.0)
        contracts = {k: 0.9 * max(d.mu, 0.0) for k, d in capability.items()}
        for seed in range(4):
            config = small_config(n_trials=400, windows_per_horizon=60, seed=seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ClippedMassWarning)
                result = simulate_horizon(basic_terms, capability, contracts, config)
                oracle = dense_simulate_horizon(
                    basic_terms, capability, contracts, config
                )
            assert_bitwise_equal(result, oracle)

    def test_normal_groups_share_one_transform_per_chunk(self, monkeypatch):
        """Every sigma > 0 normal cell of a chunk goes through one batched call
        for its events and one for its tail draws, and no group transforms
        its own cells; the result is the dense oracle's, whose transforms go
        cell by cell."""
        monkeypatch.setattr("drcontracts.simulation.CHUNK_TRIALS", 64)
        batched_calls = []
        batched = simulation.clipped_normal_transform

        def spy(mu, sigma, u):
            batched_calls.append(np.unique(sigma).size)
            return batched(mu, sigma, u)

        monkeypatch.setattr(simulation, "clipped_normal_transform", spy)
        per_group = []

        def spy(cls):
            transform = cls.transform_uniform

            def spied(self, u):
                per_group.append(self)
                return transform(self, u)

            return spied

        terms = ProgramTerms(pi_e=4.0, pi_r=0.01, pi_p=5.0, p=0.05)
        capability, contracts, schedule, _ = sparse_cases()["mixed"]
        config = small_config(n_trials=300)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClippedMassWarning)
            with monkeypatch.context() as m:
                for cls in (NormalDistribution, EmpiricalDistribution):
                    m.setattr(cls, "transform_uniform", spy(cls))
                result = simulate_horizon(terms, capability, contracts, config, schedule)
            oracle = dense_simulate_horizon(terms, capability, contracts, config, schedule)
        assert_bitwise_equal(result, oracle)
        assert len(batched_calls) == 2 * 5  # 300 trials in 64-trial chunks
        assert max(batched_calls) > 1  # several groups in one call
        assert per_group == []


class TestSparseDraws:
    """The draw scheme: tail draws bounded by the cutoff, exact rates 0 and 1,
    binomial counts, and shapes that fill no block or chunk."""

    def test_tail_draws_stay_at_or_below_the_cutoff(self):
        terms = ProgramTerms(pi_e=4.0, pi_r=0.01, pi_p=5.0, p=0.05, c_hat=0.5)
        # q_hat = 2 is an atom of four samples: k = 5 samples lie at or below
        # it, and tau = 5/6.
        atom = EmpiricalDistribution(np.array([1.0, 2.0, 2.0, 2.0, 2.0, 9.0]))
        clipped = NormalDistribution(-1.0, 10.0)  # median below 0: q_hat = 0
        normal = NormalDistribution(100.0, 10.0)
        laws = simulation._Laws(terms, [atom, clipped, normal])
        assert laws.cutoffs.tolist()[:2] == [2.0, 0.0]
        top = np.nextafter(1.0, 0.0)
        # As F^-1(U*tau) = sample int(U*tau*n), the largest U would round up
        # to index k, the sample above the atom.
        assert atom.transform_uniform(top * atom.cdf(2.0)) == 9.0
        u = np.concatenate(
            ([0.0, top], np.linspace(0.0, 1.0, 1001)[:-1], 1.0 - 2.0 ** -np.arange(1.0, 54.0))
        )
        for g in range(3):
            q, is_clipped = laws.tail(np.full(u.size, g), u)
            assert np.all(q <= laws.cutoffs[g]), g
            if g == 0:
                assert q[1] == 2.0 and set(q.tolist()) == {1.0, 2.0}
            if g == 1:  # the tail is the atom clipped onto zero
                assert np.all(q == 0.0) and np.all(is_clipped)
            if g == 2:  # only u = 0 reaches its clipped mass, Phi(-10)
                assert np.array_equal(is_clipped, u == 0.0)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_event_rate_zero_and_one_are_exact(self, p):
        terms = ProgramTerms(pi_e=4.0, pi_r=0.01, pi_p=5.0, p=p, allow_ill_posed=True)
        capability = {
            "a": EmpiricalDistribution(np.array([3.0, 3.0])),
            "b": NormalDistribution(50.0, 5.0),
        }
        contracts = {"a": 4.0, "b": 45.0}
        config = small_config(n_trials=150, windows_per_horizon=7)  # a b a b a b a
        result = simulate_horizon(terms, capability, contracts, config)
        assert_bitwise_equal(result, dense_simulate_horizon(terms, capability, contracts, config))
        assert result.event_total == p * 150 * 7
        if p == 0.0:
            base = float(np.sum(0.01 * np.array([4.0, 45.0] * 3 + [4.0])))
            assert result.profits.tolist() == [base] * 150
            assert result.shortfall_total == 0
        else:
            assert result.event_mean_per_trial == 7.0
            # "a" delivers 3 of its 4 kWh at every one of its 4 windows
            assert 150 * 4 <= result.shortfall_total < 150 * 7

    def test_tail_rate_one_takes_every_cell(self):
        terms = ProgramTerms(pi_e=4.0, pi_r=0.01, pi_p=5.0, p=0.05, c_hat=0.4)
        dist = EmpiricalDistribution(np.array([1.0, 2.0, 2.0]))  # q_hat = 2, the top
        config = small_config(n_trials=130, windows_per_horizon=5)
        result = simulate_horizon(terms, dist, 1.5, config)
        assert_bitwise_equal(result, dense_simulate_horizon(terms, dist, 1.5, config))
        assert result.cvar["all"].tail_count == 130 * 5
        assert result.cvar["all"].standard_error > 0.0

    def test_counts_match_binomial_means(self):
        terms = ProgramTerms(pi_e=4.0, pi_r=0.01, pi_p=5.0, p=0.05)
        capability = {
            "clip": NormalDistribution(1.0, 10.0),
            "emp": sampled_normal(60.0, 15.0, 23, seed=4),
            "normal": NormalDistribution(60.0, 15.0),
        }
        contracts = {"clip": 0.5, "emp": 55.0, "normal": 50.0}
        seeds, n_trials, windows = range(60), 200, 30  # 10 windows per group
        counts = {"events": []} | {label: [] for label in capability}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClippedMassWarning)
            for seed in seeds:
                config = small_config(n_trials=n_trials, windows_per_horizon=windows, seed=seed)
                result = simulate_horizon(terms, capability, contracts, config)
                counts["events"].append(result.event_total)
                for label, est in result.cvar.items():
                    counts[label].append(est.tail_count)
        rates = {"events": (terms.p, n_trials * windows)} | {
            label: (float(dist.cdf(tail_cutoff(terms, dist))), n_trials * 10)
            for label, dist in capability.items()
        }
        for label, (rate, cells) in rates.items():
            observed = np.array(counts[label], dtype=float)
            mean, var = rate * cells, rate * (1.0 - rate) * cells
            z = (observed.sum() - len(seeds) * mean) / np.sqrt(len(seeds) * var)
            assert abs(z) < 4.5, (label, z)
            assert 0.5 < observed.var(ddof=1) / var < 1.7, label

    def test_odd_shapes_are_bit_identical(self, monkeypatch):
        # 13 windows, not a multiple of 4; 203 trials, not a multiple of the block.
        terms = ProgramTerms(pi_e=4.0, pi_r=0.01, pi_p=5.0, p=0.05)
        capability, contracts, _, _ = sparse_cases()["mixed"]
        config = dict(n_trials=203, windows_per_horizon=13)
        results = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClippedMassWarning)
            for chunk in (64, 128, 1024):
                monkeypatch.setattr("drcontracts.simulation.CHUNK_TRIALS", chunk)
                results.append(
                    simulate_horizon(terms, capability, contracts, small_config(**config))
                )
            oracle = dense_simulate_horizon(terms, capability, contracts, small_config(**config))
        for result in results:
            assert_bitwise_equal(result, oracle)

    def test_chunk_must_hold_whole_blocks(self, basic_terms, monkeypatch):
        monkeypatch.setattr("drcontracts.simulation.CHUNK_TRIALS", 96)
        with pytest.raises(ValueError, match="multiple of BLOCK_TRIALS"):
            simulate_horizon(basic_terms, NormalDistribution(100.0, 10.0), 90.0, small_config())


class TestClippedMassWarning:
    """A clipped normal group warns once per call, however many chunks it spans."""

    @staticmethod
    def clipped_warnings(fn, *args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args)
        return result, [w for w in caught if w.category is ClippedMassWarning]

    def test_point_mass_below_zero_warns(self, basic_terms):
        config = small_config(n_trials=50)
        result, caught = self.clipped_warnings(
            simulate_horizon, basic_terms, NormalDistribution(-1.0, 0.0), 0.0, config
        )
        assert len(caught) == 1
        # every draw is clipped onto the cutoff, which clips to zero as well
        assert result.cvar["all"].tail_count == 50 * 24

    def test_warns_without_any_event(self, basic_terms):
        config = small_config(n_trials=1, windows_per_horizon=4)
        capability = {
            "x": NormalDistribution(1.0, 2.0),
            "y": NormalDistribution(50.0, 5.0),
        }
        result, caught = self.clipped_warnings(
            simulate_horizon, basic_terms, capability, {"x": 0.5, "y": 45.0}, config
        )
        assert result.event_total == 0
        assert len(caught) == 1
        assert "N(1, 2)" in str(caught[0].message)

    def test_warning_count_matches_dense_chunk(self, basic_terms, monkeypatch):
        monkeypatch.setattr("drcontracts.simulation.CHUNK_TRIALS", 64)
        capability = {
            "x": NormalDistribution(1.0, 2.0),
            "z": NormalDistribution(-1.0, 0.0),
            "y": NormalDistribution(50.0, 5.0),
        }
        contracts = {"x": 0.5, "y": 45.0, "z": 0.0}
        args = (basic_terms, capability, contracts, small_config(n_trials=200))
        _, sparse = self.clipped_warnings(simulate_horizon, *args)
        _, dense = self.clipped_warnings(dense_simulate_horizon, *args)
        assert len(sparse) == len(dense) == 2  # two clipped groups, once each
        assert sorted(str(w.message) for w in sparse) == sorted(
            str(w.message) for w in dense
        )


class TestPlanValidation:
    def test_single_distribution_takes_scalar_contract(self, basic_terms):
        dist = NormalDistribution(100.0, 10.0)
        with pytest.raises(ModelConsistencyError):
            simulate_horizon(basic_terms, dist, {"a": 90.0}, small_config())

    def test_single_distribution_rejects_schedule(self, basic_terms):
        dist = NormalDistribution(100.0, 10.0)
        with pytest.raises(ModelConsistencyError, match="schedule"):
            simulate_horizon(
                basic_terms, dist, 90.0, small_config(), schedule=["a"]
            )

    def test_empty_capability_map(self, basic_terms):
        with pytest.raises(ModelConsistencyError, match="empty"):
            simulate_horizon(basic_terms, {}, 90.0, small_config())

    def test_contract_bucket_key_mismatch(self, basic_terms):
        caps = {"a": NormalDistribution(100.0, 10.0)}
        with pytest.raises(ModelConsistencyError, match="mismatch"):
            simulate_horizon(basic_terms, caps, {"b": 90.0}, small_config())

    def test_schedule_with_unknown_bucket(self, basic_terms):
        caps = {"a": NormalDistribution(100.0, 10.0)}
        with pytest.raises(ModelConsistencyError, match="unknown"):
            simulate_horizon(
                basic_terms, caps, {"a": 90.0}, small_config(), schedule=["a", "b"]
            )

    def test_empty_schedule(self, basic_terms):
        caps = {"a": NormalDistribution(100.0, 10.0)}
        with pytest.raises(ModelConsistencyError, match="empty"):
            simulate_horizon(
                basic_terms, caps, {"a": 90.0}, small_config(), schedule=[]
            )

    def test_contract_above_cap_rejected(self):
        terms = ProgramTerms(pi_e=4.0, pi_r=0.01, pi_p=5.0, c_max=50.0)
        dist = NormalDistribution(100.0, 10.0)
        with pytest.raises(ValueError, match=r"\[0, 50\]"):
            simulate_horizon(terms, dist, 60.0, small_config())

    def test_negative_contract_rejected(self, basic_terms):
        dist = NormalDistribution(100.0, 10.0)
        with pytest.raises(ValueError):
            simulate_horizon(basic_terms, dist, -1.0, small_config())


class TestScheduleReplay:
    def test_schedule_length_sets_windows(self, basic_terms):
        caps = {
            "a": NormalDistribution(100.0, 10.0),
            "b": NormalDistribution(50.0, 5.0),
        }
        contracts = {"a": 90.0, "b": 45.0}
        schedule = ["a", "a", "b", "a", "b"]
        result = simulate_horizon(
            basic_terms, caps, contracts, small_config(), schedule=schedule
        )
        assert result.windows == 5
        assert set(result.cvar) == {"a", "b"}

    def test_round_robin_when_no_schedule(self, basic_terms):
        caps = {
            "a": NormalDistribution(100.0, 10.0),
            "b": NormalDistribution(50.0, 5.0),
        }
        result = simulate_horizon(
            basic_terms, caps, {"a": 90.0, "b": 45.0}, small_config()
        )
        assert result.windows == 24


class TestShortfallAccounting:
    """A point-mass capability makes the shortfall rule exactly checkable."""

    def test_no_shortfall_when_delivery_meets_contract(self, basic_terms):
        dist = EmpiricalDistribution(np.array([5.0, 5.0, 5.0]))
        result = simulate_horizon(
            basic_terms, dist, 5.0, small_config(n_trials=2000)
        )
        assert result.event_total > 0
        assert result.shortfall_total == 0

    def test_every_event_shorts_when_contract_exceeds_capability(self, basic_terms):
        dist = EmpiricalDistribution(np.array([5.0, 5.0, 5.0]))
        result = simulate_horizon(
            basic_terms, dist, 6.0, small_config(n_trials=2000)
        )
        assert result.event_total > 0
        assert result.shortfall_total == result.event_total

    def test_zero_contract_never_shorts(self):
        # A draw clipped onto zero delivers a contract of zero in full, so a
        # normal's clipped mass F(0) is no shortfall there.
        terms = ProgramTerms(pi_e=4.0, pi_r=0.01, pi_p=5.0, p=0.1)
        capability = {
            "clip": NormalDistribution(1.0, 10.0),
            "point_neg": NormalDistribution(-1.0, 0.0),
            "normal": NormalDistribution(100.0, 10.0),
            "zeros": EmpiricalDistribution(np.array([0.0, 0.0, 3.0])),
        }
        config = small_config(n_trials=2000)
        summary = analytic_summary(terms, capability, 0.0, config)
        assert summary.shortfall_probability == 0.0
        assert all(g.shortfall_probability == 0.0 for g in summary.groups.values())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClippedMassWarning)
            result = simulate_horizon(terms, capability, 0.0, config)
        assert result.event_total > 0 and result.clip_count > 0
        assert result.shortfall_total == 0


class TestEmpiricalCvar:
    """cvar over the empirical distribution of a set of draws."""

    def test_exact_toy_value(self):
        terms = ProgramTerms(pi_e=2.0, pi_r=0.2, pi_p=4.0, p=0.1, c_hat=0.95)
        draws = EmpiricalDistribution(np.arange(1.0, 101.0))  # tail = {1..5}
        # settlement 6q - 40 on the tail averages -22:
        # cvar = 0.2*10 + 0.1 * (-22) = -0.2
        assert cvar(terms, draws, 10.0) == pytest.approx(-0.2, abs=1e-12)

    def test_converges_to_analytic(self, basic_terms):
        dist = NormalDistribution(100.0, 10.0)
        rng = np.random.default_rng(3)
        draws = EmpiricalDistribution(rng.normal(100.0, 10.0, 400_000))
        estimate = cvar(basic_terms, draws, 90.0)
        analytic = cvar(basic_terms, dist, 90.0)
        assert estimate == pytest.approx(analytic, rel=2e-2)

    def test_negative_contract_rejected(self, basic_terms):
        with pytest.raises(ValueError):
            cvar(basic_terms, EmpiricalDistribution(np.arange(100.0)), -1.0)


class TestClipCounting:
    def test_negative_mass_counted_and_warned(self):
        terms = terms_for_psi(0.6, pi_e=0.2)
        dist = NormalDistribution(1.0, 2.0)  # ~30.9% of mass below zero
        with pytest.warns(ClippedMassWarning):
            result = simulate_horizon(
                terms, dist, 0.5, small_config(n_trials=2000)
            )
        assert result.clip_count > 0
        assert result.clip_fraction == pytest.approx(0.3085, abs=0.01)

    def test_no_clipping_for_comfortable_margin(self, basic_terms):
        dist = NormalDistribution(100.0, 5.0)
        result = simulate_horizon(basic_terms, dist, 90.0, small_config())
        assert result.clip_count == 0


class TestConvergence:
    def test_statistics_converge_to_analytic(self, basic_terms):
        dist = NormalDistribution(100.0, 10.0)
        decision = optimal_contract(basic_terms, dist)
        config = SimulationConfig(
            n_trials=20_000, windows_per_horizon=48, seed=5
        )
        result = simulate_horizon(basic_terms, dist, decision.c_star, config)
        summary = analytic_summary(basic_terms, dist, decision.c_star, config)
        rows = convergence_rows(result, summary)
        assert {r.quantity for r in rows} == {
            "mean_profit",
            "cvar[all]",
            "shortfall_frequency",
            "event_frequency",
        }
        for row in rows:
            assert row.standard_error is not None
            assert abs(row.z_score) < 4.5, row

    @pytest.mark.parametrize(
        "mu, sigma, contract", [(1.0, 10.0, 5.0), (10.0, 6.0, 8.0)]
    )
    def test_clipped_normal_cvar_converges(self, basic_terms, mu, sigma, contract):
        # Both put material mass below zero.  The cutoff quantile of N(1, 10)
        # lies below zero, so its tail is the one atom clipped onto zero: every
        # tail term is -pi_p*c, the standard error is 0 and the estimate must
        # be exact.  N(10, 6) holds that atom and a sliver above it.
        dist = NormalDistribution(mu, sigma)
        for seed in range(5):
            config = SimulationConfig(n_trials=2000, windows_per_horizon=48, seed=seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ClippedMassWarning)
                result = simulate_horizon(basic_terms, dist, contract, config)
            est = result.cvar["all"]
            assert est.tail_count > 0
            analytic = cvar(basic_terms, dist, contract)
            assert abs(est.value - analytic) <= 4.0 * est.standard_error, (seed, est)

    def test_group_without_tail_draws_reports_none(self, basic_terms):
        # One trial of one window: the draw lies above the cutoff.
        dist = NormalDistribution(100.0, 10.0)
        config = SimulationConfig(n_trials=1, windows_per_horizon=1, seed=0)
        result = simulate_horizon(basic_terms, dist, 90.0, config)
        assert result.cvar["all"] == CvarEstimate(None, None, 0)
        summary = analytic_summary(basic_terms, dist, 90.0, config)
        row = next(
            r for r in convergence_rows(result, summary) if r.quantity == "cvar[all]"
        )
        assert row.simulated is None and row.z_score is None

    def test_analytic_summary_totals(self, basic_terms):
        caps = {
            "a": NormalDistribution(100.0, 10.0),
            "b": NormalDistribution(50.0, 5.0),
        }
        contracts = {"a": 90.0, "b": 45.0}
        schedule = ["a"] * 16 + ["b"] * 8
        config = small_config()
        summary = analytic_summary(
            basic_terms, caps, contracts, config, schedule=schedule
        )
        expected_total = 16 * expected_profit(
            basic_terms, caps["a"], 90.0
        ) + 8 * expected_profit(basic_terms, caps["b"], 45.0)
        assert summary.total_expected_profit == pytest.approx(expected_total, rel=1e-12)
        assert summary.expected_events_per_trial == pytest.approx(24 * basic_terms.p)
        assert summary.groups["a"].windows == 16
        assert summary.groups["b"].windows == 8
        assert summary.groups["a"].cvar_value == pytest.approx(
            cvar(basic_terms, caps["a"], 90.0), rel=1e-12
        )


class TestResultOutputs:
    def test_json_payload_shape(self, basic_terms):
        dist = NormalDistribution(100.0, 10.0)
        result = simulate_horizon(basic_terms, dist, 90.0, small_config())
        payload = result.to_json_dict()
        assert payload["n_trials"] == 600
        assert payload["windows"] == 24
        assert payload["seed"] == 11
        assert payload["backend"] == "python"
        assert set(payload["cvar"]) == {"all"}
        assert payload["events"]["total"] == result.event_total
        assert payload["shortfalls"]["frequency_per_window"] == (
            result.shortfall_frequency
        )

    def test_profits_csv_format(self, basic_terms, tmp_path):
        dist = NormalDistribution(100.0, 10.0)
        result = simulate_horizon(
            basic_terms, dist, 90.0, small_config(n_trials=3)
        )
        path = tmp_path / "profits.csv"
        write_profits_csv(path, result)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,profit"
        assert len(lines) == 4
        assert lines[1].startswith("0,")
        assert float(lines[1].split(",")[1]) == pytest.approx(
            result.profits[0], rel=1e-8
        )
