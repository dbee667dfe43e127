"""Settlement kernel backends: equivalence, shape checks, and selection."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from drcontracts._kernels import (
    BACKEND,
    settle_trials,
    settle_trials_python,
)

from oracles import dense_settle

RATES = dict(pi_r=0.01, pi_p=5.0, pi_e=4.0, p=0.3)


def random_block(trials: int, windows: int, seed: int):
    rng = np.random.default_rng(seed)
    u_event = rng.random((trials, windows))
    capability = rng.gamma(4.0, 25.0, (trials, windows))
    contracts = rng.uniform(20.0, 180.0, windows)
    return u_event, capability, contracts


def edge_block(trials: int, windows: int, seed: int):
    """A random block whose row 0 has no event and row 1 has only events."""
    u_event, capability, contracts = random_block(trials, windows, seed)
    u_event[0] = 0.99
    u_event[1] = 0.0
    return u_event, capability, contracts


def assert_same_bits(left, right) -> None:
    for a, b in zip(left, right):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


class TestSettlementContract:
    """Capability is read only where u_event < p."""

    @pytest.mark.parametrize("seed", range(6))
    def test_python_kernel_matches_dense_formula(self, seed):
        u_event, capability, contracts = edge_block(97, 1 + 13 * seed, seed)
        assert_same_bits(
            settle_trials_python(u_event, capability, contracts, **RATES),
            dense_settle(u_event, capability, contracts, **RATES),
        )

    @pytest.mark.parametrize(
        "kernel",
        [
            settle_trials_python,
            pytest.param(
                settle_trials,
                marks=pytest.mark.skipif(
                    settle_trials is settle_trials_python,
                    reason="compiled settlement extension not available",
                ),
            ),
        ],
        ids=["python", "compiled"],
    )
    def test_non_event_capability_is_never_read(self, kernel):
        u_event, capability, contracts = edge_block(64, 29, 4)
        poisoned = np.where(u_event < RATES["p"], capability, np.nan)
        assert_same_bits(
            kernel(u_event, poisoned, contracts, **RATES),
            kernel(u_event, capability, contracts, **RATES),
        )


class TestPythonKernel:
    def test_hand_computed_case(self):
        # one trial, three windows; p = 0.5 marks windows 0 and 2 as events
        u_event = np.array([[0.1, 0.9, 0.2]])
        capability = np.array([[10.0, 10.0, 3.0]])
        contracts = np.array([5.0, 5.0, 5.0])
        profit, events, shortfalls = settle_trials_python(
            u_event, capability, contracts, pi_r=1.0, pi_p=4.0, pi_e=2.0, p=0.5
        )
        # reservation 3*5 = 15; window 0 delivers 5 -> +10;
        # window 2 delivers 3, shorts 2 -> 6 - 8 = -2
        assert profit.tolist() == [15.0 + 10.0 - 2.0]
        assert events.tolist() == [2]
        assert shortfalls.tolist() == [1]

    def test_no_events_leaves_reservation_only(self):
        u_event = np.full((4, 3), 0.99)
        capability = np.zeros((4, 3))
        contracts = np.array([1.0, 2.0, 3.0])
        profit, events, shortfalls = settle_trials_python(
            u_event, capability, contracts, pi_r=0.5, pi_p=4.0, pi_e=2.0, p=0.01
        )
        assert profit.tolist() == [3.0] * 4
        assert events.tolist() == [0] * 4
        assert shortfalls.tolist() == [0] * 4

    def test_shortfall_is_strict(self):
        u_event = np.zeros((1, 2))  # both windows are events
        capability = np.array([[5.0, 4.999]])
        contracts = np.array([5.0, 5.0])
        _, events, shortfalls = settle_trials_python(
            u_event, capability, contracts, pi_r=0.0, pi_p=1.0, pi_e=1.0, p=0.5
        )
        assert events.tolist() == [2]
        assert shortfalls.tolist() == [1]

    @pytest.mark.parametrize(
        "shapes",
        [
            ((3, 4), (3, 5), (4,)),  # capability shape mismatch
            ((3, 4), (3, 4), (3,)),  # contracts length mismatch
            ((12,), (12,), (12,)),  # not 2-D
        ],
    )
    def test_shape_validation(self, shapes):
        (eu, cap, con) = (np.zeros(s) for s in shapes)
        with pytest.raises(ValueError):
            settle_trials_python(eu, cap, con, **RATES)


@pytest.mark.skipif(
    settle_trials is settle_trials_python,
    reason="compiled settlement extension not available",
)
class TestCompiledKernel:
    def test_matches_python_on_random_blocks(self):
        for seed in range(5):
            u_event, capability, contracts = random_block(257, 31, seed)
            py = settle_trials_python(u_event, capability, contracts, **RATES)
            cy = settle_trials(u_event, capability, contracts, **RATES)
            assert np.array_equal(py[1], cy[1])
            assert np.array_equal(py[2], cy[2])
            np.testing.assert_allclose(py[0], cy[0], rtol=1e-12, atol=1e-9)

    def test_shape_validation_matches(self):
        with pytest.raises(ValueError):
            settle_trials(np.zeros((3, 4)), np.zeros((3, 5)), np.zeros(4), **RATES)

    def test_handles_noncontiguous_views(self):
        u_event, capability, contracts = random_block(64, 16, 9)
        view = np.asfortranarray(u_event)
        py = settle_trials_python(u_event, capability, contracts, **RATES)
        cy = settle_trials(view, capability, contracts, **RATES)
        np.testing.assert_allclose(py[0], cy[0], rtol=1e-12, atol=1e-9)


class TestBackendSelection:
    def test_backend_label_is_consistent(self):
        if settle_trials is settle_trials_python:
            assert BACKEND == "python"
        else:
            assert BACKEND == "compiled"

    def test_env_var_forces_python_fallback(self):
        env = dict(os.environ, DRCONTRACTS_PURE_PYTHON="1")
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from drcontracts._kernels import BACKEND; print(BACKEND)",
            ],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert out.stdout.strip() == "python"

    def test_package_reexports_backend(self):
        import drcontracts

        assert drcontracts.KERNEL_BACKEND == BACKEND
