"""Settlement kernel: the per-cell reference, hand-computed cases, shape checks."""

from __future__ import annotations

import numpy as np
import pytest

from drcontracts._kernels import settle_trials

from oracles import dense_settle

RATES = dict(pi_r=0.01, pi_p=5.0, pi_e=4.0)
P = 0.3


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


def shuffled_events(u_event, capability, seed: int):
    """The block's event cells in a random order, and the capability at them."""
    cells = np.flatnonzero(u_event < P)
    np.random.default_rng(seed).shuffle(cells)
    return cells, capability.reshape(-1)[cells]


def assert_same_bits(left, right) -> None:
    for a, b in zip(left, right):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


class TestSettlementContract:
    """The kernel settles the event cells it is given, in any order, and adds
    each row's terms in that order."""

    @pytest.mark.parametrize("seed", range(6))
    def test_python_kernel_matches_dense_formula(self, seed):
        u_event, capability, contracts = edge_block(97, 1 + 13 * seed, seed)
        n_rows = u_event.shape[0]
        for cells, q in (
            shuffled_events(u_event, capability, seed),
            (np.flatnonzero(u_event < P), capability[u_event < P]),  # row-major
        ):
            expected = dense_settle(cells, q, contracts, n_rows, **RATES)
            # The same cells, values and contracts as contiguous and strided arrays.
            wide_cells, wide_q = np.repeat(cells, 2), np.repeat(q, 2)
            strided_contracts = np.repeat(contracts, 2)[::2]
            for cc, qq in ((cells, q), (wide_cells[::2], wide_q[1::2])):
                for con in (contracts, strided_contracts):
                    assert_same_bits(settle_trials(cc, qq, con, n_rows, **RATES), expected)
        # Row 0 settles the reservation only; row 1 has an event in every window.
        assert expected[0][0] == float(np.sum(0.01 * contracts))
        assert expected[1][1] == contracts.size


class TestPythonKernel:
    def test_hand_computed_case(self):
        # one trial, three windows; windows 2 and 0 are the events
        cells = np.array([2, 0])
        capability = np.array([3.0, 10.0])
        contracts = np.array([5.0, 5.0, 5.0])
        profit, events, shortfalls = settle_trials(
            cells, capability, contracts, 1, pi_r=1.0, pi_p=4.0, pi_e=2.0
        )
        # reservation 3*5 = 15; window 0 delivers 5 -> +10;
        # window 2 delivers 3, shorts 2 -> 6 - 8 = -2
        assert profit.tolist() == [15.0 + 10.0 - 2.0]
        assert events.tolist() == [2]
        assert shortfalls.tolist() == [1]

    def test_no_events_leaves_reservation_only(self):
        cells = np.array([], dtype=np.intp)
        capability = np.array([])
        contracts = np.array([1.0, 2.0, 3.0])
        profit, events, shortfalls = settle_trials(
            cells, capability, contracts, 4, pi_r=0.5, pi_p=4.0, pi_e=2.0
        )
        assert profit.tolist() == [3.0] * 4
        assert events.tolist() == [0] * 4
        assert shortfalls.tolist() == [0] * 4

    def test_shortfall_is_strict(self):
        cells = np.array([0, 1])  # both windows are events
        capability = np.array([5.0, 4.999])
        contracts = np.array([5.0, 5.0])
        _, events, shortfalls = settle_trials(
            cells, capability, contracts, 1, pi_r=0.0, pi_p=1.0, pi_e=1.0
        )
        assert events.tolist() == [2]
        assert shortfalls.tolist() == [1]

    @pytest.mark.parametrize(
        "shapes",
        [
            ((4,), (5,), (4,)),  # capability length mismatch
            ((2, 2), (2, 2), (4,)),  # cells not 1-D
            ((3,), (3,), (4, 1)),  # contracts not 1-D
        ],
    )
    def test_shape_validation(self, shapes):
        (cells, cap, con) = (np.zeros(s) for s in shapes)
        with pytest.raises(ValueError):
            settle_trials(cells, cap, con, 1, **RATES)
