"""Program terms: defaults, validation, the JSON block, and the settlement rule
that the kernel applies to them."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drcontracts import (
    DEFAULT_CVAR_LEVEL,
    DEFAULT_EVENT_PROBABILITY,
    IllPosedProgramError,
    ProgramTerms,
)
from drcontracts._kernels import settle_trials


def test_defaults():
    terms = ProgramTerms(pi_e=4.0, pi_r=0.01, pi_p=5.0)
    assert terms.p == DEFAULT_EVENT_PROBABILITY == 3.0 / 720.0
    assert terms.c_hat == DEFAULT_CVAR_LEVEL == 0.95
    assert terms.alpha == 0.0
    assert terms.c_max is None
    assert terms.contract_cap == math.inf
    assert terms.tail_mass == pytest.approx(0.05)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"pi_e": -1.0, "pi_r": 0.1, "pi_p": 5.0},
        {"pi_e": 1.0, "pi_r": -0.1, "pi_p": 5.0},
        {"pi_e": 1.0, "pi_r": 0.1, "pi_p": math.nan},
        {"pi_e": 1.0, "pi_r": 0.01, "pi_p": 5.0, "p": 1.5},
        {"pi_e": 1.0, "pi_r": 0.01, "pi_p": 5.0, "p": -0.1},
        {"pi_e": 1.0, "pi_r": 0.01, "pi_p": 5.0, "alpha": -0.5},
        {"pi_e": 1.0, "pi_r": 0.01, "pi_p": 5.0, "c_hat": 0.0},
        {"pi_e": 1.0, "pi_r": 0.01, "pi_p": 5.0, "c_hat": 1.0},
        {"pi_e": 1.0, "pi_r": 0.01, "pi_p": 5.0, "c_max": -3.0},
        {"pi_e": True, "pi_r": 0.01, "pi_p": 5.0},
        {"pi_e": 1.0, "pi_r": 0.01, "pi_p": 5.0, "c_max": False},
        {"pi_e": 1.0, "pi_r": 0.01, "pi_p": 5.0, "alpha": "0.5"},
    ],
)
def test_invalid_terms_rejected(kwargs):
    with pytest.raises(ValueError):
        ProgramTerms(**kwargs)


def test_ill_posed_margin_rejected_by_default():
    # pi_r >= p·pi_p means holding a contract with no asset is profitable.
    with pytest.raises(IllPosedProgramError):
        ProgramTerms(pi_e=1.0, pi_r=1.0, pi_p=5.0, p=0.1)


def test_ill_posed_margin_allowed_when_requested():
    terms = ProgramTerms(pi_e=1.0, pi_r=1.0, pi_p=5.0, p=0.1, allow_ill_posed=True)
    assert terms.no_asset_margin == pytest.approx(0.5)


def test_with_alpha_preserves_everything_else(basic_terms):
    swept = basic_terms.with_alpha(0.7)
    assert swept.alpha == 0.7
    assert swept.pi_e == basic_terms.pi_e
    assert swept.pi_r == basic_terms.pi_r
    assert swept.c_hat == basic_terms.c_hat


def test_json_round_trip():
    block = {
        "pi_e": 4.0,
        "pi_r": 0.01,
        "pi_p": 5.0,
        "p": 0.25,
        "alpha": 0.5,
        "c_hat": 0.9,
        "c_max": 150.0,
    }
    assert ProgramTerms.from_json_dict(block) == ProgramTerms(
        pi_e=4.0, pi_r=0.01, pi_p=5.0, p=0.25, alpha=0.5, c_hat=0.9, c_max=150.0
    )
    del block["c_max"]
    assert ProgramTerms.from_json_dict(block).c_max is None


def test_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        ProgramTerms.from_json_dict(
            {"pi_e": 1.0, "pi_r": 0.01, "pi_p": 5.0, "bogus": 1}
        )


def test_json_rejects_boolean_rates():
    with pytest.raises(ValueError):
        ProgramTerms.from_json_dict({"pi_e": True, "pi_r": 0.01, "pi_p": 5.0})


@settings(deadline=None)
@given(
    events=st.lists(
        st.tuples(st.integers(0, 23), st.floats(0.0, 50.0)),
        min_size=1,
        max_size=24,
        unique_by=lambda cell: cell[0],
    ),
    contracts=st.lists(st.floats(0.0, 20.0), min_size=8, max_size=8),
    rates=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 12.0), st.floats(0.0, 6.0)),
    pick=st.integers(0, 23),
    bump=st.floats(0.0, 50.0, exclude_min=True),
)
def test_event_profit_non_decreasing_in_capability(events, contracts, rates, pick, bump):
    """More capability never hurts: raising one event cell's capability never
    lowers its trial's profit, and leaves every other trial as it was."""
    pi_r, pi_p, pi_e = rates
    cells = np.array([cell for cell, _ in events])
    capability = np.array([q for _, q in events])
    contracts = np.array(contracts)
    k = pick % cells.size
    raised = capability.copy()
    raised[k] += bump
    before, after = (
        settle_trials(cells, q, contracts, 3, pi_r=pi_r, pi_p=pi_p, pi_e=pi_e)
        for q in (capability, raised)
    )
    row = cells[k] // contracts.size
    others = np.arange(3) != row
    assert after[0][row] >= before[0][row]
    assert after[0][others].tobytes() == before[0][others].tobytes()
    assert after[1].tolist() == before[1].tolist()
    assert after[2][row] <= before[2][row]
