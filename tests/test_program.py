"""Program terms validation and realized settlement cash flows."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from drcontracts import (
    DEFAULT_CVAR_LEVEL,
    DEFAULT_EVENT_PROBABILITY,
    IllPosedProgramError,
    ProgramTerms,
    realized_curtailment,
    realized_profit,
)


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


def test_json_round_trip(basic_terms):
    restored = ProgramTerms.from_json_dict(basic_terms.to_json_dict())
    assert restored == basic_terms


def test_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        ProgramTerms.from_json_dict(
            {"pi_e": 1.0, "pi_r": 0.01, "pi_p": 5.0, "bogus": 1}
        )


def test_json_rejects_boolean_rates():
    with pytest.raises(ValueError):
        ProgramTerms.from_json_dict({"pi_e": True, "pi_r": 0.01, "pi_p": 5.0})


def test_realized_curtailment_is_capped_delivery():
    assert realized_curtailment(5.0, 3.0) == 3.0
    assert realized_curtailment(5.0, 8.0) == 5.0


def test_realized_profit_no_event_pays_reservation_only():
    terms = ProgramTerms(pi_e=0.2, pi_r=1.0, pi_p=10.0, p=0.2)
    assert realized_profit(terms, 1.0, 0.0, event=False) == pytest.approx(1.0)


def test_realized_profit_event_full_delivery():
    # Full delivery: reservation plus energy value of the contracted amount.
    terms = ProgramTerms(pi_e=0.2, pi_r=1.0, pi_p=10.0, p=0.2)
    assert realized_profit(terms, 1.0, 2.0, event=True) == pytest.approx(1.2)


def test_realized_profit_event_shortfall_penalized():
    terms = ProgramTerms(pi_e=0.2, pi_r=1.0, pi_p=10.0, p=0.2)
    # q = 0.5 against C = 1: deliver 0.5, pay penalty on the missing 0.5.
    expected = 1.0 + 0.2 * 0.5 - 10.0 * 0.5
    assert realized_profit(terms, 1.0, 0.5, event=True) == pytest.approx(expected)


def test_realized_profit_respects_cap():
    terms = ProgramTerms(pi_e=0.2, pi_r=1.0, pi_p=10.0, p=0.2, c_max=2.0)
    with pytest.raises(ValueError):
        realized_profit(terms, 3.0, 1.0, event=True)


@given(
    q=st.floats(min_value=0.0, max_value=50.0),
    c=st.floats(min_value=0.0, max_value=20.0),
)
def test_event_profit_non_decreasing_in_capability(q, c):
    """More capability never hurts: the event payoff is monotone in q."""
    terms = ProgramTerms(pi_e=0.2, pi_r=1.0, pi_p=10.0, p=0.2)
    lower = realized_profit(terms, c, q, event=True)
    higher = realized_profit(terms, c, q + 1.0, event=True)
    assert higher >= lower - 1e-12
