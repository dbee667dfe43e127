"""Program terms of an incentive-based demand response enrollment.

The program pays a reservation rate on the contracted curtailment size,
rewards delivered curtailment during events at the retail rate, and
penalizes the undelivered remainder.  ``_kernels.settle_trials`` applies
that settlement rule to simulated windows.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, fields, replace

from .errors import IllPosedProgramError
from .formatting import is_number, read_json_block

# Three hour-long events in a 720-hour month.
DEFAULT_EVENT_PROBABILITY = 3.0 / 720.0
DEFAULT_CVAR_LEVEL = 0.95


@dataclass(frozen=True)
class ProgramTerms:
    """Economic parameters of one program enrollment.

    pi_e: retail energy rate credited per delivered kWh during an event ($/kWh)
    pi_r: reservation rate paid per contracted kWh every window ($/kWh)
    pi_p: penalty rate charged per undelivered kWh during an event ($/kWh)
    p: probability that any given window is an event window
    alpha: risk-aversion weight on the CVaR term of the objective
    c_hat: CVaR confidence level (the tail has mass 1 - c_hat)
    c_max: program cap on the contract size; None means uncapped

    By default construction rejects terms with pi_r - p*pi_p >= 0: such a
    program pays the reservation rate forever on capacity that is never at
    risk, so the contract grows without bound.  Pass allow_ill_posed=True
    for exploratory use.
    """

    pi_e: float
    pi_r: float
    pi_p: float
    p: float = DEFAULT_EVENT_PROBABILITY
    alpha: float = 0.0
    c_hat: float = DEFAULT_CVAR_LEVEL
    c_max: float | None = None
    allow_ill_posed: InitVar[bool] = False

    def __post_init__(self, allow_ill_posed: bool) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (is_number(value) or (f.name == "c_max" and value is None)):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
        for name in ("pi_e", "pi_r", "pi_p"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not (math.isfinite(self.p) and 0.0 <= self.p <= 1.0):
            raise ValueError(f"p must lie in [0, 1], got {self.p!r}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be >= 0, got {self.alpha!r}")
        if not (math.isfinite(self.c_hat) and 0.0 < self.c_hat < 1.0):
            raise ValueError(f"c_hat must lie in (0, 1), got {self.c_hat!r}")
        if self.c_max is not None:
            if not (math.isfinite(self.c_max) and self.c_max >= 0.0):
                raise ValueError(f"c_max must be finite and >= 0, got {self.c_max!r}")
        if not allow_ill_posed and self.no_asset_margin >= 0.0:
            raise IllPosedProgramError(
                f"pi_r - p*pi_p = {self.no_asset_margin:g} >= 0: reservation revenue "
                "dominates expected penalty; pass allow_ill_posed=True to override"
            )

    @property
    def no_asset_margin(self) -> float:
        """Expected per-window profit rate of contracting with no asset behind it."""
        return self.pi_r - self.p * self.pi_p

    @property
    def contract_cap(self) -> float:
        """Upper bound on the contract size (+inf when uncapped)."""
        return math.inf if self.c_max is None else self.c_max

    @property
    def tail_mass(self) -> float:
        return 1.0 - self.c_hat

    def with_alpha(self, alpha: float) -> ProgramTerms:
        """Copy of these terms with a different risk-aversion weight."""
        return replace(self, alpha=alpha, allow_ill_posed=True)

    @classmethod
    def from_json_dict(cls, obj: dict) -> ProgramTerms:
        return read_json_block(cls, "terms", obj)

