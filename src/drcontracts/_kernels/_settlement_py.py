"""Pure-numpy settlement kernel, the fallback for the compiled extension."""

from __future__ import annotations

import numpy as np


def settle_trials(
    u_event: np.ndarray,
    capability: np.ndarray,
    contracts: np.ndarray,
    pi_r: float,
    pi_p: float,
    pi_e: float,
    p: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Settle a block of trials against per-window contracts.

    u_event: (trials, windows) event uniforms; a window is an event iff u < p.
    capability: (trials, windows) realized curtailment capability, kWh.  It is
        read only where u_event < p, so other cells may hold anything.
    contracts: (windows,) contracted sizes, kWh.

    Returns (profit per trial, event count per trial, shortfall count per trial).
    The event terms are scattered into a dense zero block before the row sums,
    so each profit adds the same values in the same positions as a sum over
    every window with 0 at the non-events.
    """
    u_event = np.asarray(u_event, dtype=float)
    capability = np.asarray(capability, dtype=float)
    contracts = np.asarray(contracts, dtype=float)
    if u_event.ndim != 2 or capability.shape != u_event.shape:
        raise ValueError("u_event and capability must share a (trials, windows) shape")
    if contracts.shape != (u_event.shape[1],):
        raise ValueError("contracts must have one entry per window")

    n_trials, n_windows = u_event.shape
    cells = np.flatnonzero(u_event < p)
    rows, cols = np.divmod(cells, n_windows)
    c = contracts[cols]
    q = capability.reshape(-1)[cells]
    delivered = np.minimum(q, c)
    event_terms = np.zeros((n_trials, n_windows))
    event_terms.reshape(-1)[cells] = pi_e * delivered - pi_p * (c - delivered)
    base = float(np.sum(pi_r * contracts))
    profit = base + event_terms.sum(axis=1)
    event_count = np.bincount(rows, minlength=n_trials).astype(np.int64, copy=False)
    shortfall_count = np.bincount(rows[q < c], minlength=n_trials).astype(
        np.int64, copy=False
    )
    return profit, event_count, shortfall_count
