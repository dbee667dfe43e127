"""Settlement kernel of the Monte Carlo engine.

`simulation.simulate_horizon` draws each chunk's event cells and their
capability; the kernel settles those cells.  The engine calls it as
``_kernels.settle_trials``, once per chunk, so that tracing code can wrap the
module attribute.
"""

from __future__ import annotations

import numpy as np


def settle_trials(
    cells: np.ndarray,
    capability: np.ndarray,
    contracts: np.ndarray,
    n_rows: int,
    pi_r: float,
    pi_p: float,
    pi_e: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Settle a block of n_rows trials against per-window contracts.

    cells: flat (row-major) indices of the block's event cells, in any order.
    capability: realized curtailment capability at those cells, kWh.
    contracts: (windows,) contracted sizes, kWh.

    Returns (profit per trial, event count per trial, shortfall count per trial).
    Each profit is the reservation revenue plus the row's event terms, which
    np.bincount adds one by one in the order of the cells.
    """
    if cells.ndim != 1 or capability.shape != cells.shape:
        raise ValueError("cells and capability must be 1-d arrays of one length")
    if contracts.ndim != 1:
        raise ValueError("contracts must have one entry per window")

    rows, cols = np.divmod(cells, contracts.size)
    c = contracts[cols]
    delivered = np.minimum(capability, c)
    event_terms = pi_e * delivered - pi_p * (c - delivered)
    profit = float(np.sum(pi_r * contracts)) + np.bincount(rows, event_terms, n_rows)
    event_count = np.bincount(rows, minlength=n_rows).astype(np.int64, copy=False)
    shortfall_count = np.bincount(rows[capability < c], minlength=n_rows).astype(
        np.int64, copy=False
    )
    return profit, event_count, shortfall_count
