# cython: boundscheck=False, wraparound=False, cdivision=True, language_level=3
"""Compiled settlement kernel.

Fuses the event test, delivery min, penalty split and per-trial accumulation
into one pass over the (trials, windows) block, releasing the GIL.
"""

import numpy as np


def settle_trials(
    object u_event_in,
    object capability_in,
    object contracts_in,
    double pi_r,
    double pi_p,
    double pi_e,
    double p,
):
    """Settle a block of trials; capability is read only where u_event < p."""
    # Coercion is free for the C-contiguous float64 blocks the engine passes;
    # it keeps the two backends interchangeable on arbitrary array input.
    u_event_arr = np.ascontiguousarray(u_event_in, dtype=np.float64)
    capability_arr = np.ascontiguousarray(capability_in, dtype=np.float64)
    contracts_arr = np.ascontiguousarray(contracts_in, dtype=np.float64)
    if u_event_arr.ndim != 2 or capability_arr.shape != u_event_arr.shape:
        raise ValueError("u_event and capability must share a (trials, windows) shape")
    if contracts_arr.shape != (u_event_arr.shape[1],):
        raise ValueError("contracts must have one entry per window")

    cdef double[:, ::1] u_event = u_event_arr
    cdef double[:, ::1] capability = capability_arr
    cdef double[::1] contracts = contracts_arr
    cdef Py_ssize_t n_trials = u_event.shape[0]
    cdef Py_ssize_t n_windows = u_event.shape[1]

    profit_arr = np.empty(n_trials, dtype=np.float64)
    event_arr = np.zeros(n_trials, dtype=np.int64)
    shortfall_arr = np.zeros(n_trials, dtype=np.int64)
    cdef double[::1] profit = profit_arr
    cdef long long[::1] event_count = event_arr
    cdef long long[::1] shortfall_count = shortfall_arr

    cdef Py_ssize_t t, w
    cdef double acc, c, q, delivered, base
    cdef long long n_ev, n_sf

    base = 0.0
    for w in range(n_windows):
        base += pi_r * contracts[w]

    with nogil:
        for t in range(n_trials):
            acc = 0.0
            n_ev = 0
            n_sf = 0
            for w in range(n_windows):
                if u_event[t, w] < p:
                    n_ev += 1
                    c = contracts[w]
                    q = capability[t, w]
                    if q < c:
                        n_sf += 1
                        delivered = q
                    else:
                        delivered = c
                    acc += pi_e * delivered - pi_p * (c - delivered)
            profit[t] = base + acc
            event_count[t] = n_ev
            shortfall_count[t] = n_sf

    return profit_arr, event_arr, shortfall_arr
