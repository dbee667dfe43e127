#!/usr/bin/env python3
"""Benchmark the settlement kernel: compiled extension vs numpy fallback.

A diagnostic for one layer, not an end-to-end result: settlement is a small
share of ``simulate_horizon``, whose time goes mostly to drawing the uniforms
(the ``kernels.*`` and ``simulation.*`` metrics of ``perfbench/run.py
--trace 1`` place it in the whole run).  This script times both kernels on
identical inputs at the engine's event probability, 3/720, and prints a
comparison table; when the extension is unavailable it reports the fallback
only.

Usage:
    python benchmarks/bench_settlement.py [--trials N] [--windows W] [--repeats R]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from drcontracts._kernels import BACKEND
from drcontracts._kernels._settlement_py import settle_trials as settle_python

try:
    from drcontracts._kernels._settlement import settle_trials as settle_compiled
except ImportError:
    settle_compiled = None


def make_inputs(trials: int, windows: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    u_event = rng.random((trials, windows))
    capability = rng.normal(100.0, 10.0, size=(trials, windows))
    contracts = np.full(windows, 95.0)
    return u_event, capability, contracts


def time_kernel(kernel, inputs, repeats: int) -> tuple[float, tuple]:
    u_event, capability, contracts = inputs
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = kernel(u_event, capability, contracts, 0.01, 5.0, 4.0, 3.0 / 720.0)
        best = min(best, time.perf_counter() - start)
    return best, result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=20_000)
    parser.add_argument("--windows", type=int, default=720)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    inputs = make_inputs(args.trials, args.windows)
    cells = args.trials * args.windows
    print(f"settlement kernel benchmark: {args.trials} trials x {args.windows} windows")
    print(f"selected backend at import: {BACKEND}")
    print()
    print(f"{'kernel':<10} {'best time':>12} {'windows/s':>14}")

    t_python, r_python = time_kernel(settle_python, inputs, args.repeats)
    print(f"{'python':<10} {t_python:>11.4f}s {cells / t_python:>14.3g}")

    if settle_compiled is None:
        print("compiled   unavailable (extension not built)")
        return

    t_compiled, r_compiled = time_kernel(settle_compiled, inputs, args.repeats)
    print(f"{'compiled':<10} {t_compiled:>11.4f}s {cells / t_compiled:>14.3g}")
    print()
    print(f"speedup: {t_python / t_compiled:.2f}x")

    profit_match = np.allclose(r_python[0], r_compiled[0], rtol=1e-12, atol=1e-9)
    counts_match = np.array_equal(r_python[1], r_compiled[1]) and np.array_equal(
        r_python[2], r_compiled[2]
    )
    print(f"outputs agree: profits={profit_match}, counts={counts_match}")


if __name__ == "__main__":
    main()
