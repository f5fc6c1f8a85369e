"""Cost of a level-solve: microseconds per march step and per factored
step, for both windows of each benchmark configuration.

Each configuration's window operators are built as a run builds them,
on the levels of its first slab (iteration._slab_bounds: the slab rule,
from the stabilizer c over the initial bracket and, for two windows, the
overlap).  One march of two right-hand-side columns (the lower and upper
branch, as a sweep marches them) and one refactor for the same c are
timed REPEATS times each; the table shows the median divided by the
slab's steps.  The configurations are the
benchmark's: memory_dd (manufactured_1, 128x256, two windows), kpp_dd
(Fisher-KPP, 256x256, two windows) and cli_single (logistic_memory,
512x64, one window).

    python demos/level_cost.py
"""
import statistics
import time

import numpy as np

from monodd import (
    Subrange,
    build_grid,
    build_window_operator,
    catalog_lookup,
    compute_stabilizers,
    default_decomposition,
    init_state,
    iteration,
    march_window,
    refactor_window_operator,
)

from memory_footprint import kpp

REPEATS = 200
CONFIGS = (
    ("memory_dd", catalog_lookup("manufactured_1"), 128, 256, False),
    ("kpp_dd", kpp(8.0, 0.5, 0.5), 256, 256, False),
    ("cli_single", catalog_lookup("logistic_memory", {"lam": 1.0, "kappa": 0.5, "sigma": 0.5}),
     512, 64, True),
)


def median_us(call):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


def main():
    rng = np.random.default_rng(0)
    print("config       window       n  steps   march us/step   factor us/step")
    for name, spec, nx, nt, single in CONFIGS:
        grid = build_grid(spec.domain, nx, nt)
        state = init_state(spec, grid)
        c = compute_stabilizers(spec, grid, state.u11, state.u12).c_total
        if single:
            windows = (Subrange(0, nx),)
        else:
            decomp = default_decomposition(nx)
            windows = (Subrange(0, decomp.i1_hi), Subrange(decomp.i2_lo, nx))
        (_, k1), *_ = iteration._slab_bounds(grid, c, spec.coeffs, windows)
        slab = grid.levels(0, k1)
        for j, window in enumerate(windows):
            left = spec.bc_left if j == 0 else None
            right = spec.bc_right if j == len(windows) - 1 else None
            op = build_window_operator(slab, window, spec.coeffs, c[: k1 + 1], left, right)
            q = rng.uniform(0.0, 1.0, (2, k1 + 1, window.size - 2))
            initial = rng.uniform(0.0, 1.0, (2, window.size))
            pins = {
                side: None if bc is not None else rng.uniform(0.0, 1.0, (2, k1 + 1))
                for side, bc in (("left", left), ("right", right))
            }
            march = median_us(lambda: march_window(op, q, initial, **pins))
            factor = median_us(lambda: refactor_window_operator(op, c[: k1 + 1]))
            print(
                f"{name:12s} [{window.lo:3d},{window.hi:3d}] {window.size:5d} {k1:6d}"
                f"   {march / k1:13.2f}   {factor / k1:14.2f}"
            )


if __name__ == "__main__":
    main()
