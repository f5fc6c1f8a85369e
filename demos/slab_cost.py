"""Fixed cost of a slab-sweep against the cost of a level-solve.

The solve time of a decomposed run is modelled as

    t = a * (slab-sweeps) + b * (level-solves),

a slab-sweep being one sweep of one slab (with its share of the slab's
operator build and stabilizer refreshes) and a level-solve one time level
solved per window.  More slabs mean fewer sweeps per slab and so fewer
level-solves, but more slab-sweeps; a/b is the number of level-solves a
slab-sweep has to save to pay for itself.

Both benchmark decompositions, memory_dd (manufactured_1, 128x256) and
kpp_dd (Fisher-KPP, 256x256), are solved with their slab count forced to
each of COUNTS, by replacing iteration._slab_bounds with an equal tiling
in this script only.  The counts run interleaved for ROUNDS rounds; a and
b are the least-squares fit to the median solve time of each count.  The
function calls per slab-sweep are fitted the same way from one profiled
run per count: Python functions and builtins as the profiler sees them,
numpy ufuncs and LAPACK calls not included.

    python demos/slab_cost.py
"""
import cProfile
import pstats
import statistics
import time

import numpy as np

from monodd import build_grid, catalog_lookup, default_decomposition, iteration, run_dd

from memory_footprint import kpp

COUNTS = (16, 32, 64)
ROUNDS = 21
TOL = 1e-8
MAX_SWEEPS = 200
CONFIGS = (
    ("memory_dd", catalog_lookup("manufactured_1"), 128, 256),
    ("kpp_dd", kpp(8.0, 0.5, 0.5), 256, 256),
)


def force_slabs(m):
    """Make every run tile its strip into m slabs of equal length (+-1)."""

    def tiles(grid, *_):
        ks = [(j * grid.nt) // m for j in range(m + 1)]
        return list(zip(ks, ks[1:]))

    iteration._slab_bounds = tiles


def solve(spec, grid, decomp):
    sol, hist = run_dd(spec, grid, decomp, TOL, MAX_SWEEPS, abort_on_chain_violation=True)
    assert sol.converged
    return sum(sweeps for *_, sweeps in hist.slab_sweeps), hist.level_solves


def fit(work, values):
    """Least-squares (a, b) of values ~ a * slab_sweeps + b * level_solves."""
    (a, b), *_ = np.linalg.lstsq(np.array(work, dtype=float), np.array(values), rcond=None)
    return a, b


def main():
    slab_bounds = iteration._slab_bounds
    print(f"{'config':10s} {'slabs':>5s} {'slab-sweeps':>11s} {'levels':>6s} {'median ms':>9s}")
    try:
        for name, spec, nx, nt in CONFIGS:
            grid = build_grid(spec.domain, nx, nt)
            decomp = default_decomposition(nx)
            work, calls, times = [], [], {m: [] for m in COUNTS}
            for m in COUNTS:
                force_slabs(m)
                solve(spec, grid, decomp)  # warm-up
                profile = cProfile.Profile()
                profile.enable()
                work.append(solve(spec, grid, decomp))
                profile.disable()
                calls.append(sum(entry[1] for entry in pstats.Stats(profile).stats.values()))
            for r in range(ROUNDS):
                for m in COUNTS[r % len(COUNTS):] + COUNTS[: r % len(COUNTS)]:
                    force_slabs(m)
                    start = time.perf_counter()
                    solve(spec, grid, decomp)
                    times[m].append(time.perf_counter() - start)
            medians = [statistics.median(times[m]) for m in COUNTS]
            for m, (sweeps, levels), t in zip(COUNTS, work, medians):
                print(f"{name:10s} {m:5d} {sweeps:11d} {levels:6d} {1e3 * t:9.1f}")
            a, b = fit(work, medians)
            per_sweep, per_level = fit(work, calls)
            print(f"{name:10s} a = {1e3 * a:.3f} ms per slab-sweep, b = {1e6 * b:.1f} us per "
                  f"level-solve, a/b = {a / b:.1f}; {per_sweep:.0f} calls per slab-sweep, "
                  f"{per_level:.1f} per level-solve\n")
    finally:
        iteration._slab_bounds = slab_bounds


if __name__ == "__main__":
    main()
