"""Watch the two-sided iteration squeeze a logistic problem with memory.

The solver maintains four fields: a lower and an upper branch on each of
two overlapping subintervals.  Every sweep the lower fields rise, the
upper fields fall, and the ordering between them never breaks.  The run
goes through the time strip in slabs, each swept until it closes.  This
script runs the desk-scale configuration and prints the bracket gap per
sweep (the largest over the slabs at that sweep), with the largest
stabilizer c those sweeps used (refreshed on each slab's shrinking
envelope after its sweeps 1, 2, 4, ...), the sweeps each slab took, and
then verifies the full ordering chain between consecutive sweeps.
"""
import numpy as np

from monodd import (
    Decomposition,
    build_grid,
    catalog_lookup,
    check_monotone_chain,
    run_dd,
    sample_field,
)


def main():
    spec = catalog_lookup("logistic_memory", {"lam": 1.0, "kappa": 0.5, "sigma": 0.5})
    grid = build_grid(spec.domain, 64, 64)
    decomp = Decomposition(i1_hi=40, i2_lo=24)

    sol, hist = run_dd(spec, grid, decomp, 1e-8, 200, keep_states=True)

    print("sweep  gap(upper-lower)  max update   max c")
    rows = zip(hist.gap_lower_upper, hist.max_update, hist.c_max)
    for n, (gap, upd, c) in enumerate(rows, 1):
        print(f"{n:5d}  {gap:16.3e}  {upd:10.3e}  {c:6.4f}")
    print(f"converged: {sol.converged} in {sol.sweeps_used} sweeps")
    for k0, k1, sweeps in hist.slab_sweeps:
        print(f"  slab t in [{grid.ts[k0]:.3f}, {grid.ts[k1]:.3f}] (levels {k0}..{k1}): "
              f"{sweeps} sweeps")
    print(f"level-solves per window: {hist.level_solves}")

    lo = sample_field(spec.bracket.u_hat, grid)
    hi = sample_field(spec.bracket.u_tilde, grid)
    worst = 0.0
    for prev, nxt in zip(hist.states, hist.states[1:]):
        violations = check_monotone_chain(prev, nxt, lo, hi)
        assert violations == []
        worst = max(worst, max(abs(v[3]) for v in violations) if violations else 0.0)
    print(f"monotone chain clean across all {len(hist.states) - 1} sweep pairs")

    mid = sol.u[grid.nt // 2]
    print(f"solution at t={grid.ts[grid.nt // 2]:.2f}: "
          f"min {mid.min():.4f}, max {mid.max():.4f}")


if __name__ == "__main__":
    main()
