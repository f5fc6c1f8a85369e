"""Work counts of the decomposed solver over a fixed set of problems, with
no timing: per case the sweeps, the level-solves per window, the
slab-sweeps (one sweep of one slab; each has a fixed cost besides its
level-solves), the slab count, the slab runs that
sweep (a slab taken up again after a stall counts once more), the slabs
that stopped at their certified start with no sweep (a stopped slab a
stall takes up again counts among both), the slabs that
started from their certified predicted bracket, the bracket_residuals
evaluations the starts made, the linearized marches that refined the
slabs' guesses (history.predictions) and the largest change of a
slab's last march, and whether the run converged, then the totals per
group.

The cases are
- the survey: Fisher-KPP with lambda in {2, 4, 8}, advection in
  {-0.5, 0, 0.5} and amplitude in {0, 0.5} on 16^2, 32^2, 64^2 and
  128x64, and manufactured_1, the desk logistic problem and linear_heat
  on 32x64 and 64x128, all on the default decomposition;
- 2-cell overlaps, where a stall test that fires too early shows;
- runs that stalled before slabs started from a predicted bracket,
  where the gap a slab carries in grows across it: from u0 = 0, KPP's
  unstable state, whose start u = 0 now certifies at once;
- runs from u0 = amp sin(pi x) near 0 that still stall;
- coarse-dt KPP runs whose every slab starts from the bracket, as no
  prediction certifies there, and which lean on the stabilizer's
  refresh after slab sweeps 1, 2, 4, ...;
- the benchmark's two decomposed configurations.
Every run is at tol 1e-8 unless the case says otherwise, with the chain
abort on.  Grids are nx x nt.  It takes a few seconds.

    python demos/work_survey.py
"""
import math

from monodd import (
    Decomposition,
    build_grid,
    catalog_lookup,
    default_decomposition,
    iteration,
    run_dd,
)

from memory_footprint import kpp

TOL = 1e-8
MAX_SWEEPS = 500


def desk_logistic():
    return catalog_lookup("logistic_memory", {"lam": 1.0, "kappa": 0.5, "sigma": 0.5})


def cases():
    """(group, label, spec, nx, nt, decomposition or None for the default, tol)."""
    for lam in (2.0, 4.0, 8.0):
        for b in (-0.5, 0.0, 0.5):
            for amp in (0.0, 0.5):
                label, spec = f"kpp({lam:g},{b:g},{amp:g})", kpp(lam, b, amp)
                for nx, nt in ((16, 16), (32, 32), (64, 64), (128, 64)):
                    yield "survey", label, spec, nx, nt, None, TOL
    for name, spec in (
        ("manufactured_1", catalog_lookup("manufactured_1")),
        ("desk logistic", desk_logistic()),
        ("linear_heat", catalog_lookup("linear_heat")),
    ):
        for nx, nt in ((32, 64), (64, 128)):
            yield "survey", name, spec, nx, nt, None, TOL
    yield "overlap", "kpp(8,0.5,0)", kpp(8.0, 0.5, 0.0), 64, 64, Decomposition(33, 31), TOL
    yield ("overlap", "manufactured_1", catalog_lookup("manufactured_1"), 128, 256,
           Decomposition(65, 63), TOL)
    yield "overlap", "desk logistic", desk_logistic(), 128, 64, Decomposition(65, 63), TOL
    yield "stall", "kpp(6,0,0)", kpp(6.0, 0.0, 0.0), 8, 12, Decomposition(3, 1), 1e-9
    yield "stall", "kpp(3,-0.5,0)", kpp(3.0, -0.5, 0.0), 8, 7, Decomposition(3, 1), TOL
    yield "stall", "kpp(2.2,0,0)", kpp(2.2, 0.0, 0.0), 8, 7, Decomposition(3, 1), TOL
    yield "stall", "kpp(8,0.5,0)", kpp(8.0, 0.5, 0.0), 32, 64, None, 1e-9
    for lam in (6.0, 8.0):
        yield "stall-amp", f"kpp({lam:g},0,1e-3)", kpp(lam, 0.0, 1e-3), 8, 12, Decomposition(3, 1), 1e-9
    yield ("stall-amp", "kpp(8,0.5,1e-4)", kpp(8.0, 0.5, 1e-4), 64, 64, Decomposition(33, 31),
           TOL)
    for lam, amp, nx, nt in ((2.0, 0.5, 16, 2), (4.0, 0.5, 16, 4), (8.0, 0.5, 32, 4),
                             (8.0, 0.2, 16, 8)):
        yield "bracket", f"kpp({lam:g},0,{amp:g})", kpp(lam, 0.0, amp), nx, nt, None, TOL
    yield "benchmark", "memory_dd", catalog_lookup("manufactured_1"), 128, 256, None, TOL
    yield "benchmark", "kpp_dd", kpp(8.0, 0.5, 0.5), 256, 256, None, TOL


def count_slab_runs():
    """Wrap the run's per-slab sweep and its stop test at a slab's start so
    that every time a slab is swept, and every slab that stops at its
    start, is counted; returns the two lists the counts go to."""
    runs, stopped = [], []
    sweep_slab, stops_at_start = iteration._sweep_slab, iteration._stops_at_start

    def counted(slab, *args):
        runs.append((slab.k0, slab.k1))
        return sweep_slab(slab, *args)

    def stops(slab, *args):
        stop = stops_at_start(slab, *args)
        if stop:
            stopped.append((slab.k0, slab.k1))
        return stop

    iteration._sweep_slab = counted
    iteration._stops_at_start = stops
    return runs, stopped


def main():
    runs, stopped = count_slab_runs()
    totals = {}
    print(f"{'group':9s} {'case':16s} {'grid':>8s} {'decomp':>8s} {'tol':>6s} "
          f"{'sweeps':>6s} {'levels':>6s} {'slab-sweeps':>11s} {'slabs':>5s} {'runs':>5s} "
          f"{'stopped':>7s} {'certified':>9s} {'evals':>5s} {'marches':>7s} {'last march':>10s}"
          f"  converged")
    for group, label, spec, nx, nt, decomp, tol in cases():
        runs.clear()
        stopped.clear()
        decomp = decomp or default_decomposition(nx)
        sol, hist = run_dd(spec, build_grid(spec.domain, nx, nt), decomp, tol, MAX_SWEEPS,
                           abort_on_chain_violation=True)
        slab_sweeps = sum(sweeps for *_, sweeps in hist.slab_sweeps)
        certified = sum(certified for *_, certified, _ in hist.slab_starts)
        row = (sol.sweeps_used, hist.level_solves, slab_sweeps, len(hist.slab_sweeps), len(runs),
               len(stopped), certified, sum(hist.start_evaluations),
               sum(marches for *_, marches, _ in hist.predictions))
        last = max((update for *_, update in hist.predictions if not math.isnan(update)),
                   default=math.nan)
        total = totals.setdefault(group, [0] * 11)
        for slot, value in enumerate(row + (int(sol.converged), 1)):
            total[slot] += value
        print(f"{group:9s} {label:16s} {f'{nx}x{nt}':>8s} "
              f"{f'{decomp.i1_hi},{decomp.i2_lo}':>8s} {tol:6.0e} "
              f"{row[0]:6d} {row[1]:6d} {row[2]:11d} {row[3]:5d} {row[4]:5d} {row[5]:7d} "
              f"{row[6]:9d} {row[7]:5d} {row[8]:7d} {last:10.2e}  {sol.converged}")
    print()
    for group, (sweeps, levels, slab_sweeps, slabs, slab_runs, stops, certified, evaluations,
                marches, converged, count) in totals.items():
        print(f"{group:9s} {count:3d} cases: {sweeps} sweeps, {levels} level-solves, "
              f"{slab_sweeps} slab-sweeps, {slabs} slabs, {slab_runs} slab runs, "
              f"{stops} stopped at their start, "
              f"{certified} certified starts, {evaluations} start evaluations, "
              f"{marches} predictor marches, {converged} converged")


if __name__ == "__main__":
    main()
