"""Work counts of the three benchmark configurations, and of two KPP runs
that stalled while the stabilizer was clamped at 0, with no timing: a
change that makes the solver sweep more, or solve more time levels, at
the same tol fails here before any benchmark runs."""
import numpy as np
import pytest

from monodd import (
    Decomposition,
    build_grid,
    catalog_lookup,
    default_decomposition,
    run_dd,
    run_single_domain,
)

from conftest import desk_logistic, kpp

TOL = 1e-8
MAX_SWEEPS = 200


@pytest.mark.parametrize("spec,nx,nt,decomp,sweeps,level_solves", [
    pytest.param(catalog_lookup("manufactured_1"), 128, 256, default_decomposition(128), 9, 2304,
                 id="memory_dd"),
    pytest.param(kpp(8.0, 0.5, 0.5), 256, 256, default_decomposition(256), 8, 1848, id="kpp_dd"),
    pytest.param(desk_logistic(), 512, 64, None, 5, 320, id="cli_single"),
    pytest.param(kpp(8.0, 0.5, 0.0), 64, 64, default_decomposition(64), 10, 640, id="kpp_64x64"),
    pytest.param(kpp(2.2, 0.0, 0.0), 8, 7, Decomposition(i1_hi=3, i2_lo=1), 11, 73, id="kpp_8x7"),
])
def test_sweeps_and_level_solves(spec, nx, nt, decomp, sweeps, level_solves):
    grid = build_grid(spec.domain, nx, nt)
    if decomp is None:
        sol, hist = run_single_domain(spec, grid, TOL, MAX_SWEEPS, abort_on_chain_violation=True)
    else:
        sol, hist = run_dd(spec, grid, decomp, TOL, MAX_SWEEPS, abort_on_chain_violation=True)
    assert sol.converged
    assert np.max(sol.u_upper - sol.u_lower) <= TOL
    assert sol.sweeps_used <= sweeps
    assert hist.level_solves <= level_solves
