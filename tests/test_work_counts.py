"""Work counts of the three benchmark configurations, of two KPP runs that
stalled while the stabilizer was clamped at 0, of one that stalls and of
one on a 2-cell overlap, with no timing: a change that makes the solver
sweep more, or solve more time levels, at the same tol fails here before
any benchmark runs."""
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


@pytest.mark.parametrize("spec,nx,nt,decomp,tol,sweeps,level_solves", [
    pytest.param(catalog_lookup("manufactured_1"), 128, 256, default_decomposition(128), TOL,
                 9, 2304, id="memory_dd"),
    pytest.param(kpp(8.0, 0.5, 0.5), 256, 256, default_decomposition(256), TOL, 7, 1564,
                 id="kpp_dd"),
    pytest.param(desk_logistic(), 512, 64, None, TOL, 5, 320, id="cli_single"),
    pytest.param(kpp(8.0, 0.5, 0.0), 64, 64, default_decomposition(64), TOL, 10, 632,
                 id="kpp_64x64"),
    pytest.param(kpp(2.2, 0.0, 0.0), 8, 7, Decomposition(i1_hi=3, i2_lo=1), TOL, 11, 73,
                 id="kpp_8x7"),
    pytest.param(kpp(6.0, 0.0, 0.0), 8, 12, Decomposition(i1_hi=3, i2_lo=1), 1e-9, 16, 168,
                 id="kpp_8x12_stall"),
    pytest.param(kpp(8.0, 0.5, 0.0), 64, 64, Decomposition(i1_hi=33, i2_lo=31), TOL, 35, 1892,
                 id="kpp_64x64_narrow_overlap"),
])
def test_sweeps_and_level_solves(spec, nx, nt, decomp, tol, sweeps, level_solves):
    grid = build_grid(spec.domain, nx, nt)
    if decomp is None:
        sol, hist = run_single_domain(spec, grid, tol, MAX_SWEEPS, abort_on_chain_violation=True)
    else:
        sol, hist = run_dd(spec, grid, decomp, tol, MAX_SWEEPS, abort_on_chain_violation=True)
    assert sol.converged
    assert np.max(sol.u_upper - sol.u_lower) <= tol
    assert sol.sweeps_used <= sweeps
    assert hist.level_solves <= level_solves
