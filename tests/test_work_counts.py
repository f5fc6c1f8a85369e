"""Work counts of the three benchmark configurations, with no timing: a
change that makes the solver sweep more, or solve more time levels, at
the same tol fails here before any benchmark runs."""
import numpy as np
import pytest

from monodd import build_grid, catalog_lookup, default_decomposition, run_dd, run_single_domain

from conftest import desk_logistic, kpp

TOL = 1e-8
MAX_SWEEPS = 200


@pytest.mark.parametrize("spec,nx,nt,single,sweeps,level_solves", [
    pytest.param(catalog_lookup("manufactured_1"), 128, 256, False, 9, 2304, id="memory_dd"),
    pytest.param(kpp(8.0, 0.5, 0.5), 256, 256, False, 11, 2616, id="kpp_dd"),
    pytest.param(desk_logistic(), 512, 64, True, 8, 491, id="cli_single"),
])
def test_sweeps_and_level_solves(spec, nx, nt, single, sweeps, level_solves):
    grid = build_grid(spec.domain, nx, nt)
    if single:
        sol, hist = run_single_domain(spec, grid, TOL, MAX_SWEEPS, abort_on_chain_violation=True)
    else:
        sol, hist = run_dd(
            spec, grid, default_decomposition(nx), TOL, MAX_SWEEPS, abort_on_chain_violation=True
        )
    assert sol.converged
    assert np.max(sol.u_upper - sol.u_lower) <= TOL
    assert sol.sweeps_used <= sweeps
    assert hist.level_solves <= level_solves
