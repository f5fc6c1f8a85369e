"""Work counts of the three benchmark configurations, of KPP runs from
u0 = 0 (whose predicted start u = 0 certifies at once: the first slab
sweeps once, and every later one stops at its start with no sweep), of
three near KPP's unstable state whose gap grows across each slab (two
of them stall), of two on a 2-cell overlap, of one whose slabs the
overlap sets, of two whose data depend on t and of two coarse-dt KPP
runs whose every slab starts from the bracket (they take 27/82 and
47/178 sweeps/level-solves where such a slab never refreshes its
stabilizer), and of one KPP run with no linearized march, with no
timing: a change that makes the solver sweep more, solve more time
levels or make more start residual evaluations (history.start_evaluations,
most of the predictor's cost) at the same tol fails here before any
benchmark runs."""
import numpy as np
import pytest

from monodd import (
    Decomposition,
    build_grid,
    catalog_lookup,
    default_decomposition,
    iteration,
    run_dd,
    run_single_domain,
)

from conftest import desk_logistic, kpp, kpp_a_of_t, kpp_h_of_t

TOL = 1e-8
MAX_SWEEPS = 200


@pytest.mark.parametrize("spec,nx,nt,decomp,tol,sweeps,level_solves,evaluations", [
    pytest.param(catalog_lookup("manufactured_1"), 128, 256, default_decomposition(128), TOL,
                 1, 16, 32, id="memory_dd"),
    pytest.param(kpp(8.0, 0.5, 0.5), 256, 256, default_decomposition(256), TOL, 2, 226, 18,
                 id="kpp_dd"),
    pytest.param(desk_logistic(), 512, 64, None, TOL, 3, 106, 6, id="cli_single"),
    pytest.param(kpp(8.0, 0.5, 0.0), 64, 64, default_decomposition(64), TOL, 1, 7, 18,
                 id="kpp_64x64"),
    pytest.param(kpp(8.0, -0.5, 0.0), 32, 32, default_decomposition(32), TOL, 1, 3, 18,
                 id="kpp(8,-0.5,0)_32x32"),
    pytest.param(kpp(8.0, 0.0, 0.0), 32, 32, default_decomposition(32), TOL, 1, 3, 18,
                 id="kpp(8,0,0)_32x32"),
    pytest.param(kpp(8.0, 0.0, 0.0), 64, 64, default_decomposition(64), TOL, 1, 7, 18,
                 id="kpp(8,0,0)_64x64"),
    pytest.param(kpp(8.0, 0.5, 0.0), 32, 32, default_decomposition(32), TOL, 1, 3, 18,
                 id="kpp(8,0.5,0)_32x32"),
    pytest.param(kpp(2.2, 0.0, 0.0), 8, 7, Decomposition(i1_hi=3, i2_lo=1), TOL, 1, 2, 6,
                 id="kpp_8x7"),
    pytest.param(kpp(6.0, 0.0, 0.0), 8, 12, Decomposition(i1_hi=3, i2_lo=1), 1e-9, 1, 1, 14,
                 id="kpp_8x12"),
    pytest.param(kpp(6.0, 0.0, 1e-3), 8, 12, Decomposition(i1_hi=3, i2_lo=1), 1e-9, 5, 42, 14,
                 id="kpp_8x12_stall"),
    pytest.param(kpp(8.0, 0.0, 1e-3), 8, 12, Decomposition(i1_hi=3, i2_lo=1), 1e-9, 23, 120, 18,
                 id="kpp(8,0,1e-3)_8x12_stall"),
    pytest.param(kpp(8.0, 0.5, 0.0), 64, 64, Decomposition(i1_hi=33, i2_lo=31), TOL, 1, 7, 18,
                 id="kpp_64x64_narrow_overlap"),
    pytest.param(kpp(8.0, 0.5, 1e-4), 64, 64, Decomposition(i1_hi=33, i2_lo=31), TOL, 10, 101, 18,
                 id="kpp_64x64_narrow_overlap_stall"),
    pytest.param(desk_logistic(), 64, 128, default_decomposition(64), TOL, 4, 176, 16,
                 id="logistic_64x128"),
    pytest.param(desk_logistic(), 128, 64, Decomposition(i1_hi=65, i2_lo=63), TOL, 94, 3168, 8,
                 id="logistic_128x64_narrow_overlap"),
    pytest.param(kpp_a_of_t(), 128, 128, default_decomposition(128), TOL, 2, 142, 18,
                 id="kpp_a(t)_128x128"),
    pytest.param(kpp_h_of_t(), 128, 128, default_decomposition(128), TOL, 2, 142, 18,
                 id="kpp_h(t)_128x128"),
    pytest.param(kpp(4.0, 0.0, 0.5), 16, 4, default_decomposition(16), TOL, 9, 33, 4,
                 id="kpp(4,0,0.5)_16x4_bracket"),
    pytest.param(kpp(8.0, 0.0, 0.2), 16, 8, default_decomposition(16), TOL, 10, 60, 8,
                 id="kpp(8,0,0.2)_16x8_bracket"),
])
def test_sweeps_and_level_solves(spec, nx, nt, decomp, tol, sweeps, level_solves, evaluations):
    grid = build_grid(spec.domain, nx, nt)
    if decomp is None:
        sol, hist = run_single_domain(spec, grid, tol, MAX_SWEEPS, abort_on_chain_violation=True)
    else:
        sol, hist = run_dd(spec, grid, decomp, tol, MAX_SWEEPS, abort_on_chain_violation=True)
    assert sol.converged
    assert np.max(sol.u_upper - sol.u_lower) <= tol
    assert sol.sweeps_used <= sweeps
    assert hist.level_solves <= level_solves
    assert sum(hist.start_evaluations) <= evaluations


def test_no_march_keeps_the_guess_end_rows(monkeypatch):
    # With no linearized march the carried guess is certified as it is,
    # so its end values, set to keep the boundary rows, carry the start.
    # Without them this case takes 17 sweeps and 200 level-solves.
    monkeypatch.setattr(iteration, "PREDICTOR_MARCHES", 0)
    spec = kpp(8.0, 0.5, 0.5)
    grid = build_grid(spec.domain, 32, 32)
    sol, hist = run_dd(spec, grid, default_decomposition(32), TOL, MAX_SWEEPS,
                       abort_on_chain_violation=True)
    assert sol.converged
    assert all(marches == 0 for _, _, marches, _ in hist.predictions)
    assert sol.sweeps_used <= 15
    assert hist.level_solves <= 194
