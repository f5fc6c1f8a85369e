import dataclasses

import numpy as np
import pytest

from monodd import (
    BoundaryCondition,
    Bracket,
    Decomposition,
    IterationState,
    build_grid,
    catalog_lookup,
    check_monotone_chain,
    dd_sweep,
    init_state,
    run_dd,
    run_single_domain,
    sample_field,
)
from monodd import iteration
from monodd.discretization import MMatrixViolation, mmatrix_audit_count
from monodd.iteration import _u0_row
from monodd.volterra import compute_stabilizers

from conftest import desk_logistic, make_zero_problem


class TestDecomposition:
    def test_valid(self):
        d = Decomposition(i1_hi=10, i2_lo=6)
        d.check(16)

    def test_overlap_too_small(self):
        with pytest.raises(ValueError, match="overlap"):
            Decomposition(i1_hi=7, i2_lo=6)

    def test_out_of_bounds(self):
        with pytest.raises(ValueError, match="i1_hi"):
            Decomposition(i1_hi=16, i2_lo=6).check(16)


class TestInitState:
    def test_constant_bracket(self):
        spec = desk_logistic()
        grid = build_grid(spec.domain, 8, 4)
        state = init_state(spec, grid)
        np.testing.assert_array_equal(state.u11, 0.0)
        np.testing.assert_array_equal(state.u21, 0.0)
        np.testing.assert_array_equal(state.u12, 1.5)
        np.testing.assert_array_equal(state.u22, 1.5)
        assert state.sweep_index == 0

    def test_degenerate_bracket(self):
        spec = make_zero_problem()
        grid = build_grid(spec.domain, 8, 4)
        state = init_state(spec, grid)
        np.testing.assert_array_equal(state.u11, state.u12)

    def test_misordered_bracket(self):
        base = desk_logistic()
        spec = type(base)(
            domain=base.domain,
            coeffs=base.coeffs,
            reaction=base.reaction,
            kernel=base.kernel,
            bc_left=base.bc_left,
            bc_right=base.bc_right,
            u0=base.u0,
            bracket=Bracket(
                u_hat=lambda t, x: np.where(x > 0.9, 2.0, 0.0), u_tilde=lambda t, x: 1.5 + 0.0 * x
            ),
        )
        grid = build_grid(spec.domain, 8, 4)
        with pytest.raises(ValueError, match=r"node \(k="):
            init_state(spec, grid)


class TestDDSweep:
    def test_zero_problem_fixed(self):
        spec = make_zero_problem()
        grid = build_grid(spec.domain, 8, 4)
        state = init_state(spec, grid)
        z = np.zeros((5, 9))
        stab = compute_stabilizers(spec, grid, z, z)
        nxt = dd_sweep(state, spec, grid, Decomposition(i1_hi=5, i2_lo=3), stab)
        for name in ("u11", "u12", "u21", "u22"):
            np.testing.assert_array_equal(getattr(nxt, name), 0.0)
        assert nxt.sweep_index == 1

    def test_single_domain_solution_is_fixed_point(self):
        # With margin 0 the linear heat rhs vanishes, so the converged
        # single-domain field is an exact fixed point of one DD sweep.
        spec = catalog_lookup("linear_heat")
        grid = build_grid(spec.domain, 16, 8)
        sd, _ = run_single_domain(spec, grid, 1e-13, 50, c_margin=0.0)
        lo = sample_field(spec.bracket.u_hat, grid)
        hi = sample_field(spec.bracket.u_tilde, grid)
        stab = compute_stabilizers(spec, grid, lo, hi, margin=0.0)
        state = IterationState(u1=np.stack((sd.u, sd.u)), u2=np.stack((sd.u, sd.u)))
        nxt = dd_sweep(state, spec, grid, Decomposition(i1_hi=10, i2_lo=6), stab)
        for name in ("u11", "u12", "u21", "u22"):
            assert np.max(np.abs(getattr(nxt, name) - sd.u)) < 1e-12

    def test_first_sweep_stays_in_bracket(self):
        spec = desk_logistic()
        grid = build_grid(spec.domain, 64, 64)
        state = init_state(spec, grid)
        lo, hi = state.u11.copy(), state.u12.copy()
        stab = compute_stabilizers(spec, grid, lo, hi)
        nxt = dd_sweep(state, spec, grid, Decomposition(i1_hi=40, i2_lo=24), stab)
        assert np.all(nxt.u11 >= lo - 1e-12)
        assert np.all(nxt.u12 <= hi + 1e-12)

    def test_stacked_branches_do_not_leak(self):
        # Each branch's slot of a stacked sweep is bitwise what that branch
        # gives when both slots carry it, so the two columns never mix.
        spec = desk_logistic()
        grid = build_grid(spec.domain, 16, 16)
        state = init_state(spec, grid)
        stab = compute_stabilizers(spec, grid, state.u11, state.u12)
        decomp = Decomposition(i1_hi=10, i2_lo=6)
        first = dd_sweep(state, spec, grid, decomp, stab)
        both = dd_sweep(first, spec, grid, decomp, stab)
        for slot in (0, 1):
            alone = IterationState(
                u1=np.stack((first.u1[slot],) * 2), u2=np.stack((first.u2[slot],) * 2)
            )
            nxt = dd_sweep(alone, spec, grid, decomp, stab)
            for name in ("u1", "u2"):
                np.testing.assert_array_equal(getattr(both, name)[slot], getattr(nxt, name)[0])
                np.testing.assert_array_equal(getattr(both, name)[slot], getattr(nxt, name)[1])


class TestRunDD:
    def test_linear_heat_limit_identities(self):
        spec = catalog_lookup("linear_heat")
        grid = build_grid(spec.domain, 32, 32)
        decomp = Decomposition(i1_hi=20, i2_lo=12)
        sol, hist = run_dd(spec, grid, decomp, 1e-10, 100)
        assert sol.converged
        assert hist.gap_lower_upper[-1] <= 1e-10

    def test_trivial_tolerance_one_sweep(self):
        spec = desk_logistic()
        grid = build_grid(spec.domain, 16, 8)
        sol, hist = run_dd(spec, grid, Decomposition(i1_hi=10, i2_lo=6), 1e10, 50)
        assert sol.converged and sol.sweeps_used == 1

    def test_logistic_desk_converges(self):
        spec = desk_logistic()
        grid = build_grid(spec.domain, 32, 32)
        sol, hist = run_dd(spec, grid, Decomposition(i1_hi=20, i2_lo=12), 1e-8, 200)
        assert sol.converged
        gaps = np.array(hist.gap_lower_upper)
        assert np.all(np.diff(gaps) <= 1e-10)
        # lower/upper ordering at the stopping sweep holds up to the tolerance
        assert np.all(sol.u_lower <= sol.u + 1e-8)
        assert np.all(sol.u <= sol.u_upper + 1e-8)

    def test_chain_holds_every_sweep(self):
        spec = desk_logistic()
        grid = build_grid(spec.domain, 24, 24)
        sol, hist = run_dd(
            spec, grid, Decomposition(i1_hi=15, i2_lo=9), 1e-8, 200, keep_states=True
        )
        lo = sample_field(spec.bracket.u_hat, grid)
        hi = sample_field(spec.bracket.u_tilde, grid)
        for prev, nxt in zip(hist.states, hist.states[1:]):
            assert check_monotone_chain(prev, nxt, lo, hi, slack=1e-10) == []

    def test_mirror_symmetry_of_limit(self):
        # Reflecting the problem through x -> 1-x with the reflected
        # decomposition must reproduce the reflected limit (uniqueness).
        spec = desk_logistic()  # data symmetric under reflection
        grid = build_grid(spec.domain, 64, 32)
        tol = 1e-10
        sol_a, _ = run_dd(spec, grid, Decomposition(i1_hi=40, i2_lo=20), tol, 300)
        sol_b, _ = run_dd(spec, grid, Decomposition(i1_hi=44, i2_lo=24), tol, 300)
        assert np.max(np.abs(sol_a.u - sol_b.u[:, ::-1])) <= 10 * tol

    def test_all_rows_share_initial_data(self):
        spec = desk_logistic()
        grid = build_grid(spec.domain, 16, 8)
        state = init_state(spec, grid)
        stab = compute_stabilizers(spec, grid, state.u11, state.u12)
        nxt = dd_sweep(state, spec, grid, Decomposition(i1_hi=10, i2_lo=6), stab)
        u0 = _u0_row(spec, grid)
        for name in ("u11", "u12", "u21", "u22"):
            np.testing.assert_array_equal(getattr(nxt, name)[0], u0)


class TestOperatorsOncePerRun:
    def test_audit_runs_once_per_window_not_per_sweep(self):
        spec = desk_logistic()
        grid = build_grid(spec.domain, 16, 8)
        before = mmatrix_audit_count()
        sol, _ = run_dd(spec, grid, Decomposition(i1_hi=10, i2_lo=6), 1e-10, 50)
        assert sol.sweeps_used > 2
        assert mmatrix_audit_count() - before == 2 * grid.nt
        before = mmatrix_audit_count()
        run_single_domain(spec, grid, 1e-10, 50)
        assert mmatrix_audit_count() - before == grid.nt

    def test_negative_robin_row_fails_audit_before_first_sweep(self, monkeypatch):
        # alpha0 = 0, beta0 < 0 makes row 0's diagonal negative.
        spec = desk_logistic()
        bad = BoundaryCondition(alpha0=lambda t: 0.0, beta0=lambda t: -1.0, h=lambda t: 0.0)
        spec = dataclasses.replace(spec, bc_left=bad)
        grid = build_grid(spec.domain, 16, 8)

        def no_sweep(*args):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(iteration, "_sweep", no_sweep)
        with pytest.raises(MMatrixViolation, match="row 0: diagonal -1 not positive"):
            run_dd(spec, grid, Decomposition(i1_hi=10, i2_lo=6), 1e-8, 50)


class TestRunSingleDomain:
    def test_linear_heat_matches_exact(self):
        spec = catalog_lookup("linear_heat")
        grid = build_grid(spec.domain, 64, 512)
        sol, _ = run_single_domain(spec, grid, 1e-12, 50)
        exact = sample_field(spec.exact, grid)
        assert sol.converged
        assert np.max(np.abs(sol.u - exact)) < 5e-4

    def test_manufactured_bracketed(self):
        spec = catalog_lookup("manufactured_1")
        grid = build_grid(spec.domain, 24, 24)
        sol, _ = run_single_domain(spec, grid, 1e-9, 200)
        assert sol.converged
        assert np.all(sol.u >= -1e-9)
        assert np.all(sol.u <= 4.0 + 1e-9)

    def test_zero_problem_one_sweep(self):
        spec = make_zero_problem()
        grid = build_grid(spec.domain, 8, 4)
        sol, _ = run_single_domain(spec, grid, 1e-12, 10)
        assert sol.converged and sol.sweeps_used == 1
        np.testing.assert_array_equal(sol.u, 0.0)

    @pytest.mark.parametrize("name,params", [
        ("linear_heat", {}),
        ("logistic_memory", {"lam": 1.0, "kappa": 0.5, "sigma": 0.5}),
        ("manufactured_1", {}),
    ])
    def test_dd_agrees_with_single_domain(self, name, params):
        spec = catalog_lookup(name, params)
        grid = build_grid(spec.domain, 32, 32)
        tol = 1e-10
        sd, _ = run_single_domain(spec, grid, tol, 300)
        dd, _ = run_dd(spec, grid, Decomposition(i1_hi=20, i2_lo=12), tol, 300)
        assert sd.converged and dd.converged
        assert np.max(np.abs(dd.u - sd.u)) <= 10 * tol
