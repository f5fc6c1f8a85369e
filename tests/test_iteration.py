import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monodd import (
    BoundaryCondition,
    Bracket,
    Decomposition,
    EllipticCoefficients,
    IterationState,
    ProblemSpec,
    Reaction,
    SpaceTimeDomain,
    VolterraKernel,
    build_grid,
    catalog_lookup,
    check_bracket,
    check_monotone_chain,
    dd_sweep,
    init_state,
    run_dd,
    run_single_domain,
    sample_field,
)
from monodd import iteration
from monodd.discretization import MMatrixViolation
from monodd.iteration import _u0_row
from monodd.verify import sweep_metrics
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
    def test_audit_runs_once_per_window_not_per_sweep(self, monkeypatch):
        # Step matrices are audited where they are factored: when a window's
        # operator is built (one call to a per window) and each time the
        # stabilizer is refreshed after sweeps 1, 2, 4, ... that another
        # sweep follows (one refactor per window).  Each audits nt matrices.
        def refreshes(sweeps):
            return sum(1 for n in (1, 2, 4, 8, 16, 32) if n < sweeps)

        builds, refactors = [], []
        refactor = iteration.refactor_window_operator

        def counted_refactor(op, c_field):
            refactors.append(op.window)
            return refactor(op, c_field)

        monkeypatch.setattr(iteration, "refactor_window_operator", counted_refactor)
        spec = desk_logistic()
        a = spec.coeffs.a
        coeffs = dataclasses.replace(spec.coeffs, a=lambda t, x: builds.append(t) or a(t, x))
        spec = dataclasses.replace(spec, coeffs=coeffs)
        grid = build_grid(spec.domain, 16, 8)

        sol, _ = run_dd(spec, grid, Decomposition(i1_hi=10, i2_lo=6), 1e-10, 50)
        assert refreshes(sol.sweeps_used) < sol.sweeps_used - 2
        assert len(builds) == 2 and len(refactors) == 2 * refreshes(sol.sweeps_used)
        builds.clear()
        refactors.clear()
        sol, _ = run_single_domain(spec, grid, 1e-10, 50)
        assert len(builds) == 1 and len(refactors) == refreshes(sol.sweeps_used)

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


def kpp(lam, b, amp):
    """Memory-free Fisher-KPP problem with advection, variable diffusion, a
    Robin left end and a Dirichlet right end; [0, 1] brackets it."""
    return ProblemSpec(
        domain=SpaceTimeDomain(0.0, 1.0, 1.0),
        coeffs=EllipticCoefficients(a=lambda t, x: 0.05 + 0.05 * x, b=lambda t, x: b + 0.0 * x),
        reaction=Reaction(
            f=lambda t, x, u: lam * u * (1.0 - u),
            f_u=lambda t, x, u: lam * (1.0 - 2.0 * u),
        ),
        kernel=VolterraKernel.zero(),
        bc_left=BoundaryCondition(alpha0=lambda t: 1.0, beta0=lambda t: 1.0, h=lambda t: 0.0),
        bc_right=BoundaryCondition(alpha0=lambda t: 0.0, beta0=lambda t: 1.0, h=lambda t: 0.0),
        u0=lambda x: amp * np.sin(np.pi * x),
        bracket=Bracket(u_hat=lambda t, x: 0.0 * x, u_tilde=lambda t, x: 1.0 + 0.0 * x),
    )


@st.composite
def small_problems(draw):
    """A KPP or logistic-memory problem with a random lambda on a small grid,
    with a random two-window decomposition.  dt (lam + kappa) <= 1/2: at
    dt (lam + kappa) >= 1 backward Euler can have a second solution, the
    two branches converge to different ones, and close to 1 the iteration
    with the frozen stabilizer takes hundreds of sweeps."""
    lam = draw(st.floats(0.5, 12.0))
    if draw(st.booleans()):
        kappa = 0.0
        spec = kpp(lam, draw(st.floats(-1.0, 1.0)), draw(st.floats(0.0, 1.0)))
    else:
        kappa = draw(st.floats(0.0, 2.0))
        params = {"lam": lam, "kappa": kappa, "sigma": draw(st.floats(0.0, 1.5))}
        spec = catalog_lookup("logistic_memory", params)
    nx = draw(st.integers(8, 24))
    least = int(2.0 * (lam + kappa)) + 1
    nt = draw(st.integers(least, least + 12))
    i2_lo = draw(st.integers(1, nx - 3))
    i1_hi = draw(st.integers(i2_lo + 2, nx - 1))
    return spec, build_grid(spec.domain, nx, nt), Decomposition(i1_hi=i1_hi, i2_lo=i2_lo)


class TestRefreshedStabilizer:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(small_problems())
    def test_chain_holds_and_limit_is_the_frozen_one(self, case):
        # The stabilizer refreshed on the shrinking envelope keeps every
        # chain link on every sweep and converges to the limit of the
        # iteration whose stabilizer stays frozen at the initial bracket.
        spec, grid, decomp = case
        tol = 1e-9
        for kind, candidate in (("sub", spec.bracket.u_hat), ("super", spec.bracket.u_tilde)):
            assert check_bracket(spec, grid, candidate, kind).passed
        sol, hist = run_dd(spec, grid, decomp, tol, 500, keep_states=True)
        assert sol.converged
        lo, hi = hist.states[0].u11, hist.states[0].u12
        for prev, nxt in zip(hist.states, hist.states[1:]):
            assert check_monotone_chain(prev, nxt, lo, hi, slack=1e-10) == []

        stab = compute_stabilizers(spec, grid, lo, hi)
        state = hist.states[0]
        for _ in range(500):
            nxt = dd_sweep(state, spec, grid, decomp, stab)
            gap, upd, _ = sweep_metrics(state, nxt, lo, hi)
            state = nxt
            if gap <= tol and upd <= tol:
                break
        else:
            pytest.fail("frozen-stabilizer iteration did not converge")
        frozen = 0.5 * (state.u21 + state.u22)
        assert np.max(np.abs(sol.u - frozen)) <= tol + 2e-10

    def test_c_max_records_the_stabilizer_of_each_sweep(self):
        # Refreshed after sweeps 1, 2, 4, ...: c_max can only fall, and only
        # at the sweeps that follow a refresh.
        spec = desk_logistic()
        grid = build_grid(spec.domain, 32, 32)
        sol, hist = run_dd(spec, grid, Decomposition(i1_hi=20, i2_lo=12), 1e-10, 200)
        init = init_state(spec, grid)
        stab = compute_stabilizers(spec, grid, init.u11, init.u12)
        c_max = hist.c_max
        assert len(c_max) == sol.sweeps_used
        assert c_max[0] == np.max(stab.c_total)
        assert c_max[-1] < c_max[0]
        for n in range(1, len(c_max)):
            if n & (n - 1):  # no refresh between sweeps n and n + 1
                assert c_max[n] == c_max[n - 1]
            else:
                assert c_max[n] <= c_max[n - 1]

    def test_constant_bound_is_not_resampled(self):
        spec = desk_logistic()
        bounded = Reaction(f=spec.reaction.f, f_u=spec.reaction.f_u, c_bar_bound=2.0)
        spec = dataclasses.replace(spec, reaction=bounded)
        grid = build_grid(spec.domain, 16, 8)
        sol, hist = run_dd(spec, grid, Decomposition(i1_hi=10, i2_lo=6), 1e-9, 200)
        assert sol.converged and sol.sweeps_used > 4
        assert hist.c_max == [2.0 + 1e-6] * sol.sweeps_used
