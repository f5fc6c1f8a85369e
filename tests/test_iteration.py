import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monodd import (
    BoundaryCondition,
    Bracket,
    Decomposition,
    IterationState,
    Reaction,
    VolterraKernel,
    build_grid,
    catalog_lookup,
    check_bracket,
    check_monotone_chain,
    default_decomposition,
    init_state,
    run_dd,
    run_single_domain,
    sample_field,
)
from monodd import iteration, volterra
from monodd.discretization import MMatrixViolation, Subrange, m_matrix_check
from monodd.iteration import _u0_row
from monodd.verify import sweep_metrics
from monodd.volterra import Past, compute_stabilizers, eval_F1_field

from conftest import desk_logistic, kpp, make_zero_problem
from reference import dd_sweep


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


def record_builds(monkeypatch):
    """(window, k0, k1) of every window operator the run builds, in order."""
    builds = []
    build = iteration.build_window_operator

    def counted(grid, window, coeffs, c_field, left, right, k0=0):
        builds.append((window, k0, k0 + grid.nt))
        return build(grid, window, coeffs, c_field, left, right, k0)

    monkeypatch.setattr(iteration, "build_window_operator", counted)
    return builds


def record_refactors(monkeypatch):
    """(window, k0, k1) of every refactor the run makes after a build."""
    refactors = []
    refactor = iteration.refactor_window_operator

    def counted(op, c_field):
        refactors.append((op.window, op.k0, op.k0 + op.d.shape[0]))
        return refactor(op, c_field)

    monkeypatch.setattr(iteration, "refactor_window_operator", counted)
    return refactors


def record_slab_runs(monkeypatch):
    """(k0, k1) of every slab the run sweeps, once per time it takes it up."""
    runs = []
    sweep_slab = iteration._sweep_slab

    def recorded(slab, *args):
        runs.append((slab.k0, slab.k1))
        return sweep_slab(slab, *args)

    monkeypatch.setattr(iteration, "_sweep_slab", recorded)
    return runs


class TestOperatorsPerSlab:
    def test_built_per_slab_run_and_refactored_when_c_changes(self, monkeypatch):
        # Step matrices are audited where they are factored: when a slab
        # starts sweeping, its window operators are built (one build per
        # window, of exactly the slab's steps k0+1..k1), and each refresh
        # that changes the slab's stabilizer refactors them.  A slab
        # refreshes after its sweeps 1, 2, 4, ... that another sweep
        # follows, each refresh put off by one sweep when the slab's last
        # two gaps predict that the next sweep reaches tol (gap^2 <= tol *
        # previous).  Desk logistic's f grows where u < 1/2, so its c falls
        # below 0 there and every refresh lowers it further: each refactors.
        tol = 1e-9
        gaps, changed = [], []
        metrics, refresh = iteration.sweep_metrics, iteration.refresh_stabilizers

        def recorded(prev, nxt, lo, hi):
            out = metrics(prev, nxt, lo, hi)
            gaps.append(out[0])
            return out

        def compared(spec, grid, stab, *args, **kwargs):
            fresh = refresh(spec, grid, stab, *args, **kwargs)
            changed.append(not np.array_equal(fresh.c_total, stab.c_total))
            return fresh

        def refreshed_after(slab_gaps):
            after, late = [], False
            for n in range(1, len(slab_gaps)):
                if late or n & (n - 1) == 0:
                    late = not late and n > 1 and slab_gaps[n - 1] ** 2 <= tol * slab_gaps[n - 2]
                    if not late:
                        after.append(n)
            return after

        def per_slab(hist):
            sweeps = [s for *_, s in hist.slab_sweeps]
            assert sum(sweeps) == len(gaps)  # no slab stalls and resumes here
            starts = np.cumsum([0] + sweeps)
            return [refreshed_after(gaps[a:b]) for a, b in zip(starts, starts[1:])]

        def expected_refactors(hist, windows):
            scheduled = [
                (k0, k1)
                for (k0, k1, _), after in zip(hist.slab_sweeps, per_slab(hist))
                for _ in after
            ]
            assert len(scheduled) == len(changed)
            return [
                (window, k0, k1)
                for (k0, k1), change in zip(scheduled, changed)
                if change
                for window in windows
            ]

        builds, refactors = record_builds(monkeypatch), record_refactors(monkeypatch)
        runs = record_slab_runs(monkeypatch)
        monkeypatch.setattr(iteration, "sweep_metrics", recorded)
        monkeypatch.setattr(iteration, "refresh_stabilizers", compared)
        spec = desk_logistic()
        grid = build_grid(spec.domain, 16, 8)

        windows = (Subrange(0, 10), Subrange(6, 16))
        sol, hist = run_dd(spec, grid, Decomposition(i1_hi=10, i2_lo=6), tol, 50)
        assert len(hist.slab_sweeps) > 1
        assert any(len(after) < sweeps - 2
                   for after, (*_, sweeps) in zip(per_slab(hist), hist.slab_sweeps))
        assert runs == [(k0, k1) for k0, k1, _ in hist.slab_sweeps]
        assert builds == [(window, k0, k1) for k0, k1 in runs for window in windows]
        assert refactors == expected_refactors(hist, windows)
        assert changed and all(changed)
        for recorded_list in (builds, refactors, gaps, changed, runs):
            recorded_list.clear()
        sol, hist = run_single_domain(spec, grid, tol, 50)
        windows = (Subrange(0, 16),)
        assert builds == [(window, k0, k1) for k0, k1, _ in hist.slab_sweeps for window in windows]
        assert refactors == expected_refactors(hist, windows)
        # Some refresh was put off: fewer than one after each sweep 1, 2, 4,
        # ... that another sweep of the slab follows.
        due = sum(n < sweeps for *_, sweeps in hist.slab_sweeps for n in (1, 2, 4, 8, 16, 32))
        assert len(changed) < due

    def test_a_resumed_slab_is_built_again(self, monkeypatch):
        # A stalling KPP run sends the run back to earlier slabs: every
        # time a slab is taken up, its operators are built from its current
        # stabilizer, and dropped when it stops.
        builds, runs = record_builds(monkeypatch), record_slab_runs(monkeypatch)
        spec = kpp(6.0, 0.0, 0.0)
        grid = build_grid(spec.domain, 8, 12)
        sol, hist = run_dd(spec, grid, Decomposition(i1_hi=3, i2_lo=1), 1e-9, 500)
        assert sol.converged
        assert len(runs) > len(hist.slab_sweeps)
        assert sorted(set(runs)) == [(k0, k1) for k0, k1, _ in hist.slab_sweeps]
        windows = (Subrange(0, 3), Subrange(1, 8))
        assert builds == [(window, k0, k1) for k0, k1 in runs for window in windows]

    def test_a_refresh_that_keeps_c_refactors_nothing(self, monkeypatch):
        # A constant c_bar_bound is never resampled, so no refresh changes
        # c: after the builds nothing is refactored.  On the desk logistic
        # problem c falls below 0 where u < 1/2 and keeps falling as the
        # envelope closes, so every refresh resamples and refactors.  Each
        # slab sweeps 5 times and refreshes after sweeps 1 and 2; the
        # refresh due after sweep 4 is put off, as sweep 5 finishes it.
        refactors = record_refactors(monkeypatch)
        resamples = []
        sample = volterra._sampled_c_under

        def counted(*args):
            resamples.append(args[1].ts[0])
            return sample(*args)

        monkeypatch.setattr(volterra, "_sampled_c_under", counted)
        spec = desk_logistic()
        bounded = Reaction(f=spec.reaction.f, f_u=spec.reaction.f_u, c_bar_bound=2.0)
        grid = build_grid(spec.domain, 16, 8)
        sol, hist = run_dd(
            dataclasses.replace(spec, reaction=bounded), grid, Decomposition(i1_hi=10, i2_lo=6),
            1e-9, 200,
        )
        assert sol.converged and sol.sweeps_used > 4
        assert refactors == [] and resamples == []

        grid = build_grid(spec.domain, 64, 16)
        sol, hist = run_single_domain(spec, grid, 1e-8, 200)
        assert sol.converged and [sweeps for *_, sweeps in hist.slab_sweeps] == [5, 5, 5]
        window = Subrange(0, 64)
        assert refactors == [(window, k0, k1) for k0, k1, _ in hist.slab_sweeps for _ in (1, 2)]
        # The strip's initial c, then two refreshes of each slab.
        starts = [grid.ts[k0] for k0, _, _ in hist.slab_sweeps]
        assert resamples == [0.0] + [t for t in starts for _ in (1, 2)]

    def test_late_audit_failure_names_the_strip_step(self, monkeypatch):
        # alpha0 = 0 and beta0 < 0 for t > 0.8 make row 0's diagonal
        # negative at steps 7 and 8 only, both in the last of the three
        # slabs (levels 5..8): the first two slabs sweep, and the audit of
        # the last slab's build names strip step 7, not its own step 2.
        late = BoundaryCondition(
            alpha0=lambda t: 0.0, beta0=lambda t: -1.0 if t > 0.8 else 1.0, h=lambda t: 0.0
        )
        spec = dataclasses.replace(desk_logistic(), bc_left=late)
        grid = build_grid(spec.domain, 16, 8)
        runs = record_slab_runs(monkeypatch)
        with pytest.raises(MMatrixViolation, match="time step 7: row 0: diagonal -1 not positive"):
            run_dd(spec, grid, Decomposition(i1_hi=10, i2_lo=6), 1e-8, 50)
        assert runs == [(0, 2), (2, 5), (5, 8)]

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


def generic_memory(spec, kappa):
    """spec with its memory kernel replaced by one the generic trapezoid sum
    evaluates: kappa e^{-(t-s)} (eta2 - eta1/10), which also depends on
    eta1, so its stabilizer has a b_under."""
    kernel = VolterraKernel(
        g0=lambda t, x, s, e1, e2: kappa * np.exp(-(t - s)) * (e2 - 0.1 * e1),
        dg0_deta1=lambda t, x, s, e1, e2: -0.1 * kappa * np.exp(-(t - s)) + 0.0 * e1,
    )
    return dataclasses.replace(spec, kernel=kernel)


@st.composite
def small_problems(draw):
    """A KPP, logistic-memory or generic-kernel memory problem with a random
    lambda on a small grid, with a random two-window decomposition.  The
    draws span 1 to about 18 slabs.  dt (lam + kappa) <= 1/2: at
    dt (lam + kappa) >= 1 backward Euler can have a second solution, the
    two branches converge to different ones, and close to 1 the iteration
    with the frozen stabilizer takes hundreds of sweeps."""
    lam = draw(st.floats(0.5, 12.0))
    kind = draw(st.sampled_from(("kpp", "logistic", "generic")))
    if kind == "kpp":
        kappa = 0.0
        spec = kpp(lam, draw(st.floats(-1.0, 1.0)), draw(st.floats(0.0, 1.0)))
    else:
        kappa = draw(st.floats(0.0, 2.0))
        params = {"lam": lam, "kappa": kappa, "sigma": draw(st.floats(0.0, 1.5))}
        spec = catalog_lookup("logistic_memory", params)
        if kind == "generic":
            spec = generic_memory(spec, kappa)
    nx = draw(st.integers(8, 24))
    least = int(2.0 * (lam + kappa)) + 1
    nt = draw(st.integers(least, least + 12))
    i2_lo = draw(st.integers(1, nx - 3))
    i1_hi = draw(st.integers(i2_lo + 2, nx - 1))
    return spec, build_grid(spec.domain, nx, nt), Decomposition(i1_hi=i1_hi, i2_lo=i2_lo)


def slab_count(spec, grid, decomp=None):
    """The slab rule, restated: m = max(ceil(T max c), min(ceil(T max a /
    delta^2), nt // 16)), each ceil within [1, nt], c over the initial
    bracket on levels 1..nt and a at those levels' interior nodes; the
    overlap term, delta the overlap's width, only for a decomposition."""
    init = init_state(spec, grid)
    c = compute_stabilizers(spec, grid, init.u11, init.u12).c_total
    T = grid.ts[-1]
    m = min(grid.nt, max(1, int(np.ceil(T * np.max(c[1:])))))
    if decomp is not None:
        a = np.max(spec.coeffs.a(grid.ts[1:, None], grid.xs[None, 1:-1]))
        delta = (decomp.i1_hi - decomp.i2_lo) * grid.dx
        overlap = min(grid.nt, max(1, int(np.ceil(T * a / delta**2))))
        m = max(m, min(overlap, grid.nt // 16))
    return m


def assert_slab_rules(spec, grid, sol, hist, decomp=None):
    """The slabs tile [0, nt] in slab_count pieces of equal length (+-1),
    and the history has one entry per sweep of the slab that swept most."""
    bounds = [(k0, k1) for k0, k1, _ in hist.slab_sweeps]
    assert len(bounds) == slab_count(spec, grid, decomp)
    assert bounds[0][0] == 0 and bounds[-1][1] == grid.nt
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    lengths = [k1 - k0 for k0, k1 in bounds]
    assert max(lengths) - min(lengths) <= 1
    sweeps = [s for *_, s in hist.slab_sweeps]
    assert len(hist.gap_lower_upper) == sol.sweeps_used == max(sweeps)
    assert len(hist.c_max) == len(hist.max_update) == len(hist.wall_ms) == sol.sweeps_used
    assert hist.level_solves == sum(length * s for length, s in zip(lengths, sweeps))
    if hist.states is not None:
        assert len(hist.states) == sol.sweeps_used + 1


class TestSlabRule:
    """iteration._slab_bounds on the initial-bracket stabilizer, as a run
    calls it, against the counts the rule gives by hand and slab_count."""

    @pytest.mark.parametrize("spec,nx,nt,decomp,slabs", [
        # T max c = 9 (c = 8 + 1e-6), T max a / delta^2 = 1 / 0.25^2 = 16 = nt // 16
        pytest.param(catalog_lookup("manufactured_1"), 128, 256, default_decomposition(128), 16,
                     id="memory_dd"),
        # T max c = 9, T max a / delta^2 = 0.0998 / 0.25^2 -> 2
        pytest.param(kpp(8.0, 0.5, 0.5), 256, 256, default_decomposition(256), 9, id="kpp_dd"),
        # one window: the c term alone ...
        pytest.param(catalog_lookup("manufactured_1"), 128, 256, None, 9, id="one_window"),
        # ... even where diffusion crosses the strip 4 times: T max a / 1^2 = 4 <= 64 // 16
        pytest.param(catalog_lookup("linear_heat", {"T": 4.0}), 32, 64, None, 1,
                     id="one_window_long_diffusion"),
        # ... which two windows do take: T max a / delta^2 = 4 / 0.25^2 = 64 -> 64 // 16
        pytest.param(catalog_lookup("linear_heat", {"T": 4.0}), 32, 64, default_decomposition(32),
                     4, id="two_windows_long_diffusion"),
        # a 2-cell overlap: T max a / delta^2 = 4096, capped at nt // 16
        pytest.param(catalog_lookup("manufactured_1"), 128, 256, Decomposition(65, 63), 16,
                     id="two_cells_capped"),
        # ... and never below the c term: min(64 -> 32, 32 // 16 = 2) < 9
        pytest.param(catalog_lookup("manufactured_1"), 16, 32, Decomposition(9, 7), 9,
                     id="two_cells_under_c"),
        # T = 0.01: T max a / delta^2 = 0.16 and T max c = 0.01
        pytest.param(catalog_lookup("linear_heat"), 128, 256, default_decomposition(128), 1,
                     id="linear_heat"),
        # nt < 16: nt // 16 = 0, so the c term, ceil(2 + 1e-6)
        pytest.param(desk_logistic(), 16, 12, Decomposition(9, 7), 3, id="nt_below_16"),
    ])
    def test_slab_count(self, spec, nx, nt, decomp, slabs):
        grid = build_grid(spec.domain, nx, nt)
        init = init_state(spec, grid)
        c = compute_stabilizers(spec, grid, init.u11, init.u12).c_total
        windows = (Subrange(0, nx),) if decomp is None else iteration._dd_windows(grid, decomp)
        bounds = iteration._slab_bounds(grid, c, spec.coeffs, windows)
        assert len(bounds) == slabs == slab_count(spec, grid, decomp)
        assert bounds[0][0] == 0 and bounds[-1][1] == nt
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))


class TestSlabs:
    @pytest.mark.parametrize("name,params,slabs", [
        ("linear_heat", {}, 1),  # T max c = 0.01 (1 + 1e-6)
        ("logistic_memory", {"lam": 1.0, "kappa": 0.5, "sigma": 0.5}, 3),  # c = 2 + 1e-6
        ("manufactured_1", {}, 9),  # c = 8 + 1e-6
    ])
    def test_slab_count_and_history(self, name, params, slabs):
        spec = catalog_lookup(name, params)
        grid = build_grid(spec.domain, 16, 32)
        decomp = Decomposition(i1_hi=10, i2_lo=6)
        sol, hist = run_dd(spec, grid, decomp, 1e-9, 200)
        assert sol.converged and len(hist.slab_sweeps) == slabs
        assert hist.stop_reason == "converged"
        assert_slab_rules(spec, grid, sol, hist, decomp)
        assert hist.gap_lower_upper[-1] <= 1e-9
        assert np.max(sol.u_upper - sol.u_lower) <= 1e-9

    def test_one_slab_per_level_at_most(self):
        # T max c = 9 on 4 levels: one slab per level.
        spec = catalog_lookup("manufactured_1")
        grid = build_grid(spec.domain, 16, 4)
        sol, hist = run_single_domain(spec, grid, 1e-9, 200)
        assert sol.converged
        assert [(k0, k1) for k0, k1, _ in hist.slab_sweeps] == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_stalled_slab_tightens_its_predecessor(self, monkeypatch):
        # u0 = 0 is KPP's unstable state: the gap a slab carries in grows
        # across it, so with every slab stopped at gap <= tol a later one
        # stalls above tol.  The run tightens the slab before it instead,
        # taking up slabs again, and still closes the whole envelope below
        # tol with the chain kept.
        runs = record_slab_runs(monkeypatch)
        spec = kpp(6.0, 0.0, 0.0)
        grid = build_grid(spec.domain, 8, 12)
        tol = 1e-9
        decomp = Decomposition(i1_hi=3, i2_lo=1)
        sol, hist = run_dd(spec, grid, decomp, tol, 500, keep_states=True)
        assert sol.converged and np.max(sol.u_upper - sol.u_lower) <= tol
        assert len(runs) > len(hist.slab_sweeps)
        assert_slab_rules(spec, grid, sol, hist, decomp)
        lo, hi = hist.states[0].u11, hist.states[0].u12
        for prev, nxt in zip(hist.states, hist.states[1:]):
            assert check_monotone_chain(prev, nxt, lo, hi, slack=1e-10) == []

    def test_a_stall_under_the_floor_tightens_its_predecessor(self, monkeypatch):
        # With c below 0 where f grows, kpp(2.2, 0, 0) and kpp(3, -0.5, 0)
        # on 8x7 converge slab by slab.  The run of the test above, whose
        # chain is checked there, still stalls and goes back to tighten the
        # slabs before the stalled one, with c below 0: at some sweep,
        # every slab sweeping has c < 0 on all its levels.
        runs = record_slab_runs(monkeypatch)
        spec = kpp(6.0, 0.0, 0.0)
        grid = build_grid(spec.domain, 8, 12)
        tol = 1e-9
        sol, hist = run_dd(spec, grid, Decomposition(i1_hi=3, i2_lo=1), tol, 500)
        assert sol.converged and np.max(sol.u_upper - sol.u_lower) <= tol
        assert len(runs) > len(hist.slab_sweeps)
        assert min(hist.c_max) < 0.0

    def test_a_stall_retargets_every_earlier_slab(self, monkeypatch):
        # When slab j stalls on the gap `carried` its first row brings in,
        # grown by G = gap / carried across it, slab j-1's target becomes
        # tighter = target carried / (2 gap) and every earlier slab i's
        # min(its target, tighter / G^(j-1-i)), all at once; the next slab
        # run is that of the earliest slab whose last gap exceeds its new
        # target.
        slabs, events = {}, []
        sweep_slab = iteration._sweep_slab

        def targets_and_gaps():
            return {k0: (slab.target, slab.gap) for k0, slab in sorted(slabs.items())}

        def recorded(slab, *args):
            slabs[slab.k0] = slab
            before = targets_and_gaps()
            out = sweep_slab(slab, *args)
            events.append((slab.k0, out[0], before, targets_and_gaps()))
            return out

        monkeypatch.setattr(iteration, "_sweep_slab", recorded)
        resumed, kept = set(), False
        for spec, nx, nt, decomp, tol in (
            (kpp(6.0, 0.0, 0.0), 8, 12, Decomposition(i1_hi=3, i2_lo=1), 1e-9),
            (kpp(8.0, 0.5, 0.0), 64, 64, Decomposition(i1_hi=33, i2_lo=31), 1e-8),
        ):
            slabs.clear()
            events.clear()
            sol, _ = run_dd(spec, build_grid(spec.domain, nx, nt), decomp, tol, 500)
            assert sol.converged
            stalls = [(event, following) for event, following in zip(events, events[1:])
                      if event[1] is not None]
            assert stalls
            for (k0, carried, _, after), (next_k0, _, before, _) in stalls:
                target, gap = after[k0]
                growth, tighter = gap / carried, 0.5 * target * carried / gap
                earlier = [k for k in after if k < k0]
                for steps, k in enumerate(reversed(earlier)):
                    new = min(after[k][0], tighter / growth**steps)
                    assert before[k][0] == pytest.approx(new, rel=1e-12, abs=0.0)
                    kept |= new == after[k][0]
                assert next_k0 == min(k for k in earlier if before[k][1] > before[k][0])
                resumed.add("slab 0" if next_k0 == 0 else "later")
                resumed.add("the one before" if next_k0 == earlier[-1] else "earlier")
        # Both resume rules and the min are exercised.
        assert resumed == {"slab 0", "later", "the one before", "earlier"} and kept

    @pytest.mark.parametrize("name,params,nx,nt", [
        ("manufactured_1", {}, 32, 32),
        ("logistic_memory", {"lam": 1.0, "kappa": 0.5, "sigma": 0.5}, 64, 32),
    ])
    def test_no_false_stall_on_a_narrow_overlap(self, monkeypatch, name, params, nx, nt):
        # A stable problem carries no growing gap, so no slab stalls even
        # with a 2-cell overlap, where a slab converges slowly: every slab
        # runs once.  A stall test from a constant gap ratio (gap >= half
        # the previous gap) stalls here and the run ends at a fixed point.
        runs = record_slab_runs(monkeypatch)
        spec = catalog_lookup(name, params)
        grid = build_grid(spec.domain, nx, nt)
        decomp = Decomposition(i1_hi=nx // 2 + 1, i2_lo=nx // 2 - 1)
        sol, hist = run_dd(spec, grid, decomp, 1e-8, 500, abort_on_chain_violation=True)
        assert sol.converged and hist.stop_reason == "converged"
        assert len(hist.slab_sweeps) > 1
        assert runs == [(k0, k1) for k0, k1, _ in hist.slab_sweeps]

    def test_failed_slab_leaves_the_bracket_after_it(self):
        spec = catalog_lookup("manufactured_1")
        grid = build_grid(spec.domain, 16, 32)
        sol, hist = run_dd(spec, grid, Decomposition(i1_hi=10, i2_lo=6), 1e-12, 2)
        assert not sol.converged and hist.slab_sweeps == [(0, 3, 2)]  # 9 slabs of 3-4 levels
        assert hist.stop_reason == "max_sweeps on slab 0..3"
        np.testing.assert_array_equal(sol.u_lower[4:], 0.0)
        np.testing.assert_array_equal(sol.u_upper[4:], 4.0)
        assert np.all(sol.u_lower <= sol.u_upper)

    def test_rounding_level_fixed_point_ends_the_run(self):
        # With dt sup f_u >= 1 backward Euler has two discrete solutions
        # here: the lower branch stays at 0 and the upper one settles on
        # the other, so the gap never closes.  The slab's first row is
        # exact and its update falls to rounding level, so the run ends
        # long before max_sweeps and says why.
        spec = kpp(4.0, -1.0, 0.0)
        grid = build_grid(spec.domain, 8, 2)
        sol, hist = run_dd(spec, grid, Decomposition(i1_hi=3, i2_lo=1), 1e-8, 500)
        assert not sol.converged and sol.sweeps_used < 120
        gap = hist.gap_lower_upper[-1]
        assert gap > 0.1 and hist.stop_reason == f"fixed point on slab 0..1 at gap {gap:.3g}"


class TestStopRule:
    @pytest.mark.parametrize("spec,nx,nt", [
        (catalog_lookup("manufactured_1"), 16, 32),
        (catalog_lookup("logistic_memory", {"lam": 1.0, "kappa": 0.5, "sigma": 0.5}), 24, 16),
        (kpp(8.0, 0.5, 0.5), 16, 24),
    ])
    def test_each_slab_stops_at_its_first_gap_below_tol(self, monkeypatch, spec, nx, nt):
        # Every sweep's gap, recorded in order: the slabs run one after
        # the other (none stalls here), and each stops at the first sweep
        # whose gap is <= tol, whatever its update.
        gaps = []
        metrics = iteration.sweep_metrics

        def recorded(prev, nxt, lo, hi):
            out = metrics(prev, nxt, lo, hi)
            gaps.append(out[0])
            return out

        monkeypatch.setattr(iteration, "sweep_metrics", recorded)
        tol = 1e-9
        grid = build_grid(spec.domain, nx, nt)
        sol, hist = run_dd(spec, grid, default_decomposition(nx), tol, 200)
        assert sol.converged and len(hist.slab_sweeps) > 1
        sweeps = [s for *_, s in hist.slab_sweeps]
        assert len(gaps) == sum(sweeps)
        start = 0
        for count in sweeps:
            slab = gaps[start : start + count]
            assert all(gap > tol for gap in slab[:-1]) and slab[-1] <= tol
            start += count


class TestRefreshedStabilizer:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(small_problems())
    def test_chain_holds_and_limit_is_the_frozen_one(self, case):
        # Swept slab by slab, with the stabilizer refreshed on each slab's
        # shrinking envelope, the run keeps every chain link on every sweep
        # and converges to the limit of the whole-strip iteration whose
        # stabilizer stays frozen at the initial bracket.
        spec, grid, decomp = case
        tol = 1e-9
        for kind, candidate in (("sub", spec.bracket.u_hat), ("super", spec.bracket.u_tilde)):
            assert check_bracket(spec, grid, candidate, kind).passed
        sol, hist = run_dd(spec, grid, decomp, tol, 500, keep_states=True)
        assert sol.converged
        assert_slab_rules(spec, grid, sol, hist, decomp)
        lo, hi = hist.states[0].u11, hist.states[0].u12
        for prev, nxt in zip(hist.states, hist.states[1:]):
            assert check_monotone_chain(prev, nxt, lo, hi, slack=1e-10) == []
        # The chain puts sweep n+1 inside the envelope of sweep n, so no
        # update exceeds the gap before it: a slab whose gap is <= tol
        # needs no further sweep to bring its update below tol.
        for n in range(1, len(hist.max_update)):
            assert hist.max_update[n] <= hist.gap_lower_upper[n - 1] + 1e-10

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

    def test_c_max_records_the_stabilizer_of_each_sweep(self, monkeypatch):
        # Each slab starts from the initial-bracket c on its levels and is
        # refreshed after its sweeps 1, 2, 4, ...: its c_max, the largest c
        # of its steps (levels k0+1..k1), can only fall, and only at the
        # sweeps that follow a refresh.  History entry n holds the largest
        # c_max of the slabs that ran a sweep n + 1.
        used = []
        sweep = iteration._sweep

        def recorded(state, spec, grid, stab, ops, pasts):
            used.append((ops[0].k0, float(np.max(stab.c_total[1:]))))
            return sweep(state, spec, grid, stab, ops, pasts)

        monkeypatch.setattr(iteration, "_sweep", recorded)
        spec = desk_logistic()
        grid = build_grid(spec.domain, 32, 32)
        sol, hist = run_dd(spec, grid, Decomposition(i1_hi=20, i2_lo=12), 1e-10, 200)
        init = init_state(spec, grid)
        stab = compute_stabilizers(spec, grid, init.u11, init.u12)
        per_slab = {k0: [c for k, c in used if k == k0] for k0, _, _ in hist.slab_sweeps}
        assert len(per_slab) > 1
        assert [len(c) for c in per_slab.values()] == [s for *_, s in hist.slab_sweeps]
        for (k0, k1, _), c_max in zip(hist.slab_sweeps, per_slab.values()):
            assert c_max[0] == np.max(stab.c_total[k0 + 1 : k1 + 1])
            assert c_max[-1] < c_max[0]
            for n in range(1, len(c_max)):
                if n & (n - 1):  # no refresh between sweeps n and n + 1
                    assert c_max[n] == c_max[n - 1]
                else:
                    assert c_max[n] <= c_max[n - 1]
        assert len(hist.c_max) == sol.sweeps_used
        assert hist.c_max[0] == np.max(stab.c_total[1:])
        assert hist.c_max == [
            max(c[n] for c in per_slab.values() if n < len(c)) for n in range(sol.sweeps_used)
        ]

    def test_row_0_of_c_is_read_by_no_step(self, monkeypatch):
        # Row 0 of the strip's c is level 0, which no step matrix adds: a c
        # that only row 0 holds, and that would make 32 slabs of 1 level,
        # moves neither the slab count nor history.c_max nor the envelope.
        spec = desk_logistic()
        grid = build_grid(spec.domain, 32, 32)
        decomp = Decomposition(i1_hi=20, i2_lo=12)
        sol, hist = run_dd(spec, grid, decomp, 1e-10, 200)
        compute = iteration.compute_stabilizers

        def row_0_largest(*args, **kwargs):
            stab = compute(*args, **kwargs)
            stab.c_total[0] = 1e3
            return stab

        monkeypatch.setattr(iteration, "compute_stabilizers", row_0_largest)
        raised, raised_hist = run_dd(spec, grid, decomp, 1e-10, 200)
        assert len(hist.slab_sweeps) == 3 and raised_hist.slab_sweeps == hist.slab_sweeps
        assert max(raised_hist.c_max) < 3.0 and raised_hist.c_max == hist.c_max
        np.testing.assert_array_equal(raised.u_lower, sol.u_lower)
        np.testing.assert_array_equal(raised.u_upper, sol.u_upper)

    def test_a_refresh_put_off_comes_one_sweep_later(self, monkeypatch):
        # The first slab's gaps are faked so that after its sweep 4 they
        # predict sweep 5 reaches tol (1e-6 ** 2 <= tol * 1e-3), which sweep
        # 5 then misses: the refresh due after sweep 4 comes after sweep 5.
        tol = 1e-9
        fake = [1.0, 1e-1, 1e-3, 1e-6, 1e-7]
        events = []
        metrics, refresh = iteration.sweep_metrics, iteration.refresh_stabilizers

        def faked(prev, nxt, lo, hi):
            gap, upd, margin = metrics(prev, nxt, lo, hi)
            events.append("sweep")
            n = events.count("sweep")
            return (fake[n - 1] if n <= len(fake) else gap), upd, margin

        def counted(*args, **kwargs):
            events.append("refresh")
            return refresh(*args, **kwargs)

        monkeypatch.setattr(iteration, "sweep_metrics", faked)
        monkeypatch.setattr(iteration, "refresh_stabilizers", counted)
        spec = catalog_lookup("manufactured_1")
        sol, hist = run_dd(spec, build_grid(spec.domain, 16, 32), Decomposition(10, 6), tol, 200)
        assert sol.converged
        first = hist.slab_sweeps[0][2]
        after = [events[:i].count("sweep") for i, e in enumerate(events) if e == "refresh"]
        assert [n for n in after if n < first][:3] == [1, 2, 5]

    def test_constant_bound_is_not_resampled(self):
        spec = desk_logistic()
        bounded = Reaction(f=spec.reaction.f, f_u=spec.reaction.f_u, c_bar_bound=2.0)
        spec = dataclasses.replace(spec, reaction=bounded)
        grid = build_grid(spec.domain, 16, 8)
        sol, hist = run_dd(spec, grid, Decomposition(i1_hi=10, i2_lo=6), 1e-9, 200)
        assert sol.converged and sol.sweeps_used > 4
        assert hist.c_max == [2.0 + 1e-6] * sol.sweeps_used


class TestFlooredStabilizer:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(small_problems())
    def test_m_matrices_monotone_F1_and_chain(self, case):
        # c goes below 0 where f grows on the envelope, down to -1/(2 dt).
        # Every step matrix a run builds or refactors is still an M-matrix,
        # step by step, with interior rows dominant by at least 1/(2 dt);
        # F1 = c u + f + g is nondecreasing in u between ordered fields
        # sampled in the envelope each c was computed or refreshed on; and
        # the chain holds on every sweep.
        spec, grid, decomp = case
        factored, stabilized = [], []
        build, refactor = iteration.build_window_operator, iteration.refactor_window_operator
        compute, refresh = iteration.compute_stabilizers, iteration.refresh_stabilizers

        def built(slab_grid, window, coeffs, c, left, right, k0=0):
            op = build(slab_grid, window, coeffs, c, left, right, k0)
            factored.append((op, c))
            return op

        def refactored(op, c):
            refactor(op, c)
            factored.append((op, c))

        def computed(spec_, strip, lo, hi, **kwargs):
            stab = compute(spec_, strip, lo, hi, **kwargs)
            stabilized.append((strip, stab, lo, hi))
            return stab

        def refreshed(spec_, slab_grid, stab, lo, hi, **kwargs):
            fresh = refresh(spec_, slab_grid, stab, lo, hi, **kwargs)
            stabilized.append((slab_grid, fresh, lo, hi))
            return fresh

        with mock.patch.object(iteration, "build_window_operator", built), \
                mock.patch.object(iteration, "refactor_window_operator", refactored), \
                mock.patch.object(iteration, "compute_stabilizers", computed), \
                mock.patch.object(iteration, "refresh_stabilizers", refreshed):
            sol, hist = run_dd(spec, grid, decomp, 1e-9, 500, keep_states=True)
        assert sol.converged

        floor = -0.5 / grid.dt
        for op, c in factored:
            assert np.all(c >= floor)
            diag = op.diag.copy()
            diag[:, 1:-1] += c[1:, op.window.lo + 1 : op.window.hi]
            for k in range(diag.shape[0]):
                ok, diagnostic = m_matrix_check(op.sub[k], diag[k], op.sup[k])
                assert ok, diagnostic
            excess = diag - (np.abs(op.sub) + np.abs(op.sup))
            assert np.all(excess[:, 1:-1] >= -floor - 1e-12 * diag[:, 1:-1])

        rng = np.random.default_rng(0)
        init = init_state(spec, grid)
        for levels, stab, lo, hi in stabilized:
            k0 = int(np.flatnonzero(grid.ts == levels.ts[0])[0])
            past = Past.initial(init.u11[0], grid)
            if k0 > 0:
                past = past.extend(spec.kernel, init.u11[: k0 + 1], grid.levels(0, k0))
            theta = np.sort(rng.uniform(0.0, 1.0, (2,) + lo.shape), axis=0)
            lower, upper = lo + theta * (hi - lo)
            f_lower = eval_F1_field(spec, stab, lower, levels, past=past)[1:]
            f_upper = eval_F1_field(spec, stab, upper, levels, past=past)[1:]
            scale = 1.0 + np.max(np.abs(f_upper))
            assert np.min(f_upper - f_lower) >= -1e-12 * scale

        lo, hi = hist.states[0].u11, hist.states[0].u12
        for prev, nxt in zip(hist.states, hist.states[1:]):
            assert check_monotone_chain(prev, nxt, lo, hi, slack=1e-10) == []
