import dataclasses
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from monodd.discretization import (
    MMatrixViolation,
    Subrange,
    m_matrix_check,
    march_window,
    sample_steps,
)
from monodd.iteration import _u0_row
from monodd.verify import CHAIN_SLACK, bracket_residuals, sweep_metrics
from monodd.volterra import Past, compute_stabilizers, eval_F1_field

from conftest import desk_logistic, kpp, make_zero_problem
from reference import dd_sweep

# The amplitude of u0 in the KPP runs whose slabs stall: near 0, KPP's
# unstable state, so the gap a slab carries in grows across it.  From
# u0 = 0 itself the predicted start u = 0 certifies and nothing stalls.
STALL_AMP = 1e-3


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

    def test_default_is_valid_on_every_small_grid(self):
        # Every grid the CLI accepts (nx >= 4) gets an overlap of at least
        # two cells inside it; only nx = 4 and 6 need it widened beyond
        # the middle quarter.
        for nx in range(4, 257):
            d = default_decomposition(nx)
            d.check(nx)
            assert 0 < d.i2_lo and d.i1_hi < nx
            assert d.i2_lo == 3 * nx // 8
            assert d.i1_hi == (5 * nx // 8 if nx not in (4, 6) else d.i2_lo + 2)


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
        # The linear heat rhs is the stabilizer's C_MARGIN u alone, so the
        # converged single-domain field is a fixed point of one DD sweep:
        # the sweep moves it by C_MARGIN dt times its distance from the
        # discrete solution.
        spec = catalog_lookup("linear_heat")
        grid = build_grid(spec.domain, 16, 8)
        sd, _ = run_single_domain(spec, grid, 1e-13, 50)
        lo = sample_field(spec.bracket.u_hat, grid)
        hi = sample_field(spec.bracket.u_tilde, grid)
        stab = compute_stabilizers(spec, grid, lo, hi)
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
            assert check_monotone_chain(prev, nxt, lo, hi) == []

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
    """(window, k0, k1) of every operator the run builds, in order: its
    window operators and the whole-strip operator of its predictor, each
    for the levels k0..k1 of its grid."""
    builds = []
    build = iteration._window_operators

    def counted(spec, grid, c_field, windows, k0=0, samples=None):
        builds.extend((window, k0, k0 + grid.nt) for window in windows)
        return build(spec, grid, c_field, windows, k0, samples)

    monkeypatch.setattr(iteration, "_window_operators", counted)
    return builds


def record_refactors(monkeypatch):
    """(window, k0, k1) of every refactor the run makes after a build, on
    the steps k0+1..k1 its stabilizer covers."""
    refactors = []
    refactor = iteration.refactor_window_operator

    def counted(op, c_field):
        refactors.append((op.window, op.k0, op.k0 + len(c_field) - 1))
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


def record_operators(monkeypatch):
    """(k0, k1, ops, plans) of every slab run as its sweeps begin: its
    window operators and their march plans (None before a first march)."""
    entries = []
    sweep_slab = iteration._sweep_slab

    def recorded(slab, spec, ops, *args):
        entries.append((slab.k0, slab.k1, list(ops), [op.plan for op in ops]))
        return sweep_slab(slab, spec, ops, *args)

    monkeypatch.setattr(iteration, "_sweep_slab", recorded)
    return entries


def start_from_the_bracket(monkeypatch):
    """Make every slab start from the bracket, as one does whose predicted
    start does not certify."""
    monkeypatch.setattr(iteration, "_predicted_start", lambda *args: (None, 0, (0, np.nan)))


def span(hist):
    """The levels of the longest slab of a run: those the held operators
    are built for."""
    return max(k1 - k0 for k0, k1, _ in hist.slab_sweeps)


def slab_operands(spec, grid, k0, k1, scale=1.0):
    """The slab k0..k1 of grid as _operators reads it, its stabilizer
    the initial bracket's times scale, and its StepSamples."""
    init = init_state(spec, grid)
    stab = compute_stabilizers(spec, grid, init.u11, init.u12).levels(k0, k1)
    slab = SimpleNamespace(k0=k0, grid=grid.levels(k0, k1),
                           stab=dataclasses.replace(stab, c_total=scale * stab.c_total))
    return slab, sample_steps(slab.grid, spec.coeffs, spec.bc_left, spec.bc_right)


FACTORS = ("d", "dl", "du", "du2", "ipiv", "left_h", "right_h", "pinned")


def steps_of(op, name, nt):
    """op's array name on its first nt steps (None for an end it pins)."""
    value = getattr(op, name)
    return None if value is None else value[:nt]


class TestOperatorsPerSlab:
    def test_equal_steps_take_over_the_operators_and_refreshes_refactor_them(self, monkeypatch):
        # Step matrices are audited where they are factored.  The first slab
        # builds the operators the run holds, for as many steps as the
        # longest slab has: the whole-strip operator of the two marches
        # that refine its guess, factored with the first march's c (with
        # one window, that is the window's own operator), then its window
        # operators.  Desk logistic's data do not depend on t, so every
        # later slab, of either length, takes them over: it refactors the
        # whole-strip operator on its steps for each of its marches and the
        # window operators with its own c, builds nothing and keeps their
        # march plans.  A slab whose predicted start certifies refreshes
        # on it before it takes its window operators, which refactors
        # nothing, and sweeps with that c.  With the prediction patched out
        # every slab starts from the bracket: it makes no march, and
        # refreshes after its sweeps 1, 2, 4, ... that another sweep
        # follows.  Desk logistic's f grows where u < 1/2, so its c falls
        # below 0 there and every refresh lowers it further: each one after
        # a sweep refactors the window operators in place.
        changed = []
        refresh = iteration.refresh_stabilizers

        def compared(spec, grid, stab, *args, **kwargs):
            fresh = refresh(spec, grid, stab, *args, **kwargs)
            changed.append(not np.array_equal(fresh.c_total, stab.c_total))
            return fresh

        def refreshed_after(sweeps):
            return [n for n in (1, 2, 4, 8, 16, 32) if n < sweeps]

        def expected_refactors(hist, windows, whole):
            # Per slab: its marches' refactors of the whole-strip operator
            # (slab 0's first march built it), the window operators'
            # take-over (with one window also slab 0's, where its marches
            # built it), then, from the bracket, one refactor of them per
            # refresh after a sweep.
            expected = []
            for j, ((k0, k1, sweeps), (*_, certified, _), (*_, marches, _)) in enumerate(zip(
                hist.slab_sweeps, hist.slab_starts, hist.predictions
            )):
                expected += [(whole, k0, k1)] * (marches - (j == 0))
                if j > 0 or (windows == (whole,) and marches):
                    expected += [(window, k0, k1) for window in windows]
                if not certified:
                    expected += [(window, k0, k1) for _ in refreshed_after(sweeps)
                                 for window in windows]
            return expected

        builds, refactors = record_builds(monkeypatch), record_refactors(monkeypatch)
        entries = record_operators(monkeypatch)
        monkeypatch.setattr(iteration, "refresh_stabilizers", compared)
        spec = desk_logistic()
        grid = build_grid(spec.domain, 16, 11)  # slabs of 3, 4 and 4 levels
        whole = Subrange(0, 16)

        for predicted in (True, False):
            if not predicted:
                start_from_the_bracket(monkeypatch)
            for run, windows in (
                (lambda: run_dd(spec, grid, Decomposition(i1_hi=10, i2_lo=6), 1e-12, 50),
                 (Subrange(0, 10), Subrange(6, 16))),
                (lambda: run_single_domain(spec, grid, 1e-12, 50), (whole,)),
            ):
                for recorded_list in (builds, refactors, changed, entries):
                    recorded_list.clear()
                sol, hist = run()
                assert sol.converged and len(hist.slab_sweeps) > 1
                assert len({k1 - k0 for k0, k1, _ in hist.slab_sweeps}) == 2
                assert all(start[2] == predicted for start in hist.slab_starts)
                marches = [marches for *_, marches, _ in hist.predictions]
                made = iteration.PREDICTOR_MARCHES if predicted else 0
                assert marches == [made] * len(hist.slab_sweeps)
                runs = [(k0, k1) for k0, k1, _ in hist.slab_sweeps]
                assert [(k0, k1) for k0, k1, *_ in entries] == runs
                first = [whole] if predicted else []
                built = first + [window for window in windows if window not in first]
                assert builds == [(window, 0, span(hist)) for window in built]
                for (_, _, ops, _), (_, _, taken, plans) in zip(entries, entries[1:]):
                    assert all(a is b for a, b in zip(taken, ops))
                    assert all(plan is op.plan and plan is not None
                               for plan, op in zip(plans, ops))
                assert refactors == expected_refactors(hist, windows, whole)
                # One refresh per certified start, or one per sweep 1, 2,
                # 4, ... that another sweep of a bracket-start slab follows.
                assert changed == [True] * sum(
                    1 if predicted else len(refreshed_after(sweeps))
                    for *_, sweeps in hist.slab_sweeps
                )

    @pytest.mark.parametrize("single", [False, True])
    def test_steady_steps_build_each_window_set_once(self, monkeypatch, single):
        # Near KPP's unstable state slabs stall and the run takes earlier
        # ones up again, on slabs of two lengths.  KPP's data do not depend
        # on t, so the run builds the operators of each window set once,
        # at the first slab, for the longest slab's steps, and every later
        # slab run takes them over: the predictor's whole strip and the
        # two windows with two windows (3 builds), one whole-strip window
        # shared by both uses on a single domain (1 build).
        spec = kpp(6.0, 0.0, STALL_AMP)
        grid = build_grid(spec.domain, 8, 12)
        builds, runs = record_builds(monkeypatch), record_slab_runs(monkeypatch)
        if single:
            sol, hist = run_single_domain(spec, grid, 1e-9, 500)
            windows = (Subrange(0, 8),)
        else:
            sol, hist = run_dd(spec, grid, Decomposition(i1_hi=3, i2_lo=1), 1e-9, 500)
            windows = (Subrange(0, 8), Subrange(0, 3), Subrange(1, 8))
            assert len(runs) > len(set(runs))  # a slab was taken up again
        assert sol.converged and len({k1 - k0 for k0, k1, _ in hist.slab_sweeps}) == 2
        assert builds == [(window, 0, span(hist)) for window in windows]

    def test_steps_that_depend_on_t_are_built_afresh(self, monkeypatch):
        # With a diffusion that depends on t, no two steps share their
        # data, and every slab run builds its own operators on its own
        # levels: the whole-strip one for its predictor, then its
        # windows'.  Steps are steady where every step's a, b and end rows
        # are bitwise the first's: an end row that changes only late, or
        # only in the sign of a zero, is not.
        base = desk_logistic()
        spec = dataclasses.replace(base, coeffs=dataclasses.replace(
            base.coeffs, a=lambda t, x: (1.0 + 0.5 * t) + 0.0 * x))
        grid = build_grid(spec.domain, 16, 8)
        windows = (Subrange(0, 10), Subrange(6, 16))
        builds = record_builds(monkeypatch)
        sol, hist = run_dd(spec, grid, Decomposition(i1_hi=10, i2_lo=6), 1e-9, 50)
        assert sol.converged and len({k1 - k0 for k0, k1, _ in hist.slab_sweeps}) == 2
        assert builds == [
            (window, k0, k1)
            for k0, k1, _ in hist.slab_sweeps for window in (Subrange(0, 16),) + windows
        ]

        def steady(spec_):
            return iteration._steady(sample_steps(grid, spec_.coeffs, spec_.bc_left,
                                                  spec_.bc_right))

        held = steady(base)
        first = sample_steps(grid, base.coeffs, base.bc_left, base.bc_right).first(1)
        for one, kept in zip((first.a, first.b, *first.ends[0], *first.ends[1]),
                             (held.a, held.b, *held.ends[0], *held.ends[1])):
            assert kept.shape[0] == grid.nt and kept.strides[0] == 0
            np.testing.assert_array_equal(kept, np.broadcast_to(one, kept.shape))
        assert steady(spec) is None
        late = dataclasses.replace(base, bc_right=BoundaryCondition(
            alpha0=lambda t: 0.0, beta0=lambda t: 1.0, h=lambda t: 0.0 if t < 0.7 else 1e-300))
        assert steady(late) is None
        signed = dataclasses.replace(base, bc_right=dataclasses.replace(
            base.bc_right, h=lambda t: 0.0 if t < 0.7 else -0.0))
        assert steady(signed) is None

    @pytest.mark.parametrize("later_levels", [(4, 8), (4, 7)])
    def test_a_march_on_a_taken_over_operator_is_bitwise_a_fresh_one(self, later_levels):
        # A slab of the same steps, or of the first of them, takes over
        # operators that have marched and were factored with another c: it
        # refactors them on its steps with its own, which gives bitwise
        # the factors a fresh build of its steps gives, and marches its
        # steps bitwise as a fresh operator does.  Their errors name its
        # steps.
        spec = kpp(8.0, 0.5, 0.5)
        grid = build_grid(spec.domain, 16, 12)
        windows = (Subrange(0, 10), Subrange(6, 16))
        rng = np.random.default_rng(7)

        def march(op, nt):
            m, n = 2, op.d.shape[1]
            pinned = rng.uniform(0.0, 1.0, (m, nt + 1))
            return march_window(
                op, rng.uniform(-1.0, 1.0, (m, nt + 1, n - 2)), rng.uniform(0.0, 1.0, (m, n)),
                left=pinned if op.left_h is None else None,
                right=pinned if op.right_h is None else None,
            ).copy()

        first, samples = slab_operands(spec, grid, 0, 4)
        assert iteration._steady(samples) is not None
        cache = {}
        ops = iteration._operators(spec, cache, 0, first.grid, samples, windows,
                                   first.stab.c_total)
        assert cache == {windows: ops}
        for op in ops:
            march(op, 4)
        plans = [op.plan for op in ops]
        later, same = slab_operands(spec, grid, *later_levels, scale=0.5)
        nt = later.grid.nt
        taken = iteration._operators(spec, cache, 4, later.grid, same, windows,
                                     later.stab.c_total)
        assert all(op is old for op, old in zip(taken, ops))
        assert all(op.plan is plan for op, plan in zip(taken, plans))
        assert all(op.k0 == 4 for op in taken)
        fresh = iteration._window_operators(spec, later.grid, later.stab.c_total, windows, 4, same)
        for old, new in zip(taken, fresh):
            for name in FACTORS:
                np.testing.assert_array_equal(steps_of(old, name, nt), getattr(new, name))
            state = rng.bit_generator.state
            on_old = march(old, nt)
            rng.bit_generator.state = state
            np.testing.assert_array_equal(on_old, march(new, nt))

    def test_a_resumed_slab_refactors_to_the_factors_of_its_first_run(self, monkeypatch):
        # A stalling KPP run sends the run back to earlier slabs.  A resumed
        # slab takes over the operators the run holds, which other slabs
        # and the predictor's marches have refactored since, and marches
        # with the factors its last run ended with on its steps: those of
        # its current stabilizer.
        ended, resumed = {}, []
        sweep_slab = iteration._sweep_slab

        def factors(slab, ops):
            nt = slab.k1 - slab.k0
            return [[np.copy(steps_of(op, name, nt)) for name in FACTORS] for op in ops]

        def recorded(slab, spec_, ops, *args):
            if slab.k0 in ended:
                for before, now in zip(ended[slab.k0], factors(slab, ops)):
                    for a, b in zip(before, now):
                        np.testing.assert_array_equal(a, b)
                resumed.append(slab.k0)
            out = sweep_slab(slab, spec_, ops, *args)
            ended[slab.k0] = factors(slab, ops)
            return out

        monkeypatch.setattr(iteration, "_sweep_slab", recorded)
        spec = kpp(8.0, 0.0, STALL_AMP)
        grid = build_grid(spec.domain, 8, 12)
        sol, hist = run_dd(spec, grid, Decomposition(i1_hi=3, i2_lo=1), 1e-9, 500)
        assert sol.converged and resumed

    def test_a_refresh_that_keeps_c_refactors_nothing(self, monkeypatch):
        # linear_heat has f_u = 0, so every resample of c comes out as the
        # c it has, C_MARGIN at every node.  Its refined guess is its
        # solution, so with the predictor each slab sweeps once.  From the
        # bracket (the prediction patched out) its one slab resamples after
        # its sweeps 1, 2 and 4 and refactors nothing after the build.  On
        # the desk logistic problem c falls below 0 where u < 1/2 and keeps
        # falling as the envelope closes, so every refresh resamples and
        # refactors.  From the bracket, slab 0 builds the single window's
        # operator and every later slab takes it over with its own c; each
        # slab refreshes after its sweeps 1, 2 and 4 of 5.
        refactors = record_refactors(monkeypatch)
        resamples = []
        sample = volterra._sampled_c_under

        def counted(*args):
            resamples.append(args[1].ts[0])
            return sample(*args)

        monkeypatch.setattr(volterra, "_sampled_c_under", counted)
        spec = catalog_lookup("linear_heat")
        grid = build_grid(spec.domain, 32, 16)
        decomp = Decomposition(i1_hi=18, i2_lo=14)
        sol, hist = run_dd(spec, grid, decomp, 1e-9, 200)
        assert sol.converged and sol.sweeps_used == 1
        start_from_the_bracket(monkeypatch)
        refactors.clear()
        resamples.clear()
        sol, hist = run_dd(spec, grid, decomp, 1e-9, 200)
        assert sol.converged and sol.sweeps_used > 4 and len(hist.slab_sweeps) == 1
        assert hist.c_max == [1e-6] * sol.sweeps_used
        assert refactors == [] and resamples == [0.0] * 4

        refactors.clear()
        resamples.clear()
        spec = desk_logistic()
        grid = build_grid(spec.domain, 64, 16)
        sol, hist = run_single_domain(spec, grid, 1e-8, 200)
        assert sol.converged and [sweeps for *_, sweeps in hist.slab_sweeps] == [5, 5, 5]
        assert not any(certified for *_, certified, _ in hist.slab_starts)
        window = Subrange(0, 64)
        assert [k1 - k0 for k0, k1, _ in hist.slab_sweeps] == [5, 5, 6]
        assert refactors == [(window, k0, k1) for k0, k1, _ in hist.slab_sweeps
                             for _ in range(3 if k0 == 0 else 4)]
        # The strip's initial c, then each slab's three refreshes.
        starts = [grid.ts[k0] for k0, _, _ in hist.slab_sweeps]
        assert resamples == [0.0] + [t for t in starts for _ in range(3)]

    def test_late_audit_failure_names_the_strip_step(self, monkeypatch):
        # alpha0 = 0 and beta0 < 0 for t > 0.8 make row 0's diagonal
        # negative at steps 7 and 8 only, both in the last of the three
        # slabs (levels 5..8): the first two slabs sweep, and the audit of
        # the last slab's build, made before its first sweep as its end
        # rows differ from the slab before it, names strip step 7, not
        # its own step 2.
        late = BoundaryCondition(
            alpha0=lambda t: 0.0, beta0=lambda t: -1.0 if t > 0.8 else 1.0, h=lambda t: 0.0
        )
        spec = dataclasses.replace(desk_logistic(), bc_left=late)
        grid = build_grid(spec.domain, 16, 8)
        runs = record_slab_runs(monkeypatch)
        with pytest.raises(MMatrixViolation, match="time step 7: row 0: diagonal -1 not positive"):
            run_dd(spec, grid, Decomposition(i1_hi=10, i2_lo=6), 1e-8, 50)
        assert runs == [(0, 2), (2, 5)]

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


@st.composite
def manufactured_problems(draw):
    """manufactured_1, an exponential memory kernel with a known solution,
    on a small grid with a random two-window decomposition."""
    spec = catalog_lookup("manufactured_1")
    nx = draw(st.integers(8, 24))
    i2_lo = draw(st.integers(1, nx - 3))
    i1_hi = draw(st.integers(i2_lo + 2, nx - 1))
    grid = build_grid(spec.domain, nx, draw(st.integers(4, 24)))
    return spec, grid, Decomposition(i1_hi=i1_hi, i2_lo=i2_lo)


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
    assert len(hist.c_max) == len(hist.max_update) == sol.sweeps_used
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
        steps = sample_steps(grid, spec.coeffs, spec.bc_left, spec.bc_right)
        bounds = iteration._slab_bounds(grid, c, steps, windows)
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
        # u0 near 0, KPP's unstable state: the gap a slab carries in grows
        # across it, so with every slab stopped at gap <= tol a later one
        # stalls above tol.  The run tightens the slab before it instead,
        # taking up slabs again, and still closes the whole envelope below
        # tol with the chain kept.
        runs = record_slab_runs(monkeypatch)
        spec = kpp(8.0, 0.0, STALL_AMP)
        grid = build_grid(spec.domain, 8, 12)
        tol = 1e-9
        decomp = Decomposition(i1_hi=3, i2_lo=1)
        sol, hist = run_dd(spec, grid, decomp, tol, 500, keep_states=True)
        assert sol.converged and np.max(sol.u_upper - sol.u_lower) <= tol
        assert len(runs) > len(hist.slab_sweeps)
        assert_slab_rules(spec, grid, sol, hist, decomp)
        lo, hi = hist.states[0].u11, hist.states[0].u12
        for prev, nxt in zip(hist.states, hist.states[1:]):
            assert check_monotone_chain(prev, nxt, lo, hi) == []

    def test_a_stall_under_the_floor_tightens_its_predecessor(self, monkeypatch):
        # The run of the test above, whose chain is checked there, stalls
        # and goes back to tighten the slabs before the stalled one with c
        # below 0: at some sweep, every slab sweeping has c < 0 on all its
        # levels.
        runs = record_slab_runs(monkeypatch)
        spec = kpp(8.0, 0.0, STALL_AMP)
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
        # target.  Every slab that starts is followed, those that stop at
        # their start with no sweep among them.
        slabs, events = {}, []
        start, sweep_slab = iteration._start, iteration._sweep_slab

        def targets_and_gaps():
            return {k0: (slab.target, slab.gap) for k0, slab in sorted(slabs.items())}

        def started(slab, *args):
            slabs[slab.k0] = slab
            return start(slab, *args)

        def recorded(slab, *args):
            before = targets_and_gaps()
            out = sweep_slab(slab, *args)
            events.append((slab.k0, out[0], before, targets_and_gaps()))
            return out

        monkeypatch.setattr(iteration, "_start", started)
        monkeypatch.setattr(iteration, "_sweep_slab", recorded)
        resumed, kept = set(), False
        for spec, nx, nt, decomp, tol in (
            (kpp(8.0, 0.0, STALL_AMP), 8, 12, Decomposition(i1_hi=3, i2_lo=1), 1e-9),
            (kpp(8.0, 0.5, STALL_AMP), 64, 64, Decomposition(i1_hi=33, i2_lo=31), 1e-8),
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

    @pytest.mark.parametrize("kind", ["narrow start", "stall"])
    def test_the_stall_test_reads_no_first_sweep(self, monkeypatch, kind):
        # The first sweep of a slab run starts from a state no sweep made
        # (a certified start, or a slab's state on a tighter past), and its
        # update is about the start's width, not what the iteration's
        # contraction gives: a ratio that reads it can stall a slab whose
        # gap still falls.  Here the slab's start is narrow, so its second
        # update is already <= tol and a tenth of its first; the gap then
        # falls by 0.92 a sweep to its target, and the slab is not stalled
        # (a ratio of its first two updates stalls it after sweep 2).  A
        # slab whose gap stays where its carried gap puts it while both
        # branches settle stalls at its third sweep.
        tol = target = 1e-8
        if kind == "narrow start":
            script = [(4.2e-8, 4.1e-8)] + [(3.9e-8 * 0.92**n, 2.9e-9 * 0.92**n) for n in range(40)]
        else:
            script = [(5e-8, 4e-8), (4e-8, 5e-9), (3.9e-8, 2.5e-9), (3.89e-8, 1.25e-9)]
        sweeps = iter(script)
        monkeypatch.setattr(iteration, "_sweep", lambda state, *args: IterationState(
            u1=state.u1, u2=state.u2, sweep_index=state.sweep_index + 1))
        monkeypatch.setattr(iteration, "sweep_metrics", lambda *args: (*next(sweeps), 0.0))
        monkeypatch.setattr(iteration, "refresh_stabilizers", lambda spec, grid, stab, *_: stab)
        spec = desk_logistic()
        grid = build_grid(spec.domain, 8, 4)
        init = init_state(spec, grid)
        stab = compute_stabilizers(spec, grid, init.u11, init.u12)
        slab = iteration._Slab(0, 4, grid, stab, init, init, [], target)
        past = Past.initial(np.stack((np.zeros(9), np.full(9, 1e-9))), grid)  # carries 1e-9
        history = iteration.ConvergenceHistory()
        carried, reason = iteration._sweep_slab(slab, spec, [], past, history, tol, 100, False,
                                                False)
        assert reason is None
        if kind == "narrow start":
            assert carried is None and slab.gap <= target
            assert slab.state.sweep_index == 1 + next(
                n for n, (gap, _) in enumerate(script[1:], 1) if gap <= target)
        else:
            assert carried == 1e-9 and slab.state.sweep_index == 3

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

    def test_a_run_that_fails_after_a_stall_still_returns_bounds(self):
        # Near KPP's unstable state the slabs stall, so a run may start a
        # later slab before a stall sends it back and it then fails on an
        # earlier one: the levels after the failing slab hold that later
        # slab's certified start, not the bracket [0, 1].  Either way the
        # envelope is ordered and brackets the converged run's.
        spec = kpp(8.0, 0.0, STALL_AMP)
        grid = build_grid(spec.domain, 8, 12)
        decomp = Decomposition(i1_hi=3, i2_lo=1)
        ref, _ = run_dd(spec, grid, decomp, 1e-9, 500)
        assert ref.converged
        later = 0
        for max_sweeps in range(1, 23):
            sol, hist = run_dd(spec, grid, decomp, 1e-9, max_sweeps)
            assert not sol.converged
            assert np.all(sol.u_lower <= sol.u_upper)
            assert np.all(sol.u_lower <= ref.u_upper) and np.all(sol.u_upper >= ref.u_lower)
            assert hist.stop_reason.startswith("max_sweeps on slab ")
            k1 = int(hist.stop_reason.rsplit("..", 1)[1])
            if any(k0 >= k1 for k0, *_ in hist.slab_starts):
                later += 1
                assert np.any(sol.u_lower[k1 + 1 :] != 0.0) or np.any(sol.u_upper[k1 + 1 :] != 1.0)
        assert later > 0  # 7 of the 22 runs

    def test_rounding_level_fixed_point_ends_the_run(self, monkeypatch):
        # With dt sup f_u >= 1 backward Euler has two discrete solutions
        # here, u = 0 and another.  u = 0 is the predicted start and
        # certifies, so the run returns it after one sweep per slab.  From
        # the bracket, where a slab starts when its prediction does not
        # certify, the lower branch stays at 0 and the upper one settles on
        # the other solution, so the gap never closes.  The slab's first
        # row is exact and its update falls to rounding level, so the run
        # ends long before max_sweeps and says why.
        spec = kpp(4.0, -1.0, 0.0)
        grid = build_grid(spec.domain, 8, 2)
        decomp = Decomposition(i1_hi=3, i2_lo=1)
        sol, hist = run_dd(spec, grid, decomp, 1e-8, 500)
        assert sol.converged and sol.sweeps_used == 1
        assert np.all(sol.u_lower == 0.0) and np.all(sol.u_upper == 0.0)
        start_from_the_bracket(monkeypatch)
        sol, hist = run_dd(spec, grid, decomp, 1e-8, 500)
        assert not sol.converged and sol.sweeps_used < 120
        assert not any(certified for *_, certified, _ in hist.slab_starts)
        gap = hist.gap_lower_upper[-1]
        assert gap > 0.1 and hist.stop_reason == f"fixed point on slab 0..1 at gap {gap:.3g}"


def branch(past, j):
    """Branch j of a Past of both branches."""
    return dataclasses.replace(past, u=past.u[j], g=past.g[j])


def assert_start_certified(spec, grid, start, past):
    """The stacked start (lower, upper) passes the residual signs at slack 0
    on the slab grid with the past of each branch."""
    for j, kind in ((0, "sub"), (1, "super")):
        report = check_bracket(spec, grid, start[j], kind, slack=0.0, past=branch(past, j))
        assert report.passed, (kind, report)


# KPP with advection and a Robin end whose first slab, from its carried
# guess alone, certified only at the bracket's width.
KPP_WIDE_START = (kpp(8.0, 0.5, 0.5), build_grid(kpp(8.0, 0.5, 0.5).domain, 64, 64),
                  default_decomposition(64))


class TestPredictedStart:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.one_of(small_problems(), manufactured_problems()))
    @example(KPP_WIDE_START)
    def test_every_certified_start_is_a_bracket_inside_the_global_one(self, case):
        # Every start the run takes from its refined prediction is a
        # discrete subsolution (lower) and supersolution (upper) at slack 0
        # on its slab and against its past, with row 0 the past's last
        # row, and lies inside the global bracket.  History counts the
        # residual evaluations of each start and the marches that refined
        # its guess.
        spec, grid, decomp = case
        starts, evaluations, refinements = [], [], []
        predict = iteration._predicted_start

        def recorded(spec_, slab, past, rate, samples, strip):
            bracket = slab.bracket.u1.copy()
            start, count, refined = predict(spec_, slab, past, rate, samples, strip)
            evaluations.append(count)
            refinements.append(refined)
            if start is not None:
                starts.append((slab.k0, slab.k1, slab.grid, past, start.copy(), bracket))
            return start, count, refined

        with mock.patch.object(iteration, "_predicted_start", recorded):
            sol, hist = run_dd(spec, grid, decomp, 1e-9, 500, abort_on_chain_violation=True)
        assert sol.converged
        assert [k0 for k0, *_ in starts] == [k0 for k0, _, certified, _ in hist.slab_starts
                                             if certified]
        assert hist.start_evaluations == evaluations
        assert repr([(marches, update) for *_, marches, update in hist.predictions]) == repr(
            refinements)
        # One on the guess, then up to 1 + START_WIDENINGS on candidates.
        assert all(1 <= count <= 2 + iteration.START_WIDENINGS for count in evaluations)
        assert all(0 <= marches <= iteration.PREDICTOR_MARCHES for marches, _ in refinements)
        init = init_state(spec, grid)
        for k0, k1, levels, past, start, bracket in starts:
            np.testing.assert_array_equal(bracket[:, 1:], init.u1[:, k0 + 1 : k1 + 1])
            np.testing.assert_array_equal(start[:, 0], past.u[:, -1])
            # The past's two branches are ordered only to rounding once
            # their slab has converged, as the chain check allows.
            assert np.all(start[0] <= start[1] + CHAIN_SLACK)
            assert np.all(bracket[0, 1:] <= start[:, 1:]) and np.all(start[:, 1:] <= bracket[1, 1:])
            assert_start_certified(spec, levels, start, past)

    def test_refined_guess_has_smaller_wrong_signed_residuals(self):
        # On manufactured_1 at the benchmark's 128x256, the two marches of
        # every slab cut the largest wrong-signed residual of its guess
        # (above 0 for the lower branch, below 0 for the upper one, at an
        # interior node or an end row) by at least four orders of
        # magnitude: 5.5e6 and more, measured.  Every slab then sweeps
        # once.
        measured = []
        refine = iteration._refine

        def wrong(spec, grid, past, guess):
            interior, ends, _ = bracket_residuals(spec, grid, guess, past)
            return max(float(np.max(interior[0])), float(np.max(-interior[1])),
                       float(np.max(ends[0])), float(np.max(-ends[1])), 0.0)

        def recorded(spec_, slab, past, guess, strip):
            carried = wrong(spec_, slab.grid, past, guess)
            refined = refine(spec_, slab, past, guess, strip)
            measured.append((carried, wrong(spec_, slab.grid, past, refined[0]), refined[1]))
            return refined

        spec = catalog_lookup("manufactured_1")
        grid = build_grid(spec.domain, 128, 256)
        with mock.patch.object(iteration, "_refine", recorded):
            sol, hist = run_dd(spec, grid, default_decomposition(128), 1e-8, 200,
                               abort_on_chain_violation=True)
        assert sol.converged and sol.sweeps_used == 1 and len(measured) == 16
        for carried, refined, marches in measured:
            assert marches == iteration.PREDICTOR_MARCHES
            assert refined * 1e4 <= carried

    @pytest.mark.parametrize("failure", ["f_u", "march"])
    def test_a_guess_the_marches_cannot_refine_keeps_the_carried_guess(self, monkeypatch,
                                                                        failure):
        # Where f_u at the guess's midpoint is not finite, or the march
        # fails (here: it reports a non-finite solution), the predictor
        # makes no march and certifies the carried guess: the run is
        # bitwise the one with no marches, and raises nothing.
        spec = kpp(8.0, 0.5, 0.5)
        grid = build_grid(spec.domain, 32, 32)
        decomp = default_decomposition(32)
        with monkeypatch.context() as unrefined:
            unrefined.setattr(iteration, "PREDICTOR_MARCHES", 0)
            want, want_hist = run_dd(spec, grid, decomp, 1e-8, 200, abort_on_chain_violation=True)
        if failure == "f_u":
            f_u_values = iteration.f_u_values

            def non_finite(reaction, t, x, eta, eps):
                values = f_u_values(reaction, t, x, eta, eps)
                # The marches ask at a midpoint field, the push's sup at rows.
                return np.where(eta > 0.3, np.nan, values) if eta.ndim == 2 else values

            monkeypatch.setattr(iteration, "f_u_values", non_finite)
        else:
            march = iteration.march_window

            def failing(op, *args, **kwargs):
                if op.window == Subrange(0, grid.nx):
                    raise FloatingPointError("non-finite solution at time step 1")
                return march(op, *args, **kwargs)

            monkeypatch.setattr(iteration, "march_window", failing)
        sol, hist = run_dd(spec, grid, decomp, 1e-8, 200, abort_on_chain_violation=True)
        assert sol.converged
        assert all(marches == 0 for *_, marches, _ in hist.predictions)
        np.testing.assert_array_equal(sol.u_lower, want.u_lower)
        np.testing.assert_array_equal(sol.u_upper, want.u_upper)
        assert hist.slab_sweeps == want_hist.slab_sweeps
        assert repr(hist.slab_starts) == repr(want_hist.slab_starts)

    def test_a_start_that_fails_certification_starts_from_the_bracket(self):
        # KPP whose growth rate falls from 12 to 2 at t = 0.35, at dt = 0.1:
        # while dt sup f_u >= 1 no push makes the guess a bracket, so the
        # first three slabs' predictions fail and they start from the
        # global bracket; the later ones certify.  The envelope still
        # matches the single-domain oracle.
        def lam(t):
            return np.where(t < 0.35, 12.0, 2.0)

        falling = Reaction(f=lambda t, x, u: lam(t) * u * (1.0 - u),
                           f_u=lambda t, x, u: lam(t) * (1.0 - 2.0 * u))
        spec = dataclasses.replace(kpp(8.0, 0.5, 0.5), reaction=falling)
        grid = build_grid(spec.domain, 16, 10)
        tol = 1e-9
        sol, hist = run_dd(spec, grid, default_decomposition(16), tol, 300,
                           abort_on_chain_violation=True, keep_states=True)
        oracle, _ = run_single_domain(spec, grid, tol, 300)
        assert sol.converged and oracle.converged
        assert [certified for *_, certified, _ in hist.slab_starts] == [False] * 3 + [True] * 7
        init, start = init_state(spec, grid), hist.states[0]
        for k0, k1, certified, width in hist.slab_starts:
            rows = slice(k0 + 1, k1 + 1)
            lo, hi = init.u11[rows], init.u12[rows]
            if certified:
                assert np.all(lo <= start.u11[rows]) and np.all(start.u12[rows] <= hi)
                assert width < np.max(hi - lo)
            else:
                np.testing.assert_array_equal(start.u11[rows], lo)
                np.testing.assert_array_equal(start.u12[rows], hi)
                assert width == np.max(hi - lo)
        assert np.max(np.abs(sol.u - oracle.u)) <= tol + 2e-10

    def test_a_reaction_without_f_u_predicts_by_differences(self):
        # With no analytic f_u, the sup f_u that sizes the push is a
        # centered difference of the reaction, as the stabilizer's is: the
        # starts still certify, and the envelope matches the run with f_u.
        spec = desk_logistic()
        bare = dataclasses.replace(spec, reaction=Reaction(f=spec.reaction.f))
        grid = build_grid(spec.domain, 32, 32)
        decomp = Decomposition(i1_hi=20, i2_lo=12)
        tol = 1e-9
        sol, _ = run_dd(spec, grid, decomp, tol, 300, abort_on_chain_violation=True)
        bare_sol, hist = run_dd(bare, grid, decomp, tol, 300, abort_on_chain_violation=True)
        assert sol.converged and bare_sol.converged
        assert all(certified for *_, certified, _ in hist.slab_starts)
        assert np.max(np.abs(bare_sol.u - sol.u)) <= tol + 2e-10

    def test_a_later_start_passes_against_its_tightened_past(self, monkeypatch):
        # After a stall retarget, the slabs after the one the run resumes at
        # are taken up again on a tighter past: the lower branch's past
        # rises and the upper one's falls.  Their starts, certified on the
        # past they first ran on, still pass against the tighter one, as
        # the lower branch's first row and memory term only rise (the
        # monotone-memory argument of _run).
        first, checked = {}, []
        sweep_slab = iteration._sweep_slab

        def recorded(slab, spec_, ops, past, *args):
            if slab.k0 not in first:
                first[slab.k0] = (slab.certified, slab.state.u1.copy(), past)
            else:
                certified, start, before = first[slab.k0]
                if certified and past is not before:
                    assert np.all(past.u[0, -1] >= before.u[0, -1])
                    assert np.all(past.u[1, -1] <= before.u[1, -1])
                    assert np.any(past.u[:, -1] != before.u[:, -1])
                    assert_start_certified(spec_, slab.grid, start, past)
                    checked.append(slab.k0)
            return sweep_slab(slab, spec_, ops, past, *args)

        monkeypatch.setattr(iteration, "_sweep_slab", recorded)
        spec = kpp(8.0, 0.0, STALL_AMP)
        grid = build_grid(spec.domain, 8, 12)
        sol, hist = run_dd(spec, grid, Decomposition(i1_hi=3, i2_lo=1), 1e-9, 500,
                           abort_on_chain_violation=True)
        assert sol.converged and checked


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
        for count, (*_, certified, width) in zip(sweeps, hist.slab_starts):
            slab = gaps[start : start + count]
            if count == 0:  # stopped at its certified start, no wider than tol
                assert certified and width <= tol
            else:
                assert all(gap > tol for gap in slab[:-1]) and slab[-1] <= tol
            start += count


def level_of(grid):
    """The strip level of a slab grid's first time, on the strip grid."""
    levels = {float(t): k for k, t in enumerate(grid.ts)}
    return lambda slab_grid: levels[float(slab_grid.ts[0])]


def record_stops(monkeypatch):
    """(grid, past, start, target) of every slab that stops at its start,
    taken as the stop test passes it."""
    stops = []
    stops_at_start = iteration._stops_at_start

    def recorded(slab, past, history):
        stop = stops_at_start(slab, past, history)
        if stop:
            stops.append((slab.grid, past, slab.state.u1.copy(), slab.target))
        return stop

    monkeypatch.setattr(iteration, "_stops_at_start", recorded)
    return stops


class TestStopAtStart:
    def test_a_start_that_meets_its_target_takes_no_refresh_operators_or_sweep(self, monkeypatch):
        # On memory_dd every slab's certified start is narrower than tol.
        # Slab 0 sweeps once, as the run has recorded no sweep yet; every
        # later slab stops at its start: no refresh of its stabilizer, no
        # build or refactor of its window operators and no sweep over them,
        # while its predictor's marches still refactor the whole-strip
        # operator.  The past a stopped slab hands on is its start carried
        # on by Past.extend.
        spec = catalog_lookup("manufactured_1")
        grid = build_grid(spec.domain, 128, 256)
        decomp = default_decomposition(128)
        windows = tuple(iteration._dd_windows(grid, decomp))
        level = level_of(grid)
        builds, refactors = record_builds(monkeypatch), record_refactors(monkeypatch)
        stops = record_stops(monkeypatch)
        refreshed, swept, handed_on = [], [], {}
        refresh, sweep, extend = iteration.refresh_stabilizers, iteration._sweep, Past.extend

        def refreshed_on(spec_, slab_grid, *args):
            refreshed.append(level(slab_grid))
            return refresh(spec_, slab_grid, *args)

        def swept_over(state, spec_, slab_grid, stab, ops, past):
            swept.append((level(slab_grid), tuple(op.window for op in ops)))
            return sweep(state, spec_, slab_grid, stab, ops, past)

        def extended(past, kernel, u, slab_grid):
            handed_on[level(slab_grid)] = u.copy()
            return extend(past, kernel, u, slab_grid)

        monkeypatch.setattr(iteration, "refresh_stabilizers", refreshed_on)
        monkeypatch.setattr(iteration, "_sweep", swept_over)
        monkeypatch.setattr(Past, "extend", extended)
        sol, hist = run_dd(spec, grid, decomp, 1e-8, 200, abort_on_chain_violation=True)
        assert sol.converged and sol.sweeps_used == 1 and hist.level_solves == 16
        assert [sweeps for *_, sweeps in hist.slab_sweeps] == [1] + [0] * 15
        assert all(certified and width <= 1e-8 for *_, certified, width in hist.slab_starts)
        stopped = {k0 for k0, _, sweeps in hist.slab_sweeps if sweeps == 0}
        assert refreshed == [0]
        assert [k0 for k0, ops in swept if ops == windows] == [0]
        assert [(window, k0) for window, k0, _ in builds if window in windows] == [
            (window, 0) for window in windows]
        assert not any(window in windows for window, *_ in refactors)
        strip = Subrange(0, grid.nx)
        assert {k0 for window, k0, _ in refactors if window == strip} >= stopped
        assert {k0 for k0, ops in swept if ops == (strip,)} == stopped | {0}
        assert [level(slab_grid) for slab_grid, *_ in stops] == sorted(stopped)
        for slab_grid, _, start, _ in stops[:-1]:  # the last slab hands on no past
            np.testing.assert_array_equal(handed_on[level(slab_grid)], start)

    def test_a_run_whose_every_start_meets_tol_records_one_sweep(self, tmp_path):
        # From u0 = 0 every slab's predicted start u = 0 certifies at width
        # 0.  The first slab still sweeps once, so the history has one
        # entry and the CLI's history.csv one row; every later slab stops at
        # its start.
        from monodd import cli

        spec = kpp(6.0, 0.0, 0.0)
        grid = build_grid(spec.domain, 8, 12)
        sol, hist = run_dd(spec, grid, Decomposition(i1_hi=3, i2_lo=1), 1e-9, 50)
        assert sol.converged and sol.sweeps_used == 1 and hist.stop_reason == "converged"
        assert all(certified and width == 0.0 for *_, certified, width in hist.slab_starts)
        k0, k1, sweeps = hist.slab_sweeps[0]
        assert k0 == 0 and sweeps == 1 and len(hist.slab_sweeps) == 7
        assert all(sweeps == 0 for *_, sweeps in hist.slab_sweeps[1:])
        assert hist.level_solves == k1
        assert len(hist.gap_lower_upper) == len(hist.c_max) == 1
        path = tmp_path / "history.csv"
        cli._write_history_csv(str(path), hist)
        assert len(path.read_text().splitlines()) == 2

    def test_a_stopped_slab_a_stall_takes_up_again_is_not_predicted_again(self, monkeypatch):
        # Near KPP's unstable state a slab stops at its start, a later slab
        # stalls, and the retarget takes the stopped slab up again: it
        # sweeps on from its start, refreshing its stabilizer on it just
        # before it takes its operators, and is never predicted again.
        spec = kpp(6.0, 0.0, STALL_AMP)
        grid = build_grid(spec.domain, 8, 12)
        level = level_of(grid)
        predicted, events = [], []
        predict, stops_at_start = iteration._predicted_start, iteration._stops_at_start
        refresh, sweep_slab = iteration.refresh_stabilizers, iteration._sweep_slab

        def predicted_for(spec_, slab, *args):
            predicted.append(slab.k0)
            return predict(spec_, slab, *args)

        def stop_test(slab, *args):
            stop = stops_at_start(slab, *args)
            if stop:
                events.append(("stop", slab.k0))
            return stop

        def refreshed_on(spec_, slab_grid, *args):
            events.append(("refresh", level(slab_grid)))
            return refresh(spec_, slab_grid, *args)

        def swept(slab, *args):
            events.append(("sweep", slab.k0))
            return sweep_slab(slab, *args)

        monkeypatch.setattr(iteration, "_predicted_start", predicted_for)
        monkeypatch.setattr(iteration, "_stops_at_start", stop_test)
        monkeypatch.setattr(iteration, "refresh_stabilizers", refreshed_on)
        monkeypatch.setattr(iteration, "_sweep_slab", swept)
        sol, hist = run_dd(spec, grid, Decomposition(i1_hi=3, i2_lo=1), 1e-9, 500,
                           abort_on_chain_violation=True)
        assert sol.converged and np.max(sol.u_upper - sol.u_lower) <= 1e-9
        assert predicted == [k0 for k0, *_ in hist.slab_sweeps]
        resumed = [k0 for kind, k0 in events if kind == "stop" and ("sweep", k0) in events]
        assert resumed
        for k0 in resumed:
            first = events.index(("sweep", k0))
            assert events.index(("stop", k0)) < first and events[first - 1] == ("refresh", k0)
            assert dict((k, s) for k, _, s in hist.slab_sweeps)[k0] > 0

    @pytest.mark.parametrize("case,stops", [
        ("meets its target", True),
        ("carries a gap above its target", False),
        ("is out of order", False),
        ("is not certified", False),
        ("comes before any sweep", False),
    ])
    def test_the_stop_test_at_the_start(self, case, stops):
        # A slab stops at its start where the start is certified, its gap
        # over its levels and its carried first row is <= its target, its
        # branches are in order to CHAIN_SLACK, and the run has recorded a
        # sweep; each case here breaks one condition.  A slab that stops
        # takes the start's gap as its own.
        target = 1e-8
        spec = desk_logistic()
        grid = build_grid(spec.domain, 8, 4)
        init = init_state(spec, grid)
        stab = compute_stabilizers(spec, grid, init.u11, init.u12)
        start = np.stack((np.full((5, 9), 0.5), np.full((5, 9), 0.5 + 4e-9)))
        if case == "is out of order":
            start[0, 2, 3] = start[1, 2, 3] + 2.0 * CHAIN_SLACK
        state = IterationState(u1=start, u2=start)
        slab = iteration._Slab(0, 4, grid, stab, init, state, [], target,
                               width=float(np.max(start[1, 1:] - start[0, 1:])),
                               certified=case != "is not certified")
        carried = 2e-8 if case == "carries a gap above its target" else 6e-9
        past = Past.initial(np.stack((np.full(9, 0.5), np.full(9, 0.5 + carried))), grid)
        history = iteration.ConvergenceHistory()
        if case != "comes before any sweep":
            history.record(0, 1e-9, 1e-9, 0.0, 1.0)
        assert iteration._stops_at_start(slab, past, history) is stops
        carried = float(np.max(past.u[1, -1] - past.u[0, -1]))
        assert slab.gap == (carried if stops else math.inf)

    @pytest.mark.parametrize("spec,nx,nt,decomp,tol,kept_slabs", [
        pytest.param(desk_logistic(), 64, 128, default_decomposition(64), 1e-8, 4, id="logistic"),
        pytest.param(kpp(6.0, 0.0, STALL_AMP), 8, 12, Decomposition(i1_hi=3, i2_lo=1), 1e-9, 0,
                     id="stall"),
    ])
    def test_a_stopped_slab_is_a_certified_bracket_and_keeps_the_chain(
            self, monkeypatch, spec, nx, nt, decomp, tol, kept_slabs):
        # Every slab that stops at its start stops on a pair certified at
        # slack 0 against its past, no wider than its target (carried gap
        # included) and in order; one that no stall takes up again (on the
        # logistic run, 4 of its 8 slabs; on the stall run, the one slab
        # that stops is taken up again) ends on it, and its start stands in
        # history.states for every sweep.  The chain holds across them
        # all.
        stops = record_stops(monkeypatch)
        grid = build_grid(spec.domain, nx, nt)
        sol, hist = run_dd(spec, grid, decomp, tol, 500, abort_on_chain_violation=True,
                           keep_states=True)
        assert sol.converged and stops
        assert len(hist.states) == sol.sweeps_used + 1
        for slab_grid, past, start, target in stops:
            assert_start_certified(spec, slab_grid, start, past)
            carried = np.max(past.u[1, -1] - past.u[0, -1])
            assert max(np.max(start[1] - start[0]), carried) <= target
            assert np.min(start[1] - start[0]) >= -CHAIN_SLACK
        level = level_of(grid)
        kept = {k0: start for k0, _, sweeps in hist.slab_sweeps if sweeps == 0
                for slab_grid, _, start, _ in stops if level(slab_grid) == k0}
        assert len(kept) == kept_slabs
        for k0, start in kept.items():
            rows = slice(k0 + 1, k0 + start.shape[1])
            np.testing.assert_array_equal(sol.u_lower[rows], start[0, 1:])
            np.testing.assert_array_equal(sol.u_upper[rows], start[1, 1:])
            for state in hist.states:
                np.testing.assert_array_equal(state.u1[:, rows], start[:, 1:])
        lo, hi = hist.states[0].u11, hist.states[0].u12
        for prev, nxt in zip(hist.states, hist.states[1:]):
            assert check_monotone_chain(prev, nxt, lo, hi) == []


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
            assert check_monotone_chain(prev, nxt, lo, hi) == []
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
        # Each slab starts from the initial-bracket c on its levels.  One
        # whose start certifies lowers it on that start and sweeps with it:
        # its c_max, the largest c of its steps (levels k0+1..k1), is the
        # same on each of its sweeps.  With the prediction patched out,
        # every slab starts from the bracket and is refreshed after its
        # sweeps 1, 2, 4, ...: its c_max can only fall, and only at the
        # sweeps that follow a refresh.  History entry n holds the largest
        # c_max of the slabs that ran a sweep n + 1.
        used = []
        sweep = iteration._sweep

        def recorded(state, spec, grid, stab, ops, pasts):
            if len(ops) > 1:  # not a march of the predictor, on one whole-strip window
                used.append((ops[0].k0, float(np.max(stab.c_total[1:]))))
            return sweep(state, spec, grid, stab, ops, pasts)

        monkeypatch.setattr(iteration, "_sweep", recorded)
        spec = desk_logistic()
        grid = build_grid(spec.domain, 32, 32)
        init = init_state(spec, grid)
        stab = compute_stabilizers(spec, grid, init.u11, init.u12)
        for predicted in (True, False):
            if not predicted:
                start_from_the_bracket(monkeypatch)
            used.clear()
            sol, hist = run_dd(spec, grid, Decomposition(i1_hi=20, i2_lo=12), 1e-10, 200,
                               keep_states=True)
            assert sol.converged
            start = hist.states[0]
            per_slab = {k0: [c for k, c in used if k == k0] for k0, _, _ in hist.slab_sweeps}
            assert len(per_slab) > 1
            assert [len(c) for c in per_slab.values()] == [s for *_, s in hist.slab_sweeps]
            for (k0, k1, _), (*_, certified, _), c_max in zip(
                hist.slab_sweeps, hist.slab_starts, per_slab.values()
            ):
                assert certified == predicted
                first = stab.levels(k0, k1)
                if certified:  # c is pointwise, so rows k0+1..k1 read the start's alone
                    first = volterra.refresh_stabilizers(
                        spec, grid.levels(k0, k1), first, start.u11[k0 : k1 + 1],
                        start.u12[k0 : k1 + 1]
                    )
                    assert c_max == [np.max(first.c_total[1:])] * len(c_max)
                    continue
                assert c_max[0] == np.max(first.c_total[1:])
                assert len(c_max) > 4 and c_max[-1] < c_max[0]
                for n in range(1, len(c_max)):
                    if n & (n - 1):  # no refresh between sweeps n and n + 1
                        assert c_max[n] == c_max[n - 1]
                    else:
                        assert c_max[n] <= c_max[n - 1]
            assert len(hist.c_max) == sol.sweeps_used
            assert hist.c_max == [
                max(c[n] for c in per_slab.values() if n < len(c))
                for n in range(sol.sweeps_used)
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

    def test_a_certified_slab_refreshes_once_before_it_takes_its_operators(self, monkeypatch):
        # Near KPP's unstable state slabs stop at their start, stall, and
        # are taken up again.  Over the whole run, every slab whose start
        # certifies and that sweeps refreshes its stabilizer exactly once,
        # on that start, just before it first takes its window operators;
        # a slab taken up again sweeps on with the c it had.  No slab that
        # never sweeps refreshes.
        spec = kpp(6.0, 0.0, STALL_AMP)
        grid = build_grid(spec.domain, 8, 12)
        decomp = Decomposition(i1_hi=3, i2_lo=1)
        windows = tuple(iteration._dd_windows(grid, decomp))
        level = level_of(grid)
        events = []
        refresh, operators = iteration.refresh_stabilizers, iteration._operators

        def refreshed_on(spec_, slab_grid, *args):
            events.append(("refresh", level(slab_grid)))
            return refresh(spec_, slab_grid, *args)

        def taken(spec_, cache, k0, slab_grid, samples, window_set, c_field):
            if window_set == windows:  # not the predictor's whole strip
                events.append(("operators", k0))
            return operators(spec_, cache, k0, slab_grid, samples, window_set, c_field)

        monkeypatch.setattr(iteration, "refresh_stabilizers", refreshed_on)
        monkeypatch.setattr(iteration, "_operators", taken)
        sol, hist = run_dd(spec, grid, decomp, 1e-9, 500, abort_on_chain_violation=True)
        assert sol.converged
        swept = [k0 for k0, _, sweeps in hist.slab_sweeps if sweeps > 0]
        taken_up = [k0 for kind, k0 in events if kind == "operators"]
        assert len(taken_up) > len(set(taken_up))  # a slab was taken up again
        assert all(certified for *_, certified, _ in hist.slab_starts)
        assert sorted(k0 for kind, k0 in events if kind == "refresh") == swept
        for k0 in swept:
            first = events.index(("operators", k0))
            assert events[first - 1] == ("refresh", k0)


class TestFlooredStabilizer:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(small_problems())
    def test_m_matrices_monotone_F1_and_chain(self, case):
        # c goes below 0 where f grows on the envelope, down to -1/(2 dt).
        # Every step matrix a run builds or refactors, for its sweeps or
        # for the marches that refine a slab's guess, is still an M-matrix,
        # step by step, with interior rows dominant by at least 1/(2 dt);
        # F1 = c u + f + g is nondecreasing in u between ordered fields
        # sampled in the envelope each c was computed or refreshed on; and
        # the chain holds on every sweep.
        spec, grid, decomp = case
        factored, stabilized = [], []
        build, refactor = iteration.build_window_operator, iteration.refactor_window_operator
        compute, refresh = iteration.compute_stabilizers, iteration.refresh_stabilizers

        def built(slab_grid, window, coeffs, c, left, right, k0=0, samples=None):
            op = build(slab_grid, window, coeffs, c, left, right, k0, samples=samples)
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
            nt = len(c) - 1  # the steps c covers, and that it factored
            sub, diag, sup = op.sub[:nt], op.diag[:nt].copy(), op.sup[:nt]
            diag[:, 1:-1] += c[1:, op.window.lo + 1 : op.window.hi]
            for k in range(nt):
                ok, diagnostic = m_matrix_check(sub[k], diag[k], sup[k])
                assert ok, diagnostic
            excess = diag - (np.abs(sub) + np.abs(sup))
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
            assert check_monotone_chain(prev, nxt, lo, hi) == []
