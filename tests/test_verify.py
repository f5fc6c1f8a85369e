import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from monodd import (
    Decomposition,
    IterationState,
    VolterraKernel,
    build_grid,
    catalog_lookup,
    check_bracket,
    check_monotone_chain,
    eval_g_row,
    m_matrix_check,
    order_study,
    run_dd,
    sample_field,
)

from monodd.verify import sweep_metrics

from conftest import desk_logistic
from reference import sweep_metrics_reference


class TestCheckBracket:
    def test_logistic_subsolution_zero(self):
        spec = desk_logistic()
        grid = build_grid(spec.domain, 16, 16)
        report = check_bracket(spec, grid, lambda t, x: 0.0 * x, "sub")
        assert report.passed

    def test_logistic_supersolution_level(self):
        # rho = 1 + kappa/lam makes 0 >= lam rho(1-rho) + kappa rho hold
        spec = desk_logistic()
        grid = build_grid(spec.domain, 16, 16)
        report = check_bracket(spec, grid, lambda t, x: 1.5 + 0.0 * x, "super")
        assert report.passed

    def test_supersolution_below_initial_peak(self):
        spec = desk_logistic()  # u0 peak sigma = 0.5
        grid = build_grid(spec.domain, 16, 16)
        report = check_bracket(spec, grid, lambda t, x: 0.1 + 0.0 * x, "super")
        assert not report.passed
        value, i = report.worst_initial
        assert value == pytest.approx(0.1 - 0.5, abs=1e-12)
        assert grid.xs[i] == pytest.approx(0.5)

    def test_broken_subsolution_above_initial(self):
        spec = catalog_lookup("linear_heat")
        grid = build_grid(spec.domain, 16, 8)
        report = check_bracket(spec, grid, lambda t, x: 0.5 + 0.0 * x, "sub")
        assert not report.passed

    def test_broken_supersolution_interior(self):
        # level 1 is far below the manufactured forcing peak
        spec = catalog_lookup("manufactured_1")
        grid = build_grid(spec.domain, 16, 16)
        report = check_bracket(spec, grid, lambda t, x: 1.0 + 0.0 * x, "super")
        assert not report.passed
        assert report.worst_interior[0] < 0

    @pytest.mark.parametrize("generic", [False, True])
    def test_interior_matches_row_by_row_reference(self, generic):
        spec = catalog_lookup("manufactured_1")
        if generic:
            kernel = VolterraKernel(g0=spec.kernel.g0, dg0_deta1=spec.kernel.dg0_deta1)
            spec = type(spec)(**{**spec.__dict__, "kernel": kernel})
        grid = build_grid(spec.domain, 16, 24)
        rng = np.random.default_rng(8)
        U = sample_field(spec.exact, grid) + 0.01 * rng.standard_normal((25, 17))
        report = check_bracket(spec, grid, U, "super")
        # The residual of each level from the generic trapezoid row, as a loop.
        worst = (np.inf, -1, -1)
        dx, dt, xs = grid.dx, grid.dt, grid.xs
        for k in range(1, grid.nt + 1):
            t = grid.ts[k]
            ut = (U[k, 1:-1] - U[k - 1, 1:-1]) / dt
            uxx = (U[k, 2:] - 2.0 * U[k, 1:-1] + U[k, :-2]) / (dx * dx)
            f = spec.reaction.f(t, xs[1:-1], U[k, 1:-1])
            res = ut - uxx - f - eval_g_row(spec.kernel, U, k, grid)[1:-1]
            i = int(np.argmin(res))
            if res[i] < worst[0]:
                worst = (float(res[i]), k, i + 1)
        assert report.worst_interior[1:] == worst[1:]
        assert report.worst_interior[0] == pytest.approx(worst[0], rel=1e-12, abs=1e-12)

    def test_bad_kind(self):
        spec = desk_logistic()
        grid = build_grid(spec.domain, 8, 4)
        with pytest.raises(ValueError, match="kind"):
            check_bracket(spec, grid, lambda t, x: 0.0 * x, "upper")


def state_of(u11, u12, u21, u22):
    return IterationState(u1=np.stack((u11, u12)), u2=np.stack((u21, u22)))


class TestCheckMonotoneChain:
    def test_all_zero_states(self):
        z = np.zeros((3, 5))
        s = state_of(z, z, z, z)
        assert check_monotone_chain(s, s, z, z) == []

    def test_handmade_violation(self):
        z = np.zeros((3, 5))
        ones = np.ones((3, 5))
        bad12 = ones.copy()
        bad12[1, 2] = -2.0  # u11 > u12 there
        prev = state_of(z, ones, z, ones)
        nxt = state_of(z, bad12, z, ones)
        violations = check_monotone_chain(prev, nxt, z, ones)
        assert len(violations) == 1
        name, k, i, margin = violations[0]
        assert name == "u11(n+1) <= u12(n+1)" and (k, i) == (1, 2) and margin == -2.0

    def test_grid_mismatch(self):
        z = np.zeros((3, 5))
        s = state_of(z, z, z, z)
        with pytest.raises(ValueError, match="grid mismatch"):
            check_monotone_chain(s, s, np.zeros((3, 6)), np.zeros((3, 6)))


@st.composite
def chained_states(draw):
    """(prev, nxt, u_hat, u_tilde) on a random small grid: the eight fields
    of the chain u_hat <= u11(n) <= u21(n) <= u11(n+1) <= u12(n+1) <= u22(n)
    <= u12(n) <= u_tilde and nxt's u21 and u22, drawn from a few values,
    both signed zeros and a NaN so that ties occur and the order in which
    values are folded shows; the chain fields are sorted into order or
    not, and some nodes of a sorted chain then get two of its fields
    swapped, breaking the links between them."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    values = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, float("nan")]), st.floats(-4.0, 4.0, width=32)
    )
    fields = draw(arrays(np.float64, (10, rows, cols), elements=values))
    chain = fields[:8]
    if draw(st.booleans()):
        chain.sort(axis=0)
        for _ in range(draw(st.integers(0, 3))):
            a, b = draw(st.lists(st.integers(0, 7), min_size=2, max_size=2, unique=True))
            k, i = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
            chain[[a, b], k, i] = chain[[b, a], k, i]
    u_hat, u11, u21, u11n, u12n, u22, u12, u_tilde = chain
    return (
        state_of(u11, u12, u21, u22),
        state_of(u11n, u12n, fields[8], fields[9]),
        u_hat,
        u_tilde,
    )


class TestSweepMetrics:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(chained_states())
    def test_equal_to_the_reference(self, case):
        got = sweep_metrics(*case)
        want = sweep_metrics_reference(*case)
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_bitwise_equal_to_separate_passes(self):
        # Real sweeps, random fields with violated links, identical states
        # (every difference +0.0, or -0.0 where -0.0 meets +0.0) and a NaN.
        spec = desk_logistic()
        grid = build_grid(spec.domain, 16, 8)
        _, hist = run_dd(spec, grid, Decomposition(i1_hi=10, i2_lo=6), 1e-8, 50, keep_states=True)
        lo, hi = hist.states[0].u11, hist.states[0].u12
        cases = [(a, b, lo, hi) for a, b in zip(hist.states, hist.states[1:])]
        rng = np.random.default_rng(9)
        rand = [state_of(*rng.standard_normal((4, 9, 17))) for _ in range(3)]
        cases += [(rand[0], rand[1], rand[2].u11, rand[2].u12)]
        z, nz = np.zeros((9, 17)), np.full((9, 17), -0.0)
        cases += [(state_of(z, z, z, z), state_of(z, z, z, z), z, z)]
        cases += [(state_of(nz, z, nz, z), state_of(z, nz, z, nz), nz, z)]
        with_nan = rand[1].u1.copy()
        with_nan[1, 4, 5] = np.nan
        cases += [(rand[0], IterationState(u1=with_nan, u2=rand[1].u2), lo, hi)]
        for prev, nxt, u_hat, u_tilde in cases:
            got = sweep_metrics(prev, nxt, u_hat, u_tilde)
            want = sweep_metrics_reference(prev, nxt, u_hat, u_tilde)
            assert [v.hex() for v in got] == [v.hex() for v in want]


class TestMMatrixCheck:
    def row(self, sub, diag, sup):
        return np.array([float(sub)]), np.array([float(diag)]), np.array([float(sup)])

    def test_dominant_row(self):
        ok, _ = m_matrix_check(*self.row(-4, 9, -4))
        assert ok

    def test_dominance_fails(self):
        ok, diag = m_matrix_check(*self.row(-4, 7, -4))
        assert not ok and "dominance" in diag

    def test_sign_fails(self):
        ok, diag = m_matrix_check(*self.row(1, 9, -4))
        assert not ok and "off-diagonal" in diag

    def test_nonpositive_diagonal(self):
        ok, diag = m_matrix_check(*self.row(-1, 0, -1))
        assert not ok and "diagonal" in diag


class TestOrderStudy:
    def test_single_grid_no_orders(self):
        spec = catalog_lookup("linear_heat")
        result = order_study(spec, [(16, 64)], 1e-9)
        assert result.orders == ()
        assert len(result.errors) == 1

    def test_requires_exact_solution(self):
        spec = desk_logistic()
        with pytest.raises(ValueError, match="exact"):
            order_study(spec, [(16, 16)], 1e-8)

    def test_nonconverged_raises(self):
        spec = catalog_lookup("manufactured_1")
        with pytest.raises(RuntimeError, match="did not converge"):
            order_study(spec, [(16, 16)], 1e-12, max_sweeps=1)

    def test_small_refinement(self):
        spec = catalog_lookup("manufactured_1")
        result = order_study(spec, [(16, 16), (32, 32)], 1e-8)
        assert len(result.orders) == 1
        assert result.orders[0] > 0.8
