import numpy as np
import pytest

from monodd import (
    BoundaryCondition,
    EllipticCoefficients,
    SpaceTimeDomain,
    Subrange,
    build_grid,
    catalog_lookup,
    m_matrix_check,
)
from monodd.discretization import (
    MMatrixViolation,
    ZeroPivotError,
    build_window_operator,
    march_window,
    refactor_window_operator,
)

from reference import (
    DirichletRow,
    RobinRow,
    TridiagonalSystem,
    assemble_step,
    per_step_factors,
    per_step_march,
    thomas_solve,
)

CONST = EllipticCoefficients(a=lambda t, x: 1.0 + 0.0 * x, b=lambda t, x: 0.0 * x)


def grid_of(x_left, x_right, T, nx, nt):
    return build_grid(SpaceTimeDomain(x_left, x_right, T), nx, nt)


def march_args(ends):
    """build_window_operator's ends and march_window's pinned values for
    window ends that are each a BoundaryCondition or an (nt+1,) array of
    pinned values."""
    built = [end if isinstance(end, BoundaryCondition) else None for end in ends]
    pins = {
        side: None if isinstance(end, BoundaryCondition) else end[None]
        for side, end in zip(("left", "right"), ends)
    }
    return built, pins


def solve_one(grid, window, coeffs, c, q, left, right, initial):
    """Build a window operator and march one column through it; the ends are
    as march_args takes them, c and q whole-grid fields."""
    built, pins = march_args((left, right))
    op = build_window_operator(grid, window, coeffs, c, *built)
    q = np.asarray(q, dtype=float)[None, :, window.lo + 1 : window.hi]
    return march_window(op, q, np.asarray(initial)[None], **pins)[0]


class TestBuildGrid:
    def test_unit_interval(self):
        g = grid_of(0.0, 1.0, 1.0, 4, 2)
        assert g.dx == 0.25 and g.dt == 0.5
        assert g.xs.shape == (5,)
        np.testing.assert_allclose(g.xs, [0, 0.25, 0.5, 0.75, 1.0])

    def test_shifted_interval(self):
        g = grid_of(-1.0, 1.0, 2.0, 8, 4)
        assert g.dx == 0.25 and g.dt == 0.5
        assert g.xs[0] == -1.0 and g.xs[-1] == 1.0 and g.ts[-1] == 2.0

    def test_too_coarse(self):
        with pytest.raises(ValueError):
            grid_of(0.0, 1.0, 1.0, 2, 2)
        with pytest.raises(ValueError):
            grid_of(0.0, 1.0, 1.0, 8, 0)

    @pytest.mark.parametrize("x_right,T,name", [(1.0, 1e-320, "dt"), (1e-160, 1.0, "dx\\^2")])
    def test_non_finite_reciprocal_rejected(self, x_right, T, name):
        # 1/dt overflows at T = 1e-320, and dx^2 underflows to 0 at dx ~ 1e-161.
        with pytest.raises(ValueError, match=f"non-finite grid: 1/{name} is not finite"):
            grid_of(0.0, x_right, T, 16, 16)

    def test_levels(self):
        g = grid_of(0.0, 1.0, 1.0, 4, 8).levels(3, 6)
        assert g.nt == 3 and g.dt == 0.125 and g.dx == 0.25
        np.testing.assert_array_equal(g.ts, [0.375, 0.5, 0.625, 0.75])


class TestAssembleStep:
    def setup_method(self):
        self.grid = grid_of(0.0, 2.0, 1.0, 4, 1)  # dx=0.5, dt=1
        self.window = Subrange(0, 4)
        self.bc = (DirichletRow(0.0), DirichletRow(0.0))

    def assemble(self, b):
        coeffs = EllipticCoefficients(a=lambda t, x: 1.0 + 0.0 * x, b=lambda t, x: b + 0.0 * x)
        return assemble_step(self.grid, coeffs, np.zeros(5), 0.5, self.bc, self.window)

    def test_pure_diffusion_stencil(self):
        sys = self.assemble(0.0)
        # 1/dt + 2a/dx^2 = 1 + 8 = 9
        np.testing.assert_allclose(sys.diag[1:-1], 9.0)
        np.testing.assert_allclose(sys.sub[1:-1], -4.0)
        np.testing.assert_allclose(sys.sup[1:-1], -4.0)

    def test_forward_upwind(self):
        sys = self.assemble(2.0)
        np.testing.assert_allclose(sys.sub[1:-1], -4.0)
        np.testing.assert_allclose(sys.diag[1:-1], 13.0)
        np.testing.assert_allclose(sys.sup[1:-1], -8.0)
        # interior row sum = 1/dt + c
        assert sys.sub[1] + sys.diag[1] + sys.sup[1] == 1.0

    def test_backward_upwind(self):
        sys = self.assemble(-2.0)
        np.testing.assert_allclose(sys.sub[1:-1], -8.0)
        np.testing.assert_allclose(sys.diag[1:-1], 13.0)
        np.testing.assert_allclose(sys.sup[1:-1], -4.0)

    def test_row_sums_conserve(self):
        rng = np.random.default_rng(3)
        c = rng.uniform(0.0, 5.0, 5)
        coeffs = EllipticCoefficients(
            a=lambda t, x: 1.0 + 0.5 * np.sin(x), b=lambda t, x: np.cos(3 * x)
        )
        sys = assemble_step(self.grid, coeffs, c, 0.5, self.bc, self.window)
        sums = sys.sub[1:-1] + sys.diag[1:-1] + sys.sup[1:-1]
        np.testing.assert_allclose(sums, 1.0 / self.grid.dt + c[1:-1], rtol=1e-14)

    def test_nonpositive_diffusion_rejected(self):
        coeffs = EllipticCoefficients(a=lambda t, x: -1.0 + 0.0 * x, b=lambda t, x: 0.0 * x)
        with pytest.raises(ValueError, match="diffusion not positive"):
            assemble_step(self.grid, coeffs, np.zeros(5), 0.5, self.bc, self.window)

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError):
            Subrange(2, 3)

    def test_robin_row(self):
        sys = assemble_step(
            self.grid,
            CONST,
            np.zeros(5),
            0.5,
            (RobinRow(1.0, 2.0, 3.0), DirichletRow(0.0)),
            self.window,
        )
        assert sys.diag[0] == 1.0 / 0.5 + 2.0
        assert sys.sup[0] == -1.0 / 0.5
        assert sys.rhs[0] == 3.0


class TestThomasSolve:
    def test_identity(self):
        sys = TridiagonalSystem(
            sub=np.zeros(3), diag=np.ones(3), sup=np.zeros(3), rhs=np.array([4.0, 5.0, 6.0])
        )
        np.testing.assert_allclose(thomas_solve(sys), [4.0, 5.0, 6.0])

    def test_symmetric_two_by_two(self):
        sys = TridiagonalSystem(
            sub=np.array([0.0, -1.0]),
            diag=np.array([2.0, 2.0]),
            sup=np.array([-1.0, 0.0]),
            rhs=np.array([1.0, 1.0]),
        )
        np.testing.assert_allclose(thomas_solve(sys), [1.0, 1.0])

    def test_against_dense_elimination(self):
        rng = np.random.default_rng(11)
        n = 6
        sub = -rng.random(n)
        sup = -rng.random(n)
        sub[0] = sup[-1] = 0.0
        diag = np.abs(sub) + np.abs(sup) + rng.uniform(0.5, 2.0, n)
        rhs = rng.standard_normal(n)
        dense = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
        expected = np.linalg.solve(dense, rhs)
        got = thomas_solve(TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_dirichlet_rows_return_pinned_values_exactly(self):
        # Dirichlet ends next to rows of order a/dx^2: partial pivoting on
        # the coupled system would swap row 0 with row 1.
        n, k = 129, 1.0 / (1.0 / 128) ** 2
        sub = np.full(n, -k)
        sup = np.full(n, -k)
        diag = np.full(n, 2.0 * k + 300.0)
        sub[0] = sup[0] = sub[-1] = sup[-1] = 0.0
        diag[0] = diag[-1] = 1.0
        rhs = np.linspace(1.0, 2.0, n)
        rhs[0], rhs[-1] = 0.1, 0.3
        system = TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs.copy())
        x = thomas_solve(system)
        assert x[0] == 0.1 and x[-1] == 0.3
        np.testing.assert_array_equal(system.rhs, rhs)  # input left untouched
        dense = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
        np.testing.assert_allclose(x, np.linalg.solve(dense, rhs), rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("ends", [(False, False), (True, False), (False, True), (True, True)])
    def test_small_systems_with_decoupled_ends(self, n, ends):
        rng = np.random.default_rng(n)
        sub = -rng.uniform(0.5, 1.0, n)
        sup = -rng.uniform(0.5, 1.0, n)
        sub[0] = sup[-1] = 0.0
        if ends[0]:
            sup[0] = 0.0
        if ends[1]:
            sub[-1] = 0.0
        diag = np.abs(sub) + np.abs(sup) + rng.uniform(0.5, 2.0, n)
        rhs = rng.standard_normal(n)
        dense = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
        got = thomas_solve(TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs))
        np.testing.assert_allclose(got, np.linalg.solve(dense, rhs), atol=1e-14)

    @pytest.mark.parametrize("row", [0, 2])
    def test_zero_pivot_names_dirichlet_row(self, row):
        diag = np.array([2.0, 2.0, 2.0])
        diag[row] = 0.0
        sys = TridiagonalSystem(
            sub=np.array([0.0, -1.0, 0.0]),
            diag=diag,
            sup=np.array([0.0, -1.0, 0.0]),
            rhs=np.ones(3),
        )
        with pytest.raises(ZeroPivotError, match=f"row {row}"):
            thomas_solve(sys)

    def test_zero_pivot_diagnostic(self):
        sys = TridiagonalSystem(
            sub=np.zeros(2), diag=np.zeros(2), sup=np.zeros(2), rhs=np.ones(2)
        )
        with pytest.raises(ZeroPivotError, match="row"):
            thomas_solve(sys)


class TestMarchOneColumn:
    def test_zero_everything(self):
        grid = grid_of(0.0, 1.0, 1.0, 8, 4)
        zeros = np.zeros((5, 9))
        out = solve_one(
            grid, Subrange(0, 8), CONST, zeros, zeros, np.zeros(5), np.zeros(5), np.zeros(9)
        )
        np.testing.assert_array_equal(out, 0.0)

    def test_spatially_constant_recurrence(self):
        # zero-flux Robin ends, c=1, q=1, u0=0: rows follow the scalar
        # implicit-Euler recurrence u_k = (u_{k-1} + dt)/(1 + dt).
        grid = grid_of(0.0, 1.0, 1.0, 8, 10)
        coeffs = EllipticCoefficients(
            a=lambda t, x: 2.0 + np.sin(x), b=lambda t, x: 0.0 * x
        )
        ones = np.ones((11, 9))
        robin = BoundaryCondition(alpha0=lambda t: 1.0, beta0=lambda t: 0.0, h=lambda t: 0.0)
        out = solve_one(grid, Subrange(0, 8), coeffs, ones, ones, robin, robin, np.zeros(9))
        u = 0.0
        for k in range(1, 11):
            u = (u + grid.dt) / (1.0 + grid.dt)
            assert np.ptp(out[k]) < 1e-12
            np.testing.assert_allclose(out[k], u, rtol=1e-12)

    def test_heat_time_refinement(self):
        # e^{-pi^2 t} sin(pi x) on T=1: at nx=64 the first-order-in-time
        # error dominates and halves when nt doubles.
        spec = catalog_lookup("linear_heat", {"T": 1.0})
        errors = []
        for nt in (4096, 8192):
            grid = build_grid(spec.domain, 64, nt)
            zeros = np.zeros((nt + 1, 65))
            out = solve_one(
                grid,
                Subrange(0, 64),
                spec.coeffs,
                zeros,
                zeros,
                spec.bc_left,
                spec.bc_right,
                np.sin(np.pi * grid.xs),
            )
            exact = np.exp(-np.pi**2 * grid.ts[:, None]) * np.sin(np.pi * grid.xs[None, :])
            errors.append(np.max(np.abs(out - exact)))
        ratio = errors[0] / errors[1]
        assert 1.7 < ratio < 2.3


class TestComparisonPrinciple:
    def random_setup(self, rng, nx=16, nt=6):
        grid = grid_of(0.0, 1.0, 0.5, nx, nt)
        coeffs = EllipticCoefficients(
            a=lambda t, x: 1.0 + 0.5 * np.cos(x), b=lambda t, x: np.sin(5 * x)
        )
        c = rng.uniform(0.0, 3.0, (nt + 1, nx + 1))
        return grid, coeffs, c

    def test_inverse_positivity(self):
        # nonnegative forcing, boundary, and initial data => nonnegative field
        rng = np.random.default_rng(7)
        for _ in range(20):
            grid, coeffs, c = self.random_setup(rng)
            q = rng.uniform(0.0, 1.0, c.shape)
            bl = rng.uniform(0.0, 1.0, grid.nt + 1)
            br = rng.uniform(0.0, 1.0, grid.nt + 1)
            u0 = rng.uniform(0.0, 1.0, grid.nx + 1)
            out = solve_one(grid, Subrange(0, grid.nx), coeffs, c, q, bl, br, u0)
            assert np.min(out) >= -1e-12

    def test_ordered_data_ordered_solutions(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            grid, coeffs, c = self.random_setup(rng)
            q2 = rng.standard_normal(c.shape)
            q1 = q2 + rng.uniform(0.0, 1.0, c.shape)
            b2 = rng.standard_normal(grid.nt + 1)
            b1 = b2 + rng.uniform(0.0, 1.0, grid.nt + 1)
            u02 = rng.standard_normal(grid.nx + 1)
            u01 = u02 + rng.uniform(0.0, 1.0, grid.nx + 1)
            window = Subrange(0, grid.nx)
            out1 = solve_one(grid, window, coeffs, c, q1, b1, b1, u01)
            out2 = solve_one(grid, window, coeffs, c, q2, b2, b2, u02)
            assert np.min(out1 - out2) >= -1e-12

    def test_assembled_systems_are_m_matrices(self):
        rng = np.random.default_rng(23)
        grid, coeffs, c = self.random_setup(rng)
        sys = assemble_step(
            grid, coeffs, c[3], grid.ts[3], (DirichletRow(0.0), RobinRow(1.0, 1.0, 0.0)),
            Subrange(0, grid.nx),
        )
        ok, diag = m_matrix_check(sys.sub, sys.diag, sys.sup)
        assert ok, diag


def rows_of(end, grid):
    """Per-step reference rows of a window end: a BoundaryCondition gives its
    Robin row at t_k, an array of pinned values a DirichletRow."""
    if isinstance(end, BoundaryCondition):
        return lambda k: RobinRow(*(float(fn(grid.ts[k])) for fn in (end.alpha0, end.beta0, end.h)))
    return lambda k: DirichletRow(float(end[k]))


def reference_march(grid, window, coeffs, c, q, left, right, initial):
    """The per-step path: assemble_step and thomas_solve at every step; the
    ends are as solve_one takes them."""
    lo, hi = window.lo, window.hi
    left, right = rows_of(left, grid), rows_of(right, grid)
    out = np.empty((grid.nt + 1, window.size))
    out[0] = initial
    for k in range(1, grid.nt + 1):
        system = assemble_step(
            grid, coeffs, c[k, lo : hi + 1], grid.ts[k], (left(k), right(k)), window
        )
        system.rhs[1:-1] += out[k - 1, 1:-1] / grid.dt + q[k, lo + 1 : hi]
        out[k] = thomas_solve(system)
    return out


def random_end(rng, nt, kind):
    """A window end of the given kind: pinned values, or the boundary data of a
    time-dependent Robin row (alpha0 = 0 gives the physical Dirichlet row)."""
    if kind == "pinned":
        return rng.standard_normal(nt + 1)
    alpha = 0.0 if kind == "dirichlet" else rng.uniform(0.2, 2.0)
    beta, h = rng.uniform(0.5, 2.0, 2)
    return BoundaryCondition(
        alpha0=lambda t: alpha * (1.0 + t),
        beta0=lambda t: beta + 0.5 * t,
        h=lambda t: h * np.sin(10.0 * t),
    )


class TestWindowOperator:
    ENDS = ("pinned", "dirichlet", "robin")

    @pytest.mark.parametrize("nt", [1, 7])
    @pytest.mark.parametrize("left", ENDS)
    @pytest.mark.parametrize("right", ENDS)
    @pytest.mark.parametrize("lo,hi", [(0, 16), (5, 7), (3, 16)])
    def test_cached_march_matches_per_step_reference(self, nt, left, right, lo, hi):
        rng = np.random.default_rng([nt, lo, hi, self.ENDS.index(left), self.ENDS.index(right)])
        grid = grid_of(0.0, 1.0, 0.5, 16, nt)
        window = Subrange(lo, hi)
        s = rng.uniform(-3.0, 3.0)  # advection of either sign across the window
        coeffs = EllipticCoefficients(
            a=lambda t, x: 0.5 + 0.3 * np.sin(4 * x) + t,
            b=lambda t, x: s * np.cos(3 * x) + t,
        )
        c = rng.uniform(0.0, 3.0, (nt + 1, 17))
        q = rng.standard_normal((nt + 1, 17))
        ends = [random_end(rng, nt, left), random_end(rng, nt, right)]
        initial = rng.standard_normal(window.size)
        expected = reference_march(grid, window, coeffs, c, q, *ends, initial)

        built, pins = march_args(ends)
        op = build_window_operator(grid, window, coeffs, c, *built)
        got = march_window(op, q[None, :, lo + 1 : hi], initial[None], **pins)[0]
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)
        for end, col in zip(ends, (0, -1)):
            if not isinstance(end, BoundaryCondition):
                np.testing.assert_array_equal(got[1:, col], end[1:])

    def test_pinned_end_values_at_march(self):
        # An end built pinned takes its values with each march; two columns
        # solve bitwise as the two one-column marches do.
        rng = np.random.default_rng(41)
        grid = grid_of(0.0, 1.0, 0.5, 12, 7)
        window = Subrange(0, 8)
        coeffs = EllipticCoefficients(a=lambda t, x: 1.0 + x, b=lambda t, x: -2.0 + 0.0 * x)
        c = rng.uniform(0.0, 2.0, (8, 13))
        left = catalog_lookup("linear_heat").bc_left
        op = build_window_operator(grid, window, coeffs, c, left, None)
        q = rng.standard_normal((2, 8, 7))
        initial = rng.standard_normal((2, 9))
        traces = rng.standard_normal((2, 8))
        both = march_window(op, q, initial, right=traces)
        for j in range(2):
            one = march_window(op, q[j : j + 1], initial[j : j + 1], right=traces[j : j + 1])
            np.testing.assert_array_equal(both[j], one[0])
            expected = reference_march(
                grid, window, coeffs, c, np.pad(q[j], ((0, 0), (1, 5))), left, traces[j],
                initial[j],
            )
            np.testing.assert_allclose(both[j], expected, rtol=1e-13, atol=0.0)
            np.testing.assert_array_equal(both[j, 1:, -1], traces[j, 1:])
        with pytest.raises(ValueError, match="right end"):
            march_window(op, q, initial)

    def test_singular_row_raises_at_build(self):
        # Robin alpha0 = beta0 = 0 leaves row 0 all zero; the M-matrix check,
        # which every build runs, rejects it before it is factored.
        grid = grid_of(0.0, 1.0, 0.5, 8, 4)
        singular = BoundaryCondition(alpha0=lambda t: 0.0, beta0=lambda t: 0.0, h=lambda t: 1.0)
        with pytest.raises(MMatrixViolation, match="row 0: diagonal 0 not positive"):
            build_window_operator(grid, Subrange(0, 8), CONST, np.zeros((5, 9)), singular, None)

    def test_nonpositive_diffusion_rejected_at_build(self):
        grid = grid_of(0.0, 1.0, 0.5, 8, 4)
        coeffs = EllipticCoefficients(a=lambda t, x: 0.3 - t + 0.0 * x, b=lambda t, x: 0.0 * x)
        with pytest.raises(ValueError, match="diffusion not positive at t=0.375"):
            build_window_operator(grid, Subrange(0, 8), coeffs, np.zeros((5, 9)), None, None)

    @pytest.mark.parametrize("step", [1, 2, 3, 4])
    def test_audit_names_the_failing_step(self, step):
        # Every step matrix is checked at build: a negative diagonal at any
        # one step is found and named.
        grid = grid_of(0.0, 1.0, 0.5, 8, 4)
        t_bad = grid.ts[step]
        bad = BoundaryCondition(
            alpha0=lambda t: 0.0, beta0=lambda t: -1.0 if t == t_bad else 1.0, h=lambda t: 0.0
        )
        with pytest.raises(MMatrixViolation, match=f"time step {step}: row 0"):
            build_window_operator(grid, Subrange(0, 8), CONST, np.zeros((5, 9)), bad, None)

    def test_non_finite_solution_raises(self):
        grid = grid_of(0.0, 1.0, 0.5, 8, 4)
        op = build_window_operator(grid, Subrange(0, 8), CONST, np.zeros((5, 9)), None, None)
        q = np.zeros((1, 5, 7))
        q[0, 3, 2] = np.inf
        with pytest.raises(FloatingPointError, match="time step 3"):
            march_window(op, q, np.zeros((1, 9)), np.zeros((1, 5)), np.zeros((1, 5)))

    @pytest.mark.parametrize("left", ("march", "dirichlet", "robin"))
    @pytest.mark.parametrize("right", ("march", "dirichlet", "robin"))
    def test_refactored_operator_marches_as_fresh_build(self, left, right):
        # An operator built with one stabilizer and refactored for another
        # marches as one built with the second; the refactor calls neither
        # the coefficients nor the boundary data.  A "march" end is pinned
        # with values given to each march.
        nt = 7
        kinds = ("march", "dirichlet", "robin")
        rng = np.random.default_rng([11, kinds.index(left), kinds.index(right)])
        grid = grid_of(0.0, 1.0, 0.5, 16, nt)
        window = Subrange(3, 16)
        calls = []

        def counted(fn):
            def wrapped(*args):
                calls.append(fn)
                return fn(*args)

            return wrapped

        def counted_bc(bc):
            if bc is None:
                return None
            return BoundaryCondition(*map(counted, (bc.alpha0, bc.beta0, bc.h)))

        coeffs = EllipticCoefficients(
            a=counted(lambda t, x: 0.5 + 0.3 * np.sin(4 * x) + t),
            b=counted(lambda t, x: 1.5 * np.cos(3 * x) + t),
        )
        ends = [None if kind == "march" else random_end(rng, nt, kind) for kind in (left, right)]
        c_old = rng.uniform(2.0, 4.0, (nt + 1, 17))
        c_new = c_old * rng.uniform(0.0, 1.0, c_old.shape)
        q = rng.standard_normal((2, nt + 1, window.size - 2))
        initial = rng.standard_normal((2, window.size))
        pins = {
            side: rng.standard_normal((2, nt + 1)) if end is None else None
            for side, end in zip(("left", "right"), ends)
        }

        op = build_window_operator(grid, window, coeffs, c_old, *map(counted_bc, ends))
        before_calls = len(calls)
        refactor_window_operator(op, c_new)
        assert len(calls) == before_calls
        fresh = build_window_operator(grid, window, coeffs, c_new, *ends)
        np.testing.assert_allclose(
            march_window(op, q, initial, **pins),
            march_window(fresh, q, initial, **pins),
            rtol=1e-13,
            atol=1e-13,
        )

    @pytest.mark.parametrize("step", [1, 3])
    def test_inf_diagonal_fails_the_audit(self, step):
        # inf - finite > 0 passes every dominance comparison; the audit
        # rejects the entry itself.
        grid = grid_of(0.0, 1.0, 0.5, 8, 4)
        op = build_window_operator(grid, Subrange(0, 8), CONST, np.zeros((5, 9)), None, None)
        c = np.zeros((5, 9))
        c[step, 4] = np.inf
        with pytest.raises(MMatrixViolation, match=f"time step {step}: row 4: non-finite"):
            refactor_window_operator(op, c)

    def test_nan_off_diagonal_fails_the_audit(self):
        # Every comparison with NaN is false, so no sign or dominance test
        # alone would catch it.
        sub = np.array([0.0, np.nan, -1.0])
        diag = np.array([2.0, 3.0, 2.0])
        sup = np.array([-1.0, -1.0, 0.0])
        ok, diagnostic = m_matrix_check(sub, diag, sup)
        assert not ok and diagnostic.startswith("row 1: non-finite entry")
        grid = grid_of(0.0, 1.0, 0.5, 8, 4)
        t_bad = grid.ts[2]
        robin = BoundaryCondition(
            alpha0=lambda t: np.nan if t == t_bad else 1.0, beta0=lambda t: 1.0, h=lambda t: 0.0
        )
        with pytest.raises(MMatrixViolation, match="time step 2: row 0: non-finite"):
            build_window_operator(grid, Subrange(0, 8), CONST, np.zeros((5, 9)), robin, None)

    def test_slab_operator_holds_the_strip_operators_steps(self):
        # An operator built on grid.levels(3, 7) with k0 = 3 holds, bitwise,
        # the matrices and factors of steps 4..7 of the strip's operator,
        # before and after both are refactored for a new stabilizer; it
        # marches those steps as the strip's operator does, and its audit
        # names strip steps.
        rng = np.random.default_rng(5)
        grid = grid_of(0.0, 1.0, 0.5, 12, 9)
        window = Subrange(2, 12)
        coeffs = EllipticCoefficients(a=lambda t, x: 1.0 + x + t, b=lambda t, x: np.sin(7 * x))
        right = catalog_lookup("linear_heat").bc_right
        c_old = rng.uniform(1.0, 2.0, (10, 13))
        c_new = c_old * rng.uniform(0.0, 1.0, c_old.shape)
        whole = build_window_operator(grid, window, coeffs, c_old, None, right)
        slab = build_window_operator(grid.levels(3, 7), window, coeffs, c_old[3:8], None, right, k0=3)
        assert slab.k0 == 3 and slab.d.shape == (4, window.size)
        arrays = ("sub", "diag", "sup", "dl", "d", "du", "du2", "ipiv", "right_h", "pinned")

        def same_steps():
            for name in arrays:
                part, full = getattr(slab, name), getattr(whole, name)[3:7]
                assert part.dtype == full.dtype and part.tobytes() == full.tobytes(), name

        same_steps()
        refactor_window_operator(slab, c_new[3:8])
        refactor_window_operator(whole, c_new)
        same_steps()
        q = rng.standard_normal((2, 10, 9))
        left = rng.standard_normal((2, 10))
        initial = rng.standard_normal((2, 11))
        full = march_window(whole, q, initial, left=left)
        part = march_window(slab, q[:, 3:8], full[:, 3], left=left[:, 3:8])
        assert part.tobytes() == np.ascontiguousarray(full[:, 3:8]).tobytes()
        bad = c_new[3:8].copy()
        bad[2] = -1e6
        with pytest.raises(MMatrixViolation, match="time step 5"):
            refactor_window_operator(slab, bad)
        with pytest.raises(MMatrixViolation, match="time step 5"):
            build_window_operator(grid.levels(3, 7), window, coeffs, bad, None, right, k0=3)

    @pytest.mark.parametrize("seed", range(4))
    def test_audit_fails_where_the_per_step_check_first_does(self, seed):
        # The audit's row-wise reductions against m_matrix_check on each
        # step's own assembly (reference.assemble_step), for a left end
        # row and a stabilizer that break each of its tests at random
        # steps, with dominance at rounding level (c = -1/dt) among them:
        # build and refactor fail at the same first step, in the same
        # words, or pass where every step does.
        rng = np.random.default_rng(seed)
        grid = grid_of(0.0, 1.0, 0.5, 8, 6)
        window = Subrange(0, 8)

        def expected(c, alpha, beta):
            for k in range(1, grid.nt + 1):
                rows = (RobinRow(alpha[k], beta[k], 0.0), DirichletRow(0.0))
                try:
                    assemble_step(grid, CONST, c[k], grid.ts[k], rows, window)
                except MMatrixViolation as err:
                    return f"at time step {k}: " + str(err).split(": ", 1)[1]
            return None

        def outcome(call):
            try:
                call()
            except MMatrixViolation as err:
                return "at time step " + str(err).split(" at time step ", 1)[1]
            return None

        def stabilizer():
            c = rng.uniform(-0.4 / grid.dt, 3.0, (grid.nt + 1, 9))
            for k in range(1, grid.nt + 1):
                i = rng.integers(0, 9)
                defect = rng.choice([-1.0 / grid.dt, -2.0 / grid.dt, np.inf, np.nan])
                c[k, i] = defect if rng.uniform() < 0.1 else c[k, i]
            return c

        # (alpha0, beta0) of the left end: Robin, Dirichlet, Neumann (a row
        # of zero excess), a zero diagonal, a positive off-diagonal and a
        # row that is not dominant.
        pairs = np.array([(1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (-1.0, 20.0), (1.0, -1.0)])

        def end_values():
            odd = rng.uniform(size=grid.nt + 1) < 0.1
            return pairs[np.where(odd, rng.integers(1, len(pairs), grid.nt + 1), 0)].T

        built, refactored = [], []
        for _ in range(20):
            alpha, beta = end_values()
            level = {t: k for k, t in enumerate(grid.ts)}
            robin = BoundaryCondition(
                alpha0=lambda t: alpha[level[t]], beta0=lambda t: beta[level[t]], h=lambda t: 0.0
            )
            c = stabilizer()
            ops = []
            want = expected(c, alpha, beta)
            got = outcome(lambda: ops.append(
                build_window_operator(grid, window, CONST, c, robin, None)
            ))
            assert got == want
            built.append(want)
            if ops:
                c = stabilizer()
                want = expected(c, alpha, beta)
                assert outcome(lambda: refactor_window_operator(ops[0], c)) == want
                refactored.append(want)
        for wants in (built, refactored):
            assert None in wants and any(want is not None for want in wants)

    @pytest.mark.parametrize("step", [1, 2, 3, 4])
    def test_refactor_audits_the_new_matrices(self, step):
        # A stabilizer below -1/dt breaks diagonal dominance; the refactor
        # checks every step and names the failing one.
        grid = grid_of(0.0, 1.0, 0.5, 8, 4)
        op = build_window_operator(grid, Subrange(0, 8), CONST, np.zeros((5, 9)), None, None)
        c = np.zeros((5, 9))
        c[step] = -100.0
        with pytest.raises(MMatrixViolation, match=f"time step {step}"):
            refactor_window_operator(op, c)


    def test_a_stabilizer_over_fewer_levels_serves_the_first_steps(self):
        # An operator of 6 steps refactored with a c over its first 4
        # levels factors steps 1..3 bitwise as an operator built for those
        # steps alone, with a physical left end and a pinned right one,
        # and leaves the other steps' factors as they were; a march of 4
        # levels marches those 3 steps bitwise as that operator does.  A c
        # over more levels than the operator has is refused.
        rng = np.random.default_rng(11)
        grid = grid_of(0.0, 1.0, 0.5, 10, 6)
        window = Subrange(0, 7)
        coeffs = EllipticCoefficients(a=lambda t, x: 1.0 + x, b=lambda t, x: np.cos(5 * x))
        left = catalog_lookup("linear_heat").bc_left
        c_old = rng.uniform(0.0, 1.0, (7, 11))
        c_new = rng.uniform(0.0, 1.0, (4, 11))
        op = build_window_operator(grid, window, coeffs, c_old, left, None)
        before = {name: getattr(op, name).copy() for name in ("d", "dl", "du", "du2", "ipiv")}
        refactor_window_operator(op, c_new)
        short = build_window_operator(grid.levels(0, 3), window, coeffs, c_new, left, None)
        for name, old in before.items():
            new = getattr(op, name)
            assert new[:3].tobytes() == getattr(short, name).tobytes(), name
            assert new[3:].tobytes() == old[3:].tobytes(), name
        q = rng.standard_normal((2, 4, 6))
        right = rng.standard_normal((2, 4))
        initial = rng.standard_normal((2, 8))
        got = march_window(op, q, initial, right=right)
        assert got.shape == (2, 4, 8)
        assert got.tobytes() == march_window(short, q, initial, right=right).tobytes()
        with pytest.raises(ValueError, match="7 steps for an operator of 6"):
            refactor_window_operator(op, np.zeros((8, 11)))


class TestStackedFactors:
    """The block-stacked factors and the planned march against the per-step
    LAPACK loop they replace (tests/reference.py), bitwise."""

    ENDS = ("pinned", "dirichlet", "robin")

    @pytest.mark.parametrize("nt", range(1, 12))
    @pytest.mark.parametrize("left", ENDS)
    @pytest.mark.parametrize("right", ENDS)
    def test_march_is_bitwise_the_per_step_loop(self, nt, left, right):
        # dt = 0.5/nt is not a power of two for most nt; a Dirichlet end has
        # beta0 != 1 and h != 0.  One and two columns, at build and after a
        # refactor with a lower stabilizer.
        rng = np.random.default_rng([nt, self.ENDS.index(left), self.ENDS.index(right)])
        grid = grid_of(0.0, 1.0, 0.5, 16, nt)
        lo, hi = rng.choice([(0, 16), (3, 16), (0, 9), (4, 13)])
        window = Subrange(lo, hi)
        s = rng.uniform(-3.0, 3.0)
        coeffs = EllipticCoefficients(
            a=lambda t, x: 0.5 + 0.3 * np.sin(4 * x) + t, b=lambda t, x: s * np.cos(3 * x) + t
        )
        ends = [random_end(rng, nt, left), random_end(rng, nt, right)]
        built, _ = march_args(ends)
        c_old = rng.uniform(0.0, 3.0, (nt + 1, 17))
        c_new = c_old * rng.uniform(0.0, 1.0, c_old.shape)
        op = build_window_operator(grid, window, coeffs, c_old, *built)
        for c in (c_old, c_new):
            if c is c_new:
                refactor_window_operator(op, c)
            factors = per_step_factors(op.sub, op.diag, op.sup, c[1:, lo + 1 : hi])
            for m in (1, 2):
                q = rng.standard_normal((m, nt + 1, window.size - 2))
                initial = rng.standard_normal((m, window.size))
                # The end rows' right-hand sides: h of a physical end, the
                # march's values of a pinned one.
                values = [
                    np.tile([float(end.h(t)) for t in grid.ts], (m, 1))
                    if isinstance(end, BoundaryCondition) else rng.standard_normal((m, nt + 1))
                    for end in ends
                ]
                pins = {
                    side: None if isinstance(end, BoundaryCondition) else value
                    for side, end, value in zip(("left", "right"), ends, values)
                }
                got = march_window(op, q, initial, **pins)
                expected = per_step_march(
                    op.sub, op.diag, op.sup, factors, grid.dt, q, initial, *values
                )
                assert got.tobytes() == expected.tobytes()

    def test_march_reuses_the_operators_buffer(self):
        # The result is a view of the operator's march buffer: the next march
        # with as many columns overwrites it, one with another count does not.
        rng = np.random.default_rng(3)
        grid = grid_of(0.0, 1.0, 0.5, 8, 5)
        op = build_window_operator(grid, Subrange(0, 8), CONST, np.zeros((6, 9)), None, None)

        def march(m):
            return march_window(
                op, rng.standard_normal((m, 6, 7)), np.zeros((m, 9)), np.ones((m, 6)), np.ones((m, 6))
            )

        first = march(2)
        kept = first.copy()
        second = march(2)
        assert np.shares_memory(first, second) and first.tobytes() == second.tobytes()
        assert kept.tobytes() != second.tobytes()
        kept = second.copy()
        one = march(1)
        assert not np.shares_memory(one, second) and second.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("pinned", [True, False])
    def test_coupling_beyond_the_largest_power_of_two_marches_exactly(self, pinned):
        # Row 1's coupling to a Dirichlet first row is -(a/dx^2 + |b|/dx) =
        # -9e307, beyond 2^1023.  The first row is factored as the identity
        # row, the coupling written in as L's first multiplier: the march
        # returns the pinned values, or h/beta0 of a physical row, exactly,
        # and bitwise the per-step reference solve.
        rng = np.random.default_rng(9)
        grid = grid_of(0.0, 1.0, 1e-299, 4, 10).levels(3, 7)
        coeffs = EllipticCoefficients(a=lambda t, x: 6.25e305 + 0.0 * x, b=lambda t, x: -2e307 + 0.0 * x)
        bc = BoundaryCondition(alpha0=lambda t: 0.0, beta0=lambda t: 3.0, h=lambda t: 1.0 + t)
        c = np.zeros((5, 5))
        left = None if pinned else bc
        op = build_window_operator(grid, Subrange(0, 4), coeffs, c, left, None, k0=3)
        assert np.all(op.pinned) and np.all(op.sub[:, 1] == -9e307)
        assert np.all(op.dl[:, 0] == -9e307)
        q = rng.standard_normal((2, 5, 3))
        initial = rng.standard_normal((2, 5))
        # |coupling * value| stays below the largest double for |value| < 1.9
        if pinned:
            values = rng.uniform(-1.0, 1.0, (2, 5))
        else:
            values = np.tile([bc.h(t) for t in grid.ts], (2, 1))
        right = rng.uniform(-1.0, 1.0, (2, 5))
        got = march_window(op, q, initial, left=values if pinned else None, right=right)
        assert np.all(np.isfinite(got))
        column = values[:, 1:] if pinned else values[:, 1:] / 3.0
        assert got[:, 1:, 0].tobytes() == np.ascontiguousarray(column).tobytes()
        factors = per_step_factors(op.sub, op.diag, op.sup, c[1:, 1:4])
        expected = per_step_march(op.sub, op.diag, op.sup, factors, grid.dt, q, initial, values, right)
        assert got.tobytes() == expected.tobytes()

    def test_scaled_pinned_value_overflow_names_the_step(self):
        # Row 1's coupling is -4: a pinned value of 1e308 at strip step 5
        # enters row 1 as 4e308, past the largest double, and the march
        # names that step.
        grid = grid_of(0.0, 1.0, 0.5, 4, 8)
        coeffs = EllipticCoefficients(a=lambda t, x: 0.25 + 0.0 * x, b=lambda t, x: 0.0 * x)
        op = build_window_operator(grid.levels(3, 7), Subrange(0, 4), coeffs, np.zeros((5, 5)),
                                   None, None, k0=3)
        assert np.all(op.pinned) and np.all(op.dl[:, 0] == -4.0)
        left = np.zeros((1, 5))
        left[0, 2] = 1e308
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            FloatingPointError, match="non-finite solution at time step 5"
        ):
            march_window(op, np.zeros((1, 5, 3)), np.zeros((1, 5)), left, np.zeros((1, 5)))
