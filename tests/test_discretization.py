import numpy as np
import pytest

from monodd import (
    EllipticCoefficients,
    SpaceTimeDomain,
    Subrange,
    TridiagonalSystem,
    build_grid,
    catalog_lookup,
    m_matrix_check,
    solve_linear_parabolic,
    thomas_solve,
)
from monodd.discretization import (
    DirichletRow,
    RobinRow,
    ZeroPivotError,
    assemble_step,
    physical_closure,
    pinned_closure,
)

CONST = EllipticCoefficients(a=lambda t, x: 1.0 + 0.0 * x, b=lambda t, x: 0.0 * x)


def grid_of(x_left, x_right, T, nx, nt):
    return build_grid(SpaceTimeDomain(x_left, x_right, T), nx, nt)


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


class TestSolveLinearParabolic:
    def test_zero_everything(self):
        grid = grid_of(0.0, 1.0, 1.0, 8, 4)
        zeros = np.zeros((5, 9))
        out = solve_linear_parabolic(
            grid,
            Subrange(0, 8),
            CONST,
            zeros,
            zeros,
            pinned_closure(np.zeros(5)),
            pinned_closure(np.zeros(5)),
            np.zeros(9),
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

        def robin(k):
            return RobinRow(1.0, 0.0, 0.0)

        out = solve_linear_parabolic(
            grid, Subrange(0, 8), coeffs, ones, ones, robin, robin, np.zeros(9)
        )
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
            out = solve_linear_parabolic(
                grid,
                Subrange(0, 64),
                spec.coeffs,
                zeros,
                zeros,
                physical_closure(spec.bc_left, grid),
                physical_closure(spec.bc_right, grid),
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
            bl = pinned_closure(rng.uniform(0.0, 1.0, grid.nt + 1))
            br = pinned_closure(rng.uniform(0.0, 1.0, grid.nt + 1))
            u0 = rng.uniform(0.0, 1.0, grid.nx + 1)
            out = solve_linear_parabolic(
                grid, Subrange(0, grid.nx), coeffs, c, q, bl, br, u0
            )
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
            out1 = solve_linear_parabolic(
                grid, window, coeffs, c, q1, pinned_closure(b1), pinned_closure(b1), u01
            )
            out2 = solve_linear_parabolic(
                grid, window, coeffs, c, q2, pinned_closure(b2), pinned_closure(b2), u02
            )
            assert np.min(out1 - out2) >= -1e-12

    def test_assembled_systems_are_m_matrices(self):
        rng = np.random.default_rng(23)
        grid, coeffs, c = self.random_setup(rng)
        sys = assemble_step(
            grid, coeffs, c[3], grid.ts[3], (DirichletRow(0.0), RobinRow(1.0, 1.0, 0.0)),
            Subrange(0, grid.nx),
        )
        ok, diag = m_matrix_check(sys)
        assert ok, diag
