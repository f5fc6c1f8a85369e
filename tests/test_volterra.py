import dataclasses
import tracemalloc

import numpy as np
import pytest

from monodd import (
    SpaceTimeDomain,
    VolterraKernel,
    build_grid,
    catalog_lookup,
    compute_stabilizers,
    eval_F1_field,
    eval_g_field,
    eval_g_row,
    sample_field,
)
from monodd import volterra
from monodd.volterra import (
    C_MARGIN,
    HISTORY_CHUNK,
    N_SAMPLES,
    Past,
    StabilizerError,
    quadrature_weights,
    refresh_stabilizers,
)

from conftest import desk_logistic
from reference import exponential_trapezoid_recursion

EXP_KERNEL = VolterraKernel(g0=lambda t, x, s, e1, e2: np.exp(-(t - s)) * e2)


def unit_grid(nx, nt, T=1.0):
    return build_grid(SpaceTimeDomain(0.0, 1.0, T), nx, nt)


class TestEvalG:
    def test_empty_integral_at_t0(self):
        grid = unit_grid(8, 8)
        u = np.ones((9, 9))
        assert eval_g_row(EXP_KERNEL, u, 0, grid)[3] == 0.0

    def test_exact_on_constants(self):
        kernel = VolterraKernel(g0=lambda t, x, s, e1, e2: e2)
        for nt in (7, 16):
            grid = unit_grid(8, nt)
            u = np.ones((nt + 1, 9))
            assert eval_g_row(kernel, u, nt, grid)[4] == pytest.approx(1.0, abs=1e-14)

    def exp_error(self, nt):
        grid = unit_grid(4, nt)
        u = np.ones((nt + 1, 5))
        return abs(eval_g_row(EXP_KERNEL, u, nt, grid)[2] - (1.0 - np.exp(-1.0)))

    def test_exponential_closed_form(self):
        assert self.exp_error(64) < 1.3e-4
        assert 3.5 < self.exp_error(64) / self.exp_error(128) < 4.5

    def test_weights_nonnegative(self):
        for k in (1, 2, 9):
            assert np.all(quadrature_weights(k, 0.1) >= 0)


class TestEvalGRow:
    def test_zero_history(self):
        grid = unit_grid(8, 8)
        u = np.zeros((9, 9))
        np.testing.assert_array_equal(eval_g_row(EXP_KERNEL, u, 5, grid), 0.0)

    def test_matches_single_node_columns(self):
        # Node i's integral reads only column i; the one-column product may
        # sum in another order than the whole row's.
        grid = unit_grid(8, 12)
        rng = np.random.default_rng(5)
        u = rng.random((13, 9))
        for k in (0, 1, 7, 12):
            row = eval_g_row(EXP_KERNEL, u, k, grid)
            for i in range(9):
                node = eval_g_row(EXP_KERNEL, u, k, grid, slice(i, i + 1))[0]
                assert node == pytest.approx(row[i], rel=1e-14, abs=0.0)

    def test_logistic_history_consistency(self):
        spec = desk_logistic()
        grid = build_grid(spec.domain, 8, 8)
        rng = np.random.default_rng(9)
        u = 1.5 * rng.random((9, 9))
        row = eval_g_row(spec.kernel, u, 6, grid)
        for i in range(9):
            node = eval_g_row(spec.kernel, u, 6, grid, slice(i, i + 1))[0]
            assert node == pytest.approx(row[i], rel=1e-14, abs=0.0)


def psi_nonlinear(e2):
    # Nondecreasing, and nondecreasing in floating point too: a sum of
    # products of nonnegative-sloped, correctly rounded operations.
    return e2 + 0.5 * e2 * np.abs(e2)


def generic_copy(kernel):
    """The same g0 and dg0_deta1 without the declared exponential structure."""
    return VolterraKernel(
        g0=kernel.g0, dg0_deta1=kernel.dg0_deta1, lipschitz_K0=kernel.lipschitz_K0
    )


class TestEvalGField:
    @pytest.mark.parametrize("nt", [1, 2, 7, 64, 512])
    @pytest.mark.parametrize("lam", [1.7, -0.8])
    def test_recursion_matches_trapezoid_rows(self, nt, lam):
        grid = unit_grid(8, nt)
        rng = np.random.default_rng(nt)
        u = rng.uniform(-1.0, 2.0, (nt + 1, 9))
        kernel = VolterraKernel.exponential(0.7, lam, psi_nonlinear)
        field = eval_g_field(kernel, u, grid)
        rows = np.stack([eval_g_row(kernel, u, k, grid) for k in range(nt + 1)])
        assert field.shape == (nt + 1, 9)
        np.testing.assert_array_equal(field[0], 0.0)
        assert np.max(np.abs(field - rows)) <= 1e-13 * np.max(np.abs(rows))

    @pytest.mark.parametrize("kappa,lam", [(0.0, 1.0), (0.4, 2.5), (1.3, -1.5)])
    def test_recursion_monotone_without_tolerance(self, kappa, lam):
        grid = unit_grid(16, 64)
        rng = np.random.default_rng(3)
        kernel = VolterraKernel.exponential(kappa, lam, psi_nonlinear)
        for _ in range(20):
            v = rng.uniform(-2.0, 2.0, (65, 17))
            u = v + rng.random(v.shape) * (rng.random(v.shape) < 0.5)
            assert np.all(eval_g_field(kernel, u, grid) >= eval_g_field(kernel, v, grid))

    @pytest.mark.parametrize("levels", [1, 2, 3, 29, 512, 4096])
    @pytest.mark.parametrize("lam", [1.7, -0.8])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_scan_matches_recursion_and_trapezoid_rows(self, levels, lam, sign):
        # The doubling scan against the generic trapezoid rows (every row
        # up to 512 levels, every 97th and the last beyond) and against
        # the level-by-level recursion, for psi of either sign.  The
        # recursion's repeated products of the rounded r drift like L: at
        # 4096 levels and lam = -0.8 it is itself 1.6e-13 max|G| from the
        # rows, so there the scan must be at least as close to the rows.
        nt = levels - 1
        grid = unit_grid(4, max(nt, 1)).levels(0, nt)
        rng = np.random.default_rng([levels, int(sign > 0)])
        u = sign * rng.uniform(0.2, 2.0, (levels, 5))
        kernel = VolterraKernel.exponential(0.7, lam, psi_nonlinear)
        field = eval_g_field(kernel, u, grid)
        assert field.shape == (levels, 5)
        np.testing.assert_array_equal(field[0], 0.0)
        ks = list(range(levels)) if levels <= 512 else [*range(0, levels, 97), nt]
        rows = np.stack([eval_g_row(kernel, u, k, grid) for k in ks])
        scale = np.max(np.abs(rows))
        assert np.max(np.abs(field[ks] - rows)) <= 1e-13 * scale
        recursion = exponential_trapezoid_recursion(kernel.exp_form, u, grid.dt)
        if levels <= 512:
            assert np.max(np.abs(field - recursion)) <= 1e-13 * scale
        else:
            assert np.max(np.abs(field[ks] - rows)) <= np.max(np.abs(recursion[ks] - rows))

    @pytest.mark.parametrize("levels", [2, 3, 29, 512])
    @pytest.mark.parametrize("kappa,lam", [(0.0, 1.0), (0.4, 2.5), (1.3, -1.5)])
    def test_scan_monotone_without_tolerance(self, levels, kappa, lam):
        # u >= v entrywise, equal on a random half of the entries and on
        # whole rows, gives G(u) >= G(v) with no tolerance: the scan's
        # coefficients are nonnegative and rounding is monotone.
        grid = unit_grid(16, levels - 1)
        rng = np.random.default_rng([3, levels])
        kernel = VolterraKernel.exponential(kappa, lam, psi_nonlinear)
        for _ in range(20):
            v = rng.uniform(-2.0, 2.0, (levels, 17))
            u = v + rng.random(v.shape) * (rng.random(v.shape) < 0.5)
            equal_rows = rng.random(levels) < 0.3
            u[equal_rows] = v[equal_rows]
            assert np.all(eval_g_field(kernel, u, grid) >= eval_g_field(kernel, v, grid))

    def test_trivial_kernel_zeros(self):
        grid = unit_grid(8, 5)
        out = eval_g_field(VolterraKernel.zero(), np.ones((6, 9)), grid)
        np.testing.assert_array_equal(out, np.zeros((6, 9)))

    def test_generic_kernel_stacks_rows_bitwise(self):
        grid = unit_grid(8, 12)
        u = np.random.default_rng(5).random((13, 9))
        rows = np.stack([eval_g_row(EXP_KERNEL, u, k, grid) for k in range(13)])
        np.testing.assert_array_equal(eval_g_field(EXP_KERNEL, u, grid), rows)


def split_memory(kernel, u, grid, bounds):
    """The memory term of u slab by slab: each slab [k0, k1] from its own
    rows and the Past the slabs before it left, stitched together."""
    past = Past.initial(u[0], grid)
    out = [np.zeros((1, u.shape[1]))]
    for k0, k1 in bounds:
        levels = grid.levels(k0, k1)
        out.append(eval_g_field(kernel, u[k0 : k1 + 1], levels, past=past)[1:])
        past = past.extend(kernel, u[k0 : k1 + 1], levels)
    return np.concatenate(out)


def random_bounds(rng, nt):
    ks = np.unique(np.concatenate(([0, nt], rng.integers(1, nt, rng.integers(1, 6)))))
    return list(zip(ks[:-1], ks[1:]))


class TestMemoryPast:
    @pytest.mark.parametrize("seed", range(8))
    def test_exponential_split_matches_whole_strip(self, seed):
        # T_{k0+j} = r^j T_{k0} + the slab's own trapezoid sum from k0 is an
        # exact split of the composite rule: it agrees with the whole-strip
        # recursion to rounding, for slab edges k0 drawn at random.
        rng = np.random.default_rng([17, seed])
        nt = int(rng.integers(2, 200))
        grid = unit_grid(8, nt)
        kernel = VolterraKernel.exponential(rng.uniform(0.1, 2.0), rng.uniform(-1.5, 3.0), psi_nonlinear)
        u = rng.uniform(-1.0, 2.0, (nt + 1, 9))
        whole = eval_g_field(kernel, u, grid)
        split = split_memory(kernel, u, grid, random_bounds(rng, nt))
        assert np.max(np.abs(split - whole)) <= 1e-13 * np.max(np.abs(whole))

    def test_generic_split_is_the_whole_strip_bitwise(self):
        # A generic kernel reads the past rows themselves: the same sums.
        rng = np.random.default_rng(8)
        grid = unit_grid(8, 20)
        u = rng.random((21, 9))
        whole = eval_g_field(EXP_KERNEL, u, grid)
        split = split_memory(EXP_KERNEL, u, grid, [(0, 3), (3, 11), (11, 20)])
        np.testing.assert_array_equal(split, whole)

    @pytest.mark.parametrize("kappa,lam", [(0.0, 1.0), (0.4, 2.5), (1.3, -1.5)])
    def test_exponential_split_monotone_without_tolerance(self, kappa, lam):
        # A lower field, with its own lower past, gives a lower memory term on
        # every slab, rounding included.
        grid = unit_grid(16, 64)
        rng = np.random.default_rng(4)
        kernel = VolterraKernel.exponential(kappa, lam, psi_nonlinear)
        for _ in range(20):
            bounds = random_bounds(rng, 64)
            v = rng.uniform(-2.0, 2.0, (65, 17))
            u = v + rng.random(v.shape) * (rng.random(v.shape) < 0.5)
            assert np.all(split_memory(kernel, u, grid, bounds) >= split_memory(kernel, v, grid, bounds))


class TestStackedBranches:
    @pytest.mark.parametrize("kind", ["trivial", "exponential", "generic"])
    def test_stacked_F1_is_two_calls_bitwise(self, kind):
        # Both branches in one call, each with the past its own slabs left,
        # give bitwise what one call per branch gives, on a slab's levels
        # and window columns.
        spec = catalog_lookup("linear_heat") if kind == "trivial" else desk_logistic()
        if kind == "generic":
            spec = dataclasses.replace(spec, kernel=generic_copy(spec.kernel))
        grid = build_grid(spec.domain, 16, 24)
        lo = sample_field(spec.bracket.u_hat, grid)
        hi = sample_field(spec.bracket.u_tilde, grid)
        stab = compute_stabilizers(spec, grid, lo, hi)
        rng = np.random.default_rng(6)
        u = lo + rng.random((2, *lo.shape)) * (hi - lo)
        past = Past.initial(u[:, 0], grid)
        one = [Past.initial(row, grid) for row in u[:, 0]]
        for k0, k1 in [(0, 5), (5, 13), (13, 24)]:
            levels, cols = grid.levels(k0, k1), slice(3, 12)
            rows, slab_stab = u[:, k0 : k1 + 1], stab.levels(k0, k1)
            both = eval_F1_field(spec, slab_stab, rows, levels, cols, past)
            apart = [eval_F1_field(spec, slab_stab, r, levels, cols, p) for r, p in zip(rows, one)]
            np.testing.assert_array_equal(both, np.stack(apart))
            past = past.extend(spec.kernel, rows, levels)
            one = [p.extend(spec.kernel, r, levels) for r, p in zip(rows, one)]
            np.testing.assert_array_equal(past.g, np.stack([p.g for p in one]))

    @pytest.mark.parametrize("kind", ["trivial", "exponential", "generic"])
    def test_windows_in_one_call_are_separate_calls_bitwise(self, kind):
        # Two overlapping windows' columns, each from a field of its own,
        # in one call give bitwise, signed zeros included, what one call
        # per window gives, on a slab's levels with a past.
        spec = catalog_lookup("linear_heat") if kind == "trivial" else desk_logistic()
        if kind == "generic":
            spec = dataclasses.replace(spec, kernel=generic_copy(spec.kernel))
        grid = build_grid(spec.domain, 16, 24)
        lo = sample_field(spec.bracket.u_hat, grid)
        hi = sample_field(spec.bracket.u_tilde, grid)
        stab = compute_stabilizers(spec, grid, lo, hi)
        rng = np.random.default_rng(7)
        u1, u2 = lo + rng.random((2, 2, *lo.shape)) * (hi - lo)
        u1[:, 3:9, 4] = -0.0
        past = Past.initial(u1[:, 0], grid).extend(spec.kernel, u1[:, :6], grid.levels(0, 5))
        levels, slab_stab = grid.levels(5, 13), stab.levels(5, 13)
        fields, cols = (u1[:, 5:14], u2[:, 5:14]), (slice(1, 10), slice(7, 16))
        together = eval_F1_field(spec, slab_stab, fields, levels, cols, past)
        for got, u, c in zip(together, fields, cols):
            want = eval_F1_field(spec, slab_stab, u, levels, c, past)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["trivial", "exponential", "generic"])
    def test_past_keeps_only_what_its_kernel_reads(self, kind):
        # A generic kernel's trapezoid sum reads every past row; the
        # exponential scan reads g, and the trivial kernel nothing, so
        # theirs keep the last row (the next slab's first) alone.
        kernel = {
            "trivial": VolterraKernel.zero(),
            "exponential": VolterraKernel.exponential(0.5, 1.0, psi_nonlinear),
            "generic": EXP_KERNEL,
        }[kind]
        grid = unit_grid(8, 20)
        u = np.random.default_rng(7).random((2, 21, 9))
        past = Past.initial(u[:, 0], grid)
        for k0, k1 in [(0, 6), (6, 20)]:
            past = past.extend(kernel, u[:, k0 : k1 + 1], grid.levels(k0, k1))
            kept = k1 + 1 if kind == "generic" else 1
            assert past.u.shape == (2, kept, 9) and past.ts.shape == (kept,)
            np.testing.assert_array_equal(past.u[:, -1], u[:, k1])
            np.testing.assert_array_equal(past.ts[-1], grid.ts[k1])


class TestComputeStabilizers:
    def test_logistic_supremum(self):
        # -f_u = 2u - 1 on [0, 1.5] has supremum 2 at the right endpoint.
        spec = desk_logistic()
        grid = build_grid(spec.domain, 8, 8)
        lo = np.zeros((9, 9))
        hi = np.full((9, 9), 1.5)
        stab = compute_stabilizers(spec, grid, lo, hi)
        np.testing.assert_allclose(stab.c_total, 2.0 + C_MARGIN, atol=1e-12)
        np.testing.assert_array_equal(stab.b_under, 0.0)

    def test_kernel_independent_of_eta1(self):
        spec = catalog_lookup("manufactured_1")
        grid = build_grid(spec.domain, 6, 6)
        lo = np.zeros((7, 7))
        hi = np.full((7, 7), 4.0)
        stab = compute_stabilizers(spec, grid, lo, hi)
        np.testing.assert_array_equal(stab.b_under, 0.0)

    def test_floor_at_minus_half_over_dt(self):
        # f_u = 5x - 1 does not depend on u, so c_under = 1 - 5x exactly:
        # positive for x < 0.2, negative above it and, with dt = 1/4,
        # below the floor -1/(2 dt) = -2 for x > 0.6.  c_total keeps the
        # negative values and is floored there; every step matrix built
        # with it is an M-matrix, dominant by at least 1/(2 dt).
        from conftest import make_zero_problem
        from monodd import Reaction, Subrange, build_window_operator

        base = make_zero_problem()
        spec = dataclasses.replace(
            base, reaction=Reaction(f=lambda t, x, u: (5.0 * x - 1.0) * u,
                                    f_u=lambda t, x, u: 5.0 * x - 1.0 + 0.0 * u),
        )
        grid = build_grid(spec.domain, 10, 4)
        lo = np.zeros((5, 11))
        hi = np.ones((5, 11))
        stab = compute_stabilizers(spec, grid, lo, hi)
        c_under = stacked_c_under(spec, grid, lo, hi, N_SAMPLES)
        floor = -1.0 / (2.0 * grid.dt)
        np.testing.assert_array_equal(stab.c_total, np.maximum(c_under + 0.0 + C_MARGIN, floor))
        assert np.any(stab.c_total > 0.0)
        assert np.any((stab.c_total < 0.0) & (stab.c_total > floor))
        assert np.any(stab.c_total == floor) and np.all(stab.c_total >= floor)
        build_window_operator(grid, Subrange(0, 10), spec.coeffs, stab.c_total, None, None)

    def test_zero_width_without_derivatives(self):
        from monodd import Bracket, Reaction

        base = desk_logistic()
        spec = type(base)(
            domain=base.domain,
            coeffs=base.coeffs,
            reaction=Reaction(f=lambda t, x, u: u * u),
            kernel=base.kernel,
            bc_left=base.bc_left,
            bc_right=base.bc_right,
            u0=base.u0,
            bracket=base.bracket,
        )
        grid = build_grid(spec.domain, 6, 4)
        z = np.zeros((5, 7))
        with pytest.raises(StabilizerError):
            compute_stabilizers(spec, grid, z, z)

    def test_enlarging_bracket_never_decreases(self):
        spec = desk_logistic()
        grid = build_grid(spec.domain, 6, 6)
        lo = np.zeros((7, 7))
        small = compute_stabilizers(spec, grid, lo, np.full((7, 7), 1.0))
        big = compute_stabilizers(spec, grid, lo, np.full((7, 7), 1.5))
        assert np.all(big.c_total >= small.c_total)

    def test_exponential_matches_generic_build_bitwise(self):
        spec = catalog_lookup("manufactured_1")
        generic = type(spec)(**{**spec.__dict__, "kernel": generic_copy(spec.kernel)})
        grid = build_grid(spec.domain, 16, 40)
        lo = sample_field(spec.bracket.u_hat, grid)
        hi = sample_field(spec.bracket.u_tilde, grid)
        fast = compute_stabilizers(spec, grid, lo, hi)
        slow = compute_stabilizers(generic, grid, lo, hi)
        np.testing.assert_array_equal(fast.c_total, slow.c_total)
        np.testing.assert_array_equal(fast.b_under, 0.0)

    def test_generic_history_chunks_bitwise_and_bounded(self):
        # A kernel that depends on eta1, so b_under is not zero.
        base = desk_logistic()
        kernel = VolterraKernel(
            g0=lambda t, x, s, e1, e2: e2 - 0.3 * (1.0 + s) * e1 * e1,
            dg0_deta1=lambda t, x, s, e1, e2: -0.6 * (1.0 + s + 0.0 * x) * e1 + 0.0 * e2,
        )
        spec = type(base)(**{**base.__dict__, "kernel": kernel})
        nx, nt, p, margin = 64, 4 * HISTORY_CHUNK, N_SAMPLES, C_MARGIN
        grid = build_grid(spec.domain, nx, nt)
        lo = np.zeros((nt + 1, nx + 1))
        hi = 1.5 + 0.1 * np.sin(np.pi * grid.xs) + 0.0 * lo

        tracemalloc.start()
        try:
            stab = compute_stabilizers(spec, grid, lo, hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

        # Unchunked reference: the whole history of level k in one block.
        theta = np.linspace(0.0, 1.0, p)
        eta = lo[None] + theta[:, None, None] * (hi - lo)[None]
        f_u = spec.reaction.f_u(grid.ts[None, :, None], grid.xs[None, None, :], eta)
        c_under = np.max(-f_u, axis=0)
        b_under = np.zeros_like(lo)
        for k in range(1, nt + 1):
            e1 = (lo[k] + theta[:, None] * (hi - lo)[k])[None, :, None, :]
            e2 = (lo[: k + 1, None, :] + theta[None, :, None] * (hi - lo)[: k + 1, None, :])[
                :, None, :, :
            ]
            d = kernel.dg0_deta1(
                grid.ts[k], grid.xs[None, None, None, :], grid.ts[: k + 1, None, None, None], e1, e2
            )
            b0 = np.max(-np.broadcast_to(d, (k + 1, p, p, nx + 1)), axis=(1, 2))
            b_under[k] = quadrature_weights(k, grid.dt) @ b0
        np.testing.assert_array_equal(stab.b_under, b_under)
        np.testing.assert_array_equal(stab.c_total, np.maximum(c_under + b_under + margin, 0.0))
        assert np.max(stab.b_under) > 0.5

        # Unchunked, the last level alone needs (nt+1) p^2 (nx+1) doubles
        # (4.1 MB) per temporary and the call peaks at about 10.5 MB; in
        # chunks a temporary holds HISTORY_CHUNK levels (1.1 MB) and the
        # call peaks at about 3.3 MB.
        assert peak < 6 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MB"

    def test_finite_difference_fallback(self):
        from monodd import Reaction

        base = desk_logistic()
        spec = type(base)(
            domain=base.domain,
            coeffs=base.coeffs,
            reaction=Reaction(f=lambda t, x, u: 1.0 * u * (1.0 - u)),  # no f_u
            kernel=base.kernel,
            bc_left=base.bc_left,
            bc_right=base.bc_right,
            u0=base.u0,
            bracket=base.bracket,
        )
        grid = build_grid(spec.domain, 6, 4)
        lo = np.zeros((5, 7))
        hi = np.full((5, 7), 1.5)
        stab = compute_stabilizers(spec, grid, lo, hi)
        np.testing.assert_allclose(stab.c_total, 2.0 + C_MARGIN, atol=1e-5)

    @pytest.mark.parametrize("analytic", [True, False])
    def test_f_u_values_is_the_analytic_f_u_or_a_centered_difference(self, analytic):
        # The one helper behind the stabilizer's c_under and the predicted
        # start's sup f_u: an analytic f_u is returned as given, else the
        # centered difference (f(eta + eps) - f(eta - eps)) / (2 eps).
        f = lambda t, x, u: (1.0 + x) * u * (1.0 - u) + t
        f_u = lambda t, x, u: (1.0 + x) * (1.0 - 2.0 * u) + 0.0 * t
        spec = with_reaction(desk_logistic(), f, f_u if analytic else None)
        grid = build_grid(spec.domain, 6, 4)
        t, x, eps = grid.ts[:, None], grid.xs[None, :], 1e-6
        eta = 0.25 + 0.5 * np.sin(3.0 * t + x)
        got = volterra.f_u_values(spec.reaction, t, x, eta, eps)
        if analytic:
            np.testing.assert_array_equal(got, f_u(t, x, eta))
        else:
            np.testing.assert_array_equal(got, (f(t, x, eta + eps) - f(t, x, eta - eps)) / (2 * eps))
            np.testing.assert_allclose(got, f_u(t, x, eta), atol=1e-8)

        # compute_stabilizers takes its c_under from the same values.
        lo, hi = np.zeros((5, 7)), np.full((5, 7), 1.5)
        stab = compute_stabilizers(spec, grid, lo, hi)
        theta = np.linspace(0.0, 1.0, N_SAMPLES)[:, None, None]
        samples = volterra.f_u_values(spec.reaction, t, x, lo + theta * (hi - lo), stab.fd_step)
        c_under = np.max(-np.broadcast_to(samples, (N_SAMPLES,) + lo.shape), axis=0)
        floor = volterra.C_FLOOR_DT / grid.dt
        np.testing.assert_array_equal(stab.c_total, np.maximum(c_under + 0.0 + C_MARGIN, floor))


def with_reaction(spec, f, f_u=None):
    from monodd import Reaction

    return dataclasses.replace(spec, reaction=Reaction(f=f, f_u=f_u))


def stacked_c_under(spec, grid, lo, hi, p):
    """The sampled supremum of -f_u as one (p, nt+1, nx+1) stack."""
    eta = lo[None] + np.linspace(0.0, 1.0, p)[:, None, None] * (hi - lo)[None]
    d = spec.reaction.f_u(grid.ts[None, :, None], grid.xs[None, None, :], eta)
    return np.max(-np.broadcast_to(d, eta.shape), axis=0)


class TestRefreshStabilizers:
    def test_running_max_needs_no_sample_stack(self):
        # c_under is a running maximum over the samples: its temporaries
        # are a few fields, not the (p, nt+1, nx+1) stack of eta samples.
        spec = catalog_lookup("linear_heat")
        spec = with_reaction(spec, lambda t, x, u: u * (1.0 - u), lambda t, x, u: 1.0 - 2.0 * u)
        grid = build_grid(spec.domain, 128, 128)
        lo = np.zeros((129, 129))
        hi = 1.0 + 0.5 * np.sin(np.pi * grid.xs) + 0.0 * lo
        tracemalloc.start()
        try:
            stab = compute_stabilizers(spec, grid, lo, hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        reference = np.maximum(stacked_c_under(spec, grid, lo, hi, N_SAMPLES) + C_MARGIN, 0.0)
        np.testing.assert_array_equal(stab.c_total, reference)
        assert peak < 8 * lo.nbytes, f"tracemalloc peak {peak / lo.nbytes:.1f} fields"

    def test_resamples_c_under_keeps_b_under_and_never_rises(self):
        base = desk_logistic()
        kernel = VolterraKernel(
            g0=lambda t, x, s, e1, e2: e2 - 0.3 * e1 * e1,
            dg0_deta1=lambda t, x, s, e1, e2: -0.6 * e1 + 0.0 * (x + s + e2),
        )
        spec = dataclasses.replace(base, kernel=kernel)
        grid = build_grid(spec.domain, 12, 10)
        rng = np.random.default_rng(3)
        lo, hi = np.zeros((11, 13)), np.full((11, 13), 1.5)
        stab = compute_stabilizers(spec, grid, lo, hi)
        env_lo = rng.uniform(0.0, 1.0, lo.shape)
        env_hi = env_lo + rng.uniform(0.0, 0.5, lo.shape)
        fresh = refresh_stabilizers(spec, grid, stab, env_lo, env_hi)
        c_under = stacked_c_under(spec, grid, env_lo, env_hi, N_SAMPLES)
        floor = -1.0 / (2.0 * grid.dt)
        expected = np.minimum(stab.c_total, np.maximum(c_under + stab.b_under + C_MARGIN, floor))
        np.testing.assert_array_equal(fresh.c_total, expected)
        assert fresh.b_under is stab.b_under and np.max(stab.b_under) > 0.0
        assert np.all(fresh.c_total <= stab.c_total)
        assert np.any(fresh.c_total < stab.c_total)
        assert np.any(fresh.c_total < 0.0)  # f grows on the whole envelope there

    def test_clamp_holds_c_where_the_smaller_interval_samples_higher(self):
        # -f_u = 1 - 4|u - 0.5| peaks at u = 0.5.  The N_SAMPLES = 8 samples
        # of [0, 1] (3/7 and 4/7 nearest the peak) reach 1 - 4/14 ~ 0.714,
        # those of [0.4, 0.6] reach 1 - 0.4/7 ~ 0.943, higher: the
        # refreshed c stays at the old one.
        spec = with_reaction(
            desk_logistic(),
            lambda t, x, u: 2.0 * (u - 0.5) * np.abs(u - 0.5) - u,
            lambda t, x, u: 4.0 * np.abs(u - 0.5) - 1.0,
        )
        grid = build_grid(spec.domain, 6, 4)
        lo, hi = np.zeros((5, 7)), np.ones((5, 7))
        stab = compute_stabilizers(spec, grid, lo, hi)
        env = (np.full((5, 7), 0.4), np.full((5, 7), 0.6))
        higher = compute_stabilizers(spec, grid, *env).c_total
        assert np.all(higher > stab.c_total)
        fresh = refresh_stabilizers(spec, grid, stab, *env)
        np.testing.assert_array_equal(fresh.c_total, stab.c_total)

    def test_difference_step_keeps_the_initial_scale(self):
        # No analytic f_u: the centered difference keeps the step of the
        # initial bracket, so a 1e-9 wide envelope gives -f_u to about 1e-10
        # instead of rounding noise.
        spec = with_reaction(desk_logistic(), lambda t, x, u: u * (1.0 - u))
        grid = build_grid(spec.domain, 6, 4)
        stab = compute_stabilizers(spec, grid, np.zeros((5, 7)), np.full((5, 7), 1.5))
        lo = np.full((5, 7), 0.9)
        fresh = refresh_stabilizers(spec, grid, stab, lo, lo + 1e-9)
        np.testing.assert_allclose(fresh.c_total, 0.8 + C_MARGIN, atol=1e-8)

    def test_c_at_the_floor_everywhere_is_not_resampled(self, monkeypatch):
        # f_u = 3 on [0, 1] and dt = 1/4: c_under + margin = -3 is below the
        # floor -2 at every node, so c_total is the floor everywhere, and a
        # refresh, which could only keep it there, returns it unsampled.
        spec = with_reaction(desk_logistic(), lambda t, x, u: 3.0 * u, lambda t, x, u: 3.0 + 0.0 * u)
        grid = build_grid(spec.domain, 6, 4)
        stab = compute_stabilizers(spec, grid, np.zeros((5, 7)), np.ones((5, 7)))
        np.testing.assert_array_equal(stab.c_total, -2.0)

        def no_resample(*args):
            raise AssertionError("c was resampled")

        monkeypatch.setattr(volterra, "_sampled_c_under", no_resample)
        env = (np.full((5, 7), 0.2), np.full((5, 7), 0.4))
        assert refresh_stabilizers(spec, grid, stab, *env) is stab

    def test_degenerate_envelope_keeps_c(self):
        # No analytic f_u and a zero-width envelope: compute_stabilizers
        # would raise, a refresh keeps the c it has.
        spec = with_reaction(desk_logistic(), lambda t, x, u: u * u)
        grid = build_grid(spec.domain, 6, 4)
        stab = compute_stabilizers(spec, grid, np.zeros((5, 7)), np.ones((5, 7)))
        z = np.full((5, 7), 0.5)
        assert refresh_stabilizers(spec, grid, stab, z, z) is stab


class TestEvalF1:
    def test_zero_data_zero_row(self):
        from conftest import make_zero_problem

        spec = make_zero_problem()
        grid = build_grid(spec.domain, 8, 4)
        u = np.zeros((5, 9))
        stab = compute_stabilizers(spec, grid, u, u)
        np.testing.assert_array_equal(eval_F1_field(spec, stab, u, grid)[3], 0.0)

    def test_linear_heat_rhs_vanishes(self):
        spec = catalog_lookup("linear_heat")
        grid = build_grid(spec.domain, 8, 4)
        lo = sample_field(spec.bracket.u_hat, grid)
        hi = sample_field(spec.bracket.u_tilde, grid)
        stab = compute_stabilizers(spec, grid, lo, hi)
        u = sample_field(spec.exact, grid)
        # f and g vanish: all that is left is the stabilizer's c u.
        np.testing.assert_array_equal(eval_F1_field(spec, stab, u, grid)[2], stab.c_total[2] * u[2])

    def test_monotone_under_uniform_shift(self):
        spec = desk_logistic()
        grid = build_grid(spec.domain, 8, 8)
        rng = np.random.default_rng(13)
        u = 1.3 * rng.random((9, 9))
        lo = np.zeros((9, 9))
        hi = np.full((9, 9), 1.5)
        stab = compute_stabilizers(spec, grid, lo, hi)
        for k in (2, 5, 8):
            base = eval_F1_field(spec, stab, u, grid)[k]
            shifted = eval_F1_field(spec, stab, np.minimum(u + 0.1, 1.5), grid)[k]
            assert np.all(shifted >= base - 1e-12)

    def test_field_is_c_u_plus_f_plus_g(self):
        spec = catalog_lookup("manufactured_1")
        grid = build_grid(spec.domain, 8, 8)
        lo = sample_field(spec.bracket.u_hat, grid)
        hi = sample_field(spec.bracket.u_tilde, grid)
        stab = compute_stabilizers(spec, grid, lo, hi)
        u = 3.0 * np.random.default_rng(17).random(lo.shape)
        field = eval_F1_field(spec, stab, u, grid)
        g = eval_g_field(spec.kernel, u, grid)
        for k in range(grid.nt + 1):
            f = spec.reaction.f(grid.ts[k], grid.xs, u[k])
            np.testing.assert_allclose(field[k], stab.c_total[k] * u[k] + f + g[k], rtol=1e-14)

    @pytest.mark.parametrize("name,params", [
        ("linear_heat", {}),
        ("logistic_memory", {"lam": 1.0, "kappa": 0.5, "sigma": 0.5}),
        ("manufactured_1", {}),
    ])
    def test_monotone_on_random_ordered_pairs(self, name, params):
        spec = catalog_lookup(name, params)
        grid = build_grid(spec.domain, 8, 8)
        lo = sample_field(spec.bracket.u_hat, grid)
        hi = sample_field(spec.bracket.u_tilde, grid)
        stab = compute_stabilizers(spec, grid, lo, hi)
        rng = np.random.default_rng(29)
        for _ in range(20):
            v = lo + rng.random(lo.shape) * (hi - lo)
            u = v + rng.random(lo.shape) * (hi - v)
            k = int(rng.integers(0, grid.nt + 1))
            diff = eval_F1_field(spec, stab, u, grid)[k] - eval_F1_field(spec, stab, v, grid)[k]
            assert np.min(diff) >= -1e-12


class TestF1OnWindowColumns:
    @pytest.mark.parametrize(
        "name,params",
        [("logistic_memory", {"lam": 1.0, "kappa": 0.5, "sigma": 0.5}), ("linear_heat", {})],
    )
    @pytest.mark.parametrize("cols", [slice(0, 21), slice(13, 33), slice(1, 20), slice(5, 6)])
    def test_structured_kernels_bitwise(self, name, params, cols):
        # The exponential recursion (logistic_memory) and the trivial kernel
        # (linear_heat) give each column from its own history alone.
        spec = catalog_lookup(name, params)
        grid = build_grid(spec.domain, 32, 24)
        lo = sample_field(spec.bracket.u_hat, grid)
        hi = sample_field(spec.bracket.u_tilde, grid)
        stab = compute_stabilizers(spec, grid, lo, hi)
        u = lo + np.random.default_rng(3).random(lo.shape) * (hi - lo)
        full = eval_F1_field(spec, stab, u, grid)
        np.testing.assert_array_equal(eval_F1_field(spec, stab, u, grid, cols), full[:, cols])

    @pytest.mark.parametrize("cols", [slice(0, 21), slice(13, 33), slice(5, 6)])
    def test_generic_kernel_close(self, cols):
        spec = desk_logistic()
        kernel = VolterraKernel(
            g0=lambda t, x, s, e1, e2: 0.5 * np.exp(-(t - s)) * e2 * (1.0 + x),
            dg0_deta1=lambda t, x, s, e1, e2: 0.0 * e1,
        )
        spec = dataclasses.replace(spec, kernel=kernel)
        grid = build_grid(spec.domain, 32, 24)
        lo = sample_field(spec.bracket.u_hat, grid)
        hi = sample_field(spec.bracket.u_tilde, grid)
        stab = compute_stabilizers(spec, grid, lo, hi)
        u = lo + np.random.default_rng(4).random(lo.shape) * (hi - lo)
        full = eval_F1_field(spec, stab, u, grid)
        np.testing.assert_allclose(
            eval_F1_field(spec, stab, u, grid, cols), full[:, cols], rtol=1e-14, atol=0.0
        )
