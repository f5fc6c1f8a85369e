"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every step matrix these runs build is M-matrix-checked when its
operator is built or refactored; that check cannot be switched off.
"""
import json
import time

import numpy as np
import pytest

from monodd import (
    BoundaryCondition,
    Decomposition,
    EllipticCoefficients,
    SpaceTimeDomain,
    Subrange,
    VolterraKernel,
    build_grid,
    build_window_operator,
    catalog_lookup,
    check_monotone_chain,
    compute_stabilizers,
    eval_F1_field,
    eval_g_row,
    march_window,
    order_study,
    run_dd,
    run_single_domain,
    sample_field,
)
from monodd.cli import main
from monodd.discretization import MMatrixViolation

DESK_PARAMS = {"lam": 1.0, "kappa": 0.5, "sigma": 0.5}


@pytest.fixture(scope="module")
def desk_run():
    """Criterion 1 configuration: logistic_memory, 64x64, overlap [24, 40]."""
    spec = catalog_lookup("logistic_memory", dict(DESK_PARAMS))
    grid = build_grid(spec.domain, 64, 64)
    t0 = time.perf_counter()
    sol, hist = run_dd(
        spec, grid, Decomposition(i1_hi=40, i2_lo=24), 1e-8, 200, keep_states=True
    )
    elapsed = time.perf_counter() - t0
    return spec, grid, sol, hist, elapsed


def test_criterion_1_monotone_chain(desk_run):
    spec, grid, sol, hist, elapsed = desk_run
    lo = sample_field(spec.bracket.u_hat, grid)
    hi = sample_field(spec.bracket.u_tilde, grid)
    for prev, nxt in zip(hist.states, hist.states[1:]):
        assert check_monotone_chain(prev, nxt, lo, hi) == []
    assert elapsed < 30.0
    print(
        f"\nPASS criterion 1: monotone chain clean over {len(hist.states) - 1} sweeps "
        f"({elapsed:.1f} s)"
    )


def test_criterion_2_bracket_closure(desk_run):
    _, _, sol, hist, _ = desk_run
    assert sol.converged and sol.sweeps_used <= 200
    assert hist.gap_lower_upper[-1] <= 1e-8
    gaps = np.array(hist.gap_lower_upper)
    assert np.all(np.diff(gaps) <= 1e-10)
    print(
        f"\nPASS criterion 2: gap {hist.gap_lower_upper[-1]:.2e} <= 1e-8 in "
        f"{sol.sweeps_used} sweeps, nonincreasing"
    )


def test_criterion_3_limit_identities(desk_run):
    _, _, _, hist, _ = desk_run
    final = hist.states[-1]
    overlap = slice(24, 41)
    d1 = np.max(np.abs(final.u11[:, overlap] - final.u21[:, overlap]))
    d2 = np.max(np.abs(final.u12[:, overlap] - final.u22[:, overlap]))
    assert d1 <= 1e-7 and d2 <= 1e-7
    g1 = np.max(final.u12 - final.u11)
    g2 = np.max(final.u22 - final.u21)
    assert g1 <= 1e-7 and g2 <= 1e-7
    print(
        f"\nPASS criterion 3: overlap mismatch ({d1:.1e}, {d2:.1e}) and branch gaps "
        f"({g1:.1e}, {g2:.1e}) <= 1e-7"
    )


def test_criterion_4_oracle_equivalence():
    tol = 1e-10
    worst = 0.0
    for name, params in (
        ("linear_heat", {}),
        ("logistic_memory", dict(DESK_PARAMS)),
        ("manufactured_1", {}),
    ):
        spec = catalog_lookup(name, params)
        grid = build_grid(spec.domain, 64, 64)
        sd, _ = run_single_domain(spec, grid, tol, 400)
        dd, _ = run_dd(spec, grid, Decomposition(i1_hi=40, i2_lo=24), tol, 400)
        assert sd.converged and dd.converged
        diff = float(np.max(np.abs(dd.u - sd.u)))
        assert diff <= 1e-7, f"{name}: {diff}"
        worst = max(worst, diff)
    print(f"\nPASS criterion 4: DD vs single-domain L-inf diff <= {worst:.1e} on all problems")


def test_criterion_5_truth_bracketing():
    spec = catalog_lookup("manufactured_1")
    grid = build_grid(spec.domain, 32, 32)
    sd, _ = run_single_domain(spec, grid, 1e-10, 400)
    assert sd.converged
    exact = sample_field(spec.exact, grid)
    delta = float(np.max(np.abs(sd.u - exact)))
    _, hist = run_dd(
        spec, grid, Decomposition(i1_hi=20, i2_lo=12), 1e-10, 400, keep_states=True
    )
    for state in hist.states:
        assert np.all(state.u11 <= exact + delta + 1e-9)
        assert np.all(state.u12 >= exact - delta - 1e-9)
    print(
        f"\nPASS criterion 5: all {len(hist.states)} iterates bracket the exact solution "
        f"within delta={delta:.2e}"
    )


def test_criterion_6_accuracy_orders():
    t0 = time.perf_counter()
    mms = order_study(
        catalog_lookup("manufactured_1"), [(32, 32), (64, 64), (128, 128)], 1e-8
    )
    assert all(o >= 0.9 for o in mms.orders), mms.orders
    heat = order_study(
        catalog_lookup("linear_heat"), [(16, 4096), (32, 4096), (64, 4096)], 1e-10
    )
    assert all(o >= 1.8 for o in heat.orders), heat.orders
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        f"\nPASS criterion 6: manufactured orders {[f'{o:.2f}' for o in mms.orders]}, "
        f"spatial orders {[f'{o:.2f}' for o in heat.orders]} ({elapsed:.0f} s)"
    )


def test_criterion_7_discrete_comparison_audit():
    # Every step matrix is M-matrix-checked where it is factored, so one
    # that is not an M-matrix (a negative Robin diagonal) cannot be built.
    grid = build_grid(SpaceTimeDomain(0.0, 1.0, 0.5), 32, 4)
    window = Subrange(0, 32)
    const = EllipticCoefficients(a=lambda t, x: 1.0 + 0.0 * x, b=lambda t, x: 0.0 * x)
    bad = BoundaryCondition(alpha0=lambda t: 0.0, beta0=lambda t: -1.0, h=lambda t: 0.0)
    with pytest.raises(MMatrixViolation, match="not positive"):
        build_window_operator(grid, window, const, np.zeros((5, 33)), bad, None)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        a0, b0 = rng.uniform(0.1, 2.0), rng.uniform(-2.0, 2.0)
        coeffs = EllipticCoefficients(
            a=lambda t, x, a0=a0: a0 + 0.0 * x, b=lambda t, x, b0=b0: b0 + 0.0 * x
        )
        c = rng.uniform(0.0, 3.0, (5, 33))
        q = rng.uniform(0.0, 1.0, (5, 33))
        left, right = rng.uniform(0.0, 1.0, (2, 1, 5))
        initial = rng.uniform(0.0, 1.0, (1, 33))
        op = build_window_operator(grid, window, coeffs, c, None, None)
        out = march_window(op, q[None, :, 1:-1], initial, left=left, right=right)
        worst = min(worst, float(np.min(out)))
    assert worst >= -1e-12
    print(
        "\nPASS criterion 7: a non-M-matrix is rejected at build; "
        f"min entry over 100 nonnegative solves {worst:.1e}"
    )


def test_criterion_8_rhs_monotonicity():
    rng = np.random.default_rng(211)
    for name, params in (
        ("linear_heat", {}),
        ("logistic_memory", dict(DESK_PARAMS)),
        ("manufactured_1", {}),
    ):
        spec = catalog_lookup(name, params)
        grid = build_grid(spec.domain, 16, 16)
        lo = sample_field(spec.bracket.u_hat, grid)
        hi = sample_field(spec.bracket.u_tilde, grid)
        stab = compute_stabilizers(spec, grid, lo, hi)
        for _ in range(100):
            v = lo + rng.random(lo.shape) * (hi - lo)
            u = v + rng.random(lo.shape) * (hi - v)
            k = int(rng.integers(0, grid.nt + 1))
            diff = eval_F1_field(spec, stab, u, grid)[k] - eval_F1_field(spec, stab, v, grid)[k]
            assert np.min(diff) >= -1e-12
    print("\nPASS criterion 8: F1 nondecreasing on 100 ordered pairs per catalog problem")


def test_criterion_9_quadrature_order():
    kernel = VolterraKernel(g0=lambda t, x, s, e1, e2: np.exp(-(t - s)) * e2)
    exact = 1.0 - np.exp(-1.0)
    errors = []
    for nt in (32, 64, 128, 256):
        grid = build_grid(SpaceTimeDomain(0.0, 1.0, 1.0), 4, nt)
        u = np.ones((nt + 1, 5))
        errors.append(abs(eval_g_row(kernel, u, nt, grid)[2] - exact))
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(3)]
    assert all(1.8 <= o <= 2.2 for o in orders), orders
    print(f"\nPASS criterion 9: quadrature orders {[f'{o:.3f}' for o in orders]}")


def test_criterion_10_determinism(tmp_path):
    # Two runs of one config, each solving both branches stacked, must
    # write byte-identical solution and history CSVs.
    outputs = []
    for tag in ("first", "second"):
        sol_csv = tmp_path / f"solution_{tag}.csv"
        hist_csv = tmp_path / f"history_{tag}.csv"
        cfg = tmp_path / f"cfg_{tag}.json"
        cfg.write_text(
            json.dumps(
                {
                    "problem": {"name": "logistic_memory", "params": dict(DESK_PARAMS)},
                    "grid": {"nx": 64, "nt": 64},
                    "decomposition": {"i1_hi": 40, "i2_lo": 24},
                    "solver": {"tol": 1e-8, "max_sweeps": 200},
                    "output": {"solution_csv": str(sol_csv), "history_csv": str(hist_csv)},
                }
            )
        )
        assert main(["run", str(cfg)]) == 0
        outputs.append((sol_csv.read_bytes(), hist_csv.read_bytes()))
    assert outputs[0] == outputs[1]
    print("\nPASS criterion 10: two reruns write byte-identical solution and history CSVs")
