"""Per-step reference implementations the fast paths are tested against.

assemble_step and thomas_solve build and solve the backward-Euler system
of one time step at a time; build_window_operator and march_window do
the same for every step at once.  per_step_factors and per_step_march
are the LAPACK loop march_window must match bitwise: one dgttrf call per
step, a pinned first row decoupled and its value folded into row 1, and
a strided divide and add per step.  chain_min_margin is the separate-pass
form of verify.sweep_metrics' margin, and sweep_metrics_reference that of
all three of its values.  exponential_trapezoid_recursion
is the level-by-level recursion that volterra's doubling scan replaces.
dd_sweep is one whole-strip sweep with a given stabilizer.
assemble_step checks every matrix it builds for the M-matrix pattern, so
the suite audits all it assembles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from monodd.discretization import MMatrixViolation, ZeroPivotError, m_matrix_check
from monodd.iteration import _dd_windows, _initial_past, _sweep, _window_operators
from monodd.verify import _chain_links


@dataclass
class TridiagonalSystem:
    """One per-time-step linear system.  sub/diag/sup all have length n;
    sub[0] and sup[-1] are unused and kept at zero."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class DirichletRow:
    """Boundary row pinning the end node to a value (artificial interfaces,
    and physical ends via the degenerate Robin row)."""

    value: float


@dataclass(frozen=True)
class RobinRow:
    """Boundary row alpha0 * du/dnu + beta0 * u = h, discretized one-sided.
    alpha0 == 0 reduces to the Dirichlet row beta0 * u = h."""

    alpha0: float
    beta0: float
    h: float


def _eval_on(fn, t, x):
    v = np.asarray(fn(t, x), dtype=float)
    if v.shape != np.shape(x):
        v = np.broadcast_to(v, np.shape(x)).copy()
    return v


def assemble_step(grid, coeffs, c_row, t_k, bc_rows, window):
    """Assemble the backward-Euler system for one time step on a window.

    Interior row i: (1/dt + 2a/dx^2 + |b|/dx + c_i) u_i
                    - (a/dx^2 + max(-b,0)/dx) u_{i-1}
                    - (a/dx^2 + max(b,0)/dx)  u_{i+1} = rhs_i,
    i.e. the advection term is upwinded so both off-diagonals are <= 0.

    The returned rhs holds only the boundary-row data; the caller adds
    u_prev/dt + q on the interior.
    """
    n = window.size
    x_int = grid.xs[window.lo + 1 : window.hi]
    a = _eval_on(coeffs.a, t_k, x_int)
    if np.any(a <= 0.0):
        i_bad = int(np.argmax(a <= 0.0))
        raise ValueError(
            f"diffusion not positive at t={t_k}, x={x_int[i_bad]} (a={a[i_bad]})"
        )
    b = _eval_on(coeffs.b, t_k, x_int)
    c_row = np.asarray(c_row, dtype=float)

    dx, dt = grid.dx, grid.dt
    inv_dx2 = 1.0 / (dx * dx)

    sub = np.zeros(n)
    diag = np.zeros(n)
    sup = np.zeros(n)
    rhs = np.zeros(n)

    diag[1:-1] = 1.0 / dt + 2.0 * a * inv_dx2 + np.abs(b) / dx + c_row[1:-1]
    sub[1:-1] = -(a * inv_dx2) - np.maximum(-b, 0.0) / dx
    sup[1:-1] = -(a * inv_dx2) - np.maximum(b, 0.0) / dx

    left, right = bc_rows
    if isinstance(left, DirichletRow):
        diag[0], rhs[0] = 1.0, left.value
    else:
        diag[0] = left.alpha0 / dx + left.beta0
        sup[0] = -left.alpha0 / dx
        rhs[0] = left.h
    if isinstance(right, DirichletRow):
        diag[-1], rhs[-1] = 1.0, right.value
    else:
        diag[-1] = right.alpha0 / dx + right.beta0
        sub[-1] = -right.alpha0 / dx
        rhs[-1] = right.h

    ok, diagnostic = m_matrix_check(sub, diag, sup)
    if not ok:
        raise MMatrixViolation(f"assembled system fails M-matrix check: {diagnostic}")
    return TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs)


def thomas_solve(system):
    """Solve a tridiagonal system (LAPACK dgtsv).  Raises on a zero pivot.

    A first row whose off-diagonal is zero (a Dirichlet row) is decoupled
    before dgtsv runs: its value rhs/diag is folded into row 1's right-hand
    side and row 1's coupling to it is set to zero, so dgtsv returns
    rhs/diag there exactly.  Left coupled, dgtsv's partial pivoting would
    swap it with row 1, whose sub-diagonal is of order a/dx^2, and return
    the pinned value off by about eps/dx^2.  A last row with a zero
    sub-diagonal is never swapped and comes back exact as it is.
    """
    sub, diag, sup, rhs = system.sub, system.diag, system.sup, system.rhs
    n = diag.size
    if n == 1 or sup[0] == 0.0:
        if diag[0] == 0.0:
            raise ZeroPivotError("zero pivot at row 0")
        if n == 1:
            return rhs / diag
        rhs = rhs.astype(float)
        rhs[1] -= sub[1] * (rhs[0] / diag[0])
        sub = sub.copy()
        sub[1] = 0.0
    *_, x, info = lapack.dgtsv(sub[1:], diag, sup[:-1], rhs)
    if info != 0:
        raise ZeroPivotError(f"zero pivot at row {info - 1}")
    return x


def per_step_factors(sub, diag, sup, c):
    """The LU factors (dl, d, du, du2, ipiv) of every step matrix, as a
    WindowOperator keeps them (sub, diag, sup (nt, n), diag without the
    stabilizer) with c (nt, n-2) added to the interior diagonal, one
    dgttrf call per step.  A first row with a zero super-diagonal is
    decoupled: row 1's coupling to it is zeroed, and per_step_march folds
    its value into row 1's right-hand side."""
    d = diag.copy()
    d[:, 1:-1] += c
    factors = []
    for k in range(d.shape[0]):
        dl = sub[k, 1:].copy()
        if sup[k, 0] == 0.0:
            dl[0] = 0.0
        *step, info = lapack.dgttrf(dl, d[k], sup[k, :-1])
        if info != 0:
            raise ZeroPivotError(f"zero pivot at row {info - 1} (time step {k + 1})")
        factors.append(step)
    return factors


def per_step_march(sub, diag, sup, factors, dt, q, initial, left, right):
    """March m right-hand sides through per_step_factors' factors as
    march_window does: q (m, nt+1, n-2), initial (m, n), and left/right
    (m, nt+1) the first and last rows' right-hand sides at each step (h
    of a physical row, the values of a pinned one; row 0 unused).  Each
    step divides the previous level's interior by dt and adds it, both on
    strided (m, n-2) views, subtracts from row 1 its coupling times a
    decoupled first row's value over its diagonal, and calls dgttrs."""
    m, nt1, _ = q.shape
    n = diag.shape[1]
    pinned = sup[:, 0] == 0.0
    pin_sub = np.where(pinned, sub[:, 1], 0.0)
    pin_diag = np.where(pinned, diag[:, 0], 1.0)
    u = np.empty((nt1, m, n))
    u[0] = initial
    u[1:, :, 1:-1] = q[:, 1:].transpose(1, 0, 2)
    u[1:, :, 0] = left[:, 1:].T
    u[1:, :, -1] = right[:, 1:].T
    interior, row1, blocks = u[:, :, 1:-1], u[:, :, 1], u.transpose(0, 2, 1)
    fold = None
    if np.any(pin_sub != 0.0):
        fold = pin_sub[:, None] * (u[1:, :, 0] / pin_diag[:, None])
    carried = np.empty((m, n - 2))
    for k, step in enumerate(factors, start=1):
        np.divide(interior[k - 1], dt, out=carried)
        np.add(interior[k], carried, out=interior[k])
        if fold is not None:
            row1[k] -= fold[k - 1]
        lapack.dgttrs(*step, blocks[k], "N", 1)
    return u.transpose(1, 0, 2)


def dd_sweep(state, spec, grid, decomp, stab):
    """Advance both branches by one alternating-Schwarz sweep of the whole
    strip with the stabilizer stab as given, the window operators built
    for this one sweep: run_dd's sweep of a one-slab run before any
    refresh."""
    ops = _window_operators(spec, grid, stab, _dd_windows(grid, decomp))
    return _sweep(state, spec, grid, stab, ops, _initial_past(spec, grid))


def chain_min_margin(prev, nxt, u_hat_field, u_tilde_field):
    """Most negative (or smallest) margin over all links and nodes."""
    return min(
        float(np.min(right - left))
        for _, left, right in _chain_links(prev, nxt, u_hat_field, u_tilde_field)
    )


def sweep_metrics_reference(prev, nxt, u_hat_field, u_tilde_field):
    """verify.sweep_metrics' gap, update and margin, each difference a
    temporary of its own and each value a float of its own, folded by
    Python's max and min in the order sweep_metrics documents."""
    gap = max(float(np.max(nxt.u22 - nxt.u21)), float(np.max(nxt.u12 - nxt.u11)))
    upd = max(
        float(np.max(np.abs(nxt.u1 - prev.u1))), float(np.max(np.abs(nxt.u2 - prev.u2)))
    )
    return gap, upd, chain_min_margin(prev, nxt, u_hat_field, u_tilde_field)


def exponential_trapezoid_recursion(form, u, dt):
    """Trapezoid sums of kappa e^{-lam(t_k - s)} psi(u(s)) at every level
    k of u (n_levels, n), one level at a time:
    T_0 = 0, T_k = r T_{k-1} + (dt/2)(r psi_{k-1} + psi_k), r = e^{-lam dt}."""
    psi = np.broadcast_to(np.asarray(form.psi(u), dtype=float), u.shape)
    r = math.exp(-form.lam * dt)
    out = np.zeros(u.shape)
    out[1:] = (0.5 * dt) * (r * psi[:-1] + psi[1:])
    for k in range(1, u.shape[0]):
        out[k] += r * out[k - 1]
    return form.kappa * out
