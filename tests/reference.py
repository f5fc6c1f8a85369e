"""Per-step reference implementations the fast paths are tested against.

assemble_step and thomas_solve build and solve the backward-Euler system
of one time step at a time; build_window_operator and march_window do
the same for every step at once.  chain_min_margin is the separate-pass
form of verify.sweep_metrics' margin.  exponential_trapezoid_recursion
is the level-by-level recursion that volterra's doubling scan replaces.
assemble_step checks every matrix it builds for the M-matrix pattern, so
the suite audits all it assembles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from monodd.discretization import MMatrixViolation, ZeroPivotError, m_matrix_check
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


def chain_min_margin(prev, nxt, u_hat_field, u_tilde_field):
    """Most negative (or smallest) margin over all links and nodes."""
    return min(
        float(np.min(right - left))
        for _, left, right in _chain_links(prev, nxt, u_hat_field, u_tilde_field)
    )


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
