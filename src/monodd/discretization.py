"""Uniform space-time grids and the implicit finite-difference stepper.

The time direction is discretized by backward Euler and space by central
differences for the diffusion term plus first-order upwinding for advection.
That combination makes every per-step tridiagonal matrix an M-matrix as soon
as the zero-order coefficient is nonnegative, which is what the whole
monotone iteration machinery rests on.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.linalg import lapack

# A Field is a real array of shape (nt+1, nx+1): rows are time levels,
# columns are spatial nodes.  Full history is kept for the memory term.
Field = np.ndarray


class ZeroPivotError(RuntimeError):
    pass


class MMatrixViolation(RuntimeError):
    pass


# Global audit switch: when enabled, every assembled system is checked for
# the M-matrix pattern and a violation raises immediately.
_AUDIT = {"enabled": False, "count": 0}


def set_mmatrix_audit(enabled):
    _AUDIT["enabled"] = bool(enabled)
    _AUDIT["count"] = 0


def mmatrix_audit_count():
    return _AUDIT["count"]


@dataclass(frozen=True)
class Grid1D:
    """Uniform tensor grid over [x_left, x_right] x [0, T]."""

    nx: int
    nt: int
    dx: float
    dt: float
    xs: np.ndarray
    ts: np.ndarray


def build_grid(domain, nx, nt):
    """Build a uniform Grid1D with nx spatial intervals and nt time steps."""
    if nx < 4:
        raise ValueError(f"nx must be >= 4, got {nx}")
    if nt < 1:
        raise ValueError(f"nt must be >= 1, got {nt}")
    xs = np.linspace(domain.x_left, domain.x_right, nx + 1)
    ts = np.linspace(0.0, domain.T, nt + 1)
    dx = (domain.x_right - domain.x_left) / nx
    dt = domain.T / nt
    return Grid1D(nx=nx, nt=nt, dx=dx, dt=dt, xs=xs, ts=ts)


@dataclass(frozen=True)
class Subrange:
    """Inclusive spatial index window [lo, hi] of a grid (a discrete subdomain)."""

    lo: int
    hi: int

    def __post_init__(self):
        if not (0 <= self.lo < self.hi):
            raise ValueError(f"degenerate window [{self.lo}, {self.hi}]")
        if self.hi - self.lo < 2:
            raise ValueError(f"window [{self.lo}, {self.hi}] has no interior node")

    @property
    def size(self):
        return self.hi - self.lo + 1


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

    system = TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs)
    if _AUDIT["enabled"]:
        from .verify import m_matrix_check

        ok, diagnostic = m_matrix_check(system)
        if not ok:
            raise MMatrixViolation(f"assembled system fails M-matrix check: {diagnostic}")
        _AUDIT["count"] += 1
    return system


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


def pinned_closure(values):
    """Per-step Dirichlet closure from a trace array indexed by time step."""
    values = np.asarray(values, dtype=float)

    def row(k):
        return DirichletRow(float(values[k]))

    return row


def physical_closure(bc, grid):
    """Per-step closure for a physical endpoint carrying the real boundary
    operator alpha0 du/dnu + beta0 u = h."""

    def row(k):
        t = grid.ts[k]
        return RobinRow(float(bc.alpha0(t)), float(bc.beta0(t)), float(bc.h(t)))

    return row


def solve_linear_parabolic(
    grid, window, coeffs, c_field, q_field, left_closure, right_closure, initial_row
):
    """Time-march the linear problem u_t - Lu + c u = q on a spatial window.

    q_field and c_field live on the whole grid; the right-hand side is lagged,
    so q needs no implicit treatment.  Returns the window solution for all
    time levels, with row 0 equal to initial_row.
    """
    out = np.empty((grid.nt + 1, window.size))
    out[0] = np.asarray(initial_row, dtype=float)
    lo, hi = window.lo, window.hi
    for k in range(1, grid.nt + 1):
        system = assemble_step(
            grid,
            coeffs,
            c_field[k, lo : hi + 1],
            grid.ts[k],
            (left_closure(k), right_closure(k)),
            window,
        )
        system.rhs[1:-1] += out[k - 1, 1:-1] / grid.dt + q_field[k, lo + 1 : hi]
        out[k] = thomas_solve(system)
        if not np.all(np.isfinite(out[k])):
            raise FloatingPointError(f"non-finite solution at time step {k}")
    return out


def sample_field(fn, grid):
    """Sample a callable (t, x) -> real on the full grid as a Field."""
    vals = np.asarray(fn(grid.ts[:, None], grid.xs[None, :]), dtype=float)
    return np.broadcast_to(vals, (grid.nt + 1, grid.nx + 1)).copy()
