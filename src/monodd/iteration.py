"""Monotone domain-decomposition iteration over two overlapping subdomains.

Four bracketing fields are advanced per sweep: a lower and an upper branch
(started from the subsolution and supersolution), each carried by a
subdomain-1 composite and a subdomain-2 composite.  Within a branch the
subdomain-2 solve sees subdomain 1's freshly updated interface trace
(multiplicative/alternating order).  Artificial interfaces carry Dirichlet
trace copies; physical endpoints always carry the real boundary data.

The stabilizer c makes F1 = c u + f + g nondecreasing on the order
interval the iterates occupy.  That interval shrinks every sweep, so c is
refreshed on the current envelope [u11, u12] after sweeps 1, 2, 4, 8, ...
(the accelerated monotone iteration of Pao), as
c_n = min(c_{n-1}, max(c_under([u11, u12]) + b_under + margin, 0)).  The
min keeps the chain: on an overlap node the link u21(n) <= u11(n+1) comes
down to (c_{n-1} - c_n)(u21(n) - u11(n)) plus an F1_{c_{n-1}} difference,
both nonnegative only while c never rises.

The two branches are one stacked array.  Each window's step matrices are
built once per run and refactored in place at each refresh; a sweep
marches both branches through them as two right-hand-side columns.  The
undecomposed single-domain monotone iteration, the correctness oracle for
the decomposed limit, is the same sweep over one window.  order_study
runs the decomposed solver over a list of grids and reports the observed
convergence orders against an exact solution.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .discretization import (
    Field,
    Subrange,
    build_grid,
    build_window_operator,
    march_window,
    refactor_window_operator,
    sample_field,
)
from .verify import sweep_metrics
from .volterra import compute_stabilizers, eval_F1_field, refresh_stabilizers


class BracketError(ValueError):
    """The sampled bracket is out of order: u_hat > u_tilde at some node."""


class MonotoneChainError(RuntimeError):
    def __init__(self, sweep, margin):
        super().__init__(
            f"monotone chain violated at sweep {sweep} (worst margin {margin:.3e})"
        )
        self.sweep = sweep
        self.margin = margin


@dataclass(frozen=True)
class Decomposition:
    """Two overlapping index windows: [0, i1_hi] and [i2_lo, nx]."""

    i1_hi: int
    i2_lo: int

    def __post_init__(self):
        if self.i2_lo <= 0:
            raise ValueError(f"i2_lo must be positive, got {self.i2_lo}")
        if self.i1_hi - self.i2_lo < 2:
            raise ValueError(
                f"overlap too small: need i1_hi - i2_lo >= 2, got {self.i1_hi - self.i2_lo}"
            )

    def check(self, nx):
        if self.i1_hi >= nx:
            raise ValueError(f"i1_hi={self.i1_hi} must be < nx={nx}")


def default_decomposition(nx):
    """Centered overlap covering the middle quarter of the grid."""
    return Decomposition(i1_hi=(5 * nx) // 8, i2_lo=(3 * nx) // 8)


@dataclass
class IterationState:
    """The four bracketing fields, stacked by branch: u1 holds the
    subdomain-1 composites (u11 lower, u12 upper), u2 the subdomain-2
    composites (u21, u22); each is (2, nt+1, nx+1).  Sweeps make new
    arrays and never modify a state's fields in place."""

    u1: np.ndarray
    u2: np.ndarray
    sweep_index: int = 0

    @property
    def u11(self):
        return self.u1[0]

    @property
    def u12(self):
        return self.u1[1]

    @property
    def u21(self):
        return self.u2[0]

    @property
    def u22(self):
        return self.u2[1]


@dataclass
class ConvergenceHistory:
    gap_lower_upper: List[float] = field(default_factory=list)
    max_update: List[float] = field(default_factory=list)
    chain_violation: List[float] = field(default_factory=list)
    wall_ms: List[float] = field(default_factory=list)
    c_max: List[float] = field(default_factory=list)  # max of the c_total each sweep used
    states: Optional[list] = None  # per-sweep states when requested


@dataclass
class Solution:
    u: Field  # midpoint of the converged bracket
    u_lower: Field
    u_upper: Field
    converged: bool
    sweeps_used: int


def init_state(spec, grid):
    """Sample the bracket on the grid as the sweep-0 state."""
    lo = sample_field(spec.bracket.u_hat, grid)
    hi = sample_field(spec.bracket.u_tilde, grid)
    if np.any(lo > hi):
        k, i = np.unravel_index(np.argmax(lo - hi), lo.shape)
        raise BracketError(
            f"bracket ordering violated at node (k={k}, i={i}): "
            f"u_hat={lo[k, i]:.6g} > u_tilde={hi[k, i]:.6g}"
        )
    both = np.stack((lo, hi))
    return IterationState(u1=both, u2=both)


def _u0_row(spec, grid):
    return np.broadcast_to(
        np.asarray(spec.u0(grid.xs), dtype=float), (grid.nx + 1,)
    ).copy()


def _window_operators(spec, grid, stab, windows):
    """Operators of consecutive windows over [0, nx]: the outer ends carry
    the physical rows, every inner end is a pinned interface."""
    ops = []
    for j, window in enumerate(windows):
        left = spec.bc_left if j == 0 else None
        right = spec.bc_right if j == len(windows) - 1 else None
        ops.append(build_window_operator(grid, window, spec.coeffs, stab.c_total, left, right))
    return ops


def _dd_windows(grid, decomp):
    decomp.check(grid.nx)
    return (Subrange(0, decomp.i1_hi), Subrange(decomp.i2_lo, grid.nx))


def _sweep(state, spec, grid, stab, ops, u0_row):
    """One alternating sweep of both branches over the window operators.

    Window j takes its source F1 from composite j of the old state and its
    pinned interface values from the composite just before it (the old
    last composite for window 1); the new composite j is that composite
    with window j's columns replaced.  One window gives the single-domain
    iteration, whose two composites coincide.
    """
    base = state.u2
    new = []
    for op, src in zip(ops, (state.u1, state.u2)):
        lo, hi = op.window.lo, op.window.hi
        interior = slice(lo + 1, hi)
        q = np.stack([eval_F1_field(spec, stab, u, grid, interior) for u in src])
        sol = march_window(
            op,
            q,
            u0_row[lo : hi + 1],
            left=base[:, :, lo] if op.left_h is None else None,
            right=base[:, :, hi] if op.right_h is None else None,
        )
        base = base.copy()
        base[:, :, lo : hi + 1] = sol
        base[:, 0] = u0_row
        new.append(base)
    return IterationState(u1=new[0], u2=new[-1], sweep_index=state.sweep_index + 1)


def dd_sweep(state, spec, grid, decomp, stab):
    """Advance both branches by one alternating-Schwarz sweep with the
    stabilizer stab as given.  Builds the window operators for this one
    sweep; run_dd builds them once per run and refreshes stab itself."""
    ops = _window_operators(spec, grid, stab, _dd_windows(grid, decomp))
    return _sweep(state, spec, grid, stab, ops, _u0_row(spec, grid))


def _run(spec, grid, windows, tol, max_sweeps, n_samples, c_margin,
         abort_on_chain_violation, chain_slack, keep_states):
    """Set up (bracket, stabilizer, window operators) and sweep until the
    gap and the update both drop below tol, lowering the stabilizer on the
    current envelope after sweeps 1, 2, 4, 8, ..."""
    state = init_state(spec, grid)
    lo, hi = state.u11, state.u12
    stab = compute_stabilizers(spec, grid, lo, hi, n_samples=n_samples, margin=c_margin)
    ops = _window_operators(spec, grid, stab, windows)
    u0_row = _u0_row(spec, grid)

    history = ConvergenceHistory(states=[state] if keep_states else None)
    converged = False
    for _ in range(max_sweeps):
        t0 = time.perf_counter()
        n = state.sweep_index
        if n > 0 and n & (n - 1) == 0:
            stab = refresh_stabilizers(
                spec, grid, stab, state.u11, state.u12, n_samples=n_samples, margin=c_margin
            )
            for op in ops:
                refactor_window_operator(op, stab.c_total)
        nxt = _sweep(state, spec, grid, stab, ops, u0_row)
        gap, upd, viol = sweep_metrics(state, nxt, lo, hi)
        history.gap_lower_upper.append(gap)
        history.max_update.append(upd)
        history.chain_violation.append(viol)
        history.c_max.append(float(np.max(stab.c_total)))
        history.wall_ms.append(1e3 * (time.perf_counter() - t0))
        if keep_states:
            history.states.append(nxt)
        state = nxt
        if abort_on_chain_violation and viol < -chain_slack:
            raise MonotoneChainError(state.sweep_index, viol)
        if gap <= tol and upd <= tol:
            converged = True
            break
    solution = Solution(
        u=0.5 * (state.u21 + state.u22),
        u_lower=state.u21,
        u_upper=state.u22,
        converged=converged,
        sweeps_used=state.sweep_index,
    )
    return solution, history


def run_dd(
    spec,
    grid,
    decomp,
    tol,
    max_sweeps,
    n_samples=8,
    c_margin=1e-6,
    abort_on_chain_violation=False,
    chain_slack=1e-10,
    keep_states=False,
):
    """Sweep the two-subdomain scheme until the bracket gap and the update
    size both drop below tol, or max_sweeps is hit.

    The stabilizer c is computed over the initial bracket, then lowered
    on the current envelope after sweeps 1, 2, 4, 8, ... and never raised
    (see the module docstring); the window operators are built once and
    refactored in place at each refresh.  history.c_max records the
    largest c each sweep used.
    """
    windows = _dd_windows(grid, decomp)
    return _run(
        spec, grid, windows, tol, max_sweeps, n_samples, c_margin,
        abort_on_chain_violation, chain_slack, keep_states,
    )


def run_single_domain(
    spec,
    grid,
    tol,
    max_sweeps,
    n_samples=8,
    c_margin=1e-6,
    abort_on_chain_violation=False,
    chain_slack=1e-10,
    keep_states=False,
):
    """Undecomposed two-sequence monotone iteration (the DD oracle):
    the same sweep with a single window covering the whole grid."""
    return _run(
        spec, grid, (Subrange(0, grid.nx),), tol, max_sweeps, n_samples, c_margin,
        abort_on_chain_violation, chain_slack, keep_states,
    )


@dataclass(frozen=True)
class OrderStudyResult:
    grids: tuple  # ((nx, nt), ...)
    errors: tuple  # L-inf error vs exact per grid
    orders: tuple  # log2(e_coarse / e_fine) per refinement step


def order_study(spec, grids, tol, max_sweeps=500, decomposition_for=None, **run_kwargs):
    """Run the domain-decomposition solver per grid and report observed orders.

    Requires spec.exact.  Raises RuntimeError on a non-converged run.
    """
    if spec.exact is None:
        raise ValueError("order_study requires a spec with an exact solution attached")
    if decomposition_for is None:
        decomposition_for = default_decomposition
    errors = []
    for nx, nt in grids:
        grid = build_grid(spec.domain, nx, nt)
        sol, _ = run_dd(spec, grid, decomposition_for(nx), tol, max_sweeps, **run_kwargs)
        if not sol.converged:
            raise RuntimeError(f"run on grid (nx={nx}, nt={nt}) did not converge")
        exact = sample_field(spec.exact, grid)
        errors.append(float(np.max(np.abs(sol.u - exact))))
    orders = [
        math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)
    ]
    return OrderStudyResult(grids=tuple(grids), errors=tuple(errors), orders=tuple(orders))
