"""Discrete verification utilities: bracket residuals, monotone-chain
checking and the per-sweep metrics of the iteration.

Bracket residuals deliberately reuse the solver's stencils and quadrature
(eval_g_field, the memory term the iteration itself evaluates):
a candidate certified here starts a monotone discrete iteration to roundoff,
which certification against exact calculus would not guarantee.  The
solver certifies each slab's predicted start with the same residuals, on
the slab's levels and the past of both branches (see iteration).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import sample_field, sample_steps
from .volterra import eval_g_field

# How far below zero a chain link may fall to rounding: the slack of
# check_monotone_chain and of the iteration's abort on a violated chain.
CHAIN_SLACK = 1e-10


@dataclass(frozen=True)
class ResidualReport:
    worst_interior: tuple  # (value, k, i)
    worst_boundary: tuple  # (value, k, end)
    worst_initial: tuple  # (value, i)
    passed: bool
    slack: float


def _as_field(values, shape):
    return np.broadcast_to(np.asarray(values, dtype=float), shape)


def bracket_residuals(spec, grid, U, past=None, samples=None):
    """The discrete supersolution residuals of U, each >= 0 where U is a
    supersolution and <= 0 where it is a subsolution: (interior, boundary,
    initial), of shapes (..., nt, nx-1), (..., nt, 2) and (..., nx+1).

    Interior residuals are those of the solver's scheme at every level
    k >= 1 and node 1..nx-1, u_t - a u_xx - b u_x - f - g with backward
    Euler, central diffusion, upwinded advection and the memory term the
    iteration itself evaluates; boundary ones are alpha0 du/dnu + beta0 u
    - h at every level k >= 1, the left end before the right; initial
    ones are U's row 0 less u0.  U may stack fields on a leading axis.

    With a Past of the levels 0..k0, U and grid hold the levels k0..k1 of
    a slab, the memory term reads that past (U's row 0 standing in for
    its last row, see volterra.eval_g_field), and the initial residual is
    U's row 0 less the past's last row: a slab's start is a subsolution
    where it lies below its past and a supersolution where above.
    samples are the StepSamples of grid, when the caller has them
    already.
    """
    if samples is None:
        samples = sample_steps(grid, spec.coeffs, spec.bc_left, spec.bc_right)
    dx, dt = grid.dx, grid.dt
    t, x, Uk = grid.ts[1:, None], grid.xs[None, 1:-1], U[..., 1:, 1:-1]
    a, b = samples.a, samples.b
    res = np.subtract(Uk, U[..., :-1, 1:-1])
    res /= dt
    term = np.multiply(Uk, 2.0)
    np.subtract(U[..., 1:, 2:], term, out=term)
    term += U[..., 1:, :-2]
    term /= dx * dx
    term *= a
    res -= term
    if np.any(b):  # upwinded advection; with b = 0 everywhere it adds nothing
        term = np.where(b > 0, U[..., 1:, 2:] - Uk, Uk - U[..., 1:, :-2])
        term /= dx
        term *= b
        res -= term
    res -= spec.reaction.f(t, x, Uk)
    res -= eval_g_field(spec.kernel, U, grid, past=past)[..., 1:, 1:-1]

    bnd = np.empty(U.shape[:-2] + (grid.nt, 2))
    for j, (i, ngh) in enumerate(((0, 1), (grid.nx, grid.nx - 1))):
        alpha0, beta0, h = samples.ends[j]
        val = U[..., 1:, i]
        bnd[..., j] = alpha0 * (val - U[..., 1:, ngh]) / dx + beta0 * val - h

    first = _as_field(spec.u0(grid.xs), (grid.nx + 1,)) if past is None else past.u[..., -1, :]
    return res, bnd, U[..., 0, :] - first


def check_bracket(spec, grid, candidate, kind, slack=1e-9, past=None):
    """Discrete sub/supersolution residuals of a candidate field (see
    bracket_residuals): on the strip, or on the levels of a slab, grid,
    with the Past of one field up to its first level.

    kind="super" requires all residuals >= -slack; kind="sub" checks the
    reversed inequalities (implemented by flipping the residual sign).
    Each worst entry is the smallest residual of its kind, the first one
    (by level, then node, the left end before the right) on a tie; a NaN
    residual is the worst of its kind and fails the check.
    """
    if kind not in ("super", "sub"):
        raise ValueError(f"kind must be 'super' or 'sub', got {kind!r}")
    sign = 1.0 if kind == "super" else -1.0
    U = candidate if isinstance(candidate, np.ndarray) else sample_field(candidate, grid)
    res, bnd, res0 = (sign * r for r in bracket_residuals(spec, grid, U, past))

    k, i = np.unravel_index(int(np.argmin(res)), res.shape)
    worst_int = (float(res[k, i]), int(k) + 1, int(i) + 1)
    # bnd is (nt, 2), the left end's column before the right end's, so
    # argmin keeps the level-by-level order.
    j = int(np.argmin(bnd))
    worst_bnd = (float(bnd.flat[j]), j // 2 + 1, ("left", "right")[j % 2])
    i0 = int(np.argmin(res0))
    worst_ini = (float(res0[i0]), i0)

    # argmin takes the first NaN, and a NaN fails the comparison.
    passed = all(worst[0] >= -slack for worst in (worst_int, worst_bnd, worst_ini))
    return ResidualReport(
        worst_interior=worst_int,
        worst_boundary=worst_bnd,
        worst_initial=worst_ini,
        passed=passed,
        slack=slack,
    )


# The seven ordering links between consecutive sweeps:
# u_hat <= u11(n) <= u21(n) <= u11(n+1) <= u12(n+1) <= u22(n) <= u12(n) <= u_tilde
def _chain_links(prev, nxt, u_hat_field, u_tilde_field):
    return (
        ("u_hat <= u11(n)", u_hat_field, prev.u11),
        ("u11(n) <= u21(n)", prev.u11, prev.u21),
        ("u21(n) <= u11(n+1)", prev.u21, nxt.u11),
        ("u11(n+1) <= u12(n+1)", nxt.u11, nxt.u12),
        ("u12(n+1) <= u22(n)", nxt.u12, prev.u22),
        ("u22(n) <= u12(n)", prev.u22, prev.u12),
        ("u12(n) <= u_tilde", prev.u12, u_tilde_field),
    )


def check_monotone_chain(prev, nxt, u_hat_field, u_tilde_field):
    """Check all seven chain links at every node; returns a violation list.

    Each violation is (link_name, k, i, margin) with margin < -CHAIN_SLACK.
    Empty list means the chain holds.
    """
    shape = np.shape(prev.u11)
    for name, left, right in _chain_links(prev, nxt, u_hat_field, u_tilde_field):
        if np.shape(left) != shape or np.shape(right) != shape:
            raise ValueError(f"grid mismatch in chain link {name!r}")
    violations = []
    for name, left, right in _chain_links(prev, nxt, u_hat_field, u_tilde_field):
        margin = right - left
        bad = margin < -CHAIN_SLACK
        if np.any(bad):
            for k, i in zip(*np.nonzero(bad)):
                violations.append((name, int(k), int(i), float(margin[k, i])))
    return violations


def sweep_metrics(prev, nxt, u_hat_field, u_tilde_field):
    """(gap, update, margin) of the sweep prev -> nxt: the bracket gap
    max(u22 - u21, u12 - u11) of nxt, the update max |nxt - prev| over the
    four fields, and the smallest margin right - left over every chain
    link and node (negative where a link is violated).

    Every difference is written into a scratch array instead of a
    temporary of its own and reduced by the ufunc straight away, the
    links in _chain_links' order, so a NaN meets Python's min and max in
    the same place.  The two updates' absolute values, which hold no
    signed zero, are taken in one call and reduced in another.
    """
    scratch = np.empty((2,) + np.shape(nxt.u1))
    one = scratch[0, 0]
    sub, least, most = np.subtract, np.minimum.reduce, np.maximum.reduce
    margin = min(
        least(sub(right, left, out=one), None)
        for _, left, right in _chain_links(prev, nxt, u_hat_field, u_tilde_field)
    )
    gap = max(most(sub(nxt.u22, nxt.u21, out=one), None),
              most(sub(nxt.u12, nxt.u11, out=one), None))
    sub(nxt.u1, prev.u1, out=scratch[0])
    sub(nxt.u2, prev.u2, out=scratch[1])
    update = max(most(np.abs(scratch, out=scratch), (1, 2, 3)).tolist())
    return float(gap), float(update), float(margin)

