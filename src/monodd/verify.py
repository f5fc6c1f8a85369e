"""Discrete verification utilities: bracket residuals, monotone-chain
checking and the per-sweep metrics of the iteration.

Bracket residuals deliberately reuse the solver's stencils and quadrature
(eval_g_field, the memory term the iteration itself evaluates):
a candidate certified here starts a monotone discrete iteration to roundoff,
which certification against exact calculus would not guarantee.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import sample_field
from .volterra import eval_g_field


@dataclass(frozen=True)
class ResidualReport:
    worst_interior: tuple  # (value, k, i)
    worst_boundary: tuple  # (value, k, end)
    worst_initial: tuple  # (value, i)
    passed: bool
    slack: float


def _as_field(values, shape):
    return np.broadcast_to(np.asarray(values, dtype=float), shape)


def check_bracket(spec, grid, candidate, kind, slack=1e-9):
    """Discrete sub/supersolution residuals of a candidate field.

    kind="super" requires all residuals >= -slack; kind="sub" checks the
    reversed inequalities (implemented by flipping the residual sign).
    """
    if kind not in ("super", "sub"):
        raise ValueError(f"kind must be 'super' or 'sub', got {kind!r}")
    sign = 1.0 if kind == "super" else -1.0
    U = candidate if isinstance(candidate, np.ndarray) else sample_field(candidate, grid)
    nx, nt, dx, dt = grid.nx, grid.nt, grid.dx, grid.dt
    xs, ts = grid.xs, grid.ts

    # Interior residuals at every level k >= 1 and node 1..nx-1 at once.
    t, x, Uk = ts[1:, None], xs[None, 1:-1], U[1:, 1:-1]
    a = _as_field(spec.coeffs.a(t, x), Uk.shape)
    b = _as_field(spec.coeffs.b(t, x), Uk.shape)
    ut = (Uk - U[:-1, 1:-1]) / dt
    uxx = (U[1:, 2:] - 2.0 * Uk + U[1:, :-2]) / (dx * dx)
    fwd = (U[1:, 2:] - Uk) / dx
    bwd = (Uk - U[1:, :-2]) / dx
    ux = np.where(b > 0, fwd, bwd)
    fval = _as_field(spec.reaction.f(t, x, Uk), Uk.shape)
    g = eval_g_field(spec.kernel, U, grid)[1:, 1:-1]
    res = sign * (ut - a * uxx - b * ux - fval - g)
    k, i = np.unravel_index(int(np.argmin(res)), res.shape)
    worst_int = (float(res[k, i]), int(k) + 1, int(i) + 1)

    worst_bnd = (math.inf, -1, "")
    for k in range(1, nt + 1):
        t = ts[k]
        for end, bc, val, ngh in (
            ("left", spec.bc_left, U[k, 0], U[k, 1]),
            ("right", spec.bc_right, U[k, nx], U[k, nx - 1]),
        ):
            r = sign * (
                float(bc.alpha0(t)) * (val - ngh) / dx + float(bc.beta0(t)) * val - float(bc.h(t))
            )
            if r < worst_bnd[0]:
                worst_bnd = (float(r), k, end)

    res0 = sign * (U[0] - _as_field(spec.u0(xs), (nx + 1,)))
    i0 = int(np.argmin(res0))
    worst_ini = (float(res0[i0]), i0)

    passed = min(worst_int[0], worst_bnd[0], worst_ini[0]) >= -slack
    return ResidualReport(
        worst_interior=worst_int,
        worst_boundary=worst_bnd,
        worst_initial=worst_ini,
        passed=passed,
        slack=slack,
    )


# The seven ordering links between consecutive sweeps:
# u_hat <= u11(n) <= u21(n) <= u11(n+1) <= u12(n+1) <= u22(n) <= u12(n) <= u_tilde
_GAP_LINK = "u11(n+1) <= u12(n+1)"


def _chain_links(prev, nxt, u_hat_field, u_tilde_field):
    return (
        ("u_hat <= u11(n)", u_hat_field, prev.u11),
        ("u11(n) <= u21(n)", prev.u11, prev.u21),
        ("u21(n) <= u11(n+1)", prev.u21, nxt.u11),
        (_GAP_LINK, nxt.u11, nxt.u12),
        ("u12(n+1) <= u22(n)", nxt.u12, prev.u22),
        ("u22(n) <= u12(n)", prev.u22, prev.u12),
        ("u12(n) <= u_tilde", prev.u12, u_tilde_field),
    )


def check_monotone_chain(prev, nxt, u_hat_field, u_tilde_field, slack=1e-10):
    """Check all seven chain links at every node; returns a violation list.

    Each violation is (link_name, k, i, margin) with margin < -slack.
    Empty list means the chain holds.
    """
    shape = np.shape(prev.u11)
    for name, left, right in _chain_links(prev, nxt, u_hat_field, u_tilde_field):
        if np.shape(left) != shape or np.shape(right) != shape:
            raise ValueError(f"grid mismatch in chain link {name!r}")
    violations = []
    for name, left, right in _chain_links(prev, nxt, u_hat_field, u_tilde_field):
        margin = right - left
        bad = margin < -slack
        if np.any(bad):
            for k, i in zip(*np.nonzero(bad)):
                violations.append((name, int(k), int(i), float(margin[k, i])))
    return violations


def sweep_metrics(prev, nxt, u_hat_field, u_tilde_field):
    """(gap, update, margin) of the sweep prev -> nxt: the bracket gap
    max(u22 - u21, u12 - u11) of nxt, the update max |nxt - prev| over the
    four fields, and the smallest margin right - left over every chain
    link and node (negative where a link is violated).

    Every difference is written into one scratch array instead of a
    temporary of its own, and the u11(n+1) <= u12(n+1) link's difference
    also gives the subdomain-1 gap.
    """
    scratch = np.empty(np.shape(nxt.u1))
    one = scratch[0]
    margins = []
    for name, left, right in _chain_links(prev, nxt, u_hat_field, u_tilde_field):
        diff = np.subtract(right, left, out=one)
        margins.append(float(np.min(diff)))
        if name == _GAP_LINK:
            gap_1 = float(np.max(diff))
    gap_2 = float(np.max(np.subtract(nxt.u22, nxt.u21, out=one)))
    updates = []
    for new, old in ((nxt.u1, prev.u1), (nxt.u2, prev.u2)):
        diff = np.subtract(new, old, out=scratch)
        updates.append(float(np.max(np.abs(diff, out=diff))))
    return max(gap_2, gap_1), max(updates), min(margins)

