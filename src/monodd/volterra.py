"""Memory-term quadrature, stabilizing coefficients, and the monotone
right-hand side.

The Volterra term g(t,x,u) = int_0^t g0(t,x,s,u(t,x),u(s,x)) ds is
approximated with the composite trapezoidal rule on the stored time levels.
Trapezoid weights are nonnegative, which is what lets the discrete g inherit
the monotone-in-history bound g(u) - g(v) >= -b_under (u - v).

For a kernel declared with VolterraKernel.exponential, kappa e^{-lam(t-s)}
psi(eta2), the same trapezoid sum obeys a two-term recursion, which a
doubling scan with positive coefficients evaluates in log2(nt) passes over
the whole field: O(nt log(nt) nx) arithmetic instead of O(nt^2 nx), and
still exactly monotone in psi.  Such a kernel does not depend on eta1, so
b_under is zero.  The fields of both branches may come stacked on a
leading axis, with one Past for both, and take one call.

A field may also be given on the time levels k0..k1 of a slab only, with
the Past of its final levels 0..k0: the memory integral at k0, which the
exponential recursion carries on as r^j T_k0 plus the slab's own
trapezoid sum from k0 (an exact split of the composite rule), and the
rows themselves, which only the generic trapezoid sum reads.  Both parts
are nondecreasing in psi, so a lower past gives a lower memory term.

The stabilizer c_total >= c_under + b_under + margin is added to both
sides of the equation so that

    F1(t, x, u) = c_total u + f(t, x, u) + g(t, x, u)

is nondecreasing in u over the bracket.  c_under and b_under are sampled
suprema of -df/du and -dg0/deta1; an additive margin compensates for the
sampling underestimate.  c_total is negative where f grows in u, as the
monotone iteration of parabolic problems allows (Pao, Nonlinear Parabolic
and Elliptic Equations, 1992, ch. 2-3).  Its only floor is C_FLOOR_DT / dt
= -1/(2 dt): a step matrix's interior rows exceed diagonal dominance by
1/dt + c_total >= 1/(2 dt), so it stays a strictly diagonally dominant
Z-matrix, an M-matrix (Varga, Matrix Iterative Analysis, 2000, 3.5).
refresh_stabilizers lowers c_total to the smaller interval the iterates
occupy after some sweeps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Union

import numpy as np

from .discretization import Field, Grid1D, as_shape


# The least stabilizer, in units of 1/dt: c_total >= C_FLOOR_DT / dt keeps
# every backward-Euler step matrix diagonally dominant by 1/dt + c_total >=
# 1/(2 dt) (see the module docstring).
C_FLOOR_DT = -0.5

# History levels per block in the generic-kernel stabilizer loop; bounds its
# temporaries at O(n_samples^2 nx HISTORY_CHUNK) whatever nt is.
HISTORY_CHUNK = 32

# Time rows per block of the sampled c_under; bounds its temporaries at
# O(C_UNDER_ROWS nx) whatever nt is.
C_UNDER_ROWS = 32


class StabilizerError(RuntimeError):
    pass


@dataclass(frozen=True)
class StabilizerField:
    c_total: Field  # c = max(c_under + b_under + margin, C_FLOOR_DT / dt), may be negative
    # memory-term component over the initial bracket: a Field, or the
    # scalar 0.0 for a kernel that does not depend on eta1 (exponential,
    # trivial), which needs none
    b_under: Union[Field, float]
    fd_step: float = 0.0  # centered-difference step of c_under, from the initial bracket

    def levels(self, k0, k1):
        """The stabilizer on the time levels k0..k1, copied: a slab of a run
        holds its own rows, and the whole field goes once every slab does."""
        rows = slice(k0, k1 + 1)
        b_under = self.b_under if np.ndim(self.b_under) == 0 else self.b_under[rows].copy()
        return replace(self, c_total=self.c_total[rows].copy(), b_under=b_under)


@dataclass(frozen=True)
class Past:
    """The final time levels 0..k0 of one field, or of a stack of fields
    on a leading axis (one per branch), as the memory term at the later
    levels reads them: the memory integral g at level k0, which an
    exponential kernel carries on, and the rows u and times ts -- of
    levels 0..k0 for a generic kernel, whose trapezoid sum reads them,
    and of level k0 alone for any other kernel (the first row of the
    levels after it)."""

    u: np.ndarray  # (..., k0+1, nx+1), or (..., 1, nx+1)
    ts: np.ndarray  # (k0+1,), or (1,)
    g: np.ndarray  # (..., nx+1)
    # e^{-lam dt j} at the levels j = 0..nt after k0, as a column, by
    # (lam, dt, nt): the factor an exponential kernel's g carries on by,
    # made once for the levels every sweep of a slab evaluates
    decay: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def initial(cls, row, grid):
        """The past of a strip that starts from row (or a stack of rows)
        at level 0."""
        row = np.asarray(row, dtype=float)
        return cls(u=row[..., None, :], ts=grid.ts[:1], g=np.zeros(row.shape))

    def extend(self, kernel, u, grid):
        """The past at the last level of u, which holds the final levels
        k0..k1 (row 0 the level-k0 row of this past) on their grid."""
        g = eval_g_field(kernel, u, grid, past=self)[..., -1, :].copy()
        if kernel.trivial or kernel.exp_form is not None:
            return Past(u=u[..., -1:, :].copy(), ts=grid.ts[-1:], g=g)
        return Past(
            u=np.concatenate((self.u[..., :-1, :], u), axis=-2),
            ts=np.concatenate((self.ts[:-1], grid.ts)),
            g=g,
        )


def quadrature_weights(k, dt):
    """Trapezoid weights dt*(1/2, 1, ..., 1, 1/2) over s_0..s_k (k >= 1)."""
    w = np.full(k + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def eval_g_row(kernel, u, k, grid, cols=slice(None)):
    """Memory integral at time level k for every node (or the nodes cols
    selects), from the history of u."""
    xs = grid.xs[cols]
    if k == 0 or kernel.trivial:
        return np.zeros(xs.size)
    u = u[:, cols]
    w = quadrature_weights(k, grid.dt)
    vals = np.asarray(
        kernel.g0(
            grid.ts[k],
            xs[None, :],
            grid.ts[: k + 1, None],
            u[k][None, :],
            u[: k + 1],
        ),
        dtype=float,
    )
    vals = np.broadcast_to(vals, (k + 1, xs.size))
    return w @ vals


def _exponential_trapezoid(form, u, dt):
    """Trapezoid sums of kappa e^{-lam(t_k - s)} psi(u(s)) for every level k
    (axis -2 of u; any axes before it are separate fields).

    T_0 = 0 and T_k = r T_{k-1} + a_k, a_k = (dt/2)(r psi_{k-1} + psi_k),
    r = e^{-lam dt}, by a doubling scan (Hillis & Steele 1986): after the
    pass of step d, T_k holds the a_j r^{k-j} of the 2d levels j <= k
    nearest k, so ceil(log2 L) whole-array passes finish L levels.  Each
    r^d is exponentiated directly (d dt is exact for a power of two d), so
    a_j meets r^{k-j} as a product of at most log2 L correctly rounded
    factors: rounding grows like log2 L, where the level-by-level
    recursion's repeated products drift like L.  Every coefficient (dt/2,
    r^d) is positive, so for kappa >= 0 the result is nondecreasing in psi
    exactly, rounding included.
    """
    psi = as_shape(form.psi(u), u.shape)
    step = -form.lam * dt
    out = np.zeros(u.shape)
    out[..., 1:, :] = (0.5 * dt) * (math.exp(step) * psi[..., :-1, :] + psi[..., 1:, :])
    d = 1
    while d < u.shape[-2]:
        out[..., d:, :] += math.exp(step * d) * out[..., :-d, :]
        d *= 2
    out *= form.kappa
    return out


def _exponential_memory(form, u, grid, cols, past):
    """An exponential kernel's memory integral of u, the field already on
    the columns cols selects (a slice or an index array), carrying on
    past.g at those columns when there is a past."""
    out = _exponential_trapezoid(form, u, grid.dt)
    if past is not None:
        key = (form.lam, grid.dt, grid.nt)
        decay = past.decay.get(key)
        if decay is None:
            decay = past.decay[key] = np.exp(-form.lam * grid.dt * np.arange(grid.nt + 1))[:, None]
        out += decay * past.g[..., None, cols]
    return out


def eval_g_field(kernel, u, grid, cols=slice(None), past=None):
    """Memory integral at every time level and node, shape (nt+1, nx+1), or
    on the columns cols selects: node i's integral reads only column i.
    u may stack fields on a leading axis, (m, nt+1, nx+1), with a Past
    whose rows and g carry the same axis; the result then stacks theirs.

    With a Past of the levels 0..k0, u and grid hold the levels k0..k1
    only (u's row 0 stands in for the past's last row) and the integral
    covers the whole history from level 0.

    Exponential kernels take the doubling scan over the whole stack,
    trivial kernels give zeros, and every other kernel the generic
    trapezoid sum of eval_g_row, field by field.
    """
    u = np.asarray(u, dtype=float)
    if kernel.trivial:
        return np.zeros(u.shape[:-1] + (grid.xs[cols].size,))
    if kernel.exp_form is not None:
        return _exponential_memory(kernel.exp_form, u[..., cols], grid, cols, past)
    if u.ndim > 2:
        return np.stack([
            eval_g_field(kernel, one, grid, cols, None if past is None else replace(past, u=past.u[j], g=past.g[j]))
            for j, one in enumerate(u)
        ])
    k0 = 0
    if past is not None:
        k0 = past.ts.size - 1
        u = np.concatenate((past.u[:-1], u))
        grid = replace(grid, nt=k0 + grid.nt, ts=np.concatenate((past.ts[:-1], grid.ts)))
    return np.stack(
        [eval_g_row(kernel, u, k, grid, cols) for k in range(k0, grid.ts.size)]
    )


def compute_stabilizers(spec, grid, u_hat_field, u_tilde_field, n_samples=8, margin=1e-6):
    """Sampled suprema c_under, b_under over the bracket, combined and floored:

        c_total = max(c_under + b_under + margin, C_FLOOR_DT / dt).

    c_under(t,x) ~ max over eta in [u_hat, u_tilde] of -f_u(t,x,eta);
    b_under(t,x) = trapezoid over s of max over eta1, eta2 of -dg0/deta1.
    Derivatives use analytic callables when supplied, centered differences
    otherwise.  The additive margin guards against sampled-sup underestimate.
    c_total is negative where f grows on the whole bracket; the floor
    -1/(2 dt) keeps every assembled system an M-matrix.  b_under is the
    scalar 0.0 for a trivial or exponential kernel, and c_total is formed
    in place in c_under's array.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    lo = np.asarray(u_hat_field, dtype=float)
    hi = np.asarray(u_tilde_field, dtype=float)
    if np.any(lo > hi):
        raise ValueError("u_hat_field must be <= u_tilde_field everywhere")
    max_width = float(np.max(hi - lo))
    shape = lo.shape
    reaction, kernel = spec.reaction, spec.kernel
    degenerate = max_width == 0.0
    fd_step = 0.0 if degenerate else 1e-6 * max_width

    if reaction.c_bar_bound is not None:
        c_under = np.full(shape, float(reaction.c_bar_bound))
    else:
        if reaction.f_u is None and degenerate:
            raise StabilizerError(
                "bracket has zero width and no analytic f_u or c_bar_bound was supplied"
            )
        c_under = _sampled_c_under(reaction, grid, lo, hi, n_samples, fd_step)

    b_under = 0.0
    if not kernel.trivial and kernel.exp_form is None:
        width = hi - lo
        theta = np.linspace(0.0, 1.0, n_samples)
        b_under = np.zeros(shape)
        if kernel.dg0_deta1 is None and degenerate:
            raise StabilizerError(
                "bracket has zero width and no analytic dg0_deta1 was supplied"
            )
        x = grid.xs[None, None, None, :]
        b0 = np.empty(shape)  # sampled sup of -dg0/deta1 over the history of level k
        for k in range(1, grid.nt + 1):
            t = grid.ts[k]
            e1 = (lo[k] + theta[:, None] * width[k])[None, :, None, :]
            # The history axis goes in chunks so temporaries stay
            # O(n_samples^2 nx HISTORY_CHUNK); axes: (history level m,
            # eta1 sample, eta2 sample, node).
            for m0 in range(0, k + 1, HISTORY_CHUNK):
                m1 = min(m0 + HISTORY_CHUNK, k + 1)
                e2 = (lo[m0:m1, None, :] + theta[None, :, None] * width[m0:m1, None, :])[
                    :, None, :, :
                ]
                s = grid.ts[m0:m1, None, None, None]
                if kernel.dg0_deta1 is not None:
                    d = np.asarray(kernel.dg0_deta1(t, x, s, e1, e2), dtype=float)
                else:
                    d = (
                        np.asarray(kernel.g0(t, x, s, e1 + fd_step, e2), dtype=float)
                        - np.asarray(kernel.g0(t, x, s, e1 - fd_step, e2), dtype=float)
                    ) / (2 * fd_step)
                d = np.broadcast_to(d, (m1 - m0, n_samples, n_samples, grid.nx + 1))
                b0[m0:m1] = np.max(-d, axis=(1, 2))
            b_under[k] = quadrature_weights(k, grid.dt) @ b0[: k + 1]

    c_under += b_under
    c_under += margin
    return StabilizerField(
        c_total=np.maximum(c_under, C_FLOOR_DT / grid.dt, out=c_under),
        b_under=b_under,
        fd_step=fd_step,
    )


@lru_cache(maxsize=8)
def _sample_points(n_samples):
    """The n_samples equispaced points of [0, 1], computed once per count."""
    return tuple(np.linspace(0.0, 1.0, n_samples).tolist())


def _sampled_c_under(reaction, grid, lo, hi, n_samples, eps):
    """max over n_samples equispaced eta in [lo, hi] of -f_u(t, x, eta),
    eta = lo + theta (hi - lo); f_u is a centered difference of step eps
    when the reaction has no analytic one.  It runs C_UNDER_ROWS time rows
    at a time, every sample of a block formed in one array: each operation
    is pointwise, so the blocks give the whole field's values and the
    temporaries stay O(C_UNDER_ROWS nx)."""
    c_under = np.empty(lo.shape)
    thetas = _sample_points(n_samples)
    for r0 in range(0, lo.shape[0], C_UNDER_ROWS):
        rows = slice(r0, r0 + C_UNDER_ROWS)
        t, x = grid.ts[rows, None], grid.xs[None, :]
        base, out = lo[rows], c_under[rows]
        width = hi[rows] - base
        eta = np.empty(base.shape)
        for j, theta in enumerate(thetas):
            np.multiply(width, theta, out=eta)
            eta += base
            if reaction.f_u is not None:
                d = reaction.f_u(t, x, eta)
            else:
                d = (
                    np.asarray(reaction.f(t, x, eta + eps), dtype=float)
                    - np.asarray(reaction.f(t, x, eta - eps), dtype=float)
                ) / (2 * eps)
            # The running minimum of f_u, negated once at the end, is the
            # running maximum of -f_u, NaNs and signed zeros included:
            # maximum keeps its first argument where minimum of the
            # negations keeps theirs.
            if j == 0:
                out[...] = d
            else:
                np.minimum(out, d, out=out)
        np.negative(out, out=out)
    return c_under


def refresh_stabilizers(spec, grid, stab, lo, hi, n_samples=8, margin=1e-6):
    """The stabilizer lowered to the envelope [lo, hi] that the iterates now
    occupy (the accelerated monotone iteration of Pao):

        c = min(stab.c_total,
                max(c_under([lo, hi]) + stab.b_under + margin, C_FLOOR_DT / dt)).

    c_under is resampled as compute_stabilizers samples it, with the
    centered-difference step of the initial bracket (a step scaled to a
    nearly closed envelope would be rounding noise).  b_under is kept: it
    is still a bound, and resampling it costs O(nt^2 nx n_samples^2).
    The min keeps c from ever rising, which the monotone chain needs, as
    a sampled supremum over a smaller interval can come out larger.
    Returns stab itself, with no resample, when the reaction gives a
    constant c_bar_bound, when c is already at the floor at every node
    (the min would keep it there) or when the envelope has zero width.
    """
    reaction = spec.reaction
    floor = C_FLOOR_DT / grid.dt
    if reaction.c_bar_bound is not None or np.all(stab.c_total == floor):
        return stab
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if float(np.max(hi - lo)) == 0.0:
        return stab
    c = _sampled_c_under(reaction, grid, lo, hi, n_samples, stab.fd_step)
    c += stab.b_under
    c += margin
    np.maximum(c, floor, out=c)
    np.minimum(c, stab.c_total, out=c)
    return StabilizerField(c_total=c, b_under=stab.b_under, fd_step=stab.fd_step)


def eval_F1_field(spec, stab, u, grid, cols=slice(None), past=None):
    """Monotone right-hand side c_total u + f + g at every time level and
    node (row 0 included for completeness), with g from eval_g_field; with
    cols, on those columns only, which is all a window's solve reads.
    u, stab and grid may hold the levels of a slab, with the Past of the
    levels before it, and u may stack the fields of both branches on a
    leading axis (see eval_g_field): one call then serves both, bitwise
    as two would.

    u and cols may also be tuples of the same length, the fields and the
    column slices of several windows: the result is then the list of F1
    of u[j] on cols[j], bitwise as one call each would give it.  Every
    term at a node reads that node's column only, so the windows' columns
    are gathered side by side, overlapping ones twice, and evaluated at
    once: a sweep evaluates F1 in one call, not one per window.  Only a
    generic kernel's memory term, a trapezoid sum by matrix product whose
    rounding may depend on the number of columns, is evaluated window by
    window.
    """
    if not isinstance(cols, tuple):
        return _F1_on(spec, stab, u, grid, cols, past)
    if len(cols) == 1:
        return [_F1_on(spec, stab, u[0], grid, cols[0], past)]
    kernel = spec.kernel
    nodes = np.arange(grid.xs.size)
    parts = [nodes[one] for one in cols]
    gathered = np.concatenate(parts)
    uc = np.concatenate([np.asarray(one, dtype=float)[..., c] for one, c in zip(u, cols)], axis=-1)
    out = stab.c_total[:, gathered] * uc
    out += spec.reaction.f(grid.ts[:, None], grid.xs[None, gathered], uc)
    if kernel.trivial:
        out += 0.0  # what adding eval_g_field's zeros does: -0.0 becomes +0.0
    elif kernel.exp_form is not None:
        out += _exponential_memory(kernel.exp_form, uc, grid, gathered, past)
    else:
        out += np.concatenate(
            [eval_g_field(kernel, one, grid, c, past) for one, c in zip(u, cols)], axis=-1
        )
    results, start = [], 0
    for part in parts:
        results.append(out[..., start : start + part.size])
        start += part.size
    return results


def _F1_on(spec, stab, u, grid, cols, past):
    """eval_F1_field of one field on one set of columns."""
    u = np.asarray(u, dtype=float)
    uc = u[..., cols]
    out = stab.c_total[:, cols] * uc
    out += spec.reaction.f(grid.ts[:, None], grid.xs[None, cols], uc)
    out += eval_g_field(spec.kernel, u, grid, cols, past)
    return out
