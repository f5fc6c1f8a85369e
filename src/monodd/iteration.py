"""Monotone domain-decomposition iteration over two overlapping subdomains.

Four bracketing fields are advanced per sweep: a lower and an upper branch
(started from the subsolution and supersolution), each carried by a
subdomain-1 composite and a subdomain-2 composite.  Within a branch the
subdomain-2 solve sees subdomain 1's freshly updated interface trace
(multiplicative/alternating order).  Artificial interfaces carry Dirichlet
trace copies; physical endpoints always carry the real boundary data.
Composite 1 holds window 1's solve on its own columns and, right of
window 1, the same sweep's subdomain-2 values: no solve reads it there,
but the envelope [u11, u12] a refresh samples is then current on the
whole strip.

The stabilizer c makes F1 = c u + f + g nondecreasing on the order
interval the iterates occupy.  That interval shrinks every sweep, so c is
refreshed on the current envelope [u11, u12] after sweeps 1, 2, 4, 8, ...
(the accelerated monotone iteration of Pao), as
c_n = min(c_{n-1}, max(c_under([u11, u12]) + b_under + margin, -1/(2 dt))),
negative where f grows on the whole envelope (see volterra).  The
min keeps the chain: on an overlap node the link u21(n) <= u11(n+1) comes
down to (c_{n-1} - c_n)(u21(n) - u11(n)) plus an F1_{c_{n-1}} difference,
both nonnegative only while c never rises.  A refresh after sweep n
covers every field the next sweep applies c to: F1 is evaluated on u1(n)
over window 1 and on u2(n) over window 2, and u2(n) lies inside
[u11(n), u12(n)] on the overlap by the chain and is that envelope right
of window 1.

How a run proceeds.  The scheme is backward Euler in time and the memory
term is causal, so level k depends on levels <= k only.  A run therefore
sweeps the strip in

    m = max(ceil(T max c), min(ceil(T max a / delta^2), nt // MIN_SLAB_LEVELS))

consecutive slabs of equal length (+-1 level, each ceil within 1..nt).
c is the stabilizer over the initial bracket on levels 1..nt, the ones a
step uses: over a slab of length tau the iteration error falls like
(c tau)^n / n! (windowed waveform relaxation, Miekkala & Nevanlinna 1987,
Gander & Stuart 1998).  Two windows must also converge across their
overlap, delta = (i1_hi - i2_lo) dx wide, and overlapping Schwarz
waveform relaxation contracts at a rate set by delta^2 / (a tau) (same
references): no slab is longer than delta^2 / max a, the time diffusion
takes to cross the overlap, but none is shorter than MIN_SLAB_LEVELS
levels on that account, as a slab-sweep's fixed cost would then exceed
its level-solves'.  The single-domain iteration has no overlap and takes
the c term alone.  With both terms <= 1 there is one slab, the whole
strip.  A slab [k0, k1] iterates its levels only: each branch starts at
row k0 from its own final field of the slab before (lower from u21,
upper from u22), the memory term reads that field's frozen past
(volterra.Past), and the stabilizer starts from the initial-bracket c
on the slab's levels and is refreshed after slab sweeps 1, 2, 4, 8, ...,
a refresh put off by one sweep when the next sweep is predicted to
finish the slab.  A slab
stops at the first sweep whose gap, over its levels and its carried
first row, is <= tol: every lower iterate is a subsolution and every
upper one a supersolution, so that envelope is the certified product,
and as the chain puts sweep n+1 inside the envelope of sweep n, the
update of a further sweep could not exceed that gap anyway.  max_sweeps
and the chain check apply per slab.  Where the carried gap grows across
a slab so that its gap stalls above tol, which the slab tells from the
contraction of its own updates (see _sweep_slab), every earlier slab is
given a tighter target at once and the run resumes at the earliest one
that misses it (see _run).  If a slab does not converge, as it
hits max_sweeps or sits at a rounding-level fixed point above its
target (see _sweep_slab), the run ends there, history.stop_reason says
which, and the levels after it keep the bracket.

History entry n aggregates the n-th sweep of every slab that ran one (the
largest gap and update, the smallest chain margin, the largest c, the
summed wall time); sweeps_used is the largest per-slab count, and
history.slab_sweeps lists (k0, k1, sweeps) per slab, so a run solves
sum (k1 - k0) sweeps levels per window (history.level_solves).

The two branches are one stacked array.  The run's working set follows
the slab: a slab's window operators are built on its levels when it
starts sweeping (k0 set, so an M-matrix failure names the strip's time
step), refactored by its refreshes that change c, and dropped when it
stops; a slab the run comes back to is built again from its current
stabilizer, which gives the same factors.  What the run keeps of a
stopped slab is what resuming it needs (its state and stabilizer), and
the result goes into the bracket's own array at the end.  A sweep
evaluates F1 for both branches and both windows in one call and marches
the branches as two right-hand-side columns.  The undecomposed single-domain monotone
iteration, the correctness oracle for the decomposed limit, is the same
sweep over one window.  order_study runs the decomposed solver over a
list of grids and reports the observed convergence orders against an
exact solution.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .discretization import (
    Field,
    Grid1D,
    Subrange,
    build_grid,
    build_window_operator,
    march_window,
    refactor_window_operator,
    sample_field,
)
from .verify import sweep_metrics
from .volterra import (
    Past,
    StabilizerField,
    compute_stabilizers,
    eval_F1_field,
    refresh_stabilizers,
)


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
    composites (u21, u22); each is (2, nt+1, nx+1), or (2, k1-k0+1, nx+1)
    over the levels of a slab.  After a sweep, u1 is window 1's solve on
    its columns and equals u2 right of them.  Sweeps make new arrays and
    never modify a state's fields in place."""

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
    """Entry n aggregates sweep n+1 of every slab that ran one: the largest
    gap, update and c_max, the smallest chain margin, the summed wall_ms.
    states[n] (when kept) is the whole-strip composite of every slab's
    iterate n, whose u1 equals its u2 right of window 1 from sweep 1 on;
    a slab that stopped before contributes its final subdomain-2
    composite as both u1 and u2."""

    gap_lower_upper: List[float] = field(default_factory=list)
    max_update: List[float] = field(default_factory=list)
    chain_violation: List[float] = field(default_factory=list)
    wall_ms: List[float] = field(default_factory=list)
    c_max: List[float] = field(default_factory=list)  # max of c_total[1:], the c each sweep's steps used
    states: Optional[list] = None  # per-sweep states when requested
    slab_sweeps: List[tuple] = field(default_factory=list)  # (k0, k1, sweeps) per slab run
    # "converged", "max_sweeps on slab k0..k1" or "fixed point on slab k0..k1 at gap G"
    stop_reason: str = ""

    @property
    def level_solves(self):
        """Time levels solved per window over the run."""
        return sum((k1 - k0) * sweeps for k0, k1, sweeps in self.slab_sweeps)

    def record(self, n, gap, update, margin, c_max, wall_ms):
        """Fold a slab's sweep n+1 into entry n."""
        if n < len(self.gap_lower_upper):
            self.gap_lower_upper[n] = max(self.gap_lower_upper[n], gap)
            self.max_update[n] = max(self.max_update[n], update)
            self.chain_violation[n] = min(self.chain_violation[n], margin)
            self.c_max[n] = max(self.c_max[n], c_max)
            self.wall_ms[n] += wall_ms
        else:
            self.gap_lower_upper.append(gap)
            self.max_update.append(update)
            self.chain_violation.append(margin)
            self.c_max.append(c_max)
            self.wall_ms.append(wall_ms)


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


def _window_operators(spec, grid, stab, windows, k0=0):
    """Operators of consecutive windows over [0, nx] on grid, whose first
    level is strip level k0: the outer ends carry the physical rows, every
    inner end is a pinned interface."""
    ops = []
    for j, window in enumerate(windows):
        left = spec.bc_left if j == 0 else None
        right = spec.bc_right if j == len(windows) - 1 else None
        ops.append(
            build_window_operator(grid, window, spec.coeffs, stab.c_total, left, right, k0)
        )
    return ops


def _dd_windows(grid, decomp):
    decomp.check(grid.nx)
    return (Subrange(0, decomp.i1_hi), Subrange(decomp.i2_lo, grid.nx))


def _sweep(state, spec, grid, stab, ops, past):
    """One alternating sweep of both branches over the window operators.

    state, grid, stab and ops hold the levels k0..k1 of one slab, and
    past the stacked Past of both branches up to k0; both branches start
    from the last row of their past.  Window j takes its source F1 from
    composite j of the old state, one call for both windows and branches,
    and its pinned interface values from the composite just before it
    (the old last composite for window 1); the new composite j is that
    composite with window j's columns replaced.  The new composite 1 then
    takes the last one's columns right of window 1: no window reads
    composite 1 there, so for a given c each window's iterate is the same,
    and the envelope, the subdomain-1 gap and the chain links right of
    window 1 see the newest values, the link u21(n) <= u11(n+1) there
    checking that the lower branch rises.  One window gives the
    single-domain iteration, whose two composites coincide.
    """
    first = past.u[:, -1]
    u2 = np.empty(state.u2.shape)
    sols = []
    cols = tuple(slice(op.window.lo + 1, op.window.hi) for op in ops)
    sources = (state.u1, state.u2)[: len(ops)]
    for op, q in zip(ops, eval_F1_field(spec, stab, sources, grid, cols, past)):
        lo, hi = op.window.lo, op.window.hi
        sol = march_window(
            op,
            q,
            first[:, lo : hi + 1],
            left=u2[:, :, lo] if op.left_h is None else None,
            right=state.u2[:, :, hi] if op.right_h is None else None,
        )
        u2[:, :, lo : hi + 1] = sol
        sols.append(sol)
    u1 = u2
    if len(ops) > 1:
        right = ops[0].window.hi + 1
        u1 = np.empty(u2.shape)
        u1[:, :, :right] = sols[0]
        u1[:, :, right:] = u2[:, :, right:]
    return IterationState(u1=u1, u2=u2, sweep_index=state.sweep_index + 1)


def _initial_past(spec, grid):
    row = _u0_row(spec, grid)
    return Past.initial(np.stack((row, row)), grid)


# The least slab length, in levels, the overlap term of the slab rule
# asks for: about a/b, the fixed cost of a slab-sweep in level-solves,
# which demos/slab_cost.py puts at 11 to 18 on memory_dd.  Shorter slabs
# would spend more on slab-sweeps than they save in level-solves.
MIN_SLAB_LEVELS = 16


def _slab_count(span, nt):
    """ceil(span) within [1, nt]; nt where span is not a number below nt."""
    return nt if not span < nt else max(1, math.ceil(span))


def _slab_bounds(grid, c_total, coeffs, windows):
    """(k0, k1) of m consecutive slabs of equal length (+-1 level), with

        m = max(ceil(T max c), min(ceil(T max a / delta^2), nt // MIN_SLAB_LEVELS))

    at most nt and at least 1 (see the module docstring).  max c is over
    c_total[1:], the rows the steps use; the second term counts only for
    two windows, whose overlap is delta = (i1_hi - i2_lo) dx wide, with
    max a the largest diffusion coefficient at the strip's steps and
    interior nodes, sampled here once."""
    nt = grid.nt
    T = float(grid.ts[-1] - grid.ts[0])
    m = _slab_count(T * float(np.max(c_total[1:])), nt)
    if len(windows) > 1:
        a = coeffs.a(grid.ts[1:, None], grid.xs[None, 1:-1])
        delta = (windows[0].hi - windows[-1].lo) * grid.dx
        m = max(m, min(_slab_count(T * float(np.max(a)) / delta**2, nt), nt // MIN_SLAB_LEVELS))
    ks = [(j * nt) // m for j in range(m + 1)]
    return list(zip(ks, ks[1:]))


@dataclass
class _Slab:
    """The levels k0..k1 of a run, restricted: grid and stabilizer, the
    bracket there, the current state (and the states so far, when kept),
    the gap the slab must reach and the gap of its last sweep.  Its window
    operators are not kept: _sweep_slab builds them from stab each time it
    runs the slab."""

    k0: int
    k1: int
    grid: Grid1D
    stab: StabilizerField
    bracket: IterationState
    state: IterationState
    states: list
    target: float
    gap: float = math.inf  # of its last sweep


# A slab whose first row is exact sits at a fixed point once its update
# is at most this many ulps of its largest value.
FIXED_POINT_ULPS = 4.0


def _sweep_slab(slab, spec, windows, past, history, tol, max_sweeps, n_samples, c_margin,
                abort_on_chain_violation, chain_slack, keep_states):
    """Sweep one slab on from its state until its gap drops to its target,
    lowering the stabilizer on the slab's envelope after slab sweeps 1, 2,
    4, 8, ...; every sweep is folded into history.

    The slab's window operators are built here, from its current
    stabilizer, and dropped on return: they are factored with the same c
    as a run-long operator would hold, so a resumed slab marches with the
    same factors.  A step matrix that fails the M-matrix audit therefore
    raises when its slab first runs.

    A due refresh is put off by one sweep when the last two gaps predict
    that the next sweep reaches the target (gap * gap / previous gap <=
    target): keeping the larger c is always sound, and a refresh then
    would resample c and refactor every step for at most one more sweep.
    A refresh that leaves c as it was (a constant c_bar_bound, c already at
    its floor -1/(2 dt) everywhere, a resample that comes out no lower)
    refactors nothing.  Where f grows on the slab's envelope, c goes below
    0 and keeps falling as the envelope closes, so it refactors there.

    The slab has stalled on the gap its first row carries in when that
    gap is > 0, the update is <= tol, and the ratio r of the last two
    updates of this call is < 1 with 2 upd r / (1 - r) <= gap - target:
    if both branches' updates kept contracting at r, each branch would
    move by at most upd r / (1 - r) more, and the gap could not fall to
    the target.  A slowly contracting slab (r near 1) does not stall.

    Returns (carried, reason), both None when the slab reaches its
    target.  carried is the gap its first row brings in when the slab
    stalls (see _run); reason says why the run ends at this slab: it hit
    max_sweeps, or its first row is exact and its update is at rounding
    level while its gap is above the target, a fixed point no further
    sweep leaves.
    """
    lo, hi = slab.bracket.u11, slab.bracket.u12
    state, stab = slab.state, slab.stab
    ops = _window_operators(spec, slab.grid, stab, windows, slab.k0)
    c_max = float(np.maximum.reduce(stab.c_total[1:], None))
    # Every sweep's row 0 is the past's last row, so the gap it carries in
    # is the same for every sweep of this call.
    carried = float(np.maximum.reduce(past.u[1, -1] - past.u[0, -1]))
    gaps, upds = [], []  # this call's, for the refresh prediction and the stall test
    late = False  # a refresh put off by one sweep
    for n in range(state.sweep_index, max_sweeps):
        t0 = time.perf_counter()
        if late or (n > 0 and n & (n - 1) == 0):
            late = not late and len(gaps) > 1 and gaps[-1] ** 2 <= slab.target * gaps[-2]
            if not late:
                fresh = refresh_stabilizers(
                    spec, slab.grid, stab, state.u11, state.u12, n_samples=n_samples,
                    margin=c_margin,
                )
                if fresh is not stab and not np.array_equal(fresh.c_total, stab.c_total):
                    for op in ops:
                        refactor_window_operator(op, fresh.c_total)
                    c_max = float(np.maximum.reduce(fresh.c_total[1:], None))
                stab = fresh
        nxt = _sweep(state, spec, slab.grid, stab, ops, past)
        gap, upd, viol = sweep_metrics(state, nxt, lo, hi)
        history.record(n, gap, upd, viol, c_max, 1e3 * (time.perf_counter() - t0))
        state = nxt
        slab.gap = gap
        gaps.append(gap)
        upds.append(upd)
        if keep_states:
            slab.states.append(state)
        if abort_on_chain_violation and viol < -chain_slack:
            raise MonotoneChainError(state.sweep_index, viol)
        if gap <= slab.target:
            outcome = None, None
            break
        r = upd / upds[-2] if len(upds) > 1 and upd < upds[-2] else 1.0
        if carried > 0.0 and upd <= tol and r < 1.0 and (
            2.0 * upd * r / (1.0 - r) <= gap - slab.target
        ):
            outcome = carried, None
            break
        if carried == 0.0 and upd <= FIXED_POINT_ULPS * np.finfo(float).eps * max(
            float(np.max(np.abs(u))) for u in (state.u1, state.u2)
        ):
            outcome = None, f"fixed point on slab {slab.k0}..{slab.k1} at gap {gap:.3g}"
            break
    else:
        outcome = None, f"max_sweeps on slab {slab.k0}..{slab.k1}"
    slab.state, slab.stab = state, stab
    return outcome


def _composite_states(init, slabs):
    """history.states: state n holds every slab's iterate n on the levels
    it owns (k0+1..k1, and level 0 for the first slab), or its final
    subdomain-2 composite as both u1 and u2 once it has stopped; levels of
    slabs that never ran keep the bracket."""
    composites = []
    for n in range(max(len(slab.states) for slab in slabs)):
        u1, u2 = init.u1.copy(), init.u2.copy()
        for slab in slabs:
            own = 0 if slab.k0 == 0 else 1
            if n < len(slab.states):
                one, two = slab.states[n].u1, slab.states[n].u2
            else:
                one = two = slab.states[-1].u2
            u1[:, slab.k0 + own : slab.k1 + 1] = one[:, own:]
            u2[:, slab.k0 + own : slab.k1 + 1] = two[:, own:]
        composites.append(IterationState(u1=u1, u2=u2, sweep_index=n))
    return composites


def _run(spec, grid, windows, tol, max_sweeps, n_samples, c_margin,
         abort_on_chain_violation, chain_slack, keep_states):
    """Set up the bracket and the stabilizer, and sweep slab by slab (see
    the module docstring).

    A slab starts from the gap its previous slab left at their shared
    level, and where the solution is unstable (f_u > 0) that gap grows
    across the slab: its lower and upper branches then settle on two
    different limits and its gap stalls above tol (see _sweep_slab).
    With G = gap / carried the growth the stalled slab j showed, the run
    lowers slab j-1's target to tighter = target / (2 G) and every
    earlier slab i's to min(its target, tighter / G^(j-1-i)), as if each
    slab grew its carried gap by G, all at once; it resumes at the
    earliest slab whose last gap exceeds its new target and sweeps on
    from there, each slab after it on its new past from where it
    stopped: its iterates are still bounds, as a tighter past only raises
    the lower branch's first row and memory term and lowers the upper
    one's.  Targets only fall and every slab has max_sweeps, so this
    ends.

    The working set follows the slab: a slab's window operators live
    while it sweeps (see _sweep_slab), and what the run keeps of a slab
    that has stopped is only what resuming it needs, its state and
    stabilizer.  The result is written into the bracket's own array once
    no slab can resume, so the levels after a slab that failed keep the
    bracket.
    """
    init = init_state(spec, grid)
    stab = compute_stabilizers(spec, grid, init.u11, init.u12, n_samples=n_samples, margin=c_margin)
    slabs = []
    for k0, k1 in _slab_bounds(grid, stab.c_total, spec.coeffs, windows):
        bracket = IterationState(u1=init.u1[:, k0 : k1 + 1], u2=init.u2[:, k0 : k1 + 1])
        slabs.append(_Slab(
            k0, k1, grid.levels(k0, k1), stab.levels(k0, k1), bracket, bracket,
            [bracket] if keep_states else [], tol,
        ))
    del stab  # each slab holds its own levels of it

    history = ConvergenceHistory()
    pasts = [_initial_past(spec, grid)] + [None] * (len(slabs) - 1)
    j, reason = 0, None
    while j < len(slabs):
        slab = slabs[j]
        carried, reason = _sweep_slab(
            slab, spec, windows, pasts[j], history, tol, max_sweeps, n_samples, c_margin,
            abort_on_chain_violation, chain_slack, keep_states,
        )
        if reason is not None:
            break
        if carried is None:
            if j + 1 < len(slabs):
                pasts[j + 1] = pasts[j].extend(spec.kernel, slab.state.u2, slab.grid)
            j += 1
        else:
            growth = slab.gap / carried
            tighter = 0.5 * slab.target * carried / slab.gap
            for earlier in reversed(slabs[:j]):
                earlier.target = min(earlier.target, tighter)
                tighter /= growth
            # Slab j-1 always qualifies: its last gap is at least carried,
            # its last row being slab j's first, and its new target is at
            # most carried * target / (2 gap) < carried.
            j = next(i for i, earlier in enumerate(slabs[:j]) if earlier.gap > earlier.target)
    converged = reason is None
    history.stop_reason = reason or "converged"

    history.slab_sweeps = [
        (slab.k0, slab.k1, slab.state.sweep_index) for slab in slabs if slab.state.sweep_index > 0
    ]
    if keep_states:
        history.states = _composite_states(init, slabs[: j + 1])
    final = init.u2
    for slab in slabs[: j + 1]:
        own = 0 if slab.k0 == 0 else 1
        final[:, slab.k0 + own : slab.k1 + 1] = slab.state.u2[:, own:]
    u = np.add(final[0], final[1])
    u *= 0.5
    solution = Solution(
        u=u,
        u_lower=final[0],
        u_upper=final[1],
        converged=converged,
        sweeps_used=max((sweeps for *_, sweeps in history.slab_sweeps), default=0),
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
    """Sweep the two-subdomain scheme, slab by slab, until the bracket gap
    drops below tol on every slab, or a slab hits max_sweeps.

    The stabilizer c is computed over the initial bracket; it sets the
    number of slabs, and in each slab it is lowered on the current
    envelope after slab sweeps 1, 2, 4, 8, ... and never raised (see the
    module docstring).  A slab's window operators are built when it
    starts sweeping and refactored in place by a refresh that changes c.
    history.c_max records the largest c each sweep used,
    history.slab_sweeps the sweeps per slab.
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
