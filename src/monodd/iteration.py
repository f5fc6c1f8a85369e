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
interval the iterates occupy.  A slab that starts from its certified
prediction lowers c once, on that start, and sweeps with it: the fixed-c
scheme.  One that starts from the bracket occupies an interval that
shrinks every sweep, so its c is refreshed on the current envelope
[u11, u12] after sweeps 1, 2, 4, 8, ... (the accelerated monotone
iteration of Pao).  Either refresh is
c_n = min(c_{n-1}, max(c_under([u11, u12]) + b_under + C_MARGIN, -1/(2 dt))),
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
levels on that account, as a slab's fixed cost would then exceed the
level-solves it saves.  The single-domain iteration has no overlap and
takes the c term alone.  With both terms <= 1 there is one slab, the whole
strip.  A slab [k0, k1] iterates its levels only: each branch starts at
row k0 from its own final field of the slab before (lower from u21,
upper from u22), the memory term reads that field's frozen past
(volterra.Past), and the stabilizer starts from the initial-bracket c
on the slab's levels, lowered once on a certified start, or after slab
sweeps 1, 2, 4, 8, ... on a slab that starts from the bracket.

The sweeps a slab needs grow with the distance between the sub- and
supersolution it starts from (Pao, 1992, ch. 2-3), so before its first
sweep a slab predicts a tighter pair on its levels from rows the run
holds.  Its guess carries each branch's last row of the past on at the
rate of the previous slab's final midpoint (for slab 0, the rate the
scheme gives u0 at the first step), and is refined by PREDICTOR_MARCHES
linearized marches of the slab's backward-Euler problem on one
whole-strip window, each a sweep from the pair (guess, guess) whose
stabilizer max(-f_u, -1/(2 dt)) at the guess's midpoint makes it a
Newton step in f (see _refine).  The refined guess is pushed outward by
a multiple of tau e^{L tau} in backward-Euler form and clipped into the
bracket (see _predicted_start), and the pair is certified by
verify.bracket_residuals, the residuals of check_bracket, on the slab's
grid and its past at slack 0: the marches only choose the guess, and
the certificate is what makes it a bracket.  A certified pair is the
slab's state and is written into the rows of the bracket's own array
that its chain links read; otherwise, after START_WIDENINGS widenings,
the slab starts from the bracket.  The a and b samples and boundary
rows of the slab's steps (discretization.StepSamples) serve the
residuals, the marches and the operator builds.  A slab stops at the
first sweep n >= 0 whose gap, over its levels and its carried first
row, is <= tol: every lower iterate is a subsolution and every upper one
a supersolution, so that envelope is the certified product, and as the
chain puts sweep n+1 inside the envelope of sweep n, the update of a
further sweep could not exceed that gap anyway.  Iterate 0 is the
certified start itself, so a slab whose start already meets its target,
in order to CHAIN_SLACK, stops there with no sweep, once the run has
recorded a sweep (see _stops_at_start): it neither refreshes its
stabilizer nor takes operators.  A slab that sweeps refreshes its
stabilizer on its certified start, then takes its operators and sweeps
with that stabilizer.  max_sweeps
and the chain check apply per slab; a chain link counts as violated
below -verify.CHAIN_SLACK.  Where the carried gap grows across
a slab so that its gap stalls above tol, which the slab tells from the
contraction of its own updates (see _sweep_slab), every earlier slab is
given a tighter target at once and the run resumes at the earliest one
that misses it (see _run).  If a slab does not converge, as it
hits max_sweeps or sits at a rounding-level fixed point above its
target (see _sweep_slab), the run ends there, history.stop_reason says
which, and the levels after it keep the bracket.

History entry n aggregates the n-th sweep of every slab that ran one (the
largest gap and update, the smallest chain margin, the largest c), so a
slab that stops at its start adds to no entry; sweeps_used is the
largest per-slab count, and history.slab_sweeps lists (k0, k1, sweeps)
per slab run, every slab that started (sweeps 0 for one that stopped at
its start), so a run solves sum (k1 - k0) sweeps levels per window
(history.level_solves).  history.slab_starts lists
(k0, k1, certified, width) per slab run: whether it started from its
certified prediction, and the largest gap of its start on its levels;
history.start_evaluations the bracket_residuals evaluations each slab
run's start made, and history.predictions (k0, k1, marches, update) per
slab run: the marches that refined its guess and the largest change the
last one made.

The two branches are one stacked array.  The run's working set follows
the slab.  The run samples the StepSamples of the strip once, at its
start, and decides there whether its data are steady: every step's a,
b and end rows bitwise the first step's, as for data that do not depend
on t (see _steady).  It holds its operators in one dict keyed by window
set (see _operators): the whole strip's one window for the predictor's
marches and the run's windows for the sweeps, so that a single-domain
run's two uses share one entry.  On steady data it keeps the first
step's rows alone, broadcast to each slab's length, and builds each
window set once, for as many steps as the longest slab has; every
later slab run takes them over: it refactors them on its steps, for
each march with its c and then with its own stabilizer, and sets their
k0, so an M-matrix failure names the strip's time step, keeping their
arrays and march plans.  Otherwise each slab run empties the dict,
samples its own steps and builds on its own levels.  Either way the
factors of the slab's steps are those of its current stabilizer,
bitwise, which, on a slab that starts from the bracket, a refresh that
changes c refactors in place.  Per slab
run, in this order: it starts (once: a slab the run comes back to
keeps its state), and, unless it stops at its start, it refreshes its
stabilizer on a certified start it has not swept from yet and takes its
window operators.  What the run keeps of a stopped slab is what
resuming it needs (its state and stabilizer); its start is in the
bracket's own rows, and the result goes into the bracket's own array at
the end.  A sweep
evaluates F1 for both branches and both windows in one call and marches
the branches as two right-hand-side columns.  The undecomposed single-domain monotone
iteration, the correctness oracle for the decomposed limit, is the same
sweep over one window.  order_study runs the decomposed solver over a
list of grids, each on its default_decomposition, and reports the
observed convergence orders against an exact solution.

The stabilizer's sampling (volterra.N_SAMPLES, C_MARGIN) and the chain
slack (verify.CHAIN_SLACK) are constants, not arguments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional

import numpy as np

from .discretization import (
    Field,
    Grid1D,
    MMatrixViolation,
    StepSamples,
    Subrange,
    ZeroPivotError,
    as_shape,
    build_grid,
    build_window_operator,
    march_window,
    refactor_window_operator,
    sample_field,
    sample_steps,
)
from .verify import CHAIN_SLACK, bracket_residuals, sweep_metrics
from .volterra import (
    C_FLOOR_DT,
    Past,
    StabilizerField,
    compute_stabilizers,
    eval_F1_field,
    f_u_values,
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
    """Centered overlap covering the middle quarter of the grid, at least
    two cells wide (nx >= 4)."""
    i2_lo = (3 * nx) // 8
    return Decomposition(i1_hi=max((5 * nx) // 8, i2_lo + 2), i2_lo=i2_lo)


@dataclass
class IterationState:
    """The four bracketing fields, stacked by branch: u1 holds the
    subdomain-1 composites (u11 lower, u12 upper), u2 the subdomain-2
    composites (u21, u22); each is (2, nt+1, nx+1), or (2, k1-k0+1, nx+1)
    over the levels of a slab.  After a sweep, u1 is window 1's solve on
    its columns and equals u2 right of them.  Sweeps make new arrays and
    never modify a state's fields in place; the run writes into one state
    only, the initial bracket's, whose arrays its slabs' brackets view:
    _start writes a certified start into the rows of its slab's bracket,
    and _run the result at the end."""

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
    gap, update and c_max, and the smallest chain margin.  A slab that
    stops at its certified start adds to no entry; a converged run has one
    entry at least, as its first sweeping slab never stops at its start.
    states[n] (when kept) is the whole-strip composite of every slab's
    iterate n, whose u1 equals its u2 right of window 1 from sweep 1 on;
    a slab that stopped before contributes its final subdomain-2
    composite as both u1 and u2, one that stopped at its start its start.
    The per-slab lists hold one entry per slab that started, in slab
    order, those that stopped at their start included."""

    gap_lower_upper: List[float] = field(default_factory=list)
    max_update: List[float] = field(default_factory=list)
    chain_violation: List[float] = field(default_factory=list)
    c_max: List[float] = field(default_factory=list)  # max of c_total[1:], the c each sweep's steps used
    states: Optional[list] = None  # per-sweep states when requested
    # (k0, k1, sweeps) per slab run, sweeps 0 for one that stopped at its start
    slab_sweeps: List[tuple] = field(default_factory=list)
    # (k0, k1, certified, width) per slab run: whether it started from its
    # certified predicted bracket, and the largest gap of its start
    slab_starts: List[tuple] = field(default_factory=list)
    # bracket_residuals evaluations of each slab run's start, as slab_starts
    start_evaluations: List[int] = field(default_factory=list)
    # (k0, k1, marches, update) per slab run: the linearized marches that
    # refined its guess and the largest change of the last (nan for none)
    predictions: List[tuple] = field(default_factory=list)
    # "converged", "max_sweeps on slab k0..k1" or "fixed point on slab k0..k1 at gap G"
    stop_reason: str = ""

    @property
    def level_solves(self):
        """Time levels solved per window over the run."""
        return sum((k1 - k0) * sweeps for k0, k1, sweeps in self.slab_sweeps)

    def record(self, n, gap, update, margin, c_max):
        """Fold a slab's sweep n+1 into entry n."""
        if n < len(self.gap_lower_upper):
            self.gap_lower_upper[n] = max(self.gap_lower_upper[n], gap)
            self.max_update[n] = max(self.max_update[n], update)
            self.chain_violation[n] = min(self.chain_violation[n], margin)
            self.c_max[n] = max(self.c_max[n], c_max)
        else:
            self.gap_lower_upper.append(gap)
            self.max_update.append(update)
            self.chain_violation.append(margin)
            self.c_max.append(c_max)


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


def _window_operators(spec, grid, c_field, windows, k0=0, samples=None):
    """Operators of consecutive windows over [0, nx] on grid, whose first
    level is strip level k0, from the StepSamples of grid when given,
    factored with the stabilizer c_field on the steps it covers: the outer
    ends carry the physical rows, every inner end is a pinned
    interface."""
    ops = []
    for j, window in enumerate(windows):
        left = spec.bc_left if j == 0 else None
        right = spec.bc_right if j == len(windows) - 1 else None
        ops.append(build_window_operator(
            grid, window, spec.coeffs, c_field, left, right, k0, samples=samples
        ))
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
# asks for.  Forced slab counts on memory_dd (ROADMAP.md, "Slab count
# against time") were fastest at 16 levels a slab, against 32 and 8:
# shorter slabs save fewer level-solves than their setup costs.
MIN_SLAB_LEVELS = 16


def _slab_count(span, nt):
    """ceil(span) within [1, nt]; nt where span is not a number below nt."""
    return nt if not span < nt else max(1, math.ceil(span))


def _slab_bounds(grid, c_total, steps, windows):
    """(k0, k1) of m consecutive slabs of equal length (+-1 level), with

        m = max(ceil(T max c), min(ceil(T max a / delta^2), nt // MIN_SLAB_LEVELS))

    at most nt and at least 1 (see the module docstring).  max c is over
    c_total[1:], the rows the steps use; the second term counts only for
    two windows, whose overlap is delta = (i1_hi - i2_lo) dx wide, with
    max a the largest diffusion coefficient of steps, the strip's
    StepSamples."""
    nt = grid.nt
    T = float(grid.ts[-1] - grid.ts[0])
    m = _slab_count(T * float(np.max(c_total[1:])), nt)
    if len(windows) > 1:
        delta = (windows[0].hi - windows[-1].lo) * grid.dx
        m = max(m, min(_slab_count(T * float(np.max(steps.a)) / delta**2, nt),
                       nt // MIN_SLAB_LEVELS))
    ks = [(j * nt) // m for j in range(m + 1)]
    return list(zip(ks, ks[1:]))


@dataclass
class _Slab:
    """The levels k0..k1 of a run, restricted: grid and stabilizer, the
    bracket there (its start, once it has one), the current state (and
    the states so far, when kept), the gap the slab must reach, the gap of
    its last sweep, whether its start is its certified prediction, how
    wide its start was, the residual evaluations its start made and the
    refinement of its guess.  Its operators are not kept with it: the run
    holds them by window set, and a later slab may take them over (see
    _operators)."""

    k0: int
    k1: int
    grid: Grid1D
    stab: StabilizerField
    bracket: IterationState
    state: IterationState
    states: list
    target: float
    gap: float = math.inf  # of its last sweep
    width: float = math.inf
    certified: bool = False  # whether it started from its certified prediction
    evaluations: int = 0  # of bracket_residuals by its start
    refined: tuple = (0, math.nan)  # (marches, last update) of its guess's refinement
    started: bool = False  # whether it has taken its start


# A slab whose first row is exact sits at a fixed point once its update
# is at most this many ulps of its largest value.
FIXED_POINT_ULPS = 4.0


def _carried(past):
    """The gap a slab's first row carries in: that of its past's last row,
    which is row 0 of every sweep and of its start."""
    return float(np.maximum.reduce(past.u[1, -1] - past.u[0, -1]))


def _sweep_slab(slab, spec, ops, past, history, tol, max_sweeps, abort_on_chain_violation,
                keep_states):
    """Sweep one slab on from its state until its gap drops to its target;
    every sweep is folded into history.  It sweeps at least once: the test
    at sweep 0, a start that already meets its target, is made before the
    slab takes its operators (see _stops_at_start).

    ops are the slab's window operators, factored with its current
    stabilizer (see _operators).  A slab that started from its certified
    prediction sweeps with the stabilizer refreshed on that start (see
    _run) and never changes it: the fixed-c scheme.  One that started from
    the bracket lowers its stabilizer on its envelope after slab sweeps 1,
    2, 4, 8, ..., and a refresh that changes c refactors ops in place;
    one that leaves c as it was (c already at its floor -1/(2 dt)
    everywhere, a resample that comes out no lower) refactors nothing.

    The slab has stalled on the gap its first row carries in when that
    gap is > 0, the update is <= tol, and the ratio r of the last two
    updates of this call is < 1 with 2 upd r / (1 - r) <= gap - target:
    if both branches' updates kept contracting at r, each branch would
    move by at most upd r / (1 - r) more, and the gap could not fall to
    the target.  A slowly contracting slab (r near 1) does not stall.  r
    never reads the call's first update: that sweep starts from a state
    no sweep made (a certified start, or a slab's state on a tighter
    past) and moves it by about its width, so a narrow start whose gap
    still falls would otherwise look contracted after two sweeps.

    Returns (carried, reason), both None when the slab reaches its
    target.  carried is the gap its first row brings in when the slab
    stalls (see _run); reason says why the run ends at this slab: it hit
    max_sweeps, or its first row is exact and its update is at rounding
    level while its gap is above the target, a fixed point no further
    sweep leaves.
    """
    lo, hi = slab.bracket.u11, slab.bracket.u12
    state, stab = slab.state, slab.stab
    c_max = float(np.maximum.reduce(stab.c_total[1:], None))
    carried = _carried(past)
    upds = []  # this call's, for the stall test
    for n in range(state.sweep_index, max_sweeps):
        if not slab.certified and n > 0 and n & (n - 1) == 0:
            fresh = refresh_stabilizers(spec, slab.grid, stab, state.u11, state.u12)
            if fresh is not stab and not np.array_equal(fresh.c_total, stab.c_total):
                for op in ops:
                    refactor_window_operator(op, fresh.c_total)
                c_max = float(np.maximum.reduce(fresh.c_total[1:], None))
            stab = fresh
        nxt = _sweep(state, spec, slab.grid, stab, ops, past)
        gap, upd, viol = sweep_metrics(state, nxt, lo, hi)
        history.record(n, gap, upd, viol, c_max)
        state = nxt
        slab.gap = gap
        upds.append(upd)
        if keep_states:
            slab.states.append(state)
        if abort_on_chain_violation and viol < -CHAIN_SLACK:
            raise MonotoneChainError(state.sweep_index, viol)
        if gap <= slab.target:
            outcome = None, None
            break
        r = upd / upds[-2] if len(upds) > 2 and upd < upds[-2] else 1.0
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


# Times a predicted start that fails its certificate is widened before
# the slab starts from the bracket instead.
START_WIDENINGS = 3


def _first_rate(spec, grid, samples):
    """The rate u_t that the scheme gives u0 at the first step of grid, a
    strip's first slab: the residual of u0 held over the step, negated,
    at the interior nodes, and 0 at the ends, whose predicted values the
    boundary rows set (see _predicted_start)."""
    row = _u0_row(spec, grid)
    res, _, _ = bracket_residuals(
        spec, grid.levels(0, 1), np.stack((row, row)), samples=samples.first(1)
    )
    rate = np.zeros(grid.nx + 1)
    rate[1:-1] = -res[0]
    return rate


def _sup_f_u(spec, grid, rows, fd_step):
    """max(0, sup f_u) over the stacked rows (..., 2, nx+1) of the first
    and last step of grid, f_u by f_u_values with the step fd_step."""
    d = f_u_values(spec.reaction, grid.ts[[1, -1], None], grid.xs[None, :], rows, fd_step)
    return max(0.0, float(np.max(d)))


def _wrong(res, bnd):
    """Per branch, the wrong-signed residuals node by node, in place: above
    0 for the lower branch, a subsolution, below 0 for the upper one, as a
    positive number; interior (2, nt, nx-1) and boundary (2, nt, 2)."""
    np.negative(res[1], out=res[1])
    np.negative(bnd[1], out=bnd[1])
    return res, bnd


def _need(interior, ends, drive, edge):
    """Per branch, the multiple A of phi that covers the wrong-signed
    residuals to first order (see _predicted_start): their largest at each
    level over D_k, and at each boundary row over beta0 phi_k.  A row that
    phi cannot move (beta0 <= 0) with a wrong-signed residual makes it
    infinite."""
    interior = np.max(interior, axis=2)
    return np.maximum(
        np.max(np.where(interior > 0.0, interior / drive, 0.0), axis=1),
        np.max(np.where(ends > 0.0, ends / np.maximum(edge, 0.0), 0.0), axis=(1, 2)),
    )


_OUTWARD = np.array([-1.0, 1.0])[:, None, None]


def _candidate(guess, bracket, push, phi):
    """guess with its lower branch pushed down and its upper one up by
    push phi on levels 1.., clipped into the slab's bracket (levels 1..);
    row 0 is the guess's."""
    start = np.empty(guess.shape)
    start[:, 0] = guess[:, 0]
    np.clip(guess[:, 1:] + _OUTWARD * push[:, None, None] * phi[1:, None],
            bracket[0], bracket[1], out=start[:, 1:])
    return start


def _widen(spec, grid, past, samples, guess, bracket, push, phi, drive, edge):
    """The candidate of push (see _candidate) certified by
    bracket_residuals at slack 0, a failing branch's push widened to
    2 (push + _need) of the residuals it failed by, up to START_WIDENINGS
    times.  Returns (start, evaluations): start None where none
    certifies, and the residual evaluations made."""
    evaluations = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while evaluations <= START_WIDENINGS and np.all(np.isfinite(push)):
            start = _candidate(guess, bracket, push, phi)
            interior, ends = _wrong(*bracket_residuals(spec, grid, start, past, samples)[:2])
            evaluations += 1
            # max keeps a NaN, which fails the comparison.
            passed = (np.max(interior, axis=(1, 2)) <= 0.0) & (np.max(ends, axis=(1, 2)) <= 0.0)
            if passed.all():
                return start, evaluations
            push = np.where(passed, push, 2.0 * (push + _need(interior, ends, drive, edge)))
    return None, evaluations


# Linearized marches that refine a slab's carried guess before its start
# is certified (see _refine).
PREDICTOR_MARCHES = 2


def _refine(spec, slab, past, guess, strip):
    """The guess after PREDICTOR_MARCHES linearized marches of the slab's
    backward-Euler problem, the number made and the largest change of the
    last one (nan for none).

    Each march is _sweep from the pair (guess, guess) over one whole-strip
    window, both branches as two columns from the past's last rows, with
    the stabilizer

        c_N = max(-f_u(t, x, mid), C_FLOOR_DT / dt),

    mid the guess's midpoint and f_u by f_u_values: the source F1 at the
    guess with c_N is then a Newton step in f (where c_N is above its
    floor) and a Picard step in the lagged memory term.  strip(c) gives
    the slab's whole-strip operator factored with c, as a list of one.  A
    march stops the refinement, keeping the guess it started from, where
    f_u at mid is not finite, or where the operator or the march fails
    (a non-finite solution, an M-matrix or pivot failure, a diffusion
    that is not positive): the slab's own operators then report what is
    wrong with its steps, as they would without a prediction."""
    grid, update = slab.grid, math.nan
    for marches in range(PREDICTOR_MARCHES):
        mid = np.add(guess[0], guess[1])
        mid *= 0.5
        with np.errstate(all="ignore"):
            d = as_shape(f_u_values(spec.reaction, grid.ts[:, None], grid.xs[None, :], mid,
                                    slab.stab.fd_step), mid.shape)
            if not np.all(np.isfinite(d)):
                return guess, marches, update
            c = np.maximum(np.negative(d), C_FLOOR_DT / grid.dt)
            try:
                ops = strip(c)
            except (ValueError, MMatrixViolation, ZeroPivotError):
                return guess, marches, update
            try:
                nxt = _sweep(IterationState(guess, guess), spec, grid, StabilizerField(c, 0.0),
                             ops, past).u2
            except FloatingPointError:
                return guess, marches, update
        update = float(np.max(np.abs(nxt - guess)))
        guess = nxt
    return guess, PREDICTOR_MARCHES, update


def _predicted_start(spec, slab, past, rate, samples, strip):
    """A certified sub/supersolution pair on the slab's levels, stacked
    (lower, upper), with row 0 the past's last row, or None where none
    certifies; the number of bracket_residuals evaluations made; and the
    (marches, last update) of the guess's refinement.

    The guess carries each branch's last row of the past on at rate,
    row + tau rate with tau = t - t_k0, its end values at each level those
    that keep their boundary rows given the neighbouring node's, and is
    refined by the linearized marches of _refine on the slab's whole-strip
    operator strip.  The push moves the lower branch down and the upper
    one up by A phi, with phi_k = tau_k (1 - L dt)^-k, the backward-Euler
    form of tau e^{L tau}, and L = max(0, sup f_u) over the guess's first
    and last step: a step of phi exceeds L phi by D_k = (phi_k -
    phi_{k-1}) / dt - L phi_k = (1 - L dt)^-(k-1), and phi adds beta0 phi
    to a boundary row, so A = 2 max(R_k / D_k, R_k / (beta0 phi_k)) over
    the wrong-signed residuals R_k of the guess covers them to first
    order.  Both branches are clipped into the slab's bracket.

    The pair is certified by bracket_residuals on the slab and its past
    at slack 0: the lower branch a subsolution and the upper one a
    supersolution at every interior node, boundary row and level (row 0
    is the past's, exactly).  A branch that fails adds the residuals it
    failed by to its A in the same way and is tried again, up to
    START_WIDENINGS times.  Where L dt >= 1 no push helps, nor at a
    boundary row with beta0 <= 0, so a wrong-signed residual there ends
    the prediction."""
    grid, bracket = slab.grid, slab.bracket.u1[:, 1:]
    tau = grid.ts - grid.ts[0]
    guess = past.u[:, -1, None, :] + tau[:, None] * rate
    for (alpha0, beta0, h), end, neighbour in zip(samples.ends, (0, -1), (1, -2)):
        scale = alpha0 / grid.dx + beta0
        np.divide(h + alpha0 / grid.dx * guess[:, 1:, neighbour], scale,
                  out=guess[:, 1:, end], where=scale > 0.0)
    guess, *refined = _refine(spec, slab, past, guess, strip)
    lam = _sup_f_u(spec, grid, guess[:, [1, -1]], slab.stab.fd_step)
    if lam * grid.dt < 1.0:
        growth = (1.0 - lam * grid.dt) ** -np.arange(grid.nt + 1.0)
    else:  # no push helps: only a guess with no wrong-signed residual certifies
        growth = np.zeros(grid.nt + 1)
    phi, drive = tau * growth, growth[:-1]
    edge = np.stack([beta0 for _, beta0, _ in samples.ends], axis=-1) * phi[1:, None]
    interior, ends = _wrong(*bracket_residuals(spec, grid, guess, past, samples)[:2])
    with np.errstate(divide="ignore", invalid="ignore"):
        push = 2.0 * _need(interior, ends, drive, edge)
    start, evaluations = _widen(spec, grid, past, samples, guess, bracket, push, phi, drive,
                                edge)
    return start, evaluations + 1, tuple(refined)


def _start(slab, spec, past, rate, samples, strip, keep_states):
    """Start a slab from its predicted bracket where it certifies (see
    _predicted_start, whose refinement marches on strip): that pair
    becomes its state and is written into the rows of the bracket's own
    array its chain links read; its stabilizer is refreshed on it only if
    the slab sweeps (see _run).  Otherwise the slab starts from the
    bracket.  A slab starts once: a run that comes back to it sweeps on
    from its state."""
    lo, hi = slab.bracket.u11[1:], slab.bracket.u12[1:]
    if np.any(hi > lo):
        start, slab.evaluations, slab.refined = _predicted_start(
            spec, slab, past, rate, samples, strip
        )
        slab.certified = start is not None
        if start is not None:
            slab.bracket.u1[:, 1:] = start[:, 1:]
            slab.state = IterationState(u1=start, u2=start)
            slab.states = [slab.state] if keep_states else []
    slab.width = float(np.max(hi - lo))
    slab.started = True


def _stops_at_start(slab, past, history):
    """Whether the slab, just started, ends at its start with no sweep,
    setting its gap to the start's where it does.  It does where its start
    is certified (at slack 0, see _predicted_start), the start's gap over
    its levels and its carried first row, max(width, carried), is <= its
    target, its order link min(upper - lower) is >= -CHAIN_SLACK, and the
    run has recorded a sweep already.  Iterate 0 of the monotone iteration
    is the certified pair itself, so such a start is the slab's product,
    and a sweep could only confirm it.  The last condition keeps the
    history of a converged run at one entry at least and its sweeps_used
    at 1 at least: the CLI's history.csv is then never header-only, which
    benchmark/checks.py's from_csv rejects, nor its gaps empty, which
    envelope_failures rejects."""
    if not (slab.certified and history.gap_lower_upper):
        return False
    start = slab.state.u1
    gap = max(slab.width, _carried(past))
    if gap <= slab.target and float(np.minimum.reduce(start[1] - start[0], None)) >= -CHAIN_SLACK:
        slab.gap = gap
        return True
    return False


def _steady(steps):
    """steps held as their first step's a, b and end rows, each copied
    once and broadcast over every step, where every step's are bitwise the
    first's (a signed zero or a NaN compared as its bits), as for data
    that do not depend on t; None otherwise."""
    rows = [steps.a, steps.b, *(row for end in steps.ends for row in end)]
    if not all(np.all(x.view(np.int64) == x[:1].view(np.int64)) for x in rows):
        return None
    a, b, *ends = (np.broadcast_to(x[:1].copy(), x.shape) for x in rows)
    return StepSamples(a=a, b=b, ends=(tuple(ends[:3]), tuple(ends[3:])))


def _take_over(op, k0, c_field):
    """op, refactored in place on the steps c_field covers, with its k0 set
    so that its errors name the strip steps of the slab whose first level
    is k0."""
    object.__setattr__(op, "k0", k0)
    refactor_window_operator(op, c_field)
    return op


def _operators(spec, cache, k0, grid, samples, windows, c_field):
    """The operators of windows, a tuple of Subrange, for the slab whose
    first level is k0, factored with c_field on the steps it covers: those
    cache holds for windows, taken over (see _take_over), else built on
    grid and its StepSamples samples and held in cache from then on."""
    if windows in cache:
        return [_take_over(op, k0, c_field) for op in cache[windows]]
    ops = cache[windows] = _window_operators(spec, grid, c_field, windows, k0, samples)
    return ops


def _run(spec, grid, windows, tol, max_sweeps, abort_on_chain_violation, keep_states):
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

    A slab is predicted once, at its first run.  Where its certified
    start already meets its target, the slab stops there with no sweep
    and hands its start on (see _stops_at_start); a stall may take it up
    again later, and it then sweeps on from that start as a slab that did
    not stop would: it refreshes its stabilizer on the start, takes its
    operators and sweeps.

    The working set follows the slab: the run samples the strip's steps
    once, and holds its operators by window set, built once for the
    longest slab's steps and taken over by every later slab run where
    the steps are steady, and emptied at each slab run otherwise (see
    _steady and _operators); what the run keeps of a slab that has
    stopped is only what resuming it needs, its state and stabilizer.
    The result is written into the bracket's own array once no slab can
    resume, so the levels after a slab that failed keep the bracket.
    """
    init = init_state(spec, grid)
    stab = compute_stabilizers(spec, grid, init.u11, init.u12)
    steps = sample_steps(grid, spec.coeffs, spec.bc_left, spec.bc_right)
    bounds = _slab_bounds(grid, stab.c_total, steps, windows)
    steps = _steady(steps)  # None where they depend on t: each slab run samples its own
    slabs = []
    for k0, k1 in bounds:
        bracket = IterationState(u1=init.u1[:, k0 : k1 + 1], u2=init.u2[:, k0 : k1 + 1])
        slabs.append(_Slab(
            k0, k1, grid.levels(k0, k1), stab.levels(k0, k1), bracket, bracket,
            [bracket] if keep_states else [], tol,
        ))
    del stab  # each slab holds its own levels of it

    history = ConvergenceHistory()
    pasts = [_initial_past(spec, grid)] + [None] * (len(slabs) - 1)
    j, reason = 0, None
    span = max(slab.grid.nt for slab in slabs)
    cache = {}  # the run's operators, by window set
    while j < len(slabs):
        slab = slabs[j]
        if steps is None:
            cache.clear()  # the old operators go before any is built
            samples = sample_steps(slab.grid, spec.coeffs, spec.bc_left, spec.bc_right)
            operators = partial(_operators, spec, cache, slab.k0, slab.grid, samples)
        else:
            samples = steps.first(slab.grid.nt)
            operators = partial(_operators, spec, cache, slab.k0, grid.levels(0, span),
                                steps.first(span))
        stops = False
        if not slab.started:
            if j == 0:
                rate = _first_rate(spec, slab.grid, samples)
            else:
                last = slabs[j - 1].state.u2
                rate = (last[0, -1] - last[0, -2] + last[1, -1] - last[1, -2]) / (2.0 * grid.dt)
            strip = partial(operators, (Subrange(0, grid.nx),))
            _start(slab, spec, pasts[j], rate, samples, strip, keep_states)
            stops = _stops_at_start(slab, pasts[j], history)
        carried = None
        if not stops:
            if slab.state.sweep_index == 0 and slab.certified:  # the refresh on its start
                slab.stab = refresh_stabilizers(spec, slab.grid, slab.stab,
                                                slab.state.u11, slab.state.u12)
            carried, reason = _sweep_slab(
                slab, spec, operators(windows, slab.stab.c_total), pasts[j], history, tol,
                max_sweeps, abort_on_chain_violation, keep_states,
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

    ran = [slab for slab in slabs if slab.started]
    history.slab_sweeps = [(slab.k0, slab.k1, slab.state.sweep_index) for slab in ran]
    history.slab_starts = [(slab.k0, slab.k1, slab.certified, slab.width) for slab in ran]
    history.start_evaluations = [slab.evaluations for slab in ran]
    history.predictions = [(slab.k0, slab.k1, *slab.refined) for slab in ran]
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


def run_dd(spec, grid, decomp, tol, max_sweeps, abort_on_chain_violation=False, keep_states=False):
    """Sweep the two-subdomain scheme, slab by slab, until the bracket gap
    drops below tol on every slab, or a slab hits max_sweeps.

    The stabilizer c is computed over the initial bracket, and sets the
    number of slabs.  A slab that starts from its certified prediction
    lowers it once, on that start, and sweeps with it; one that starts
    from the bracket lowers it on the current envelope after slab sweeps
    1, 2, 4, 8, ...; it is never raised (see the module docstring).  A
    slab's window operators are built when it starts sweeping, or taken
    over from an earlier slab run where the run's data do not depend on
    t, and refactored in place by a refresh after a sweep that changes
    c.
    history.c_max records the largest c each sweep used,
    history.slab_sweeps the sweeps per slab.
    """
    windows = _dd_windows(grid, decomp)
    return _run(spec, grid, windows, tol, max_sweeps, abort_on_chain_violation, keep_states)


def run_single_domain(spec, grid, tol, max_sweeps, abort_on_chain_violation=False,
                      keep_states=False):
    """Undecomposed two-sequence monotone iteration (the DD oracle):
    the same sweep with a single window covering the whole grid."""
    return _run(
        spec, grid, (Subrange(0, grid.nx),), tol, max_sweeps, abort_on_chain_violation,
        keep_states,
    )


@dataclass(frozen=True)
class OrderStudyResult:
    grids: tuple  # ((nx, nt), ...)
    errors: tuple  # L-inf error vs exact per grid
    orders: tuple  # log2(e_coarse / e_fine) per refinement step


def order_study(spec, grids, tol, max_sweeps=500):
    """Run the domain-decomposition solver per grid, on its
    default_decomposition, and report observed orders.

    Requires spec.exact.  Raises RuntimeError on a non-converged run.
    """
    if spec.exact is None:
        raise ValueError("order_study requires a spec with an exact solution attached")
    errors = []
    for nx, nt in grids:
        grid = build_grid(spec.domain, nx, nt)
        sol, _ = run_dd(spec, grid, default_decomposition(nx), tol, max_sweeps)
        if not sol.converged:
            raise RuntimeError(f"run on grid (nx={nx}, nt={nt}) did not converge")
        exact = sample_field(spec.exact, grid)
        errors.append(float(np.max(np.abs(sol.u - exact))))
    orders = [
        math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)
    ]
    return OrderStudyResult(grids=tuple(grids), errors=tuple(errors), orders=tuple(orders))
