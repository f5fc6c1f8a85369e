"""Uniform space-time grids and the implicit finite-difference stepper.

The time direction is discretized by backward Euler and space by central
differences for the diffusion term plus first-order upwinding for advection.
That combination makes every per-step tridiagonal matrix an M-matrix as soon
as 1/dt + c > 0 for the zero-order coefficient c, the amount by which each
interior row is diagonally dominant: a strictly diagonally dominant
Z-matrix is an M-matrix.  That is what the whole monotone iteration
machinery rests on, and c may be negative down to -1/(2 dt) (see volterra).

The solver's matrices depend on the stabilizer and the boundary rows only,
so a WindowOperator assembles them for the time levels of one grid, keeps
them without the stabilizer, and holds their LU factors for the current
one; refactor_window_operator refactors them in place when the stabilizer
is lowered.  All steps are factored by one dgttrf call on the
block-diagonal stack of the step matrices: the zero couplings between
blocks are never pivoted on, so each block's factors are bitwise its own
step's.  A Dirichlet first row enters them as an identity row, its
value the right-hand side, and row 1's coupling to it as L's first
multiplier: the block LU of [[1, 0], [c, A]], which returns the value
exactly (see WindowOperator).  march_window
reuses the factors for every right-hand side through a per-operator
plan, a march buffer and the dgttrs arguments of every step, made at the
first march and valid across refactors, so a step is one divide, one add
per right-hand-side column and one dgttrs call, with no allocation.
Grid1D.levels restricts a grid to a range of time levels (a slab); an
operator built on it, with the slab's first level as k0, holds that
slab's steps and names them by their strip step in its errors.  A
stabilizer over fewer levels refactors only the first steps, and a
march with fewer levels marches only those, so an operator serves every
slab whose steps are its first ones.

Every step matrix is checked for the M-matrix pattern each time it is
factored, at build and at every refactor, and a violation raises
MMatrixViolation: the monotone iteration is only sound on M-matrices, and
the check costs about 1% of a solve.  With a negative stabilizer it is
also what rejects c <= -1/dt.

The two LAPACK routines used, dgttrf and dgttrs, come from scipy's
compiled extension scipy.linalg._flapack, loaded straight from scipy's
linalg directory: importing the scipy.linalg package would run its
__init__, which through scipy's array-API layer imports numpy.f2py,
numpy.testing, numpy.random and numpy.ma, about 0.3 s and 18 MB that
monodd never uses, against 0.02 s for the extension.  It is registered
under its own name in sys.modules, so a later `import scipy.linalg`
reuses it and scipy.linalg.lapack.dgttrf is the dgttrf used here.  Only
where no such extension file is found, or it does not load, does this
module import scipy.linalg.lapack instead.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from typing import Union

import numpy as np

# A Field is a real array of shape (nt+1, nx+1): rows are time levels,
# columns are spatial nodes.  Full history is kept for the memory term.
Field = np.ndarray


def _load_extension(name):
    """The compiled module of dotted name `name`, found package by package
    from sys.path and loaded without running the __init__ of any package
    above it; it is registered in sys.modules, whose entry is reused when
    there is one.  Raises ImportError when it is not found."""
    if name in sys.modules:
        return sys.modules[name]
    path = None
    for depth in range(1, name.count(".") + 2):
        spec = PathFinder.find_spec(".".join(name.split(".")[:depth]), path)
        if spec is None:
            raise ImportError(f"no {name} on sys.path", name=name)
        path = spec.submodule_search_locations
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


try:
    _flapack = _load_extension("scipy.linalg._flapack")
except ImportError:
    from scipy.linalg import lapack as _flapack
dgttrf, dgttrs = _flapack.dgttrf, _flapack.dgttrs


class ZeroPivotError(RuntimeError):
    pass


class MMatrixViolation(RuntimeError):
    pass


@dataclass(frozen=True)
class Grid1D:
    """Uniform tensor grid over [x_left, x_right] x [0, T]."""

    nx: int
    nt: int
    dx: float
    dt: float
    xs: np.ndarray
    ts: np.ndarray

    def levels(self, k0, k1):
        """The grid of the time levels k0..k1 of this one: its steps k0+1..k1."""
        return replace(self, nt=k1 - k0, ts=self.ts[k0 : k1 + 1])


def build_grid(domain, nx, nt):
    """Build a uniform Grid1D with nx spatial intervals and nt time steps.

    Raises ValueError when 1/dt or 1/dx^2, which every step matrix holds,
    is not a finite number."""
    if nx < 4:
        raise ValueError(f"nx must be >= 4, got {nx}")
    if nt < 1:
        raise ValueError(f"nt must be >= 1, got {nt}")
    xs = np.linspace(domain.x_left, domain.x_right, nx + 1)
    ts = np.linspace(0.0, domain.T, nt + 1)
    dx = (domain.x_right - domain.x_left) / nx
    dt = domain.T / nt
    for name, h in (("dt", dt), ("dx^2", dx * dx)):
        if not (h > 0.0 and math.isfinite(1.0 / h)):
            raise ValueError(f"non-finite grid: 1/{name} is not finite ({name} = {h:.3g})")
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


def m_matrix_check(sub, diag, sup):
    """M-matrix pattern check of the tridiagonal matrix with diagonals
    sub, diag and sup (sub[0] and sup[-1] unused, zero): finite entries,
    positive diagonal, nonpositive off-diagonals, weak diagonal dominance
    in every row and strict dominance in at least one.

    Returns (flag, worst-row diagnostic string).
    """
    excess = diag - (np.abs(sub) + np.abs(sup))
    finite = np.isfinite(excess)  # false exactly where a row holds an inf or a NaN
    if not np.all(finite):
        i = int(np.argmin(finite))
        return False, (
            f"row {i}: non-finite entry (sub {sub[i]:.6g}, diagonal {diag[i]:.6g}, sup {sup[i]:.6g})"
        )
    if np.any(diag <= 0):
        i = int(np.argmin(diag))
        return False, f"row {i}: diagonal {diag[i]:.6g} not positive"
    if np.any(sub > 0) or np.any(sup > 0):
        off = np.maximum(sub, sup)
        i = int(np.argmax(off))
        return False, f"row {i}: positive off-diagonal {off[i]:.6g}"
    if np.any(excess < 0):
        i = int(np.argmin(excess))
        return False, f"row {i}: diagonal dominance fails by {-excess[i]:.6g}"
    if not np.any(excess > 0):
        return False, "no row is strictly diagonally dominant"
    return True, f"ok (min dominance excess {np.min(excess):.6g})"


@dataclass(frozen=True)
class WindowOperator:
    """The backward-Euler matrices of every time step on one window and
    their LU factors (LAPACK dgttrf); row k-1 of each array belongs to
    step k0+k.

    sub, diag and sup are the assembled matrices with the stabilizer left
    out of diag; they never change, and neither do offdiag, |sub| + |sup|,
    and positive_off, whether some step has a positive off-diagonal, both
    kept for the audit.  dl, d, du, du2 and ipiv hold the
    factors of the matrices with a stabilizer c added, and
    refactor_window_operator overwrites them in place for a new c.  All
    are (nt, n): read flat, d and, without their last entry, dl and du
    are the diagonals of the block-diagonal stack of every step's matrix,
    which one dgttrf call factors.  Row k of dl, du and du2 holds step k's
    factors in its first n-1, n-1 and n-2 entries (the rest belong to no
    step), and row k of ipiv step k's own pivot rows.

    A window end is either physical, the row alpha0 du/dnu + beta0 u = h
    of its BoundaryCondition, or pinned: a Dirichlet row, its values given
    to each march (left_h/right_h None).  pinned marks the steps whose
    first row has a zero super-diagonal and a positive diagonal, pinned
    or a physical Dirichlet row: it is factored as the identity row, with
    row 1's coupling zeroed so that dgttrf never pivots in column 0, and
    the coupling is then written in as L's first multiplier, the block LU
    of [[1, 0], [coupling, A]].  dgttrs subtracts the one rounded product
    coupling*value from row 1 and returns the value exactly.  left_h and
    right_h hold a physical end row's right-hand side: h, or h/beta0 on a
    Dirichlet first row.  A last row with a zero sub-diagonal is never
    swapped and is factored as it is.

    k0 is the strip level the operator's grid starts at (0 for a whole
    strip, the first level of a slab otherwise): errors name step k0+k.
    A slab of fewer steps whose data are those of its first ones uses
    them alone (see refactor_window_operator and march_window).
    plan is march_window's buffer and per-step dgttrs arguments for the
    column count of its last march, made by the first march with that
    count and valid across refactors, which write into the same arrays.
    """

    window: Subrange
    dt: float
    sub: np.ndarray  # (nt, n), sub[:, 0] = 0
    diag: np.ndarray  # (nt, n), without c
    sup: np.ndarray  # (nt, n), sup[:, -1] = 0
    offdiag: np.ndarray  # (nt, n), |sub| + |sup|
    positive_off: bool
    dl: np.ndarray  # (nt, n)
    d: np.ndarray  # (nt, n)
    du: np.ndarray  # (nt, n)
    du2: np.ndarray  # (nt, n)
    ipiv: np.ndarray  # (nt, n), int32
    left_h: Union[np.ndarray, None]
    right_h: Union[np.ndarray, None]
    pinned: np.ndarray  # (nt,) bool
    k0: int = 0  # the time level its first step starts from
    plan: tuple = field(default=None, init=False, repr=False, compare=False)


def as_shape(values, shape):
    """values as a float array of the given shape, broadcast (read-only)
    only where it is not that shape already."""
    values = np.asarray(values, dtype=float)
    return values if values.shape == shape else np.broadcast_to(values, shape)


def _end_rows(bc, ts):
    """alpha0, beta0 and h of a BoundaryCondition at each of the times ts."""
    return tuple(np.array([float(fn(t)) for t in ts]) for fn in (bc.alpha0, bc.beta0, bc.h))


@dataclass(frozen=True)
class StepSamples:
    """The data of a grid's steps that no iterate changes: the diffusion a
    and advection b at every step and interior node, (nt, nx-1), and the
    (alpha0, beta0, h) rows of the left and the right boundary condition
    at every step, each (nt,).  Sampled once, they serve both
    build_window_operator and the residuals of verify.  Each array may be
    a read-only broadcast view: a run whose steps all share the first
    step's data holds that step's rows alone, broadcast over its steps."""

    a: np.ndarray
    b: np.ndarray
    ends: tuple  # ((alpha0, beta0, h) left, (alpha0, beta0, h) right)

    def first(self, n):
        """The samples of the first n steps."""
        return StepSamples(
            a=self.a[:n], b=self.b[:n], ends=tuple(tuple(row[:n] for row in end) for end in self.ends)
        )


def sample_steps(grid, coeffs, bc_left, bc_right):
    """StepSamples of grid's steps, its levels 1..nt."""
    t, x = grid.ts[1:, None], grid.xs[None, 1:-1]
    shape = (grid.nt, grid.nx - 1)
    return StepSamples(
        a=as_shape(coeffs.a(t, x), shape),
        b=as_shape(coeffs.b(t, x), shape),
        ends=(_end_rows(bc_left, grid.ts[1:]), _end_rows(bc_right, grid.ts[1:])),
    )


def build_window_operator(grid, window, coeffs, c_field, left_bc, right_bc, k0=0, samples=None):
    """Assemble and factor the step matrices of a window for every step of
    grid, the strip or, as grid.levels(k0, k1), a slab of it whose first
    level k0 is given so that errors name strip steps.  samples, when
    given, are the StepSamples of grid with the boundary conditions of the
    strip's two ends, which a physical window end then reads in place of
    calling coeffs and its BoundaryCondition.  c_field may cover only the
    first levels of grid, and only those steps are then factored (see
    refactor_window_operator).

    Interior row i of step k, from one a and one b call over the (nt, n-2)
    interior grid:

        (1/dt + 2a/dx^2 + |b|/dx + c_i) u_i - (a/dx^2 + max(-b,0)/dx) u_{i-1}
                                            - (a/dx^2 + max(b,0)/dx)  u_{i+1},

    the advection term upwinded so both off-diagonals are <= 0.  Each end
    takes a BoundaryCondition, discretized one-sided at every step time,
    or None to pin it (see WindowOperator).  Raises ValueError where
    a <= 0, MMatrixViolation when a matrix fails the M-matrix check,
    ZeroPivotError on a singular matrix.
    """
    n, nt = window.size, grid.nt
    lo, hi = window.lo, window.hi
    t, x = grid.ts[1:, None], grid.xs[None, lo + 1 : hi]
    if samples is None:
        a = as_shape(coeffs.a(t, x), (nt, n - 2))
    else:
        a = samples.a[:, lo : hi - 1]
    if np.any(a <= 0.0):
        k, i = np.unravel_index(int(np.argmax(a <= 0.0)), a.shape)
        raise ValueError(
            f"diffusion not positive at t={grid.ts[k + 1]}, x={x[0, i]} (a={a[k, i]})"
        )
    b = as_shape(coeffs.b(t, x), (nt, n - 2)) if samples is None else samples.b[:, lo : hi - 1]

    dx, dt = grid.dx, grid.dt
    inv_dx2 = 1.0 / (dx * dx)
    sub, diag, sup = np.zeros((3, nt, n))
    diag[:, 1:-1] = 1.0 / dt + 2.0 * a * inv_dx2 + np.abs(b) / dx
    coupling = -(a * inv_dx2)
    np.subtract(coupling, np.maximum(-b, 0.0) / dx, out=sub[:, 1:-1])
    np.subtract(coupling, np.maximum(b, 0.0) / dx, out=sup[:, 1:-1])

    ends = []
    for j, (bc, row, off, col) in enumerate(((left_bc, 0, sup, 0), (right_bc, -1, sub, -1))):
        if bc is None:
            diag[:, row] = 1.0
            ends.append(None)
        else:
            alpha0, beta0, h = _end_rows(bc, grid.ts[1:]) if samples is None else samples.ends[j]
            diag[:, row] = alpha0 / dx + beta0
            off[:, col] = -alpha0 / dx
            ends.append(h.copy())  # a Dirichlet first row divides it below

    # A first row with a diagonal <= 0 fails the audit; it is left as it is.
    pinned = (sup[:, 0] == 0.0) & (diag[:, 0] > 0.0)
    if ends[0] is not None:
        ends[0][pinned] /= diag[pinned, 0]
    dl, du, du2 = np.zeros((3, nt, n))
    op = WindowOperator(
        window=window,
        dt=dt,
        sub=sub,
        diag=diag,
        sup=sup,
        offdiag=np.abs(sub) + np.abs(sup),
        # An interior coupling, -(a/dx^2) - max(+-b, 0)/dx with a > 0, is
        # never > 0 (a NaN is not): only a physical end row's can be.
        positive_off=bool(np.any(sup[:, 0] > 0) or np.any(sub[:, -1] > 0)),
        dl=dl,
        d=np.empty((nt, n)),
        du=du,
        du2=du2,
        ipiv=np.empty((nt, n), dtype=np.int32),
        left_h=ends[0],
        right_h=ends[1],
        pinned=pinned,
        k0=k0,
    )
    refactor_window_operator(op, c_field)
    return op


def refactor_window_operator(op, c_field):
    """Add the stabilizer c_field, a field over the operator's time levels
    (row 0 unused), to its matrices, check each for the M-matrix pattern
    and LU-factor every step into its factor arrays in place, all in one
    dgttrf call on the block-diagonal stack of the steps.  A c_field over
    its first k + 1 levels only (k <= nt) does this for its first k steps,
    and leaves the others as they were: a march of as many steps reads
    those alone (see march_window).

    Calls neither the coefficients nor the boundary data: the c-free
    matrices were kept at build.  Raises MMatrixViolation, naming the
    first failing step, or ZeroPivotError, and then leaves the factors
    unusable.
    """
    lo, hi = op.window.lo, op.window.hi
    c_field = np.asarray(c_field, dtype=float)
    nt, n = c_field.shape[0] - 1, op.d.shape[1]
    if not 1 <= nt <= op.d.shape[0]:
        raise ValueError(f"a stabilizer of {nt} steps for an operator of {op.d.shape[0]}")
    diag, d, offdiag, sub, sup = op.diag[:nt], op.d[:nt], op.offdiag[:nt], op.sub[:nt], op.sup[:nt]
    pinned, dl_rows = op.pinned[:nt], op.dl[:nt]
    np.copyto(d, diag)
    d[:, 1:-1] += c_field[1:, lo + 1 : hi]
    # m_matrix_check's tests on every step at once, as one subtraction and
    # a few reductions over the whole stack: every excess is finite and
    # >= 0 exactly where the least is >= 0 (min returns a NaN where there
    # is one) and the largest row-wise largest is finite, and every step
    # has a strictly dominant row where the least row-wise largest is > 0.
    # Only on a failure are the steps checked one by one, for the first.
    excess = np.subtract(d, offdiag)
    least, most = np.minimum.reduce, np.maximum.reduce
    largest = most(excess, 1)
    if not (
        least(excess, None) >= 0 and math.isfinite(most(largest)) and least(largest) > 0
        and least(d, None) > 0 and not op.positive_off
    ):
        for k, (sub_k, d_k, sup_k) in enumerate(zip(sub, d, sup)):
            ok, diagnostic = m_matrix_check(sub_k, d_k, sup_k)
            if not ok:
                raise MMatrixViolation(
                    f"assembled system fails M-matrix check at time step {op.k0 + k + 1}: "
                    f"{diagnostic}"
                )

    # Read flat, sub without its first entry and sup without its last are
    # the stack's off-diagonals: sub[:, 0] and sup[:, -1] are the zero
    # couplings between consecutive steps.  dl[k, 0] is row 1's coupling
    # to row 0, zeroed under a pinned first row, which is factored as the
    # identity row, and written back as L's multiplier (see WindowOperator).
    dl, du = dl_rows.reshape(-1)[:-1], op.du[:nt].reshape(-1)[:-1]
    np.copyto(dl, sub.reshape(-1)[1:])
    np.copyto(du, sup.reshape(-1)[:-1])
    d[pinned, 0] = 1.0
    dl_rows[pinned, 0] = 0.0
    *_, du2, ipiv, info = dgttrf(
        dl, d.reshape(-1), du, overwrite_dl=1, overwrite_d=1, overwrite_du=1
    )
    if info != 0:
        k, i = divmod(info - 1, n)
        raise ZeroPivotError(f"zero pivot at row {i} (time step {op.k0 + k + 1})")
    dl_rows[pinned, 0] = sub[pinned, 1]
    op.du2[:nt].reshape(-1)[:-2] = du2
    np.subtract(ipiv.reshape(nt, n), np.arange(0, nt * n, n, dtype=ipiv.dtype)[:, None],
                out=op.ipiv[:nt])


def _march_plan(op, m):
    """The buffer u (nt+1, m, n) a march of m columns solves in, a scratch
    row and, per step k, (u[k-1], the (column, scratch) pairs of u[k]'s
    interior, step k's dgttrs arguments).  u[k].T is the Fortran-ordered
    (n, m) block dgttrs solves in place."""
    nt, n = op.d.shape
    u = np.empty((nt + 1, m, n))
    rows = [u[k].T for k in range(nt + 1)]
    carried = np.empty((n, m), order="F")
    scratch = [carried[1:-1, j] for j in range(m)]
    steps = tuple(
        (
            rows[k - 1],
            tuple((rows[k][1:-1, j], scratch[j]) for j in range(m)),
            (op.dl[k - 1, :-1], op.d[k - 1], op.du[k - 1, :-1], op.du2[k - 1, :-2],
             op.ipiv[k - 1], rows[k], "N", 1),
        )
        for k in range(1, nt + 1)
    )
    return u, carried, steps


def march_window(op, q, initial, left=None, right=None):
    """Time-march m right-hand sides at once through a window operator.

    q is (m, nt+1, n-2): the lagged source on the window's interior (row
    0 unused), over the operator's time levels, or over its first nt + 1
    levels only, which marches its first nt steps.  initial is (m, n), the
    rows at its first level, or one (n,) row for every field.  left/right
    are (m, nt+1) Dirichlet values for a pinned end (row 0 unused) and
    must be None for a physical end.  Each step divides the previous
    level by dt, adds it to each column's interior and makes one dgttrs
    call with one right-hand-side column per field, so the columns never
    mix.

    Returns the (m, nt+1, n) window solution, a transposed view of the
    operator's march buffer: the next march on the operator with as many
    columns overwrites it, so copy what must outlive that.  Raises
    FloatingPointError at the first step whose solution is not finite,
    naming it by its strip step.
    """
    q = np.asarray(q, dtype=float)
    m = q.shape[0]
    for name, given, built in (("left", left, op.left_h), ("right", right, op.right_h)):
        if (given is None) == (built is None):
            raise ValueError(f"{name} end: pass values exactly when the end is pinned")
    if op.plan is None or op.plan[0].shape[1] != m:
        object.__setattr__(op, "plan", _march_plan(op, m))
    u, carried, steps = op.plan
    nt = q.shape[1] - 1
    if nt < len(steps):
        u, steps = u[: nt + 1], steps[:nt]
    u[0] = initial
    u[1:, :, 1:-1] = q[:, 1:].transpose(1, 0, 2)
    u[1:, :, 0] = op.left_h[:nt, None] if left is None else np.asarray(left, dtype=float)[:, 1:].T
    u[1:, :, -1] = (op.right_h[:nt, None] if right is None
                    else np.asarray(right, dtype=float)[:, 1:].T)
    divide, add, solve, dt = np.divide, np.add, dgttrs, op.dt
    for prev, columns, args in steps:
        divide(prev, dt, out=carried)
        for column, new in columns:
            add(column, new, out=column)
        solve(*args)
    if not np.logical_and.reduce(np.isfinite(u[1:]), None):
        k = op.k0 + int(np.argmin(np.all(np.isfinite(u[1:]), axis=(1, 2)))) + 1
        raise FloatingPointError(f"non-finite solution at time step {k}")
    return u.transpose(1, 0, 2)


def sample_field(fn, grid):
    """Sample a callable (t, x) -> real on the full grid as a Field."""
    vals = np.asarray(fn(grid.ts[:, None], grid.xs[None, :]), dtype=float)
    return np.broadcast_to(vals, (grid.nt + 1, grid.nx + 1)).copy()
