"""Uniform space-time grids and the implicit finite-difference stepper.

The time direction is discretized by backward Euler and space by central
differences for the diffusion term plus first-order upwinding for advection.
That combination makes every per-step tridiagonal matrix an M-matrix as soon
as the zero-order coefficient is nonnegative, which is what the whole
monotone iteration machinery rests on.

The solver's matrices depend on the stabilizer and the boundary rows only,
so a WindowOperator assembles them for the time levels of one grid, keeps
them without the stabilizer, and holds their LU factors for the current
one: march_window reuses the factors for every right-hand side, through
per-step views made once per operator and with no allocation per step,
and refactor_window_operator refactors them in place when the stabilizer
is lowered.  Grid1D.levels restricts a grid to a range of time levels (a
slab); an operator built on it, with the slab's first level as k0, holds
that slab's steps only and names them by their strip step in its errors.

Every step matrix is checked for the M-matrix pattern each time it is
factored, at build and at every refactor, and a violation raises
MMatrixViolation: the monotone iteration is only sound on M-matrices, and
the check costs about 1% of a solve.

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
    out of diag; they never change.  dl, d, du, du2 and ipiv hold the
    factors of the matrices with a stabilizer c added, and
    refactor_window_operator overwrites them in place for a new c.

    A window end is either physical, the row alpha0 du/dnu + beta0 u = h
    of its BoundaryCondition with h in left_h/right_h, or pinned: a
    Dirichlet row, its values given to each march (left_h/right_h None).
    A first row with a zero super-diagonal is decoupled before factoring:
    its value is folded into row 1's right-hand side and row 1's coupling
    to it is zeroed, so it comes back exact.  Left coupled, dgttrf's
    partial pivoting would swap it with row 1, whose sub-diagonal is of
    order a/dx^2, and return it off by about eps/dx^2.  pin_sub holds row
    1's coupling (0 where the row is coupled) and pin_diag the first
    row's diagonal (1 there).  A last row with a zero sub-diagonal is
    never swapped and needs no decoupling.

    k0 is the strip level the operator's grid starts at (0 for a whole
    strip, the first level of a slab otherwise): errors name step k0+k.
    steps holds, per step, the (dl, d, du, du2, ipiv) row views that
    dgttrs takes, made once here and valid across refactors, which write
    into the same arrays.
    """

    window: Subrange
    dt: float
    sub: np.ndarray  # (nt, n), sub[:, 0] = 0
    diag: np.ndarray  # (nt, n), without c
    sup: np.ndarray  # (nt, n), sup[:, -1] = 0
    dl: np.ndarray  # (nt, n-1)
    d: np.ndarray  # (nt, n)
    du: np.ndarray  # (nt, n-1)
    du2: np.ndarray  # (nt, n-2)
    ipiv: np.ndarray  # (nt, n), int32
    left_h: Union[np.ndarray, None]
    right_h: Union[np.ndarray, None]
    pin_sub: np.ndarray
    pin_diag: np.ndarray
    k0: int = 0  # the time level its first step starts from
    steps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(zip(self.dl, self.d, self.du, self.du2, self.ipiv)))


def _end_rows(bc, ts):
    """alpha0, beta0 and h of a BoundaryCondition at each of the times ts."""
    return (np.array([float(fn(t)) for t in ts]) for fn in (bc.alpha0, bc.beta0, bc.h))


def build_window_operator(grid, window, coeffs, c_field, left_bc, right_bc, k0=0):
    """Assemble and factor the step matrices of a window for every step of
    grid, the strip or, as grid.levels(k0, k1), a slab of it whose first
    level k0 is given so that errors name strip steps.

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
    a = np.broadcast_to(np.asarray(coeffs.a(t, x), dtype=float), (nt, n - 2))
    if np.any(a <= 0.0):
        k, i = np.unravel_index(int(np.argmax(a <= 0.0)), a.shape)
        raise ValueError(
            f"diffusion not positive at t={grid.ts[k + 1]}, x={x[0, i]} (a={a[k, i]})"
        )
    b = np.broadcast_to(np.asarray(coeffs.b(t, x), dtype=float), (nt, n - 2))

    dx, dt = grid.dx, grid.dt
    inv_dx2 = 1.0 / (dx * dx)
    sub = np.zeros((nt, n))
    diag = np.zeros((nt, n))
    sup = np.zeros((nt, n))
    diag[:, 1:-1] = 1.0 / dt + 2.0 * a * inv_dx2 + np.abs(b) / dx
    sub[:, 1:-1] = -(a * inv_dx2) - np.maximum(-b, 0.0) / dx
    sup[:, 1:-1] = -(a * inv_dx2) - np.maximum(b, 0.0) / dx

    ends = []
    for bc, row, off, col in ((left_bc, 0, sup, 0), (right_bc, -1, sub, -1)):
        if bc is None:
            diag[:, row] = 1.0
            ends.append(None)
        else:
            alpha0, beta0, h = _end_rows(bc, grid.ts[1:])
            diag[:, row] = alpha0 / dx + beta0
            off[:, col] = -alpha0 / dx
            ends.append(h)

    pinned = sup[:, 0] == 0.0
    op = WindowOperator(
        window=window,
        dt=dt,
        sub=sub,
        diag=diag,
        sup=sup,
        dl=np.empty((nt, n - 1)),
        d=np.empty((nt, n)),
        du=np.empty((nt, n - 1)),
        du2=np.empty((nt, n - 2)),
        ipiv=np.empty((nt, n), dtype=np.int32),
        left_h=ends[0],
        right_h=ends[1],
        pin_sub=np.where(pinned, sub[:, 1], 0.0),
        pin_diag=np.where(pinned, diag[:, 0], 1.0),
        k0=k0,
    )
    refactor_window_operator(op, c_field)
    return op


def refactor_window_operator(op, c_field):
    """Add the stabilizer c_field, a field over the operator's time levels
    (row 0 unused), to its matrices, check each for the M-matrix pattern
    and LU-factor every step into its factor arrays in place.

    Calls neither the coefficients nor the boundary data: the c-free
    matrices were kept at build.  Raises MMatrixViolation, naming the
    first failing step, or ZeroPivotError, and then leaves the factors
    unusable.
    """
    lo, hi = op.window.lo, op.window.hi
    np.copyto(op.d, op.diag)
    op.d[:, 1:-1] += np.asarray(c_field, dtype=float)[1:, lo + 1 : hi]
    # Every step in one vectorized pass; m_matrix_check words the first failure.
    excess = op.d - (np.abs(op.sub) + np.abs(op.sup))
    bad = (
        ~np.all(np.isfinite(excess), axis=1)  # an inf or a NaN entry
        | np.any(op.d <= 0, axis=1)
        | np.any(op.sub > 0, axis=1)
        | np.any(op.sup > 0, axis=1)
        | np.any(excess < 0, axis=1)
        | ~np.any(excess > 0, axis=1)
    )
    if np.any(bad):
        k = int(np.argmax(bad))
        _, diagnostic = m_matrix_check(op.sub[k], op.d[k], op.sup[k])
        raise MMatrixViolation(
            f"assembled system fails M-matrix check at time step {op.k0 + k + 1}: {diagnostic}"
        )

    pinned = op.sup[:, 0] == 0.0
    np.copyto(op.dl, op.sub[:, 1:])
    op.dl[pinned, 0] = 0.0
    np.copyto(op.du, op.sup[:, :-1])

    for k in range(op.d.shape[0]):
        *_, du2, ipiv, info = dgttrf(
            op.dl[k], op.d[k], op.du[k], overwrite_dl=1, overwrite_d=1, overwrite_du=1
        )
        if info != 0:
            raise ZeroPivotError(f"zero pivot at row {info - 1} (time step {op.k0 + k + 1})")
        op.du2[k] = du2
        op.ipiv[k] = ipiv


def march_window(op, q, initial, left=None, right=None):
    """Time-march m right-hand sides at once through a window operator.

    q is (m, nt+1, n-2): the lagged source on the window's interior (row
    0 unused), over the operator's time levels.  initial is (m, n), the
    rows at its first level, or one (n,) row for every field.  left/right
    are (m, nt+1) Dirichlet values for a pinned end (row 0 unused) and
    must be None for a physical end.  Each step is one dgttrs call with
    one right-hand-side column per field, so the columns never mix.
    Returns the (m, nt+1, n) window solution (a transposed view); raises
    FloatingPointError at the first step whose solution is not finite.
    """
    q = np.asarray(q, dtype=float)
    m, nt1, _ = q.shape
    n, dt = op.window.size, op.dt
    for name, given, built in (("left", left, op.left_h), ("right", right, op.right_h)):
        if (given is None) == (built is None):
            raise ValueError(f"{name} end: pass values exactly when the end is pinned")
    # u[k] holds step k's right-hand side until dgttrs overwrites it with
    # the solution: (m, n) C-contiguous, so u[k].T is the Fortran-ordered
    # (n, m) block dgttrs solves in place.  u[0] is the initial rows.
    u = np.empty((nt1, m, n))
    u[0] = initial
    u[1:, :, 1:-1] = q[:, 1:].transpose(1, 0, 2)
    u[1:, :, 0] = op.left_h[:, None] if left is None else np.asarray(left, dtype=float)[:, 1:].T
    u[1:, :, -1] = op.right_h[:, None] if right is None else np.asarray(right, dtype=float)[:, 1:].T
    interior, row1, blocks = u[:, :, 1:-1], u[:, :, 1], u.transpose(0, 2, 1)
    fold = None
    if np.any(op.pin_sub != 0.0):
        fold = op.pin_sub[:, None] * (u[1:, :, 0] / op.pin_diag[:, None])
    carried = np.empty((m, n - 2))  # u[k-1]/dt, written in place every step
    solve = dgttrs
    for k, step in enumerate(op.steps, start=1):
        np.divide(interior[k - 1], dt, out=carried)
        np.add(interior[k], carried, out=interior[k])
        if fold is not None:
            row1[k] -= fold[k - 1]
        solve(*step, blocks[k], "N", 1)
    finite = np.all(np.isfinite(u[1:]), axis=(1, 2))
    if not np.all(finite):
        raise FloatingPointError(f"non-finite solution at time step {int(np.argmin(finite)) + 1}")
    return u.transpose(1, 0, 2)


def sample_field(fn, grid):
    """Sample a callable (t, x) -> real on the full grid as a Field."""
    vals = np.asarray(fn(grid.ts[:, None], grid.xs[None, :]), dtype=float)
    return np.broadcast_to(vals, (grid.nt + 1, grid.nx + 1)).copy()
