"""Correctness checks on a solver result, and the diagnostics printed with it.

A solve passes when it converged, its final gap is at most tol, its envelope
is ordered up to the solver's own default chain slack, and its midpoint lies
within tol + REF_SLACK of every reference field given.  Two envelopes of
width <= tol around one discrete solution cannot have midpoints further
apart than that.  Timings, the wall_ms column and raw CSV bytes are never
compared.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ORDER_SLACK = 1e-10  # run_dd / run_single_domain default chain_slack
REF_SLACK = 2e-10


@dataclass
class Envelope:
    """What a solve returns, from the library or read back from the CLI's CSVs."""

    u_lower: np.ndarray
    u_upper: np.ndarray
    converged: bool
    gaps: list  # gap_lower_upper per sweep
    chain_violation: list  # worst chain-link margin per sweep

    @property
    def u(self):
        return 0.5 * (self.u_lower + self.u_upper)

    @property
    def sweeps(self):
        return len(self.gaps)


def from_library(solution, history):
    return Envelope(
        u_lower=solution.u_lower,
        u_upper=solution.u_upper,
        converged=bool(solution.converged),
        gaps=list(history.gap_lower_upper),
        chain_violation=list(history.chain_violation),
    )


def from_csv(solution_csv, history_csv, exit_code, nx, nt):
    """Read the CLI's output back.  Raises ValueError on a malformed file."""
    sol = np.loadtxt(solution_csv, delimiter=",", skiprows=1, ndmin=2)
    if sol.shape != ((nt + 1) * (nx + 1), 5):
        raise ValueError(
            f"solution.csv has shape {sol.shape}, expected ({(nt + 1) * (nx + 1)}, 5)"
        )
    hist = np.loadtxt(history_csv, delimiter=",", skiprows=1, ndmin=2)
    if hist.shape[0] < 1 or hist.shape[1] < 4:
        raise ValueError(f"history.csv has shape {hist.shape}")
    fields = sol.reshape(nt + 1, nx + 1, 5)
    return Envelope(
        u_lower=fields[:, :, 3],
        u_upper=fields[:, :, 4],
        converged=exit_code == 0,
        gaps=list(hist[:, 1]),
        chain_violation=list(hist[:, 3]),
    )


def envelope_failures(env, tol, refs):
    """Every check the envelope fails, as messages; refs maps a name to a field."""
    failures = []
    if not env.converged:
        failures.append("not converged")
    if not env.gaps or not env.gaps[-1] <= tol:
        failures.append(f"final gap {env.gaps[-1] if env.gaps else None} > tol {tol}")
    width = env.u_upper - env.u_lower
    if not np.max(width) <= tol:
        failures.append(f"envelope width {np.max(width):.3e} > tol {tol}")
    if not np.min(width) >= -ORDER_SLACK:
        failures.append(f"envelope out of order: min(u_upper - u_lower) = {np.min(width):.3e}")
    u = env.u
    for name, ref in refs.items():
        if np.shape(ref) != np.shape(u):
            failures.append(f"{name}: shape {np.shape(ref)} != {np.shape(u)}")
            continue
        err = float(np.max(np.abs(u - ref)))
        if not err <= tol + REF_SLACK:
            failures.append(f"{name}: max |u - ref| = {err:.3e} > {tol + REF_SLACK:.3e}")
    return failures


def attempt(call):
    """Run one solve; a raised exception (a MonotoneChainError among them)
    becomes a failure message instead of ending the benchmark."""
    try:
        return call(), []
    except Exception as exc:  # every error is a failed operation, reported
        return None, [f"raised {type(exc).__name__}: {exc}"]


def dirichlet_pin_err(env, spec, grid):
    """max |u - h/beta0| over the final envelope's Dirichlet end columns
    (0.0 when neither end is Dirichlet)."""
    err = 0.0
    ts = grid.ts[1:]
    for bc, col in ((spec.bc_left, 0), (spec.bc_right, grid.nx)):
        if any(float(bc.alpha0(t)) != 0.0 for t in ts):
            continue
        pinned = np.array([float(bc.h(t)) / float(bc.beta0(t)) for t in ts])
        for field in (env.u_lower, env.u_upper):
            err = max(err, float(np.max(np.abs(field[1:, col] - pinned))))
    return err


def diagnostics(env, spec, grid):
    """Numbers that move no timing but expose roundoff defects on every run."""
    return {
        "verify.chain_margin_min": float(min(env.chain_violation)),
        "verify.envelope_order_min": float(np.min(env.u_upper - env.u_lower)),
        "discretization.dirichlet_pin_err": dirichlet_pin_err(env, spec, grid),
    }
