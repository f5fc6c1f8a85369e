"""Batch front end: JSON config in, CSV artifacts and exit codes out.

Exit codes: 0 success/converged, 2 not converged, 3 invalid config,
4 bracket verification failed, 5 monotone-chain violation (run aborted).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .discretization import MMatrixViolation, ZeroPivotError, build_grid
from .iteration import (
    BracketError,
    Decomposition,
    MonotoneChainError,
    order_study,
    run_dd,
    run_single_domain,
)
from .model import Bracket, catalog_lookup, validate_problem
from .verify import check_bracket
from .volterra import StabilizerError

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_BAD_CONFIG = 3
EXIT_VERIFY_FAILED = 4
EXIT_CHAIN_VIOLATION = 5


# A solve that raises one of these met a configured problem the scheme
# cannot discretize (a misordered bracket, a step matrix that is not an
# M-matrix or is singular, a stabilizer it cannot sample, a non-finite
# step): a bad config, not a crash.
UNDISCRETIZABLE = (
    BracketError,
    FloatingPointError,
    MMatrixViolation,
    ZeroPivotError,
    StabilizerError,
)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    problem_name: str
    problem_params: dict
    u_hat_const: Optional[float]
    u_tilde_const: Optional[float]
    nx: int
    nt: int
    grids: Optional[list]  # for the order command
    single_domain: bool
    decomposition: Optional[Decomposition]
    tol: float
    max_sweeps: int
    solution_csv: Optional[str]
    history_csv: Optional[str]


def _need(mapping, key, where):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be an object")
    if key not in mapping:
        raise ConfigError(f"missing field {where}.{key}")
    return mapping[key]


def _section(mapping, key, where):
    value = mapping.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{where}.{key} must be an object")
    return value


def _only(mapping, known, where):
    """Reject a key of the object mapping that is not in known, so that a
    misspelt optional key is an error rather than silently left out."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(mapping) - set(known))
    if unknown:
        raise ConfigError(
            f"unknown key {where}.{unknown[0]} (known: {', '.join(sorted(known))})"
        )


def _int(value, name):
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def _float(value, name):
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return number


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None

    _only(raw, ("problem", "grid", "grids", "decomposition", "solver", "output"), "config")
    prob = _need(raw, "problem", "config")
    _only(prob, ("name", "params", "u_hat_const", "u_tilde_const"), "problem")
    name = _need(prob, "name", "problem")
    if not isinstance(name, str):
        raise ConfigError(f"problem.name must be a string, got {name!r}")
    params = dict(_section(prob, "params", "problem"))
    consts = {}
    for key in ("u_hat_const", "u_tilde_const"):
        if prob.get(key) is not None:
            consts[key] = _float(prob[key], f"problem.{key}")
    if len(consts) == 2 and consts["u_hat_const"] > consts["u_tilde_const"]:
        raise ConfigError(
            f"problem.u_hat_const={consts['u_hat_const']} must be <= "
            f"u_tilde_const={consts['u_tilde_const']}"
        )

    grids = None
    nx = nt = 0
    if "grids" in raw:
        if not isinstance(raw["grids"], list):
            raise ConfigError("grids must be a list")
        grids = []
        for entry in raw["grids"]:
            _only(entry, ("nx", "nt"), "grids[]")
            grids.append(
                (
                    _int(_need(entry, "nx", "grids[]"), "grids[].nx"),
                    _int(_need(entry, "nt", "grids[]"), "grids[].nt"),
                )
            )
        if not grids:
            raise ConfigError("grids must not be empty")
        nx, nt = grids[0]
    else:
        g = _need(raw, "grid", "config")
        _only(g, ("nx", "nt"), "grid")
        nx = _int(_need(g, "nx", "grid"), "grid.nx")
        nt = _int(_need(g, "nt", "grid"), "grid.nt")
    if nx < 4:
        raise ConfigError(f"grid.nx must be >= 4, got {nx}")
    if nt < 1:
        raise ConfigError(f"grid.nt must be >= 1, got {nt}")

    dec_raw = raw.get("decomposition", "single_domain")
    single = dec_raw == "single_domain"
    decomp = None
    if not single:
        _only(dec_raw, ("i1_hi", "i2_lo"), "decomposition")
        i1_hi = _int(_need(dec_raw, "i1_hi", "decomposition"), "decomposition.i1_hi")
        i2_lo = _int(_need(dec_raw, "i2_lo", "decomposition"), "decomposition.i2_lo")
        try:
            decomp = Decomposition(i1_hi=i1_hi, i2_lo=i2_lo)
            decomp.check(nx)
        except ValueError as exc:
            raise ConfigError(f"decomposition: {exc}") from None

    solver = _section(raw, "solver", "config")
    _only(solver, ("tol", "max_sweeps"), "solver")
    tol = _float(_need(solver, "tol", "solver"), "solver.tol")
    if tol <= 0:
        raise ConfigError(f"solver.tol must be positive, got {tol}")
    max_sweeps = _int(_need(solver, "max_sweeps", "solver"), "solver.max_sweeps")
    if max_sweeps < 1:
        raise ConfigError(f"solver.max_sweeps must be >= 1, got {max_sweeps}")

    out = _section(raw, "output", "config")
    _only(out, ("solution_csv", "history_csv"), "output")
    for key in ("solution_csv", "history_csv"):
        if not isinstance(out.get(key, ""), (str, type(None))):
            raise ConfigError(f"output.{key} must be a path string, got {out[key]!r}")
    return RunConfig(
        problem_name=name,
        problem_params=params,
        u_hat_const=consts.get("u_hat_const"),
        u_tilde_const=consts.get("u_tilde_const"),
        nx=nx,
        nt=nt,
        grids=grids,
        single_domain=single,
        decomposition=decomp,
        tol=tol,
        max_sweeps=max_sweeps,
        solution_csv=out.get("solution_csv"),
        history_csv=out.get("history_csv"),
    )


def _build_spec(cfg):
    spec = catalog_lookup(cfg.problem_name, cfg.problem_params)
    if cfg.u_hat_const is not None or cfg.u_tilde_const is not None:
        old = spec.bracket
        u_hat = old.u_hat if cfg.u_hat_const is None else (
            lambda t, x, v=float(cfg.u_hat_const): v + 0.0 * x
        )
        u_tilde = old.u_tilde if cfg.u_tilde_const is None else (
            lambda t, x, v=float(cfg.u_tilde_const): v + 0.0 * x
        )
        spec = replace(spec, bracket=Bracket(u_hat=u_hat, u_tilde=u_tilde))
    return spec


def _fmt(v):
    return format(float(v), ".17g")


def _usable_cpus():
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _level_block(t, tails, u, u_lower, u_upper):
    """One level's rows as ASCII bytes: t, formatted once, joins the tail
    templates of the x's, which take the level's three value columns."""
    values = np.column_stack((u, u_lower, u_upper))
    return ((t + t.join(tails)) % tuple(values.ravel().tolist())).encode("ascii")


def _fork_helper(block, levels):
    """Fork a helper that writes block(k) of every odd level k into a pipe,
    each as its length (8 bytes, little-endian) and then its bytes; return
    the helper's pid and the pipe's read end.  The helper leaves only
    through os._exit, 0 after its last block and 1 on any exception, so it
    never runs the parent's cleanup and never flushes the parent's buffers."""
    read_end, write_end = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12 and later warn when a process with other threads
        # (OpenBLAS's pool, say) forks, as the child may find a lock held
        # by a thread it does not have.  The helper makes no BLAS call and
        # takes no lock another thread could hold: it formats and writes.
        warnings.filterwarnings("ignore", ".*multi-threaded", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                for k in range(1, levels, 2):
                    data = block(k)
                    pipe.write(len(data).to_bytes(8, "little"))
                    pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _received(pipe, k):
    """Level k's block, the helper's next one on the pipe."""
    size = int.from_bytes(pipe.read(8), "little")
    data = pipe.read(size)
    if size == 0 or len(data) < size:
        raise OSError(f"the helper formatting the odd time levels stopped before level {k}")
    return data


def _write_solution_csv(path, grid, solution):
    """Rows t,x,u,u_lower,u_upper for every (k, i), k-major, each value at
    17 significant digits and each line ended by \\r\\n, as csv.writer
    wrote them.  Each x is formatted once per run and each t once per
    level, into that level's %-format of its three value columns: a
    whole-table format would hold every value as a Python float at once.

    Formatting is almost all of the cost, and it holds the GIL, so the
    writer uses a second CPU when it may run on one: a forked helper
    (_fork_helper) formats the odd levels and sends each through a pipe as
    one length-prefixed block, while this process formats the even levels
    and writes every level in order, its own and the helper's next block
    in turn.  Either process holds about one level at a time, and the
    bytes are the same as with no helper.  There is none, and this process
    formats every level, where os.fork does not exist, where the process
    may run on fewer than two CPUs, and for a grid of one level.  The
    helper only formats numbers already in memory and writes to the pipe;
    it never opens the output file.  On the way out the pipe is closed
    first, so a helper blocked on it gets BrokenPipeError and exits, and
    then the helper is reaped; an OSError is raised if it failed."""
    tails = [",%s,%%.17g,%%.17g,%%.17g\r\n" % _fmt(x) for x in grid.xs]
    levels = len(grid.ts)

    def block(k):
        return _level_block(
            _fmt(grid.ts[k]), tails, solution.u[k], solution.u_lower[k], solution.u_upper[k]
        )

    with open(path, "wb") as fh:
        fh.write(b"t,x,u,u_lower,u_upper\r\n")
        helper = pipe = None
        if levels > 1 and hasattr(os, "fork") and _usable_cpus() > 1:
            helper, pipe = _fork_helper(block, levels)
        try:
            for k in range(levels):
                fh.write(_received(pipe, k) if pipe and k % 2 else block(k))
        finally:
            if helper is not None:
                pipe.close()
                status = os.waitpid(helper, 0)[1]
    if helper is not None and status != 0:
        raise OSError(f"the helper formatting the odd time levels failed (wait status {status})")


def _write_history_csv(path, history):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sweep", "gap_lower_upper", "max_update", "chain_violation", "c_max"])
        for n in range(len(history.gap_lower_upper)):
            writer.writerow(
                [
                    n + 1,
                    _fmt(history.gap_lower_upper[n]),
                    _fmt(history.max_update[n]),
                    _fmt(history.chain_violation[n]),
                    _fmt(history.c_max[n]),
                ]
            )


def _load(config_path):
    """The config, its problem and its grids (the grids list, or the one
    grid), and None; or Nones and the message of the first thing wrong
    with them: a ConfigError, a CatalogError, or a grid that build_grid
    rejects as non-finite."""
    try:
        cfg = load_config(config_path)
        spec = _build_spec(cfg)
        grids = [build_grid(spec.domain, nx, nt) for nx, nt in cfg.grids or [(cfg.nx, cfg.nt)]]
    except ValueError as exc:
        return None, None, None, f"invalid config: {exc}"
    return cfg, spec, grids, None


def cmd_run(config_path):
    cfg, spec, grids, error = _load(config_path)
    if error:
        print(error, file=sys.stderr)
        return EXIT_BAD_CONFIG
    grid = grids[0]
    try:
        # A non-finite value on the way is caught by march_window as a
        # FloatingPointError; numpy's warnings about it would only precede
        # the one-line message.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            solution, history = _solve(cfg, spec, grid)
    except UNDISCRETIZABLE as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except MonotoneChainError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_CHAIN_VIOLATION
    for key, write, data in (
        ("solution_csv", _write_solution_csv, (grid, solution)),
        ("history_csv", _write_history_csv, (history,)),
    ):
        path = getattr(cfg, key)
        if path:
            try:
                write(path, *data)
            except OSError as exc:
                print(f"invalid config: cannot write output.{key}: {exc}", file=sys.stderr)
                return EXIT_BAD_CONFIG
    gap = float(np.max(solution.u_upper - solution.u_lower))
    status = "converged" if solution.converged else f"NOT converged ({history.stop_reason})"
    print(
        f"{cfg.problem_name}: {status} "
        f"after {solution.sweeps_used} sweeps in {len(history.slab_sweeps)} slabs "
        f"({history.level_solves} level-solves per window), final gap {gap:.3e}"
    )
    return EXIT_OK if solution.converged else EXIT_NOT_CONVERGED


def _solve(cfg, spec, grid):
    if cfg.single_domain:
        return run_single_domain(
            spec, grid, cfg.tol, cfg.max_sweeps, abort_on_chain_violation=True
        )
    return run_dd(
        spec, grid, cfg.decomposition, cfg.tol, cfg.max_sweeps, abort_on_chain_violation=True
    )


def cmd_verify(config_path):
    cfg, spec, grids, error = _load(config_path)
    if error:
        print(error, file=sys.stderr)
        return EXIT_BAD_CONFIG
    grid = grids[0]
    report = validate_problem(spec)
    for item in report:
        print(f"hypothesis violation: {item}")
    ok = not report
    for kind, fn in (("sub", spec.bracket.u_hat), ("super", spec.bracket.u_tilde)):
        rr = check_bracket(spec, grid, fn, kind)
        print(
            f"{kind}solution candidate: passed={rr.passed} "
            f"worst_interior={rr.worst_interior[0]:.3e} "
            f"worst_boundary={rr.worst_boundary[0]:.3e} "
            f"worst_initial={rr.worst_initial[0]:.3e}"
        )
        ok = ok and rr.passed
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_order(config_path):
    cfg, spec, _, error = _load(config_path)
    if error is None and cfg.grids is None:
        error = "invalid config: order command requires a 'grids' list"
    elif error is None and spec.exact is None:
        error = f"invalid config: problem {cfg.problem_name!r} has no exact solution to order against"
    if error:
        print(error, file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            result = order_study(spec, cfg.grids, cfg.tol, max_sweeps=cfg.max_sweeps)
    except UNDISCRETIZABLE as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except RuntimeError as exc:
        print(f"order study failed: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    print("nx,nt,linf_error")
    for (nx, nt), err in zip(result.grids, result.errors):
        print(f"{nx},{nt},{_fmt(err)}")
    print("step,observed_order")
    for n, order in enumerate(result.orders):
        print(f"{n + 1},{_fmt(order)}")
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="monodd",
        description="Monotone domain-decomposition solver for integro-parabolic problems",
    )
    parser.add_argument(
        "--audit-mmatrix",
        action="store_true",
        help="accepted and has no effect: every step matrix is always M-matrix-checked",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "solve a configured problem and write CSV artifacts"),
        ("verify", "validate problem hypotheses and the bracket"),
        ("order", "convergence-order study over a grid list"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("config", help="path to a JSON config file")
    args = parser.parse_args(argv)
    dispatch = {"run": cmd_run, "verify": cmd_verify, "order": cmd_order}
    return dispatch[args.command](args.config)


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
