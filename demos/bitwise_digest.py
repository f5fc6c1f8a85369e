"""Digests of the benchmark's three configurations at seed 0, and of two
128x128 KPP runs whose data depend on t, for showing that a change leaves
the solver's output bitwise as it was.

Per configuration it prints the sha256 of u_lower and u_upper, and a
sha256 over float.hex of every value of the ConvergenceHistory's
per-sweep lists (gap_lower_upper, max_update, chain_violation, c_max) and
of its slab_sweeps and slab_starts, with the sweeps and level-solves in
plain numbers.  cli_single is solved twice: by the library, as the CLI
solves it, and by `monodd --audit-mmatrix run`, whose solution.csv and
history.csv it hashes.  KPP is memory_footprint.kpp, the benchmark's
kpp_dd problem; kpp_a(t) takes its diffusion as 0.05 + 0.05 x + 0.01 t
and kpp_h(t) its left end's h as 0.01 t, so that no two steps share their
data and the solver builds every slab's operators on its own steps.  It
takes a few seconds.  Run it against two source
trees and compare the output:

    PYTHONPATH=src python demos/bitwise_digest.py
    PYTHONPATH=<other checkout>/src python demos/bitwise_digest.py
"""
import contextlib
import dataclasses
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

import monodd.cli
from monodd import Decomposition, build_grid, catalog_lookup, run_dd, run_single_domain

from memory_footprint import kpp

TOL = 1e-8
MAX_SWEEPS = 200
LOGISTIC = {"lam": 1.0, "kappa": 0.5, "sigma": 0.5}
HISTORY_LISTS = ("gap_lower_upper", "max_update", "chain_violation", "c_max")


def sha(data):
    return hashlib.sha256(data).hexdigest()


def hexed(value):
    """value with every float in it as float.hex, recursively through tuples."""
    if isinstance(value, tuple):
        return "(" + ",".join(hexed(v) for v in value) + ")"
    if isinstance(value, float):
        return float.hex(value)
    return repr(value)


def history_digest(history):
    lines = [
        name + ":" + ",".join(hexed(float(v)) for v in getattr(history, name))
        for name in HISTORY_LISTS
    ]
    lines += [
        name + ":" + ",".join(hexed(tuple(row)) for row in getattr(history, name))
        for name in ("slab_sweeps", "slab_starts")
    ]
    return sha("\n".join(lines).encode())


def report(name, solution, history):
    print(f"{name}: sweeps {solution.sweeps_used}, level-solves {history.level_solves}")
    for field in ("u_lower", "u_upper"):
        print(f"  {field} {sha(np.ascontiguousarray(getattr(solution, field)).tobytes())}")
    print(f"  history {history_digest(history)}")


def decomposed(name, spec, nx, nt):
    grid = build_grid(spec.domain, nx, nt)
    decomposition = Decomposition(i1_hi=5 * nx // 8, i2_lo=3 * nx // 8)
    report(name, *run_dd(spec, grid, decomposition, TOL, MAX_SWEEPS, abort_on_chain_violation=True))


def cli_single(nx=512, nt=64):
    spec = catalog_lookup("logistic_memory", dict(LOGISTIC))
    grid = build_grid(spec.domain, nx, nt)
    report("cli_single", *run_single_domain(spec, grid, TOL, MAX_SWEEPS, abort_on_chain_violation=True))
    with tempfile.TemporaryDirectory() as tmp:
        out = {key: str(Path(tmp) / f"{key[:-4]}.csv") for key in ("solution_csv", "history_csv")}
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({
            "problem": {"name": "logistic_memory", "params": LOGISTIC},
            "grid": {"nx": nx, "nt": nt},
            "decomposition": "single_domain",
            "solver": {"tol": TOL, "max_sweeps": MAX_SWEEPS},
            "output": out,
        }))
        with contextlib.redirect_stdout(io.StringIO()):
            status = monodd.cli.main(["--audit-mmatrix", "run", str(config)])
        print(f"  monodd run exit {status}")
        for key, path in out.items():
            print(f"  {Path(path).name} {sha(Path(path).read_bytes())}")


def main():
    decomposed("memory_dd", catalog_lookup("manufactured_1"), 128, 256)
    decomposed("kpp_dd", kpp(8.0, 0.5, 0.5), 256, 256)
    cli_single()
    spec = kpp(8.0, 0.5, 0.5)
    decomposed("kpp_a(t)", dataclasses.replace(spec, coeffs=dataclasses.replace(
        spec.coeffs, a=lambda t, x: 0.05 + 0.05 * x + 0.01 * t)), 128, 128)
    decomposed("kpp_h(t)", dataclasses.replace(spec, bc_left=dataclasses.replace(
        spec.bc_left, h=lambda t: 0.01 * t)), 128, 128)


if __name__ == "__main__":
    main()
