import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import monodd
from monodd import SpaceTimeDomain, build_grid
from monodd import cli
from monodd.cli import _write_solution_csv, main


def write_config(path, **overrides):
    cfg = {
        "problem": {
            "name": "logistic_memory",
            "params": {"lam": 1.0, "kappa": 0.5, "sigma": 0.5},
        },
        "grid": {"nx": 32, "nt": 32},
        "decomposition": {"i1_hi": 20, "i2_lo": 12},
        "solver": {"tol": 1e-8, "max_sweeps": 200},
        "output": {},
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    path.write_text(json.dumps(cfg))
    return path


def test_run_desk_config(tmp_path):
    sol_csv = tmp_path / "solution.csv"
    hist_csv = tmp_path / "history.csv"
    cfg = write_config(
        tmp_path / "cfg.json",
        output={"solution_csv": str(sol_csv), "history_csv": str(hist_csv)},
    )
    assert main(["run", str(cfg)]) == 0
    with open(hist_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["sweep", "gap_lower_upper", "max_update", "chain_violation", "c_max"]
    gaps = [float(r["gap_lower_upper"]) for r in rows]
    assert all(b <= a + 1e-10 for a, b in zip(gaps, gaps[1:]))
    with open(sol_csv) as fh:
        sol_rows = list(csv.DictReader(fh))
    assert len(sol_rows) == 33 * 33
    # 17 significant digits round-trip
    row = sol_rows[40]
    assert float(row["u_lower"]) <= float(row["u"]) <= float(row["u_upper"])
    assert row["u"] == format(float(row["u"]), ".17g")


def test_run_single_domain(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", decomposition="single_domain")
    assert main(["run", str(cfg)]) == 0


def test_single_domain_wide_grid_keeps_chain(tmp_path):
    # At 512x128 the Dirichlet rows sit next to rows of order a/dx^2; when
    # they were pivoted inside dgtsv the run aborted with exit 5.
    cfg = write_config(
        tmp_path / "cfg.json", grid={"nx": 512, "nt": 128}, decomposition="single_domain"
    )
    assert main(["run", str(cfg)]) == 0


LOGISTIC = {"name": "logistic_memory", "params": {"lam": 1.0, "kappa": 0.5, "sigma": 0.5}}


@pytest.mark.parametrize(
    "overrides,mentions",
    [
        ({"grid": {"nx": "abc"}}, "grid.nx"),
        ({"grid": {"nt": None}}, "grid.nt"),
        ({"problem": {**LOGISTIC, "params": {"lam": 0, "kappa": 0.5, "sigma": 0.5}}}, "lam"),
        ({"problem": {**LOGISTIC, "params": {"lam": "x", "kappa": 0.5, "sigma": 0.5}}}, "lam"),
        ({"problem": {**LOGISTIC, "params": {"lam": 1, "kappa": float("inf"), "sigma": 0.5}}}, "kappa"),
        ({"problem": {"name": "linear_heat", "params": {"T": -1.0}}}, "T must be positive"),
        ({"problem": {**LOGISTIC, "u_hat_const": 2, "u_tilde_const": 1}}, "u_hat_const"),
        ({"problem": {**LOGISTIC, "u_hat_const": 5}}, "bracket ordering"),
        ({"problem": {**LOGISTIC, "u_tilde_const": "high"}}, "u_tilde_const"),
        ({"solver": {"tol": float("nan")}}, "solver.tol"),
        ({"solver": {"c_margin": 1e-6}}, "unknown key solver.c_margin"),
        ({"solver": {"n_samples": 8}}, "unknown key solver.n_samples"),
        ({"solver": {"max_sweeps": "many"}}, "solver.max_sweeps"),
        ({"solver": [1e-8]}, "solver"),
        ({"decomposition": {"i1_hi": 20.0, "i2_lo": [12]}}, "decomposition.i2_lo"),
        ({"solver": {"c_margn": 1e-6}}, "unknown key solver.c_margn"),
        ({"solvr": {"tol": 1e-8}}, "unknown key config.solvr"),
        ({"grid": {"ny": 8}}, "unknown key grid.ny"),
        ({"grids": [{"nx": 16, "nt": 16, "dt": 0.1}]}, "unknown key grids[].dt"),
        ({"decomposition": {"overlap": 8}}, "unknown key decomposition.overlap"),
        ({"problem": {**LOGISTIC, "u_hat": 0.0}}, "unknown key problem.u_hat"),
        ({"output": {"solution": "u.csv"}}, "unknown key output.solution"),
        ({"solver": {"parallel_branches": True}}, "unknown key solver.parallel_branches"),
        ({"problem": {**LOGISTIC, "params": {"lam": 1, "kappa": 0.5, "sigma": 1e200}}}, "non-finite"),
        ({"problem": {"name": "linear_heat", "params": {"T": 1e-320}}}, "non-finite"),
        ({"output": {"solution_csv": 1}}, "output.solution_csv must be a path string"),
    ],
)
def test_bad_config_exits_3_without_traceback(tmp_path, capsys, overrides, mentions):
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("invalid config:") and mentions in err


@pytest.mark.parametrize("key", ["solution_csv", "history_csv"])
def test_unwritable_output_exits_3_without_traceback(tmp_path, capsys, key):
    # The run solves, then cannot open the file: one line, exit 3, and no
    # helper left behind.
    cfg = write_config(tmp_path / "cfg.json", output={key: str(tmp_path / "missing" / "out.csv")})
    assert main(["run", str(cfg)]) == 3
    assert_no_child_left()
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"invalid config: cannot write output.{key}: [Errno 2]")


def test_late_audit_failure_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    # A left row alpha0 = 0, beta0 < 0 for t > 0.8 fails the M-matrix audit
    # at steps 26..32 only, in the last of the run's three slabs: it is
    # found when that slab starts, and the run still exits 3 with one line.
    late = monodd.BoundaryCondition(
        alpha0=lambda t: 0.0, beta0=lambda t: -1.0 if t > 0.8 else 1.0, h=lambda t: 0.0
    )
    lookup = cli.catalog_lookup
    monkeypatch.setattr(
        cli, "catalog_lookup", lambda *args: dataclasses.replace(lookup(*args), bc_left=late)
    )
    cfg = write_config(tmp_path / "cfg.json", decomposition="single_domain")
    assert main(["run", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid config:") and captured.err.count("\n") == 1
    assert "time step 26: row 0: diagonal -1 not positive" in captured.err


@pytest.mark.parametrize("case", ["coupling", "value"])
def test_pinned_row_overflow_exits_3_with_one_line(tmp_path, capsys, monkeypatch, case):
    # A Dirichlet first row is factored as the identity row, row 1's
    # coupling to it as L's first multiplier, and its value h/beta0 enters
    # row 1 as coupling*value.  A coupling of -9e307 needs nothing more:
    # the run converges with the left column h/beta0 = 1/3 exactly.  With
    # coupling -1.5, a value of 1e308 from step 5 on enters row 1 as
    # 1.5e308, and at step 6, with the previous level over dt, the solution
    # overflows: exit 3 with one line.
    if case == "coupling":
        params, grid = {"T": 1e-299}, {"nx": 4, "nt": 10}
        a, b = 6.25e305, -2e307
        bc = monodd.BoundaryCondition(alpha0=lambda t: 0.0, beta0=lambda t: 3.0, h=lambda t: 1.0)
    else:
        params, grid = {"T": 0.01}, {"nx": 4, "nt": 8}
        a, b = 0.09375, 0.0
        bc = monodd.BoundaryCondition(
            alpha0=lambda t: 0.0, beta0=lambda t: 1.0, h=lambda t: 1e308 if t > 0.005 else 0.0
        )
    coeffs = monodd.EllipticCoefficients(a=lambda t, x: a + 0.0 * x, b=lambda t, x: b + 0.0 * x)
    lookup = cli.catalog_lookup
    monkeypatch.setattr(
        cli, "catalog_lookup",
        lambda *args: dataclasses.replace(lookup(*args), coeffs=coeffs, bc_left=bc),
    )
    solution_csv = tmp_path / "solution.csv"
    cfg = write_config(
        tmp_path / "cfg.json", problem={"name": "linear_heat", "params": params}, grid=grid,
        decomposition="single_domain", output={"solution_csv": str(solution_csv)},
    )
    status = main(["run", str(cfg)])
    captured = capsys.readouterr()
    if case == "coupling":
        assert status == 0 and captured.err == ""
        with open(solution_csv) as fh:
            rows = csv.DictReader(fh)
            left = [row for row in rows if float(row["x"]) == 0.0 and float(row["t"]) > 0]
        assert len(left) == 10
        assert all(float(row[key]) == 1.0 / 3.0 for row in left for key in ("u_lower", "u_upper"))
    else:
        assert status == 3 and captured.out == ""
        assert captured.err.startswith("invalid config:") and captured.err.count("\n") == 1
        assert "non-finite solution at time step 6" in captured.err


def order_config(path, problem, grids=((16, 16), (32, 32))):
    cfg = write_config(path, problem=problem)
    raw = json.loads(cfg.read_text())
    del raw["grid"], raw["decomposition"]
    raw["grids"] = [{"nx": nx, "nt": nt} for nx, nt in grids]
    cfg.write_text(json.dumps(raw))
    return cfg


@pytest.mark.parametrize(
    "command,problem,mentions",
    [
        ("run", {**LOGISTIC, "params": {"lam": 1, "kappa": 0.5, "sigma": 1e200}}, "non-finite"),
        ("run", {"name": "linear_heat", "params": {"T": 1e-320}}, "non-finite grid"),
        ("order", {"name": "linear_heat", "params": {"T": 1e-320}}, "non-finite grid"),
        ("order", LOGISTIC, "no exact solution"),
    ],
)
def test_bad_config_stderr_is_one_line(tmp_path, command, problem, mentions):
    # In a fresh interpreter, where numpy's RuntimeWarnings would be
    # printed to stderr: the message is the only line there.
    if command == "order":
        cfg = order_config(tmp_path / "cfg.json", problem)
    else:
        cfg = write_config(tmp_path / "cfg.json", problem=problem)
    env = {**os.environ, "PYTHONPATH": str(Path(monodd.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "monodd.cli", command, str(cfg)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid config:") and mentions in lines[0]


def test_run_summary_names_slabs_and_level_solves(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "in 3 slabs (" in out and "level-solves per window), final gap" in out


def write_solution_rows(path, grid, solution):
    """The row-by-row csv.writer the solution writer must match byte for byte."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "u", "u_lower", "u_upper"])
        for k in range(grid.nt + 1):
            for i in range(grid.nx + 1):
                writer.writerow(
                    [
                        format(float(v), ".17g")
                        for v in (
                            grid.ts[k],
                            grid.xs[i],
                            solution.u[k, i],
                            solution.u_lower[k, i],
                            solution.u_upper[k, i],
                        )
                    ]
                )


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [2, 1], ids=["helper", "one CPU"])
@pytest.mark.parametrize("levels", [1, 2, 3, 6])
def test_solution_csv_bytes_match_row_writer(tmp_path, monkeypatch, levels, cpus):
    # With a helper formatting the odd levels (forked on any machine when
    # the CPU count reads 2) and with none, the file is the row writer's,
    # byte for byte, and no child process is left behind.  One level has
    # no odd level to hand out, so no helper is forked for it.
    forks = []
    fork_helper = cli._fork_helper
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "_fork_helper", lambda *args: forks.append(args) or fork_helper(*args))
    grid = build_grid(SpaceTimeDomain(-1.0, 2.0, 0.3), 6, 5).levels(0, levels - 1)
    rng = np.random.default_rng(4)
    fields = rng.standard_normal((3, levels, 7)) * 10.0 ** rng.integers(-300, 300, (3, levels, 7))
    fields[0, 0, :4] = (-0.0, 1e-300, np.nan, np.inf)
    fields[1, -1, 1:5] = (-np.inf, 0.0, 5e-324, -1.7976931348623157e308)
    fields[2, levels // 2, 6] = 0.1
    solution = SimpleNamespace(u=fields[0], u_lower=fields[1], u_upper=fields[2])
    _write_solution_csv(tmp_path / "fast.csv", grid, solution)
    assert_no_child_left()
    write_solution_rows(tmp_path / "rows.csv", grid, solution)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    assert len(forks) == (cpus > 1 and levels > 1)


def test_history_csv_bytes_match_row_writer(tmp_path):
    # %-formatted rows are csv.writer's, byte for byte: it quotes none of
    # these fields, non-finite and signed-zero values included.
    values = [1e-300, -0.0, np.nan, np.inf, -np.inf, 0.1, 5e-324, 2.5]
    history = SimpleNamespace(gap_lower_upper=values, max_update=values[::-1],
                              chain_violation=values[2:] + values[:2],
                              c_max=values[5:] + values[:5])
    cli._write_history_csv(tmp_path / "history.csv", history)
    with open(tmp_path / "rows.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sweep", "gap_lower_upper", "max_update", "chain_violation", "c_max"])
        for n, row in enumerate(zip(history.gap_lower_upper, history.max_update,
                                    history.chain_violation, history.c_max), 1):
            writer.writerow([n, *(format(float(v), ".17g") for v in row)])
    assert (tmp_path / "history.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_failed_helper_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    # Only the forked helper fails: the run exits 3 with one line, and the
    # helper has been reaped.
    parent, level_block = os.getpid(), cli._level_block

    def failing_in_helper(*args):
        if os.getpid() != parent:
            raise ValueError("formatting failed")
        return level_block(*args)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_level_block", failing_in_helper)
    cfg = write_config(tmp_path / "cfg.json", output={"solution_csv": str(tmp_path / "u.csv")})
    assert main(["run", str(cfg)]) == 3
    assert_no_child_left()
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("invalid config: cannot write output.solution_csv: the helper")


def test_helper_exiting_nonzero_after_its_blocks_exits_3(tmp_path, capsys, monkeypatch):
    # The helper sends every block and then exits 1: the parent reads a
    # whole file's worth from the pipe, so only the helper's wait status
    # tells it that the helper failed.
    parent, exit_now = os.getpid(), os._exit

    def failing_in_helper(status):
        exit_now(1 if os.getpid() != parent else status)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "_exit", failing_in_helper)
    cfg = write_config(tmp_path / "cfg.json", output={"solution_csv": str(tmp_path / "u.csv")})
    assert main(["run", str(cfg)]) == 3
    assert_no_child_left()
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(
        "invalid config: cannot write output.solution_csv: "
        "the helper formatting the odd time levels failed"
    )


def test_invalid_decomposition(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", decomposition={"i1_hi": 12, "i2_lo": 20})
    assert main(["run", str(cfg)]) == 3
    assert "i2_lo" in capsys.readouterr().err


def test_decomposition_exceeds_grid(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", decomposition={"i1_hi": 40, "i2_lo": 12})
    assert main(["run", str(cfg)]) == 3
    assert "i1_hi" in capsys.readouterr().err


def test_not_converged_exit(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", solver={"tol": 1e-12, "max_sweeps": 1})
    assert main(["run", str(cfg)]) == 2
    assert "NOT converged (max_sweeps on slab 0.." in capsys.readouterr().out


def test_unknown_problem(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", problem={"name": "nope", "params": {}})
    assert main(["run", str(cfg)]) == 3


def test_verify_catalog_defaults(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["verify", str(cfg)]) == 0


def test_verify_broken_supersolution(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    raw = json.loads(cfg.read_text())
    raw["problem"]["u_tilde_const"] = 0.1
    cfg.write_text(json.dumps(raw))
    assert main(["verify", str(cfg)]) == 4


def test_missing_config_file(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "absent.json")]) == 3
    assert "cannot read" in capsys.readouterr().err


SMALL_GRID_PROBLEMS = [
    {"name": "linear_heat", "params": {}},
    LOGISTIC,
    {"name": "manufactured_1", "params": {}},
]


def test_small_grids_exit_with_a_documented_code(tmp_path, capsys):
    # Every command on every catalog problem, on the smallest grids the
    # config accepts, ends with a documented exit code and no traceback:
    # run on one window and on two with the widest overlap, order on the
    # grid and its refinement.
    documented = {
        cli.EXIT_OK, cli.EXIT_NOT_CONVERGED, cli.EXIT_BAD_CONFIG, cli.EXIT_VERIFY_FAILED,
        cli.EXIT_CHAIN_VIOLATION,
    }
    failures = []
    for problem in SMALL_GRID_PROBLEMS:
        for nx in range(4, 9):
            for nt in (1, 3):
                grid = {"nx": nx, "nt": nt}
                cases = [
                    ("run", write_config(tmp_path / "one.json", problem=problem, grid=grid,
                                         decomposition="single_domain")),
                    ("run", write_config(tmp_path / "two.json", problem=problem, grid=grid,
                                         decomposition={"i1_hi": nx - 1, "i2_lo": 1})),
                    ("verify", tmp_path / "two.json"),
                    ("order", order_config(tmp_path / "order.json", problem,
                                           grids=((nx, nt), (2 * nx, 2 * nt)))),
                ]
                for command, cfg in cases:
                    try:
                        code = main([command, str(cfg)])
                    except Exception as exc:  # a traceback, exit 1, from the console
                        code = repr(exc)
                    err = capsys.readouterr().err
                    if code not in documented or "Traceback" in err:
                        failures.append((command, problem["name"], nx, nt, code))
    assert failures == []


def test_order_two_refinements(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        problem={"name": "manufactured_1", "params": {}},
        solver={"tol": 1e-8, "max_sweeps": 300},
    )
    raw = json.loads(cfg.read_text())
    del raw["grid"]
    del raw["decomposition"]
    raw["grids"] = [{"nx": 16, "nt": 16}, {"nx": 24, "nt": 24}, {"nx": 32, "nt": 32}]
    cfg.write_text(json.dumps(raw))
    assert main(["order", str(cfg)]) == 0
    out = capsys.readouterr().out.splitlines()
    idx = out.index("step,observed_order")
    assert len(out[idx + 1 :]) == 2


def test_order_single_grid(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json", problem={"name": "linear_heat", "params": {}}
    )
    raw = json.loads(cfg.read_text())
    del raw["grid"], raw["decomposition"]
    raw["grids"] = [{"nx": 16, "nt": 32}]
    cfg.write_text(json.dumps(raw))
    assert main(["order", str(cfg)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "step,observed_order"


def test_order_unconverged(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        problem={"name": "manufactured_1", "params": {}},
        solver={"tol": 1e-12, "max_sweeps": 1},
    )
    raw = json.loads(cfg.read_text())
    del raw["grid"], raw["decomposition"]
    raw["grids"] = [{"nx": 16, "nt": 16}, {"nx": 32, "nt": 32}]
    cfg.write_text(json.dumps(raw))
    assert main(["order", str(cfg)]) == 2


def test_order_undiscretizable_problem_exits_3(tmp_path, capsys):
    cfg = order_config(tmp_path / "cfg.json", {"name": "linear_heat", "params": {"T": 1e-320}})
    assert main(["order", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("invalid config:") and "non-finite" in err


def test_order_without_exact_solution_exits_3(tmp_path, capsys):
    cfg = order_config(tmp_path / "cfg.json", LOGISTIC)
    assert main(["order", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("invalid config:") and "no exact solution" in err


def test_identical_configs_identical_csv(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    cfg_a = write_config(
        tmp_path / "a.json", output={"solution_csv": str(out_a)}
    )
    cfg_b = write_config(
        tmp_path / "b.json", output={"solution_csv": str(out_b)}
    )
    assert main(["run", str(cfg_a)]) == 0
    assert main(["run", str(cfg_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
