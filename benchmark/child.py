"""One benchmark operation in a fresh interpreter, as a user's `monodd run` is.

    python3 benchmark/child.py --mode solve --workload kpp_dd --seed 0 \
        --trace 0 --spawned-at <time.monotonic() of the parent> --tmp <dir>

--mode prepare runs once per benchmark run, untimed: it records the
environment, certifies the workload's bracket and, where the checks need it,
solves the single-domain oracle into <tmp>/oracle.npy.  --mode solve times
one solver call and checks its output.  Either prints one JSON line last.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_monodd():
    sys.path.insert(0, str(SRC))
    import monodd

    if Path(monodd.__file__).resolve().parent != SRC / "monodd":
        raise ImportError(f"monodd resolved to {monodd.__file__}, not under {SRC}")
    return monodd


def peak_rss_mb():
    """The high-water RSS of this process's own memory (VmHWM).  ru_maxrss
    would not do: Linux carries the spawning parent's peak RSS into it
    across exec, so the benchmark process's own memory would show."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def environment():
    import numpy as np
    import scipy

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
    }


def prepare(monodd, wl, tmp):
    """Untimed checks of the inputs, and the oracle the solve checks need."""
    import numpy as np

    spec = wl.spec()
    grid = monodd.build_grid(spec.domain, wl.nx, wl.nt)
    failures = []
    for kind, candidate in (("sub", spec.bracket.u_hat), ("super", spec.bracket.u_tilde)):
        report = monodd.check_bracket(spec, grid, candidate, kind)
        if not report.passed:
            failures.append(f"bracket {kind}solution not certified: {report}")
    if wl.oracle_check:
        import checks
        import workloads

        sol, hist = monodd.run_single_domain(spec, grid, workloads.TOL, workloads.MAX_SWEEPS)
        oracle_failures = checks.envelope_failures(checks.from_library(sol, hist), workloads.TOL, {})
        failures += [f"oracle: {f}" for f in oracle_failures]
        np.save(Path(tmp) / "oracle.npy", sol.u)
    return {"ok": not failures, "failures": failures, "env": environment()}


def solve(monodd, wl, tmp, spawned_at, trace):
    import numpy as np

    import checks
    import workloads

    spec = grid = None
    if wl.through_cli:  # the CLI builds the problem and grid inside the timed call
        import monodd.cli
    else:
        spec = wl.spec()
        grid = monodd.build_grid(spec.domain, wl.nx, wl.nt)
    tracer = None
    if trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        if wl.through_cli:
            tracer.count_catalog()
        else:
            spec = tracer.count_spec(spec)

    if wl.through_cli:
        solution_csv, history_csv = Path(tmp) / "solution.csv", Path(tmp) / "history.csv"
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(wl.cli_config(str(solution_csv), str(history_csv))))
        argv = ["--audit-mmatrix", "run", str(config)]

        def call():
            return monodd.cli.main(argv)

    else:
        run_dd, decomposition = monodd.iteration.run_dd, wl.decomposition()

        def call():
            return run_dd(
                spec, grid, decomposition, workloads.TOL, workloads.MAX_SWEEPS,
                abort_on_chain_violation=True,
            )

    setup_s = time.monotonic() - spawned_at
    start = time.perf_counter()
    result, failures = checks.attempt(call)
    solve_s = time.perf_counter() - start

    out = {"setup_s": setup_s, "solve_s": solve_s, "peak_rss_mb": peak_rss_mb()}
    env = None
    csv_bytes = None
    if not failures:
        if wl.through_cli:
            if result != 0:
                failures.append(f"monodd run exited {result}")
            else:
                try:
                    csv_bytes = solution_csv.stat().st_size + history_csv.stat().st_size
                    env = checks.from_csv(solution_csv, history_csv, result, wl.nx, wl.nt)
                except (OSError, ValueError) as exc:
                    failures.append(f"unreadable CLI output: {exc}")
        else:
            env = checks.from_library(*result)
    if env is not None:
        spec_plain = wl.spec()  # uncounted, for the checks
        if grid is None:
            grid = monodd.build_grid(spec_plain.domain, wl.nx, wl.nt)
        refs = {}
        if wl.is_default:
            refs["u_ref"] = np.load(HERE / "refs" / f"{wl.name}.npy")
        if wl.oracle_check:
            refs["oracle"] = np.load(Path(tmp) / "oracle.npy")
        failures += checks.envelope_failures(env, workloads.TOL, refs)
        if spec_plain.exact is not None:
            exact = monodd.sample_field(spec_plain.exact, grid)
            err = float(np.max(np.abs(env.u - exact)))
            if not err <= workloads.EXACT_ERR_BOUND:
                failures.append(f"max |u - exact| = {err:.3e} > {workloads.EXACT_ERR_BOUND}")
        out["sweeps"] = env.sweeps
        out["diagnostics"] = checks.diagnostics(env, spec_plain, grid)
    if tracer is not None:
        out["layers"], out["absent"] = layer_metrics(tracer, csv_bytes)
        out["layers"].update(out.get("diagnostics", {}))
    out["ok"] = not failures
    out["failures"] = failures
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("prepare", "solve"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args(argv)

    monodd = import_monodd()
    import workloads

    wl = workloads.build(args.workload, args.seed)
    if args.mode == "prepare":
        out = prepare(monodd, wl, args.tmp)
    else:
        out = solve(monodd, wl, args.tmp, args.spawned_at, args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
