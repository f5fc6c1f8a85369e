"""Cost of writing solution.csv: milliseconds per write, on one CPU and on
every CPU this process may use.

The benchmark's cli_single configuration (logistic_memory, lambda 1,
kappa 0.5, sigma 0.5, 512x64, single domain, tol 1e-8) is solved once.
Its solution.csv is then written ROUNDS times in alternating rounds: first
with this process pinned to one CPU, where the writer formats every level
itself, then with every CPU, where a forked helper formats the odd levels.
Pinning uses os.sched_setaffinity(0, ...), which acts on this process only.
The table shows the median and the range of each, and the two files are
checked to be byte-equal.

    python demos/csv_write_cost.py
"""
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from monodd import build_grid, catalog_lookup, run_single_domain
from monodd.cli import _usable_cpus, _write_solution_csv

ROUNDS = 15


def timed_write(path, grid, solution):
    start = time.perf_counter()
    _write_solution_csv(path, grid, solution)
    return 1e3 * (time.perf_counter() - start)


def main():
    if not hasattr(os, "sched_setaffinity"):
        sys.exit("os.sched_setaffinity is not available here: the writer cannot be pinned")
    every = os.sched_getaffinity(0)
    if len(every) < 2:
        sys.exit(f"this process may run on {len(every)} CPU: there is no second CPU to compare")
    spec = catalog_lookup("logistic_memory", {"lam": 1.0, "kappa": 0.5, "sigma": 0.5})
    grid = build_grid(spec.domain, 512, 64)
    solution, _ = run_single_domain(spec, grid, 1e-8, 200)
    times = {"one CPU": [], f"{len(every)} CPUs": []}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {label: Path(tmp) / f"{n}.csv" for n, label in enumerate(times)}
        for _ in range(ROUNDS):
            for label, cpus in zip(times, ({min(every)}, every)):
                os.sched_setaffinity(0, cpus)
                assert _usable_cpus() == len(cpus)
                times[label].append(timed_write(paths[label], grid, solution))
        os.sched_setaffinity(0, every)
        same = len({path.read_bytes() for path in paths.values()}) == 1
        size = paths["one CPU"].stat().st_size
    print(f"solution.csv of {grid.nt + 1} levels x {grid.nx + 1} nodes, {size} bytes, {ROUNDS} rounds")
    print("writer        median ms   min ms   max ms")
    for label, ms in times.items():
        print(f"{label:12s} {statistics.median(ms):10.1f} {min(ms):8.1f} {max(ms):8.1f}")
    print(f"files byte-equal: {same}")
    if not same:
        sys.exit(1)


if __name__ == "__main__":
    main()
