"""Write the stored reference midpoints refs/<workload>.npy from seed 0.

    python3 benchmark/make_refs.py

Run it only at a commit whose envelopes are known good: the benchmark
checks every later solve at the seed inputs against these fields.
"""
from __future__ import annotations

import numpy as np

from child import HERE, import_monodd

monodd = import_monodd()
import workloads  # noqa: E402  (needs monodd on the path)


def main():
    for name in workloads.NAMES:
        wl = workloads.build(name)
        spec = wl.spec()
        grid = monodd.build_grid(spec.domain, wl.nx, wl.nt)
        if wl.through_cli:  # the CLI runs the undecomposed solver
            sol, _ = monodd.run_single_domain(
                spec, grid, workloads.TOL, workloads.MAX_SWEEPS, abort_on_chain_violation=True
            )
        else:
            sol, _ = monodd.run_dd(
                spec, grid, wl.decomposition(), workloads.TOL, workloads.MAX_SWEEPS,
                abort_on_chain_violation=True,
            )
        if not sol.converged:
            raise SystemExit(f"{name}: did not converge")
        path = HERE / "refs" / f"{name}.npy"
        np.save(path, sol.u)
        print(f"{name}: {sol.sweeps_used} sweeps -> {path.name}")


if __name__ == "__main__":
    main()
