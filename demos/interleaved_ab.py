"""Paired solve times of two monodd source trees on one benchmark
configuration, in one process.

Both trees are loaded in this process, each under a module name of its
own: monodd imports only relatively, so a tree's package loads under any
name.  Round after round, each tree solves the configuration once, the
order swapped every round so that neither always goes first.  A drift of
the host's speed then moves both solves of a round alike, which solves in
separate processes do not give.  It prints the median over the rounds of
the change/base time ratio with its ~95% sign-test interval (the order
statistics of binomial(n, 1/2) that hold the median with probability
>= 0.95), then, per tree, the median solve time, the sweeps and the
level-solves, and the largest difference between the two trees'
envelopes.  BLAS runs on one thread, as in the benchmark.

The configurations are the benchmark's at seed 0, solved through the
library: memory_dd (manufactured_1, 128x256) and kpp_dd (KPP lambda 8,
advection 0.5, amplitude 0.5, 256x256) by run_dd on the benchmark's
decomposition, and cli_single (logistic_memory, 512x64) by
run_single_domain, as `monodd run` solves it, without the CSV output.

    python demos/interleaved_ab.py --base <other checkout>/src --change src --workload kpp_dd
    python demos/interleaved_ab.py --base A/src --change B/src --workload memory_dd --rounds 200
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

TOL = 1e-8
MAX_SWEEPS = 200
LOGISTIC = {"lam": 1.0, "kappa": 0.5, "sigma": 0.5}
WORKLOADS = ("memory_dd", "kpp_dd", "cli_single")


def load(src, name):
    """The monodd package of the source directory src, as module name."""
    init = Path(src).resolve() / "monodd" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def kpp(monodd, lam=8.0, b=0.5, amp=0.5):
    """The benchmark's memory-free Fisher-KPP problem, from monodd's types."""
    bc = monodd.BoundaryCondition
    return monodd.ProblemSpec(
        domain=monodd.SpaceTimeDomain(0.0, 1.0, 1.0),
        coeffs=monodd.EllipticCoefficients(a=lambda t, x: 0.05 + 0.05 * x,
                                           b=lambda t, x: b + 0.0 * x),
        reaction=monodd.Reaction(f=lambda t, x, u: lam * u * (1.0 - u),
                                 f_u=lambda t, x, u: lam * (1.0 - 2.0 * u)),
        kernel=monodd.VolterraKernel.zero(),
        bc_left=bc(alpha0=lambda t: 1.0, beta0=lambda t: 1.0, h=lambda t: 0.0),
        bc_right=bc(alpha0=lambda t: 0.0, beta0=lambda t: 1.0, h=lambda t: 0.0),
        u0=lambda x: amp * np.sin(np.pi * x),
        bracket=monodd.Bracket(u_hat=lambda t, x: 0.0 * x, u_tilde=lambda t, x: 1.0 + 0.0 * x),
    )


def solver(monodd, workload):
    """A callable that solves workload with monodd, returning (solution, history)."""
    if workload == "cli_single":
        spec = monodd.catalog_lookup("logistic_memory", dict(LOGISTIC))
        grid = monodd.build_grid(spec.domain, 512, 64)
        return lambda: monodd.run_single_domain(spec, grid, TOL, MAX_SWEEPS,
                                                abort_on_chain_violation=True)
    if workload == "memory_dd":
        spec, nx, nt = monodd.catalog_lookup("manufactured_1"), 128, 256
    else:
        spec, nx, nt = kpp(monodd), 256, 256
    grid = monodd.build_grid(spec.domain, nx, nt)
    decomposition = monodd.Decomposition(i1_hi=5 * nx // 8, i2_lo=3 * nx // 8)
    return lambda: monodd.run_dd(spec, grid, decomposition, TOL, MAX_SWEEPS,
                                 abort_on_chain_violation=True)


def timed(solve):
    gc.collect()
    start = time.perf_counter()
    result = solve()
    return time.perf_counter() - start, result


def sign_test_interval(values, level=0.95):
    """(low, high) order statistics of values that hold their median with
    probability >= level, by the sign test; the whole range when there are
    too few values for that."""
    ordered, n = sorted(values), len(values)
    tail, k = 0.0, 0
    while True:  # the largest k with P(Binomial(n, 1/2) < k) <= (1 - level) / 2
        tail += math.comb(n, k) / 2.0**n
        if tail > (1.0 - level) / 2.0 or k >= n // 2:
            break
        k += 1
    k = max(k, 1)
    return ordered[k - 1], ordered[n - k]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="source directory of the base tree")
    parser.add_argument("--change", required=True, help="source directory of the changed tree")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--rounds", type=int, default=60)
    parser.add_argument("--warmup", type=int, default=3, help="untimed rounds first")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    trees = {name: solver(load(src, f"monodd_{name}"), args.workload)
             for name, src in (("base", args.base), ("change", args.change))}
    results = {}
    for name, solve in trees.items():
        results[name] = solve()
        for _ in range(args.warmup):
            solve()
    times = {name: [] for name in trees}
    for r in range(args.rounds):
        for name in (("base", "change") if r % 2 == 0 else ("change", "base")):
            seconds, _ = timed(trees[name])
            times[name].append(seconds)

    ratios = [c / b for b, c in zip(times["base"], times["change"])]
    low, high = sign_test_interval(ratios)
    print(f"{args.workload}: {args.rounds} rounds, change/base median ratio "
          f"{statistics.median(ratios):.3f} [{low:.3f}, {high:.3f}]")
    for name in trees:
        solution, history = results[name]
        print(f"  {name:6s} median {1e3 * statistics.median(times[name]):7.1f} ms, "
              f"sweeps {solution.sweeps_used}, level-solves {history.level_solves}, "
              f"converged {solution.converged}")
    envelopes = [np.stack((s.u_lower, s.u_upper)) for s, _ in results.values()]
    print(f"  largest envelope difference {float(np.max(np.abs(envelopes[1] - envelopes[0]))):.3g}")


if __name__ == "__main__":
    main()
