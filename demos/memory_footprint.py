"""Memory footprint of a decomposed Fisher-KPP run as the grid grows.

For each n, one n x n run_dd of the benchmark's kpp_dd problem (lambda 8,
advection 0.5, amplitude 0.5, tol 1e-8) in a fresh interpreter reports
the tracemalloc peak of the solve in strip fields, one strip field being
(nt+1)(nx+1) doubles, and in a second fresh interpreter, without
tracemalloc, the process's high-water RSS (VmHWM, Linux) and the solve
time.  VmHWM includes the interpreter, numpy and scipy's LAPACK
extension, about 30 MB.

    python demos/memory_footprint.py            # 256, 512 and 1024
    python demos/memory_footprint.py 128 256    # other sizes
"""
import json
import subprocess
import sys
import time
import tracemalloc

import numpy as np

from monodd import (
    BoundaryCondition,
    Bracket,
    EllipticCoefficients,
    ProblemSpec,
    Reaction,
    SpaceTimeDomain,
    VolterraKernel,
    build_grid,
    default_decomposition,
    run_dd,
)

SIZES = (256, 512, 1024)


def kpp(lam=8.0, b=0.5, amp=0.5):
    return ProblemSpec(
        domain=SpaceTimeDomain(0.0, 1.0, 1.0),
        coeffs=EllipticCoefficients(a=lambda t, x: 0.05 + 0.05 * x, b=lambda t, x: b + 0.0 * x),
        reaction=Reaction(
            f=lambda t, x, u: lam * u * (1.0 - u),
            f_u=lambda t, x, u: lam * (1.0 - 2.0 * u),
        ),
        kernel=VolterraKernel.zero(),
        bc_left=BoundaryCondition(alpha0=lambda t: 1.0, beta0=lambda t: 1.0, h=lambda t: 0.0),
        bc_right=BoundaryCondition(alpha0=lambda t: 0.0, beta0=lambda t: 1.0, h=lambda t: 0.0),
        u0=lambda x: amp * np.sin(np.pi * x),
        bracket=Bracket(u_hat=lambda t, x: 0.0 * x, u_tilde=lambda t, x: 1.0 + 0.0 * x),
    )


def vmhwm_mb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def measure(n, traced):
    """One n x n solve in this process: its tracemalloc peak in bytes, or
    its VmHWM and solve time."""
    spec = kpp()
    grid = build_grid(spec.domain, n, n)
    decomp = default_decomposition(n)
    if traced:
        tracemalloc.start()
        run_dd(spec, grid, decomp, 1e-8, 200)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return {"peak_bytes": peak}
    start = time.perf_counter()
    sol, _ = run_dd(spec, grid, decomp, 1e-8, 200)
    return {"solve_s": time.perf_counter() - start, "vmhwm_mb": vmhwm_mb(), "converged": sol.converged}


def child(n, traced):
    out = subprocess.run(
        [sys.executable, __file__, "--one", str(n), "traced" if traced else "rss"],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def main(argv):
    if argv[:1] == ["--one"]:
        print(json.dumps(measure(int(argv[1]), argv[2] == "traced")))
        return
    sizes = [int(a) for a in argv] or SIZES
    print("    n   strip field   tracemalloc peak          VmHWM     solve")
    for n in sizes:
        field = (n + 1) * (n + 1) * 8
        traced, rss = child(n, True), child(n, False)
        peak = traced["peak_bytes"]
        print(
            f"{n:5d}   {field / 2**20:8.2f} MB   {peak / 2**20:7.1f} MB = {peak / field:5.1f} fields"
            f"   {rss['vmhwm_mb']:7.1f} MB   {rss['solve_s']:6.2f} s"
            + ("" if rss["converged"] else "   (not converged)")
        )


if __name__ == "__main__":
    main(sys.argv[1:])
