"""A fixed reference computation that gauges how fast the host runs right now.

The benchmark's machine is a few vCPUs of a shared host whose speed drifts
by tens of percent over seconds to minutes as other tenants load it.  The
benchmark times `calibration_s` before its first child and after each one,
and scales a child's times by REFERENCE_S over the mean of the four
calibrations nearest it, which cancels the drift they share.  It runs in
the benchmark's own process, so it adds nothing to a child's time or
memory.  The work uses numpy and LAPACK the way monodd does, but no monodd
code, so a change to monodd cannot move it.

    python3 benchmark/calibrate.py      # print a few calibration times
"""
from __future__ import annotations

import time

import numpy as np
from scipy.linalg import lapack

# About the calibration time on the reference machine (2 vCPUs of an Intel
# Xeon KVM guest, Python 3.11, numpy 2.4, OpenBLAS 0.3.31 at 1 thread),
# where it reads 0.45 to 0.56 s.  Scaled times are in seconds at that speed.
REFERENCE_S = 0.5
REPEATS = 3


def reference_work(nx=128, nt=160, p=8):
    """One pass of solver-shaped work: a trapezoid memory quadrature over a
    growing history, a sampled supremum over 4-d broadcasts of up to 10 MB
    each, and a time march of small vector updates with one tridiagonal
    solve per step."""
    xs = np.linspace(0.0, 1.0, nx + 1)
    ts = np.linspace(0.0, 1.0, nt + 1)
    dx, dt = xs[1], ts[1]
    u = np.outer(np.exp(-ts), np.sin(np.pi * xs))
    theta = np.linspace(0.0, 1.0, p)
    acc = 0.0
    for k in range(1, nt + 1):
        w = np.full(k + 1, dt)
        w[0] = w[-1] = 0.5 * dt
        vals = np.exp(-(ts[k] - ts[: k + 1, None])) * np.cos(u[: k + 1]) * xs[None, :]
        acc += float((w @ vals)[nx // 2])
        if k % 8 == 0:
            e1 = (u[k] + theta[:, None])[None, :, None, :]
            e2 = (u[: k + 1, None, :] + theta[None, :, None])[:, None, :, :]
            acc += float(np.max(-np.exp(-e1 * e2), axis=(1, 2)).sum())
    for k in range(nt):
        a = 0.05 + 0.05 * xs + 0.01 * np.sin(ts[k] * xs)
        off = -a[1:] / dx**2
        diag = 1.0 / dt + 2.0 * a / dx**2
        rhs = u[k] / dt + np.maximum(u[k], 0.0)
        sol = lapack.dgtsv(off, diag, off.copy(), rhs)[3]
        acc += float(sol[nx // 2])
    return acc


def calibration_s():
    """Seconds that REPEATS passes of the reference work take now."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        reference_work()
    return time.perf_counter() - start


def warm_up():
    """First calls pay for lazy set-up in numpy, LAPACK and the allocator;
    keep one pass untimed."""
    reference_work()


if __name__ == "__main__":
    warm_up()
    print(" ".join(f"{calibration_s():.4f}" for _ in range(8)))
