"""Benchmark of monodd's time to a certified envelope, measured from outside.

    python3 benchmark/run.py --workload memory_dd --seed 0 --seconds 30 --trace 0

Runs one workload (memory_dd, kpp_dd or cli_single) for about --seconds
seconds.  One untimed child first certifies the inputs and, where needed,
solves the single-domain oracle; then fresh child interpreters, one at a
time, each make and check one solve.  With --trace 0 it reports the
end-to-end metrics (medians over the children), with --trace 1 the
per-layer metrics of the median traced child, whose untraced twins give the
tracing overhead.  Times are scaled to a reference host speed by a
calibration run between the children (see calibrate.py).  The last line of
standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# BLAS (OpenBLAS in numpy and in scipy) is pinned to one thread before numpy
# loads: in this process, which runs the calibration, and in the children,
# which inherit the environment.  monodd's BLAS calls are small; a second
# thread made memory_dd 2% slower and let the other vCPU's load into the
# solve time, where the calibration tracked it less well.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import calibrate  # noqa: E402
from tracer import LAYERS, PER_LAYER  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORKLOADS = ("memory_dd", "kpp_dd", "cli_single")
MIN_SOLVES = 3  # per kind of child, whatever --seconds says
CHILD_TIMEOUT_S = 150
END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("sweeps", "count"), ("peak_rss_mb", "MB"))


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # monodd comes from this checkout's src only
    return env


def source_id():
    """The git commit when this is a repository, and a digest of src/monodd."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "monodd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "none (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else ref
        commit = ref
    return commit, digest.hexdigest()[:16]


def run_child(mode, args, tmp, env, trace=0):
    """One child interpreter; returns its JSON record and wall seconds.
    A child that crashes or prints no record gives a failed record."""
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(CHILD), "--mode", mode, "--workload", args.workload,
        "--seed", str(args.seed), "--trace", str(trace),
        "--spawned-at", repr(spawned_at), "--tmp", str(tmp),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "failures": [f"child timed out after {CHILD_TIMEOUT_S} s"]}, CHILD_TIMEOUT_S
    wall = time.monotonic() - spawned_at
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        record = None
    if not isinstance(record, dict):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        record = {"ok": False, "failures": [f"child exited {proc.returncode}: {tail}"]}
    return record, wall


def measure(args, tmp, env):
    """Spawn children until the next would overrun --seconds (at least
    MIN_SOLVES of each kind).  Trace runs alternate untraced and traced.
    A host-speed calibration runs before the first child and after each
    one.  A child's cal_s are the two calibrations on either side of it
    and the next one out on each side: one calibration is too short to
    average out the host's faster swings."""
    kinds = (0, 1) if args.trace else (0,)
    records = {kind: [] for kind in kinds}
    in_order, walls = [], []
    calibrate.warm_up()
    cals = [calibrate.calibration_s()]
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        enough = all(len(r) >= MIN_SOLVES for r in records.values())
        if enough and walls and elapsed + len(kinds) * statistics.median(walls) > args.seconds:
            break
        for kind in kinds:
            record, wall = run_child("solve", args, tmp, env, trace=kind)
            cals.append(calibrate.calibration_s())
            records[kind].append(record)
            in_order.append(record)
            walls.append(wall + cals[-1])
    for n, record in enumerate(in_order):  # child n ran between cals[n] and cals[n + 1]
        record["cal_s"] = cals[max(n - 1, 0):n + 3]
    return records


def median_of(records, key):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else None


def host_scaled(record):
    """The record with setup_s and solve_s at the reference host speed, which
    is REFERENCE_S over the mean of the child's calibration times.  The
    measured times stay under raw_setup_s and raw_solve_s."""
    if "solve_s" not in record:
        return record
    speed = calibrate.REFERENCE_S / statistics.fmean(record["cal_s"])
    return dict(
        record,
        raw_setup_s=record["setup_s"],
        raw_solve_s=record["solve_s"],
        host_speed=speed,
        setup_s=record["setup_s"] * speed,
        solve_s=record["solve_s"] * speed,
    )


def end_to_end(records):
    """Medians over the untraced children, printed with their range."""
    solves = [host_scaled(r) for r in records[0]]
    print(f"{len(solves)} solves; medians (min, max):")
    metrics = {}
    for name, unit in END_TO_END:
        samples = sorted(r[name] for r in solves if name in r)
        metrics[name] = (median_of(solves, name), unit)
        if samples:
            print(f"  {name:12s} {metrics[name][0]} {unit} ({samples[0]}, {samples[-1]})")
    speeds = sorted(r["host_speed"] for r in solves if "host_speed" in r)
    if speeds:
        print(f"  measured before scaling: setup {median_of(solves, 'raw_setup_s')} s, "
              f"solve {median_of(solves, 'raw_solve_s')} s; host speed "
              f"{statistics.median(speeds):.3f} of the reference ({speeds[0]:.3f}, {speeds[-1]:.3f})")
    return metrics


def per_layer(records):
    """Metrics of the traced child with the median traced solve time (at the
    reference host speed).  Its spans and trace.solve_s are as measured;
    trace.overhead_s compares that solve with the median untraced one
    brought to the same host speed."""
    traced = sorted(
        (host_scaled(r) for r in records[1] if "layers" in r),
        key=lambda r: r["solve_s"],
    )
    untraced = median_of([host_scaled(r) for r in records[0]], "solve_s")
    if not traced or untraced is None:
        return {name: (None, unit) for name, unit, _ in PER_LAYER}
    chosen = traced[(len(traced) - 1) // 2]
    untraced /= chosen["host_speed"]
    values = dict(chosen["layers"], **{
        "trace.solve_s": chosen["raw_solve_s"],
        "trace.overhead_s": chosen["raw_solve_s"] - untraced,
    })
    print(f"{len(traced)} traced and {len(records[0])} untraced solves; the median traced one:")
    for name, unit, _ in PER_LAYER:
        mark = "  (absent: not found or never called)" if name in chosen["absent"] else ""
        print(f"  {name:46s} {values.get(name)!s:>24} {unit}{mark}")
    layer_sum = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    print(f"layer self times sum to {layer_sum:.4f} s = traced solve {chosen['raw_solve_s']:.4f} s; "
          f"untraced solve at its host speed {untraced:.4f} s + trace.overhead_s "
          f"{values['trace.overhead_s']:.4f} s")
    return {name: (values.get(name), unit) for name, unit, _ in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "monodd" / "__init__.py").is_file():
        print(f"error: no monodd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env()
    commit, src_digest = source_id()
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        prep, _ = run_child("prepare", args, tmp, env)
        records = measure(args, tmp, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass

    environment = {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
                   "commit": commit, "src_sha256": src_digest, **prep.get("env", {})}
    print("environment " + " ".join(f"{k}={v}" for k, v in environment.items()))
    print(f"workload {args.workload} seed {args.seed}")
    everything = [r for kind in records.values() for r in kind]
    for failure in prep["failures"]:
        print(f"FAILED input check: {failure}")
    for n, record in enumerate(everything):
        for failure in record["failures"]:
            print(f"FAILED solve {n}: {failure}")
    diagnostics = next((r["diagnostics"] for r in everything if "diagnostics" in r), {})
    for name, value in diagnostics.items():
        print(f"diagnostic {name} = {value:.3e}")

    metrics = per_layer(records) if args.trace else end_to_end(records)
    missing = [name for name, (value, _) in metrics.items() if value is None]
    if missing:
        print(f"error: no measurement for {', '.join(missing)}", file=sys.stderr)
    failed = sum(not r["ok"] for r in everything)
    print(json.dumps({
        "correct": prep["ok"] and failed == 0 and not missing,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if value is not None},
    }))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
