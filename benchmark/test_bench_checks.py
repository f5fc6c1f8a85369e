"""Self-test of the benchmark's checker and tracer.

    python3 -m pytest benchmark -q

Every corrupted result must be flagged, and a correct one must pass.
"""
from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np
import pytest

from child import HERE, import_monodd

monodd = import_monodd()
import checks  # noqa: E402  (needs monodd on the path)
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TOL = workloads.TOL


def small_dd(max_sweeps=200, spec=None):
    spec = spec or monodd.catalog_lookup("manufactured_1")
    grid = monodd.build_grid(spec.domain, 16, 16)
    return monodd.run_dd(
        spec, grid, monodd.Decomposition(i1_hi=10, i2_lo=6), TOL, max_sweeps,
        abort_on_chain_violation=True,
    )


@pytest.fixture(scope="module")
def good():
    env = checks.from_library(*small_dd())
    assert np.max(env.u_upper - env.u_lower) > checks.ORDER_SLACK  # swapping is visible
    return env


def test_correct_result_passes(good):
    assert checks.envelope_failures(good, TOL, {"u_ref": good.u.copy()}) == []


def test_shift_by_ten_tol_is_flagged(good):
    shifted = dataclasses.replace(good, u_lower=good.u_lower + 10 * TOL, u_upper=good.u_upper + 10 * TOL)
    failures = checks.envelope_failures(shifted, TOL, {"u_ref": good.u.copy()})
    assert any("u_ref" in f for f in failures)


def test_swapped_envelope_is_flagged(good):
    swapped = dataclasses.replace(good, u_lower=good.u_upper, u_upper=good.u_lower)
    failures = checks.envelope_failures(swapped, TOL, {"u_ref": good.u.copy()})
    assert any("out of order" in f for f in failures)


def test_non_converged_result_is_flagged():
    env = checks.from_library(*small_dd(max_sweeps=3))
    assert not env.converged
    failures = checks.envelope_failures(env, TOL, {})
    assert "not converged" in failures


def test_monotone_chain_error_is_flagged():
    # A supersolution below the solution's peak of 1.0 breaks the chain.
    spec = monodd.catalog_lookup("manufactured_1")
    low = dataclasses.replace(
        spec, bracket=monodd.Bracket(u_hat=spec.bracket.u_hat, u_tilde=lambda t, x: 0.5 + 0.0 * x)
    )
    result, failures = checks.attempt(lambda: small_dd(spec=low))
    assert result is None
    assert any("MonotoneChainError" in f for f in failures)


def test_cli_output_round_trip_and_exit_code(tmp_path):
    wl = dataclasses.replace(workloads.build("cli_single"), nx=16, nt=8)
    sol_csv, hist_csv, config = tmp_path / "s.csv", tmp_path / "h.csv", tmp_path / "c.json"
    config.write_text(json.dumps(wl.cli_config(str(sol_csv), str(hist_csv))))
    import monodd.cli

    code = monodd.cli.main(["run", str(config)])
    assert code == 0
    env = checks.from_csv(sol_csv, hist_csv, code, wl.nx, wl.nt)
    spec = wl.spec()
    ref, _ = monodd.run_single_domain(spec, monodd.build_grid(spec.domain, 16, 8), TOL, 200)
    assert checks.envelope_failures(env, TOL, {"oracle": ref.u}) == []
    aborted = checks.from_csv(sol_csv, hist_csv, 5, wl.nx, wl.nt)
    assert "not converged" in checks.envelope_failures(aborted, TOL, {})
    with pytest.raises(ValueError):
        checks.from_csv(sol_csv, hist_csv, code, wl.nx + 1, wl.nt)


@pytest.fixture
def installed(monkeypatch):
    """A tracer wrapped into monodd, plus a target that does not exist;
    the wrappers are removed afterwards."""
    monkeypatch.setattr(
        tracer, "TARGETS", tracer.TARGETS + (("verify.gone", "monodd.verify", "no_such_function"),)
    )
    t = tracer.Tracer()
    t.install()
    yield t
    for key, module in list(sys.modules.items()):
        if key == "monodd" or key.startswith("monodd."):
            for attr, value in list(vars(module).items()):
                if hasattr(value, "__wrapped__"):
                    setattr(module, attr, value.__wrapped__)


def test_missing_or_uncalled_targets_are_absent(installed):
    values, absent = tracer.layer_metrics(installed)
    assert values["volterra.eval_g_row.calls"] == 0
    assert "volterra.eval_g_row.s" in absent and "cli.csv_bytes" in absent


def test_layer_self_times_partition_the_traced_solve(installed):
    spec = installed.count_spec(monodd.catalog_lookup("manufactured_1"))
    small_dd(spec=spec)
    values, absent = tracer.layer_metrics(installed)
    root = next(end - start for name, start, end, parent in installed.spans if parent < 0)
    layer_sum = sum(values[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layer_sum == pytest.approx(root, rel=1e-9)
    assert values["iteration.dd_sweep.calls"] == values["verify.chain_min_margin.calls"] > 0
    assert values["discretization.rows_solved"] > 0 and values["model.g0_points"] > 0
    assert "cli.self_s" in absent and "iteration.self_s" not in absent


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)


def test_seeds_perturb_only_parameters():
    assert workloads.build("kpp_dd", 0).is_default
    moved = workloads.build("kpp_dd", 7)
    assert not moved.is_default and moved.oracle_check
    for key, value in moved.params.items():
        assert abs(value / moved.default_params[key] - 1.0) <= workloads.PERTURBATION
    assert workloads.build("memory_dd", 7).is_default
    assert workloads.build("kpp_dd", 7) == moved


def test_host_scaling_cancels_a_uniform_slowdown():
    ref = run.calibrate.REFERENCE_S
    record = {"setup_s": 0.5, "solve_s": 2.0, "cal_s": [ref, ref, ref]}
    slow = dict(record, setup_s=1.0, solve_s=4.0, cal_s=[1.5 * ref, 2.5 * ref, 2 * ref])
    for name in ("setup_s", "solve_s"):
        assert run.host_scaled(slow)[name] == pytest.approx(record[name])
        assert run.host_scaled(record)[name] == record[name]
    assert run.host_scaled(slow)["raw_solve_s"] == 4.0
    assert run.host_scaled({"ok": False}) == {"ok": False}
