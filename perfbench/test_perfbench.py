"""Tests of the benchmark itself: metric coverage, the layer counts each
workload must show, failure accounting, the oracle, and loud failure.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calibration  # noqa: E402
import nlds.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from nlds.assembly import assemble_operator  # noqa: E402


def make_job(name, directory, seed=0):
    """A job on the first config variant only, which keeps the dense
    oracle cheap."""
    wl = workloads.build(name, seed)
    wl = dataclasses.replace(wl, variants=wl.variants[:1])
    return run.Job(nlds.cli, wl, wl.oracle(), directory)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced job of each workload:
    name -> (tracer, job wall, failed invocations, job)."""
    out = {}
    for name in workloads.WORKLOADS:
        job = make_job(name, tmp_path_factory.mktemp(name))
        tracer = tracing.Tracer(nodal_max_order=workloads.SPECIES)
        wall, failed = job(0, tracer)
        out[name] = (tracer, wall, failed, job)
    return out


def test_every_workload_is_correct(traced):
    for name, (_, _, failed, job) in traced.items():
        assert failed == 0, (name, job.failures)


def test_every_metric_is_emitted_with_its_unit(traced):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer, wall, failed, _ = traced["r0-vsi"]
    walls = [wall] * run.MIN_JOBS
    e2e = run.to_metrics(run.end_to_end(walls, 2, failed, [0.3]),
                         run.declared_metrics(0))
    assert {n: m["unit"] for n, m in e2e.items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = run.to_metrics(
        run.layer_metrics(tracer, run.declared_metrics(1), walls, walls),
        run.declared_metrics(1))
    assert {n: m["unit"] for n, m in layers.items()} == \
        {m["name"]: m["unit"] for m in spec["per_layer"]}


def median(traced, name, metric):
    return traced[name][0].medians([metric])[metric]


def test_nodal_bounds_run_on_study_and_certify_only(traced):
    assert median(traced, "study", "matspec.nodal_bound_calls") > 0
    assert median(traced, "certify", "matspec.nodal_bound_calls") > 0
    assert median(traced, "r0-vsi", "matspec.nodal_bound_calls") == 0


def test_sample_params_runs_on_r0_vsi_only(traced):
    assert median(traced, "r0-vsi", "epidemic.sample_params_calls") > 0
    assert median(traced, "certify", "epidemic.sample_params_calls") == 0
    assert median(traced, "study", "epidemic.sample_params_calls") == 0


def test_solver_converges_everywhere(traced):
    for name in workloads.WORKLOADS:
        assert median(traced, name, "opspec.nonconverged") == 0


def test_corrupted_answer_counts_as_failure(tmp_path, monkeypatch):
    real = nlds.cli.compute_r0_report

    def corrupted(*args, **kwargs):
        rep = real(*args, **kwargs)
        return dataclasses.replace(rep, r0=rep.r0 + 1e-3)

    monkeypatch.setattr(nlds.cli, "compute_r0_report", corrupted)
    job = make_job("r0-vsi", tmp_path)
    [(wall, failed)] = run.closed_loop(job, 0.0, 1)
    assert failed == 2
    assert run.end_to_end([wall] * run.MIN_JOBS, 2, failed, [0.3])[
        "success_frac"] == 0.0
    assert "R0" in job.failures[0]


def test_missing_report_counts_as_failure(tmp_path):
    job = make_job("r0-vsi", tmp_path)
    assert job(0)[1] == 0
    # exits 0 but writes nothing: the previous job's reports, whose
    # answers are the same, must not be read in its place
    job.cli = SimpleNamespace(run=lambda argv: 0)
    assert job(1)[1] == 2
    assert "no report" in job.failures[0]


def _unconverged(report):
    if isinstance(report, dict):
        return {k: False if k == "converged" else _unconverged(v)
                for k, v in report.items()}
    if isinstance(report, list):
        return [_unconverged(v) for v in report]
    return report


def test_unconverged_answer_fails_its_check(traced):
    for name, (_, _, _, job) in traced.items():
        for inv, out, oracle in zip(job.workload.job, job.outs,
                                    job.oracle[0]):
            spec = job.workload.variants[0][inv.config]
            report = json.loads((out / "report.json").read_text())
            assert inv.check(spec, report, oracle) == []
            if inv.command != "reduce":   # reduce runs no iterative solve
                assert inv.check(spec, _unconverged(report), oracle), \
                    (name, inv)


def test_tail_is_the_75th_percentile():
    assert run.tail([float(k) for k in range(1, 21)]) == pytest.approx(15.25)


def test_missing_traced_function_fails_loudly(monkeypatch):
    import nlds.opspec
    original = nlds.opspec.spectral_bound
    monkeypatch.delattr(nlds.opspec, "essential_bound")
    tracer = tracing.Tracer(nodal_max_order=workloads.SPECIES)
    with pytest.raises(AttributeError, match="essential_bound"):
        with tracer.installed():
            pass
    assert nlds.opspec.spectral_bound is original


def test_oracle_matrix_matches_assembly():
    g = nlds.cli.build_grid(*workloads.DOMAIN, 16)
    for system in (workloads.CASE_A, workloads.CASE_B):
        cfg = workloads.system_config(system, 16, 1.7)
        sys_obj, grid = nlds.cli.build_objects(cfg, None)
        P = assemble_operator(sys_obj, grid, force=True).matrix
        np.testing.assert_allclose(workloads.dense_matrix(system, g.n, 1.7),
                                   P, rtol=0, atol=1e-14)


def test_seed_draws_multipliers_in_range():
    a, b = workloads.build("certify", 7), workloads.build("certify", 7)
    assert a == b
    assert a != workloads.build("certify", 8)
    for name in ("case_a", "case_b"):
        ds = [v[name].d for v in a.variants]
        assert len(ds) == workloads.VARIANTS
        assert 0.5 <= ds[0] < 2 ** -0.5 <= ds[1] < 1 <= ds[2] < 2 ** 0.5 \
            <= ds[3] <= 2.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_bracket_scales_by_the_calibration_around_the_time():
    cal = calibration.Calibration()
    scaled, seconds, rest = cal.bracket(lambda: (2.0, "rest"))
    assert (seconds, rest) == (2.0, "rest")
    before, after = cal.samples
    assert scaled == pytest.approx(
        2.0 * calibration.REFERENCE_S / ((before + after) / 2))


def test_setup_samples_are_spread_over_the_run():
    steps, samples = [], []

    def step(i):
        time.sleep(0.01)
        steps.append(i)
        return i

    results = run.closed_loop(step, 0.2, 1, lambda: samples.append(len(steps)),
                              4, cycle=3)
    assert results == steps == list(range(len(results)))
    assert len(results) % 3 == 0
    assert len(samples) == 4
    # one sample at the start of each quarter of the run
    assert samples[0] < samples[1] < samples[2] < samples[3] < len(steps)
    assert samples[3] >= len(steps) // 2
