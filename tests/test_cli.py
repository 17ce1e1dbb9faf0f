import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nlds import cli
from nlds.analysis import perturbation_probe
from nlds.assembly import load_matrix, pointwise_A
from nlds.cli import run
from nlds.errors import (CertificateInconsistencyError, GridConsistencyError,
                         NonConvergenceError, SizeCapError)
from nlds.matspec import KRYLOV_MIN_ORDER
from nlds.opspec import COARSE_N

GAUSS = "exp(-(x-y)^2)"

BASE = {
    "domain": {"a": -1.0, "b": 1.0},
    "grid": {"n": 40},
    "system": {
        "l": 2, "l1": 1, "d": [1.0, 0.0],
        "kernels": [GAUSS],
        "coefficients": [["-1 - 0.2*x^2", "1"], ["1", "-1"]],
    },
    "seed": 0,
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_report(outdir):
    return json.loads((outdir / "report.json").read_text())


def test_validate_ok(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert run(["validate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rep = read_report(out)
    assert rep["validation"]["passed"] is True
    assert rep["validation"]["mode"] == "partially-degenerate"


def test_validate_reducible_exits_one(tmp_path):
    bad = json.loads(json.dumps(BASE))
    bad["system"]["coefficients"] = [["-1", "0"], ["0", "-1"]]
    cfg = write_config(tmp_path, bad)
    out = tmp_path / "out"
    assert run(["validate", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    rep = read_report(out)
    checks = {v["check"] for v in rep["validation"]["violations"]}
    assert "irreducibility" in checks


def test_spectrum_certificate(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert run(["spectrum", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rep = read_report(out)
    sp = rep["spectral"]
    assert sp["certificate"]["exists"] is True
    assert sp["gap"] > 0
    assert sp["converged"] is True
    assert "tol" in sp


def test_spectrum_respects_validation_gate(tmp_path):
    bad = json.loads(json.dumps(BASE))
    bad["system"]["coefficients"] = [["-1", "0"], ["0", "-1"]]
    cfg = write_config(tmp_path, bad)
    out = tmp_path / "out"
    assert run(["spectrum", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    # --force pushes through
    out2 = tmp_path / "out2"
    assert run(["spectrum", "--config", cfg, "--out", str(out2), "--quiet",
                "--force"]) == 0


def test_reduce_outputs(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert run(["reduce", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rep = read_report(out)
    red = rep["reduced"]
    assert red["threshold"]["case"] == "A"
    assert red["eta22"] == -1.0
    lines = (out / "weights.csv").read_text().splitlines()
    assert lines[0] == "species,x,weight"
    assert len(lines) == 1 + 2 * 40


def test_sweep_csv(tmp_path):
    cfg_dict = json.loads(json.dumps(BASE))
    cfg_dict["sweep"] = {"mode": "large-d-degen", "t_schedule": [1.0, 10.0, 100.0]}
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "t,s,s_e,gap,reference,deviation,converged"
    assert len(lines) == 4
    devs = [float(line.split(",")[5]) for line in lines[1:]]
    assert devs[-1] < devs[0]


def test_sweep_requires_section(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 3


def test_diagnose(tmp_path):
    cfg_dict = json.loads(json.dumps(BASE))
    cfg_dict["grid"]["refinements"] = [20, 40, 80]
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run(["diagnose", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rep = read_report(out)
    diag = rep["diagnose"]
    assert diag["field"]["nodewise_h_le_H"] is True
    assert diag["integrability"]["verdict"] in (
        "holds", "fails", "degenerate", "inconclusive")
    assert abs(diag["generalized_eigen_residual"]) <= 1e-8


def test_r0_outputs(tmp_path):
    cfg_dict = {
        "domain": {"a": -1.0, "b": 1.0},
        "grid": {"n": 40},
        "epidemic": {"kernel": GAUSS, "d": 1.0, "r": "1", "m": "1",
                     "b": "1", "beta_d": "0.5", "beta_i": "1"},
        "seed": 0,
    }
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run(["r0", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rep = read_report(out)
    assert rep["r0"]["r0"] == pytest.approx(1.5, abs=1e-8)
    assert rep["r0"]["limit"]["case"] == "root"
    lines = (out / "q_samples.csv").read_text().splitlines()
    assert lines[0] == "mu,Q"
    assert len(lines) == 7


def test_oracle_dump(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert run(["oracle", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rep = read_report(out)
    assert rep["oracle"]["size"] == 80
    lines = (out / "eigenvalues.csv").read_text().splitlines()
    assert lines[0] == "re,im"
    assert len(lines) == 81
    assert float(lines[1].split(",")[0]) == pytest.approx(
        rep["oracle"]["max_real"], abs=0)
    M = load_matrix(out / "operator.bin")
    assert M.shape == (80, 80)
    top = float(np.max(np.linalg.eigvals(M).real))
    assert top == pytest.approx(rep["oracle"]["max_real"], abs=1e-12)


def test_probe_outputs(tmp_path):
    cfg_dict = json.loads(json.dumps(BASE))
    cfg_dict["probe"] = {"delta_schedule": [1e-2, 1e-3], "draws": 2,
                         "diagonal_shift": 0.25}
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run(["probe", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rep = read_report(out)
    assert rep["probe_diagonal_shift"]["ds"] == pytest.approx(0.25, abs=1e-12)
    rows = rep["probe"]["results"]
    assert len(rows) == 4
    for row in rows:
        assert row["ds_abs"] <= row["sandwich_bound"] + 1e-12
    lines = (out / "probe.csv").read_text().splitlines()
    assert lines[0] == "delta,draw,dm_inf,dk_inf,ds,ds_abs,sandwich_bound"


def test_unknown_key_rejected(tmp_path):
    bad = json.loads(json.dumps(BASE))
    bad["extra_section"] = {}
    cfg = write_config(tmp_path, bad)
    out = tmp_path / "out"
    assert run(["validate", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    rep = read_report(out)
    assert rep["error"]["kind"] == "config"


def test_nested_unknown_key_rejected(tmp_path):
    bad = json.loads(json.dumps(BASE))
    bad["grid"]["cells"] = 10
    cfg = write_config(tmp_path, bad)
    assert run(["validate", "--config", cfg, "--out",
                str(tmp_path / "o"), "--quiet"]) == 3


def test_config_echo_round_trip(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    run(["validate", "--config", cfg, "--out", str(out), "--quiet"])
    rep = read_report(out)
    assert rep["config"] == BASE


def test_grid_override(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    run(["oracle", "--config", cfg, "--out", str(out), "--quiet", "--n", "25"])
    rep = read_report(out)
    assert rep["oracle"]["size"] == 50


def test_determinism_across_runs(tmp_path):
    # byte-identical for a fixed BLAS thread count only: another count
    # can move the last digit of a solve
    cfg_dict = json.loads(json.dumps(BASE))
    cfg_dict["sweep"] = {"mode": "large-d-degen", "t_schedule": [1.0, 10.0]}
    cfg_dict["probe"] = {"delta_schedule": [1e-3], "draws": 2}
    cfg = write_config(tmp_path, cfg_dict)
    blobs = []
    for tag in ("a", "b"):
        reports = {}
        for command in ("spectrum", "sweep", "probe", "r0_skip"):
            if command == "r0_skip":
                continue
            out = tmp_path / f"{command}_{tag}"
            code = run([command, "--config", cfg, "--out", str(out),
                        "--quiet", "--seed", "7"])
            assert code == 0
            rep = json.loads((out / "report.json").read_text())
            rep.pop("timings")
            reports[command] = (json.dumps(rep, sort_keys=True),
                                (out / "sweep.csv").read_bytes()
                                if command == "sweep" else b"")
        blobs.append(reports)
    assert blobs[0] == blobs[1]


CASE_B = {"l": 2, "l1": 1, "d": [1.0, 0.0], "kernels": [GAUSS],
          "coefficients": [["-2", "0.1"], ["0.1", "-abs(x)^0.5"]]}


def key_paths(v, prefix=""):
    """Every key of a report as a dotted path; the items of a list share
    the list's path."""
    if isinstance(v, dict):
        for k, item in v.items():
            yield prefix + k
            yield from key_paths(item, f"{prefix}{k}.")
    elif isinstance(v, list):
        for item in v:
            yield from key_paths(item, prefix)


def section(name, *keys):
    return {name} | {f"{name}.{k}" for k in keys}


SPECTRAL = ("s", "s_e", "gap", "iterations", "residual", "converged",
            "bracket", "certificate", "certificate.exists",
            "certificate.eigenvalue")
PROBE_ROW = ("dm_inf", "dk_inf", "ds", "ds_abs", "sandwich_bound")
VALIDATION = section("validation", "mode", "passed", "violations", "notes")
# the report keys of each command, the config echo aside; a report key is
# a field name of the result object, so renaming a field fails here
REPORT_KEYS = {
    "validate": VALIDATION,
    "spectrum": VALIDATION | section("spectral", *SPECTRAL, "tol"),
    "reduce": VALIDATION | section(
        "reduced", "tilde_M", "kappa", "kappa_tilde", "eta22",
        "uniform_weight_fallback", "threshold", "threshold.case",
        "threshold.gamma_star", "threshold.ladder"),
    "sweep": VALIDATION | section(
        "sweep", "mode", "reference", "rows",
        *(f"rows.{k}" for k in ("t", "s", "s_e", "gap", "reference",
                                "deviation", "converged"))),
    "diagnose": VALIDATION | section(
        "diagnose", "field", "field.eta", "field.max_h",
        "field.nodewise_h_le_H", "generalized_eigen_residual",
        "integrability",
        *(f"integrability.{k}" for k in ("verdict", "eta_hat", "integrals",
                                         "ratios", "fitted_order",
                                         "detail")),
        "spectral", *(f"spectral.{k}" for k in SPECTRAL)),
    "r0": section("r0", "r0", "bracket", "hat_r0", "tilde_r0", "limit",
                  "limit.case", "limit.tilde_r0", "limit.ladder",
                  "r0_at_zero_diffusion", "q_samples", "sign_residual",
                  "converged", "outside_positivity"),
    "oracle": VALIDATION | section("oracle", "size", "max_real", "count"),
    "probe": VALIDATION | section(
        "probe", "deltas", "draws", "results", "results.delta",
        "results.draw", *(f"results.{k}" for k in PROBE_ROW))
    | section("probe_diagonal_shift", *PROBE_ROW),
}
# the other outcome of each tagged result: (command, config change, exit
# code, keys it drops, keys it adds)
OTHER_OUTCOMES = {
    "violations": ("validate",
                   {"system": {"coefficients": [["-1", "0"], ["0", "-1"]]}},
                   1, set(), {"validation.violations.check",
                              "validation.violations.where",
                              "validation.violations.detail"}),
    "no-certificate": ("spectrum",
                       {"system": CASE_B, "solver": {"max_iterations": 1}},
                       2, {"spectral.certificate.eigenvalue"},
                       {"spectral.certificate.reason"}),
    "case-b": ("reduce", {"system": CASE_B}, 0,
               {"reduced.threshold.gamma_star"}, {"reduced.threshold.eta22"}),
    "boundary": ("r0", {"epidemic": {"m": "5", "r": "0.3", "beta_i": "0.1"}},
                 0, {"r0.limit.tilde_r0"}, {"r0.limit.hat_r0"}),
}
COMMON_KEYS = section("artifact", "name", "version") | section(
    "timings", "wall_seconds") | {"command", "seed", "exit_code"}


def report_keys(tmp_path, command, change=None):
    cfg_dict = json.loads(json.dumps(BASE))
    cfg_dict["sweep"] = {"mode": "large-d-degen", "t_schedule": [1.0, 10.0]}
    cfg_dict["probe"] = {"delta_schedule": [1e-3], "draws": 1,
                         "diagonal_shift": 0.25}
    cfg_dict["epidemic"] = {"kernel": GAUSS, "d": 1.0, "r": "1", "m": "1",
                            "b": "1", "beta_d": "0.5", "beta_i": "1"}
    for name, part in (change or {}).items():
        cfg_dict.setdefault(name, {}).update(part)
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    code = run([command, "--config", cfg, "--out", str(out), "--quiet"])
    rep = read_report(out)
    rep.pop("config")
    return code, rep, set(key_paths(rep))


@pytest.mark.parametrize("command", sorted(REPORT_KEYS))
def test_report_keys_of_each_command(tmp_path, command):
    code, rep, keys = report_keys(tmp_path, command)
    assert code == 0
    assert keys == COMMON_KEYS | REPORT_KEYS[command]
    for cert in (rep.get("spectral", {}).get("certificate"),
                 rep.get("diagnose", {}).get("spectral", {}).get("certificate")):
        assert cert is None or cert == {"exists": True,
                                        "eigenvalue": cert["eigenvalue"]}


@pytest.mark.parametrize("outcome", sorted(OTHER_OUTCOMES))
def test_report_keys_of_the_other_outcomes(tmp_path, outcome):
    command, change, exit_code, dropped, added = OTHER_OUTCOMES[outcome]
    code, _, keys = report_keys(tmp_path, command, change)
    assert code == exit_code
    assert keys == COMMON_KEYS | REPORT_KEYS[command] - dropped | added


def test_spectrum_reports_bracket(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert run(["spectrum", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    sp = read_report(out)["spectral"]
    lo, hi = sp["bracket"]
    assert lo <= sp["s"] <= hi
    assert hi - lo <= 1e-10


def test_max_iterations_caps_the_solve(tmp_path):
    cfg_dict = json.loads(json.dumps(BASE))
    cfg_dict["system"] = CASE_B
    cfg_dict["solver"] = {"max_iterations": 1}
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run(["spectrum", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    sp = read_report(out)["spectral"]
    assert sp["converged"] is False
    assert sp["iterations"] == 1
    assert sp["certificate"]["exists"] is False


def test_max_iterations_caps_the_sweep(tmp_path):
    cfg_dict = json.loads(json.dumps(BASE))
    cfg_dict["system"] = CASE_B
    cfg_dict["solver"] = {"max_iterations": 1}
    cfg_dict["sweep"] = {"mode": "large-d-degen", "t_schedule": [1.0, 10.0]}
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert not any(r["converged"] for r in read_report(out)["sweep"]["rows"])


@pytest.mark.parametrize("command", ["reduce", "sweep"])
def test_max_iterations_caps_the_reduced_quantities(tmp_path, command):
    # the drift makes the Perron weight take 5 steps at n = 40; a
    # symmetric kernel's weight, and CASE_A's 1 x 1 B~, take none
    cfg_dict = json.loads(json.dumps(BASE))
    cfg_dict["system"]["kernels"] = ["exp(-(x-y-0.1)^2)"]
    cfg_dict["sweep"] = {"mode": "large-d-degen", "t_schedule": [1.0]}
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
    cfg_dict["solver"] = {"max_iterations": 1}
    cfg = write_config(tmp_path, cfg_dict)
    assert run([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    error = read_report(out)["error"]
    assert error["kind"] == "NonConvergenceError"
    assert "weight did not converge" in error["message"]


def test_diagnose_caps_the_residual_solve(tmp_path, monkeypatch):
    calls = []
    real = cli.generalized_eigen_residual

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "generalized_eigen_residual", recording)
    cfg = write_config(tmp_path, changed(grid__refinements=[20, 40],
                                         solver={"max_iterations": 57}))
    out = tmp_path / "out"
    assert run(["diagnose", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert [c["max_iterations"] for c in calls] == [57]


def test_diagnose_honours_gap_tol(tmp_path):
    cfg_dict = json.loads(json.dumps(BASE))
    cfg_dict["grid"]["refinements"] = [20, 40]
    cfg_dict["solver"] = {"gap_tol": 1e6}
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run(["diagnose", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    diag = read_report(out)["diagnose"]
    assert diag["spectral"]["certificate"]["exists"] is False
    assert "gap" in diag["spectral"]["certificate"]["reason"]
    assert "generalized_eigen_residual" not in diag


@pytest.mark.parametrize("n, region, coarse", [
    (16, [0.01, 0.02], 4),   # between the nodes of the n = 4 grid
    (40, [2.0, 3.0], 10),    # outside the domain
])
def test_diagnose_region_without_nodes_is_an_input_error(tmp_path, n, region,
                                                         coarse):
    cfg_dict = json.loads(json.dumps(BASE))
    cfg_dict["grid"]["n"] = n
    cfg_dict["diagnose"] = {"region": region}
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run(["diagnose", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    err = read_report(out)["error"]
    assert err["kind"] == "InvalidParametersError"
    assert f"grid of n = {coarse}" in err["message"]


def test_diagnose_default_refinements_skip_empty_grids(tmp_path, monkeypatch):
    sizes = []
    real = cli.refinement_grids

    def recording(a, b, n_list):
        sizes.extend(n_list)
        return real(a, b, n_list)

    monkeypatch.setattr(cli, "refinement_grids", recording)
    cfg_dict = json.loads(json.dumps(BASE))
    cfg_dict["grid"]["n"] = 3
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run(["diagnose", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert sizes == [1, 3]


@pytest.mark.parametrize("error, code", [
    (NonConvergenceError("no convergence", 0.0, 1.0), 2),
    (CertificateInconsistencyError("negative eigenvector"), 2),
    (GridConsistencyError("refine the grid"), 2),
    (SizeCapError("too large"), 3),
])
def test_exit_code_of_error_type(tmp_path, monkeypatch, error, code):
    def fail(cfg, args, report, outdir):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "validate", fail)
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert run(["validate", "--config", cfg, "--out", str(out), "--quiet"]) == code
    rep = read_report(out)
    assert rep["exit_code"] == code
    assert rep["error"]["kind"] == type(error).__name__


def test_refused_run_names_the_validation_gate(tmp_path):
    bad = json.loads(json.dumps(BASE))
    bad["system"]["coefficients"] = [["-1", "0"], ["0", "-1"]]
    cfg = write_config(tmp_path, bad)
    out = tmp_path / "out"
    assert run(["spectrum", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    rep = read_report(out)
    assert rep["error"]["kind"] == "ValidationGateError"
    assert rep["validation"]["passed"] is False
    assert "spectral" not in rep


DROP = object()


def changed(**edits):
    """BASE with edits: a key path joined by "__" -> its new value, or
    DROP to delete it."""
    cfg = json.loads(json.dumps(BASE))
    for path, value in edits.items():
        *head, last = path.split("__")
        node = cfg
        for k in head:
            node = node.setdefault(k, {})
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    return cfg


# (id, config, "path: message") of invalid configs.  Each exits 3 with
# the message that jsonschema's Draft 2020-12 validator and best_match
# gave for it, recorded before cli's own checker replaced them.
INVALID_CONFIGS = [
    ("root_array", [],
     "<root>: [] is not of type 'object'"),
    ("root_number", 3,
     "<root>: 3 is not of type 'object'"),
    ("root_null", None,
     "<root>: None is not of type 'object'"),
    ("root_extra", changed(output={"directory": "x"}),
     "<root>: Additional properties are not allowed ('output' was unexpected)"),
    ("root_two_extras", changed(zeta=1, alpha=2),
     "<root>: Additional properties are not allowed ('alpha', 'zeta' were unexpected)"),
    ("grid_not_object", changed(grid=[40]),
     "grid: [40] is not of type 'object'"),
    ("n_missing", changed(grid__n=DROP),
     "grid: 'n' is a required property"),
    ("n_zero", changed(grid__n=0),
     "grid/n: 0 is less than the minimum of 1"),
    ("n_fraction", changed(grid__n=2.5),
     "grid/n: 2.5 is not of type 'integer'"),
    ("n_fraction_below_minimum", changed(grid__n=0.5),
     "grid/n: 0.5 is not of type 'integer'"),
    ("n_string", changed(grid__n="40"),
     "grid/n: '40' is not of type 'integer'"),
    ("n_bool", changed(grid__n=True),
     "grid/n: True is not of type 'integer'"),
    ("extra_before_missing", changed(grid={"cells": 10}),
     "grid: Additional properties are not allowed ('cells' was unexpected)"),
    ("refinements_empty", changed(grid__refinements=[]),
     "grid/refinements: [] should be non-empty"),
    ("refinements_item", changed(grid__refinements=[8, 0]),
     "grid/refinements/1: 0 is less than the minimum of 1"),
    ("refinements_two_items", changed(grid__refinements=[0, -1]),
     "grid/refinements/1: -1 is less than the minimum of 1"),
    ("domain_empty", changed(domain={}),
     "domain: 'a' is a required property"),
    ("domain_a_string", changed(domain__a="x"),
     "domain/a: 'x' is not of type 'number'"),
    ("domain_a_bool", changed(domain__a=False),
     "domain/a: False is not of type 'number'"),
    ("system_missing_two", changed(system__kernels=DROP, system__l=DROP),
     "system: 'l' is a required property"),
    ("d_item", changed(system__d=[1.0, "0"]),
     "system/d/1: '0' is not of type 'number'"),
    ("kernels_string", changed(system__kernels=GAUSS),
     "system/kernels: 'exp(-(x-y)^2)' is not of type 'array'"),
    ("coefficient_entry", changed(system__coefficients=[["1", 2], ["1", "-1"]]),
     "system/coefficients/0/1: 2 is not of type 'string'"),
    ("coefficient_two_rows", changed(system__coefficients=[["1", 2], [3, "x"]]),
     "system/coefficients/1/0: 3 is not of type 'string'"),
    ("coefficient_row", changed(system__coefficients=["1", ["1", "-1"]]),
     "system/coefficients/0: '1' is not of type 'array'"),
    ("tol_zero", changed(solver={"tol": 0}),
     "solver/tol: 0 is less than or equal to the minimum of 0"),
    ("tol_negative", changed(solver={"tol": -1e-3}),
     "solver/tol: -0.001 is less than or equal to the minimum of 0"),
    ("gap_tol_string", changed(solver={"gap_tol": "x"}),
     "solver/gap_tol: 'x' is not of type 'number', 'null'"),
    ("max_iterations_zero", changed(solver={"max_iterations": 0}),
     "solver/max_iterations: 0 is less than the minimum of 1"),
    ("solver_extra", changed(solver={"toll": 1e-8}),
     "solver: Additional properties are not allowed ('toll' was unexpected)"),
    ("sweep_mode", changed(sweep={"mode": "bogus", "t_schedule": [1.0]}),
     "sweep/mode: 'bogus' is not one of ['small-d', 'large-d-nondegen', 'large-d-degen']"),
    ("sweep_mode_number", changed(sweep={"mode": 3, "t_schedule": [1.0]}),
     "sweep/mode: 3 is not one of ['small-d', 'large-d-nondegen', 'large-d-degen']"),
    ("sweep_missing_schedule", changed(sweep={"mode": "small-d"}),
     "sweep: 't_schedule' is a required property"),
    ("sweep_empty_schedule", changed(sweep={"mode": "small-d", "t_schedule": []}),
     "sweep/t_schedule: [] should be non-empty"),
    ("region_short", changed(diagnose={"region": [0.0]}),
     "diagnose/region: [0.0] is too short"),
    ("region_long", changed(diagnose={"region": [0.0, 0.5, 1.0]}),
     "diagnose/region: [0.0, 0.5, 1.0] is too long"),
    ("draws_zero", changed(probe={"draws": 0}),
     "probe/draws: 0 is less than the minimum of 1"),
    ("diagonal_shift_string", changed(probe={"diagonal_shift": "0.1"}),
     "probe/diagonal_shift: '0.1' is not of type 'number', 'null'"),
    ("delta_schedule_item", changed(probe={"delta_schedule": [1e-2, None]}),
     "probe/delta_schedule/1: None is not of type 'number'"),
    ("epidemic_empty", changed(epidemic={}),
     "epidemic: 'kernel' is a required property"),
    ("epidemic_d_string", changed(epidemic={"kernel": GAUSS, "d": "1", "r": "1", "m": "1", "b": "1", "beta_d": "1", "beta_i": "1"}),
     "epidemic/d: '1' is not of type 'number'"),
    ("seed_string", changed(seed="1"),
     "seed: '1' is not of type 'integer'"),
    ("siblings_across_sections", changed(grid__n=0, system__l=0),
     "system/l: 0 is less than the minimum of 1"),
    ("shallow_beats_deep", changed(grid__n=0, extra=1),
     "<root>: Additional properties are not allowed ('extra' was unexpected)"),
    ("section_beats_its_keys", changed(system__l=0, system__extra=1),
     "system: Additional properties are not allowed ('extra' was unexpected)"),
    ("siblings_in_one_section", changed(system__l=0, system__l1=0),
     "system/l1: 0 is less than the minimum of 1"),
    # json.load reads the tokens NaN, Infinity and -Infinity
    ("tol_nan", changed(solver={"tol": float("nan")}),
     "solver/tol: nan is not of type 'number'"),
    ("tol_infinity", changed(solver={"tol": float("inf")}),
     "solver/tol: inf is not of type 'number'"),
    ("d_infinity", changed(system__d=[float("inf"), 0.0]),
     "system/d/0: inf is not of type 'number'"),
    ("domain_a_minus_infinity", changed(domain__a=float("-inf")),
     "domain/a: -inf is not of type 'number'"),
]


@pytest.mark.parametrize("cfg, message", [c[1:] for c in INVALID_CONFIGS],
                         ids=[c[0] for c in INVALID_CONFIGS])
def test_invalid_config_exit_code_and_message(tmp_path, cfg, message):
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert run(["validate", "--config", path, "--out", str(out),
                "--quiet"]) == 3
    assert read_report(out)["error"] == {
        "kind": "config", "message": f"config invalid at {message}"}


def test_schema_uses_only_the_checked_keywords():
    keywords = {"type", "enum", "minimum", "exclusiveMinimum", "minItems",
                "maxItems", "items", "properties", "required",
                "additionalProperties"}

    def walk(schema):
        assert set(schema) <= keywords
        assert schema.get("additionalProperties", False) is False
        subs = list(schema.get("properties", {}).values())
        for sub in subs + ([schema["items"]] if "items" in schema else []):
            walk(sub)
    walk(cli._SCHEMA)


@pytest.mark.parametrize("command, cfg, message", [
    ("spectrum", changed(grid__n=64.0),
     "grid/n: 64.0 is not of type 'integer'"),
    ("probe", changed(seed=2.0), "seed: 2.0 is not of type 'integer'"),
    ("probe", changed(probe={"draws": 2.0}),
     "probe/draws: 2.0 is not of type 'integer'"),
], ids=["n", "seed", "draws"])
def test_integral_float_in_an_integer_field_is_a_config_error(
        tmp_path, command, cfg, message):
    # json.load gives 64.0 as a float, which the commands cannot use as
    # a count or a seed; it is an input error, not a crash
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert run([command, "--config", path, "--out", str(out),
                "--quiet"]) == 3
    assert read_report(out)["error"]["message"] == (
        f"config invalid at {message}")


def test_importing_the_cli_loads_no_jsonschema():
    code = ("import sys, nlds.cli; "
            "sys.exit('jsonschema' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert done.returncode == 0


def test_output_section_is_rejected(tmp_path):
    cfg_dict = json.loads(json.dumps(BASE))
    cfg_dict["output"] = {"directory": "elsewhere", "formats": ["json"]}
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run(["validate", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    rep = read_report(out)
    assert rep["error"]["kind"] == "config"
    assert "output" in rep["error"]["message"]


def test_diagnose_computes_one_spectral_field(tmp_path, monkeypatch):
    # the run grid's; the coarser grids need only their H
    sizes = []
    real = cli.spectral_field

    def counting(system, fields):
        sizes.append(fields.grid.n)
        return real(system, fields)

    monkeypatch.setattr(cli, "spectral_field", counting)
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert run(["diagnose", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert sizes == [40]
    field = read_report(out)["diagnose"]["field"]
    system, g = cli.build_objects(BASE, None)
    assert field["eta"] == real(system, cli.sample_fields(system, g)).eta


# (coefficient entries, kernels) evaluated by each command on a 2 x 2
# system with one kernel: one sampling of the run grid, and diagnose one
# more of each coarser refinement grid (n = 8 and 16)
EVALUATIONS = {"validate": (4, 1), "spectrum": (4, 1), "oracle": (4, 1),
               "reduce": (4, 1), "sweep": (4, 1), "probe": (4, 1),
               "diagnose": (12, 3)}


@pytest.mark.parametrize("command", sorted(EVALUATIONS))
def test_each_command_samples_once(tmp_path, monkeypatch, command):
    import nlds.exprlang
    calls = []
    real = nlds.exprlang.eval_expr

    def counting(node, x=None, y=None):
        calls.append(y is not None)
        return real(node, x=x, y=y)

    monkeypatch.setattr(nlds.exprlang, "eval_expr", counting)
    cfg_dict = json.loads(json.dumps(BASE))   # CASE_B of the acceptance suite
    cfg_dict["grid"]["n"] = 32
    cfg_dict["system"]["coefficients"] = [["-2", "0.1"],
                                          ["0.1", "-abs(x)^0.5"]]
    cfg_dict["sweep"] = {"mode": "large-d-degen", "t_schedule": [1.0, 10.0]}
    cfg_dict["probe"] = {"delta_schedule": [1e-3, 1e-4], "draws": 3}
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert (calls.count(False), calls.count(True)) == EVALUATIONS[command]


def test_diagnose_force_on_a_reducible_system_reports_its_error(tmp_path):
    # eta = max H = -1 = s(A22): the Schur reduction at eta is singular
    cfg_dict = json.loads(json.dumps(BASE))
    cfg_dict["system"]["coefficients"] = [["-1", "0"], ["0", "-1"]]
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run(["diagnose", "--config", cfg, "--out", str(out), "--quiet",
                "--force"]) == 3
    rep = read_report(out)
    assert rep["error"]["kind"] == "ResolventDomainError"
    assert "static-block bound" in rep["error"]["message"]


def test_max_iterations_reaches_the_r0_weight_and_sign_check(tmp_path):
    # R0 and the Perron weight take 5 Noda steps here, H_mu at R0 takes 6
    cfg_dict = {"domain": BASE["domain"], "grid": BASE["grid"],
                "epidemic": {"kernel": "exp(-(x-y-0.1)^2)", "d": 2.0,
                             "r": "1 + 0.5*x", "m": "1", "b": "1",
                             "beta_d": "0.5", "beta_i": "1"},
                "solver": {"max_iterations": 6}}
    out = tmp_path / "out"
    cfg = write_config(tmp_path, cfg_dict)
    assert run(["r0", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    cfg_dict["solver"] = {"max_iterations": 5}
    cfg = write_config(tmp_path, cfg_dict)
    assert run(["r0", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert read_report(out)["r0"]["converged"] is False
    cfg_dict["solver"] = {"max_iterations": 4}
    cfg = write_config(tmp_path, cfg_dict)
    assert run(["r0", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert read_report(out)["error"]["kind"] == "NonConvergenceError"


def test_max_iterations_caps_r0(tmp_path):
    cfg_dict = {"domain": BASE["domain"], "grid": BASE["grid"],
                "epidemic": {"kernel": GAUSS, "d": 2.0, "r": "1 + 0.5*x",
                             "m": "1 + x^2", "b": "1",
                             "beta_d": "0.3 + 0.2*x^2", "beta_i": "1"}}
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run(["r0", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert read_report(out)["r0"]["converged"] is True
    cfg_dict["solver"] = {"max_iterations": 1}
    cfg = write_config(tmp_path, cfg_dict)
    assert run(["r0", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert read_report(out)["r0"]["converged"] is False


def test_solver_tol_reaches_the_r0_sign_check(tmp_path, monkeypatch):
    import nlds.epidemic
    tols = []
    real = nlds.epidemic.H_mu

    def recording(*args, **kwargs):
        tols.append(kwargs.get("tol"))
        return real(*args, **kwargs)

    monkeypatch.setattr(nlds.epidemic, "H_mu", recording)
    cfg_dict = {"domain": BASE["domain"], "grid": BASE["grid"],
                "epidemic": {"kernel": GAUSS, "d": 1.0, "r": "1", "m": "1",
                             "b": "1", "beta_d": "0.5", "beta_i": "1"},
                "solver": {"tol": 1e-6}}
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run(["r0", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert tols == [1e-6]


def test_unconverged_nodal_bound_exits_two(tmp_path):
    # exp(-700 x^2) reaches 1e-304 at the ends: the nodal solve there
    # overflows, and s_e must not be read off the unconverged value
    cfg_dict = json.loads(json.dumps(BASE))
    cfg_dict["grid"]["n"] = 64
    cfg_dict["system"]["d"] = [0.1, 0.0]
    cfg_dict["system"]["coefficients"] = [["0.5 + x", "exp(-700*x^2)"],
                                          ["exp(-700*x^2)", "0"]]
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run(["spectrum", "--config", cfg, "--out", str(out), "--quiet",
                "--force"]) == 2
    assert read_report(out)["error"]["kind"] == "NonConvergenceError"


def test_max_iterations_caps_the_probe(tmp_path):
    cfg_dict = json.loads(json.dumps(BASE))
    cfg_dict["probe"] = {"delta_schedule": [1e-3], "draws": 1}
    cfg_dict["solver"] = {"max_iterations": 1}
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run(["probe", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert read_report(out)["error"]["kind"] == "NonConvergenceError"
    cfg_dict["solver"] = {"max_iterations": 100}
    cfg = write_config(tmp_path, cfg_dict)
    assert run(["probe", "--config", cfg, "--out", str(out), "--quiet"]) == 0



def test_non_cooperative_force_runs_report_their_error(tmp_path):
    # under --force every command meets the negative coupling as an input
    # error: the nodal stack is checked, and s(M~) refuses M~
    one = json.loads(json.dumps(BASE))
    one["system"]["coefficients"] = [["-1 - 0.2*x^2", "-1"], ["1", "-1"]]
    both = json.loads(json.dumps(one))
    both["system"].update(l1=2, d=[1.0, 1.0], kernels=[GAUSS, GAUSS])
    both["sweep"] = {"mode": "large-d-nondegen", "t_schedule": [1.0]}
    for name, cfg_dict, command, code, kind, message in [
            ("l1", one, "spectrum", 3, "InvalidParametersError",
             "not cooperative"),
            ("l1", one, "diagnose", 3, "InvalidParametersError",
             "not cooperative"),
            ("l1", one, "reduce", 3, "InvalidParametersError",
             "not cooperative"),
            ("l2", both, "reduce", 3, "InvalidParametersError",
             "not cooperative"),
            ("l2", both, "sweep", 3, "InvalidParametersError",
             "not cooperative")]:
        cfg = write_config(tmp_path, cfg_dict, f"{name}.json")
        out = tmp_path / f"{command}-{name}"
        assert run([command, "--config", cfg, "--out", str(out), "--quiet",
                    "--force"]) == code
        error = read_report(out)["error"]
        assert error["kind"] == kind
        assert message in error["message"]


def test_non_cooperative_force_probe_is_an_input_error(tmp_path):
    # probe checks P0's nodal field before its first solve, so it exits 3
    # with the message of the other commands, not 2 from a failed solve
    cfg_dict = json.loads(json.dumps(BASE))
    cfg_dict["system"]["coefficients"] = [["-1", "-0.5"], ["1", "-1"]]
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run(["probe", "--config", cfg, "--out", str(out), "--quiet",
                "--force"]) == 3
    error = read_report(out)["error"]
    assert error["kind"] == "InvalidParametersError"
    assert error["message"] == \
        "not cooperative: entry (0,1) = -0.5 < 0 at node 0"


def test_non_cooperative_force_degenerate_sweep_is_an_input_error(tmp_path):
    # the sweep checks the nodal field before the threshold classifier,
    # which would otherwise fail on the ladder and name the wrong cause
    cfg_dict = json.loads(json.dumps(BASE))
    cfg_dict["system"]["coefficients"] = [["-1", "-0.5"], ["1", "-1"]]
    cfg_dict["sweep"] = {"mode": "large-d-degen", "t_schedule": [1.0, 10.0]}
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", str(out), "--quiet",
                "--force"]) == 3
    error = read_report(out)["error"]
    assert error["kind"] == "InvalidParametersError"
    assert error["message"] == \
        "not cooperative: entry (0,1) = -0.5 < 0 at node 0"


# system edits under which P is cooperative at the nodes but has a
# negative entry in d_1 K_1, and the commands that must refuse them
NON_METZLER_TRANSFER = [
    ({"kernels": ["x*y"]}, "spectrum diagnose probe reduce sweep"),
    ({"d": [-0.5, 0.0]}, "spectrum diagnose probe sweep"),
    ({"kernels": [GAUSS + " - 0.1"]}, "spectrum diagnose probe reduce sweep"),
]


@pytest.mark.parametrize("command",
                         ["spectrum", "diagnose", "probe", "reduce", "sweep"])
def test_non_metzler_transfer_force_is_an_input_error(tmp_path, command):
    # no bound is reported for a matrix the Collatz-Wielandt bracket does
    # not hold for: the transfer blocks are checked like the nodal field
    for k, (edit, commands) in enumerate(NON_METZLER_TRANSFER):
        if command not in commands.split():
            continue
        cfg_dict = json.loads(json.dumps(BASE))
        cfg_dict["system"].update(edit)
        cfg_dict["sweep"] = {"mode": "large-d-degen", "t_schedule": [1.0]}
        cfg_dict["probe"] = {"delta_schedule": [1e-3], "draws": 1}
        cfg = write_config(tmp_path, cfg_dict, f"{k}.json")
        out = tmp_path / f"out{k}"
        assert run([command, "--config", cfg, "--out", str(out), "--quiet",
                    "--force"]) == 3, edit
        error = read_report(out)["error"]
        assert error["kind"] == "InvalidParametersError", edit
        assert error["message"].startswith("not cooperative"), edit


def test_r0_negative_kernel_is_an_input_error(tmp_path):
    cfg_dict = {"domain": BASE["domain"], "grid": BASE["grid"],
                "epidemic": {"kernel": GAUSS + " - 0.3", "d": 1.0,
                             "r": "1 + 0.5*x", "m": "1 + x^2", "b": "1",
                             "beta_d": "0.3 + 0.2*x^2", "beta_i": "1"}}
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run(["r0", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    error = read_report(out)["error"]
    assert error["kind"] == "InvalidParametersError"
    assert error["message"].startswith("kernel must be nonnegative")


def test_diagnose_solves_each_nodal_stack_once(tmp_path, monkeypatch):
    # s_e is the run grid's field.eta: the nodal matrices of each grid are
    # solved once, the run grid's first, and the essential bound is not
    # solved again
    import nlds.analysis
    import nlds.matspec
    import nlds.opspec
    stacks = []
    real = nlds.analysis.nodal_bounds

    def counting(stack):
        stacks.append(np.shape(stack))
        return real(stack)

    def refuse(stack):
        raise AssertionError("second solve of the run grid's nodal matrices")

    for module in (nlds.analysis, cli):
        monkeypatch.setattr(module, "nodal_bounds", counting)
    monkeypatch.setattr(nlds.opspec, "max_nodal_bound", refuse)
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert run(["diagnose", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert [s for s in stacks if s[1:] == (2, 2)] == [(40, 2, 2), (10, 2, 2),
                                                      (20, 2, 2)]
    system, g = cli.build_objects(BASE, None)
    A = pointwise_A(system, cli.sample_fields(system, g))
    assert read_report(out)["diagnose"]["spectral"]["s_e"] == \
        nlds.matspec.max_nodal_bound(A)


def test_probe_solves_the_unperturbed_operator_once(tmp_path, monkeypatch):
    import nlds.analysis
    calls = {"assemble_operator": [], "_converged_bound": []}
    for name, seen in calls.items():
        def counting(*args, _real=getattr(nlds.analysis, name), _seen=seen,
                     **kwargs):
            _seen.append(args[0])
            return _real(*args, **kwargs)
        monkeypatch.setattr(nlds.analysis, name, counting)
    cfg_dict = json.loads(json.dumps(BASE))
    cfg_dict["probe"] = {"delta_schedule": [1e-2, 1e-3], "draws": 2,
                         "diagonal_shift": 0.25}
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run(["probe", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    # P0 only: each draw's P1 is built from P0's blocks
    assert len(calls["assemble_operator"]) == 1
    # s0, then s1 and the two sandwich bounds of each draw, then the shift
    solved = calls["_converged_bound"]
    assert len(solved) == 1 + 3 * 4 + 1
    P0 = solved[0]
    assert sum(P is P0 for P in solved) == 1
    # the same rows as a probe that solves P0 again for every draw
    monkeypatch.undo()
    system, g = cli.build_objects(cfg_dict, None)
    fields = cli.sample_fields(system, g)
    rows = read_report(out)["probe"]["results"]
    for row in rows:
        again = perturbation_probe(system, fields)(row["delta"], row["draw"])
        assert {k: row[k] for k in vars(again)} == vars(again)


THREE_SPECIES = {"l": 3, "l1": 1, "d": [1.0, 0.0, 0.0], "kernels": [GAUSS],
                 "coefficients": [["-1 - x^2", "0.5", "0.2"],
                                  ["0.3", "-x", "0.4"],
                                  ["0.1", "0.6", "-2 + x^2"]]}


@pytest.mark.parametrize("command", ["spectrum", "sweep", "diagnose", "r0"])
def test_solve_path_forms_no_operator_sized_matrix(tmp_path, monkeypatch,
                                                   command):
    # the dense form of an operator with static species is never built.
    # From l1 n = KRYLOV_MIN_ORDER on, the Schur complement of the
    # diffusing block is solved by products, so the only LU of order n is
    # r0's n-column solve; spectrum runs at certify's n = 512
    import nlds.matspec
    real = nlds.matspec.BlockOperator.matrix.func

    def dense(op):
        if op.nodal.shape[1] > len(op.transfer):
            raise AssertionError(f"dense operator of order {len(op)}")
        return real(op)

    orders = []
    solve = np.linalg.solve

    def recording(a, b):
        if np.ndim(a) == 2:
            orders.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(nlds.matspec.BlockOperator, "matrix", property(dense))
    monkeypatch.setattr(np.linalg, "solve", recording)
    n = 512 if command == "spectrum" else KRYLOV_MIN_ORDER
    cfg_dict = {"domain": BASE["domain"], "grid": {"n": n},
                "system": THREE_SPECIES,
                "sweep": {"mode": "large-d-degen", "t_schedule": [1.0, 10.0]}}
    if command == "r0":
        cfg_dict = {"domain": BASE["domain"], "grid": {"n": n},
                    "epidemic": {"kernel": GAUSS, "d": 2.0, "r": "1 + 0.5*x",
                                 "m": "1 + x^2", "b": "1",
                                 "beta_d": "0.3 + 0.2*x^2", "beta_i": "1"}}
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert 0 < max(orders) <= (n if command == "r0" else COARSE_N)
