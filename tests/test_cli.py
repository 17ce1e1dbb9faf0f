import json

import numpy as np
import pytest

from nlds import cli
from nlds.assembly import load_matrix
from nlds.cli import run
from nlds.errors import (CertificateInconsistencyError, GridConsistencyError,
                         NonConvergenceError, SizeCapError)

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


def test_config_schema_is_valid():
    # load_config uses a validator built once at import and no longer
    # checks the schema itself on every call
    cli._VALIDATOR.check_schema(cli._SCHEMA)


def test_output_section_is_rejected(tmp_path):
    cfg_dict = json.loads(json.dumps(BASE))
    cfg_dict["output"] = {"directory": "elsewhere", "formats": ["json"]}
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run(["validate", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    rep = read_report(out)
    assert rep["error"]["kind"] == "config"
    assert "output" in rep["error"]["message"]


def test_diagnose_computes_one_field_per_grid(tmp_path, monkeypatch):
    sizes = []
    real = cli.spectral_field

    def counting(system, grid, **kwargs):
        sizes.append(grid.n)
        return real(system, grid, **kwargs)

    monkeypatch.setattr(cli, "spectral_field", counting)
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert run(["diagnose", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert sizes == [10, 20, 40]
    field = read_report(out)["diagnose"]["field"]
    assert field["eta"] == real(*cli.build_objects(BASE, None)).eta


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
