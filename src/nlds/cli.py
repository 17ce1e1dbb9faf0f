"""Command-line entry point: config ingestion, dispatch, and report
persistence.

One JSON config describes the domain, grid, system, solver knobs, and
per-command sections; expression-valued fields are strings in the small
arithmetic language.  Each run writes <out>/report.json plus CSV
sidecars for tabular results; all decimals carry 17 significant digits
and repeated runs with the same config and seed are byte-identical
(timings excepted, which live under a separate key).

Exit codes: 0 success, 1 validation failure, 2 numerical failure
(solver non-convergence, inconsistent certificate or grid consistency),
3 config or other input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .analysis import (generalized_eigen_residual, integrability_diagnostic,
                       perturbation_probe, refinement_grids, spectral_field,
                       sweep, write_csv)
from .assembly import (assemble_operator, dump_matrix, pointwise_A,
                       sample_fields)
from .epidemic import VSIParams, compute_r0_report
from .errors import (CertificateInconsistencyError, ConfigError,
                     GridConsistencyError, NldsError, NonConvergenceError,
                     ValidationGateError)
from .grid import build_grid
from .matspec import MAX_ITERATIONS
from .model import CoefField, DispersalSystem, KernelSpec, validate
from .opspec import Exists, compute_spectral_report, dense_spectrum
from .reduce import reduced_quantities, weights_for_system

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NONCONVERGENCE = 2
EXIT_CONFIG = 3
# error type -> exit code; every other NldsError exits with EXIT_CONFIG
_EXIT_CODES = {ValidationGateError: EXIT_VALIDATION,
               NonConvergenceError: EXIT_NONCONVERGENCE,
               CertificateInconsistencyError: EXIT_NONCONVERGENCE,
               GridConsistencyError: EXIT_NONCONVERGENCE}

_NUM = {"type": "number"}
_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "domain": {
            "type": "object", "additionalProperties": False,
            "required": ["a", "b"],
            "properties": {"a": _NUM, "b": _NUM},
        },
        "grid": {
            "type": "object", "additionalProperties": False,
            "required": ["n"],
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "refinements": {"type": "array", "minItems": 1,
                                "items": {"type": "integer", "minimum": 1}},
            },
        },
        "system": {
            "type": "object", "additionalProperties": False,
            "required": ["l", "l1", "d", "kernels", "coefficients"],
            "properties": {
                "l": {"type": "integer", "minimum": 1},
                "l1": {"type": "integer", "minimum": 1},
                "d": {"type": "array", "items": _NUM},
                "kernels": {"type": "array", "items": {"type": "string"}},
                "coefficients": {"type": "array",
                                 "items": {"type": "array",
                                           "items": {"type": "string"}}},
            },
        },
        "solver": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "gap_tol": {"type": ["number", "null"]},
                "max_iterations": {"type": "integer", "minimum": 1},
            },
        },
        "sweep": {
            "type": "object", "additionalProperties": False,
            "required": ["mode", "t_schedule"],
            "properties": {
                "mode": {"enum": ["small-d", "large-d-nondegen",
                                  "large-d-degen"]},
                "t_schedule": {"type": "array", "minItems": 1, "items": _NUM},
            },
        },
        "diagnose": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "region": {"type": "array", "minItems": 2, "maxItems": 2,
                           "items": _NUM},
            },
        },
        "probe": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "delta_schedule": {"type": "array", "minItems": 1,
                                   "items": _NUM},
                "draws": {"type": "integer", "minimum": 1},
                "diagonal_shift": {"type": ["number", "null"]},
            },
        },
        "epidemic": {
            "type": "object", "additionalProperties": False,
            "required": ["kernel", "d", "r", "m", "b", "beta_d", "beta_i"],
            "properties": {
                "kernel": {"type": "string"}, "d": _NUM,
                "r": {"type": "string"}, "m": {"type": "string"},
                "b": {"type": "string"}, "beta_d": {"type": "string"},
                "beta_i": {"type": "string"},
            },
        },
        "seed": {"type": "integer"},
    },
}
# built once; jsonschema.validate re-checks _SCHEMA on every call
_VALIDATOR = jsonschema.validators.validator_for(_SCHEMA)(_SCHEMA)


# --- deterministic JSON with 17-significant-digit decimals ---------------

def _json_value(v, out: list, indent: int) -> None:
    pad = "  " * indent
    if isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(v)
        for i, k in enumerate(keys):
            out.append(f'{pad}  {json.dumps(k)}: ')
            _json_value(v[k], out, indent + 1)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(v):
            out.append(pad + "  ")
            _json_value(item, out, indent + 1)
            out.append(",\n" if i < len(v) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(v, bool) or v is None:
        out.append(json.dumps(v))
    elif isinstance(v, (int, np.integer)):
        out.append(str(int(v)))
    elif isinstance(v, (float, np.floating)):
        f = float(v)
        out.append(format(f, ".17g") if np.isfinite(f) else "null")
    elif isinstance(v, str):
        out.append(json.dumps(v))
    else:
        raise TypeError(f"cannot serialize {type(v)}")


def dumps_report(report: dict) -> str:
    out: list[str] = []
    _json_value(report, out, 0)
    out.append("\n")
    return "".join(out)


# --- config handling ------------------------------------------------------

def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    e = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(cfg))
    if e is not None:
        path_str = "/".join(str(p) for p in e.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {path_str}: {e.message}")
    return cfg


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"config sections required for this command: "
                          f"{', '.join(missing)}")


def build_objects(cfg: dict, n_override: int | None):
    _require(cfg, "domain", "grid", "system")
    a, b = cfg["domain"]["a"], cfg["domain"]["b"]
    n = n_override if n_override is not None else cfg["grid"]["n"]
    g = build_grid(a, b, n)
    s = cfg["system"]
    try:
        system = DispersalSystem(
            l=s["l"], l1=s["l1"], d=tuple(float(v) for v in s["d"]),
            kernels=tuple(KernelSpec.from_text(t) for t in s["kernels"]),
            coefficients=CoefField.from_text(s["coefficients"]),
            domain=(a, b))
    except NldsError as e:
        raise ConfigError(f"bad system definition: {e}")
    return system, g


def validated_objects(cfg: dict, args, report: dict):
    """build_objects behind the validation gate: records the validation
    report and raises ValidationGateError unless it passed or --force."""
    system, g = build_objects(cfg, args.n)
    vr = validate(system, g)
    report["validation"] = vr.to_dict()
    if not vr.passed and not args.force:
        raise ValidationGateError(vr)
    return system, g


def solver_opts(cfg: dict) -> dict:
    s = cfg.get("solver", {})
    return {"tol": s.get("tol", 1e-10), "gap_tol": s.get("gap_tol"),
            "max_iterations": s.get("max_iterations", MAX_ITERATIONS)}


# --- subcommands ----------------------------------------------------------

def cmd_validate(cfg, args, report, outdir) -> int:
    system, g = build_objects(cfg, args.n)
    vr = validate(system, g)
    report["validation"] = vr.to_dict()
    return EXIT_OK if vr.passed else EXIT_VALIDATION


def cmd_spectrum(cfg, args, report, outdir) -> int:
    system, g = validated_objects(cfg, args, report)
    opts = solver_opts(cfg)
    fields = sample_fields(system, g)
    P = assemble_operator(system, g, force=True, fields=fields)
    sr = compute_spectral_report(P, pointwise_A(system, g, fields=fields),
                                 **opts)
    d = sr.to_dict()
    d["tol"] = opts["tol"]
    report["spectral"] = d
    return EXIT_OK if sr.converged else EXIT_NONCONVERGENCE


def cmd_reduce(cfg, args, report, outdir) -> int:
    system, g = validated_objects(cfg, args, report)
    weights = weights_for_system(system, g)
    rq = reduced_quantities(system, g, weights)
    report["reduced"] = rq.to_dict()
    write_csv(outdir / "weights.csv", ["species", "x", "weight"],
              ((i + 1, x, p) for i, wgt in enumerate(weights.weights)
               for x, p in zip(g.points, wgt)))
    return EXIT_OK


def cmd_sweep(cfg, args, report, outdir) -> int:
    _require(cfg, "sweep")
    system, g = validated_objects(cfg, args, report)
    opts = solver_opts(cfg)
    table = sweep(system, g, cfg["sweep"]["t_schedule"],
                  cfg["sweep"]["mode"], tol=opts["tol"],
                  max_iterations=opts["max_iterations"])
    report["sweep"] = table.to_dict()
    table.write_csv(outdir / "sweep.csv")
    ok = all(r.converged for r in table.rows)
    return EXIT_OK if ok else EXIT_NONCONVERGENCE


def cmd_diagnose(cfg, args, report, outdir) -> int:
    system, g = validated_objects(cfg, args, report)
    opts = solver_opts(cfg)
    region = tuple(cfg.get("diagnose", {}).get("region",
                                               [system.domain[0], system.domain[1]]))
    n_list = cfg.get("grid", {}).get("refinements", [g.n // 4, g.n // 2, g.n])
    grids = refinement_grids(system.domain[0], system.domain[1], n_list)
    fields = sample_fields(system, g)
    by_n = {}   # grid size -> SpectralField, so the run grid's is reused

    def field_of(gg):
        if gg.n not in by_n:
            by_n[gg.n] = spectral_field(
                system, gg, fields=fields if gg.n == g.n else None)
        return by_n[gg.n]

    diag = integrability_diagnostic(lambda gg: field_of(gg).H, grids, region)
    report["diagnose"] = {"integrability": diag.to_dict()}
    P = assemble_operator(system, g, force=True, fields=fields)
    sr = compute_spectral_report(P, pointwise_A(system, g, fields=fields),
                                 **opts)
    report["diagnose"]["spectral"] = sr.to_dict()
    field = field_of(g)
    report["diagnose"]["field"] = {
        "eta": field.eta,
        "max_h": float(np.max(field.h)),
        "nodewise_h_le_H": bool(np.all(field.h <= field.H + 1e-10)),
    }
    if (system.l1 < system.l and sr.gap > 0
            and isinstance(sr.certificate, Exists)):
        resid = generalized_eigen_residual(system, g, sr.s, tol=opts["tol"],
                                           fields=fields)
        report["diagnose"]["generalized_eigen_residual"] = resid
    return EXIT_OK if sr.converged else EXIT_NONCONVERGENCE


def cmd_r0(cfg, args, report, outdir) -> int:
    _require(cfg, "domain", "grid", "epidemic")
    a, b = cfg["domain"]["a"], cfg["domain"]["b"]
    n = args.n if args.n is not None else cfg["grid"]["n"]
    g = build_grid(a, b, n)
    e = cfg["epidemic"]
    params = VSIParams.from_text(e["kernel"], e["d"], e["r"], e["m"], e["b"],
                                 e["beta_d"], e["beta_i"])
    opts = solver_opts(cfg)
    rep = compute_r0_report(params, g, tol=opts["tol"],
                            max_iterations=opts["max_iterations"])
    report["r0"] = rep.to_dict()
    write_csv(outdir / "q_samples.csv", ["mu", "Q"], rep.q_samples)
    return EXIT_OK if rep.converged else EXIT_NONCONVERGENCE


def cmd_oracle(cfg, args, report, outdir) -> int:
    system, g = validated_objects(cfg, args, report)
    P = assemble_operator(system, g, force=True)
    vals = dense_spectrum(P)
    report["oracle"] = {
        "size": P.size,
        "max_real": float(vals[0].real),
        "count": int(len(vals)),
    }
    write_csv(outdir / "eigenvalues.csv", ["re", "im"],
              ((v.real, v.imag) for v in vals))
    dump_matrix(P.matrix, outdir / "operator.bin")
    return EXIT_OK


def cmd_probe(cfg, args, report, outdir) -> int:
    system, g = validated_objects(cfg, args, report)
    pc = cfg.get("probe", {})
    deltas = pc.get("delta_schedule", [1e-2, 1e-3, 1e-4, 1e-5])
    draws = pc.get("draws", 3)
    shift = pc.get("diagonal_shift")
    opts = solver_opts(cfg)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    results = []
    for delta in deltas:
        for k in range(draws):
            pr = perturbation_probe(system, g, delta, seed=seed + k,
                                    tol=opts["tol"])
            row = pr.to_dict()
            row["delta"] = delta
            row["draw"] = k
            results.append(row)
    if shift is not None:
        pr = perturbation_probe(system, g, 0.0, seed=seed, tol=opts["tol"],
                                diagonal_shift=shift)
        report["probe_diagonal_shift"] = pr.to_dict()
    report["probe"] = {"deltas": list(deltas), "draws": draws,
                       "results": results}
    cols = ["delta", "draw", "dm_inf", "dk_inf", "ds", "ds_abs",
            "sandwich_bound"]
    write_csv(outdir / "probe.csv", cols,
              ([row[c] for c in cols] for row in results))
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "spectrum": cmd_spectrum,
    "reduce": cmd_reduce,
    "sweep": cmd_sweep,
    "diagnose": cmd_diagnose,
    "r0": cmd_r0,
    "oracle": cmd_oracle,
    "probe": cmd_probe,
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlds",
        description="Spectral analysis of cooperative nonlocal dispersal systems.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default="./out", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="seed override (default: config seed or 0)")
        p.add_argument("--n", type=int, default=None, help="grid-size override")
        p.add_argument("--force", action="store_true",
                       help="run even if validation fails")
        p.add_argument("--quiet", action="store_true")
    return parser


def run(argv) -> int:
    args = make_parser().parse_args(argv)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    report: dict = {
        "artifact": {"name": "nlds", "version": __version__},
        "command": args.command,
    }
    t0 = time.perf_counter()
    try:
        cfg = load_config(args.config)
        report["config"] = cfg
        report["seed"] = args.seed if args.seed is not None else cfg.get("seed", 0)
        code = _COMMANDS[args.command](cfg, args, report, outdir)
    except ConfigError as e:
        report["error"] = {"kind": "config", "message": str(e)}
        code = EXIT_CONFIG
    except NldsError as e:
        report["error"] = {"kind": type(e).__name__, "message": str(e)}
        code = next((c for t, c in _EXIT_CODES.items() if isinstance(e, t)),
                    EXIT_CONFIG)
    report["exit_code"] = code
    report["timings"] = {"wall_seconds": time.perf_counter() - t0}
    (outdir / "report.json").write_text(dumps_report(report))
    if not args.quiet:
        msg = report.get("error", {}).get("message", "ok")
        print(f"{args.command}: exit {code} ({msg}); report in {outdir}")
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
