"""Command-line entry point: config ingestion, dispatch, and report
persistence.

One JSON config describes the domain, grid, system, solver knobs, and
per-command sections; expression-valued fields are strings in the small
arithmetic language.  The schema table _SCHEMA states the format, and
the module's own checker, _schema_errors, holds a config to it.  Each
run writes <out>/report.json plus CSV sidecars for tabular results.
This module is the one place that decides both formats: a result object
goes into the report as it is and is written as the dict of its fields,
so a report key is a field name.  All decimals carry 17 significant
digits, and repeated runs with the same config, seed and BLAS thread
count are byte-identical (timings excepted, which live under a separate
key); a different thread count can move the last digit of a solve.

Exit codes: 0 success, 1 validation failure, 2 numerical failure
(solver non-convergence, inconsistent certificate or grid consistency),
3 config or other input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (SWEEP_MODES, ProbeResult, SweepRow,
                       generalized_eigen_residual, integrability_diagnostic,
                       perturbation_probe, refinement_grids, spectral_field,
                       sweep)
from .assembly import (assemble_operator, dump_matrix, pointwise_A,
                       sample_fields)
from .epidemic import VSIParams, compute_r0_report
from .errors import (CertificateInconsistencyError, ConfigError,
                     GridConsistencyError, NldsError, NonConvergenceError,
                     ValidationGateError)
from .grid import build_grid
from .matspec import MAX_ITERATIONS, nodal_bounds
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
                "mode": {"enum": list(SWEEP_MODES)},
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


def _is(v, json_type: str) -> bool:
    return not isinstance(v, bool) and isinstance(v, {
        "object": dict, "array": list, "string": str, "null": type(None),
        "integer": int, "number": (int, float)}[json_type]) and (
            not isinstance(v, float) or np.isfinite(v))   # not NaN, inf


def _schema_errors(v, schema: dict, path: tuple = ()):
    """Yield (path, message) for each way v breaks schema, in jsonschema's
    words; keywords: type, enum, minimum, exclusiveMinimum, minItems,
    maxItems, items, properties, required, additionalProperties: false.
    An integer is an int (not 64.0); a number is finite and not a bool."""
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types and not any(_is(v, t) for t in types):
        yield path, f"{v!r} is not of type {', '.join(map(repr, types))}"
    if v not in schema.get("enum", [v]):
        yield path, f"{v!r} is not one of {schema['enum']!r}"
    if _is(v, "number"):
        for key, eq in ("minimum", ""), ("exclusiveMinimum", "or equal to "):
            if v < schema.get(key, v) or eq and v == schema.get(key):
                yield path, f"{v!r} is less than {eq}the minimum of {schema[key]!r}"
    elif isinstance(v, list):
        if len(v) < schema.get("minItems", 0):
            short = ("is too short", "should be non-empty")[schema["minItems"] == 1]
            yield path, f"{v!r} {short}"
        if len(v) > schema.get("maxItems", len(v)):
            yield path, f"{v!r} is too long"
        for i, item in enumerate(v if "items" in schema else ()):
            yield from _schema_errors(item, schema["items"], path + (i,))
    elif isinstance(v, dict):
        extra = sorted(set(v) - set(schema.get("properties", ())))
        if extra and schema.get("additionalProperties") is False:
            yield path, ("Additional properties are not allowed ("
                         f"{', '.join(map(repr, extra))} "
                         f"{'was' if len(extra) == 1 else 'were'} unexpected)")
        yield from ((path, f"{k!r} is a required property")
                    for k in schema.get("required", ()) if k not in v)
        for k, sub in schema.get("properties", {}).items():
            if k in v:
                yield from _schema_errors(v[k], sub, path + (k,))


# --- deterministic JSON and CSV with 17-significant-digit decimals -------

def _json_value(v, out: list, indent: int) -> None:
    """Append v as JSON: a dataclass as the dict of its fields whose repr
    is on, an Enum as its value and an ndarray as nested lists."""
    pad = "  " * indent
    if dataclasses.is_dataclass(v):
        v = {f.name: getattr(v, f.name) for f in dataclasses.fields(v)
             if f.repr}
    elif isinstance(v, Enum):
        v = v.value
    elif isinstance(v, np.ndarray):
        v = v.tolist()
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


def write_csv(path, header, rows) -> None:
    """CSV table with a header line: numbers carry 17 significant
    digits and booleans read true/false."""
    def cell(v) -> str:
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        return format(float(v), ".17g")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell(v) for v in row) + "\n")


# --- config handling ------------------------------------------------------

def load_config(path: str) -> dict:
    """The config at path, checked against _SCHEMA by _schema_errors."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    # of several errors the shallowest, and among those the largest path
    e = max(_schema_errors(cfg, _SCHEMA), default=None,
            key=lambda e: (-len(e[0]), e[0]))
    if e is not None:
        path_str = "/".join(map(str, e[0])) or "<root>"
        raise ConfigError(f"config invalid at {path_str}: {e[1]}")
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
    """The system and its one sampling on the run grid, behind the
    validation gate: records the validation report of those samples and
    raises ValidationGateError unless it passed or --force."""
    system, g = build_objects(cfg, args.n)
    fields = sample_fields(system, g)
    vr = report["validation"] = validate(system, fields)
    if not vr.passed and not args.force:
        raise ValidationGateError(vr)
    return system, fields


def solver_opts(cfg: dict) -> dict:
    s = cfg.get("solver", {})
    return {"tol": s.get("tol", 1e-10), "gap_tol": s.get("gap_tol"),
            "max_iterations": s.get("max_iterations", MAX_ITERATIONS)}


# --- subcommands ----------------------------------------------------------

def cmd_validate(cfg, args, report, outdir) -> int:
    system, g = build_objects(cfg, args.n)
    vr = report["validation"] = validate(system, sample_fields(system, g))
    return EXIT_OK if vr.passed else EXIT_VALIDATION


def cmd_spectrum(cfg, args, report, outdir) -> int:
    system, fields = validated_objects(cfg, args, report)
    opts = solver_opts(cfg)
    P = assemble_operator(system, fields.grid, force=True, fields=fields)
    sr = compute_spectral_report(P, **opts)
    report["spectral"] = vars(sr) | {"tol": opts["tol"]}
    return EXIT_OK if sr.converged else EXIT_NONCONVERGENCE


def cmd_reduce(cfg, args, report, outdir) -> int:
    system, fields = validated_objects(cfg, args, report)
    budget = solver_opts(cfg)["max_iterations"]
    weights = weights_for_system(system, fields, budget)
    rq = reduced_quantities(system, fields, weights, budget)
    report["reduced"] = rq
    write_csv(outdir / "weights.csv", ["species", "x", "weight"],
              ((i + 1, x, p) for i, wgt in enumerate(weights.weights)
               for x, p in zip(fields.grid.points, wgt)))
    return EXIT_OK


def cmd_sweep(cfg, args, report, outdir) -> int:
    _require(cfg, "sweep")
    system, fields = validated_objects(cfg, args, report)
    opts = solver_opts(cfg)
    table = sweep(system, fields, cfg["sweep"]["t_schedule"],
                  cfg["sweep"]["mode"], tol=opts["tol"],
                  max_iterations=opts["max_iterations"])
    report["sweep"] = table
    write_csv(outdir / "sweep.csv",
              [f.name for f in dataclasses.fields(SweepRow)],
              map(dataclasses.astuple, table.rows))
    ok = all(r.converged for r in table.rows)
    return EXIT_OK if ok else EXIT_NONCONVERGENCE


def cmd_diagnose(cfg, args, report, outdir) -> int:
    system, fields = validated_objects(cfg, args, report)
    g = fields.grid
    opts = solver_opts(cfg)
    region = tuple(cfg.get("diagnose", {}).get("region",
                                               [system.domain[0], system.domain[1]]))
    n_list = cfg.get("grid", {}).get(
        "refinements", [k for k in (g.n // 4, g.n // 2, g.n) if k >= 1])
    grids = refinement_grids(system.domain[0], system.domain[1], n_list)
    field = spectral_field(system, fields)   # eta: the essential bound of P
    diag = integrability_diagnostic(
        lambda gg: field.H if gg.n == g.n else
        nodal_bounds(pointwise_A(system, sample_fields(system, gg))),
        grids, region)
    report["diagnose"] = {"integrability": diag}
    P = assemble_operator(system, g, force=True, fields=fields)
    sr = compute_spectral_report(P, s_e=field.eta, **opts)
    report["diagnose"]["spectral"] = sr
    report["diagnose"]["field"] = {
        "eta": field.eta,
        "max_h": float(np.max(field.h)),
        "nodewise_h_le_H": bool(np.all(field.h <= field.H + 1e-10)),
    }
    if (system.l1 < system.l and sr.gap > 0
            and isinstance(sr.certificate, Exists)):
        resid = generalized_eigen_residual(
            system, fields, sr.s, tol=opts["tol"],
            max_iterations=opts["max_iterations"])
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
    report["r0"] = rep
    write_csv(outdir / "q_samples.csv", ["mu", "Q"], rep.q_samples)
    return EXIT_OK if rep.converged else EXIT_NONCONVERGENCE


def cmd_oracle(cfg, args, report, outdir) -> int:
    system, fields = validated_objects(cfg, args, report)
    P = assemble_operator(system, fields.grid, force=True, fields=fields)
    vals = dense_spectrum(P)
    report["oracle"] = {
        "size": len(P),
        "max_real": float(vals[0].real),
        "count": int(len(vals)),
    }
    write_csv(outdir / "eigenvalues.csv", ["re", "im"],
              ((v.real, v.imag) for v in vals))
    dump_matrix(P.matrix, outdir / "operator.bin")
    return EXIT_OK


def cmd_probe(cfg, args, report, outdir) -> int:
    system, fields = validated_objects(cfg, args, report)
    pc = cfg.get("probe", {})
    deltas = pc.get("delta_schedule", [1e-2, 1e-3, 1e-4, 1e-5])
    draws = pc.get("draws", 3)
    shift = pc.get("diagonal_shift")
    opts = solver_opts(cfg)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    probe = perturbation_probe(system, fields, tol=opts["tol"],
                               max_iterations=opts["max_iterations"])
    results = []
    for delta in deltas:
        for k in range(draws):
            results.append(vars(probe(delta, seed + k))
                           | {"delta": delta, "draw": k})
    if shift is not None:
        report["probe_diagonal_shift"] = probe(0.0, seed,
                                               diagonal_shift=shift)
    report["probe"] = {"deltas": list(deltas), "draws": draws,
                       "results": results}
    cols = ["delta", "draw",
            *(f.name for f in dataclasses.fields(ProbeResult))]
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
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default="./out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed override (default: config seed or 0)")
    parser.add_argument("--n", type=int, default=None,
                        help="grid-size override")
    parser.add_argument("--force", action="store_true",
                        help="run even if validation fails")
    parser.add_argument("--quiet", action="store_true")
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
