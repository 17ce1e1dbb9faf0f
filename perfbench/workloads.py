"""Workloads of the nlds benchmark: the CLI jobs, the configs they read,
and the independent oracle every answer is checked against.

A job is a workload's fixed list of CLI invocations.  The workload seed
only draws each config's diffusion multiplier from [0.5, 2]; the program
sees nothing but the generated config files.  Across that range both
acceptance systems keep a certified principal eigenpair at n = 512, and
CASE_B stays in the squaring regime of the dense Perron engine.

The work depends on the multiplier (CASE_A needs the squaring phase only
below d ~ 0.7), so one draw per seed would make the job time depend on
the seed.  Instead the seed draws VARIANTS multipliers per config, one
from each equal log-width stratum of the range, and successive jobs
cycle through the variants: every run covers the whole range alike.

The oracle shares no code with nlds: it assembles the midpoint
quadrature matrix itself and takes the rightmost real part of its
spectrum from LAPACK.  The r0 answers have a closed form.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DOMAIN = (-1.0, 1.0)
GAUSS = "exp(-(x-y)^2)"
T_SCHEDULE = (1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0)
MULTIPLIER_RANGE = (0.5, 2.0)
VARIANTS = 4          # configs per name, one per stratum of the range
SPECIES = 2           # every system has l = 2; nodal matrices are 2 x 2

S_TOL = 1e-8          # |s - dense oracle|
R0_TOL = 1e-6         # |R0 - 1.5|
TILDE_R0_TOL = 1e-8   # |tilde R0 - 1.5|
R0_EXACT = 1.5        # beta_d/b + beta_i r/(b m) for the constant VSI model


@dataclass(frozen=True)
class CoopSystem:
    """One diffusing and one static species on DOMAIN, in config text
    and as numpy callables for the oracle."""

    coefficients: tuple      # 2 x 2 expression strings
    fields: object           # x -> 2 x 2 nested sequence of arrays
    case: str                # large-diffusion threshold outcome, A or B


# The acceptance suite's threshold systems (criteria 4 and 5).
CASE_A = CoopSystem(
    (("-1 - 0.2*x^2", "1"), ("1", "-1")),
    lambda x: ((-1.0 - 0.2 * x ** 2, np.ones_like(x)),
               (np.ones_like(x), -np.ones_like(x))), "A")
CASE_B = CoopSystem(
    (("-2", "0.1"), ("0.1", "-abs(x)^0.5")),
    lambda x: ((np.full_like(x, -2.0), np.full_like(x, 0.1)),
               (np.full_like(x, 0.1), -np.abs(x) ** 0.5)), "B")


def system_config(system: CoopSystem, n: int, d: float, extra=None) -> dict:
    cfg = {"domain": {"a": DOMAIN[0], "b": DOMAIN[1]}, "grid": {"n": n},
           "system": {"l": 2, "l1": 1, "d": [d, 0.0], "kernels": [GAUSS],
                      "coefficients": [list(r) for r in system.coefficients]}}
    cfg.update(extra or {})
    return cfg


def vsi_config(n: int, d: float) -> dict:
    """Constant-rate VSI model of acceptance criterion 12: R0 = 1.5 at
    every d, and the large-diffusion limit is a root case."""
    return {"domain": {"a": DOMAIN[0], "b": DOMAIN[1]}, "grid": {"n": n},
            "epidemic": {"kernel": GAUSS, "d": d, "r": "1", "m": "1",
                         "b": "1", "beta_d": "0.5", "beta_i": "1"}}


# --- oracle ---------------------------------------------------------------

def dense_matrix(system: CoopSystem, n: int, d: float) -> np.ndarray:
    """Midpoint quadrature of the operator, species-major, built from
    the closed-form coefficients."""
    a, b = DOMAIN
    h = (b - a) / n
    x = a + (np.arange(n) + 0.5) * h
    k = np.exp(-(x[:, None] - x[None, :]) ** 2)     # GAUSS
    chi = k.sum(axis=0) * h
    m = system.fields(x)
    P = np.zeros((2 * n, 2 * n))
    for i in range(2):
        for j in range(2):
            P[i * n:(i + 1) * n, j * n:(j + 1) * n] = np.diag(m[i][j])
    P[:n, :n] += d * (k * h - np.diag(chi))
    return P


def dense_s(system: CoopSystem, n: int, d: float) -> float:
    """Rightmost real part of the spectrum.  Both systems have equal
    off-diagonal couplings and a symmetric kernel, so their matrices are
    symmetric and the symmetric solver applies, 10x faster than
    np.linalg.eigvals at order 1024."""
    P = dense_matrix(system, n, d)
    if not np.array_equal(P, P.T):
        raise ValueError("the oracle needs a symmetric operator matrix")
    return float(np.max(np.linalg.eigvalsh(P)))


# --- invocations and their checks ----------------------------------------

@dataclass(frozen=True)
class ConfigSpec:
    system: CoopSystem | None    # None for the VSI model
    n: int
    d: float
    config: dict


@dataclass(frozen=True)
class Invocation:
    """One CLI call: `nlds <command> --config <config>.json`."""

    command: str
    config: str

    def oracle(self, spec: ConfigSpec) -> dict:
        """Reference values for this call; the costly ones come from a
        dense eigensolve, so compute them once per benchmark process."""
        if self.command in ("spectrum", "diagnose"):
            return {"s": dense_s(spec.system, spec.n, spec.d)}
        if self.command == "sweep":
            return {"s": [dense_s(spec.system, spec.n, spec.d * t)
                          for t in T_SCHEDULE]}
        return {}

    def check(self, spec: ConfigSpec, report: dict, oracle: dict) -> list:
        """Disagreements between a report and the oracle; empty when
        the answer is right."""
        bad = []
        if self.command == "spectrum":
            sp = report["spectral"]
            if not abs(sp["s"] - oracle["s"]) <= S_TOL:
                bad.append(f"s {sp['s']!r} vs oracle {oracle['s']!r}")
            if not sp["certificate"]["exists"]:
                bad.append("no certificate")
            if not sp["converged"]:
                bad.append("not converged")
        elif self.command == "sweep":
            rows = report["sweep"]["rows"]
            if [r["t"] for r in rows] != list(T_SCHEDULE):
                bad.append("sweep rows do not follow the schedule")
            for r, want in zip(rows, oracle["s"]):
                if not abs(r["s"] - want) <= S_TOL:
                    bad.append(f"t={r['t']}: s {r['s']!r} vs oracle {want!r}")
                if not r["converged"]:
                    bad.append(f"t={r['t']}: not converged")
            ref = {"A": "gamma_star", "B": "eta22"}[spec.system.case]
            if report["sweep"]["reference"] != ref:
                bad.append(f"sweep reference {report['sweep']['reference']} "
                           f"is not case {spec.system.case}")
        elif self.command == "diagnose":
            sp = report["diagnose"]["spectral"]
            if not abs(sp["s"] - oracle["s"]) <= S_TOL:
                bad.append(f"s {sp['s']!r} vs oracle {oracle['s']!r}")
            if not sp["converged"]:
                bad.append("not converged")
        elif self.command == "reduce":
            case = report["reduced"]["threshold"]["case"]
            if case != spec.system.case:
                bad.append(f"case {case} instead of {spec.system.case}")
        elif self.command == "r0":
            r = report["r0"]
            if not abs(r["r0"] - R0_EXACT) <= R0_TOL:
                bad.append(f"R0 {r['r0']!r} vs {R0_EXACT}")
            if r["limit"]["case"] != "root":
                bad.append(f"limit case {r['limit']['case']} is not root")
            elif not abs(r["tilde_r0"] - R0_EXACT) <= TILDE_R0_TOL:
                bad.append(f"tilde_r0 {r['tilde_r0']!r} vs {R0_EXACT}")
            if not r["converged"]:
                bad.append("not converged")
        return bad


@dataclass(frozen=True)
class Workload:
    name: str
    variants: tuple              # VARIANTS dicts: config name -> ConfigSpec
    job: tuple                   # Invocations, run in order

    def write_configs(self, directory: Path) -> list:
        """Write each variant's configs as <name>-<variant>.json; return
        one dict config name -> path per variant."""
        directory.mkdir(parents=True, exist_ok=True)
        out = []
        for k, specs in enumerate(self.variants):
            paths = {}
            for name, spec in specs.items():
                paths[name] = directory / f"{name}-{k}.json"
                paths[name].write_text(json.dumps(spec.config, indent=1))
            out.append(paths)
        return out

    def oracle(self) -> list:
        """Oracle values per variant, per invocation."""
        return [[inv.oracle(specs[inv.config]) for inv in self.job]
                for specs in self.variants]


SWEEP = {"sweep": {"mode": "large-d-degen", "t_schedule": list(T_SCHEDULE)}}

# name -> (config name -> (system, n, base d, extra sections)), job
_DEFINITIONS = {
    "certify": (
        {"case_a": (CASE_A, 512, 1.0, None),
         "case_b": (CASE_B, 512, 1.0, None)},
        (("spectrum", "case_a"), ("spectrum", "case_b"))),
    "study": (
        {"case_b": (CASE_B, 128, 1.0, SWEEP),
         "case_a": (CASE_A, 128, 1.0, SWEEP)},
        (("sweep", "case_b"), ("sweep", "case_a"), ("diagnose", "case_b"),
         ("reduce", "case_b"))),
    "r0-vsi": (
        {"vsi_d1": (None, 512, 1.0, None),
         "vsi_d100": (None, 512, 100.0, None)},
        (("r0", "vsi_d1"), ("r0", "vsi_d100"))),
}

WORKLOADS = tuple(_DEFINITIONS)


def multipliers(rng: random.Random) -> list:
    """One draw from each of VARIANTS equal log-width strata of
    MULTIPLIER_RANGE, in increasing order."""
    lo, hi = (math.log(v) for v in MULTIPLIER_RANGE)
    return [math.exp(lo + (hi - lo) * (k + rng.random()) / VARIANTS)
            for k in range(VARIANTS)]


def build(name: str, seed: int) -> Workload:
    """The workload's config variants, each config's diffusion rate
    scaled by multipliers drawn from the seed."""
    if name not in _DEFINITIONS:
        raise ValueError(f"unknown workload {name!r}; one of {WORKLOADS}")
    rng = random.Random(seed)
    configs, job = _DEFINITIONS[name]
    variants = [{} for _ in range(VARIANTS)]
    for cname, (system, n, d0, extra) in configs.items():
        for specs, mult in zip(variants, multipliers(rng)):
            d = d0 * mult
            cfg = (vsi_config(n, d) if system is None
                   else system_config(system, n, d, extra))
            specs[cname] = ConfigSpec(system, n, d, cfg)
    return Workload(name, tuple(variants),
                    tuple(Invocation(cmd, cfg) for cmd, cfg in job))
