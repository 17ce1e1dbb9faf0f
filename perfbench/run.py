"""Benchmark of the nlds command line, end to end and per layer.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout.  The load model is one process,
a closed loop with a single client: the next CLI invocation goes
through nlds.cli.run only after the previous one has returned.  Every
answer is checked against the independent oracle of workloads.py.

--trace 0 measures the end-to-end metrics.  --trace 1 runs each job
twice, untraced and then with the span recorder of tracing.py installed,
and reports the per-layer metrics plus the tracing overhead (traced
minus untraced median job time).  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics;
the line before it carries the environment and the details behind the
metrics.  Metric names and units are those listed in BENCHMARK.json.
End-to-end times are each scaled to a reference host speed
(calibration.py); the raw times are in the detail line.  A run measures whole cycles of
the workload's config variants, so each variant counts alike.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One BLAS thread: on a 2-CPU host a second thread spins between BLAS
# calls and competes with the interpreter, and job times wander more.
BLAS_THREADS = 1
TAIL_PERCENTILE = 75  # job_tail_s
MIN_JOBS = 10         # the fewest job times a percentile is taken of
MIN_TRACED_JOBS = 3   # pairs of untraced and traced jobs
SETUP_REPS = 15       # fresh interpreters timed for setup_s, after one warm-up
CHILD_TIMEOUT = 120
LOAD_MODEL = ("one process, closed loop, one client, one CLI invocation "
              "at a time")

# Time a fresh interpreter spends importing nlds.cli and loading a config.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import nlds.cli
nlds.cli.load_config(sys.argv[2])
print(time.perf_counter() - t0)
"""

# The oracle is not timed, so it may use every CPU.
_ORACLE_CHILD = """
import json, os, sys
os.environ["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
sys.path.insert(0, sys.argv[1])
import workloads
print(json.dumps(workloads.build(sys.argv[2], int(sys.argv[3])).oracle()))
"""


def fix_blas_threads() -> int:
    """Pin the BLAS pool size; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def _child(code: str, *args) -> str:
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT, cwd=ROOT)
    return done.stdout


def setup_time(config_path: Path) -> float:
    """Seconds a fresh interpreter takes to import nlds.cli and load the
    config."""
    return float(_child(_SETUP_CHILD, SRC, config_path))


def compute_oracle(workload: str, seed: int) -> list:
    """Oracle values per invocation, computed in a child process so that
    the dense eigensolves do not count in this process's peak memory."""
    return json.loads(_child(_ORACLE_CHILD, HERE, workload, seed))


def _openblas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def environment(threads: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": threads, "threads_reported": _openblas_threads()},
            "nproc": len(os.sched_getaffinity(0)), "load_model": LOAD_MODEL}


class Job:
    """Runs a workload's job through nlds.cli.run and checks its answers.

    Successive jobs cycle through the workload's config variants.
    """

    def __init__(self, cli, workload, oracle, directory: Path):
        self.cli = cli
        self.workload = workload
        self.oracle = oracle
        self.paths = workload.write_configs(directory / "configs")
        self.outs = [directory / f"out{k}" for k in range(len(workload.job))]
        self.failures: list = []

    @property
    def first_config(self) -> Path:
        return self.paths[0][self.workload.job[0].config]

    def __call__(self, index: int, tracer=None) -> tuple:
        """Job number `index`, traced if a tracer is given; returns (wall
        seconds, failed invocations)."""
        if tracer is None:
            return self._run(index, None)
        tracer.job = index
        with tracer.installed():
            return self._run(index, tracer)

    def _run(self, index: int, tracer) -> tuple:
        variant = index % len(self.paths)
        argvs = [[inv.command, "--config", str(self.paths[variant][inv.config]),
                  "--out", str(out), "--quiet"]
                 for inv, out in zip(self.workload.job, self.outs)]
        for out in self.outs:   # a report the job did not write is no answer
            (out / "report.json").unlink(missing_ok=True)
        codes = []
        t0 = time.perf_counter()
        for argv in argvs:
            with tracer.span("cli.run") if tracer else nullcontext():
                try:
                    codes.append(self.cli.run(argv))
                except Exception:   # a crash is a failed invocation
                    codes.append(traceback.format_exc(limit=-3))
        wall = time.perf_counter() - t0
        failed = 0
        for inv, out, code, oracle in zip(self.workload.job, self.outs, codes,
                                          self.oracle[variant]):
            if code != 0:
                bad = [f"exit {code}"]
            else:
                try:
                    report = json.loads((out / "report.json").read_text())
                    bad = inv.check(self.workload.variants[variant][inv.config],
                                    report, oracle)
                except OSError as e:
                    bad = [f"no report: {e}"]
                except (KeyError, TypeError, ValueError) as e:
                    bad = [f"report lacks {e!r}"]
            if bad:
                failed += 1
                if len(self.failures) < 5:
                    self.failures.append(
                        f"{inv.command} {inv.config}-{variant}: "
                        + "; ".join(bad))
        return wall, failed


def closed_loop(step, seconds: float, min_steps: int, between=None,
                between_count: int = 0, cycle: int = 1) -> list:
    """Call step(0), step(1), ... back to back for about `seconds`, in
    whole cycles of `cycle` steps and at least `min_steps` (>= 1) steps;
    return their results.  The run ends at the end of the cycle nearest
    to `seconds`.

    between() is called between_count times between steps, spread evenly
    over the run: the host's speed drifts over seconds, and samples taken
    in one burst would all share it.
    """
    results, done = [], 0
    start = time.perf_counter()
    while True:
        n, elapsed = len(results), time.perf_counter() - start
        # half a cycle more would overrun `seconds`: stop
        if n >= min_steps and n % cycle == 0 and \
                elapsed * (1 + cycle / (2 * n)) >= seconds:
            break
        if done < between_count and done * seconds < between_count * elapsed:
            between()
            done += 1
        results.append(step(n))
    for _ in range(done, between_count):
        between()
    return results


def tail(walls: list) -> float:
    """The TAIL_PERCENTILE-th percentile of the job times, interpolated
    between the two nearest.  A certify run has too few jobs (12-16) for
    a higher percentile to be steady from run to run."""
    return statistics.quantiles(walls, n=100, method="inclusive")[
        TAIL_PERCENTILE - 1]


def end_to_end(walls, attempted, failed, setup) -> dict:
    """The end-to-end metrics from the job and set-up times."""
    return {
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail(walls),
        "setup_s": statistics.median(setup),
        "success_frac": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(tracer, names, traced_walls, untraced_walls) -> dict:
    """Median per-job self time and counts of each layer, and the
    tracing overhead."""
    out = tracer.medians(n for n in names if n != "trace.overhead_s")
    out["trace.overhead_s"] = (statistics.median(traced_walls)
                               - statistics.median(untraced_walls))
    return out


def declared_metrics(trace: int) -> dict:
    """name -> unit of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace
                                                else "end_to_end"]}


def to_metrics(values: dict, declared: dict) -> dict:
    if set(values) != set(declared):
        raise RuntimeError(f"computed metrics {sorted(values)} differ from "
                           f"BENCHMARK.json {sorted(declared)}")
    return {n: {"value": values[n], "unit": declared[n]} for n in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = fix_blas_threads()
    if not (SRC / "nlds" / "cli.py").is_file():
        print(f"no nlds sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import calibration
    import nlds.cli as cli
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    declared = declared_metrics(args.trace)
    workload = workloads.build(args.workload, args.seed)
    job = Job(cli, workload, compute_oracle(args.workload, args.seed),
              OUT / args.workload)
    setup_time(job.first_config)   # warm-up: bytecode cache
    job(0)   # warm-up: lazy imports, BLAS pool, page cache

    detail = {"workload": args.workload, "seed": args.seed,
              "d": [{k: s.d for k, s in v.items()} for v in workload.variants],
              "environment": environment(threads)}
    if args.trace:
        tracer = tracing.Tracer(nodal_max_order=workloads.SPECIES)
        # Each config variant runs untraced, then traced, so both halves
        # see the same host speed and their difference is the overhead.
        pairs = closed_loop(lambda i: (job(i), job(i, tracer)), args.seconds,
                            MIN_TRACED_JOBS, cycle=len(workload.variants))
        untraced = [plain[0] for plain, _ in pairs]
        traced = [tr[0] for _, tr in pairs]
        attempted = 2 * len(pairs) * len(workload.job)
        failed = sum(p[0][1] + p[1][1] for p in pairs)
        values = layer_metrics(tracer, declared, traced, untraced)
        spans_path = OUT / f"spans-{args.workload}.jsonl"
        tracer.dump(spans_path)
        p50 = statistics.median(traced)
        detail.update(jobs={"untraced": len(untraced), "traced": len(traced)},
                      spans=str(spans_path.relative_to(ROOT)),
                      self_time_share={n: v / p50 for n, v in sorted(
                          values.items(), key=lambda kv: -kv[1])
                          if n.endswith("_s") and n != "trace.overhead_s"})
    else:
        # (scaled, raw) seconds of each job and set-up child
        cal = calibration.Calibration()
        setup: list = []
        results = closed_loop(
            lambda i: cal.bracket(lambda: job(i)), args.seconds, MIN_JOBS,
            lambda: setup.append(cal.bracket(
                lambda: (setup_time(job.first_config),))),
            SETUP_REPS, cycle=len(workload.variants))
        walls = [scaled for scaled, _, _ in results]
        raw = [wall for _, wall, _ in results]
        attempted = len(results) * len(workload.job)
        failed = sum(f for _, _, f in results)
        values = end_to_end(walls, attempted, failed,
                            [scaled for scaled, _ in setup])
        detail.update(jobs=len(walls),
                      job_tail={"percentile": TAIL_PERCENTILE,
                                "samples": len(walls)},
                      calibration={"reference_s": calibration.REFERENCE_S,
                                   "median_s": statistics.median(cal.samples)},
                      raw={"job_p50_s": statistics.median(raw),
                           "job_tail_s": tail(raw),
                           "setup_s": statistics.median(r for _, r in setup)},
                      walls=raw, setup_samples=[r for _, r in setup])
    detail["failures"] = job.failures
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": to_metrics(values, declared)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
