"""Span recorder for the traced benchmark run.

Each traced public function of nlds is replaced, in every nlds module
that holds a binding to it, by a wrapper that records a span: name,
start, end, parent span and job id.  Spans stay in memory until the run
ends.  A span's self time is its duration minus the durations of its
direct children, which in a single thread cover disjoint parts of it.

matspec.metzler_bound is split by the order of its argument: matrices of
order at most the species count are nodal (one per grid node), larger
ones are the dense operator or a kernel matrix.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# module -> traced public functions; a span is named <module>.<function>
TRACED = {
    "cli": ("load_config",),
    "model": ("validate",),
    "exprlang": ("eval_expr",),
    "assembly": ("sample_fields", "assemble_operator"),
    "matspec": ("metzler_bound",),
    "opspec": ("spectral_bound", "essential_bound", "principal_certificate"),
    "reduce": ("weights_for_system", "reduced_quantities",
               "classify_threshold"),
    "analysis": ("sweep", "spectral_field", "integrability_diagnostic"),
    "epidemic": ("sample_params", "r0", "r0_large_d_limit", "H_mu"),
}
SPAN_NAMES = {"exprlang.eval_expr": "exprlang.eval"}


class Tracer:
    """In-memory spans and per-job counters of one traced run."""

    def __init__(self, nodal_max_order: int):
        self.nodal_max_order = nodal_max_order
        self.spans: list = []        # [name, start, end, parent, job]
        self.counts = defaultdict(int)   # (job, counter) -> total
        self.job = None
        self._open: list = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name: str):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name
            if name == "matspec.metzler_bound":
                order = len(args[0] if args else kwargs["A"])
                big = order > self.nodal_max_order
                span = "matspec.dense_bound" if big else "matspec.nodal_bound"
            with self.span(span):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, span, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block.

        Raises AttributeError if a traced function no longer exists, so
        a renamed layer fails the run instead of reporting zero.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if name == "nlds" or name.startswith("nlds.")]
        patched = []
        try:
            for mod_name, funcs in TRACED.items():
                module = importlib.import_module(f"nlds.{mod_name}")
                for func in funcs:
                    if not callable(getattr(module, func, None)):
                        raise AttributeError(
                            f"traced function nlds.{mod_name}.{func} "
                            f"no longer exists")
                    original = getattr(module, func)
                    name = f"{mod_name}.{func}"
                    wrapper = self._wrap(original, SPAN_NAMES.get(name, name))
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, attr, wrapper)
                                patched.append((m, attr, original))
            yield self
        finally:
            for m, attr, original in reversed(patched):
                setattr(m, attr, original)

    def per_job(self) -> dict:
        """job -> {<span>_s: self time, <span>_calls: count, counters}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            out[job][name + "_s"] += end - start - child[i]
            out[job][name + "_calls"] += 1
        for (job, counter), value in self.counts.items():
            out[job][counter] += value
        return out

    def medians(self, names) -> dict:
        """Median over jobs of each named per-job figure (0 if absent)."""
        jobs = self.per_job()
        return {n: statistics.median(j.get(n, 0.0) for j in jobs.values())
                for n in names}

    def dump(self, path) -> None:
        """Write the spans as one JSON array per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "job"])
                     + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _count_dense_iters(tracer, span, result):
    if span == "matspec.dense_bound":
        tracer.counts[(tracer.job, "matspec.dense_bound_iters")] += \
            result.iterations


def _count_solver(tracer, span, result):
    tracer.counts[(tracer.job, "opspec.spectral_bound_iters")] += \
        result.iterations
    tracer.counts[(tracer.job, "opspec.nonconverged")] += \
        int(not result.converged)


_AFTER = {"matspec.metzler_bound": _count_dense_iters,
          "opspec.spectral_bound": _count_solver}
