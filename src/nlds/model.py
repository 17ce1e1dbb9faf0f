"""Continuum problem definition and validation.

A dispersal system couples l species on an interval: the first l1
species redistribute through nonnegative kernels k_i(x, y) while the
rest only react, and an l x l coefficient field M(x) couples them.  The
validator samples the structural requirements on a grid: cooperativity
(off-diagonal entries of M nonnegative), irreducibility of the coupling
pattern at every node, kernel nonnegativity with a positive diagonal,
and the sign pattern of the diffusion vector.  Failures are collected
into a report rather than raised, so a run can list every violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import exprlang
from .errors import DimensionError
from .exprlang import Expr
from .grid import Grid
from .matspec import TOL_ZERO, is_irreducible


@dataclass(frozen=True)
class KernelSpec:
    """Dispersal kernel k(x, y); units 1/length so row integrals are rates."""

    expr: Expr

    @classmethod
    def from_text(cls, text: str) -> "KernelSpec":
        return cls(exprlang.parse(text))

    def sample(self, grid: Grid) -> np.ndarray:
        """Raw kernel values k(x_a, x_b) at all node pairs, shape (n, n)."""
        x = grid.points[:, None]
        y = grid.points[None, :]
        out = exprlang.eval_expr(self.expr, x=x, y=y)
        return np.broadcast_to(np.asarray(out, dtype=float), (grid.n, grid.n)).copy()


@dataclass(frozen=True)
class CoefField:
    """l x l field of coupling coefficients m_ij(x); units 1/time."""

    l: int
    entries: tuple  # tuple of l tuples of Expr

    @classmethod
    def from_text(cls, rows: list[list[str]]) -> "CoefField":
        l = len(rows)
        if any(len(r) != l for r in rows):
            raise DimensionError("coefficient field must be square")
        return cls(l, tuple(tuple(exprlang.parse(s) for s in r) for r in rows))

    def sample(self, grid: Grid) -> np.ndarray:
        """Nodal coefficient matrices, shape (n, l, l)."""
        out = np.empty((grid.n, self.l, self.l))
        for i in range(self.l):
            for j in range(self.l):
                v = exprlang.eval_expr(self.entries[i][j], x=grid.points)
                out[:, i, j] = np.broadcast_to(np.asarray(v, dtype=float), (grid.n,))
        return out


class Mode(Enum):
    NON_DEGENERATE = "non-degenerate"
    PARTIALLY_DEGENERATE = "partially-degenerate"


@dataclass(frozen=True)
class DispersalSystem:
    """The continuum problem: species counts, diffusion rates, kernels,
    coefficient field, and the interval (a, b).

    Species order is the user's: diffusing species come first.  d has
    one entry per species; kernels has one entry per diffusing species.
    """

    l: int
    l1: int
    d: tuple
    kernels: tuple  # l1 KernelSpecs
    coefficients: CoefField
    domain: tuple  # (a, b)

    def __post_init__(self):
        if not 1 <= self.l1 <= self.l:
            raise DimensionError(f"need 1 <= l1 <= l, got l1={self.l1}, l={self.l}")
        if len(self.d) != self.l:
            raise DimensionError(f"need {self.l} diffusion rates, got {len(self.d)}")
        if len(self.kernels) != self.l1:
            raise DimensionError(
                f"need {self.l1} kernels for the diffusing species, got {len(self.kernels)}")
        if self.coefficients.l != self.l:
            raise DimensionError("coefficient field order differs from species count")

    def with_d(self, d) -> "DispersalSystem":
        """Copy with a different diffusion vector (same shape)."""
        return DispersalSystem(self.l, self.l1, tuple(float(v) for v in d),
                               self.kernels, self.coefficients, self.domain)

    @property
    def mode(self) -> Mode:
        if all(v > 0 for v in self.d):
            return Mode.NON_DEGENERATE
        return Mode.PARTIALLY_DEGENERATE


@dataclass(frozen=True)
class Violation:
    check: str       # cooperativity | irreducibility | kernel-nonnegativity
    #                  | kernel-diagonal | diffusion-pattern
    where: str       # offending node / node pair / index, human readable
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    mode: Mode
    violations: tuple = ()
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "passed": self.passed,
            "violations": [
                {"check": v.check, "where": v.where, "detail": v.detail}
                for v in self.violations
            ],
            "notes": list(self.notes),
        }


def validate(sys: DispersalSystem, grid: Grid) -> ValidationReport:
    """Check the structural requirements on grid samples.

    Every violated check at every offending node is listed, not only the
    first.  Sampling at nodes cannot see violations between nodes; that
    limitation is the configuration author's responsibility.
    """
    violations: list[Violation] = []
    notes: list[str] = []
    pts = grid.points

    Ms = sys.coefficients.sample(grid)
    off = Ms.copy()
    idx = np.arange(sys.l)
    off[:, idx, idx] = 0.0
    bad = np.argwhere(off < -TOL_ZERO)
    for a, i, j in bad:
        violations.append(Violation(
            "cooperativity", f"x={pts[a]:.6g}, entry ({i+1},{j+1})",
            f"m[{i+1}][{j+1}] = {Ms[a, i, j]:.6g} < 0"))

    for a in np.flatnonzero(~is_irreducible(off)):
        violations.append(Violation(
            "irreducibility", f"x={pts[a]:.6g}",
            "coupling pattern is not strongly connected"))

    for i, kern in enumerate(sys.kernels):
        raw = kern.sample(grid)
        neg = np.argwhere(raw < -TOL_ZERO)
        for a, b in neg[:50]:
            violations.append(Violation(
                "kernel-nonnegativity",
                f"kernel {i+1} at (x,y)=({pts[a]:.6g},{pts[b]:.6g})",
                f"k = {raw[a, b]:.6g} < 0"))
        if len(neg) > 50:
            notes.append(f"kernel {i+1}: {len(neg)} negative pairs, first 50 listed")
        diag = np.diag(raw)
        for a in np.nonzero(diag <= TOL_ZERO)[0]:
            violations.append(Violation(
                "kernel-diagonal", f"kernel {i+1} at x={pts[a]:.6g}",
                f"k(x,x) = {diag[a]:.6g} is not positive"))

    d = np.asarray(sys.d, dtype=float)
    mode = sys.mode
    if np.any(d < 0):
        i = int(np.argmin(d))
        violations.append(Violation(
            "diffusion-pattern", f"species {i+1}", f"d = {d[i]:.6g} < 0"))
    elif np.all(d == 0):
        # zero-diffusion limit: the operator degenerates to pointwise
        # multiplication by M(x); accepted, but outside both standard modes
        notes.append("all diffusion rates are zero (pure multiplication operator)")
    elif mode is Mode.NON_DEGENERATE:
        pass
    else:
        head_ok = all(v > 0 for v in d[:sys.l1])
        tail_ok = all(v == 0 for v in d[sys.l1:])
        if not (head_ok and tail_ok):
            violations.append(Violation(
                "diffusion-pattern", f"d={tuple(sys.d)!r}, l1={sys.l1}",
                "diffusing species must come first: expected d > 0 exactly "
                "on the leading l1 entries"))

    return ValidationReport(mode=mode, violations=tuple(violations),
                            notes=tuple(notes))
