"""Reduced quantities governing the diffusion limits of the spectral
bound.

Each diffusing species has a stationary dispersal profile p (Perron
weight): the strictly positive, mass-one solution of the balance
equation  integral k(x, y) p(y) dy = chi(x) p(x).  Averaging the
coefficient field against these profiles produces the matrix whose
spectral bound is the large-diffusion limit in the fully diffusing case.
In the partially degenerate case the limit is instead governed by the
averaged Schur-reduced family B~_gamma: either it has a fixed point
gamma* = s(B~_gamma*) above the static-block bound (case A) or the
spectral bound collapses onto that static-block bound (case B).  The
one-sided limit deciding between the two cannot be computed from finite
samples, so the classifier brackets it on a fixed epsilon ladder with an
explicit margin and reports the ladder.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .assembly import kernel_quadrature
from .errors import (ClassificationError, GridConsistencyError,
                     InvalidParametersError, ResolventDomainError)
from .grid import Grid
from .matspec import (CoopMatrix, NearSingularWarning, _converged_bound,
                      max_nodal_bound, metzler_bound, nodal_bounds,
                      perron_bound, schur_reduce_stack)
from .model import DispersalSystem, KernelSpec, Mode

EPS_LADDER = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
MONO_TOL = 1e-10         # ladder values may dip by this much (rounding)
PERRON_TOL = 1e-12       # Noda tolerance of the dispersal profiles
BISECT_TOL = 1e-10
BISECT_CAP = 200


@dataclass(frozen=True)
class PerronWeight:
    """Stationary dispersal profile of one kernel on one grid."""

    samples: np.ndarray
    eigenvalue_dev: float    # |lambda - 1|; exactly 1 in the continuum
    residual: float          # ||K p - chi p||_inf
    iterations: int
    converged: bool


def perron_weight(kernel: KernelSpec, grid: Grid) -> PerronWeight:
    """Perron vector of diag(chi)^{-1} K by Noda iteration to PERRON_TOL,
    normalized to unit mass.

    The weighted node masses w_a chi(x_a) form an exact discrete left
    eigenvector at eigenvalue one, so the converged eigenvalue must sit
    within 100*PERRON_TOL of one; a larger deviation signals an
    inconsistent grid and raises.
    """
    K, chi = kernel_quadrature(kernel.sample(grid), grid)
    return _sampled_perron_weight(K, chi, grid)


def _sampled_perron_weight(K: np.ndarray, chi: np.ndarray,
                           grid: Grid) -> PerronWeight:
    """perron_weight from the kernel's quadrature (K, chi)."""
    if np.min(chi) <= 0:
        raise InvalidParametersError("kernel has a node with zero departure rate")
    r = metzler_bound(K / chi[:, None], tol=PERRON_TOL)
    p = r.vector.copy()
    if np.min(p) <= 0:
        raise GridConsistencyError(
            f"dispersal profile has a non-positive sample {np.min(p):.3g}")
    dev = abs(r.value - 1.0)
    if dev > 100.0 * PERRON_TOL:
        raise GridConsistencyError(
            f"normalized kernel eigenvalue deviates from one by {dev:.3g}; "
            f"refine the grid")
    p /= float(p @ grid.weights)
    residual = float(np.max(np.abs(K @ p - chi * p)))
    return PerronWeight(samples=p, eigenvalue_dev=dev, residual=residual,
                        iterations=r.iterations, converged=r.converged)


@dataclass(frozen=True)
class SystemWeights:
    """Per-species weights; species without kernels fall back to the
    uniform profile 1/(b - a) and are flagged."""

    weights: tuple           # l arrays (n,)
    uniform_fallback: tuple  # l bools


def weights_for_system(sys: DispersalSystem, grid: Grid) -> SystemWeights:
    ws, fallback = [], []
    uniform = np.full(grid.n, 1.0 / (grid.b - grid.a))
    for i in range(sys.l):
        if i < sys.l1:
            ws.append(perron_weight(sys.kernels[i], grid).samples)
            fallback.append(False)
        else:
            ws.append(uniform.copy())
            fallback.append(True)
    return SystemWeights(weights=tuple(ws), uniform_fallback=tuple(fallback))


def p_weighted_mean(F: np.ndarray, weights: SystemWeights,
                    grid: Grid) -> np.ndarray:
    """Column-weighted averages integral F_ij(x) p_j(x) dx of a nodal
    field F (n, k, k'), column j weighted by species j's profile."""
    col_w = np.stack([weights.weights[j] * grid.weights
                      for j in range(F.shape[-1])], axis=1)
    return np.einsum("aij,aj->ij", F, col_w)


def reduced_tilde_M(sys: DispersalSystem, grid: Grid,
                    weights: SystemWeights) -> CoopMatrix:
    """Column-weighted averages m~_ij = integral m_ij(x) p_j(x) dx."""
    return CoopMatrix(p_weighted_mean(sys.coefficients.sample(grid),
                                      weights, grid))


def kappa_and_eta22(sys: DispersalSystem, grid: Grid) -> tuple[float, float]:
    """(max_a s(M(x_a)), max_a s(M22(x_a))); the second is -inf when
    every species diffuses (empty trailing block).

    Both are max_nodal_bound: a batched eig gives only a test vector
    per node, the Collatz-Wielandt brackets at those vectors rule out
    the nodes below the maximum, and Noda runs on the rest."""
    Ms = sys.coefficients.sample(grid)
    return max_nodal_bound(Ms), static_block_bound(Ms, sys.l1)


def static_block_bound(Ms: np.ndarray, l1: int) -> float:
    """eta22 = max_a s(M22(x_a)) of the nodal matrices Ms (n, l, l);
    -inf when the trailing block is empty."""
    return max_nodal_bound(Ms[:, l1:, l1:])


def tilde_B(sys: DispersalSystem, grid: Grid, weights: SystemWeights,
            gamma: float) -> CoopMatrix:
    """Average of the nodal Schur reductions of M(x) at parameter gamma,
    weighted by the diffusing species' profiles.

    Built from the raw coefficient blocks (no diffusion subtraction).
    Requires gamma above the static-block bound at every node.
    """
    Ms = sys.coefficients.sample(grid)
    l1 = sys.l1
    if sys.l1 < sys.l:
        poles = nodal_bounds(Ms[:, l1:, l1:])
        if not gamma > float(np.max(poles)):
            raise ResolventDomainError(
                f"gamma = {gamma:.6g} is not above the static-block bound "
                f"{np.max(poles):.6g}")
        closest = float(np.min(np.abs(gamma - poles)))
        if closest < 1e-12:
            warnings.warn(
                f"gamma within {closest:.3g} of a nodal resolvent pole",
                NearSingularWarning, stacklevel=2)
    return CoopMatrix(p_weighted_mean(schur_reduce_stack(Ms, l1, gamma),
                                      weights, grid))


# --- threshold classification -------------------------------------------

@dataclass(frozen=True)
class CaseA:
    """The reduced family has a fixed point above the static-block
    bound; the spectral bound converges to it as diffusion grows."""

    gamma_star: float
    ladder: tuple  # (eps, value) pairs, eps descending

    def to_dict(self) -> dict:
        return {"case": "A", "gamma_star": self.gamma_star,
                "ladder": [list(p) for p in self.ladder]}


@dataclass(frozen=True)
class CaseB:
    """No fixed point above the static-block bound; the spectral bound
    collapses onto it as diffusion grows."""

    eta22: float
    ladder: tuple

    def to_dict(self) -> dict:
        return {"case": "B", "eta22": self.eta22,
                "ladder": [list(p) for p in self.ladder]}


ThresholdOutcome = CaseA | CaseB


def ladder_classify(evaluate, threshold: float, margin: float):
    """Shared one-sided-limit bracketing policy.

    evaluate(eps) is sampled for eps on EPS_LADDER; the samples must be
    non-decreasing, within MONO_TOL, as eps shrinks (the underlying
    function is non-increasing in its argument).  Returns
    (True, samples) when every sample clears threshold + margin,
    (False, samples) otherwise.
    """
    samples = []
    for eps in EPS_LADDER:
        samples.append((eps, float(evaluate(eps))))
    values = [v for _, v in samples]
    for earlier, later in zip(values, values[1:]):
        if later < earlier - MONO_TOL:
            raise ClassificationError(
                "ladder values decreased while approaching the threshold",
                samples)
    above = all(v > threshold + margin for v in values)
    return above, tuple(samples)


def bracket_and_bisect(f, base: float, tol: float) -> float | None:
    """Root of f above base, for f positive just above base and
    decreasing through zero: doubles an offset from 1e-6 until f < 0
    (at most 80 times), then bisects to width tol.  None when f never
    turns negative."""
    lo, offset, hi = base + 1e-6, 1e-6, None
    for _ in range(80):
        offset *= 2.0
        if f(base + offset) < 0.0:
            hi = base + offset
            break
        lo = base + offset
    if hi is None:
        return None
    for _ in range(BISECT_CAP):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


def classify_threshold(sys: DispersalSystem, grid: Grid,
                       weights: SystemWeights) -> ThresholdOutcome:
    """Decide between the fixed-point and collapse outcomes of the
    large-diffusion limit for a partially degenerate system.

    Case A needs s(B~) above eta22 + 1e-4 max(1, |eta22|) on every rung
    of the ladder; its fixed point gamma* is then bisected to BISECT_TOL.
    """
    if sys.mode is not Mode.PARTIALLY_DEGENERATE or sys.l1 == sys.l:
        raise InvalidParametersError(
            "threshold classification applies to partially degenerate "
            "systems with a non-diffusing block")
    Ms = sys.coefficients.sample(grid)
    l1 = sys.l1
    eta22 = static_block_bound(Ms, l1)

    def s_tilde(gamma: float) -> float:
        b = p_weighted_mean(schur_reduce_stack(Ms, l1, gamma), weights, grid)
        return _converged_bound(b)

    above, ladder = ladder_classify(lambda eps: s_tilde(eta22 + eps),
                                    eta22, 1e-4 * max(1.0, abs(eta22)))
    if not above:
        return CaseB(eta22=eta22, ladder=ladder)
    gamma_star = bracket_and_bisect(lambda g: s_tilde(g) - g, eta22,
                                    BISECT_TOL)
    if gamma_star is None:
        raise ClassificationError(
            "no sign change found while bracketing the fixed point", ladder)
    return CaseA(gamma_star=gamma_star, ladder=ladder)


@dataclass(frozen=True)
class ReducedQuantities:
    """The averaged matrix and the scalar bounds steering every
    diffusion-limit statement, plus the threshold outcome when the
    system is partially degenerate."""

    tilde_M: CoopMatrix
    kappa: float          # max_x s(M(x)): the zero-diffusion limit
    kappa_tilde: float    # s(tilde_M): the full-diffusion limit
    eta22: float          # max_x s(M22(x)): the static-block bound
    threshold: ThresholdOutcome | None
    uniform_fallback: tuple

    def to_dict(self) -> dict:
        return {
            "tilde_M": [[float(v) for v in row] for row in self.tilde_M.entries],
            "kappa": self.kappa,
            "kappa_tilde": self.kappa_tilde,
            "eta22": self.eta22,
            "threshold": None if self.threshold is None else self.threshold.to_dict(),
            "uniform_weight_fallback": list(self.uniform_fallback),
        }


def reduced_quantities(sys: DispersalSystem, grid: Grid,
                       weights: SystemWeights | None = None
                       ) -> ReducedQuantities:
    if weights is None:
        weights = weights_for_system(sys, grid)
    tilde_M = reduced_tilde_M(sys, grid, weights)
    kappa, eta22 = kappa_and_eta22(sys, grid)
    kappa_tilde = perron_bound(tilde_M)
    threshold = None
    if sys.mode is Mode.PARTIALLY_DEGENERATE and sys.l1 < sys.l and any(sys.d):
        threshold = classify_threshold(sys, grid, weights)
    return ReducedQuantities(tilde_M=tilde_M, kappa=kappa,
                             kappa_tilde=kappa_tilde, eta22=eta22,
                             threshold=threshold,
                             uniform_fallback=weights.uniform_fallback)
