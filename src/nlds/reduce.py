"""Reduced quantities governing the diffusion limits of the spectral
bound.

Each diffusing species has a stationary dispersal profile p (Perron
weight): the strictly positive, mass-one solution of the balance
equation  integral k(x, y) p(y) dy = chi(x) p(x), whose nodal samples
perron_weight returns.  Averaging the coefficient field against these
profiles produces the matrix whose spectral bound is the
large-diffusion limit in the fully diffusing case.
In the partially degenerate case the limit is instead governed by the
averaged Schur-reduced family B~_gamma: either it has a fixed point
gamma* = s(B~_gamma*) above the static-block bound (case A) or the
spectral bound collapses onto that static-block bound (case B).  The
one-sided limit deciding between the two cannot be computed from finite
samples, so the classifier brackets it on a fixed epsilon ladder with an
explicit margin and reports the ladder.  Every routine here reads the
system's SampledFields and evaluates no expression.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import SampledFields
from .errors import (ClassificationError, GridConsistencyError,
                     InvalidParametersError, NonConvergenceError)
from .grid import Grid
from .matspec import (MAX_ITERATIONS, TOL_ZERO, _converged_bound,
                      _cooperative, max_nodal_bound, metzler_bound,
                      perron_bound, schur_reduce_stack)
from .model import DispersalSystem, Mode

EPS_LADDER = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
MONO_TOL = 1e-10         # ladder values may dip by this much (rounding)
PERRON_TOL = 1e-12       # Noda tolerance of the dispersal profiles
BISECT_TOL = 1e-10
BISECT_CAP = 200


def perron_weight(K: np.ndarray, chi: np.ndarray, grid: Grid,
                  max_iterations: int = MAX_ITERATIONS) -> np.ndarray:
    """The samples of the dispersal profile: the Perron vector of
    diag(chi)^{-1} K, for a kernel's transfer matrix K and departure
    rates chi on grid, by Noda iteration to PERRON_TOL, normalized to unit
    mass; NonConvergenceError after max_iterations.

    K must be cooperative and chi positive (InvalidParametersError).  The
    weighted node masses w_a chi(x_a) form an exact discrete left
    eigenvector at eigenvalue one, so the converged eigenvalue must sit
    within 100*PERRON_TOL of one; a larger deviation signals an
    inconsistent grid and raises, as does a non-positive sample.
    """
    if K.min() < -TOL_ZERO:   # a valid K costs a scan, not an n x n copy
        _cooperative(K, " in the kernel's transfer matrix")
    if np.min(chi) <= 0:
        raise InvalidParametersError("kernel has a node with zero departure rate")
    r = metzler_bound(K / chi[:, None], tol=PERRON_TOL,
                      max_iterations=max_iterations)
    if not r.converged:
        raise NonConvergenceError("weight did not converge", r.value, r.residual)
    p = r.vector
    if np.min(p) <= 0:
        raise GridConsistencyError(
            f"dispersal profile has a non-positive sample {np.min(p):.3g}")
    dev = abs(r.value - 1.0)
    if dev > 100.0 * PERRON_TOL:
        raise GridConsistencyError(
            f"normalized kernel eigenvalue deviates from one by {dev:.3g}; "
            f"refine the grid")
    return p / float(p @ grid.weights)


@dataclass(frozen=True)
class SystemWeights:
    """Per-species weights; species without kernels fall back to the
    uniform profile 1/(b - a) and are flagged."""

    weights: tuple           # l arrays (n,)
    uniform_fallback: tuple  # l bools


def weights_for_system(sys: DispersalSystem, fields: SampledFields,
                       max_iterations: int = MAX_ITERATIONS) -> SystemWeights:
    grid = fields.grid
    fallback = tuple(i >= sys.l1 for i in range(sys.l))
    ws = [perron_weight(K, chi, grid, max_iterations)
          for K, chi in zip(fields.transfer, fields.chi)]
    ws += [np.full(grid.n, 1.0 / (grid.b - grid.a)) for _ in sys.d[sys.l1:]]
    return SystemWeights(weights=tuple(ws), uniform_fallback=fallback)


def p_weighted_mean(F: np.ndarray, weights: SystemWeights,
                    grid: Grid) -> np.ndarray:
    """Column-weighted averages integral F_ij(x) p_j(x) dx of a nodal
    field F (n, k, k'), column j weighted by species j's profile."""
    col_w = np.stack([weights.weights[j] * grid.weights
                      for j in range(F.shape[-1])], axis=1)
    return np.einsum("aij,aj->ij", F, col_w)


def static_block_bound(Ms: np.ndarray, l1: int) -> float:
    """eta22 = max_a s(M22(x_a)) of the nodal matrices Ms (n, l, l);
    -inf when the trailing block is empty."""
    return max_nodal_bound(Ms[:, l1:, l1:])


def tilde_B(Ms: np.ndarray, l1: int, gamma: float, weights: SystemWeights,
            grid: Grid) -> np.ndarray:
    """B~_gamma: the nodal Schur reductions of the coefficient matrices
    Ms (n, l, l) onto the first l1 species at parameter gamma, averaged
    against the diffusing species' profiles.

    Built from the raw coefficient blocks (no diffusion subtraction).
    gamma must lie above eta22 = static_block_bound(Ms, l1), which is
    not checked here.
    """
    return p_weighted_mean(schur_reduce_stack(Ms, l1, gamma), weights, grid)


# --- threshold classification -------------------------------------------

@dataclass(frozen=True)
class CaseA:
    """The reduced family has a fixed point above the static-block
    bound; the spectral bound converges to it as diffusion grows."""

    gamma_star: float
    ladder: tuple  # (eps, value) pairs, eps descending
    case: str = field(default="A", init=False)


@dataclass(frozen=True)
class CaseB:
    """No fixed point above the static-block bound; the spectral bound
    collapses onto it as diffusion grows."""

    eta22: float
    ladder: tuple
    case: str = field(default="B", init=False)


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


def classify_threshold(sys: DispersalSystem, fields: SampledFields,
                       weights: SystemWeights,
                       max_iterations: int = MAX_ITERATIONS
                       ) -> ThresholdOutcome:
    """Decide between the fixed-point and collapse outcomes of the
    large-diffusion limit for a partially degenerate system.

    Case A needs s(B~) above eta22 + 1e-4 max(1, |eta22|) on every rung
    of the ladder; its fixed point gamma* is then bisected to BISECT_TOL.
    B~ is only evaluated above eta22: at eta22 + eps on the ladder and
    above eta22 + 1e-6 while bracketing the fixed point.
    """
    if sys.mode is not Mode.PARTIALLY_DEGENERATE or sys.l1 == sys.l:
        raise InvalidParametersError(
            "threshold classification applies to partially degenerate "
            "systems with a non-diffusing block")
    Ms, grid, l1 = fields.M, fields.grid, sys.l1
    eta22 = static_block_bound(Ms, l1)

    def s_tilde(gamma: float) -> float:
        return _converged_bound(tilde_B(Ms, l1, gamma, weights, grid),
                                max_iterations=max_iterations)

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

    tilde_M: np.ndarray
    kappa: float          # max_x s(M(x)): the zero-diffusion limit
    kappa_tilde: float    # s(tilde_M): the full-diffusion limit
    eta22: float          # max_x s(M22(x)): the static-block bound
    threshold: ThresholdOutcome | None
    uniform_weight_fallback: tuple


def reduced_quantities(sys: DispersalSystem, fields: SampledFields,
                       weights: SystemWeights,
                       max_iterations: int = MAX_ITERATIONS
                       ) -> ReducedQuantities:
    """Every reduced quantity of the samples fields, averaged against
    weights (weights_for_system of the same fields)."""
    tilde_M = p_weighted_mean(fields.M, weights, fields.grid)
    kappa = max_nodal_bound(fields.M)
    eta22 = static_block_bound(fields.M, sys.l1)
    kappa_tilde = perron_bound(tilde_M, max_iterations)
    threshold = None
    if sys.mode is Mode.PARTIALLY_DEGENERATE and sys.l1 < sys.l and any(sys.d):
        threshold = classify_threshold(sys, fields, weights, max_iterations)
    return ReducedQuantities(tilde_M=tilde_M, kappa=kappa,
                             kappa_tilde=kappa_tilde, eta22=eta22,
                             threshold=threshold,
                             uniform_weight_fallback=weights.uniform_fallback)
