"""Basic reproduction ratio for the linearized virus/cell model.

Two infected compartments: free virions V, which disperse through a
kernel, are produced by infected cells at rate r and cleared at rate m;
and infected cells I, which die at rate b and are created through the
cell-free route (beta_i V) and the cell-to-cell route (beta_d I).  The
reproduction ratio is the spectral radius of the next-generation
operator -F B^{-1}, where B collects transitions (dispersal, clearance,
death) and F collects infections.

The diffusion limits mirror the threshold dichotomy of the reduce
module: as d grows, R0 tends either to the root of the mixing balance
Q(mu) (when Q stays positive approaching the direct-route maximum) or
to that maximum itself, and the classifier reuses the same epsilon
ladder policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprlang
from .assembly import kernel_quadrature
from .errors import InvalidParametersError, ResolventDomainError
from .exprlang import Expr
from .grid import Grid
from .matspec import MAX_ITERATIONS, metzler_bound
from .model import KernelSpec
from .opspec import spectral_bound
from .reduce import bracket_and_bisect, ladder_classify
from .reduce import perron_weight as _perron_weight

R0_BISECT_TOL = 1e-12


@dataclass(frozen=True)
class VSIParams:
    """Linearized virus/cell model parameters; all rates 1/time.

    beta_i = 0 (no cell-free route) is accepted but flagged: the
    reduction formulas stay meaningful even though it sits outside the
    strict-positivity assumptions of the underlying model.
    """

    kernel: KernelSpec
    d: float
    r: Expr
    m: Expr
    b: Expr
    beta_d: Expr
    beta_i: Expr

    @classmethod
    def from_text(cls, kernel: str, d: float, r: str, m: str, b: str,
                  beta_d: str, beta_i: str) -> "VSIParams":
        return cls(kernel=KernelSpec.from_text(kernel), d=float(d),
                   r=exprlang.parse(r), m=exprlang.parse(m),
                   b=exprlang.parse(b), beta_d=exprlang.parse(beta_d),
                   beta_i=exprlang.parse(beta_i))


@dataclass(frozen=True)
class SampledVSI:
    r: np.ndarray
    m: np.ndarray
    b: np.ndarray
    beta_d: np.ndarray
    beta_i: np.ndarray
    B11: np.ndarray    # d (K - diag chi) - diag m: virion dispersal, clearance
    outside_positivity: bool


def sample_params(params: VSIParams, grid: Grid) -> SampledVSI:
    def ev(expr):
        v = exprlang.eval_expr(expr, x=grid.points)
        return np.broadcast_to(np.asarray(v, dtype=float), (grid.n,)).copy()

    r, m, b = ev(params.r), ev(params.m), ev(params.b)
    bd, bi = ev(params.beta_d), ev(params.beta_i)
    for name, arr in (("r", r), ("m", m), ("b", b), ("beta_d", bd)):
        if np.min(arr) <= 0:
            raise InvalidParametersError(
                f"{name} must be positive everywhere, min = {np.min(arr):.6g}")
    if np.min(bi) < 0:
        raise InvalidParametersError(
            f"beta_i must be nonnegative, min = {np.min(bi):.6g}")
    outside = bool(np.min(bi) == 0.0)
    if params.d < 0:
        raise InvalidParametersError(f"d must be nonnegative, got {params.d}")
    K, chi = kernel_quadrature(params.kernel.sample(grid), grid)
    L = params.d * (K - np.diag(chi))
    return SampledVSI(r=r, m=m, b=b, beta_d=bd, beta_i=bi, B11=L - np.diag(m),
                      outside_positivity=outside)


def assemble_epidemic(params: VSIParams, grid: Grid,
                      sampled: SampledVSI | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrix B (block upper triangular) and infection
    matrix F, each 2n x 2n over the stacked (V, I) nodal vector."""
    sv = sampled if sampled is not None else sample_params(params, grid)
    n = grid.n
    B = np.zeros((2 * n, 2 * n))
    B[:n, :n] = sv.B11
    B[:n, n:] = np.diag(sv.r)
    B[n:, n:] = -np.diag(sv.b)
    F = np.zeros((2 * n, 2 * n))
    F[n:, :n] = np.diag(sv.beta_i)
    F[n:, n:] = np.diag(sv.beta_d)
    return B, F


@dataclass(frozen=True)
class R0Result:
    value: float
    iterations: int
    residual: float
    converged: bool
    outside_positivity: bool


def r0(params: VSIParams, grid: Grid, tol: float = 1e-10,
       max_iterations: int = MAX_ITERATIONS,
       sampled: SampledVSI | None = None) -> R0Result:
    """Spectral radius of the next-generation operator.

    B is block upper triangular, so applying -F B^{-1} back-substitutes
    the cell block and solves the dispersal block by dense LU; the
    nonzero spectrum lives on the cell compartment, where the operator
    reduces to the nonnegative matrix
        diag(beta_d / b) + diag(beta_i) (-B11)^{-1} diag(r / b),
    iterated to value convergence within max_iterations Noda steps.
    """
    sv = sampled if sampled is not None else sample_params(params, grid)
    sb = metzler_bound(sv.B11).value
    if sb >= 0:
        raise InvalidParametersError(
            f"transition block must be dissipative, got bound {sb:.6g}")
    X = np.linalg.solve(-sv.B11, np.diag(sv.r / sv.b))
    G = np.diag(sv.beta_d / sv.b) + np.diag(sv.beta_i) @ X
    res = metzler_bound(G, tol=tol, max_iterations=max_iterations)
    return R0Result(value=res.value, iterations=res.iterations,
                    residual=res.residual, converged=res.converged,
                    outside_positivity=sv.outside_positivity)


def H_mu(params: VSIParams, grid: Grid, mu: float,
         tol: float = 1e-10, sampled: SampledVSI | None = None) -> float:
    """Spectral bound of B + F/mu; zero exactly at mu = R0."""
    if mu <= 0:
        raise InvalidParametersError(f"mu must be positive, got {mu}")
    B, F = assemble_epidemic(params, grid, sampled=sampled)
    return spectral_bound(B + F / mu, tol=tol).value


def hat_r0(params: VSIParams, grid: Grid,
           sampled: SampledVSI | None = None) -> float:
    """Direct-route maximum max_x beta_d(x)/b(x)."""
    sv = sampled if sampled is not None else sample_params(params, grid)
    return float(np.max(sv.beta_d / sv.b))


def r0_at_zero_diffusion(params: VSIParams, grid: Grid,
                         sampled: SampledVSI | None = None) -> float:
    """Closed form of the zero-diffusion limit:
    max_x (beta_d/b + beta_i r / (b m))."""
    sv = sampled if sampled is not None else sample_params(params, grid)
    return float(np.max(sv.beta_d / sv.b + sv.beta_i * sv.r / (sv.b * sv.m)))


def q_of_mu(params: VSIParams, grid: Grid, weight_samples, mu: float,
            sampled: SampledVSI | None = None) -> float:
    """Mixing balance Q(mu) = integral [-m + r beta_i / (mu b - beta_d)] p;
    defined for mu above the direct-route maximum."""
    sv = sampled if sampled is not None else sample_params(params, grid)
    den = mu * sv.b - sv.beta_d
    if np.min(den) <= 0:
        raise ResolventDomainError(
            f"mu = {mu:.6g} is not above the direct-route maximum "
            f"{np.max(sv.beta_d / sv.b):.6g}")
    p = np.asarray(weight_samples, dtype=float)
    integrand = -sv.m + sv.r * sv.beta_i / den
    return float((integrand * p) @ grid.weights)


@dataclass(frozen=True)
class RootCase:
    """Q stays positive approaching the direct-route maximum; the
    large-diffusion limit of R0 is the unique root of Q."""

    tilde_r0: float
    ladder: tuple

    def to_dict(self) -> dict:
        return {"case": "root", "tilde_r0": self.tilde_r0,
                "ladder": [list(p) for p in self.ladder]}


@dataclass(frozen=True)
class BoundaryCase:
    """Q dips nonpositive on the ladder; the large-diffusion limit of
    R0 is the direct-route maximum itself."""

    hat_r0: float
    ladder: tuple

    def to_dict(self) -> dict:
        return {"case": "boundary", "hat_r0": self.hat_r0,
                "ladder": [list(p) for p in self.ladder]}


LimitClassification = RootCase | BoundaryCase


def r0_large_d_limit(params: VSIParams, grid: Grid, weight_samples=None,
                     tol: float = 1e-4,
                     sampled: SampledVSI | None = None) -> LimitClassification:
    """Classify the large-diffusion limit of R0 with the shared ladder
    policy: root case when Q clears zero on every rung, boundary case
    otherwise; in the root case the root is found by bisecting the
    decreasing Q."""
    if weight_samples is None:
        weight_samples = _perron_weight(params.kernel, grid).samples
    sv = sampled if sampled is not None else sample_params(params, grid)
    hat = hat_r0(params, grid, sampled=sv)

    def q(mu: float) -> float:
        return q_of_mu(params, grid, weight_samples, mu, sampled=sv)

    above, ladder = ladder_classify(lambda eps: q(hat + eps), 0.0, tol)
    if not above:
        return BoundaryCase(hat_r0=hat, ladder=ladder)
    root = bracket_and_bisect(q, hat, R0_BISECT_TOL)
    if root is None:
        raise InvalidParametersError(
            "mixing balance does not change sign; no finite root")
    return RootCase(tilde_r0=root, ladder=ladder)


@dataclass(frozen=True)
class R0Report:
    r0: float
    hat_r0: float
    tilde_r0: float | None
    limit: LimitClassification
    r0_at_zero: float
    q_samples: tuple          # (mu, Q(mu)) pairs
    sign_residual: float      # H(R0, d), zero at the computed ratio
    converged: bool
    outside_positivity: bool

    def to_dict(self) -> dict:
        return {"r0": self.r0, "hat_r0": self.hat_r0,
                "tilde_r0": self.tilde_r0,
                "limit": self.limit.to_dict(),
                "r0_at_zero_diffusion": self.r0_at_zero,
                "q_samples": [list(p) for p in self.q_samples],
                "sign_residual": self.sign_residual,
                "converged": self.converged,
                "outside_positivity": self.outside_positivity}


def compute_r0_report(params: VSIParams, grid: Grid, tol: float = 1e-10,
                      max_iterations: int = MAX_ITERATIONS) -> R0Report:
    """R0, its diffusion limits and the sign check H(R0), from one
    sampling of the parameters."""
    sv = sample_params(params, grid)
    res = r0(params, grid, tol=tol, max_iterations=max_iterations,
             sampled=sv)
    weight = _perron_weight(params.kernel, grid).samples
    limit = r0_large_d_limit(params, grid, weight, sampled=sv)
    hat = hat_r0(params, grid, sampled=sv)
    q_samples = tuple((hat + eps, q) for eps, q in limit.ladder)
    return R0Report(
        r0=res.value, hat_r0=hat,
        tilde_r0=limit.tilde_r0 if isinstance(limit, RootCase) else None,
        limit=limit, r0_at_zero=r0_at_zero_diffusion(params, grid, sampled=sv),
        q_samples=q_samples,
        sign_residual=H_mu(params, grid, res.value, sampled=sv),
        converged=res.converged, outside_positivity=res.outside_positivity)
