"""Basic reproduction ratio for the linearized virus/cell model.

Two infected compartments: free virions V, which disperse through a
kernel, are produced by infected cells at rate r and cleared at rate m;
and infected cells I, which die at rate b and are created through the
cell-free route (beta_i V) and the cell-to-cell route (beta_d I).  R0
is the spectral radius of -F B^{-1} (B: transitions, F: infections),
and s(B + F/mu) has the sign of R0 - mu (Thieme, SIAM J. Appl. Math.
70, 2009).  B + t F is the partially degenerate operator of the nodal
field [[-m - d chi, r], [t beta_i, t beta_d - b]]; only virions disperse,
and H_mu solves on its blocks without forming it.  R0 itself comes from
Noda steps on the n x n cell-compartment matrix G, which is formed only
when its first product G 1 (one Krylov solve on the blocks of B11) does
not already settle the value.

sample_params evaluates the rates and the kernel's quadrature on one
grid, and every routine here reads that SampledVSI; compute_r0_report
is the one place that samples, so R0, its limits and the sign check
all come from the same discretized model.

The diffusion limits mirror the threshold dichotomy of the reduce
module: as d grows, R0 tends either to the root of the mixing balance
Q(mu) (when Q stays positive approaching the direct-route maximum) or
to that maximum itself, and the classifier reuses the same epsilon
ladder policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import exprlang
from .assembly import kernel_quadrature
from .errors import (InvalidParametersError, NonConvergenceError,
                     ResolventDomainError)
from .exprlang import Expr
from .grid import Grid
from .matspec import (EPS, MAX_ITERATIONS, TOL_ZERO, BlockOperator,
                      PerronResult, _converged_bound, gmres, metzler_bound)
from .model import KernelSpec
from .reduce import bracket_and_bisect, ladder_classify, perron_weight

R0_BISECT_TOL = 1e-12
LIMIT_MARGIN = 1e-4      # Q must clear zero by this on every ladder rung


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
    """The model on one grid, as every routine below reads it: the
    virion diffusion rate, the nodal rates and the kernel's quadrature."""

    grid: Grid
    d: float
    r: np.ndarray
    m: np.ndarray
    b: np.ndarray
    beta_d: np.ndarray
    beta_i: np.ndarray
    transfer: np.ndarray     # K[a, b] = k(x_a, x_b) w_b
    chi: np.ndarray          # departure rates sum_b k(x_b, x_a) w_b
    outside_positivity: bool


def sample_params(params: VSIParams, grid: Grid) -> SampledVSI:
    def ev(expr):
        return exprlang.eval_expr(expr, x=grid.points).copy()

    r, m, b = ev(params.r), ev(params.m), ev(params.b)
    bd, bi = ev(params.beta_d), ev(params.beta_i)
    for name, arr in (("r", r), ("m", m), ("b", b), ("beta_d", bd)):
        if np.min(arr) <= 0:
            raise InvalidParametersError(
                f"{name} must be positive everywhere, min = {np.min(arr):.6g}")
    if np.min(bi) < 0:
        raise InvalidParametersError(
            f"beta_i must be nonnegative, min = {np.min(bi):.6g}")
    if params.d < 0:
        raise InvalidParametersError(f"d must be nonnegative, got {params.d}")
    raw = params.kernel.sample(grid)
    if raw.min() < -TOL_ZERO:   # validate's kernel-nonnegativity rule
        raise InvalidParametersError(
            f"kernel must be nonnegative, min = {raw.min():.6g}")
    K, chi = kernel_quadrature(raw, grid)
    return SampledVSI(grid=grid, d=params.d, r=r, m=m, b=b, beta_d=bd,
                      beta_i=bi, transfer=K, chi=chi,
                      outside_positivity=bool(np.min(bi) == 0.0))


def _operator(sv: SampledVSI, t: float, species: int = 2) -> BlockOperator:
    """The blocks of B + t F over the stacked (V, I) nodal vector; of B11
    if species = 1."""
    M = np.array([[-sv.m - sv.d * sv.chi, sv.r],
                  [t * sv.beta_i, t * sv.beta_d - sv.b]]).transpose(2, 0, 1)
    return BlockOperator(M[:, :species, :species], (sv.transfer,), (sv.d,))


def r0(sv: SampledVSI, tol: float = 1e-10,
       max_iterations: int = MAX_ITERATIONS) -> PerronResult:
    """Spectral radius of the next-generation operator: the PerronResult
    of the loop below, its bracket widened to hold R0.

    B is block upper triangular with cell block -diag(b), so the nonzero
    spectrum is that of the nonnegative cell-compartment matrix
        G = diag(beta_d / b) + diag(beta_i) A^{-1} diag(c),
    A = -B11 and c = r / b, iterated within max_iterations Noda steps.
    G 1 = beta_d / b + beta_i A^{-1} c takes one GMRES solve on B11's
    blocks, and diag(G 1) agrees with G in all that the loop reads before
    its first step (G 1, |G| 1 = G 1 and diag G >= 0).  So metzler_bound
    on it with no step budget settles a model whose G 1 is flat within
    tol, such as one with constant rates, with no dense matrix; otherwise
    B11 is formed, and G by its n-column LU solve, and iterated.

    The bracket is the Collatz-Wielandt bracket of the loop at its last
    vector u, widened by the error of the solve behind G u, so it holds
    R0 of the assembled B and F.  With rho(y, f) = |f - A y| plus its
    rounding bound, and x the computed A^{-1} (c u), the error is
    A^{-1} rho(x, c u) <= max(rho(x, c u) / (c - rho(z, c))) z for
    z = A^{-1} c as computed, because A^{-1} >= 0 and A z >= c - rho(z, c).

    s(B11) < 0 is certified without a solve by the Collatz-Wielandt
    bound at the grid weights w, B11^T w = w nodal + d K^T w:
    max_a ((B11^T w)_a + (n + 2) eps (|B11|^T w)_a) / w_a < 0, which is
    -m plus rounding since w^T (K - diag chi) = 0.
    """
    P = _operator(sv, 0.0, species=1)   # B11 = -A
    w, gamma_n = sv.grid.weights, (sv.grid.n + 2) * EPS
    wP, dKw = w * P.nodal[:, 0, 0], sv.d * (w @ sv.transfer)
    sb = float(np.max((wP + dKw + gamma_n * (np.abs(wP) + dKw)) / w))
    if sb >= 0:
        raise InvalidParametersError(
            f"transition block must be dissipative, got bound {sb:.6g}")
    c, bi, bd = sv.r / sv.b, sv.beta_i, sv.beta_d / sv.b
    x, rho_x = z, rho = gmres(P, -c)   # G 1 = bd + bi z; |c - A z| <= rho
    # the loop's first look at G, through diag(G 1) as a nodal-only operator
    res = metzler_bound(BlockOperator((bd + bi * z)[:, None, None], (), ()),
                        tol=tol, max_iterations=0)
    if not res.converged:
        X = np.linalg.solve(-P.matrix, np.diag(c))
        res = metzler_bound(np.diag(bd) + bi[:, None] * X, tol=tol,
                            max_iterations=max_iterations)
        x, cu = X @ res.vector, c * res.vector   # |cu - A x| <= rho_x:
        rho_x = np.abs(cu + P @ x) + gamma_n * (cu + abs(P) @ np.abs(x))
    u = res.vector
    floor, eta = c - rho, np.inf   # A z >= floor
    if floor.min() > 0:
        err = np.max(rho_x / floor) * z + gamma_n * np.abs(x)
        eta = float(np.max(bi * err / u))
    return replace(res, bracket=(res.bracket[0] - eta, res.bracket[1] + eta))


def H_mu(sv: SampledVSI, mu: float, tol: float = 1e-10,
         max_iterations: int = MAX_ITERATIONS) -> float:
    """Spectral bound of B + F/mu, zero at mu = R0, by Noda steps on the
    blocks of the operator that eliminate the static cells;
    NonConvergenceError after max_iterations."""
    if mu <= 0:
        raise InvalidParametersError(f"mu must be positive, got {mu}")
    return _converged_bound(_operator(sv, 1.0 / mu), tol, max_iterations)


def hat_r0(sv: SampledVSI) -> float:
    """Direct-route maximum max_x beta_d(x)/b(x)."""
    return float(np.max(sv.beta_d / sv.b))


def r0_at_zero_diffusion(sv: SampledVSI) -> float:
    """Closed form of the zero-diffusion limit:
    max_x (beta_d/b + beta_i r / (b m)); sv.d plays no part."""
    return float(np.max(sv.beta_d / sv.b + sv.beta_i * sv.r / (sv.b * sv.m)))


def q_of_mu(sv: SampledVSI, weight_samples, mu: float) -> float:
    """Mixing balance Q(mu) = integral [-m + r beta_i / (mu b - beta_d)] p
    for the kernel's Perron weight p (weight_samples, on sv.grid);
    defined for mu above the direct-route maximum."""
    den = mu * sv.b - sv.beta_d
    if np.min(den) <= 0:
        raise ResolventDomainError(
            f"mu = {mu:.6g} is not above the direct-route maximum "
            f"{np.max(sv.beta_d / sv.b):.6g}")
    p = np.asarray(weight_samples, dtype=float)
    integrand = -sv.m + sv.r * sv.beta_i / den
    return float((integrand * p) @ sv.grid.weights)


@dataclass(frozen=True)
class RootCase:
    """Q stays positive approaching the direct-route maximum; the
    large-diffusion limit of R0 is the unique root of Q."""

    tilde_r0: float
    ladder: tuple
    case: str = field(default="root", init=False)


@dataclass(frozen=True)
class BoundaryCase:
    """Q dips nonpositive on the ladder; the large-diffusion limit of
    R0 is the direct-route maximum itself."""

    hat_r0: float
    ladder: tuple
    case: str = field(default="boundary", init=False)


LimitClassification = RootCase | BoundaryCase


def r0_large_d_limit(sv: SampledVSI, weight_samples) -> LimitClassification:
    """Classify the large-diffusion limit of R0 with the shared ladder
    policy: root case when Q clears LIMIT_MARGIN on every rung, boundary
    case otherwise; in the root case the root is found by bisecting the
    decreasing Q.  weight_samples is the kernel's Perron weight on
    sv.grid; sv.d plays no part."""
    hat = hat_r0(sv)

    def q(mu: float) -> float:
        return q_of_mu(sv, weight_samples, mu)

    above, ladder = ladder_classify(lambda eps: q(hat + eps), 0.0,
                                    LIMIT_MARGIN)
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
    bracket: tuple           # encloses R0, solve error included
    hat_r0: float
    tilde_r0: float | None
    limit: LimitClassification
    r0_at_zero_diffusion: float
    q_samples: tuple          # (mu, Q(mu)) pairs
    sign_residual: float      # H(R0, d), zero at the computed ratio
    converged: bool           # R0's iteration and the sign check's
    outside_positivity: bool


def compute_r0_report(params: VSIParams, grid: Grid, tol: float = 1e-10,
                      max_iterations: int = MAX_ITERATIONS) -> R0Report:
    """R0, its diffusion limits and the sign check H(R0), from one
    sampling of the parameters.  max_iterations caps R0, the Perron
    weight and the sign check; a capped sign check leaves its last
    estimate in an unconverged report."""
    sv = sample_params(params, grid)
    res = r0(sv, tol=tol, max_iterations=max_iterations)
    weight = perron_weight(sv.transfer, sv.chi, grid, max_iterations)
    limit = r0_large_d_limit(sv, weight)
    hat = hat_r0(sv)
    q_samples = tuple((hat + eps, q) for eps, q in limit.ladder)
    try:
        sign, sign_converged = H_mu(sv, res.value, tol=tol,
                                    max_iterations=max_iterations), True
    except NonConvergenceError as e:
        sign, sign_converged = e.estimate, False
    return R0Report(
        r0=res.value, bracket=res.bracket, hat_r0=hat,
        tilde_r0=limit.tilde_r0 if isinstance(limit, RootCase) else None,
        limit=limit, r0_at_zero_diffusion=r0_at_zero_diffusion(sv),
        q_samples=q_samples, sign_residual=sign,
        converged=res.converged and sign_converged,
        outside_positivity=sv.outside_positivity)
