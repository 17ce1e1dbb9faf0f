"""Basic reproduction ratio for the linearized virus/cell model.

Two infected compartments: free virions V, which disperse through a
kernel, are produced by infected cells at rate r and cleared at rate m;
and infected cells I, which die at rate b and are created through the
cell-free route (beta_i V) and the cell-to-cell route (beta_d I).  R0
is the spectral radius of -F B^{-1} (B: transitions, F: infections),
and s(B + F/mu) has the sign of R0 - mu (Thieme, SIAM J. Appl. Math.
70, 2009).  B + t F is the partially degenerate operator of the nodal
field [[-m - d chi, r], [t beta_i, t beta_d - b]]; only virions disperse.
R0 itself comes from Noda steps on the n x n cell-compartment matrix G,
which is formed only when its first product G 1 (one order-n solve)
does not already settle the value.

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
from .assembly import block_matrix, kernel_quadrature
from .errors import InvalidParametersError, ResolventDomainError
from .exprlang import Expr
from .grid import Grid
from .matspec import EPS, MAX_ITERATIONS, _converged_bound, metzler_bound
from .model import KernelSpec
from .reduce import _sampled_perron_weight, bracket_and_bisect, ladder_classify

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
    raw_kernel: np.ndarray   # k(x_a, x_b)
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
    if params.d < 0:
        raise InvalidParametersError(f"d must be nonnegative, got {params.d}")
    return SampledVSI(r=r, m=m, b=b, beta_d=bd, beta_i=bi,
                      raw_kernel=params.kernel.sample(grid),
                      outside_positivity=bool(np.min(bi) == 0.0))


def _operator(sv: SampledVSI, d: float, grid: Grid, t: float,
              species: int = 2) -> np.ndarray:
    """B + t F over the stacked (V, I) nodal vector; B11 if species = 1."""
    chi = kernel_quadrature(sv.raw_kernel, grid)[1]
    M = np.array([[-sv.m - d * chi, sv.r],
                  [t * sv.beta_i, t * sv.beta_d - sv.b]]).transpose(2, 0, 1)
    return block_matrix(M[:, :species, :species], (sv.raw_kernel,), (d,), grid)


def assemble_epidemic(params: VSIParams, grid: Grid,
                      sampled: SampledVSI | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrix B and infection matrix F, each of order 2n."""
    sv = sampled if sampled is not None else sample_params(params, grid)
    B = _operator(sv, params.d, grid, 0.0)
    return B, _operator(sv, params.d, grid, 1.0) - B


@dataclass(frozen=True)
class R0Result:
    value: float
    iterations: int
    residual: float
    converged: bool
    outside_positivity: bool
    bracket: tuple[float, float]


def r0(params: VSIParams, grid: Grid, tol: float = 1e-10,
       max_iterations: int = MAX_ITERATIONS,
       sampled: SampledVSI | None = None) -> R0Result:
    """Spectral radius of the next-generation operator, with its bracket.

    B is block upper triangular with cell block -diag(b), so the nonzero
    spectrum is that of the nonnegative cell-compartment matrix
        G = diag(beta_d / b) + diag(beta_i) A^{-1} diag(c),
    A = -B11 and c = r / b, iterated within max_iterations Noda steps.
    G 1 = beta_d / b + beta_i A^{-1} c takes one order-n solve, and
    diag(G 1) agrees with G in all that the loop reads before its first
    step (G 1, |G| 1 = G 1 and diag G >= 0).  So metzler_bound on it
    with no step budget settles a model whose G 1 is flat within tol,
    such as one with constant rates, without forming G; otherwise G is
    formed by an n-column solve and iterated as a matrix.

    The bracket is the Collatz-Wielandt bracket of the loop at its last
    vector u, widened by the error of the solve behind G u, so it holds
    R0 of the assembled B and F.  With rho(y, f) = |f - A y| plus its
    rounding bound, and x the computed A^{-1} (c u), the error is
    A^{-1} rho(x, c u) <= max(rho(x, c u) / (c - rho(z, c))) z for
    z = A^{-1} c as computed, because A^{-1} >= 0 and A z >= c - rho(z, c).

    s(B11) < 0 is certified without a solve by the Collatz-Wielandt
    bound at the grid weights w,
    max_a ((B11^T w)_a + (n + 2) eps (|B11|^T w)_a) / w_a < 0, which is
    -m plus rounding since w^T (K - diag chi) = 0.
    """
    sv = sampled if sampled is not None else sample_params(params, grid)
    B11 = _operator(sv, params.d, grid, 0.0, species=1)
    w, absA, gamma_n = grid.weights, np.abs(B11), (grid.n + 2) * EPS
    sb = float(np.max((w @ B11 + gamma_n * (w @ absA)) / w))
    if sb >= 0:
        raise InvalidParametersError(
            f"transition block must be dissipative, got bound {sb:.6g}")
    A, c, bi, bd = -B11, sv.r / sv.b, sv.beta_i, sv.beta_d / sv.b
    x = z = np.linalg.solve(A, c)   # G 1 = bd + bi z
    # the loop's first look at G, through a matrix with the same G 1
    res = metzler_bound(np.diag(bd + bi * z), tol=tol, max_iterations=0)
    if not res.converged:
        X = np.linalg.solve(A, np.diag(c))
        res = metzler_bound(np.diag(bd) + bi[:, None] * X, tol=tol,
                            max_iterations=max_iterations)
        x = X @ res.vector
    u = res.vector

    def rho(y, rhs):   # |rhs - A y| plus the rounding of computing it
        return np.abs(rhs - A @ y) + gamma_n * (rhs + absA @ np.abs(y))

    floor, eta = c - rho(z, c), np.inf   # A z >= floor
    if floor.min() > 0:
        err = np.max(rho(x, c * u) / floor) * z + gamma_n * np.abs(x)
        eta = float(np.max(bi * err / u))
    return R0Result(value=res.value, iterations=res.iterations,
                    residual=res.residual, converged=res.converged,
                    outside_positivity=sv.outside_positivity,
                    bracket=(res.bracket[0] - eta, res.bracket[1] + eta))


def H_mu(params: VSIParams, grid: Grid, mu: float,
         tol: float = 1e-10, sampled: SampledVSI | None = None) -> float:
    """Spectral bound of B + F/mu, zero at mu = R0, by Noda steps that
    eliminate the static cells; raises NonConvergenceError if unconverged."""
    if mu <= 0:
        raise InvalidParametersError(f"mu must be positive, got {mu}")
    sv = sampled if sampled is not None else sample_params(params, grid)
    return _converged_bound(_operator(sv, params.d, grid, 1.0 / mu), tol=tol,
                            split=(1, grid.n))


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
    sv = sampled if sampled is not None else sample_params(params, grid)
    if weight_samples is None:
        weight_samples = _sampled_perron_weight(sv.raw_kernel, grid).samples
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
    bracket: tuple           # encloses R0, solve error included
    hat_r0: float
    tilde_r0: float | None
    limit: LimitClassification
    r0_at_zero: float
    q_samples: tuple          # (mu, Q(mu)) pairs
    sign_residual: float      # H(R0, d), zero at the computed ratio
    converged: bool
    outside_positivity: bool

    def to_dict(self) -> dict:
        return {"r0": self.r0, "bracket": list(self.bracket),
                "hat_r0": self.hat_r0,
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
    weight = _sampled_perron_weight(sv.raw_kernel, grid).samples
    limit = r0_large_d_limit(params, grid, weight, sampled=sv)
    hat = hat_r0(params, grid, sampled=sv)
    q_samples = tuple((hat + eps, q) for eps, q in limit.ladder)
    return R0Report(
        r0=res.value, bracket=res.bracket, hat_r0=hat,
        tilde_r0=limit.tilde_r0 if isinstance(limit, RootCase) else None,
        limit=limit, r0_at_zero=r0_at_zero_diffusion(params, grid, sampled=sv),
        q_samples=q_samples,
        sign_residual=H_mu(params, grid, res.value, sampled=sv),
        converged=res.converged, outside_positivity=res.outside_positivity)
