"""Existence diagnostics and asymptotic studies.

The nodal spectral field H(x_a) = s(A(x_a)) locates the essential
spectrum; whether its reciprocal distance to the maximum is integrable
decides principal-eigenvalue existence, and that question is probed here
with a refinement sequence, a divergence test on the quadrature sums,
and a local-order fit.  The module also assembles the reduced
generalized eigenproblem on the diffusing block, runs diffusion sweeps
against their theoretical limits, and measures spectral-bound continuity
under seeded random perturbations.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .assembly import (SampledFields, assemble_operator, block_matrix,
                       kernel_quadrature, pointwise_A, sample_fields)
from .errors import InvalidParametersError, ResolventDomainError
from .grid import Grid, build_grid
from .matspec import (MAX_ITERATIONS, _converged_bound, nodal_bounds,
                      perron_bound, schur_reduce_stack)
from .model import DispersalSystem, Mode
from .opspec import essential_bound, spectral_bound
from .reduce import (CaseA, SystemWeights, classify_threshold,
                     kappa_and_eta22, reduced_tilde_M, static_block_bound,
                     weights_for_system)

FIT_WINDOW = 10          # nodes used by the local-order fit
FLOOR = 1e-13            # distances to the max below this are poles
RATIO_MARGIN = 0.05      # quadrature sums must grow by 5% to count


@dataclass(frozen=True)
class SpectralField:
    """Nodal bounds H(x_a) = s(A(x_a)) and their Schur-reduced
    counterparts h(x_a) = s(F_eta(x_a)); eta = max H.

    F_lambda reduces A(x) (diffusion included in the leading block,
    unlike the averaged family of the reduce module) onto the diffusing
    species at resolvent parameter lambda.
    """

    grid: Grid
    H: np.ndarray
    h: np.ndarray
    eta: float


def spectral_field(sys: DispersalSystem, grid: Grid,
                   fields: SampledFields | None = None) -> SpectralField:
    A = pointwise_A(sys, grid, fields=fields).matrices
    H = nodal_bounds(A)
    eta = float(np.max(H))
    h = nodal_bounds(schur_reduce_stack(A, sys.l1, eta))
    return SpectralField(grid=grid, H=H, h=h, eta=eta)


# --- integrability diagnostic -------------------------------------------

@dataclass(frozen=True)
class IntegrabilityReport:
    verdict: str             # holds | fails | degenerate | inconclusive
    eta_hat: float           # extrapolated supremum of the field
    integrals: tuple         # (n, I_n) pairs along the refinement
    ratios: tuple
    fitted_order: float | None
    detail: str

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "eta_hat": self.eta_hat,
                "integrals": [list(p) for p in self.integrals],
                "ratios": list(self.ratios),
                "fitted_order": self.fitted_order, "detail": self.detail}


def _extrapolate_sup(etas: list[float]) -> float:
    """Aitken extrapolation of the per-grid maxima.

    The discrete max of a field peaking between nodes converges
    geometrically under grid doubling, where Aitken is exact.  Guarded:
    never returns below the finest observed max.
    """
    eta_f = etas[-1]
    if len(etas) >= 3:
        e0, e1, e2 = etas[-3:]
        den = (e2 - e1) - (e1 - e0)
        if den != 0.0:
            ait = e2 - (e2 - e1) ** 2 / den
            if np.isfinite(ait):
                return max(float(ait), eta_f)
    return eta_f


def integrability_diagnostic(field_on, grids: list[Grid],
                             region: tuple[float, float],
                             floor: float = FLOOR,
                             fit_window: int = FIT_WINDOW) -> IntegrabilityReport:
    """Probe whether 1/(sup - field) fails to be integrable over the
    region, the divergence that certifies principal-eigenvalue
    existence.

    field_on(grid) returns the nodal field samples.  The verdict is
    graded, never a bare boolean: finite samples can only bracket the
    answer, and the evidence (quadrature sums, their growth ratios, the
    fitted local order) ships with it.
    """
    alpha, beta = region
    data = []
    for g in grids:
        Hs = np.asarray(field_on(g), dtype=float)
        data.append((g, Hs))
    etas = [float(np.max(Hs)) for _, Hs in data]
    eta_hat = _extrapolate_sup(etas)

    g_f, H_f = data[-1]
    plateau = int(np.sum(etas[-1] - H_f <= floor))
    if plateau >= 3:
        return IntegrabilityReport(
            verdict="degenerate", eta_hat=eta_hat, integrals=(), ratios=(),
            fitted_order=None,
            detail=f"max attained on a plateau of {plateau} nodes; the "
                   f"reciprocal distance is undefined a.e. there")

    integrals = []
    for g, Hs in data:
        dist = eta_hat - Hs
        mask = (g.points >= alpha) & (g.points <= beta) & (dist > floor)
        integrals.append((g.n, float(np.sum(g.weights[mask] / dist[mask]))))
    ratios = tuple(b / a for (_, a), (_, b) in zip(integrals, integrals[1:]))

    # local order: slope of log-distance against log-offset around the max
    amax = int(np.argmax(H_f))
    xm = g_f.points[amax]
    dist = eta_hat - H_f
    order = np.argsort(np.abs(g_f.points - xm))
    us, vs = [], []
    for idx in order:
        if idx == amax or dist[idx] <= floor:
            continue
        us.append(np.log(abs(g_f.points[idx] - xm)))
        vs.append(np.log(dist[idx]))
        if len(us) == fit_window:
            break
    fitted = float(np.polyfit(us, vs, 1)[0]) if len(us) >= 3 else None

    tail = ratios[len(ratios) // 2:]
    growing = bool(tail) and all(r > 1.0 + RATIO_MARGIN for r in tail)
    flat = bool(tail) and all(r <= 1.0 + RATIO_MARGIN for r in ratios)
    if growing or (fitted is not None and fitted >= 1.0):
        verdict = "holds"
        detail = "quadrature sums diverge" if growing else \
            f"fitted local order {fitted:.3g} >= 1"
    elif flat and fitted is not None and fitted < 1.0:
        verdict = "fails"
        detail = (f"quadrature sums converge (last ratio {ratios[-1]:.4g}) "
                  f"and fitted local order {fitted:.3g} < 1")
    else:
        verdict = "inconclusive"
        detail = "growth ratios and local order disagree"
    return IntegrabilityReport(verdict=verdict, eta_hat=eta_hat,
                               integrals=tuple(integrals), ratios=ratios,
                               fitted_order=fitted, detail=detail)


# --- generalized eigenproblem on the diffusing block ---------------------

def assemble_reduced_operator(sys: DispersalSystem, grid: Grid,
                              lam: float, fields=None) -> np.ndarray:
    """(l1 n) x (l1 n) matrix of the reduced problem at parameter lam.

    Nodal Schur reductions of the diffusion-included matrices A(x_a)
    (leading block M11 - diag(d_i chi_i)) plus the pure kernel-transfer
    blocks d_i K_i: the departure rates already live inside A's leading
    block, so the transfer blocks must not subtract them again.
    """
    if fields is None:
        fields = sample_fields(sys, grid)
    eta22 = static_block_bound(fields.M, sys.l1)
    if not lam > eta22:
        raise ResolventDomainError(
            f"lambda = {lam:.6g} is not above the static-block bound "
            f"{eta22:.6g}")
    A = pointwise_A(sys, grid, fields=fields).matrices
    F = schur_reduce_stack(A, sys.l1, lam)
    return block_matrix(F, fields.raw_kernels, sys.d, grid)


def generalized_eigen_residual(sys: DispersalSystem, grid: Grid,
                               lam: float, tol: float = 1e-10,
                               fields: SampledFields | None = None) -> float:
    """s(T_lam) - lam: zero exactly when lam solves the reduced
    generalized eigenproblem, which certified spectral bounds do."""
    T = assemble_reduced_operator(sys, grid, lam, fields=fields)
    return spectral_bound(T, tol=tol).value - lam


# --- diffusion sweeps -----------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    t: float
    s: float
    s_e: float
    gap: float
    reference: float
    deviation: float
    converged: bool


@dataclass(frozen=True)
class SweepTable:
    mode: str
    reference_name: str   # which limit the deviation is measured against
    rows: tuple

    def to_dict(self) -> dict:
        return {"mode": self.mode, "reference": self.reference_name,
                "rows": [vars(r) for r in self.rows]}

    def write_csv(self, path) -> None:
        write_csv(path, ["t", "s", "s_e", "gap", "reference", "deviation",
                         "converged"], (astuple(r) for r in self.rows))


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


SWEEP_MODES = ("small-d", "large-d-nondegen", "large-d-degen")


def sweep(sys: DispersalSystem, grid: Grid, t_schedule,
          mode: str, tol: float = 1e-10,
          weights: SystemWeights | None = None,
          max_iterations: int = MAX_ITERATIONS) -> SweepTable:
    """Assemble and solve the operator along a diffusion schedule and
    record the deviation from the mode's theoretical limit.

    small-d scales every rate by t against the pointwise bound;
    large-d-nondegen scales every rate against the averaged bound;
    large-d-degen scales the diffusing rates against the threshold
    outcome.  Weights and reduced quantities are diffusion independent
    and are computed once.
    """
    if mode not in SWEEP_MODES:
        raise InvalidParametersError(f"unknown sweep mode {mode!r}")
    ts = [float(t) for t in t_schedule]
    if any(t <= 0 for t in ts):
        raise InvalidParametersError("schedule entries must be positive")
    base_d = np.asarray(sys.d, dtype=float)
    if mode == "large-d-nondegen":
        if sys.mode is not Mode.NON_DEGENERATE:
            raise InvalidParametersError(
                "large-d-nondegen needs every species diffusing")
        if weights is None:
            weights = weights_for_system(sys, grid)
        reference = perron_bound(reduced_tilde_M(sys, grid, weights))
        ref_name = "kappa_tilde"
    elif mode == "large-d-degen":
        if weights is None:
            weights = weights_for_system(sys, grid)
        outcome = classify_threshold(sys, grid, weights)
        if isinstance(outcome, CaseA):
            reference, ref_name = outcome.gamma_star, "gamma_star"
        else:
            reference, ref_name = outcome.eta22, "eta22"
    else:
        reference, _ = kappa_and_eta22(sys, grid)
        ref_name = "kappa"

    fields = sample_fields(sys, grid)
    rows = []
    for t in ts:
        d = base_d * t
        if mode == "large-d-degen":
            d = base_d.copy()
            d[:sys.l1] *= t
        scaled = sys.with_d(d)
        P = assemble_operator(scaled, grid, force=True, fields=fields)
        r = spectral_bound(P, tol=tol, max_iterations=max_iterations)
        s_e = essential_bound(pointwise_A(scaled, grid, fields=fields))
        rows.append(SweepRow(t=t, s=r.value, s_e=s_e, gap=r.value - s_e,
                             reference=reference,
                             deviation=abs(r.value - reference),
                             converged=r.converged))
    return SweepTable(mode=mode, reference_name=ref_name, rows=tuple(rows))


# --- perturbation probe ---------------------------------------------------

@dataclass(frozen=True)
class ProbeResult:
    dm_inf: float            # largest coefficient perturbation
    dk_inf: float            # largest kernel perturbation
    ds: float                # signed spectral-bound change
    ds_abs: float
    sandwich_bound: float    # s(entrywise max) - s(entrywise min)

    def to_dict(self) -> dict:
        return dict(vars(self))


def perturbation_probe(sys: DispersalSystem, grid: Grid, delta: float,
                       seed: int, tol: float = 1e-10,
                       diagonal_shift: float | None = None,
                       max_iterations: int = MAX_ITERATIONS) -> ProbeResult:
    """Measure the spectral-bound response to a seeded random
    perturbation of the sampled coefficients and kernels.

    Off-diagonal coefficients and kernels receive additive noise in
    [0, delta] (cooperativity and nonnegativity preserved); diagonals
    receive noise in [-delta, delta].  Departure rates are recomputed
    from the perturbed kernels.  The spectral bounds of the entrywise
    min and max of the two operators bracket both bounds, giving a
    rigorous comparison bound on |ds| per draw.  diagonal_shift bypasses
    the randomness and adds c to every diagonal entry, which must move
    the bound by exactly c.  Each solve eliminates the static species,
    is capped at max_iterations Noda steps and raises
    NonConvergenceError when it does not converge.
    """
    if delta < 0:
        raise InvalidParametersError("delta must be nonnegative")

    def bound(P):
        return _converged_bound(P, tol=tol, max_iterations=max_iterations,
                                split=(sys.l1, grid.n))

    fields = sample_fields(sys, grid)
    P0 = assemble_operator(sys, grid, force=True, fields=fields).matrix
    s0 = bound(P0)

    if diagonal_shift is not None:
        P1 = P0 + diagonal_shift * np.eye(P0.shape[0])
        s1 = bound(P1)
        return ProbeResult(dm_inf=abs(diagonal_shift), dk_inf=0.0,
                           ds=s1 - s0, ds_abs=abs(s1 - s0),
                           sandwich_bound=abs(diagonal_shift))

    rng = np.random.default_rng(seed)
    n, l, l1 = grid.n, sys.l, sys.l1
    Mp = fields.M.copy()
    dM = rng.uniform(0.0, delta, size=Mp.shape)
    diag_noise = rng.uniform(-delta, delta, size=(n, l))
    idx = np.arange(l)
    dM[:, idx, idx] = 0.0
    Mp += dM
    Mp[:, idx, idx] += diag_noise
    raws = []
    dk_inf = 0.0
    for i in range(l1):
        dK = rng.uniform(0.0, delta, size=(n, n))
        raws.append(fields.raw_kernels[i] + dK)
        if dK.size:
            dk_inf = max(dk_inf, float(np.max(np.abs(dK))))
    chis = tuple(kernel_quadrature(raw, grid)[1] for raw in raws)
    fields_p = SampledFields(M=Mp, raw_kernels=tuple(raws), chi=chis)
    P1 = assemble_operator(sys, grid, force=True, fields=fields_p).matrix
    s1 = bound(P1)

    s_up = bound(np.maximum(P0, P1))
    s_dn = bound(np.minimum(P0, P1))
    dm_inf = float(np.max(np.abs(Mp - fields.M))) if Mp.size else 0.0
    return ProbeResult(dm_inf=dm_inf, dk_inf=dk_inf, ds=s1 - s0,
                       ds_abs=abs(s1 - s0), sandwich_bound=s_up - s_dn)


def refinement_grids(a: float, b: float, n_list) -> list[Grid]:
    return [build_grid(a, b, int(n)) for n in n_list]
