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

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .assembly import (SampledFields, assemble_operator, kernel_quadrature,
                       pointwise_A)
from .errors import (InvalidParametersError, NonConvergenceError,
                     ResolventDomainError)
from .grid import Grid, build_grid
from .matspec import (MAX_ITERATIONS, BlockOperator, _converged_bound,
                      _cooperative, max_nodal_bound, nodal_bounds,
                      perron_bound, schur_reduce_stack)
from .model import DispersalSystem, Mode
from .opspec import essential_bound, spectral_bound
from .reduce import (CaseA, classify_threshold, p_weighted_mean,
                     static_block_bound, weights_for_system)

FIT_WINDOW = 10          # nodes used by the local-order fit
FLOOR = 1e-13            # distances to the max below this are poles
RATIO_MARGIN = 0.05      # quadrature sums must grow by 5% to count


@dataclass(frozen=True)
class SpectralField:
    """Nodal bounds H(x_a) = s(A(x_a)) and their Schur-reduced
    counterparts h(x_a) = s(F_eta(x_a)); eta = max H, which must lie
    above the static-block bound (it does not on a reducible system).

    F_lambda reduces A(x) (diffusion included in the leading block,
    unlike the averaged family of the reduce module) onto the diffusing
    species at resolvent parameter lambda.
    """

    H: np.ndarray
    h: np.ndarray
    eta: float


def spectral_field(sys: DispersalSystem, fields: SampledFields
                   ) -> SpectralField:
    A = pointwise_A(sys, fields)
    H = nodal_bounds(A)
    eta = float(np.max(H))
    _check_resolvent_domain(sys, fields, eta)
    h = nodal_bounds(schur_reduce_stack(A, sys.l1, eta))
    return SpectralField(H=H, h=h, eta=eta)


def _check_resolvent_domain(sys, fields, lam: float) -> None:
    """Raise unless lam > max_x s(A22(x)), where A22 = M22."""
    eta22 = static_block_bound(fields.M, sys.l1)
    if not lam > eta22:
        raise ResolventDomainError(
            f"lambda = {lam:.6g} is not above the static-block bound "
            f"{eta22:.6g}")


# --- integrability diagnostic -------------------------------------------

@dataclass(frozen=True)
class IntegrabilityReport:
    verdict: str             # holds | fails | degenerate | inconclusive
    eta_hat: float           # extrapolated supremum of the field
    integrals: tuple         # (n, I_n) pairs along the refinement
    ratios: tuple
    fitted_order: float | None
    detail: str


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
                             region: tuple[float, float]) -> IntegrabilityReport:
    """Probe whether 1/(sup - field) fails to be integrable over the
    region, the divergence that certifies principal-eigenvalue
    existence.

    field_on(grid) returns the nodal field samples.  The verdict is
    graded, never a bare boolean: finite samples can only bracket the
    answer, and the evidence (quadrature sums, their growth ratios, the
    order fitted on the FIT_WINDOW nodes nearest the maximum) ships with
    it.  Distances to the supremum at or below FLOOR count as poles.
    A grid with no node of the region away from the maximum has no
    quadrature sum to compare and raises InvalidParametersError.
    """
    alpha, beta = region
    data = [(g, np.asarray(field_on(g), dtype=float)) for g in grids]
    etas = [float(np.max(Hs)) for _, Hs in data]
    eta_hat = _extrapolate_sup(etas)

    g_f, H_f = data[-1]
    plateau = int(np.sum(etas[-1] - H_f <= FLOOR))
    if plateau >= 3:
        return IntegrabilityReport(
            verdict="degenerate", eta_hat=eta_hat, integrals=(), ratios=(),
            fitted_order=None,
            detail=f"max attained on a plateau of {plateau} nodes; the "
                   f"reciprocal distance is undefined a.e. there")

    integrals = []
    for g, Hs in data:
        dist = eta_hat - Hs
        mask = (g.points >= alpha) & (g.points <= beta) & (dist > FLOOR)
        if not mask.any():
            raise InvalidParametersError(
                f"region [{alpha:g}, {beta:g}] holds no node away from "
                f"the maximum on the refinement grid of n = {g.n}")
        integrals.append((g.n, float(np.sum(g.weights[mask] / dist[mask]))))
    ratios = tuple(b / a for (_, a), (_, b) in zip(integrals, integrals[1:]))

    # local order: slope of log-distance against log-offset around the max
    amax = int(np.argmax(H_f))
    xm = g_f.points[amax]
    dist = eta_hat - H_f
    order = np.argsort(np.abs(g_f.points - xm))
    us, vs = [], []
    for idx in order:
        if idx == amax or dist[idx] <= FLOOR:
            continue
        us.append(np.log(abs(g_f.points[idx] - xm)))
        vs.append(np.log(dist[idx]))
        if len(us) == FIT_WINDOW:
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

def assemble_reduced_operator(sys: DispersalSystem, fields: SampledFields,
                              lam: float) -> BlockOperator:
    """The order-(l1 n) operator of the reduced problem at parameter
    lam, from the system's samples fields, kept as its blocks.

    Nodal Schur reductions of the diffusion-included matrices A(x_a)
    (leading block M11 - diag(d_i chi_i)) plus the pure kernel-transfer
    blocks d_i K_i: the departure rates already live inside A's leading
    block, so the transfer blocks must not subtract them again.
    """
    _check_resolvent_domain(sys, fields, lam)
    F = schur_reduce_stack(pointwise_A(sys, fields), sys.l1, lam)
    return BlockOperator(F, fields.transfer, sys.d)


def generalized_eigen_residual(sys: DispersalSystem, fields: SampledFields,
                               lam: float, tol: float = 1e-10,
                               max_iterations: int = MAX_ITERATIONS) -> float:
    """s(T_lam) - lam for the reduced operator T_lam of the samples
    fields: zero exactly when lam solves the reduced generalized
    eigenproblem, which certified spectral bounds do; NonConvergenceError
    when s(T_lam) takes more than max_iterations Noda steps."""
    r = spectral_bound(assemble_reduced_operator(sys, fields, lam), tol=tol,
                       max_iterations=max_iterations)
    if not r.converged:
        raise NonConvergenceError("reduced spectral bound did not converge",
                                  r.value, r.residual)
    return r.value - lam


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
    reference: str   # which limit the deviation is measured against
    rows: tuple


SWEEP_MODES = ("small-d", "large-d-nondegen", "large-d-degen")


def sweep(sys: DispersalSystem, fields: SampledFields, t_schedule,
          mode: str, tol: float = 1e-10,
          max_iterations: int = MAX_ITERATIONS) -> SweepTable:
    """Assemble and solve the operator along a diffusion schedule and
    record the deviation from the mode's theoretical limit.

    small-d scales every rate by t against the pointwise bound;
    large-d-nondegen scales every rate against the averaged bound;
    large-d-degen scales the diffusing rates against the threshold
    outcome.  The samples fields, the weights and the reduced
    quantities are diffusion independent and serve every row.
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
        weights = weights_for_system(sys, fields, max_iterations)
        reference = perron_bound(p_weighted_mean(fields.M, weights,
                                                 fields.grid), max_iterations)
        ref_name = "kappa_tilde"
    elif mode == "large-d-degen":
        _cooperative(fields.M)   # or the classifier names the wrong cause
        weights = weights_for_system(sys, fields, max_iterations)
        outcome = classify_threshold(sys, fields, weights, max_iterations)
        if isinstance(outcome, CaseA):
            reference, ref_name = outcome.gamma_star, "gamma_star"
        else:
            reference, ref_name = outcome.eta22, "eta22"
    else:
        reference, ref_name = max_nodal_bound(fields.M), "kappa"

    rows = []
    for t in ts:
        d = base_d * t
        if mode == "large-d-degen":
            d = base_d.copy()
            d[:sys.l1] *= t
        P = assemble_operator(sys.with_d(d), fields.grid, force=True,
                              fields=fields)
        r = spectral_bound(P, tol=tol, max_iterations=max_iterations)
        s_e = essential_bound(P.nodal)
        rows.append(SweepRow(t=t, s=r.value, s_e=s_e, gap=r.value - s_e,
                             reference=reference,
                             deviation=abs(r.value - reference),
                             converged=r.converged))
    return SweepTable(mode=mode, reference=ref_name, rows=tuple(rows))


# --- perturbation probe ---------------------------------------------------

@dataclass(frozen=True)
class ProbeResult:
    dm_inf: float            # largest coefficient perturbation
    dk_inf: float            # largest kernel perturbation
    ds: float                # signed spectral-bound change
    ds_abs: float
    sandwich_bound: float    # s(entrywise max) - s(entrywise min)


def perturbation_probe(sys: DispersalSystem, fields: SampledFields,
                       tol: float = 1e-10,
                       max_iterations: int = MAX_ITERATIONS):
    """probe(delta, seed, diagonal_shift=None) -> ProbeResult, which
    measures the spectral-bound response to a seeded random perturbation
    of the samples fields of the coefficients and kernels.  The
    unperturbed operator P0 and its bound s0 are computed here, once for
    every probe.

    Off-diagonal coefficients and kernels receive additive noise in
    [0, delta] (cooperativity and nonnegativity preserved); diagonals
    receive noise in [-delta, delta].  The perturbed operator P1 is P0's
    blocks plus the noise: dM on the nodal field, and the quadrature
    dK_i, dchi_i of the kernel noise on K_i and, as -d_i dchi_i, on the
    diffusing diagonals.  The spectral bounds of the entrywise min and
    max of P0 and P1 bracket both bounds, giving a rigorous comparison
    bound on |ds| per draw.  diagonal_shift bypasses the randomness and
    adds c to every diagonal entry, which must move the bound by exactly
    c.  Each solve eliminates the static species, is capped at
    max_iterations Noda steps and raises NonConvergenceError when it
    does not converge.
    """
    grid = fields.grid
    n, l = grid.n, sys.l
    idx = np.arange(l)

    bound = partial(_converged_bound, tol=tol, max_iterations=max_iterations)

    def entrywise(pick, P, Q):   # pick(P, Q), its transfer zero at the nodes
        T = [pick(d * K, d * L)   # P and Q share their rates
             for K, L, d in zip(P.transfer, Q.transfer, P.d)]
        for t in T:
            np.fill_diagonal(t, 0.0)
        return BlockOperator(pick(P.node_entries(), Q.node_entries()),
                             tuple(T), (1.0,) * len(T))

    P0 = assemble_operator(sys, grid, force=True, fields=fields)
    s0 = bound(P0)

    def probe(delta: float, seed: int,
              diagonal_shift: float | None = None) -> ProbeResult:
        if delta < 0:
            raise InvalidParametersError("delta must be nonnegative")
        if diagonal_shift is not None:
            s1 = bound(replace(P0, nodal=P0.nodal + diagonal_shift * np.eye(l)))
            return ProbeResult(dm_inf=abs(diagonal_shift), dk_inf=0.0,
                               ds=s1 - s0, ds_abs=abs(s1 - s0),
                               sandwich_bound=abs(diagonal_shift))

        rng = np.random.default_rng(seed)
        dM = rng.uniform(0.0, delta, size=P0.nodal.shape)
        dM[:, idx, idx] = rng.uniform(-delta, delta, size=(n, l))
        nodal, Ks, dk_inf = P0.nodal + dM, [], 0.0
        for i, K in enumerate(P0.transfer):
            dK = rng.uniform(0.0, delta, size=(n, n))
            dk_inf = max(dk_inf, float(dK.max()))
            dK_w, dchi = kernel_quadrature(dK, grid)   # quadrature is linear
            nodal[:, i, i] -= float(P0.d[i]) * dchi
            Ks.append(K + dK_w)
        P1 = BlockOperator(nodal, tuple(Ks), P0.d)
        s1 = bound(P1)
        s_up = bound(entrywise(np.maximum, P0, P1))
        s_dn = bound(entrywise(np.minimum, P0, P1))
        return ProbeResult(dm_inf=float(np.abs(dM).max()), dk_inf=dk_inf,
                           ds=s1 - s0, ds_abs=abs(s1 - s0),
                           sandwich_bound=s_up - s_dn)
    return probe


def refinement_grids(a: float, b: float, n_list) -> list[Grid]:
    return [build_grid(a, b, int(n)) for n in n_list]
