"""Spectral routines for the assembled operator: spectral bound,
essential spectral bound, principal-eigenpair certification, a dense
eigensolver oracle, and a time-stepping growth-rate cross-check.

The Noda path (spectral_bound, bracketed by Collatz-Wielandt bounds)
and the dense oracle (dense_spectrum, LAPACK's QR eigensolver) are kept
independent; the oracle is the source of truth in disputes.  Existence
of a principal eigenpair is certified from a spectral gap, with the
eigenvector of the same single solve: when s - s_e exceeds the gap
tolerance the rightmost eigenvalue is isolated and carries a strictly
positive eigenvector; without a gap the routine abstains.  The
essential bound is the largest nodal bound; a batched eig only supplies
the test vectors whose Collatz-Wielandt brackets rule out the nodes
below the maximum, and the Noda iteration runs on the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import AssembledOperator, PointwiseA
from .errors import CertificateInconsistencyError, SizeCapError
from .matspec import (MAX_ITERATIONS, PerronResult, max_nodal_bound,
                      metzler_bound)

DENSE_SIZE_CAP = 600


def _mat(P) -> np.ndarray:
    if isinstance(P, AssembledOperator):
        return P.matrix
    return np.asarray(P, dtype=float)


@dataclass(frozen=True)
class Exists:
    """Certified principal eigenpair."""
    eigenvalue: float
    eigenvector: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class NoCertificate:
    """Abstention: absence of a numerically resolvable gap does not
    prove the eigenvalue is missing."""
    reason: str


Certificate = Exists | NoCertificate


@dataclass(frozen=True)
class SpectralReport:
    s: float
    s_e: float
    gap: float
    certificate: Certificate
    iterations: int
    residual: float
    converged: bool
    bracket: tuple[float, float]

    def to_dict(self) -> dict:
        cert: dict
        if isinstance(self.certificate, Exists):
            cert = {"exists": True, "eigenvalue": self.certificate.eigenvalue}
        else:
            cert = {"exists": False, "reason": self.certificate.reason}
        return {"s": self.s, "s_e": self.s_e, "gap": self.gap,
                "certificate": cert, "iterations": self.iterations,
                "residual": self.residual, "converged": self.converged,
                "bracket": list(self.bracket)}


def spectral_bound(P, tol: float = 1e-10,
                   max_iterations: int = MAX_ITERATIONS) -> PerronResult:
    """Rightmost eigenvalue of the flattened Metzler matrix by Noda
    iteration; non-convergence is flagged, not raised.

    On an AssembledOperator of a partially degenerate system (l1 < l)
    each Noda step eliminates the static species node by node, through
    the nodal resolvents (sigma - A22(x_a))^{-1}, and factors only the
    order-(l1 n) Schur complement sigma I - L_sigma, with L_sigma the
    reduced operator at sigma; block_matrix makes the static rows and
    columns nodal.  sigma stays above s(P), so sigma I - P is a
    nonsingular M-matrix and the elimination needs no pivoting across
    blocks.  Raw arrays and fully diffusing systems take one dense LU
    per step; both give the same bracket on the whole matrix.
    """
    if isinstance(P, AssembledOperator):
        return metzler_bound(P.matrix, tol=tol, max_iterations=max_iterations,
                             split=(P.system.l1, P.grid.n))
    return metzler_bound(_mat(P), tol=tol, max_iterations=max_iterations)


def essential_bound(A: PointwiseA) -> float:
    """Largest nodal spectral bound max_a s(A(x_a)); for these operators
    this is the essential spectral bound of the assembled operator.

    Nodes whose Collatz-Wielandt bracket lies below another node's are
    certified below the maximum and skipped; one batched eig supplies
    only the test vectors of those brackets, and the value is the Noda
    bound of the nodes left (max_nodal_bound)."""
    return max_nodal_bound(A.matrices)


def principal_certificate(P, r: PerronResult, s_e: float,
                          gap_tol: float | None = None) -> Certificate:
    """Certify a principal eigenpair from the spectral gap.

    With s = r.value above s_e by more than the tolerance, require the
    solve's eigenvector to be strictly positive with a small
    eigen-residual, else raise (a discretization artifact).  Below
    tolerance, abstain.
    """
    s = r.value
    if gap_tol is None:
        gap_tol = 1e-6 * max(1.0, abs(s))
    if not s - s_e > gap_tol:
        return NoCertificate(
            f"gap {s - s_e:.3g} below tolerance {gap_tol:.3g}")
    u = r.vector / np.max(np.abs(r.vector))
    if np.min(u) <= 0.0:
        raise CertificateInconsistencyError(
            f"gap {s - s_e:.3g} is positive but the converged eigenvector "
            f"has a component {np.min(u):.3g} <= 0")
    resid = float(np.max(np.abs(_mat(P) @ u - s * u)))
    if resid > 1e-8 * float(np.max(np.abs(u))):
        raise CertificateInconsistencyError(
            f"eigen-residual {resid:.3g} exceeds 1e-8 at the certified value")
    return Exists(eigenvalue=s, eigenvector=u)


def dense_spectrum(P) -> np.ndarray:
    """All eigenvalues of the flattened matrix, sorted by descending
    real part (ties by descending imaginary part).  Refuses matrices
    above the size cap."""
    M = _mat(P)
    if M.shape[0] > DENSE_SIZE_CAP:
        raise SizeCapError(
            f"dense solve refused: size {M.shape[0]} exceeds cap {DENSE_SIZE_CAP}")
    vals = np.linalg.eigvals(M)
    order = np.lexsort((-vals.imag, -vals.real))
    return vals[order]


def growth_rate(P, horizon: float, u0=None) -> float:
    """Asymptotic growth rate of the positive semigroup generated by the
    operator, measured by explicit Euler time stepping.

    The step 1/(2c) keeps I + dt P nonnegative, so iterates stay
    positive.  The measured log-slope over [T/2, T] equals
    ln(1 + dt s)/dt once transients decay; the return value inverts that
    compounding exactly, leaving only the transient error.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    M = _mat(P)
    m = M.shape[0]
    c = 1.0 + max(0.0, -float(np.min(np.diag(M))))
    dt = 1.0 / (2.0 * c)
    u = np.ones(m) if u0 is None else np.asarray(u0, dtype=float).copy()
    n_half = max(1, int(np.ceil(0.5 * horizon / dt)))

    def advance(u, steps):
        log_scale = 0.0
        for _ in range(steps):
            u = u + dt * (M @ u)
            nrm = float(np.max(np.abs(u)))
            u /= nrm
            log_scale += np.log(nrm)
        return u, log_scale

    u, _ = advance(u, n_half)
    u, log2 = advance(u, n_half)
    # log2 is ln||u(T)|| - ln||u(T/2)|| (each advance renormalizes to
    # unit max norm, so only the accumulated scale survives)
    rate = log2 / (n_half * dt)
    return float(np.expm1(rate * dt) / dt)


def compute_spectral_report(P, pointwise: PointwiseA, tol: float = 1e-10,
                            gap_tol: float | None = None,
                            max_iterations: int = MAX_ITERATIONS
                            ) -> SpectralReport:
    """One-stop spectral bound + essential bound + certificate, from a
    single solve at min(tol, 1e-13)."""
    r = spectral_bound(P, tol=min(tol, 1e-13), max_iterations=max_iterations)
    s_e = essential_bound(pointwise)
    cert = (principal_certificate(P, r, s_e, gap_tol=gap_tol) if r.converged
            else NoCertificate("spectral bound iteration did not converge"))
    return SpectralReport(s=r.value, s_e=s_e, gap=r.value - s_e,
                          certificate=cert, iterations=r.iterations,
                          residual=r.residual, converged=r.converged,
                          bracket=r.bracket)
