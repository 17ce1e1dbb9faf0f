"""Spectral routines for the assembled operator: spectral bound,
essential spectral bound, principal-eigenpair certification and a
dense eigensolver oracle.

The Noda path (spectral_bound, bracketed by Collatz-Wielandt bounds, on
the operator's blocks) and the dense oracle (dense_spectrum, LAPACK's QR
eigensolver on the dense matrix) are kept independent; the oracle is the
source of truth in disputes.  From n = 4 COARSE_N cells on, Noda starts
from the eigenvector on COARSE_N cells (u = 1 if that fails); the
evidence is the fine bracket.  Existence of a principal eigenpair is
certified from a spectral gap, with the eigenvector of the same single
solve: when s - s_e exceeds the gap tolerance the rightmost eigenvalue
is isolated and carries a strictly positive eigenvector; without a gap
the routine abstains.  The essential bound is the largest nodal bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import AssembledOperator, assemble_operator
from .errors import CertificateInconsistencyError, NldsError, SizeCapError
from .grid import build_grid
from .matspec import (EPS, MAX_ITERATIONS, BlockOperator, PerronResult,
                      max_nodal_bound, metzler_bound)

DENSE_SIZE_CAP = 600
COARSE_N = 64   # cells of the grid whose eigenvector starts a fine solve


@dataclass(frozen=True)
class Exists:
    """Certified principal eigenpair."""
    eigenvalue: float
    eigenvector: np.ndarray = field(repr=False)
    exists: bool = field(default=True, init=False)


@dataclass(frozen=True)
class NoCertificate:
    """Abstention: absence of a numerically resolvable gap does not
    prove the eigenvalue is missing."""
    reason: str
    exists: bool = field(default=False, init=False)


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


def spectral_bound(P, tol: float = 1e-10,
                   max_iterations: int = MAX_ITERATIONS) -> PerronResult:
    """Rightmost eigenvalue of the flattened Metzler matrix by Noda
    iteration; non-convergence is flagged, not raised.

    An operator of blocks is never formed densely: its products cost
    O(l^2 n + l1 n^2), and each Noda step eliminates the static species
    node by node, through the nodal resolvents (sigma - A22(x_a))^{-1},
    and solves only the order-(l1 n) Schur complement sigma I - L_sigma,
    L_sigma the reduced operator at sigma (of order l n when every species
    disperses): by gmres on its blocks from order KRYLOV_MIN_ORDER on, by
    one dense LU below.  sigma stays above s(P), so sigma I - P is a
    nonsingular M-matrix and the elimination needs no pivoting across
    blocks.  Raw arrays take one dense LU per step; both give the bracket
    on the whole matrix, which holds however the step solved.  On an AssembledOperator of n >= 4 COARSE_N
    cells, Noda starts from the eigenvector of the system on COARSE_N
    cells, interpolated by species, scaled to max 1 and floored at eps;
    from u = 1 if that solve raises or does not converge.  iterations
    counts the fine steps.
    """
    start = None
    if isinstance(P, AssembledOperator) and P.grid.n >= 4 * COARSE_N:
        g, cg = P.grid, build_grid(P.grid.a, P.grid.b, COARSE_N)
        try:
            r = metzler_bound(assemble_operator(P.system, cg, force=True),
                              tol=tol, max_iterations=max_iterations)
            u = np.concatenate([np.interp(g.points, cg.points, w)
                                for w in r.vector.reshape(-1, COARSE_N)])
            start = np.fmax(u / u.max(), EPS) if r.converged else None
        except (NldsError, np.linalg.LinAlgError):
            pass   # start from u = 1
    return metzler_bound(P, tol=tol, max_iterations=max_iterations,
                         start=start)


def essential_bound(A: np.ndarray) -> float:
    """Largest nodal spectral bound max_a s(A(x_a)) of the stack A
    (n, l, l), by max_nodal_bound; on AssembledOperator.nodal this is the
    essential spectral bound of the assembled operator."""
    return max_nodal_bound(A)


def principal_certificate(P: BlockOperator, r: PerronResult, s_e: float,
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
    resid = float(np.max(np.abs((P @ u[:, None])[:, 0] - s * u)))
    if resid > 1e-8 * float(np.max(np.abs(u))):
        raise CertificateInconsistencyError(
            f"eigen-residual {resid:.3g} exceeds 1e-8 at the certified value")
    return Exists(eigenvalue=s, eigenvector=u)


def dense_spectrum(P) -> np.ndarray:
    """All eigenvalues of the flattened matrix, sorted by descending
    real part (ties by descending imaginary part).  Refuses matrices
    above the size cap."""
    M = P.matrix if isinstance(P, BlockOperator) else np.asarray(P, float)
    if M.shape[0] > DENSE_SIZE_CAP:
        raise SizeCapError(
            f"dense solve refused: size {M.shape[0]} exceeds cap {DENSE_SIZE_CAP}")
    vals = np.linalg.eigvals(M)
    order = np.lexsort((-vals.imag, -vals.real))
    return vals[order]


def compute_spectral_report(P: AssembledOperator, tol: float = 1e-10,
                            gap_tol: float | None = None,
                            max_iterations: int = MAX_ITERATIONS,
                            s_e: float | None = None) -> SpectralReport:
    """One-stop spectral bound + essential bound + certificate of the
    assembled operator, from a single solve at min(tol, 1e-13); the
    essential bound is s_e, the caller's max of the nodal bounds of
    P.nodal, or else essential_bound(P.nodal)."""
    r = spectral_bound(P, tol=min(tol, 1e-13), max_iterations=max_iterations)
    if s_e is None:
        s_e = essential_bound(P.nodal)
    cert = (principal_certificate(P, r, s_e, gap_tol=gap_tol) if r.converged
            else NoCertificate("spectral bound iteration did not converge"))
    return SpectralReport(s=r.value, s_e=s_e, gap=r.value - s_e,
                          certificate=cert, iterations=r.iterations,
                          residual=r.residual, converged=r.converged,
                          bracket=r.bracket)
