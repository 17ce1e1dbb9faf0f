"""Spectral routines for an operator kept as its blocks (BlockOperator):
spectral bound, essential spectral bound, principal-eigenpair
certification and a dense eigensolver oracle.

The Noda path (spectral_bound, bracketed by Collatz-Wielandt bounds, on
the operator's blocks) and the dense oracle (dense_spectrum, LAPACK's QR
eigensolver on the dense matrix) are kept independent; the oracle is the
source of truth in disputes.  From n = 4 COARSE_N nodes on, Noda starts
from the eigenvector on COARSE_N cells, built from the operator's blocks
(u = 1 if that fails); the evidence is the fine bracket.  Existence of a
principal eigenpair is certified from a spectral gap, with the
eigenvector of the same single solve: when s - s_e exceeds the gap
tolerance the rightmost eigenvalue is isolated and carries a strictly
positive eigenvector; without a gap the routine abstains.  The essential
bound is the largest nodal bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CertificateInconsistencyError, SizeCapError
from .matspec import (EPS, MAX_ITERATIONS, BlockOperator, PerronResult,
                      max_nodal_bound, metzler_bound)

DENSE_SIZE_CAP = 600
COARSE_N = 64   # cells of the operator whose eigenvector starts a fine solve


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
    iteration (metzler_bound); non-convergence is flagged, not raised.
    A BlockOperator is never formed densely: each Noda step eliminates
    the static species node by node and solves the order-(l1 n) Schur
    complement on the blocks (matspec._static_elimination); raw arrays
    take one dense LU per step.  The bracket is on the whole matrix, so
    it holds however the step solved.

    From n = 4 COARSE_N nodes on, Noda starts from P on COARSE_N cells:
    P's blocks linearly interpolated at the cell midpoints (K_i along both
    indices, times n / COARSE_N), with the row sums the K_i lose put back
    on the nodal diagonal, so that a constant eigenvector stays exact.
    Its eigenvector, interpolated back by species, scaled to max 1 and
    floored at eps, is the start (u = 1 if that solve does not converge).
    iterations counts the fine steps.
    """
    start, n = None, len(P.nodal) if isinstance(P, BlockOperator) else 0
    if n >= 4 * COARSE_N:
        at = (np.arange(COARSE_N) + 0.5) * (n / COARSE_N) - 0.5   # node units
        nodal, transfer = _interp(P.nodal, at), []
        for i, K in enumerate(P.transfer):
            rows = _interp(K, at)   # K_i's rows at the coarse nodes
            transfer.append(_interp(rows.T, at).T * (n / COARSE_N))
            nodal[:, i, i] += P.d[i] * (rows.sum(1) - transfer[i].sum(1))
        r = metzler_bound(BlockOperator(nodal, tuple(transfer), P.d),
                          tol=tol, max_iterations=max_iterations)
        if r.converged:
            u = np.concatenate([np.interp(np.arange(n), at, w)
                                for w in r.vector.reshape(-1, COARSE_N)])
            start = np.fmax(u / u.max(), EPS)
    return metzler_bound(P, tol=tol, max_iterations=max_iterations,
                         start=start)


def _interp(x: np.ndarray, at: np.ndarray) -> np.ndarray:
    """x (n, ...) at the fractional indices at in [0, n - 1), along axis 0."""
    lo, f = at.astype(int), (at % 1).reshape(-1, *(1,) * (x.ndim - 1))
    return x[lo] + f * (x[lo + 1] - x[lo])


def essential_bound(A: np.ndarray) -> float:
    """Largest nodal spectral bound max_a s(A(x_a)) of the stack A
    (n, l, l), by max_nodal_bound; on an assembled operator's nodal field
    this is the operator's essential spectral bound."""
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


def compute_spectral_report(P: BlockOperator, tol: float = 1e-10,
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
