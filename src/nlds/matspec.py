"""Spectral tools for small cooperative (Metzler) matrices, plus the
shared Perron engine used on matrices of any size.

A cooperative matrix has nonnegative off-diagonal entries, so its
rightmost eigenvalue s is real (Perron root) and, for every positive
vector u, min_i (A u)_i / u_i <= s <= max_i (A u)_i / u_i
(Collatz-Wielandt).  The engine below is Noda's inverse iteration: it
shifts by the upper quotient, which keeps the resolvent nonnegative and
the iterate positive, converges quadratically on irreducible input and
reports the quotient bracket as the evidence for s.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, ResolventDomainError

TOL_ZERO = 1e-13  # entries below this count as structural zeros
MAX_ITERATIONS = 100  # Noda steps (dense LU solves) per bound
EPS = float(np.finfo(float).eps)


class IllConditionedWarning(UserWarning):
    """Resolvent solve with estimated condition number above 1e14."""


class NearSingularWarning(UserWarning):
    """Resolvent parameter within rounding distance of a pole."""


@dataclass(frozen=True)
class CoopMatrix:
    """Square matrix with nonnegative off-diagonal entries."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"need a square matrix, got shape {a.shape}")
        off = a - np.diag(np.diag(a))
        if np.min(off) < -TOL_ZERO:
            i, j = np.unravel_index(np.argmin(off), off.shape)
            raise ValueError(
                f"not cooperative: entry ({i},{j}) = {a[i, j]:.6g} < 0")
        object.__setattr__(self, "entries", a)

    @property
    def order(self) -> int:
        return self.entries.shape[0]


def _as_matrix(C) -> np.ndarray:
    if isinstance(C, CoopMatrix):
        return C.entries
    return CoopMatrix(np.asarray(C, dtype=float)).entries


@dataclass(frozen=True)
class PerronResult:
    """Outcome of a Perron iteration; the bracket holds the bound."""

    value: float
    vector: np.ndarray
    iterations: int
    residual: float
    converged: bool
    bracket: tuple[float, float]


def metzler_bound(A: np.ndarray, tol: float = 1e-12,
                  max_iterations: int = MAX_ITERATIONS) -> PerronResult:
    """Spectral bound of a Metzler matrix by Noda's inverse iteration.

    From u = 1, each step solves (hi I - A) y = u by one dense LU, with
    hi = max q and q = (A u) / u, and sets u = y / max y.  Stops when
    hi - min q <= tol * c, c = 1 + max(0, -min diag A), or when both the
    residual ||A u - rho u||_inf at the Rayleigh quotient rho and the
    last change of rho are that small, which (numerically) reducible
    input reaches with its quotients apart.  The value is rho, or hi if
    hi I - A is exactly singular; the bracket [min q, max q] is widened
    by the rounding bound of A u.  Non-convergence is flagged.
    """
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    if m == 0:
        return PerronResult(-np.inf, np.zeros(0), 0, 0.0, True,
                            (-np.inf, -np.inf))
    if m == 1:
        a = float(A[0, 0])
        return PerronResult(a, np.ones(1), 0, 0.0, True, (a, a))
    scale = tol * (1.0 + max(0.0, -float(np.min(np.diag(A)))))
    shifted = np.empty_like(A)   # one buffer for hi I - A, then |A|
    u = np.ones(m)
    converged = singular = False
    iters, last = 0, np.inf
    while True:
        v = A @ u
        q = v / u
        lo, hi = float(q.min()), float(q.max())
        value = float(u @ v) / float(u @ u)
        res = float(np.abs(v - value * u).max())
        if hi - lo <= scale or (res <= scale and abs(value - last) <= scale):
            converged = True
            break
        if iters == max_iterations:
            break
        np.negative(A, out=shifted)
        shifted.flat[::m + 1] += hi
        iters += 1
        try:
            y = np.linalg.solve(shifted, u)
        except np.linalg.LinAlgError:   # hi is an eigenvalue, so s(A)
            converged = singular = True
            break
        y /= y[np.abs(y).argmax()]
        if not y.min() > 0.0:   # hi is within rounding of s(A)
            converged = res <= scale
            break
        u, last = y, value
    np.abs(A, out=shifted)
    err = (m + 2) * EPS * (shifted @ u) / u
    return PerronResult(hi if singular else value, u, iters, res, converged,
                        (float((q - err).min()), float((q + err).max())))


def perron_bound(C, tol: float = 1e-12) -> float:
    """Spectral bound s(C) of a cooperative matrix.

    Raises NonConvergenceError if the iteration budget is exhausted.
    """
    r = metzler_bound(_as_matrix(C), tol=tol)
    if not r.converged:
        raise NonConvergenceError("Perron iteration did not converge",
                                  r.value, r.residual)
    return r.value


def is_irreducible(C, tol_zero: float = TOL_ZERO) -> bool:
    """True iff the off-diagonal adjacency graph is strongly connected."""
    a = np.asarray(C.entries if isinstance(C, CoopMatrix) else C, dtype=float)
    m = a.shape[0]
    if m <= 1:
        return True
    adj = a > tol_zero
    np.fill_diagonal(adj, False)
    return _reaches_all(adj) and _reaches_all(adj.T)


def _reaches_all(adj: np.ndarray) -> bool:
    m = adj.shape[0]
    seen = np.zeros(m, dtype=bool)
    seen[0] = True
    stack = [0]
    while stack:
        i = stack.pop()
        for j in np.nonzero(adj[i])[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return bool(seen.all())


def nodal_bounds(stack) -> np.ndarray:
    """Spectral bounds s(A_a) of a stack (n, l, l) of Metzler matrices,
    one per node; an empty block (l = 0) gives -inf."""
    return np.array([metzler_bound(m).value
                     for m in np.asarray(stack, dtype=float)])


def schur_reduce_stack(A, l1: int, lam: float) -> np.ndarray:
    """A11 + A12 (lam I - A22)^{-1} A21 for every matrix of a stack
    (..., l, l), without checks; A itself when l1 = l."""
    A = np.asarray(A, dtype=float)
    l = A.shape[-1]
    if l1 == l:
        return A
    R = lam * np.eye(l - l1) - A[..., l1:, l1:]
    X = np.linalg.solve(R, A[..., l1:, :l1])
    return A[..., :l1, :l1] + A[..., :l1, l1:] @ X


def schur_reduce(C, l1: int, gamma: float) -> CoopMatrix:
    """Eliminate the trailing block at resolvent parameter gamma:
    C11 + C12 (gamma I - C22)^{-1} C21, an l1 x l1 cooperative matrix.

    Requires gamma > s(C22) so the resolvent is entrywise nonnegative.
    """
    a = _as_matrix(C)
    m = a.shape[0]
    if not 0 < l1 <= m:
        raise ValueError(f"block split l1={l1} out of range for order {m}")
    if l1 == m:
        return CoopMatrix(a.copy())
    c22 = a[l1:, l1:]
    s22 = metzler_bound(c22).value
    if not gamma > s22:
        raise ResolventDomainError(
            f"resolvent parameter {gamma:.6g} is not above the trailing "
            f"block bound {s22:.6g}")
    cond = np.linalg.cond(gamma * np.eye(m - l1) - c22, 1)
    if cond > 1e14:
        warnings.warn(f"resolvent solve condition estimate {cond:.3g}",
                      IllConditionedWarning, stacklevel=2)
    return CoopMatrix(schur_reduce_stack(a, l1, gamma))


def large_shift_limit_check(C, l1: int, mu_schedule) -> list[float]:
    """Spectral bounds of C - diag(mu, ..., mu, 0, ..., 0) along a
    positive increasing schedule of shifts applied to the first l1 rows.

    The values decrease toward s(C22); the caller asserts convergence.
    """
    a = _as_matrix(C)
    mus = [float(m) for m in mu_schedule]
    if any(m < 0 for m in mus) or any(m2 <= m1 for m1, m2 in zip(mus, mus[1:])):
        raise ValueError("shift schedule must be nonnegative and increasing")
    out = []
    for mu in mus:
        shift = np.zeros(a.shape[0])
        shift[:l1] = mu
        out.append(metzler_bound(a - np.diag(shift)).value)
    return out
