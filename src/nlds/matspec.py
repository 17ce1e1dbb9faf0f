"""Spectral tools for small cooperative (Metzler) matrices, plus the
shared Perron engine used on matrices of any size.

A cooperative matrix has nonnegative off-diagonal entries, so its
rightmost eigenvalue s is real (Perron root) and, for every positive
vector u, min_i (A u)_i / u_i <= s <= max_i (A u)_i / u_i
(Collatz-Wielandt).  The engine below is Noda's inverse iteration: it
shifts by the upper quotient, which keeps the resolvent nonnegative and
the iterate positive, converges quadratically on irreducible input and
reports the quotient bracket as the evidence for s.

On a partially degenerate operator (species-major, with its trailing
species static so that their rows and columns are zero off the nodal
pattern) each step eliminates the static species node by node and
factors only the Schur complement on the diffusing block.  No pivoting
across the blocks is needed: hi > s(A) makes hi I - A a nonsingular
M-matrix, so every nodal pivot block hi I - A22(x_a) and the Schur
complement are nonsingular M-matrices as well.

The largest bound of a stack of nodal matrices (max_nodal_bound, the
essential bound) is screened first: one batched eig supplies a test
vector per node, and nodes whose Collatz-Wielandt bracket at that vector
lies below another node's bracket are certified below the maximum
without an iteration.  eig gives only the test vectors; the brackets are
the evidence, and the value comes from the Noda iteration on the nodes
that remain.
"""

from __future__ import annotations

import math
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
                  max_iterations: int = MAX_ITERATIONS,
                  split: tuple[int, int] | None = None) -> PerronResult:
    """Spectral bound of a Metzler matrix by Noda's inverse iteration.

    From u = 1, each step solves (hi I - A) y = u, with hi = max q and
    q = (A u) / u, and sets u = y / max y.  Stops when
    hi - min q <= tol * c, c = 1 + max(0, -min diag A, max A 1), so the
    scale follows the magnitude of A either way, or when both the
    residual ||A u - rho u||_inf at the Rayleigh quotient rho and the
    last change of rho are that small, which (numerically) reducible
    input reaches with its quotients apart.  The value is rho, or hi if
    hi I - A (or a block of its elimination) is exactly singular or if
    the iterate stops being finite and positive (hi has met s) before
    the residual is small; the bracket [min q, max q] is widened by the
    rounding bound of A u.  Non-convergence is flagged.

    The solve is one dense LU, unless split = (l1, n) says that A is
    species-major with n nodes per species and that the species from
    l1 on do not disperse (their rows and columns are zero off the
    nodal pattern); then it is the block elimination of
    _static_elimination and the one LU has order l1 n.  The quotients,
    the stop rule, the value and the bracket always use the whole A.
    """
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    if m == 0:
        return PerronResult(-np.inf, np.zeros(0), 0, 0.0, True,
                            (-np.inf, -np.inf))
    if m == 1:
        a = float(A[0, 0])
        return PerronResult(a, np.ones(1), 0, 0.0, True, (a, a))
    c = 1.0 + max(0.0, -float(np.min(np.diag(A))))
    solve = (_static_elimination(A, *split)
             if split is not None and split[0] * split[1] < m
             else _dense_solver(A))
    u = np.ones(m)
    converged = on_hi = False
    iters, last = 0, np.inf
    while True:
        v = A @ u
        q = v / u
        lo, hi = float(q.min()), float(q.max())
        if iters == 0:   # u = 1, so hi = max A 1
            scale = tol * max(c, 1.0 + hi)
        value = float(u @ v) / float(u @ u)
        res = float(np.abs(v - value * u).max())
        if hi - lo <= scale or (res <= scale and abs(value - last) <= scale):
            converged = True
            break
        if iters == max_iterations:
            break
        iters += 1
        try:
            y = solve(hi, u)
        except np.linalg.LinAlgError:   # hi is an eigenvalue, so s(A)
            converged = on_hi = True
            break
        top = float(y[np.abs(y).argmax()])   # inf or nan if any entry is
        finite = math.isfinite(top)
        if finite:
            y /= top
        if not (finite and y.min() > 0.0):   # hi is within rounding of s(A)
            converged = res <= scale
            on_hi = not converged   # rho is no estimate without that
            break
        u, last = y, value
    del solve   # free its buffers before the bracket
    lo, up = _cw_bracket(A, u, q)
    return PerronResult(hi if on_hi else value, u, iters, res, converged,
                        (float(lo), float(up)))


def _cw_bracket(A: np.ndarray, u: np.ndarray, q: np.ndarray):
    """Collatz-Wielandt bracket (min q, max q) of a Metzler A at a
    positive u, q = (A u) / u, widened by the rounding bound
    (m + 2) eps (|A| u) / u of A u.  Works over the last axis: a stack
    (..., m, m) with u and q (..., m) gives one bracket per matrix.
    |A| u goes by 128-row blocks, so a large A gets no operator-sized
    copy."""
    m = A.shape[-1]
    abs_au = np.concatenate([np.abs(A[..., i:i + 128, :]) @ u[..., None]
                             for i in range(0, m, 128)], -2)[..., 0]
    err = (m + 2) * EPS * abs_au / u
    return (q - err).min(-1), (q + err).max(-1)


def _dense_solver(A: np.ndarray):
    """(hi, u) -> (hi I - A)^{-1} u by one dense LU, formed in one
    reused buffer."""
    shifted = np.empty_like(A)
    m = A.shape[0]

    def solve(hi: float, u: np.ndarray) -> np.ndarray:
        np.negative(A, out=shifted)
        shifted.flat[::m + 1] += hi
        return np.linalg.solve(shifted, u)
    return solve


def _static_elimination(A: np.ndarray, l1: int, n: int):
    """(hi, u) -> (hi I - A)^{-1} u for a species-major A whose species
    from l1 on are static, by block Gaussian elimination.

    At each node a, X_a = (hi I - A22(x_a))^{-1} [A21(x_a) | u2_a] comes
    from one batched schur_reduce_stack call, whose result carries
    A12 X_a.  Then y1 solves the order-(l1 n) Schur complement
    (hi I - A11 - blockdiag A12 X) y1 = u1 + A12 (hi I - A22)^{-1} u2 by
    one dense LU, and y2_a = X_a [y1_a; 1].  A singular block raises
    LinAlgError, as the dense solve would.
    """
    k = l1 * n
    node = np.arange(A.shape[0]).reshape(-1, n).T   # node[a, i]: row of (i, x_a)
    nodal = A[node[:, :, None], node[:, None, :]]    # A(x_a), (n, l, l)
    nodal[:, :l1, :l1] = 0.0   # A11 stays in the dense block
    rows, cols = node[:, :l1, None], node[:, None, :l1]
    schur = np.empty((k, k))
    ones = np.ones((n, 1, 1))

    def solve(hi: float, u: np.ndarray) -> np.ndarray:
        G, X = schur_reduce_stack(nodal, l1, hi,
                                  rhs=u[k:].reshape(-1, n).T[..., None])
        np.negative(A[:k, :k], out=schur)
        schur.flat[::k + 1] += hi
        schur[rows, cols] -= G[..., :l1]
        y1 = np.linalg.solve(schur, u[:k] + G[..., l1].T.ravel())
        y2 = X @ np.concatenate((y1.reshape(l1, n).T[..., None], ones), 1)
        return np.concatenate((y1, y2[..., 0].T.ravel()))
    return solve


def _converged_bound(A: np.ndarray, tol: float = 1e-12,
                     max_iterations: int = MAX_ITERATIONS,
                     split: tuple[int, int] | None = None) -> float:
    """metzler_bound(A).value; raises NonConvergenceError when the
    iteration does not converge."""
    r = metzler_bound(A, tol=tol, max_iterations=max_iterations, split=split)
    if not r.converged:
        raise NonConvergenceError("Perron iteration did not converge",
                                  r.value, r.residual)
    return r.value


def perron_bound(C) -> float:
    """Spectral bound s(C) of a cooperative matrix.

    Raises NonConvergenceError if the iteration budget is exhausted.
    """
    return _converged_bound(_as_matrix(C))


def is_irreducible(C) -> bool | np.ndarray:
    """True iff the off-diagonal adjacency graph is strongly connected;
    for a stack (..., m, m), a boolean array with one answer per matrix.

    Squaring the reflexive adjacency ceil(log2(m - 1)) times marks every
    pair joined by a path of length at most m - 1.
    """
    a = np.asarray(C.entries if isinstance(C, CoopMatrix) else C, dtype=float)
    m = a.shape[-1]
    reach = (a > TOL_ZERO) | np.eye(m, dtype=bool)
    for _ in range(max(m - 2, 0).bit_length()):
        reach = reach @ reach
    ok = reach.all(axis=(-2, -1))
    return bool(ok) if ok.ndim == 0 else ok


def nodal_bounds(stack) -> np.ndarray:
    """Spectral bounds s(A_a) of a stack (n, l, l) of Metzler matrices,
    one per node; an empty block (l = 0) gives -inf.

    Raises NonConvergenceError, naming the node, if any nodal iteration
    fails to converge.
    """
    A = np.asarray(stack, dtype=float)
    return np.array([_nodal_bound(A, a) for a in range(len(A))])


def _nodal_bound(stack: np.ndarray, a: int) -> float:
    """Converged metzler_bound(stack[a]).value; the error names node a."""
    r = metzler_bound(stack[a])
    if not r.converged:
        raise NonConvergenceError(
            f"Perron iteration did not converge at node {a}", r.value,
            r.residual)
    return r.value


def max_nodal_bound(stack) -> float:
    """float(np.max(nodal_bounds(stack))), iterating only on the nodes
    that can hold the maximum.

    One batched eig gives each node a test vector v_a, and nothing else:
    the real part of its rightmost eigenvector, scaled to max 1 and
    raised to at least eps (eig returns (1, 0) for
    [[0.5, 1e-300], [1e-300, 0]]).  The evidence is the
    Collatz-Wielandt bracket [lo_a, hi_a] of A_a at v_a, valid at any
    positive vector and widened for rounding as in metzler_bound; if
    eig fails, every bracket is (-inf, inf).  A node with
    hi_a + 4 tol c < max_b lo_b (tol c: metzler_bound's stop scale over
    the whole stack) is certified below the maximum and dropped, even if
    its own iteration would not converge.  The others run metzler_bound,
    and a failure among them raises NonConvergenceError.
    """
    A = np.asarray(stack, dtype=float)
    n = len(A)
    if 0 in A.shape:   # no node, or empty blocks: nothing to screen
        return float(np.max(nodal_bounds(A)))
    with np.errstate(all="ignore"):   # a NaN or inf bracket drops nothing
        try:
            w, V = np.linalg.eig(A)
        except np.linalg.LinAlgError:   # no test vectors: refine every node
            lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
        else:
            v = V[np.arange(n), :, w.real.argmax(-1)].real
            v = np.fmax(v / v[np.arange(n), np.abs(v).argmax(-1)][:, None],
                        EPS)   # positive, so the bracket holds
            lo, hi = _cw_bracket(A, v, (A @ v[..., None])[..., 0] / v)
        c = 1.0 + max(0.0, -float(np.diagonal(A, 0, -2, -1).min()),
                      float(A.sum(-1).max()))
        keep = ~(hi + 4e-12 * c < lo.max())   # 4 tol c, tol = 1e-12
    return float(np.max([_nodal_bound(A, a) for a in np.flatnonzero(keep)]))


def schur_reduce_stack(A, l1: int, lam: float, rhs=None):
    """A11 + A12 (lam I - A22)^{-1} A21 for every matrix of a stack
    (..., l, l), without checks; A itself when l1 = l.

    With rhs (..., l - l1, k), returns (F, X) instead: the trailing
    solve X = (lam I - A22)^{-1} [A21 | rhs] and F = [A11 | 0] + A12 X,
    whose last k columns are A12 (lam I - A22)^{-1} rhs.
    """
    A = np.asarray(A, dtype=float)
    l = A.shape[-1]
    if l1 == l:
        return A
    R = lam * np.eye(l - l1) - A[..., l1:, l1:]
    if rhs is None:
        X = np.linalg.solve(R, A[..., l1:, :l1])
        return A[..., :l1, :l1] + A[..., :l1, l1:] @ X
    X = np.linalg.solve(R, np.concatenate((A[..., l1:, :l1], rhs), -1))
    F = A[..., :l1, l1:] @ X
    F[..., :l1] += A[..., :l1, :l1]
    return F, X


def schur_reduce(C, l1: int, gamma: float) -> CoopMatrix:
    """Eliminate the trailing block at resolvent parameter gamma:
    C11 + C12 (gamma I - C22)^{-1} C21, an l1 x l1 cooperative matrix.

    Requires gamma > s(C22) so the resolvent is entrywise nonnegative:
    raises ResolventDomainError if not, and NonConvergenceError if the
    bound of C22 did not converge and gamma is not above its bracket.
    """
    a = _as_matrix(C)
    m = a.shape[0]
    if not 0 < l1 <= m:
        raise ValueError(f"block split l1={l1} out of range for order {m}")
    if l1 == m:
        return CoopMatrix(a.copy())
    c22 = a[l1:, l1:]
    r = metzler_bound(c22)
    if not (r.converged or gamma > r.bracket[1]):
        raise NonConvergenceError(
            f"trailing block bound did not converge and its bracket "
            f"[{r.bracket[0]:.6g}, {r.bracket[1]:.6g}] does not decide "
            f"whether {gamma:.6g} is above it", r.value, r.residual)
    if not gamma > r.value:
        raise ResolventDomainError(
            f"resolvent parameter {gamma:.6g} is not above the trailing "
            f"block bound {r.value:.6g}")
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
        out.append(_converged_bound(a - np.diag(shift)))
    return out
