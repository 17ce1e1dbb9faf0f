"""Spectral tools for small cooperative (Metzler) matrices, plus the
shared Perron engine used on matrices of any size.

A cooperative matrix has nonnegative off-diagonal entries, so its
rightmost eigenvalue s is real (Perron root) and, for every positive
vector u, min_i (A u)_i / u_i <= s <= max_i (A u)_i / u_i
(Collatz-Wielandt).  The engine is Noda's inverse iteration: it shifts
by the upper quotient, which keeps the resolvent nonnegative and the
iterate positive, converges quadratically on irreducible input and
reports the quotient bracket as the evidence for s.  There is one Noda
loop, over a stack (N, m, m) with per-matrix stop rules: metzler_bound
runs it on a stack of one, nodal_bounds on the nodal matrices.  A
dispersal operator enters as a BlockOperator, its nodal field and
transfer matrices, and is never formed densely: each step eliminates
the static species node by node and solves only the Schur complement
on the diffusing block, itself a BlockOperator (_static_elimination):
by gmres, products with its blocks, from order KRYLOV_MIN_ORDER on, and
by one dense LU below.

The largest bound of a stack (max_nodal_bound, the essential bound) is
screened first: Collatz-Wielandt brackets at the eigenvectors of one
batched eig certify most nodes below the maximum, and metzler_bound
runs on the nodes that remain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidParametersError, NonConvergenceError

TOL_ZERO = 1e-13  # entries below this count as structural zeros
MAX_ITERATIONS = 100  # Noda steps per bound
KRYLOV_MIN_ORDER = 256  # Schur complements from this order on go to gmres
EPS = float(np.finfo(float).eps)
ETA = float(np.finfo(float).smallest_subnormal)


@dataclass(frozen=True)
class BlockOperator:
    """Species-major matrix P of order l n, kept as its blocks: block
    (i, j) is diag(nodal[:, i, j]), plus d_i K_i on block (i, i) for the
    transfer matrix K_i (n, n) of each of the leading l1 = len(transfer)
    species; the other species are static, with nodal rows and columns.
    To metzler_bound and the Noda loop it is a stack of one matrix; the
    dense P, matrix, is built on first use and kept."""

    nodal: np.ndarray = field(repr=False)   # (n, l, l)
    transfer: tuple = field(repr=False)     # l1 arrays (n, n)
    d: tuple                                # rates, at least l1 of them

    def __len__(self) -> int:
        return self.nodal.shape[0] * self.nodal.shape[1]

    @cached_property
    def matrix(self) -> np.ndarray:
        return _write_blocks(np.zeros((len(self), len(self))), self.transfer,
                             self.d, self.node_entries())

    def node_entries(self) -> np.ndarray:
        """P's entries at the nodes, (n, l, l): nodal + d_i K_i(x_a, x_a)."""
        E = self.nodal.copy()
        for i, K in enumerate(self.transfer):
            E[:, i, i] += float(self.d[i]) * K.diagonal()
        return E

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """P x for x (..., l n, k) or (l n,), in O(l^2 n k + l1 n^2 k); a
        sum of at most n + 2 rounded terms per entry."""
        n, l = self.nodal.shape[:2]
        shape, x = x.shape, x[:, None] if x.ndim == 1 else x
        X = x.reshape(*x.shape[:-2], l, n, x.shape[-1])
        D = self.nodal.transpose(1, 2, 0)[..., None]   # D[i, j]: block (i, j)
        out = (D * X[..., None, :, :, :]).sum(-3)
        for i, K in enumerate(self.transfer):
            out[..., i, :, :] += float(self.d[i]) * (K @ X[..., i, :, :])
        return out.reshape(shape)

    def __abs__(self) -> BlockOperator:
        """The blocks' absolute values: |P| x bounds the terms of P x."""
        return self._abs

    @cached_property
    def _abs(self) -> BlockOperator:
        return BlockOperator(np.abs(self.nodal), tuple(
            K if K.min() >= 0 else np.abs(K) for K in self.transfer),
            tuple(abs(d) for d in self.d))


@dataclass(frozen=True)
class PerronResult:
    """Outcome of a Perron iteration; the bracket holds the bound."""

    value: float
    vector: np.ndarray
    iterations: int
    residual: float
    converged: bool
    bracket: tuple[float, float]


def metzler_bound(A, tol: float = 1e-12,
                  max_iterations: int = MAX_ITERATIONS,
                  start: np.ndarray | None = None) -> PerronResult:
    """Spectral bound of a Metzler matrix by Noda's inverse iteration,
    run as _noda on the stack of one.

    From u = start > 0 (default 1), each step solves (hi I - A) y = u,
    with hi = max q and q = (A u) / u, and sets u = y / max y.  Stops when
    hi - min q <= tol * c, c = 1 + max(0, -min diag A, max A 1), so the
    scale follows the magnitude of A either way, or when both the
    residual ||A u - rho u||_inf at the Rayleigh quotient rho and the
    last change of rho are that small, which (numerically) reducible
    input reaches with its quotients apart.  The value is rho, or hi if
    hi I - A (or a block of its elimination) is exactly singular or if
    the iterate stops being finite and positive (hi has met s) before
    the residual is small.  An iterate whose entries are all above
    -m eps is not yet such a stop: those entries are rounding of positive
    ones, they are raised to m eps, and the iteration goes on.  The
    bracket [min q, max q] is widened by the rounding bound of A u.
    Non-convergence is flagged.

    A is a matrix, solved by one dense LU per step, or a BlockOperator,
    solved by the block elimination of _static_elimination, whose Schur
    complement of order l1 n goes to gmres from KRYLOV_MIN_ORDER on.  How
    a step solves does not enter the evidence: the quotients, the stop
    rule, the value and the bracket always use the whole A.  A
    BlockOperator with an off-diagonal entry below -TOL_ZERO, in its
    nodal field or in a d_i K_i, raises InvalidParametersError.
    """
    if isinstance(A, BlockOperator):
        _cooperative(A.nodal)
        for i, (K, abs_K, d) in enumerate(zip(A.transfer, abs(A).transfer,
                                              A.d)):
            if d < 0 or d > 0 and abs_K is not K:   # |P| keeps K if K >= 0
                _cooperative(d * K, f" in transfer block {i}")
    else:
        A = np.asarray(A, dtype=float)
        if len(A) <= 1:   # an empty matrix gives -inf
            a = float(A[0, 0]) if len(A) else -np.inf
            return PerronResult(a, np.ones(len(A)), 0, 0.0, True, (a, a))
        A = A[None]
    r = _noda(A, tol, max_iterations, None if start is None else start[None])
    return PerronResult(float(r.value[0]), r.vector[0], int(r.iterations[0]),
                        float(r.residual[0]), bool(r.converged[0]),
                        (float(r.bracket[0][0]), float(r.bracket[1][0])))


def _noda(A, tol: float, max_iterations: int,
          u0: np.ndarray | None = None) -> PerronResult:
    """metzler_bound's iteration on each matrix of a stack (N, m, m),
    m >= 1, or on a BlockOperator as a stack of one, each matrix with its
    own stop scale and rules; a PerronResult of arrays, one entry per
    matrix.  The matrices still iterating share each step's matmul and
    solve.  A singular shift fails a batched solve, which is then retried
    matrix by matrix.  The start u0 (N, m) is metzler_bound's; max A 1 is
    one more product with u0."""
    blocks = isinstance(A, BlockOperator)
    N, m = (1, len(A)) if blocks else (A.shape[0], A.shape[-1])
    diag = np.diagonal(A.node_entries() if blocks else A, 0, -2, -1)
    c = 1.0 + np.fmax(0.0, -diag.reshape(N, -1).min(-1))
    if u0 is not None:
        c = np.fmax(c, 1.0 + (A @ np.ones((N, m, 1))).max((-2, -1)))
    solve = _static_elimination(A) if blocks else _dense_solver(A)
    value, res, iters = np.empty(N), np.empty(N), np.zeros(N, int)
    converged, U, Q = np.zeros(N, bool), np.empty((N, m)), np.empty((N, m))
    act, it = np.arange(N), 0   # the matrices still iterating; their state:
    Aa, u, last = A, np.ones((N, m)) if u0 is None else u0, np.full(N, np.inf)

    def retire(out, conv, on_hi):   # the matrices out stop here
        a = act[out]
        value[a] = np.where(on_hi[out], hi[out], rho[out])
        res[a], iters[a], converged[a] = r[out], it, conv[out]
        U[a], Q[a] = u[out], q[out]
        return ~out

    while True:
        v = (Aa @ u[..., None])[..., 0]
        q = v / u
        hi = q.max(-1)
        if it == 0:   # with u = 1, hi = max A 1
            scale = tol * (c if u0 is not None else np.fmax(c, 1.0 + hi))
        rho = ((u[:, None] @ v[..., None])[:, 0, 0]
               / (u[:, None] @ u[..., None])[:, 0, 0])
        r = np.abs(v - rho[:, None] * u).max(-1)
        done = ((hi - q.min(-1) <= scale)
                | ((r <= scale) & (abs(rho - last) <= scale)))
        if it == max_iterations or done.any():
            keep = retire(done | (it == max_iterations), done,
                          np.zeros_like(done))
            if not keep.any():
                break
            act, Aa, u, q, hi, rho, r, scale, last = (
                x[keep] for x in (act, Aa, u, q, hi, rho, r, scale, last))
        it += 1
        singular = np.zeros(len(act), bool)   # hi is an eigenvalue, so s
        try:
            y = solve(Aa, hi, u)
        except np.linalg.LinAlgError:   # for which matrix?
            y, singular[:] = np.full_like(u, np.nan), len(act) == 1
            for i in np.flatnonzero(~singular):
                try:
                    y[i] = solve(Aa[i:i + 1], hi[i:i + 1], u[i:i + 1])[0]
                except np.linalg.LinAlgError:
                    singular[i] = True
        # top is inf or nan if any entry of its row is
        top = y[np.arange(len(y)), np.abs(y).argmax(-1)]
        finite = np.isfinite(top)
        np.divide(y, top[:, None], out=y, where=finite[:, None])
        ok = finite & (y.min(-1) > 0.0)
        if not ok.all():   # singular, or hi is within rounding of s(A)
            conv = singular | (r <= scale)
            # the exact y is positive: entries within m eps of 0 are
            # rounding, and are raised to m eps if u is still too rough
            lift = ~ok & ~conv & finite & (y.min(-1) >= -m * EPS)
            y[lift] = np.fmax(y[lift], m * EPS)
            ok |= lift
            if not ok.all():
                keep = retire(~ok, conv, singular | ~conv)   # rho: no estimate
                if not keep.any():
                    break
                act, Aa, y, rho, scale = (
                    x[keep] for x in (act, Aa, y, rho, scale))
        u, last = y, rho
    del solve   # free its buffers before the bracket
    return PerronResult(value, U, iters, res, converged, _cw_bracket(A, U, Q))


def _cw_bracket(A, u: np.ndarray, q: np.ndarray):
    """Collatz-Wielandt bracket (min q, max q) of a Metzler A at a
    positive u, q = (A u) / u, widened by the rounding bound
    (m + 2) (eps |A| u + eta) / u of A u, eta the smallest subnormal.
    Works over the last axis: a stack (..., m, m), or a BlockOperator,
    with u and q (..., m) gives one bracket per matrix."""
    m = u.shape[-1]
    abs_au = (abs(A) @ u[..., None])[..., 0]
    err = ((m + 2) * EPS * abs_au + (m + 2) * ETA) / u
    return (q - err).min(-1), (q + err).max(-1)


def _dense_solver(A: np.ndarray):
    """(B, hi, u) -> (hi I - B)^{-1} u for a stack B of at most len(A)
    matrices, one dense LU per matrix, formed in one reused buffer."""
    shifted = np.empty_like(A)

    def solve(B, hi, u):
        S = shifted[:len(B)]
        np.negative(B, out=S)
        S.reshape(len(B), -1)[:, ::B.shape[-1] + 1] += hi[:, None]
        if len(S) == 1:   # one matrix, one plain LU
            return np.linalg.solve(S[0], u[0])[None]
        return np.linalg.solve(S, u[..., None])[..., 0]
    return solve


def _write_blocks(out: np.ndarray, transfer, d, node_values) -> np.ndarray:
    """out with d_i K_i on its diagonal block i for each K_i of transfer,
    then node_values (n, k, k) at its node entries, species-major; the
    other entries of out are left as they are."""
    n = len(node_values)
    for i, K in enumerate(transfer):
        block = slice(i * n, (i + 1) * n)
        np.multiply(K, float(d[i]), out=out[block, block])
    node = np.arange(len(out)).reshape(-1, n).T   # node[a, i]: row of (i, x_a)
    out[node[:, :, None], node[:, None, :]] = node_values
    return out


def _static_elimination(P: BlockOperator):
    """(B, hi, u) -> (hi I - P)^{-1} u, on the stack of one B = P, by
    block Gaussian elimination of P's static species (from l1 on).

    At each node a, X_a = (hi I - A22(x_a))^{-1} [A21(x_a) | u2_a] comes
    from one batched schur_reduce_stack call on the nodal field A, whose
    result carries A12 X_a.  Then y1 solves the order-(l1 n) Schur
    complement S = hi I - P11 - blockdiag A12 X, with right-hand side
    u1 + A12 (hi I - A22)^{-1} u2, and y2_a = X_a [y1_a; 1].  S is again
    a BlockOperator: nodal field hi I - A11 - A12 X, transfer matrices
    K_i, rates -d_i.  From order KRYLOV_MIN_ORDER on, gmres solves it by
    products; below, one dense LU of S written from the blocks
    (_write_blocks).  No pivoting across the blocks is needed: hi > s(P)
    makes hi I - P a nonsingular M-matrix, so every nodal pivot block and
    S are nonsingular M-matrices as well.  A singular block raises
    LinAlgError, as the dense solve would.
    """
    n, l1 = P.nodal.shape[0], len(P.transfer)
    k = l1 * n
    nodal = P.nodal.copy()
    nodal[:, :l1, :l1] = 0.0   # A11 stays in the Schur complement
    minus_p, minus_d = -P.node_entries()[:, :l1, :l1], [-d for d in P.d]
    schur = np.zeros((k, k)) if k < KRYLOV_MIN_ORDER else None
    eye, ones = np.eye(l1), np.ones((n, 1, 1))

    def solve(B, hi, u):   # B = P
        hi, u = float(hi[0]), u[0]
        G, X = schur_reduce_stack(nodal, l1, hi,
                                  rhs=u[k:].reshape(-1, n).T[..., None])
        f = u[:k] + G[..., l1].T.ravel()
        if schur is None:   # |S| takes the |K_i| cached on |P|
            S = hi * eye - P.nodal[:, :l1, :l1] - G[..., :l1]   # nodal field
            y1 = gmres(BlockOperator(S, P.transfer, minus_d), f, BlockOperator(
                np.abs(S), abs(P).transfer, abs(P).d))[0]
        else:
            _write_blocks(schur, P.transfer, minus_d,
                          minus_p + hi * eye - G[..., :l1])
            y1 = np.linalg.solve(schur, f)
        y2 = X @ np.concatenate((y1.reshape(l1, n).T[..., None], ones), 1)
        return np.concatenate((y1, y2[..., 0].T.ravel()))[None]
    return solve


def gmres(P: BlockOperator, f: np.ndarray, abs_P: BlockOperator = None):
    """(z, b): z = P^{-1} f for P nonsingular and f without zeros, and
    b >= |f - P z|.  GMRES on D^{-1} P z = D^{-1} f, D = diag P, from
    z = D^{-1} f (Gram-Schmidt twice, Givens rotations, no restart), until
    z's residual is within its rounding bound, checked at the start and
    when the running residual has fallen by the factor that the last
    check missed by; or until a check finds the true residual no closer
    to that bound than the check before (stagnation), or the Krylov
    space is invariant (by step len(f)).  V and R grow by doubling.
    Raises LinAlgError on a zero entry of D, a zero pivot of R or a
    residual that is not finite: P is singular, or nearly so."""
    m, k, full, rot, g, last = len(f), 0, False, [], [], np.inf
    D = np.diagonal(P.node_entries(), 0, 1, 2).T.ravel()
    if not D.all():
        raise np.linalg.LinAlgError("zero diagonal entry")
    V, R, z = np.empty((min(m, 16) + 1, m)), np.empty((min(m, 16),) * 2), f / D
    abs_P = abs(P) if abs_P is None else abs_P   # |P|, for the bound
    while True:
        r, bound = f - P @ z, (m + 2) * EPS * (np.abs(f) + abs_P @ np.abs(z))
        excess = np.max(np.abs(r) / bound)
        if not np.isfinite(excess):
            raise np.linalg.LinAlgError("residual is not finite")
        if full or excess <= 1 or excess >= last:
            return z, np.abs(r) + bound
        if k == 0:
            g.append(float(np.linalg.norm(r / D)))
            V[0] = r / D / g[0]
        limit, last = abs(g[k]) / excess, excess
        while not full and abs(g[k]) > limit:   # one Arnoldi step
            if k == len(R):   # the buffers are full: double them
                c = min(k, m - k)
                V, R = np.concatenate((V, np.empty((c, m)))), np.pad(R, (0, c))
            w, Vk = P @ V[k] / D, V[:k + 1]
            t = Vk @ w
            w -= t @ Vk
            s = Vk @ w   # and Gram-Schmidt again
            w -= s @ Vk
            h, hn = (t + s).tolist(), float(np.sqrt(w @ w))
            V[k + 1], full = w / (hn or 1.0), not hn or k + 1 == m
            for j, (a, b) in enumerate(rot):
                h[j:j + 2] = a * h[j] + b * h[j + 1], a * h[j + 1] - b * h[j]
            if not (rr := float(np.hypot(h[k], hn))):
                raise np.linalg.LinAlgError("zero pivot")
            rot.append((a := h[k] / rr, b := hn / rr))
            R[:k + 1, k], g[k:] = h[:k] + [rr], (a * g[k], -b * g[k])
            k += 1
        y = np.zeros(k)
        for i in reversed(range(k)):   # R y = g, back substitution
            y[i] = (g[i] - R[i, i + 1:k] @ y[i + 1:]) / R[i, i]
        z = f / D + y @ V[:k]


def _converged_bound(A, tol: float = 1e-12,
                     max_iterations: int = MAX_ITERATIONS) -> float:
    """metzler_bound(A).value; raises NonConvergenceError when the
    iteration does not converge."""
    r = metzler_bound(A, tol=tol, max_iterations=max_iterations)
    if not r.converged:
        raise NonConvergenceError("Perron iteration did not converge",
                                  r.value, r.residual)
    return r.value


def perron_bound(C, max_iterations: int = MAX_ITERATIONS) -> float:
    """Spectral bound s(C) of a cooperative matrix.

    Raises InvalidParametersError unless C is square and cooperative
    (_cooperative), and NonConvergenceError if the iteration budget
    max_iterations is exhausted.
    """
    a = np.asarray(C, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidParametersError(
            f"need a square matrix, got shape {a.shape}")
    return _converged_bound(_cooperative(a), max_iterations=max_iterations)


def _cooperative(a: np.ndarray, where: str = "") -> np.ndarray:
    """a, a matrix or a stack (N, m, m), unless an off-diagonal entry is
    below -TOL_ZERO; then raises InvalidParametersError naming the
    entry, its node in a stack, and where."""
    off = np.where(np.eye(a.shape[-1], dtype=bool), 0.0, a)
    if off.size and off.min() < -TOL_ZERO:
        *node, i, j = np.unravel_index(off.argmin(), off.shape)
        raise InvalidParametersError(
            f"not cooperative: entry ({i},{j}) = {a[(*node, i, j)]:.6g} < 0"
            + "".join(f" at node {x}" for x in node) + where)
    return a


def is_irreducible(C) -> bool | np.ndarray:
    """True iff the off-diagonal adjacency graph is strongly connected;
    for a stack (..., m, m), a boolean array with one answer per matrix.

    Squaring the reflexive adjacency ceil(log2(m - 1)) times marks every
    pair joined by a path of length at most m - 1.
    """
    a = np.asarray(C, dtype=float)
    m = a.shape[-1]
    reach = (a > TOL_ZERO) | np.eye(m, dtype=bool)
    for _ in range(max(m - 2, 0).bit_length()):
        reach = reach @ reach
    ok = reach.all(axis=(-2, -1))
    return bool(ok) if ok.ndim == 0 else ok


def nodal_bounds(stack) -> np.ndarray:
    """Spectral bounds s(A_a) of a stack (n, l, l) of Metzler matrices,
    one per node, by one Noda loop over the stack; an empty block
    (l = 0) gives -inf.  Raises InvalidParametersError unless the stack
    is cooperative, and NonConvergenceError if an iteration does not
    converge, naming the (first) node."""
    A = _cooperative(np.asarray(stack, dtype=float))
    if A.shape[-1] == 0:
        return np.full(len(A), -np.inf)
    r = _noda(A, 1e-12, MAX_ITERATIONS)
    bad = np.flatnonzero(~r.converged)
    if len(bad):
        raise _not_converged(bad[0], r.value[bad[0]], r.residual[bad[0]])
    return r.value


def _not_converged(a, value, residual) -> NonConvergenceError:
    return NonConvergenceError(
        f"Perron iteration did not converge at node {a}", value, residual)


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
    its own iteration would not converge.  The others run metzler_bound
    one by one, and raise nodal_bounds' errors.
    """
    A = _cooperative(np.asarray(stack, dtype=float))
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
    values = []
    for a in np.flatnonzero(keep):
        r = metzler_bound(A[a])
        if not r.converged:
            raise _not_converged(a, r.value, r.residual)
        values.append(r.value)
    return float(np.max(values))


def schur_reduce_stack(A, l1: int, lam: float, rhs=None):
    """A11 + A12 (lam I - A22)^{-1} A21 for every matrix of a stack
    (..., l, l); A itself when l1 = l and there is no rhs.

    lam > s(A22) at every node is not checked here; each caller holds it:
    _static_elimination solves at Noda's upper quotient hi >= s(A), and
    every A22(x_a) is a principal block of A; spectral_field reduces at
    eta = max_a s(A(x_a)), which is at least s(A22(x_a)) at every node;
    assemble_reduced_operator raises ResolventDomainError unless lam is
    above eta22 = max_a s(M22(x_a)); classify_threshold evaluates tilde_B
    only at eta22 + eps, eps > 0.

    With rhs (..., l - l1, k), returns (F, X) instead: the trailing
    solve X = (lam I - A22)^{-1} [A21 | rhs] and F = [A11 | 0] + A12 X,
    whose last k columns are A12 (lam I - A22)^{-1} rhs.
    """
    A = np.asarray(A, dtype=float)
    l = A.shape[-1]
    if l1 == l and rhs is None:
        return A
    R = lam * np.eye(l - l1) - A[..., l1:, l1:]
    if rhs is None:
        X = np.linalg.solve(R, A[..., l1:, :l1])
        return A[..., :l1, :l1] + A[..., :l1, l1:] @ X
    X = np.linalg.solve(R, np.concatenate((A[..., l1:, :l1], rhs), -1))
    F = A[..., :l1, l1:] @ X
    F[..., :l1] += A[..., :l1, :l1]
    return F, X
