"""Reference implementations that the tests compare against: none of
them runs in a command.

growth_rate is the time-stepping cross-check of acceptance criterion 7,
to_text the canonical printer of the parser round-trip tests,
assemble_epidemic builds the B and F of the dense R0 oracles, and
large_shift_bounds gives the block-matrix limit of criterion 14.
"""

import numpy as np

from nlds.epidemic import SampledVSI, _operator
from nlds.exprlang import Call, Const, Expr, Neg, Num, Var
from nlds.matspec import BlockOperator, perron_bound


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
    M = P.matrix if isinstance(P, BlockOperator) else np.asarray(P)
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


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _print(node) -> tuple[str, int]:
    if isinstance(node, Num):
        return format(node.value, ".17g"), _PREC["atom"]
    if isinstance(node, (Var, Const)):
        return node.name, _PREC["atom"]
    if isinstance(node, Neg):
        s, p = _print(node.operand)
        if p < _PREC["neg"]:
            s = f"({s})"
        return f"-{s}", _PREC["neg"]
    if isinstance(node, Call):
        parts = [_print(a)[0] for a in node.args]
        return f"{node.func}({', '.join(parts)})", _PREC["atom"]
    # Bin
    lp = _PREC[node.op]
    ls, lprec = _print(node.left)
    rs, rprec = _print(node.right)
    if node.op == "^":
        # right-associative; parenthesize a left operand of equal or
        # lower precedence (including unary minus)
        if lprec <= lp:
            ls = f"({ls})"
        if rprec < lp:
            rs = f"({rs})"
    else:
        if lprec < lp:
            ls = f"({ls})"
        # left-associative: a right operand of equal precedence must keep
        # its parens or the reparse would rebuild a left-leaning tree
        if rprec <= lp:
            rs = f"({rs})"
    return f"{ls} {node.op} {rs}", lp


def to_text(node: Expr) -> str:
    """Canonical textual form; parse(to_text(e)) == e."""
    return _print(node)[0]


def assemble_epidemic(sv: SampledVSI) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrix B and infection matrix F, each of order 2n."""
    B, BF = _operator(sv, 0.0).matrix, _operator(sv, 1.0).matrix
    return B, BF - B


def large_shift_bounds(C, l1: int, mus) -> list[float]:
    """perron_bound(C - diag(mu, ..., mu, 0, ..., 0)) for each shift mu,
    applied to the first l1 rows; the values fall toward s(C22)."""
    C = np.asarray(C, dtype=float)
    rows = (np.arange(len(C)) < l1).astype(float)
    return [perron_bound(C - np.diag(mu * rows)) for mu in mus]
