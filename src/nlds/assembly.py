"""Quadrature discretization of the dispersal operator.

The flattened matrix acts on species-major stacked nodal vectors.  For a
diffusing species the diagonal block is d_i (K_i - diag(chi_i)) plus the
nodal samples of m_ii, where K_i[a, b] = k_i(x_a, x_b) w_b carries mass
into node a and chi_i(x_a) = sum_b k_i(x_b, x_a) w_b is the rate of mass
leaving node a.  Off-diagonal blocks are diagonal matrices of m_ij
samples.  chi uses the same quadrature weights as K so the discrete
mass-balance identity sum_a w_a (K_i 1)(a) = sum_a w_a chi_i(x_a) holds
to rounding.

sample_fields is the one sampler of a dispersal system: validation,
assembly, the reduced quantities and the analyses all read its samples.

Matrices are dense: at desk scale (n <= 512) dense assembly keeps every
entry inspectable and the dense matrix is the ground truth for all
spectral routines.
"""

from __future__ import annotations

import mmap
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationGateError
from .grid import Grid
from .model import DispersalSystem, validate

# Each P of block_matrix gets an anonymous map of its own, unmapped when P is
# freed, so that P leaves no hole in malloc's heap.  On Linux the one mmap
# call faults all of its pages in.
_OWN_MAP = ({"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | mmap.MAP_POPULATE}
            if hasattr(mmap, "MAP_POPULATE") else {})


def kernel_quadrature(raw: np.ndarray, grid: Grid
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Transfer matrix K[a, b] = k(x_a, x_b) w_b and departure rates
    chi(x_a) = sum_b k(x_b, x_a) w_b of the raw kernel samples (n, n).

    Both use the grid weights, so w^T (K - diag chi) = 0 to rounding.
    K is raw scaled in place, so that no second n x n array is made:
    pass samples made for this call.
    """
    chi = raw.T @ grid.weights
    return np.multiply(raw, grid.weights[None, :], out=raw), chi


@dataclass(frozen=True)
class SampledFields:
    """Grid samples of a system's coefficients and the quadrature of its
    kernels; diffusion independent, so sweeps over d reuse one instance."""

    grid: Grid
    M: np.ndarray            # (n, l, l) nodal coefficient matrices
    transfer: tuple          # l1 arrays (n, n): K_i[a, b] = k_i(x_a, x_b) w_b
    chi: tuple               # l1 arrays (n,)


def sample_fields(sys: DispersalSystem, grid: Grid) -> SampledFields:
    """Evaluate the coefficient field, then each kernel, on grid."""
    M = sys.coefficients.sample(grid)
    quads = [kernel_quadrature(k.sample(grid), grid) for k in sys.kernels]
    return SampledFields(grid=grid, M=M, transfer=tuple(K for K, _ in quads),
                         chi=tuple(chi for _, chi in quads))


@dataclass(frozen=True)
class AssembledOperator:
    """Dense (l n) x (l n) discretization of the dispersal operator,
    with the nodal field it is built from.

    nodal (n, l, l) holds A(x_a) = M(x_a) - diag(d_i chi_i(x_a), i
    diffusing), as pointwise_A gives it; matrix is block_matrix of nodal
    plus the transfer blocks d_i K_i.  The largest nodal spectral bound
    is the essential spectral bound of matrix.
    """

    matrix: np.ndarray = field(repr=False)
    nodal: np.ndarray = field(repr=False)
    grid: Grid
    system: DispersalSystem

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def assemble_operator(sys: DispersalSystem, grid: Grid, force: bool = False,
                      fields: SampledFields | None = None) -> AssembledOperator:
    """Build the flattened operator matrix from fields, the samples of
    sys on grid (sampled here when None), behind the validation of those
    samples unless force=True."""
    if fields is None:
        fields = sample_fields(sys, grid)
    if not force:
        report = validate(sys, fields)
        if not report.passed:
            raise ValidationGateError(report)
    A = pointwise_A(sys, fields)
    return AssembledOperator(matrix=block_matrix(A, fields.transfer, sys.d),
                             nodal=A, grid=grid, system=sys)


def block_matrix(F: np.ndarray, transfer, d) -> np.ndarray:
    """Species-major (k n) x (k n) matrix of the nodal field F (n, k, k):
    block (i, j) is diag(F[:, i, j]), and block (i, i) gains d_i K_i for
    each transfer matrix K_i (n, n) of the leading len(transfer) species."""
    n, k = F.shape[0], F.shape[1]
    P = np.frombuffer(mmap.mmap(-1, 8 * (k * n) ** 2, **_OWN_MAP)).reshape(
        k * n, k * n)
    for i in range(k):
        for j in range(k):
            np.fill_diagonal(P[i * n:(i + 1) * n, j * n:(j + 1) * n],
                             F[:, i, j])
    for i, K in enumerate(transfer):
        P[i * n:(i + 1) * n, i * n:(i + 1) * n] += float(d[i]) * K
    return P


def pointwise_A(sys: DispersalSystem, fields: SampledFields) -> np.ndarray:
    """Nodal matrices A(x_a) = M(x_a) - diag(d_i chi_i(x_a), i diffusing)
    of fields as an (n, l, l) stack; AssembledOperator.nodal."""
    A = fields.M.copy()
    for i in range(sys.l1):
        A[:, i, i] -= float(sys.d[i]) * fields.chi[i]
    return A


# --- binary dump -------------------------------------------------------

def dump_matrix(matrix: np.ndarray, path) -> None:
    """Write two little-endian uint64 dimensions followed by the
    row-major float64 entries."""
    m = np.ascontiguousarray(matrix, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<QQ", m.shape[0], m.shape[1]))
        fh.write(m.tobytes(order="C"))


def load_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        rows, cols = struct.unpack("<QQ", fh.read(16))
        data = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8")
    return data.reshape(rows, cols).astype(float)
