"""Quadrature discretization of the dispersal operator.

The flattened matrix acts on species-major stacked nodal vectors.  For a
diffusing species the diagonal block is d_i (K_i - diag(chi_i)) plus the
nodal samples of m_ii, where K_i[a, b] = k_i(x_a, x_b) w_b carries mass
into node a and chi_i(x_a) = sum_b k_i(x_b, x_a) w_b is the rate of mass
leaving node a.  Off-diagonal blocks are diagonal matrices of m_ij
samples.  chi uses the same quadrature weights as K so the discrete
mass-balance identity sum_a w_a (K_i 1)(a) = sum_a w_a chi_i(x_a) holds
to rounding.

Matrices are dense: at desk scale (n <= 512) dense assembly keeps every
entry inspectable and the dense matrix is the ground truth for all
spectral routines.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationGateError
from .grid import Grid
from .model import DispersalSystem, KernelSpec, validate


def compute_chi(kernel: KernelSpec, grid: Grid) -> np.ndarray:
    """Departure rates chi(x_a) = sum_b k(x_b, x_a) w_b.

    The first kernel argument is the integration variable.
    """
    raw = kernel.sample(grid)
    return raw.T @ grid.weights


@dataclass(frozen=True)
class SampledFields:
    """Grid samples of a system's coefficients and kernels; diffusion
    independent, so sweeps over d reuse one instance."""

    M: np.ndarray            # (n, l, l) nodal coefficient matrices
    raw_kernels: tuple       # l1 arrays (n, n) of k_i(x_a, x_b)
    chi: tuple               # l1 arrays (n,)


def sample_fields(sys: DispersalSystem, grid: Grid) -> SampledFields:
    raws = tuple(k.sample(grid) for k in sys.kernels)
    chis = tuple(raw.T @ grid.weights for raw in raws)
    return SampledFields(M=sys.coefficients.sample(grid),
                         raw_kernels=raws, chi=chis)


@dataclass(frozen=True)
class AssembledOperator:
    """Dense (l n) x (l n) discretization of the dispersal operator."""

    matrix: np.ndarray = field(repr=False)
    grid: Grid
    system: DispersalSystem

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.grid.n

    def block(self, i: int, j: int) -> np.ndarray:
        n = self.n
        return self.matrix[i * n:(i + 1) * n, j * n:(j + 1) * n]


def assemble_operator(sys: DispersalSystem, grid: Grid, force: bool = False,
                      fields: SampledFields | None = None) -> AssembledOperator:
    """Build the flattened operator matrix.

    Validation gates assembly unless force=True; reuse a SampledFields
    from a previous assembly of the same system/grid to skip resampling.
    """
    if not force:
        report = validate(sys, grid)
        if not report.passed:
            raise ValidationGateError(report)
    if fields is None:
        fields = sample_fields(sys, grid)
    P = block_matrix(pointwise_A(sys, grid, fields=fields).matrices,
                     fields.raw_kernels, sys.d, grid)
    return AssembledOperator(matrix=P, grid=grid, system=sys)


def block_matrix(F: np.ndarray, raw_kernels, d, grid: Grid) -> np.ndarray:
    """Species-major (k n) x (k n) matrix of the nodal field F (n, k, k):
    block (i, j) is diag(F[:, i, j]), and block (i, i) gains the
    transfer d_i K_i for each of the leading len(raw_kernels) species."""
    n, k = F.shape[0], F.shape[1]
    P = np.zeros((k * n, k * n))
    for i in range(k):
        for j in range(k):
            np.fill_diagonal(P[i * n:(i + 1) * n, j * n:(j + 1) * n],
                             F[:, i, j])
    for i, raw in enumerate(raw_kernels):
        P[i * n:(i + 1) * n, i * n:(i + 1) * n] += \
            float(d[i]) * (raw * grid.weights[None, :])
    return P


@dataclass(frozen=True)
class PointwiseA:
    """Nodal matrices A(x_a) = M(x_a) - diag(d_i chi_i(x_a), i diffusing).

    Their spectral bounds trace out the essential spectrum of the
    assembled operator.
    """

    matrices: np.ndarray  # (n, l, l)
    grid: Grid


def pointwise_A(sys: DispersalSystem, grid: Grid,
                fields: SampledFields | None = None) -> PointwiseA:
    if fields is None:
        fields = sample_fields(sys, grid)
    A = fields.M.copy()
    for i in range(sys.l1):
        A[:, i, i] -= float(sys.d[i]) * fields.chi[i]
    return PointwiseA(matrices=A, grid=grid)


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
