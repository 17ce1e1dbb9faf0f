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

The operator is kept as its blocks, the nodal field and the transfer
matrices (a matspec.BlockOperator); the spectral routines solve on those,
opspec's coarse start included.  Its dense matrix is formed on demand, for
the oracle and the tests, and stays the ground truth in disputes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ValidationGateError
from .grid import Grid
from .matspec import BlockOperator
from .model import DispersalSystem, validate


def kernel_quadrature(raw: np.ndarray, grid: Grid
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Transfer matrix K[a, b] = k(x_a, x_b) w_b and departure rates
    chi(x_a) = sum_b k(x_b, x_a) w_b of the raw kernel samples (n, n),
    which are read and not written.

    Both use the grid weights, so w^T (K - diag chi) = 0 to rounding.
    """
    return raw * grid.weights, raw.T @ grid.weights


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


def assemble_operator(sys: DispersalSystem, grid: Grid, force: bool = False,
                      fields: SampledFields | None = None) -> BlockOperator:
    """The operator of fields, the samples of sys on grid (sampled here
    when None), behind the validation of those samples unless force=True:
    nodal field pointwise_A, the K_i of the diffusing species, rates
    sys.d.  Its largest nodal bound is its essential spectral bound."""
    if fields is None:
        fields = sample_fields(sys, grid)
    if not force:
        report = validate(sys, fields)
        if not report.passed:
            raise ValidationGateError(report)
    return BlockOperator(pointwise_A(sys, fields), fields.transfer, sys.d)


def pointwise_A(sys: DispersalSystem, fields: SampledFields) -> np.ndarray:
    """Nodal matrices A(x_a) = M(x_a) - diag(d_i chi_i(x_a), i diffusing)
    of fields as an (n, l, l) stack: the nodal field of the operator."""
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
