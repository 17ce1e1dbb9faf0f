"""Spectral analysis of cooperative nonlocal dispersal systems.

Builds quadrature discretizations of coupled dispersal operators, kept
as their blocks, computes spectral and essential spectral bounds, certifies
principal-eigenpair existence from the gap between them, evaluates the
reduced quantities governing the small- and large-diffusion limits, and
applies the machinery to a basic reproduction ratio calculator for a
virus/cell infection model.
"""

__version__ = "0.1.0"

from .grid import Grid, build_grid
from .model import (CoefField, DispersalSystem, KernelSpec, Mode,
                    ValidationReport, validate)
from .assembly import assemble_operator, pointwise_A
from .matspec import is_irreducible, perron_bound
from .opspec import (SpectralReport, compute_spectral_report, dense_spectrum,
                     essential_bound, principal_certificate, spectral_bound)
from .reduce import (CaseA, CaseB, ReducedQuantities, classify_threshold,
                     perron_weight, reduced_quantities, tilde_B,
                     weights_for_system)
from .analysis import (SpectralField, SweepTable, generalized_eigen_residual,
                       integrability_diagnostic, perturbation_probe,
                       spectral_field, sweep)
from .epidemic import (BoundaryCase, R0Report, RootCase, VSIParams,
                       compute_r0_report, q_of_mu, r0, r0_large_d_limit)

__all__ = [
    "Grid", "build_grid",
    "CoefField", "DispersalSystem", "KernelSpec", "Mode",
    "ValidationReport", "validate",
    "assemble_operator", "pointwise_A",
    "is_irreducible", "perron_bound",
    "SpectralReport", "compute_spectral_report", "dense_spectrum",
    "essential_bound", "principal_certificate", "spectral_bound",
    "CaseA", "CaseB", "ReducedQuantities", "classify_threshold",
    "perron_weight", "reduced_quantities", "tilde_B", "weights_for_system",
    "SpectralField", "SweepTable", "generalized_eigen_residual",
    "integrability_diagnostic", "perturbation_probe", "spectral_field", "sweep",
    "BoundaryCase", "R0Report", "RootCase", "VSIParams", "compute_r0_report",
    "q_of_mu", "r0", "r0_large_d_limit",
]
