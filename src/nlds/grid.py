"""Uniform 1-D midpoint grids and quadrature.

Every integral in the package is evaluated with the composite midpoint
rule on one of these grids.  Midpoints (rather than cell edges) keep
coefficient fields with integrable singularities at cell boundaries
finite at every node; configs using |x|-type coefficients should use an
even cell count so no node lands on x = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDomainError


@dataclass(frozen=True)
class Grid:
    """Midpoint discretization of an open interval (a, b) into n cells.

    points[k] = a + (k + 1/2)(b - a)/n, weights[k] = (b - a)/n.
    """

    a: float
    b: float
    n: int
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def build_grid(a: float, b: float, n: int) -> Grid:
    """Build the n-cell midpoint grid on (a, b).

    Raises InvalidDomainError unless a < b and n >= 1.
    """
    if not (np.isfinite(a) and np.isfinite(b)) or a >= b:
        raise InvalidDomainError(f"need a < b, got a={a}, b={b}")
    if n < 1:
        raise InvalidDomainError(f"need at least one cell, got n={n}")
    h = (b - a) / n
    points = a + (np.arange(n) + 0.5) * h
    weights = np.full(n, h)
    points.setflags(write=False)
    weights.setflags(write=False)
    return Grid(a=float(a), b=float(b), n=int(n), points=points, weights=weights)

