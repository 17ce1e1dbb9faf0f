import numpy as np
import pytest

from nlds.errors import InvalidDomainError
from nlds.grid import build_grid


def test_four_cell_midpoints():
    g = build_grid(-1, 1, 4)
    assert np.allclose(g.points, [-0.75, -0.25, 0.25, 0.75], atol=0, rtol=0)
    assert np.allclose(g.weights, 0.5, atol=0, rtol=0)


def test_single_cell():
    g = build_grid(0, 1, 1)
    assert g.points.tolist() == [0.5]
    assert g.weights.tolist() == [1.0]


def test_weights_partition_measure():
    g = build_grid(-1, 1, 200)
    assert abs(np.sum(g.weights) - 2.0) <= 1e-14 * 2.0


def test_points_strictly_increasing_and_interior():
    g = build_grid(-3, 7, 137)
    assert np.all(np.diff(g.points) > 0)
    assert np.all((g.points > -3) & (g.points < 7))


@pytest.mark.parametrize("a,b,n", [(1, 1, 4), (2, -1, 4), (-1, 1, 0)])
def test_invalid_domain(a, b, n):
    with pytest.raises(InvalidDomainError):
        build_grid(a, b, n)


def test_integrate_constant_and_odd():
    for n in (7, 50, 201):
        g = build_grid(-1, 1, n)
        assert np.ones(n) @ g.weights == pytest.approx(2.0, abs=1e-14)
        assert g.points @ g.weights == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("f,exact", [
    (lambda x: x ** 2, 2.0 / 3.0),
    (np.exp, np.e - 1.0 / np.e),
])
def test_midpoint_second_order(f, exact):
    errs = []
    for n in (50, 100, 200):
        g = build_grid(-1, 1, n)
        errs.append(abs(f(g.points) @ g.weights - exact))
    for e1, e2 in zip(errs, errs[1:]):
        assert 3.5 <= e1 / e2 <= 4.5


def test_integrate_linear():
    g = build_grid(-1, 1, 64)
    f = np.sin(g.points)
    h = np.exp(g.points)
    lhs = (2.5 * f - 1.25 * h) @ g.weights
    rhs = 2.5 * (f @ g.weights) - 1.25 * (h @ g.weights)
    assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))
