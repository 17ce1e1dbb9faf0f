import math

import numpy as np
import pytest

from nlds.assembly import (assemble_operator, dump_matrix, kernel_quadrature,
                           load_matrix, pointwise_A, sample_fields)
from nlds.errors import ValidationGateError
from nlds.grid import build_grid
from nlds.model import CoefField, DispersalSystem, KernelSpec

GAUSS = "exp(-(x-y)^2)"


def make_system(coeffs, d, l1, kernels):
    return DispersalSystem(
        l=len(coeffs), l1=l1, d=tuple(float(v) for v in d),
        kernels=tuple(KernelSpec.from_text(k) for k in kernels),
        coefficients=CoefField.from_text(coeffs), domain=(-1.0, 1.0))


def test_chi_constant_kernel():
    g = build_grid(-1, 1, 50)
    chi = kernel_quadrature(KernelSpec.from_text("1").sample(g), g)[1]
    assert np.allclose(chi, 2.0, atol=1e-13, rtol=0)


def test_chi_gaussian_against_quadrature_oracle():
    # integral of exp(-(y-0)^2) over (-1,1) = sqrt(pi) erf(1)
    g = build_grid(-1, 1, 201)  # odd: one node exactly at x = 0
    chi = kernel_quadrature(KernelSpec.from_text(GAUSS).sample(g), g)[1]
    mid = 100
    assert g.points[mid] == 0.0
    assert chi[mid] == pytest.approx(math.sqrt(math.pi) * math.erf(1.0), abs=1e-4)


def test_chi_symmetric_kernel_equals_outflow():
    g = build_grid(-1, 1, 40)
    raw = KernelSpec.from_text(GAUSS).sample(g)
    chi = kernel_quadrature(KernelSpec.from_text(GAUSS).sample(g), g)[1]
    out_mass = raw @ g.weights
    # identical sums up to accumulation order inside the matvec
    assert np.allclose(chi, out_mass, rtol=1e-14, atol=0)


def test_no_dispersal_is_diagonal():
    sys = make_system([["x"]], d=(0.0,), l1=1, kernels=[GAUSS])
    g = build_grid(-1, 1, 17)
    P = assemble_operator(sys, g, force=True)
    assert np.array_equal(P.matrix, np.diag(g.points))


def test_two_cell_hand_computation():
    # l=1, k=1, m=0, d=1, n=2 on (-1,1): weights are 1, so K is all ones,
    # chi = 2, and P = K - 2 I
    sys = make_system([["0"]], d=(1.0,), l1=1, kernels=["1"])
    g = build_grid(-1, 1, 2)
    P = assemble_operator(sys, g, force=True)
    assert np.allclose(P.matrix, [[-1.0, 1.0], [1.0, -1.0]], atol=1e-15)


def test_constant_field_annihilation():
    # symmetric kernels kill block-constant vectors; what remains is M0
    sys = make_system([["-1", "1"], ["1", "-1"]], d=(3.0, 0.7), l1=2,
                      kernels=[GAUSS, GAUSS])
    g = build_grid(-1, 1, 30)
    P = assemble_operator(sys, g)
    ones = np.ones(2 * g.n)
    result = P.matrix @ ones
    # block i of the result equals sum_j M0[i, j]
    assert np.allclose(result[:g.n], 0.0, atol=1e-12)
    assert np.allclose(result[g.n:], 0.0, atol=1e-12)


def test_flattened_matrix_is_metzler():
    sys = make_system([["-1 - x^2", "1 + x^2"], ["0.5", "-2"]],
                      d=(1.5, 0.0), l1=1, kernels=[GAUSS])
    g = build_grid(-1, 1, 25)
    P = assemble_operator(sys, g).matrix
    off = P - np.diag(np.diag(P))
    assert np.min(off) >= 0.0


def test_linearity_in_d():
    coeffs = [["-1", "1"], ["1", "-1"]]
    kernels = [GAUSS, "exp(-2*(x-y)^2)"]
    g = build_grid(-1, 1, 20)
    pa = assemble_operator(
        make_system(coeffs, (2.0, 3.0), 2, kernels), g).matrix
    pb = assemble_operator(
        make_system(coeffs, (0.5, 1.0), 2, kernels), g).matrix
    pd = assemble_operator(
        make_system([["0", "0"], ["0", "0"]], (1.5, 2.0), 2, kernels),
        g, force=True).matrix
    assert np.allclose(pa - pb, pd, atol=1e-14)


def test_mass_balance_identity():
    sys = make_system([["-1", "1"], ["1", "-1"]], d=(1.0, 0.0), l1=1,
                      kernels=["exp(-(x-y-0.2)^2)"])
    g = build_grid(-1, 1, 60)
    fields = sample_fields(sys, g)
    K1 = fields.transfer[0].sum(axis=1)          # mass arriving per node
    lhs = float(g.weights @ K1)
    rhs = float(g.weights @ fields.chi[0])
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_kernel_quadrature_conserves_mass():
    g = build_grid(-1, 1, 37)
    raw = KernelSpec.from_text("exp(-(x-y-0.3)^2)").sample(g)
    K, chi = kernel_quadrature(raw, g)
    np.testing.assert_allclose(g.weights @ K, g.weights * chi,
                               rtol=1e-14, atol=0)


def test_kernel_quadrature_leaves_its_input_unchanged():
    g = build_grid(-1, 1, 9)
    raw = np.exp(-(g.points[:, None] - g.points[None, :] - 0.3) ** 2)
    kept = raw.copy()
    K, chi = kernel_quadrature(raw, g)
    assert np.array_equal(raw, kept)
    assert np.array_equal(K, kept * g.weights)


def test_validation_gate():
    sys = make_system([["1", "0"], ["0", "1"]], d=(1.0, 1.0), l1=2,
                      kernels=[GAUSS, GAUSS])
    g = build_grid(-1, 1, 10)
    with pytest.raises(ValidationGateError):
        assemble_operator(sys, g)
    P = assemble_operator(sys, g, force=True)
    assert len(P) == 20


def test_pointwise_A_scalar_formula():
    sys = make_system([["x"]], d=(1.0,), l1=1, kernels=["1"])
    g = build_grid(-1, 1, 8)
    A = pointwise_A(sys, sample_fields(sys, g))
    assert np.allclose(A[:, 0, 0], g.points - 2.0, atol=1e-13)


def test_pointwise_A_zero_diffusion():
    sys = make_system([["x", "1"], ["1", "-x"]], d=(0.0, 0.0), l1=1,
                      kernels=[GAUSS])
    g = build_grid(-1, 1, 8)
    A = pointwise_A(sys, sample_fields(sys, g))
    assert np.allclose(A, sys.coefficients.sample(g), atol=0)


def test_pointwise_A_degenerate_row_untouched():
    sys = make_system([["-1", "1"], ["1", "-x^2"]], d=(2.0, 0.0), l1=1,
                      kernels=[GAUSS])
    g = build_grid(-1, 1, 12)
    A = pointwise_A(sys, sample_fields(sys, g))
    assert np.allclose(A[:, 1, 1], -g.points ** 2, atol=0)


def test_binary_dump_round_trip(tmp_path):
    sys = make_system([["-1", "1"], ["1", "-1"]], d=(1.0, 0.0), l1=1,
                      kernels=[GAUSS])
    g = build_grid(-1, 1, 9)
    P = assemble_operator(sys, g)
    path = tmp_path / "operator.bin"
    dump_matrix(P.matrix, path)
    raw = path.read_bytes()
    rows = int.from_bytes(raw[:8], "little")
    cols = int.from_bytes(raw[8:16], "little")
    assert rows == cols == 18
    assert len(raw) == 16 + rows * cols * 8
    back = load_matrix(path)
    assert np.array_equal(back, P.matrix)


@pytest.mark.parametrize("force", [False, True])
def test_static_rows_and_columns_are_nodal(force):
    # the partially degenerate Noda step eliminates the static species
    # node by node, so their rows and columns must vanish off the nodal
    # pattern; a nonzero trailing d (force=True) must not add a kernel
    coeffs = [["-1", "0.5", "0.2"], ["0.3", "-x", "0.4"],
              ["0.1", "0.6", "-2 + x^2"]]
    d = (1.0, 0.0, 0.0) if not force else (1.0, 0.7, 2.0)
    g = build_grid(-1, 1, 24)
    sys = make_system(coeffs, d, 1, [GAUSS])
    P = assemble_operator(sys, g, force=force).matrix
    n, k = g.n, g.n
    off_nodal = (np.arange(3 * n)[:, None] % n) != (np.arange(3 * n) % n)
    assert not P[k:][off_nodal[k:]].any()
    assert not P[:, k:][off_nodal[:, k:]].any()
    assert P[:k, :k][off_nodal[:k, :k]].any()
