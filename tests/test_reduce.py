import numpy as np
import pytest

from nlds.assembly import kernel_quadrature, sample_fields
from nlds.errors import ClassificationError, InvalidParametersError
from nlds.grid import build_grid
from nlds.matspec import is_irreducible, max_nodal_bound, perron_bound
from nlds.model import CoefField, DispersalSystem, KernelSpec
from nlds.reduce import (EPS_LADDER, CaseA, CaseB, bracket_and_bisect,
                         classify_threshold, ladder_classify, p_weighted_mean,
                         perron_weight, reduced_quantities, static_block_bound,
                         tilde_B, weights_for_system)

GAUSS = "exp(-(x-y)^2)"


def make_system(coeffs, d, l1, kernels):
    return DispersalSystem(
        l=len(coeffs), l1=l1, d=tuple(float(v) for v in d),
        kernels=tuple(KernelSpec.from_text(k) for k in kernels),
        coefficients=CoefField.from_text(coeffs), domain=(-1.0, 1.0))


def kernel_weight(text, g):
    """perron_weight of the kernel text on g, and ||K p - chi p||_inf.
    perron_weight itself raises unless |lambda - 1| <= 1e-10."""
    K, chi = kernel_quadrature(KernelSpec.from_text(text).sample(g), g)
    p = perron_weight(K, chi, g)
    return p, float(np.max(np.abs(K @ p - chi * p)))


# --- stationary dispersal profiles ---------------------------------------

def test_weight_symmetric_kernel_is_uniform():
    g = build_grid(-1, 1, 80)
    p, residual = kernel_weight(GAUSS, g)
    assert np.allclose(p, 0.5, atol=1e-12, rtol=0)
    assert residual <= 1e-10


def test_weight_rank_two_kernel_is_uniform():
    # k = 1 + x y: the odd moment self-cancels on symmetric midpoints
    g = build_grid(-1, 1, 100)
    p, _ = kernel_weight("1 + x*y", g)
    assert np.allclose(p, 0.5, atol=1e-12, rtol=0)


def test_weight_shifted_kernel_nonuniform_consistent():
    g = build_grid(-1, 1, 200)
    p, residual = kernel_weight("exp(-(x-y-0.2)^2)", g)
    assert np.max(p) - np.min(p) > 1e-3
    assert residual <= 1e-10
    assert np.min(p) > 0
    # unit mass
    assert float(p @ g.weights) == pytest.approx(1.0, abs=1e-12)
    # dense eigensolver oracle: rightmost eigenvalue of the normalized
    # kernel matrix is one
    raw = KernelSpec.from_text("exp(-(x-y-0.2)^2)").sample(g)
    N = raw * g.weights[None, :] / (raw.T @ g.weights)[:, None]
    lam = np.max(np.linalg.eigvals(N).real)
    assert lam == pytest.approx(1.0, abs=1e-12)


# --- averaged coefficient matrix ------------------------------------------

def test_averaged_matrix_constant_field():
    sys = make_system([["-1", "1"], ["1", "-1"]], d=(1.0, 1.0), l1=2,
                      kernels=[GAUSS, GAUSS])
    g = build_grid(-1, 1, 60)
    fields = sample_fields(sys, g)
    w = weights_for_system(sys, fields)
    tm = p_weighted_mean(fields.M, w, g)
    assert np.allclose(tm, [[-1, 1], [1, -1]], atol=1e-12)


def test_averaged_matrix_quadratic_field():
    sys = make_system([["-x^2", "1"], ["1", "-x^2"]], d=(1.0, 1.0), l1=2,
                      kernels=[GAUSS, GAUSS])
    g = build_grid(-1, 1, 200)
    fields = sample_fields(sys, g)
    w = weights_for_system(sys, fields)
    tm = p_weighted_mean(fields.M, w, g)
    assert np.allclose(tm, [[-1 / 3, 1], [1, -1 / 3]], atol=1e-4)
    assert perron_bound(tm) == pytest.approx(2 / 3, abs=1e-4)


def test_kappa_and_eta22():
    sys = make_system([["-x^2", "1"], ["1", "-x^2"]], d=(1.0, 0.0), l1=1,
                      kernels=[GAUSS])
    g = build_grid(-1, 1, 100)
    fields = sample_fields(sys, g)
    kappa = max_nodal_bound(fields.M)
    eta22 = static_block_bound(fields.M, sys.l1)
    assert kappa == pytest.approx(1.0 - g.points[g.n // 2] ** 2, abs=1e-12)
    assert eta22 == pytest.approx(-g.points[g.n // 2] ** 2, abs=1e-12)


def test_eta22_square_root_field_approaches_zero():
    vals = []
    for n in (50, 100, 200):
        sys = make_system([["-2", "0.1"], ["0.1", "-abs(x)^0.5"]],
                          d=(1.0, 0.0), l1=1, kernels=[GAUSS])
        g = build_grid(-1, 1, n)
        fields = sample_fields(sys, g)
        eta22 = static_block_bound(fields.M, sys.l1)
        vals.append(eta22)
        assert eta22 == pytest.approx(-np.sqrt(1.0 / n), abs=1e-12)
    assert vals[0] < vals[1] < vals[2] < 0


# --- averaged reduced family ----------------------------------------------

def test_tilde_B_swap_closed_form():
    sys = make_system([["0", "1"], ["1", "0"]], d=(1.0, 0.0), l1=1,
                      kernels=[GAUSS])
    g = build_grid(-1, 1, 50)
    fields = sample_fields(sys, g)
    w = weights_for_system(sys, fields)
    Ms = fields.M
    for gamma in (0.5, 2.0, 4.0):
        b = tilde_B(Ms, sys.l1, gamma, w, g)
        assert b[0, 0] == pytest.approx(1.0 / gamma, abs=1e-12)


def test_tilde_B_constant_closed_form():
    sys = make_system([["-1", "1"], ["1", "-1"]], d=(1.0, 0.0), l1=1,
                      kernels=[GAUSS])
    g = build_grid(-1, 1, 50)
    fields = sample_fields(sys, g)
    w = weights_for_system(sys, fields)
    Ms = fields.M
    for gamma in (-0.5, 0.0, 1.0):
        b = tilde_B(Ms, sys.l1, gamma, w, g)
        assert b[0, 0] == pytest.approx(-1 + 1 / (gamma + 1), abs=1e-12)


def test_tilde_B_case_b_limit_value():
    # quadrature of 0.01 / (gamma + |x|^(1/2)) against p = 1/2 approaches
    # -2 + 0.01 * (1/2) * 4 = -1.98 as gamma drops to zero
    sys = make_system([["-2", "0.1"], ["0.1", "-abs(x)^0.5"]],
                      d=(1.0, 0.0), l1=1, kernels=[GAUSS])
    g = build_grid(-1, 1, 400)
    fields = sample_fields(sys, g)
    w = weights_for_system(sys, fields)
    b = tilde_B(fields.M, sys.l1, 0.05, w, g)
    assert b[0, 0] == pytest.approx(-1.98, abs=0.02)


def test_tilde_B_monotone_and_irreducible():
    sys = make_system([["-1", "0.5", "0.2"], ["0.3", "-2", "0.4"],
                       ["0.2", "0.3", "-1.5"]],
                      d=(1.0, 1.0, 0.0), l1=2, kernels=[GAUSS, GAUSS])
    g = build_grid(-1, 1, 30)
    fields = sample_fields(sys, g)
    w = weights_for_system(sys, fields)
    Ms = fields.M
    vals = []
    for gamma in (-1.0, -0.5, 0.0, 1.0, 2.0):
        b = tilde_B(Ms, sys.l1, gamma, w, g)
        assert is_irreducible(b)
        vals.append(perron_bound(b))
    assert all(b2 <= b1 + 1e-10 for b1, b2 in zip(vals, vals[1:]))


# --- threshold classification ----------------------------------------------

def test_classify_swap_fixed_point():
    sys = make_system([["0", "1"], ["1", "0"]], d=(1.0, 0.0), l1=1,
                      kernels=[GAUSS])
    g = build_grid(-1, 1, 50)
    fields = sample_fields(sys, g)
    w = weights_for_system(sys, fields)
    outcome = classify_threshold(sys, fields, w)
    assert isinstance(outcome, CaseA)
    assert outcome.gamma_star == pytest.approx(1.0, abs=1e-9)


def test_classify_constant_fixed_point():
    sys = make_system([["-1", "1"], ["1", "-1"]], d=(1.0, 0.0), l1=1,
                      kernels=[GAUSS])
    g = build_grid(-1, 1, 50)
    fields = sample_fields(sys, g)
    w = weights_for_system(sys, fields)
    outcome = classify_threshold(sys, fields, w)
    assert isinstance(outcome, CaseA)
    assert outcome.gamma_star == pytest.approx(0.0, abs=1e-9)


def test_classify_constant_consistency_with_full_bound():
    # constant field, symmetric kernels: the fixed point recovers s(M)
    for coeffs, expected in ((((["0", "1"], ["1", "0"])), 1.0),
                             ((((["-1", "1"], ["1", "-1"]))), 0.0)):
        sys = make_system([list(r) for r in coeffs], d=(1.0, 0.0), l1=1,
                          kernels=[GAUSS])
        g = build_grid(-1, 1, 40)
        fields = sample_fields(sys, g)
        w = weights_for_system(sys, fields)
        outcome = classify_threshold(sys, fields, w)
        assert isinstance(outcome, CaseA)
        M0 = np.array([[float(v) for v in row] for row in coeffs])
        assert outcome.gamma_star == pytest.approx(perron_bound(M0), abs=1e-9)
        assert outcome.gamma_star == pytest.approx(expected, abs=1e-9)


def test_classify_case_b_square_root_field():
    sys = make_system([["-2", "0.1"], ["0.1", "-abs(x)^0.5"]],
                      d=(1.0, 0.0), l1=1, kernels=[GAUSS])
    g = build_grid(-1, 1, 200)
    fields = sample_fields(sys, g)
    w = weights_for_system(sys, fields)
    outcome = classify_threshold(sys, fields, w)
    assert isinstance(outcome, CaseB)
    assert outcome.eta22 == pytest.approx(-np.sqrt(0.005), abs=1e-12)
    # the wide-gamma end of the ladder carries the continuum limit
    assert outcome.ladder[0][1] == pytest.approx(-1.98, abs=0.02)


def test_classify_fixed_point_post_check():
    sys = make_system([["-1 - 0.2*x^2", "1"], ["1", "-1"]], d=(1.0, 0.0),
                      l1=1, kernels=[GAUSS])
    g = build_grid(-1, 1, 100)
    fields = sample_fields(sys, g)
    w = weights_for_system(sys, fields)
    outcome = classify_threshold(sys, fields, w)
    assert isinstance(outcome, CaseA)
    fp = perron_bound(tilde_B(fields.M, sys.l1,
                              outcome.gamma_star, w, g))
    assert abs(fp - outcome.gamma_star) <= 1e-9


def test_ladder_rungs_are_the_bounds_of_tilde_B():
    # the CASE_A and CASE_B systems of the acceptance suite
    for coeffs in ([["-1 - 0.2*x^2", "1"], ["1", "-1"]],
                   [["-2", "0.1"], ["0.1", "-abs(x)^0.5"]]):
        sys = make_system(coeffs, d=(1.0, 0.0), l1=1, kernels=[GAUSS])
        g = build_grid(-1, 1, 100)
        fields = sample_fields(sys, g)
        w = weights_for_system(sys, fields)
        Ms = fields.M
        eta22 = static_block_bound(Ms, sys.l1)
        ladder = classify_threshold(sys, fields, w).ladder
        assert [eps for eps, _ in ladder] == list(EPS_LADDER)
        assert [v for _, v in ladder] == [
            perron_bound(tilde_B(Ms, sys.l1, eta22 + eps, w, g))
            for eps in EPS_LADDER]


def test_classify_requires_partially_degenerate():
    sys = make_system([["-1", "1"], ["1", "-1"]], d=(1.0, 1.0), l1=2,
                      kernels=[GAUSS, GAUSS])
    g = build_grid(-1, 1, 20)
    fields = sample_fields(sys, g)
    w = weights_for_system(sys, fields)
    with pytest.raises(InvalidParametersError):
        classify_threshold(sys, fields, w)


def test_ladder_monotonicity_guard():
    returns = iter([1.0, 0.5, 2.0, 2.0, 2.0, 2.0])

    def wobbling(_eps):
        return next(returns)

    with pytest.raises(ClassificationError):
        ladder_classify(wobbling, 0.0, 1e-4)


def test_reduced_quantities_bundle():
    sys = make_system([["-1 - 0.2*x^2", "1"], ["1", "-1"]], d=(1.0, 0.0),
                      l1=1, kernels=[GAUSS])
    g = build_grid(-1, 1, 100)
    fields = sample_fields(sys, g)
    rq = reduced_quantities(sys, fields, weights_for_system(sys, fields))
    assert rq.kappa == pytest.approx(perron_bound([[-1, 1], [1, -1]]), abs=1e-3)
    assert rq.kappa_tilde <= rq.kappa + 1e-9
    assert rq.eta22 == pytest.approx(-1.0, abs=1e-12)
    assert isinstance(rq.threshold, CaseA)
    assert rq.uniform_weight_fallback == (False, True)
    assert rq.threshold.case == "A"


# --- fixed-point bracketing ------------------------------------------------

def test_bracket_and_bisect_finds_the_root():
    calls = []

    def f(x):
        calls.append(x)
        return 0.75 - x

    root = bracket_and_bisect(f, 0.5, 1e-12)
    assert root == pytest.approx(0.75, abs=1e-12)
    assert min(calls) > 0.5


def test_bracket_and_bisect_without_sign_change_is_none():
    calls = []

    def f(x):
        calls.append(x)
        return 1.0 + x

    assert bracket_and_bisect(f, 0.0, 1e-12) is None
    assert len(calls) == 80
