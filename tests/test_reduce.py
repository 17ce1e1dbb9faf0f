import numpy as np
import pytest

from nlds.errors import (ClassificationError, InvalidParametersError,
                         ResolventDomainError)
from nlds.grid import build_grid
from nlds.matspec import is_irreducible, perron_bound
from nlds.model import CoefField, DispersalSystem, KernelSpec
from nlds.reduce import (CaseA, CaseB, bracket_and_bisect,
                         classify_threshold, kappa_and_eta22, ladder_classify,
                         perron_weight, reduced_quantities, reduced_tilde_M,
                         tilde_B, weights_for_system)

GAUSS = "exp(-(x-y)^2)"


def make_system(coeffs, d, l1, kernels):
    return DispersalSystem(
        l=len(coeffs), l1=l1, d=tuple(float(v) for v in d),
        kernels=tuple(KernelSpec.from_text(k) for k in kernels),
        coefficients=CoefField.from_text(coeffs), domain=(-1.0, 1.0))


# --- stationary dispersal profiles ---------------------------------------

def test_weight_symmetric_kernel_is_uniform():
    g = build_grid(-1, 1, 80)
    w = perron_weight(KernelSpec.from_text(GAUSS), g)
    assert np.allclose(w.samples, 0.5, atol=1e-12, rtol=0)
    assert w.eigenvalue_dev <= 1e-10
    assert w.residual <= 1e-10


def test_weight_rank_two_kernel_is_uniform():
    # k = 1 + x y: the odd moment self-cancels on symmetric midpoints
    g = build_grid(-1, 1, 100)
    w = perron_weight(KernelSpec.from_text("1 + x*y"), g)
    assert np.allclose(w.samples, 0.5, atol=1e-12, rtol=0)


def test_weight_shifted_kernel_nonuniform_consistent():
    g = build_grid(-1, 1, 200)
    w = perron_weight(KernelSpec.from_text("exp(-(x-y-0.2)^2)"), g)
    assert np.max(w.samples) - np.min(w.samples) > 1e-3
    assert w.eigenvalue_dev <= 1e-10
    assert w.residual <= 1e-10
    assert np.min(w.samples) > 0
    # unit mass
    assert float(w.samples @ g.weights) == pytest.approx(1.0, abs=1e-12)
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
    w = weights_for_system(sys, g)
    tm = reduced_tilde_M(sys, g, w)
    assert np.allclose(tm.entries, [[-1, 1], [1, -1]], atol=1e-12)


def test_averaged_matrix_quadratic_field():
    sys = make_system([["-x^2", "1"], ["1", "-x^2"]], d=(1.0, 1.0), l1=2,
                      kernels=[GAUSS, GAUSS])
    g = build_grid(-1, 1, 200)
    w = weights_for_system(sys, g)
    tm = reduced_tilde_M(sys, g, w)
    assert np.allclose(tm.entries, [[-1 / 3, 1], [1, -1 / 3]], atol=1e-4)
    assert perron_bound(tm) == pytest.approx(2 / 3, abs=1e-4)


def test_kappa_and_eta22():
    sys = make_system([["-x^2", "1"], ["1", "-x^2"]], d=(1.0, 0.0), l1=1,
                      kernels=[GAUSS])
    g = build_grid(-1, 1, 100)
    kappa, eta22 = kappa_and_eta22(sys, g)
    assert kappa == pytest.approx(1.0 - g.points[g.n // 2] ** 2, abs=1e-12)
    assert eta22 == pytest.approx(-g.points[g.n // 2] ** 2, abs=1e-12)


def test_eta22_square_root_field_approaches_zero():
    vals = []
    for n in (50, 100, 200):
        sys = make_system([["-2", "0.1"], ["0.1", "-abs(x)^0.5"]],
                          d=(1.0, 0.0), l1=1, kernels=[GAUSS])
        g = build_grid(-1, 1, n)
        _, eta22 = kappa_and_eta22(sys, g)
        vals.append(eta22)
        assert eta22 == pytest.approx(-np.sqrt(1.0 / n), abs=1e-12)
    assert vals[0] < vals[1] < vals[2] < 0


# --- averaged reduced family ----------------------------------------------

def test_tilde_B_swap_closed_form():
    sys = make_system([["0", "1"], ["1", "0"]], d=(1.0, 0.0), l1=1,
                      kernels=[GAUSS])
    g = build_grid(-1, 1, 50)
    w = weights_for_system(sys, g)
    for gamma in (0.5, 2.0, 4.0):
        b = tilde_B(sys, g, w, gamma)
        assert b.entries[0, 0] == pytest.approx(1.0 / gamma, abs=1e-12)


def test_tilde_B_constant_closed_form():
    sys = make_system([["-1", "1"], ["1", "-1"]], d=(1.0, 0.0), l1=1,
                      kernels=[GAUSS])
    g = build_grid(-1, 1, 50)
    w = weights_for_system(sys, g)
    for gamma in (-0.5, 0.0, 1.0):
        b = tilde_B(sys, g, w, gamma)
        assert b.entries[0, 0] == pytest.approx(-1 + 1 / (gamma + 1), abs=1e-12)


def test_tilde_B_case_b_limit_value():
    # quadrature of 0.01 / (gamma + |x|^(1/2)) against p = 1/2 approaches
    # -2 + 0.01 * (1/2) * 4 = -1.98 as gamma drops to zero
    sys = make_system([["-2", "0.1"], ["0.1", "-abs(x)^0.5"]],
                      d=(1.0, 0.0), l1=1, kernels=[GAUSS])
    g = build_grid(-1, 1, 400)
    w = weights_for_system(sys, g)
    b = tilde_B(sys, g, w, 0.05)
    assert b.entries[0, 0] == pytest.approx(-1.98, abs=0.02)


def test_tilde_B_domain_error():
    sys = make_system([["-1", "1"], ["1", "-1"]], d=(1.0, 0.0), l1=1,
                      kernels=[GAUSS])
    g = build_grid(-1, 1, 20)
    w = weights_for_system(sys, g)
    with pytest.raises(ResolventDomainError):
        tilde_B(sys, g, w, -1.0)


def test_tilde_B_monotone_and_irreducible():
    sys = make_system([["-1", "0.5", "0.2"], ["0.3", "-2", "0.4"],
                       ["0.2", "0.3", "-1.5"]],
                      d=(1.0, 1.0, 0.0), l1=2, kernels=[GAUSS, GAUSS])
    g = build_grid(-1, 1, 30)
    w = weights_for_system(sys, g)
    vals = []
    for gamma in (-1.0, -0.5, 0.0, 1.0, 2.0):
        b = tilde_B(sys, g, w, gamma)
        assert is_irreducible(b)
        vals.append(perron_bound(b))
    assert all(b2 <= b1 + 1e-10 for b1, b2 in zip(vals, vals[1:]))


# --- threshold classification ----------------------------------------------

def test_classify_swap_fixed_point():
    sys = make_system([["0", "1"], ["1", "0"]], d=(1.0, 0.0), l1=1,
                      kernels=[GAUSS])
    g = build_grid(-1, 1, 50)
    w = weights_for_system(sys, g)
    outcome = classify_threshold(sys, g, w)
    assert isinstance(outcome, CaseA)
    assert outcome.gamma_star == pytest.approx(1.0, abs=1e-9)


def test_classify_constant_fixed_point():
    sys = make_system([["-1", "1"], ["1", "-1"]], d=(1.0, 0.0), l1=1,
                      kernels=[GAUSS])
    g = build_grid(-1, 1, 50)
    w = weights_for_system(sys, g)
    outcome = classify_threshold(sys, g, w)
    assert isinstance(outcome, CaseA)
    assert outcome.gamma_star == pytest.approx(0.0, abs=1e-9)


def test_classify_constant_consistency_with_full_bound():
    # constant field, symmetric kernels: the fixed point recovers s(M)
    for coeffs, expected in ((((["0", "1"], ["1", "0"])), 1.0),
                             ((((["-1", "1"], ["1", "-1"]))), 0.0)):
        sys = make_system([list(r) for r in coeffs], d=(1.0, 0.0), l1=1,
                          kernels=[GAUSS])
        g = build_grid(-1, 1, 40)
        w = weights_for_system(sys, g)
        outcome = classify_threshold(sys, g, w)
        assert isinstance(outcome, CaseA)
        M0 = np.array([[float(v) for v in row] for row in coeffs])
        assert outcome.gamma_star == pytest.approx(perron_bound(M0), abs=1e-9)
        assert outcome.gamma_star == pytest.approx(expected, abs=1e-9)


def test_classify_case_b_square_root_field():
    sys = make_system([["-2", "0.1"], ["0.1", "-abs(x)^0.5"]],
                      d=(1.0, 0.0), l1=1, kernels=[GAUSS])
    g = build_grid(-1, 1, 200)
    w = weights_for_system(sys, g)
    outcome = classify_threshold(sys, g, w)
    assert isinstance(outcome, CaseB)
    assert outcome.eta22 == pytest.approx(-np.sqrt(0.005), abs=1e-12)
    # the wide-gamma end of the ladder carries the continuum limit
    assert outcome.ladder[0][1] == pytest.approx(-1.98, abs=0.02)


def test_classify_fixed_point_post_check():
    sys = make_system([["-1 - 0.2*x^2", "1"], ["1", "-1"]], d=(1.0, 0.0),
                      l1=1, kernels=[GAUSS])
    g = build_grid(-1, 1, 100)
    w = weights_for_system(sys, g)
    outcome = classify_threshold(sys, g, w)
    assert isinstance(outcome, CaseA)
    fp = perron_bound(tilde_B(sys, g, w, outcome.gamma_star))
    assert abs(fp - outcome.gamma_star) <= 1e-9


def test_classify_requires_partially_degenerate():
    sys = make_system([["-1", "1"], ["1", "-1"]], d=(1.0, 1.0), l1=2,
                      kernels=[GAUSS, GAUSS])
    g = build_grid(-1, 1, 20)
    w = weights_for_system(sys, g)
    with pytest.raises(InvalidParametersError):
        classify_threshold(sys, g, w)


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
    rq = reduced_quantities(sys, g)
    assert rq.kappa == pytest.approx(perron_bound([[-1, 1], [1, -1]]), abs=1e-3)
    assert rq.kappa_tilde <= rq.kappa + 1e-9
    assert rq.eta22 == pytest.approx(-1.0, abs=1e-12)
    assert isinstance(rq.threshold, CaseA)
    assert rq.uniform_fallback == (False, True)
    d = rq.to_dict()
    assert d["threshold"]["case"] == "A"


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
