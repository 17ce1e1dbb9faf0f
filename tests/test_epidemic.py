import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from test_opspec import rightmost_with_error

import nlds.matspec
from nlds.epidemic import (BoundaryCase, RootCase, VSIParams,
                           assemble_epidemic, compute_r0_report, H_mu,
                           hat_r0, q_of_mu, r0, r0_at_zero_diffusion,
                           r0_large_d_limit, sample_params)
from nlds.errors import (InvalidParametersError, NonConvergenceError,
                         ResolventDomainError)
from nlds.grid import build_grid
from nlds.matspec import metzler_bound, schur_reduce_stack
from nlds.opspec import dense_spectrum
from nlds.reduce import SystemWeights, p_weighted_mean, perron_weight

GAUSS = "exp(-(x-y)^2)"


def make_params(d=1.0, r="1", m="1", b="1", beta_d="0.5", beta_i="1",
                kernel=GAUSS):
    return VSIParams.from_text(kernel, d, r, m, b, beta_d, beta_i)


def test_single_node_assembly():
    g = build_grid(-1, 1, 1)
    B, F = assemble_epidemic(make_params(d=0.0), g)
    assert np.allclose(B, [[-1.0, 1.0], [0.0, -1.0]], atol=0)
    assert np.allclose(F, [[0.0, 0.0], [1.0, 0.5]], atol=0)


def test_transition_matrix_block_triangular():
    g = build_grid(-1, 1, 10)
    B, F = assemble_epidemic(make_params(d=2.0, m="1 + x^2"), g)
    assert np.all(B[g.n:, :g.n] == 0.0)
    assert np.all(F[:g.n, :] == 0.0)


def test_transition_matrix_dissipative():
    g = build_grid(-1, 1, 30)
    B, _ = assemble_epidemic(make_params(d=1.0), g)
    vals = dense_spectrum(B)
    assert vals[0].real < 0


def test_r0_constant_collapse():
    # constant coefficients with a symmetric kernel: the ratio is
    # beta_d/b + beta_i r/(b m) = 1.5 independent of diffusion
    g = build_grid(-1, 1, 50)
    for d in (0.0, 1.0, 100.0):
        res = r0(make_params(d=d), g)
        assert res.value == pytest.approx(1.5, abs=1e-6)
        assert res.converged
    # dense oracle on the reduced next-generation matrix
    B, F = assemble_epidemic(make_params(d=1.0), g)
    G = -F @ np.linalg.inv(B)
    assert np.max(np.abs(np.linalg.eigvals(G))) == pytest.approx(1.5, abs=1e-9)


def test_r0_without_cell_free_route():
    g = build_grid(-1, 1, 40)
    res = r0(make_params(beta_i="0", beta_d="0.5 + 0.1*x^2"), g)
    assert res.outside_positivity
    expected = float(np.max(0.5 + 0.1 * g.points ** 2))
    assert res.value == pytest.approx(expected, abs=1e-10)


def test_r0_without_cell_free_route_stops_at_a_zero_pivot(monkeypatch):
    # G = diag(beta_d / b): after one step hi I - G has an exactly zero
    # pivot at the maximum, and the singular branch returns hi
    raised = []
    real = np.linalg.solve

    def spy(a, b):
        try:
            return real(a, b)
        except np.linalg.LinAlgError:
            raised.append(np.shape(a))
            raise

    monkeypatch.setattr(np.linalg, "solve", spy)
    g = build_grid(-1, 1, 40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = r0(make_params(beta_i="0", beta_d="0.5 + 0.1*x^2"), g)
    assert raised == [(g.n, g.n)]
    assert (res.iterations, res.converged) == (1, True)
    assert res.value == float(np.max(0.5 + 0.1 * g.points ** 2))
    assert res.bracket[0] <= res.value <= res.bracket[1]


def test_r0_without_dispersal_is_singular_at_the_largest_entry():
    # d = 0: G = diag(beta_d/b + beta_i r/(b m)) peaks at two nodes, and
    # the step there must be exactly singular to count as converged
    g = build_grid(-1, 1, 3)
    params = make_params(d=0.0, r="0.1", m="0.1", b="0.1", beta_d="0.01",
                         beta_i="0.01*x^2")
    res = r0(params, g)
    assert (res.iterations, res.converged) == (1, True)
    assert res.value == pytest.approx(r0_at_zero_diffusion(params, g),
                                      rel=1e-15)


def test_r0_bracket_is_unbounded_when_the_solve_has_no_floor():
    # clearance within the rounding of dispersal: the residual bound of
    # (-B11)^{-1} r/b reaches r/b itself, so the solve error is unbounded
    g = build_grid(-1, 1, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = r0(make_params(m="3e-14", r="1 + 0.9*x"), g)
    assert np.isfinite(res.value)
    assert res.bracket == (-np.inf, np.inf)


def test_r0_requires_dissipative_transitions():
    with pytest.raises(InvalidParametersError):
        r0(make_params(m="-1"), build_grid(-1, 1, 10))


def test_r0_rejects_clearance_lost_in_rounding():
    # s(B11) = -1e-14 is below the rounding of the dissipativity bound,
    # which then cannot certify it
    with pytest.raises(InvalidParametersError):
        r0(make_params(m="1e-14"), build_grid(-1, 1, 40))


def test_sign_characterization():
    g = build_grid(-1, 1, 50)
    params = make_params(d=1.0)
    res = r0(params, g)
    assert abs(H_mu(params, g, res.value)) <= 1e-8
    assert H_mu(params, g, 3.0) < 0
    assert H_mu(params, g, 1.0) > 0
    # large mu: the infection part fades and the bound approaches s(B);
    # the rate is only sqrt(1/mu) here because s(B) is defective
    B, _ = assemble_epidemic(params, g)
    sB = dense_spectrum(B)[0].real
    assert abs(H_mu(params, g, 1e8) - sB) <= 1e-3
    assert abs(H_mu(params, g, 1e8) - sB) < abs(H_mu(params, g, 1e4) - sB)


def test_q_closed_form_and_monotonicity():
    g = build_grid(-1, 1, 60)
    params = make_params()
    p = perron_weight(params.kernel, g).samples
    mus = [0.8, 1.0, 1.5, 2.0, 4.0]
    vals = [q_of_mu(params, g, p, mu) for mu in mus]
    for mu, v in zip(mus, vals):
        assert v == pytest.approx(-1 + 1 / (mu - 0.5), abs=1e-10)
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert q_of_mu(params, g, p, 1.5) == pytest.approx(0.0, abs=1e-10)


def test_q_domain_error():
    g = build_grid(-1, 1, 20)
    params = make_params()
    p = perron_weight(params.kernel, g).samples
    with pytest.raises(ResolventDomainError):
        q_of_mu(params, g, p, 0.4)


def test_limit_constants_root_case():
    g = build_grid(-1, 1, 50)
    params = make_params()
    limit = r0_large_d_limit(params, g)
    assert isinstance(limit, RootCase)
    assert limit.tilde_r0 == pytest.approx(1.5, abs=1e-8)
    assert r0_at_zero_diffusion(params, g) == pytest.approx(1.5, abs=0)


def test_limit_heavy_clearance_boundary_case():
    g = build_grid(-1, 1, 50)
    params = make_params(m="100")
    limit = r0_large_d_limit(params, g)
    assert isinstance(limit, BoundaryCase)
    assert limit.hat_r0 == pytest.approx(0.5, abs=0)
    # the first ladder rung is decisively negative
    assert limit.ladder[0][1] < -50


def test_small_d_matches_zero_diffusion_closed_form():
    g = build_grid(-1, 1, 60)
    params = make_params(d=1e-4, m="1 + 0.2*x^2", beta_d="0.5 + 0.1*x^2")
    res = r0(params, g)
    assert abs(res.value - r0_at_zero_diffusion(params, g)) <= 5e-3


def test_monotone_in_transmission():
    g = build_grid(-1, 1, 40)
    lo = r0(make_params(beta_i="0.5"), g).value
    hi = r0(make_params(beta_i="0.8"), g).value
    assert hi >= lo


def test_report_bundle():
    g = build_grid(-1, 1, 40)
    rep = compute_r0_report(make_params(), g)
    assert rep.r0 == pytest.approx(1.5, abs=1e-8)
    assert rep.hat_r0 == 0.5
    assert rep.tilde_r0 == pytest.approx(1.5, abs=1e-8)
    assert abs(rep.sign_residual) <= 1e-8
    assert rep.q_samples[0][0] == pytest.approx(0.6, abs=1e-12)
    d = rep.to_dict()
    assert d["limit"]["case"] == "root"


def test_positivity_validation():
    with pytest.raises(InvalidParametersError):
        r0(make_params(r="x"), build_grid(-1, 1, 10))  # r < 0 on half
    with pytest.raises(InvalidParametersError):
        r0(make_params(beta_i="-1"), build_grid(-1, 1, 10))


def test_hat_r0_nonconstant():
    g = build_grid(-1, 1, 80)
    params = make_params(beta_d="0.5 - 0.3*abs(x)^0.5")
    assert hat_r0(params, g) == pytest.approx(
        0.5 - 0.3 * np.sqrt(np.min(np.abs(g.points))), abs=1e-12)


def test_genuine_boundary_case_with_varying_ratio():
    # beta_d peaked with square-root flatness: the mixing balance stays
    # finite approaching the direct-route maximum and heavy clearance
    # pins it negative
    g = build_grid(-1, 1, 200)
    params = make_params(d=1e4, m="100", beta_d="0.5 - 0.3*abs(x)^0.5")
    limit = r0_large_d_limit(params, g)
    assert isinstance(limit, BoundaryCase)
    res = r0(params, g)
    assert abs(res.value - limit.hat_r0) <= 1e-2


def test_report_samples_the_parameters_once(monkeypatch):
    import nlds.epidemic
    calls = []
    real = nlds.epidemic.sample_params

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(nlds.epidemic, "sample_params", counting)
    g = build_grid(-1, 1, 40)
    rep = compute_r0_report(make_params(d=2.0, m="1 + x^2"), g)
    assert len(calls) == 1
    assert rep.converged


def test_report_discretises_the_kernel_once(monkeypatch):
    import nlds.assembly
    import nlds.epidemic
    import nlds.reduce
    calls = []
    real = nlds.assembly.kernel_quadrature

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (nlds.assembly, nlds.reduce, nlds.epidemic):
        monkeypatch.setattr(module, "kernel_quadrature", counting)
    g = build_grid(-1, 1, 40)
    rep = compute_r0_report(make_params(d=2.0, m="1 + x^2"), g)
    assert len(calls) == 1
    assert rep.converged


def test_sampled_parameters_give_identical_results():
    g = build_grid(-1, 1, 40)
    params = make_params(d=2.0, r="1 + 0.5*x", m="1 + x^2",
                         beta_d="0.3 + 0.2*x^2")
    sv = sample_params(params, g)
    p = perron_weight(params.kernel, g).samples
    assert r0(params, g, sampled=sv) == r0(params, g)
    assert H_mu(params, g, 1.2, sampled=sv) == H_mu(params, g, 1.2)
    assert hat_r0(params, g, sampled=sv) == hat_r0(params, g)
    assert r0_at_zero_diffusion(params, g, sampled=sv) == \
        r0_at_zero_diffusion(params, g)
    assert q_of_mu(params, g, p, 0.8, sampled=sv) == q_of_mu(params, g, p, 0.8)
    assert r0_large_d_limit(params, g, p, sampled=sv) == \
        r0_large_d_limit(params, g, p)
    for with_sv, without in zip(assemble_epidemic(params, g, sampled=sv),
                                assemble_epidemic(params, g)):
        assert np.array_equal(with_sv, without)


def test_r0_step_budget():
    g = build_grid(-1, 1, 40)
    params = make_params(d=2.0, r="1 + 0.5*x", m="1 + x^2",
                         beta_d="0.3 + 0.2*x^2")
    assert r0(params, g).iterations > 1
    capped = r0(params, g, max_iterations=1)
    assert (capped.iterations, capped.converged) == (1, False)


def test_r0_report_forms_no_next_generation_matrix(monkeypatch):
    # constant rates: G 1 is flat, so R0 takes one order-n solve and the
    # n-column solve (-B11)^{-1} diag(r/b) that forms G is not made
    shapes = []
    real = np.linalg.solve

    def recording(a, b):
        shapes.append((np.shape(a), np.shape(b)))
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    g = build_grid(-1, 1, 40)
    rep = compute_r0_report(make_params(d=2.0), g)
    assert rep.converged
    assert any(a[-1] >= g.n for a, _ in shapes)
    assert [(a, b) for a, b in shapes
            if a[-1] >= g.n and len(b) > 1 and b[-1] > 1] == []


def test_r0_with_isolated_nodes_matches_the_formed_matrix():
    # off its diagonal the kernel vanishes on the rows and columns of the
    # outermost nodes, so with d > 0 G is reducible and its two largest
    # entries sit at nodes that nothing disperses to or from: the step
    # there is exactly singular
    g = build_grid(-1, 1, 9)
    params = make_params(d=3.0, r="0.1", m="0.1", b="0.1", beta_d="0.01",
                         beta_i="0.01*x^2",
                         kernel="max(0, min(1 - x^2, 1 - y^2) - abs(x - y))")
    sv = sample_params(params, g)
    res = r0(params, g, sampled=sv)
    ref = metzler_bound(explicit_next_generation(params, g, sv), tol=1e-10)
    assert (res.iterations, res.converged) == (ref.iterations, ref.converged)
    assert (res.iterations, res.converged) == (1, True)
    top = float(np.max(0.1 + 0.1 * g.points ** 2))   # beta_d/b + beta_i r/(bm)
    assert res.value == ref.value == pytest.approx(top, rel=1e-15)


def test_H_mu_eliminates_the_static_cells(monkeypatch):
    def refuse(A):
        raise AssertionError(f"dense LU of order {A.shape[0]}")

    g = build_grid(-1, 1, 40)
    params = make_params(d=2.0, r="1 + 0.5*x", m="1 + x^2",
                         beta_d="0.3 + 0.2*x^2")
    B, F = assemble_epidemic(params, g)
    exact = dense_spectrum(B + F / 1.2)[0].real
    monkeypatch.setattr(nlds.matspec, "_dense_solver", refuse)
    assert H_mu(params, g, 1.2) == pytest.approx(exact, abs=1e-9)


@st.composite
def vsi_models(draw, max_nodes=48):
    """Non-constant VSI model on a grid of n <= max_nodes nodes,
    d in [0, 100] and beta_i >= 0."""
    def cents(lo, hi):
        return draw(st.integers(lo, hi)) / 100

    params = make_params(
        d=cents(0, 10000),
        r=f"{cents(10, 200)} * (1 + {cents(-90, 90)}*x)",
        m=f"{cents(10, 200)} + {cents(0, 100)}*x^2",
        b=f"{cents(10, 200)} * (1 + {cents(-90, 90)}*x^2)",
        beta_d=f"{cents(1, 200)} * (1 + {cents(-90, 90)}*x)",
        beta_i=f"{cents(0, 200)} + {cents(0, 100)}*x^2",
        kernel=f"exp(-(x-y)^2 / {cents(10, 200)})")
    return params, build_grid(-1, 1, draw(st.integers(2, max_nodes)))


@settings(max_examples=100, deadline=None)
@given(vsi_models())
def test_H_mu_of_random_vsi_models(case):
    params, g = case
    sv = sample_params(params, g)
    R0 = r0(params, g, sampled=sv).value
    B, F = assemble_epidemic(params, g, sampled=sv)
    for mu in (R0 / 2, R0, 2 * R0):
        P = B + F / mu
        exact, err = rightmost_with_error(P)
        assume(err <= 1e-10)   # a nearly defective root is beyond the oracle
        c = 1.0 + max(0.0, -float(np.min(np.diag(P))))
        try:
            h = H_mu(params, g, mu, sampled=sv)
        except NonConvergenceError:
            # without dispersal or without the cell-free route the
            # operator is reducible, its bracket need not close, and
            # the solve may abstain
            assert params.d == 0.0 or sv.outside_positivity
            continue
        assert abs(h - exact) <= 1e-10 * c + err
        if mu == R0:
            assert abs(h) <= 1e-8
    # above the direct-route maximum Q is the paper's reduced B~_0: the
    # weighted mean of the nodal field with the cells eliminated at 0
    p = perron_weight(params.kernel, g).samples
    weights = SystemWeights(weights=(p,), uniform_fallback=(False,))
    for mu in (R0 / 2, R0, 2 * R0):
        if not mu > hat_r0(params, g, sampled=sv):
            continue
        M = np.empty((g.n, 2, 2))
        M[:, 0, 0], M[:, 0, 1] = -sv.m, sv.r
        M[:, 1, 0], M[:, 1, 1] = sv.beta_i / mu, sv.beta_d / mu - sv.b
        tilde_B0 = p_weighted_mean(schur_reduce_stack(M, 1, 0.0), weights, g)
        # mu b - beta_d loses accuracy by the factor mu b / (mu b - beta_d)
        den = mu * sv.b - sv.beta_d
        scale = (sv.m + sv.r * sv.beta_i * mu * sv.b / den ** 2) * p
        assert abs(q_of_mu(params, g, p, mu, sampled=sv) - tilde_B0[0, 0]) \
            <= 1e-12 * float(scale @ g.weights)


def explicit_next_generation(params, g, sv):
    B, _ = assemble_epidemic(params, g, sampled=sv)
    X = np.linalg.solve(-B[:g.n, :g.n], np.diag(sv.r / sv.b))
    return np.diag(sv.beta_d / sv.b) + sv.beta_i[:, None] * X


@settings(max_examples=100, deadline=None)
@given(vsi_models())
def test_r0_of_random_vsi_models(case):
    params, g = case
    sv = sample_params(params, g)
    res = r0(params, g, sampled=sv)
    ref = metzler_bound(explicit_next_generation(params, g, sv), tol=1e-10)
    assert abs(res.value - ref.value) <= 1e-12 * ref.value
    assert (res.iterations, res.converged) == (ref.iterations, ref.converged)
    assert res.bracket[0] <= min(res.value, ref.value)
    assert max(res.value, ref.value) <= res.bracket[1]
    # -F B^{-1} >= 0, so its rightmost root is its spectral radius
    B, F = assemble_epidemic(params, g, sampled=sv)
    exact, err = rightmost_with_error(F @ np.linalg.inv(-B))
    assume(err <= 1e-10)   # a nearly defective root is beyond the oracle
    assert abs(res.value - exact) <= 1e-10 * res.value + err


def exact_solve(A, b):
    """A^{-1} b in rational arithmetic, by Gaussian elimination."""
    n = len(b)
    M = [[Fraction(a) for a in row] + [Fraction(v)] for row, v in zip(A, b)]
    for k in range(n):
        p = next(i for i in range(k, n) if M[i][k] != 0)
        M[k], M[p] = M[p], M[k]
        for i in range(k + 1, n):
            f = M[i][k] / M[k][k]
            M[i] = [a - f * c for a, c in zip(M[i], M[k])]
    x = [Fraction(0)] * n
    for k in reversed(range(n)):
        x[k] = (M[k][n] - sum(M[k][j] * x[j]
                              for j in range(k + 1, n))) / M[k][k]
    return x


@settings(max_examples=40, deadline=None)
@given(vsi_models(max_nodes=8))
def test_r0_bracket_holds_the_exact_quotients(case):
    # the Collatz-Wielandt quotients of the exact G at the last iterate
    # enclose R0; the bracket must hold them, solve error and all
    params, g = case
    sv = sample_params(params, g)
    res = r0(params, g, sampled=sv)
    ref = metzler_bound(explicit_next_generation(params, g, sv), tol=1e-10)
    assume(res.iterations == ref.iterations)   # then u is ref.vector
    B, _ = assemble_epidemic(params, g, sampled=sv)
    u = [Fraction(v) for v in ref.vector]
    F = [Fraction(v) for v in sv.b]
    c_u = [Fraction(r) / b * v for r, b, v in zip(sv.r, F, u)]
    x = exact_solve(-B[:g.n, :g.n], c_u)
    q = [(Fraction(bd) / b * v + Fraction(bi) * xa) / v
         for bd, b, bi, v, xa in zip(sv.beta_d, F, sv.beta_i, u, x)]
    assert Fraction(res.bracket[0]) <= min(q)
    assert max(q) <= Fraction(res.bracket[1])
