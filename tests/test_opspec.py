import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nlds.assembly import assemble_operator, pointwise_A
from nlds.errors import SizeCapError
from nlds.grid import build_grid
from nlds.matspec import metzler_bound
from nlds.model import CoefField, DispersalSystem, KernelSpec
from nlds.opspec import (Exists, NoCertificate, compute_spectral_report,
                         dense_spectrum, essential_bound, growth_rate,
                         principal_certificate, spectral_bound)

GAUSS = "exp(-(x-y)^2)"


def make_system(coeffs, d, l1, kernels, domain=(-1.0, 1.0)):
    return DispersalSystem(
        l=len(coeffs), l1=l1, d=tuple(float(v) for v in d),
        kernels=tuple(KernelSpec.from_text(k) for k in kernels),
        coefficients=CoefField.from_text(coeffs), domain=domain)


def test_spectral_bound_row_sum_zero():
    r = spectral_bound(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    assert r.value == pytest.approx(0.0, abs=1e-12)
    assert r.converged


def test_spectral_bound_diagonal_system():
    sys = make_system([["1 - x^2"]], d=(0.0,), l1=1, kernels=[GAUSS])
    g = build_grid(-1, 1, 31)
    P = assemble_operator(sys, g, force=True)
    r = spectral_bound(P)
    assert r.value == pytest.approx(float(np.max(1 - g.points ** 2)), abs=1e-11)


def test_constant_coupling_any_diffusion():
    # dispersal annihilates constants, so s stays at s(M0) = 0
    g = build_grid(-1, 1, 50)
    for d in (0.0, 1.0, 10.0):
        sys = make_system([["-1", "1"], ["1", "-1"]], d=(d, d), l1=2,
                          kernels=[GAUSS, GAUSS])
        P = assemble_operator(sys, g, force=True)
        r = spectral_bound(P)
        assert r.value == pytest.approx(0.0, abs=1e-10)
        vals = dense_spectrum(P)
        assert vals[0].real == pytest.approx(0.0, abs=1e-10)


def test_essential_bound_scalar_formula():
    sys = make_system([["x"]], d=(1.0,), l1=1, kernels=["1"])
    g = build_grid(-1, 1, 16)
    assert essential_bound(pointwise_A(sys, g)) == pytest.approx(
        float(np.max(g.points)) - 2.0, abs=1e-12)


def test_essential_bound_zero_diffusion_is_pointwise_max():
    sys = make_system([["1 - x^2", "1"], ["1", "-2"]], d=(0.0, 0.0), l1=1,
                      kernels=[GAUSS])
    g = build_grid(-1, 1, 16)
    se = essential_bound(pointwise_A(sys, g))
    from nlds.matspec import metzler_bound
    expected = max(metzler_bound(m).value
                   for m in sys.coefficients.sample(g))
    assert se == pytest.approx(expected, abs=1e-12)


def test_certificate_exists_with_positive_vector():
    sys = make_system([["1 - x^2"]], d=(0.5,), l1=1, kernels=[GAUSS])
    g = build_grid(-1, 1, 60)
    P = assemble_operator(sys, g)
    rep = compute_spectral_report(P, pointwise_A(sys, g))
    assert isinstance(rep.certificate, Exists)
    assert np.min(rep.certificate.eigenvector) > 0
    # dense oracle confirms the rightmost eigenvalue is isolated
    vals = dense_spectrum(P)
    assert vals[0].real == pytest.approx(rep.s, abs=1e-9)
    assert vals[1].real < rep.s - 1e-6


def test_certificate_constant_coefficient():
    sys = make_system([["0.75"]], d=(1.0,), l1=1, kernels=[GAUSS])
    g = build_grid(-1, 1, 40)
    P = assemble_operator(sys, g)
    rep = compute_spectral_report(P, pointwise_A(sys, g))
    assert isinstance(rep.certificate, Exists)
    assert rep.s == pytest.approx(0.75, abs=1e-10)
    u = rep.certificate.eigenvector
    assert np.max(u) - np.min(u) <= 1e-8


def test_no_certificate_without_gap():
    # pure multiplication operator: spectrum equals its essential part
    sys = make_system([["1 - x^2"]], d=(0.0,), l1=1, kernels=[GAUSS])
    g = build_grid(-1, 1, 30)
    P = assemble_operator(sys, g, force=True)
    rep = compute_spectral_report(P, pointwise_A(sys, g))
    assert isinstance(rep.certificate, NoCertificate)
    assert "gap" in rep.certificate.reason


def test_dense_spectrum_small_cases():
    vals = dense_spectrum(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    assert np.allclose(sorted(v.real for v in vals), [-2.0, 0.0], atol=1e-12)
    vals = dense_spectrum(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose([v.real for v in vals], [3.0, 2.0, 1.0], atol=0)


def test_dense_spectrum_size_cap():
    with pytest.raises(SizeCapError):
        dense_spectrum(np.eye(601))


def test_growth_rate_scalar_decay():
    assert growth_rate(np.array([[-1.0]]), horizon=40.0) == pytest.approx(-1.0, abs=1e-12)


def test_growth_rate_two_mode_split():
    P = np.array([[-1.0, 1.0], [1.0, -1.0]])
    rate = growth_rate(P, horizon=40.0, u0=np.array([1.0, 2.0]))
    assert rate == pytest.approx(0.0, abs=1e-12)


def test_growth_rate_matches_bound_on_certified_system():
    sys = make_system([["1 - x^2"]], d=(0.5,), l1=1, kernels=[GAUSS])
    g = build_grid(-1, 1, 40)
    P = assemble_operator(sys, g)
    rep = compute_spectral_report(P, pointwise_A(sys, g))
    assert isinstance(rep.certificate, Exists)
    rate = growth_rate(P, horizon=200.0 / rep.gap)
    assert abs(rate - rep.s) <= 1e-3


def test_shift_covariance():
    rng = np.random.default_rng(3)
    a = rng.uniform(0, 1, size=(30, 30))
    np.fill_diagonal(a, rng.uniform(-2, 0, size=30))
    s0 = spectral_bound(a).value
    s1 = spectral_bound(a + 0.7 * np.eye(30)).value
    assert abs(s1 - (s0 + 0.7)) <= 1e-12 * max(1.0, abs(s1))


def test_monotonicity_random_pairs():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = int(rng.integers(5, 25))
        a = rng.uniform(0, 1, size=(m, m))
        np.fill_diagonal(a, rng.uniform(-2, 0, size=m))
        bump = rng.uniform(0, 0.5, size=(m, m)) * (rng.random((m, m)) < 0.3)
        np.fill_diagonal(bump, np.abs(np.diag(bump)))
        assert spectral_bound(a + bump).value >= spectral_bound(a).value - 1e-11


def test_oracle_equivalence_moderate_system():
    sys = make_system([["-1 - 0.2*x^2", "0.8"], ["0.6", "-1 + 0.3*x"]],
                      d=(1.3, 0.4), l1=2, kernels=[GAUSS, "exp(-2*(x-y)^2)"])
    g = build_grid(-1, 1, 40)
    P = assemble_operator(sys, g)
    r = spectral_bound(P)
    vals = dense_spectrum(P)
    assert abs(r.value - vals[0].real) <= 1e-8


def test_certified_value_strictly_separated():
    # second-largest real part sits measurably below the certified value
    sys = make_system([["-1 - 0.2*x^2", "1"], ["1", "-1"]], d=(1.0, 0.0),
                      l1=1, kernels=[GAUSS])
    g = build_grid(-1, 1, 40)
    P = assemble_operator(sys, g)
    rep = compute_spectral_report(P, pointwise_A(sys, g))
    assert isinstance(rep.certificate, Exists)
    vals = dense_spectrum(P)
    second = vals[1].real
    assert second < rep.s
    assert rep.s - second > 1e-6


CASE_A = [["-1 - 0.2*x^2", "1"], ["1", "-1"]]
CASE_B = [["-2", "0.1"], ["0.1", "-abs(x)^0.5"]]


def test_report_solves_once_on_the_operator(monkeypatch):
    import nlds.opspec
    orders = []

    def counting(A, *args, **kwargs):
        orders.append(len(A))
        return metzler_bound(A, *args, **kwargs)

    monkeypatch.setattr(nlds.opspec, "metzler_bound", counting)
    sys = make_system(CASE_B, d=(1.0, 0.0), l1=1, kernels=[GAUSS])
    g = build_grid(-1, 1, 40)
    P = assemble_operator(sys, g)
    rep = compute_spectral_report(P, pointwise_A(sys, g))
    assert isinstance(rep.certificate, Exists)
    assert orders.count(P.size) == 1
    assert rep.to_dict()["bracket"] == list(rep.bracket)


@pytest.mark.parametrize("coeffs", [CASE_A, CASE_B], ids=["case_a", "case_b"])
def test_certified_bracket_at_order_1024(coeffs):
    # the threshold systems at n = 512 over the diffusion range [0.5, 2]:
    # P is symmetric, so eigvalsh is the oracle
    g = build_grid(-1, 1, 512)
    for d in (0.5, 0.8, 1.25, 2.0):
        sys = make_system(coeffs, d=(d, 0.0), l1=1, kernels=[GAUSS])
        P = assemble_operator(sys, g)
        rep = compute_spectral_report(P, pointwise_A(sys, g))
        top = float(np.linalg.eigvalsh(P.matrix)[-1])
        assert abs(rep.s - top) <= 1e-12, d
        assert rep.bracket[0] <= top <= rep.bracket[1], d
        assert isinstance(rep.certificate, Exists), d
    sys = make_system(coeffs, d=(0.0, 0.0), l1=1, kernels=[GAUSS])
    P = assemble_operator(sys, g, force=True)
    rep = compute_spectral_report(P, pointwise_A(sys, g))
    assert rep.converged
    assert isinstance(rep.certificate, NoCertificate)


# --- partially degenerate operators: block elimination in the Noda step ---

def recorded_solve_orders(monkeypatch):
    """Orders of the square matrices np.linalg.solve factors from now on
    (stacks of nodal blocks are left out)."""
    orders = []
    solve = np.linalg.solve

    def recording(a, b):
        if np.ndim(a) == 2:
            orders.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    return orders


THREE = [["-1 - x^2", "0.5", "0.2"], ["0.3", "-x", "0.4"],
         ["0.1", "0.6", "-2 + x^2"]]


@pytest.mark.parametrize("coeffs,l1", [(CASE_B, 1), (THREE, 1), (THREE, 2)])
def test_partially_degenerate_steps_factor_the_diffusing_block(
        monkeypatch, coeffs, l1):
    l = len(coeffs)
    sys = make_system(coeffs, d=[1.0] * l1 + [0.0] * (l - l1), l1=l1,
                      kernels=[GAUSS] * l1)
    g = build_grid(-1, 1, 40)
    P = assemble_operator(sys, g)
    orders = recorded_solve_orders(monkeypatch)
    r = spectral_bound(P, tol=1e-13)
    assert r.converged
    assert len(orders) == r.iterations > 0
    assert set(orders) == {l1 * g.n}
    # raw arrays keep the dense LU of the whole matrix
    orders.clear()
    spectral_bound(P.matrix, tol=1e-13)
    assert set(orders) == {l * g.n}


def test_fully_diffusing_steps_factor_the_whole_operator(monkeypatch):
    sys = make_system(CASE_A, d=(1.0, 0.5), l1=2, kernels=[GAUSS, GAUSS])
    g = build_grid(-1, 1, 30)
    P = assemble_operator(sys, g)
    orders = recorded_solve_orders(monkeypatch)
    assert spectral_bound(P).converged
    assert set(orders) == {P.size}


def rightmost_with_error(M):
    """Rightmost real part of the spectrum from dense_spectrum, with its
    rounding error: backward error times the condition number."""
    top = dense_spectrum(M)[0]
    vals, right = np.linalg.eig(M)
    vals_t, left = np.linalg.eig(M.T)
    x = right[:, np.argmin(np.abs(vals - top))]
    y = left[:, np.argmin(np.abs(vals_t - top))]
    backward = len(M) * np.finfo(float).eps * np.abs(M).sum(1).max()
    overlap = abs(np.vdot(y, x))   # 0 at a defective root: no bound
    return float(top.real), 4 * backward / overlap if overlap else np.inf


@st.composite
def cooperative_systems(draw):
    """Irreducible cooperative system of l <= 3 species, 1 <= l1 <= l of
    them dispersing, on a grid of n <= 48 nodes; the couplings
    i -> i + 1 (mod l) stay positive, so every node is irreducible."""
    l = draw(st.integers(1, 3))
    l1 = draw(st.integers(1, l))
    n = draw(st.integers(2, 48))

    def cents(lo, hi):
        return draw(st.integers(lo, hi)) / 100

    coeffs = [[f"{cents(-200, 100)} + {cents(-100, 100)}*x^2" if i == j
               else f"{cents(0, 100) + 0.1 * (j == (i + 1) % l)}"
                    f" * (1 + {cents(-100, 100)}*x)"
               for j in range(l)] for i in range(l)]
    kernels = [f"exp(-(x-y)^2 / {cents(10, 200)})" for _ in range(l1)]
    d = [cents(5, 300) for _ in range(l1)] + [0.0] * (l - l1)
    return make_system(coeffs, d, l1, kernels), build_grid(-1, 1, n)


@settings(max_examples=100, deadline=None)
@given(cooperative_systems())
def test_spectral_bound_of_random_systems(case):
    sys, g = case
    P = assemble_operator(sys, g)
    exact, err = rightmost_with_error(P.matrix)
    assume(err <= 1e-10)   # a nearly defective root is beyond the oracle
    c = 1.0 + max(0.0, -float(np.min(np.diag(P.matrix))))
    r = spectral_bound(P, tol=1e-13)
    assert r.converged
    assert abs(r.value - exact) <= 1e-10 * c + err
    lo, hi = r.bracket
    assert lo - err <= exact <= hi + err
    assert np.min(r.vector) > 0.0
    s_e = essential_bound(pointwise_A(sys, g))
    assert r.value >= s_e - 1e-10 * c
    rep = compute_spectral_report(P, pointwise_A(sys, g))
    assert (rep.s, rep.bracket) == (r.value, r.bracket)
    if isinstance(rep.certificate, Exists):
        assert np.min(rep.certificate.eigenvector) > 0.0
    # the dense LU of the whole matrix: the same bound within the bracket
    dense = spectral_bound(P.matrix, tol=1e-13)
    assert abs(dense.iterations - r.iterations) <= 1
    assert lo <= dense.value <= hi
    assert dense.bracket[0] <= r.value <= dense.bracket[1]
