import math
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from nlds.assembly import assemble_operator
from nlds.errors import NonConvergenceError, ResolventDomainError
from nlds.grid import build_grid
from nlds.matspec import (CoopMatrix, is_irreducible, large_shift_limit_check,
                          max_nodal_bound, metzler_bound, nodal_bounds,
                          perron_bound, schur_reduce, schur_reduce_stack)
from nlds.model import CoefField, DispersalSystem, KernelSpec


def rand_cooperative(rng, l, irreducible=True):
    """Seeded cooperative matrix; a positive cycle guarantees
    irreducibility when requested."""
    a = rng.uniform(0.0, 1.0, size=(l, l))
    np.fill_diagonal(a, rng.uniform(-1.0, 1.0, size=l))
    if irreducible:
        for i in range(l):
            a[i, (i + 1) % l] += 0.05
    return a


def test_symmetric_example():
    assert perron_bound([[2, 1], [1, 2]]) == pytest.approx(3.0, abs=1e-10)


def test_swap_example():
    assert perron_bound([[0, 1], [1, 0]]) == pytest.approx(1.0, abs=1e-10)


def test_characteristic_root_example():
    # roots of l^2 + 5l + 2: rightmost is (-5 + sqrt(17))/2
    expected = (-5 + math.sqrt(17)) / 2
    assert perron_bound([[-2, 1], [4, -3]]) == pytest.approx(expected, abs=1e-10)


def test_cooperativity_enforced():
    with pytest.raises(ValueError, match="not cooperative"):
        CoopMatrix(np.array([[1.0, -0.5], [0.0, 1.0]]))


def test_shift_covariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = rand_cooperative(rng, int(rng.integers(2, 7)))
        shift = float(rng.uniform(-5, 5))
        s0 = perron_bound(c)
        s1 = perron_bound(c + shift * np.eye(c.shape[0]))
        assert abs(s1 - (s0 + shift)) <= 1e-12 * max(1.0, abs(s0 + shift))


def test_monotonicity_strict():
    rng = np.random.default_rng(11)
    for _ in range(20):
        l = int(rng.integers(2, 7))
        c = rand_cooperative(rng, l)
        bump = np.zeros((l, l))
        i, j = rng.integers(0, l, size=2)
        bump[i, j] = rng.uniform(0.1, 1.0)
        assert perron_bound(c + bump) > perron_bound(c)


def test_block_bound_strictly_below():
    rng = np.random.default_rng(13)
    for _ in range(20):
        l = int(rng.integers(2, 7))
        l1 = int(rng.integers(1, l))
        c = rand_cooperative(rng, l)
        assert perron_bound(c) > metzler_bound(c[l1:, l1:]).value


def test_irreducible_examples():
    assert is_irreducible([[0, 1], [1, 0]])
    assert not is_irreducible([[1, 0], [1, 1]])
    cyc = np.zeros((3, 3))
    cyc[0, 1] = cyc[1, 2] = cyc[2, 0] = 1.0
    assert is_irreducible(cyc)


def test_schur_closed_form():
    # [[a,b],[c,e]] with l1=1 reduces to a + b c / (gamma - e)
    assert schur_reduce([[0, 1], [1, 0]], 1, 2.0).entries[0, 0] == pytest.approx(0.5)


def test_schur_fixed_point_identity():
    c = [[0, 1], [1, 0]]
    h = perron_bound(c)
    reduced = schur_reduce(c, 1, h)
    assert reduced.entries[0, 0] == pytest.approx(h, abs=1e-10)


def test_schur_monotone_in_gamma():
    c = [[0, 1], [1, 0]]
    assert schur_reduce(c, 1, 2.0).entries[0, 0] > schur_reduce(c, 1, 4.0).entries[0, 0]


def test_schur_domain_error():
    with pytest.raises(ResolventDomainError):
        schur_reduce([[0, 1], [1, 0]], 1, -0.5)


def test_schur_preserves_irreducibility():
    rng = np.random.default_rng(17)
    for _ in range(20):
        l = int(rng.integers(3, 7))
        l1 = int(rng.integers(2, l))
        c = rand_cooperative(rng, l)
        if not is_irreducible(c):
            continue
        s22 = metzler_bound(c[l1:, l1:]).value
        gamma = s22 + float(rng.uniform(0.1, 2.0))
        assert is_irreducible(schur_reduce(c, l1, gamma))


def test_fixed_point_identity_random():
    rng = np.random.default_rng(19)
    for _ in range(20):
        l = int(rng.integers(2, 7))
        l1 = int(rng.integers(1, l))
        c = rand_cooperative(rng, l)
        h = perron_bound(c)
        assert perron_bound(schur_reduce(c, l1, h)) == pytest.approx(h, abs=1e-10)


def test_large_shift_exact_small_case():
    # C = [[0,1],[1,0]]: s(C - diag(mu, 0)) = (-mu + sqrt(mu^2 + 4))/2
    c = [[0, 1], [1, 0]]
    vals = large_shift_limit_check(c, 1, [1.0, 10.0, 100.0, 1000.0])
    for mu, v in zip([1.0, 10.0, 100.0, 1000.0], vals):
        assert v == pytest.approx((-mu + math.sqrt(mu * mu + 4)) / 2, abs=1e-10)
    assert abs(vals[-1] - 0.0) <= 1e-2          # near s(C22) = 0 at mu = 1e3
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_large_shift_zero_allowed():
    c = [[0, 1], [1, 0]]
    (v,) = large_shift_limit_check(c, 1, [0.0])
    assert v == pytest.approx(perron_bound(c), abs=1e-10)


def test_large_shift_schedule_validation():
    with pytest.raises(ValueError):
        large_shift_limit_check([[0, 1], [1, 0]], 1, [1.0, 0.5])


def test_metzler_bound_defective_dominant():
    # nilpotent Jordan block: the defective eigenvalue limits value
    # accuracy to about sqrt(tol), which is still a convergent estimate
    r = metzler_bound(np.array([[0.0, 1.0], [0.0, 0.0]]), tol=1e-12)
    assert r.value == pytest.approx(0.0, abs=1e-4)


# --- Noda iteration: value, Collatz-Wielandt bracket, positive vector ----

@st.composite
def irreducible_cooperative(draw):
    """Cooperative matrix of order <= 40 whose positive cycle
    i -> i+1 (mod m) makes it irreducible."""
    m = draw(st.integers(2, 40))
    off = draw(hnp.arrays(float, (m, m), elements=st.floats(0.0, 1.0)))
    diag = draw(hnp.arrays(float, m, elements=st.floats(-3.0, 1.0)))
    cycle = draw(hnp.arrays(float, m, elements=st.floats(0.1, 1.0)))
    a = off.copy()
    np.fill_diagonal(a, diag)
    a[np.arange(m), (np.arange(m) + 1) % m] += cycle
    return a


def assert_perron_evidence(a, r, exact, atol, oracle_err=0.0):
    """Converged, within atol * c of the exact value, bracketed, and
    positive; oracle_err is the rounding error of the exact value."""
    c = 1.0 + max(0.0, -float(np.min(np.diag(a))))
    assert r.converged
    assert abs(r.value - exact) <= atol * c + oracle_err
    lo, hi = r.bracket
    assert lo - oracle_err <= exact <= hi + oracle_err
    assert np.min(r.vector) > 0.0


def eigvals_oracle(a):
    """Rightmost real part of the spectrum, with its rounding error:
    the backward error m * eps * ||a||_inf times the eigenvalue's
    condition number 1 / |y . x| (unit right and left eigenvectors)."""
    vals, right = np.linalg.eig(a)
    vals_t, left = np.linalg.eig(a.T)
    x = right[:, np.argmax(vals.real)]
    y = left[:, np.argmax(vals_t.real)]
    backward = len(a) * np.finfo(float).eps * np.abs(a).sum(1).max()
    return float(np.max(vals.real)), 4 * backward / abs(np.vdot(y, x))


@settings(max_examples=200, deadline=None)
@given(irreducible_cooperative())
def test_metzler_bound_matches_eigvals(a):
    exact, err = eigvals_oracle(a)
    # a nearly defective root is beyond the oracle's resolution
    assume(err <= 1e-10)
    assert_perron_evidence(a, metzler_bound(a), exact, 1e-10, err)


def test_metzler_bound_bracket_holds_in_floating_point():
    # s = sqrt(2); the bracket must contain it, not merely sit within
    # rounding distance of it
    a = np.array([[0.0, 2.0], [1.0, 0.0]])
    r = metzler_bound(a)
    assert_perron_evidence(a, r, math.sqrt(2.0), 1e-12)
    assert r.bracket[1] - r.bracket[0] < 1e-12


def test_metzler_bound_waits_for_the_value_to_settle():
    # weak cycle, eigenvector entries down to ~1e-6: the residual meets
    # tol one step before the value does (error 8e-10 there)
    a = np.diag([1.0, 1.0, -2.0, -2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    a[np.arange(9), (np.arange(9) + 1) % 9] = [1.0, 0.1, 1.0, 0.125, 0.25,
                                                0.25, 0.125, 1.0, 0.1]
    exact, err = eigvals_oracle(a)
    assert_perron_evidence(a, metzler_bound(a), exact, 1e-12, err)


def test_metzler_bound_stops_at_the_rounding_floor():
    # eigenvector entries down to ~1e-17: the last solve loses positivity
    # to rounding once hi meets s, and the residual test decides
    m = 32
    a = np.diag(np.full(m, -1.5280837779054364))
    a[np.arange(m), (np.arange(m) + 1) % m] = 0.1
    for i, j, x in [(12, 12, 0.2117044437077027), (22, 22, 0.0),
                    (26, 26, -0.6287851359925392),
                    (27, 27, 0.9999999999999999),
                    (12, 13, 0.2117044437077027),
                    (27, 28, 0.9999999999999999),
                    (0, 12, 0.2117044437077027),
                    (0, 27, 0.9999999999999999)]:
        a[i, j] = x
    exact, err = eigvals_oracle(a)
    assert_perron_evidence(a, metzler_bound(a), exact, 1e-12, err)


def test_metzler_bound_diagonal():
    a = np.diag([-1.0, 0.5, 0.25, -3.0])
    r = metzler_bound(a)
    assert r.value == 0.5
    assert_perron_evidence(a, r, 0.5, 0.0)


def test_metzler_bound_jordan_block_bracket():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert_perron_evidence(a, metzler_bound(a), 0.0, 1e-4)


def test_metzler_bound_block_diagonal_operator():
    # no dispersal: the operator splits into one 2 x 2 block per node
    sys = DispersalSystem(
        l=2, l1=2, d=(0.0, 0.0),
        kernels=tuple(KernelSpec.from_text("exp(-(x-y)^2)") for _ in "ab"),
        coefficients=CoefField.from_text([["-1 - x^2", "0.5"],
                                          ["0.3", "-2 + x"]]),
        domain=(-1.0, 1.0))
    a = assemble_operator(sys, build_grid(-1, 1, 30), force=True).matrix
    assert not is_irreducible(a)
    exact, err = eigvals_oracle(a)
    assert_perron_evidence(a, metzler_bound(a), exact, 1e-10, err)


def test_metzler_bound_step_budget():
    a = np.array([[-2.0, 0.1], [0.1, -0.5]])
    r = metzler_bound(a, max_iterations=1)
    assert (r.iterations, r.converged) == (1, False)
    assert r.bracket[0] <= perron_bound(a) <= r.bracket[1]


# --- stacked helpers: one matrix per grid node ----------------------------

@st.composite
def cooperative_stack(draw):
    """Stack of up to 8 cooperative matrices of order l <= 4, a split
    0 < l1 < l, and a resolvent parameter above every trailing block."""
    l = draw(st.integers(2, 4))
    l1 = draw(st.integers(1, l - 1))
    n = draw(st.integers(1, 8))
    off = draw(hnp.arrays(float, (n, l, l), elements=st.floats(0.0, 2.0)))
    diag = draw(hnp.arrays(float, (n, l), elements=st.floats(-3.0, 1.0)))
    stack = off.copy()
    stack[:, np.arange(l), np.arange(l)] = diag
    above = draw(st.floats(0.05, 5.0))
    gamma = max(metzler_bound(m[l1:, l1:]).value for m in stack) + above
    return stack, l1, gamma


@settings(max_examples=200, deadline=None)
@given(cooperative_stack())
def test_schur_reduce_stack_matches_schur_reduce(case):
    stack, l1, gamma = case
    reduced = schur_reduce_stack(stack, l1, gamma)
    assert reduced.shape == (len(stack), l1, l1)
    for m, r in zip(stack, reduced):
        one = schur_reduce(m, l1, gamma).entries
        scale = 1.0 + np.abs(one).max()
        np.testing.assert_allclose(r, one, rtol=0, atol=1e-13 * scale)
        # and the textbook formula, through an explicit inverse
        inv = np.linalg.inv(gamma * np.eye(len(m) - l1) - m[l1:, l1:])
        textbook = m[:l1, :l1] + m[:l1, l1:] @ inv @ m[l1:, :l1]
        np.testing.assert_allclose(r, textbook, rtol=0, atol=1e-9 * scale)


def test_nodal_bounds_are_the_per_matrix_bounds():
    rng = np.random.default_rng(5)
    stack = np.array([rand_cooperative(rng, 3) for _ in range(6)])
    assert list(nodal_bounds(stack)) == [metzler_bound(m).value
                                         for m in stack]
    assert list(nodal_bounds(stack[:, 3:, 3:])) == [-np.inf] * 6


def test_metzler_bound_flags_an_overflowing_solve():
    # the coupling is so weak that the first solve of hi I - A overflows
    a = np.array([[0.5, 1e-300], [1e-300, 0.0]])
    r = metzler_bound(a)   # RuntimeWarnings from nlds fail the suite
    assert not r.converged
    with pytest.raises(NonConvergenceError):
        nodal_bounds(np.stack([np.array([[1.0, 1.0], [1.0, 1.0]]), a]))


def strongly_connected(pattern) -> bool:
    n_comp, _ = connected_components(pattern, directed=True,
                                     connection="strong")
    return n_comp == 1


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda m: hnp.arrays(np.int8, st.tuples(st.integers(1, 5),
                                             st.just(m), st.just(m)),
                         elements=st.integers(0, 1))))
def test_is_irreducible_matches_strong_components(patterns):
    expected = [strongly_connected(p) for p in patterns]
    assert [is_irreducible(p) for p in patterns] == expected
    assert is_irreducible(patterns).tolist() == expected
    assert isinstance(is_irreducible(patterns[0]), bool)


WEAK = [[0.5, 1e-300], [1e-300, 0.0]]   # its first Noda solve overflows


def test_metzler_bound_reports_hi_at_the_rounding_floor():
    r = metzler_bound(np.array(WEAK))
    assert not r.converged
    assert r.value == 0.5
    assert r.bracket[0] <= 0.5 <= r.bracket[1]


def test_unconverged_bounds_raise():
    # s(C22) = 0.5 > gamma: the parent returned [[-1.667]] here
    c = [[0.0, 1.0, 1.0], [1.0, 0.5, 1e-300], [1.0, 1e-300, 0.0]]
    with pytest.raises(NonConvergenceError):
        schur_reduce(c, 1, 0.3)
    # above the bracket the resolvent domain is decided all the same
    assert schur_reduce(c, 1, 0.75).entries[0, 0] == pytest.approx(
        1 / 0.75 + 1 / 0.25, abs=1e-12)
    with pytest.raises(NonConvergenceError):
        large_shift_limit_check(WEAK, 1, [0.0])


def test_schur_reduce_stack_with_right_hand_sides():
    rng = np.random.default_rng(3)
    stack = np.array([rand_cooperative(rng, 4) for _ in range(5)])
    rhs = rng.uniform(0.0, 1.0, size=(5, 3, 2))
    lam = max(metzler_bound(m[1:, 1:]).value for m in stack) + 0.5
    F, X = schur_reduce_stack(stack, 1, lam, rhs=rhs)
    np.testing.assert_allclose(F[..., :1], schur_reduce_stack(stack, 1, lam),
                               rtol=1e-14)
    for m, f, x, b in zip(stack, F, X, rhs):
        inv = np.linalg.inv(lam * np.eye(3) - m[1:, 1:])
        np.testing.assert_allclose(x, inv @ np.hstack((m[1:, :1], b)),
                                   rtol=1e-12)
        np.testing.assert_allclose(f[:, 1:], m[:1, 1:] @ inv @ b,
                                   rtol=1e-12)


def test_metzler_bound_stop_scale_follows_positive_magnitude():
    # with c = 1 + max(0, -min diag A) alone, the bracket of 1e4 A
    # settled at a width of 4e-11 against tol c = 1e-12 and 100 steps ran
    a = np.random.default_rng(0).uniform(0.0, 1.0, size=(3, 3))
    s = max(np.linalg.eigvals(a).real)
    for scale in (1e4, 1e5):
        r = metzler_bound(scale * a)
        assert r.converged and r.iterations < 10
        assert r.value == pytest.approx(scale * s, rel=1e-13)


def test_nodal_bounds_name_the_failing_node():
    with pytest.raises(NonConvergenceError, match="at node 1"):
        nodal_bounds(np.stack([np.ones((2, 2)), WEAK]))


@st.composite
def metzler_stacks(draw):
    """Stacks (N, l, l) of Metzler matrices: sparse (often reducible)
    patterns, nodes repeated for ties, one power-of-ten scale."""
    l = draw(st.integers(0, 4))
    k = draw(st.integers(1, 8))
    off = draw(hnp.arrays(float, (k, l, l), elements=st.floats(0.0, 1.0)))
    pattern = draw(hnp.arrays(bool, (k, l, l)))
    diag = draw(hnp.arrays(float, (k, l), elements=st.floats(-1.0, 1.0)))
    nodes = draw(hnp.arrays(np.intp, st.integers(1, 64),
                            elements=st.integers(0, k - 1)))
    base = off * pattern
    base[:, np.arange(l), np.arange(l)] = diag
    return base[nodes] * 10.0 ** draw(st.integers(-8, 8))


@settings(max_examples=200, deadline=None)
@given(metzler_stacks())
def test_max_nodal_bound_is_the_largest_nodal_bound(stack):
    try:
        bounds = nodal_bounds(stack)
    except NonConvergenceError:
        assume(False)
    assert max_nodal_bound(stack) == float(np.max(bounds))


TOP = [[9.0, 1.0], [1.0, 9.0]]   # s = 10, Perron vector (1, 1)


def test_max_nodal_bound_prunes_only_below_the_maximum(metzler_bound_orders):
    # WEAK's own iteration fails, but its bracket is below 10
    assert max_nodal_bound(np.array([WEAK, TOP])) == 10.0
    assert metzler_bound_orders == [2]
    with pytest.raises(NonConvergenceError):
        nodal_bounds(np.array([WEAK, TOP]))
    # a node that can hold the maximum is refined, and its failure raises
    with pytest.raises(NonConvergenceError, match="at node 0"):
        max_nodal_bound(np.array([WEAK, [[0.2, 0.1], [0.1, 0.2]]]))


def test_max_nodal_bound_on_a_subnormal_coupling_warns_nothing():
    sub = np.array([[[0.5, 5e-324], [5e-324, 0.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError):
            max_nodal_bound(sub)
        assert max_nodal_bound(np.concatenate((sub, [TOP]))) == 10.0


def test_max_nodal_bound_refines_every_node_without_eig(
        monkeypatch, metzler_bound_orders):
    rng = np.random.default_rng(7)
    stack = np.array([rand_cooperative(rng, 3) for _ in range(6)])
    expected = float(np.max(nodal_bounds(stack)))

    def fail(a):
        raise np.linalg.LinAlgError("eig refused")
    monkeypatch.setattr(np.linalg, "eig", fail)
    del metzler_bound_orders[:]
    assert max_nodal_bound(stack) == expected
    assert metzler_bound_orders == [3] * 6
