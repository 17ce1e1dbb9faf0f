import dataclasses

import numpy as np
import pytest

import nlds.matspec
from nlds.analysis import (SweepRow, assemble_reduced_operator,
                           generalized_eigen_residual,
                           integrability_diagnostic, perturbation_probe,
                           refinement_grids, spectral_field, sweep)
from nlds.assembly import assemble_operator, pointwise_A, sample_fields
from nlds.cli import write_csv
from nlds.errors import (InvalidParametersError, NonConvergenceError,
                         ResolventDomainError)
from nlds.grid import build_grid
from nlds.model import CoefField, DispersalSystem, KernelSpec
from nlds.matspec import nodal_bounds
from nlds.opspec import (COARSE_N, compute_spectral_report, essential_bound,
                         spectral_bound)

GAUSS = "exp(-(x-y)^2)"


def make_system(coeffs, d, l1, kernels):
    return DispersalSystem(
        l=len(coeffs), l1=l1, d=tuple(float(v) for v in d),
        kernels=tuple(KernelSpec.from_text(k) for k in kernels),
        coefficients=CoefField.from_text(coeffs), domain=(-1.0, 1.0))


CASE_A = make_system([["-1 - 0.2*x^2", "1"], ["1", "-1"]], (1.0, 0.0), 1,
                     [GAUSS])
CASE_B = make_system([["-2", "0.1"], ["0.1", "-abs(x)^0.5"]], (1.0, 0.0), 1,
                     [GAUSS])


# --- spectral field -------------------------------------------------------

@pytest.mark.parametrize("system", [CASE_A, CASE_B])
def test_field_laws(system):
    g = build_grid(-1, 1, 60)
    f = spectral_field(system, sample_fields(system, g))
    assert np.all(f.h <= f.H + 1e-10)
    assert abs(np.max(f.h) - f.eta) <= 1e-9
    assert abs(np.max(f.H) - f.eta) == 0.0


def test_field_reduces_to_H_without_static_block():
    sys = make_system([["1 - x^2"]], (0.5,), 1, [GAUSS])
    g = build_grid(-1, 1, 40)
    f = spectral_field(sys, sample_fields(sys, g))
    assert np.allclose(f.h, f.H, atol=0)


# --- integrability diagnostic ---------------------------------------------

def test_integrability_quadratic_field_holds():
    grids = refinement_grids(-1, 1, [51, 101, 201, 401])
    rep = integrability_diagnostic(lambda g: 1 - g.points ** 2, grids,
                                   region=(-1.0, 1.0))
    assert rep.verdict == "holds"
    assert 1.8 <= rep.fitted_order <= 2.2
    assert all(r > 1.05 for r in rep.ratios)


def test_integrability_square_root_field_fails():
    grids = refinement_grids(-1, 1, [50, 100, 200, 400])
    rep = integrability_diagnostic(
        lambda g: 1 - np.sqrt(np.abs(g.points)), grids, region=(-1.0, 1.0))
    assert rep.verdict == "fails"
    assert rep.fitted_order < 1.0
    # the reciprocal-distance integral is finite: analytic value 4
    assert rep.integrals[-1][1] == pytest.approx(4.0, rel=0.05)


def test_integrability_constant_field_degenerate():
    grids = refinement_grids(-1, 1, [50, 100, 200])
    rep = integrability_diagnostic(lambda g: np.ones(g.n), grids,
                                   region=(-1.0, 1.0))
    assert rep.verdict == "degenerate"


def test_integrability_on_system_field():
    grids = refinement_grids(-1, 1, [50, 100, 200])
    rep = integrability_diagnostic(
        lambda g: spectral_field(CASE_A, sample_fields(CASE_A, g)).H, grids,
        region=(-1.0, 1.0))
    assert rep.verdict in ("holds", "inconclusive", "degenerate")


# --- generalized eigenproblem ----------------------------------------------

def test_residual_zero_at_certified_value():
    g = build_grid(-1, 1, 80)
    P = assemble_operator(CASE_A, g)
    rep = compute_spectral_report(P)
    resid = generalized_eigen_residual(CASE_A, sample_fields(CASE_A, g),
                                       rep.s)
    assert abs(resid) <= 1e-9


def test_residual_full_diffusion_limit():
    # without a static block the reduced operator is the full operator,
    # independent of the parameter
    sys = make_system([["-x^2", "1"], ["1", "-x^2"]], (1.0, 1.0), 2,
                      [GAUSS, GAUSS])
    g = build_grid(-1, 1, 30)
    s = spectral_bound(assemble_operator(sys, g)).value
    for lam in (s, s + 0.5, s - 0.3):
        resid = generalized_eigen_residual(sys, sample_fields(sys, g), lam)
        assert resid == pytest.approx(s - lam, abs=1e-9)


def test_reduced_operator_without_static_block_is_the_operator():
    # one block builder: with l1 = l the reduced field F_lam is A(x) and
    # the blocks are those of the assembled operator, bit for bit
    sys = make_system([["-x^2", "1"], ["0.5", "-1 + 0.3*x"]], (1.0, 0.5), 2,
                      [GAUSS, "exp(-2*(x-y)^2)"])
    g = build_grid(-1, 1, 30)
    T = assemble_reduced_operator(sys, sample_fields(sys, g), 0.7)
    assert np.array_equal(T.matrix, assemble_operator(sys, g).matrix)


def test_residual_solve_that_does_not_converge_raises():
    g = build_grid(-1, 1, 4 * COARSE_N)
    fields = sample_fields(CASE_B, g)
    s = compute_spectral_report(assemble_operator(CASE_B, g)).s
    T = assemble_reduced_operator(CASE_B, fields, s)
    assert spectral_bound(T, tol=1e-10).iterations > 1
    with pytest.raises(NonConvergenceError, match="did not converge"):
        generalized_eigen_residual(CASE_B, fields, s, max_iterations=1)


def test_residual_domain_error():
    g = build_grid(-1, 1, 20)
    with pytest.raises(ResolventDomainError):
        generalized_eigen_residual(CASE_A, sample_fields(CASE_A, g), -2.0)


# --- sweeps -----------------------------------------------------------------

def test_small_d_sweep_monotone_deviation():
    sys = make_system([["-x^2", "1"], ["1", "-x^2"]], (1.0, 1.0), 2,
                      [GAUSS, GAUSS])
    g = build_grid(-1, 1, 60)
    table = sweep(sys, sample_fields(sys, g), [1.0, 0.1, 0.01],
                  mode="small-d")
    assert table.reference == "kappa"
    devs = [r.deviation for r in table.rows]
    assert devs[0] > devs[1] > devs[2]
    assert all(r.converged for r in table.rows)


def test_large_d_nondegen_sweep():
    sys = make_system([["-x^2", "1"], ["1", "-x^2"]], (1.0, 1.0), 2,
                      [GAUSS, GAUSS])
    g = build_grid(-1, 1, 60)
    fields = sample_fields(sys, g)
    table = sweep(sys, fields, [10.0, 100.0], mode="large-d-nondegen")
    assert table.reference == "kappa_tilde"
    assert table.rows[-1].deviation < table.rows[0].deviation
    assert table.rows[0].reference == pytest.approx(2 / 3, abs=1e-3)


def test_large_d_degen_sweep_references_fixed_point():
    g = build_grid(-1, 1, 60)
    fields = sample_fields(CASE_A, g)
    table = sweep(CASE_A, fields, [10.0, 100.0], mode="large-d-degen")
    assert table.reference == "gamma_star"
    assert table.rows[-1].deviation < 1e-2
    # only the diffusing entries scale: the system stays degenerate
    assert all(r.gap > 0 for r in table.rows)


@pytest.mark.parametrize("system, mode", [(CASE_B, "large-d-degen"),
                                          (CASE_A, "small-d")])
def test_sweep_rows_carry_the_essential_bound_at_their_diffusion(system,
                                                                 mode):
    g = build_grid(-1, 1, 24)
    fields = sample_fields(system, g)
    ts = [0.1, 1.0, 10.0]
    table = sweep(system, fields, ts, mode=mode)
    for t, row in zip(ts, table.rows):
        scale = np.where(np.arange(system.l) < system.l1, t,
                         t if mode == "small-d" else 1.0)
        d = tuple(np.asarray(system.d) * scale)
        A = pointwise_A(system.with_d(d), fields)
        assert row.s_e == essential_bound(A)


def test_sweep_mode_validation():
    g = build_grid(-1, 1, 20)
    fields = sample_fields(CASE_A, g)
    with pytest.raises(InvalidParametersError):
        sweep(CASE_A, fields, [1.0], mode="large-d-nondegen")
    with pytest.raises(InvalidParametersError):
        sweep(CASE_A, fields, [1.0], mode="sideways")
    with pytest.raises(InvalidParametersError):
        sweep(CASE_A, fields, [0.0], mode="small-d")


def test_sweep_csv_format(tmp_path):
    g = build_grid(-1, 1, 30)
    fields = sample_fields(CASE_A, g)
    table = sweep(CASE_A, fields, [1.0, 10.0], mode="large-d-degen")
    path = tmp_path / "sweep.csv"
    write_csv(path, [f.name for f in dataclasses.fields(SweepRow)],
              map(dataclasses.astuple, table.rows))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,s,s_e,gap,reference,deviation,converged"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    assert first[6] in ("true", "false")
    # 17 significant digits survive a parse round trip
    assert float(first[1]) == table.rows[0].s


# --- perturbation probe ------------------------------------------------------

def test_probe_zero_delta():
    g = build_grid(-1, 1, 30)
    pr = perturbation_probe(CASE_A, sample_fields(CASE_A, g))(0.0, seed=0)
    assert pr.ds == 0.0
    assert pr.ds_abs == 0.0


def test_probe_diagonal_shift_exact():
    g = build_grid(-1, 1, 30)
    fields = sample_fields(CASE_A, g)
    pr = perturbation_probe(CASE_A, fields)(0.0, seed=0, diagonal_shift=0.37)
    assert pr.ds == pytest.approx(0.37, abs=1e-12)


def test_probe_sandwich_bound_holds():
    g = build_grid(-1, 1, 30)
    fields = sample_fields(CASE_A, g)
    for seed in range(4):
        pr = perturbation_probe(CASE_A, fields)(1e-3, seed=seed)
        assert pr.ds_abs <= pr.sandwich_bound + 1e-12
        assert pr.dm_inf <= 1e-3
        assert pr.dk_inf <= 1e-3


def test_probe_nonnegative_perturbations_never_decrease_bound():
    # kernels and off-diagonal entries only gain mass; shrink the
    # diagonal noise to zero by reading the seeded draw back out
    g = build_grid(-1, 1, 24)
    base = assemble_operator(CASE_A, g).matrix
    s0 = spectral_bound(base).value
    rng = np.random.default_rng(42)
    bump = rng.uniform(0, 1e-3, size=base.shape)
    off = bump.copy()
    np.fill_diagonal(off, 0.0)
    s1 = spectral_bound(base + off).value
    assert s1 >= s0 - 1e-12


def test_probe_trend_with_delta():
    g = build_grid(-1, 1, 24)
    fields = sample_fields(CASE_A, g)
    medians = []
    for delta in (1e-2, 1e-3, 1e-4):
        draws = [perturbation_probe(CASE_A, fields)(delta, seed=s).ds_abs
                 for s in range(3)]
        medians.append(sorted(draws)[1])
    assert medians[0] > medians[1] > medians[2]


def test_probe_eliminates_the_static_species(monkeypatch):
    g = build_grid(-1, 1, 40)
    fields = sample_fields(CASE_A, g)
    expected = perturbation_probe(CASE_A, fields)(1e-3, seed=3)

    def refuse(A):
        raise AssertionError(f"dense LU of order {A.shape[0]}")

    monkeypatch.setattr(nlds.matspec, "_dense_solver", refuse)
    pr = perturbation_probe(CASE_A, fields)(1e-3, seed=3)
    assert pr.ds == pytest.approx(expected.ds, abs=1e-12)
    assert pr.ds_abs <= pr.sandwich_bound + 1e-12
    shifted = perturbation_probe(CASE_A, fields)(0.0, seed=0,
                                                 diagonal_shift=0.37)
    assert shifted.ds == pytest.approx(0.37, abs=1e-12)


def test_essential_bound_iterates_only_near_the_maximum(
        metzler_bound_orders):
    # H peaks at x = 0, between the two middle nodes of the grid
    A = pointwise_A(CASE_A, sample_fields(CASE_A, build_grid(-1, 1, 512)))
    expected = float(np.max(nodal_bounds(A)))
    del metzler_bound_orders[:]
    assert essential_bound(A) == expected
    assert 0 < len(metzler_bound_orders) <= 4
