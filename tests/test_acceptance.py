"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line each (printed in the pytest terminal summary).

Reference numbers come from independent oracles: closed forms,
hand-derived eigenvalues, adaptive-quadrature values, or the dense
eigensolver; quantities whose continuum value is shifted by the
discretization (the discrete maximum of a field peaking between nodes)
are asserted in their grid-consistent form, with the reading recorded
in the reviewer notes.
"""

import json
import math

import numpy as np
import pytest

from nlds.analysis import (generalized_eigen_residual,
                           integrability_diagnostic, perturbation_probe,
                           refinement_grids, spectral_field, sweep)
from nlds.assembly import assemble_operator, kernel_quadrature, sample_fields
from nlds.cli import run
from nlds.epidemic import (BoundaryCase, RootCase, VSIParams, H_mu, r0,
                           r0_large_d_limit, sample_params)
from nlds.grid import build_grid
from nlds.matspec import (is_irreducible, metzler_bound, perron_bound,
                          schur_reduce_stack)
from nlds.model import CoefField, DispersalSystem, KernelSpec, validate
from nlds.opspec import (Exists, compute_spectral_report, dense_spectrum,
                         spectral_bound)
from nlds.reduce import classify_threshold, CaseA, CaseB, perron_weight, \
    weights_for_system
from oracles import growth_rate, large_shift_bounds

GAUSS = "exp(-(x-y)^2)"


def make_system(coeffs, d, l1, kernels):
    return DispersalSystem(
        l=len(coeffs), l1=l1, d=tuple(float(v) for v in d),
        kernels=tuple(KernelSpec.from_text(k) for k in kernels),
        coefficients=CoefField.from_text(coeffs), domain=(-1.0, 1.0))


CONST_SYS = make_system([["-1", "1"], ["1", "-1"]], (1.0, 1.0), 2,
                        [GAUSS, GAUSS])
QUAD_SYS = make_system([["-x^2", "1"], ["1", "-x^2"]], (1.0, 1.0), 2,
                       [GAUSS, GAUSS])
CASE_A_SYS = make_system([["-1 - 0.2*x^2", "1"], ["1", "-1"]], (1.0, 0.0), 1,
                         [GAUSS])
CASE_B_SYS = make_system([["-2", "0.1"], ["0.1", "-abs(x)^0.5"]], (1.0, 0.0),
                         1, [GAUSS])

# closed form for the Case-A fixed point with uniform weight 1/2:
# gamma^2 + (31/15) gamma + 1/15 = 0, rightmost root
GAMMA_STAR_EXACT = (-31.0 / 15.0 + math.sqrt((31.0 / 15.0) ** 2 - 4.0 / 15.0)) / 2.0


@pytest.fixture(scope="module")
def grid200():
    return build_grid(-1, 1, 200)


@pytest.fixture(scope="module")
def grid400():
    return build_grid(-1, 1, 400)


@pytest.fixture(scope="module")
def case_a_reports(grid200):
    """Certified spectral reports for the Case-A system along the
    diffusing-rate schedule; shared by several criteria."""
    fields = sample_fields(CASE_A_SYS, grid200)
    out = {}
    for t in (1.0, 10.0, 1e4):
        scaled = CASE_A_SYS.with_d((t, 0.0))
        P = assemble_operator(scaled, grid200, force=True, fields=fields)
        out[t] = compute_spectral_report(P)
    return out


def test_01_constant_invariance(criterion, grid200):
    with criterion(1, "constant coupling: |s(P(d))| <= 1e-8 for d in "
                      "{0, 0.1, 1, 10, 100} at n = 200"):
        fields = sample_fields(CONST_SYS, grid200)
        for d in (0.0, 0.1, 1.0, 10.0, 100.0):
            P = assemble_operator(CONST_SYS.with_d((d, d)), grid200,
                                  force=True, fields=fields)
            s = spectral_bound(P).value
            assert abs(s) <= 1e-8, f"d={d}: s={s}"


def test_02_small_diffusion_limit(criterion, grid400):
    with criterion(2, "small diffusion: |s - kappa| <= 5e-3 at t = 1e-3 "
                      "(n = 400), deviation monotone over the schedule"):
        table = sweep(QUAD_SYS, sample_fields(QUAD_SYS, grid400),
                      [1.0, 1e-1, 1e-2, 1e-3],
                      mode="small-d")
        devs = [r.deviation for r in table.rows]
        assert devs[-1] <= 5e-3, f"final deviation {devs[-1]}"
        assert all(b < a for a, b in zip(devs, devs[1:])), devs
        assert all(r.converged for r in table.rows)


def test_03_large_diffusion_nondegenerate(criterion, grid400):
    with criterion(3, "large diffusion, all species: |s - 2/3| <= 5e-3 "
                      "at t = 1e3"):
        P = assemble_operator(QUAD_SYS.with_d((1e3, 1e3)), grid400,
                              force=True)
        r = spectral_bound(P)
        assert r.converged
        assert abs(r.value - 2.0 / 3.0) <= 5e-3, r.value


def test_04_threshold_case_a(criterion, grid200, grid400, case_a_reports):
    with criterion(4, "threshold case A: fixed point stable across a grid "
                      "doubling (<= 1e-6) and |s(P(1e4,0)) - gamma*| <= 1e-2"):
        f200 = sample_fields(CASE_A_SYS, grid200)
        w200 = weights_for_system(CASE_A_SYS, f200)
        out200 = classify_threshold(CASE_A_SYS, f200, w200)
        assert isinstance(out200, CaseA)
        f400 = sample_fields(CASE_A_SYS, grid400)
        w400 = weights_for_system(CASE_A_SYS, f400)
        out400 = classify_threshold(CASE_A_SYS, f400, w400)
        assert isinstance(out400, CaseA)
        assert abs(out200.gamma_star - out400.gamma_star) <= 1e-6
        assert out200.gamma_star == pytest.approx(GAMMA_STAR_EXACT, abs=1e-5)
        rep = case_a_reports[1e4]
        assert rep.converged
        assert abs(rep.s - out200.gamma_star) <= 1e-2


def test_05_threshold_case_b(criterion, grid200):
    with criterion(5, "threshold case B: ladder limit near -1.98; margin "
                      "s - eta22 in (0, 0.05] and strictly decreasing over "
                      "t in {1e2, 1e3, 1e4}"):
        fields = sample_fields(CASE_B_SYS, grid200)
        weights = weights_for_system(CASE_B_SYS, fields)
        outcome = classify_threshold(CASE_B_SYS, fields, weights)
        assert isinstance(outcome, CaseB)
        # wide-gamma rung carries the continuum limit -2 + 0.01*(1/2)*4
        assert outcome.ladder[0][1] == pytest.approx(-1.98, abs=0.05)
        eta22 = outcome.eta22
        assert eta22 == pytest.approx(-math.sqrt(0.005), abs=1e-12)
        margins = []
        for t in (1e2, 1e3, 1e4):
            scaled = CASE_B_SYS.with_d((t, 0.0))
            P = assemble_operator(scaled, grid200, force=True, fields=fields)
            r = spectral_bound(P)
            assert r.converged
            margins.append(r.value - eta22)
        for m in margins:
            assert 0.0 < m <= 0.05, margins
        assert margins[0] > margins[1] > margins[2], margins


def _random_valid_system(seed: int):
    rng = np.random.default_rng(1000 + seed)
    l = int(rng.integers(1, 4))
    n = int(rng.integers(40, 300 // l + 1))
    kernels_menu = [GAUSS, "exp(-2*(x-y)^2)", "0.5 + 0.5*exp(-(x-y)^2)",
                    "exp(-(x-y-0.1)^2)"]
    coeffs = []
    for i in range(l):
        row = []
        for j in range(l):
            if i == j:
                row.append(f"-{rng.uniform(0.5, 2.0):.4f} "
                           f"- {rng.uniform(0.0, 0.5):.4f}*x^2")
            else:
                row.append(f"{rng.uniform(0.1, 1.0):.4f}")
        coeffs.append(row)
    degenerate = l > 1 and seed % 3 == 0
    if degenerate:
        l1 = l - 1
        d = [float(rng.uniform(0.05, 2.0)) for _ in range(l1)] + [0.0]
    else:
        l1 = l
        d = [float(rng.uniform(0.05, 2.0)) for _ in range(l)]
    kernels = [kernels_menu[int(rng.integers(0, len(kernels_menu)))]
               for _ in range(l1)]
    return make_system(coeffs, d, l1, kernels), n


def test_06_oracle_equivalence(criterion):
    with criterion(6, "20 seeded systems (l*n <= 300): power-iteration bound "
                      "matches the dense eigensolver to 1e-8"):
        for seed in range(20):
            system, n = _random_valid_system(seed)
            g = build_grid(-1, 1, n)
            fields = sample_fields(system, g)
            assert validate(system, fields).passed, f"seed {seed} invalid"
            P = assemble_operator(system, g, fields=fields)
            r = spectral_bound(P)
            assert r.converged
            top = dense_spectrum(P)[0].real
            assert abs(r.value - top) <= 1e-8, f"seed {seed}: {r.value} vs {top}"


def test_07_growth_rate_consistency(criterion, grid200, case_a_reports):
    with criterion(7, "time-stepping growth rate within 1e-3 of s on "
                      "certified runs of the criterion 1-4 systems"):
        runs = [
            (CONST_SYS.with_d((1.0, 1.0)), None),
            (QUAD_SYS.with_d((1.0, 1.0)), None),
            (QUAD_SYS.with_d((10.0, 10.0)), None),
            (CASE_A_SYS.with_d((10.0, 0.0)), case_a_reports[10.0]),
        ]
        for system, rep in runs:
            P = assemble_operator(system, grid200, force=True)
            if rep is None:
                rep = compute_spectral_report(P)
            assert isinstance(rep.certificate, Exists)
            rate = growth_rate(P, horizon=200.0 / rep.gap)
            assert abs(rate - rep.s) <= 1e-3, (system.d, rate, rep.s)


def test_08_dispersal_weights(criterion, grid200):
    with criterion(8, "dispersal profiles at n = 200: residual and "
                      "|lambda - 1| <= 1e-10; symmetric kernels uniform "
                      "to 1e-12"):
        def weight(text):   # raises unless |lambda - 1| <= 1e-10
            raw = KernelSpec.from_text(text).sample(grid200)
            K, chi = kernel_quadrature(raw, grid200)
            return K, chi, perron_weight(K, chi, grid200)

        for text in (GAUSS, "exp(-(x-y-0.2)^2)", "1 + x*y"):
            K, chi, p = weight(text)
            assert np.max(np.abs(K @ p - chi * p)) <= 1e-10, text
        for text in (GAUSS, "1 + x*y"):
            p = weight(text)[2]
            assert np.max(np.abs(p - 0.5)) <= 1e-12, text


def test_09_reduced_problem_residual(criterion, grid200, case_a_reports):
    with criterion(9, "certified partially degenerate runs solve the "
                      "reduced generalized eigenproblem to 1e-6"):
        checked = 0
        for t, rep in sorted(case_a_reports.items()):
            if not isinstance(rep.certificate, Exists):
                continue
            resid = generalized_eigen_residual(
                CASE_A_SYS.with_d((t, 0.0)),
                sample_fields(CASE_A_SYS, grid200), rep.s)
            assert abs(resid) <= 1e-6, (t, resid)
            checked += 1
        assert checked >= 3


def test_10_spectral_field_laws(criterion, grid200):
    with criterion(10, "nodewise h <= H + 1e-10 and |max h - max H| <= 1e-9 "
                       "on the threshold systems"):
        for system in (CASE_A_SYS.with_d((10.0, 0.0)),
                       CASE_B_SYS.with_d((10.0, 0.0))):
            f = spectral_field(system, sample_fields(system, grid200))
            assert np.all(f.h <= f.H + 1e-10)
            assert abs(np.max(f.h) - np.max(f.H)) <= 1e-9


def test_11_integrability_diagnostic(criterion):
    with criterion(11, "integrability: quadratic peak holds with local "
                       "order in [1.8, 2.2]; square-root peak fails with "
                       "the quadrature sum within 5% of 4 at n = 400"):
        rep = integrability_diagnostic(
            lambda g: 1 - g.points ** 2,
            refinement_grids(-1, 1, [51, 101, 201, 401]), region=(-1.0, 1.0))
        assert rep.verdict == "holds"
        assert 1.8 <= rep.fitted_order <= 2.2
        rep = integrability_diagnostic(
            lambda g: 1 - np.sqrt(np.abs(g.points)),
            refinement_grids(-1, 1, [50, 100, 200, 400]), region=(-1.0, 1.0))
        assert rep.verdict == "fails"
        n_f, I_f = rep.integrals[-1]
        assert n_f == 400
        assert abs(I_f - 4.0) <= 0.05 * 4.0, I_f


def test_12_reproduction_ratio(criterion, grid200):
    with criterion(12, "constant rates give R0 = 1.5 (sign equation to "
                       "1e-8, root case); heavy clearance collapses to the "
                       "direct-route maximum 0.5"):
        base = VSIParams.from_text(GAUSS, 1.0, "1", "1", "1", "0.5", "1")
        for d in (0.0, 1.0, 100.0):
            params = VSIParams.from_text(GAUSS, d, "1", "1", "1", "0.5", "1")
            res = r0(sample_params(params, grid200))
            assert res.converged
            assert abs(res.value - 1.5) <= 1e-6, (d, res.value)
            assert abs(H_mu(sample_params(params, grid200),
                            res.value)) <= 1e-8
        sv = sample_params(base, grid200)
        limit = r0_large_d_limit(
            sv, perron_weight(sv.transfer, sv.chi, grid200))
        assert isinstance(limit, RootCase)
        assert abs(limit.tilde_r0 - 1.5) <= 1e-8
        heavy = VSIParams.from_text(GAUSS, 1e4, "1", "100", "1", "0.5", "1")
        sv = sample_params(heavy, grid200)
        limit = r0_large_d_limit(
            sv, perron_weight(sv.transfer, sv.chi, grid200))
        assert isinstance(limit, BoundaryCase)
        assert limit.hat_r0 == 0.5
        values = []
        for d in (1.0, 10.0, 1e3, 1e4):
            p = VSIParams.from_text(GAUSS, d, "1", "100", "1", "0.5", "1")
            values.append(r0(sample_params(p, grid200)).value)
        # constant coefficients collapse R0(d) to the closed form
        # beta_d/b + beta_i r/(b m) = 0.51 for every d
        for v in values:
            assert abs(v - 0.51) <= 1e-9, values
        # distance to the classified limit is exactly 0.01; the 1e-12
        # term only absorbs the IEEE representation of that distance
        assert abs(values[-1] - 0.5) <= 1e-2 + 1e-12


def test_13_continuity_probe(criterion):
    with criterion(13, "perturbation response: per-draw comparison bound "
                       "holds, medians shrink with delta, diagonal shift "
                       "reproduced to 1e-12"):
        g = build_grid(-1, 1, 60)
        probe = perturbation_probe(CASE_A_SYS, sample_fields(CASE_A_SYS, g))
        medians = []
        for delta in (1e-2, 1e-3, 1e-4, 1e-5):
            draws = []
            for seed in range(3):
                pr = probe(delta, seed=seed)
                assert pr.ds_abs <= pr.sandwich_bound + 1e-12
                draws.append(pr.ds_abs)
            medians.append(sorted(draws)[1])
        assert all(b < a for a, b in zip(medians, medians[1:])), medians
        pr = probe(0.0, seed=0, diagonal_shift=1.0 / 3.0)
        assert abs(pr.ds - 1.0 / 3.0) <= 1e-12


def _random_irreducible_coop(rng):
    l = int(rng.integers(2, 7))
    a = rng.uniform(0.0, 1.0, size=(l, l))
    np.fill_diagonal(a, rng.uniform(-1.0, 1.0, size=l))
    for i in range(l):
        a[i, (i + 1) % l] += 0.05
    return a, l


def test_14_matrix_lemma_suite(criterion):
    with criterion(14, "block-matrix laws on 50 seeded irreducible "
                       "cooperative matrices (order <= 6)"):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            a, l = _random_irreducible_coop(rng)
            l1 = int(rng.integers(1, l))
            assert is_irreducible(a)
            s_full = perron_bound(a)
            s22 = metzler_bound(a[l1:, l1:]).value
            assert s_full > s22                              # (i) strict
            fp = perron_bound(schur_reduce_stack(a, l1, s_full))
            assert abs(fp - s_full) <= 1e-10                 # (ii) identity
            vals = large_shift_bounds(a, l1, [1.0, 10.0, 100.0, 1000.0])
            assert all(b < a2 for a2, b in zip(vals, vals[1:]))
            assert abs(vals[-1] - s22) <= 1e-2               # (iii) limit
            gamma = s22 + float(rng.uniform(0.05, 2.0))
            assert is_irreducible(schur_reduce_stack(a, l1, gamma))  # (iv)


DET_CONFIGS = {
    "item1_spectrum": ("spectrum", {
        "domain": {"a": -1.0, "b": 1.0}, "grid": {"n": 60},
        "system": {"l": 2, "l1": 2, "d": [1.0, 1.0],
                   "kernels": [GAUSS, GAUSS],
                   "coefficients": [["-1", "1"], ["1", "-1"]]},
        "seed": 0}),
    "item2_sweep": ("sweep", {
        "domain": {"a": -1.0, "b": 1.0}, "grid": {"n": 60},
        "system": {"l": 2, "l1": 2, "d": [1.0, 1.0],
                   "kernels": [GAUSS, GAUSS],
                   "coefficients": [["-x^2", "1"], ["1", "-x^2"]]},
        "sweep": {"mode": "small-d", "t_schedule": [1.0, 0.1]}, "seed": 0}),
    "item3_sweep": ("sweep", {
        "domain": {"a": -1.0, "b": 1.0}, "grid": {"n": 60},
        "system": {"l": 2, "l1": 2, "d": [1.0, 1.0],
                   "kernels": [GAUSS, GAUSS],
                   "coefficients": [["-x^2", "1"], ["1", "-x^2"]]},
        "sweep": {"mode": "large-d-nondegen", "t_schedule": [10.0, 100.0]},
        "seed": 0}),
    "item4_sweep": ("sweep", {
        "domain": {"a": -1.0, "b": 1.0}, "grid": {"n": 60},
        "system": {"l": 2, "l1": 1, "d": [1.0, 0.0], "kernels": [GAUSS],
                   "coefficients": [["-1 - 0.2*x^2", "1"], ["1", "-1"]]},
        "sweep": {"mode": "large-d-degen", "t_schedule": [1.0, 10.0]},
        "seed": 0}),
    "item5_sweep": ("sweep", {
        "domain": {"a": -1.0, "b": 1.0}, "grid": {"n": 60},
        "system": {"l": 2, "l1": 1, "d": [1.0, 0.0], "kernels": [GAUSS],
                   "coefficients": [["-2", "0.1"], ["0.1", "-abs(x)^0.5"]]},
        "sweep": {"mode": "large-d-degen", "t_schedule": [10.0, 100.0]},
        "seed": 0}),
}


def test_15_determinism(criterion, tmp_path):
    # byte-identical for a fixed BLAS thread count only: another count
    # can move the last digit of a solve
    with criterion(15, "repeated seeded runs produce byte-identical "
                       "reports and CSV tables (timings excluded)"):
        for name, (command, cfg) in DET_CONFIGS.items():
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            outputs = []
            for tag in ("first", "second"):
                out = tmp_path / f"{name}_{tag}"
                code = run([command, "--config", str(cfg_path),
                            "--out", str(out), "--quiet", "--seed", "0"])
                assert code == 0, (name, tag, code)
                report_lines = [
                    line for line in
                    (out / "report.json").read_text().splitlines()
                    if "wall_seconds" not in line
                ]
                csvs = {p.name: p.read_bytes()
                        for p in sorted(out.glob("*.csv"))}
                outputs.append((report_lines, csvs))
            assert outputs[0] == outputs[1], f"{name} not deterministic"
