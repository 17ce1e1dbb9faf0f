import numpy as np
import pytest

from nlds.grid import build_grid
from nlds.model import (CoefField, DispersalSystem, KernelSpec, Mode,
                        validate)

GAUSS = "exp(-(x-y)^2)"


def make_system(coeffs, d, l1=None, kernels=None, domain=(-1.0, 1.0)):
    l = len(coeffs)
    if l1 is None:
        l1 = sum(1 for v in d if v > 0) or 1
    if kernels is None:
        kernels = [GAUSS] * l1
    return DispersalSystem(
        l=l, l1=l1, d=tuple(float(v) for v in d),
        kernels=tuple(KernelSpec.from_text(k) for k in kernels),
        coefficients=CoefField.from_text(coeffs), domain=domain)


def test_partially_degenerate_all_pass():
    sys = make_system([["-1", "1"], ["1", "-1"]], d=(1.0, 0.0), l1=1)
    report = validate(sys, build_grid(-1, 1, 40))
    assert report.passed
    assert report.mode is Mode.PARTIALLY_DEGENERATE


def test_reducible_pattern_fails_everywhere():
    sys = make_system([["1", "0"], ["0", "1"]], d=(1.0, 1.0), l1=2)
    g = build_grid(-1, 1, 40)
    report = validate(sys, g)
    bad = [v for v in report.violations if v.check == "irreducibility"]
    assert len(bad) == g.n


def test_reducible_nodes_are_listed_exactly():
    # m_12 = |x| + x vanishes for x <= 0, where the pattern is reducible
    sys = make_system([["-1", "abs(x)+x"], ["1", "-1"]], d=(1.0, 0.0), l1=1)
    g = build_grid(-1, 1, 30)
    report = validate(sys, g)
    bad = [v.where for v in report.violations if v.check == "irreducibility"]
    assert bad == [f"x={x:.6g}" for x in g.points if x < 0]


def test_kernel_sign_violation():
    sys = make_system([["-1", "1"], ["1", "-1"]], d=(1.0, 0.0), l1=1,
                      kernels=["x*y"])
    report = validate(sys, build_grid(-1, 1, 8))
    checks = {v.check for v in report.violations}
    assert "kernel-nonnegativity" in checks


def test_cooperativity_violation_locates_entry():
    sys = make_system([["-1", "x"], ["1", "-1"]], d=(1.0, 0.0), l1=1)
    report = validate(sys, build_grid(-1, 1, 10))
    coop = [v for v in report.violations if v.check == "cooperativity"]
    assert coop and all("(1,2)" in v.where for v in coop)
    # every negative node is reported, not only the first
    assert len(coop) == 5


def test_diffusion_pattern_violation():
    sys = make_system([["-1", "1"], ["1", "-1"]], d=(0.0, 1.0), l1=1)
    report = validate(sys, build_grid(-1, 1, 8))
    assert any(v.check == "diffusion-pattern" for v in report.violations)


def test_zero_diffusion_accepted_with_note():
    sys = make_system([["-1", "1"], ["1", "-1"]], d=(0.0, 0.0), l1=2,
                      kernels=[GAUSS, GAUSS])
    report = validate(sys, build_grid(-1, 1, 8))
    assert report.passed
    assert any("zero" in n for n in report.notes)


def test_mode_invariant_under_positive_scaling():
    sys = make_system([["-1", "1"], ["1", "-1"]], d=(0.5, 2.0), l1=2,
                      kernels=[GAUSS, GAUSS])
    g = build_grid(-1, 1, 16)
    r1 = validate(sys, g)
    r2 = validate(sys.with_d((5.0, 20.0)), g)
    assert r1.passed and r2.passed
    assert r1.mode is r2.mode is Mode.NON_DEGENERATE


def test_violation_persists_under_refinement():
    sys = make_system([["-1", "max(x, 0)"], ["1", "-1"]], d=(1.0, 0.0), l1=1)
    # entry (1,2) vanishes for x <= 0: reducible on half the nodes
    for n in (16, 32, 64):
        report = validate(sys, build_grid(-1, 1, n))
        bad = [v for v in report.violations if v.check == "irreducibility"]
        assert len(bad) == n // 2


def test_kernel_diagonal_check():
    sys = make_system([["-1", "1"], ["1", "-1"]], d=(1.0, 0.0), l1=1,
                      kernels=["(x-y)^2"])
    report = validate(sys, build_grid(-1, 1, 8))
    assert any(v.check == "kernel-diagonal" for v in report.violations)


def test_sample_shapes():
    sys = make_system([["-x^2", "1"], ["1", "-x^2"]], d=(1.0, 1.0), l1=2,
                      kernels=[GAUSS, GAUSS])
    g = build_grid(-1, 1, 12)
    M = sys.coefficients.sample(g)
    assert M.shape == (12, 2, 2)
    assert np.allclose(M[:, 0, 0], -g.points ** 2)
    K = sys.kernels[0].sample(g)
    assert K.shape == (12, 12)
    assert K[3, 7] == pytest.approx(np.exp(-(g.points[3] - g.points[7]) ** 2))
