import numpy as np
import pytest

import crackst as cs
from crackst import solver, tips, validation
from crackst.kernels import DIAG_EPS_FACTOR


@pytest.fixture(scope="module")
def resolved(reference_setup):
    return cs.solve_tip_resolved(reference_setup, 24)


def _shear(field, d):
    return 2.0 * field.eval("q0", d).imag


def test_tip_fits_do_not_depend_on_the_basis_size(reference_setup, resolved):
    """The shear's log coefficient and the near-tip stresses are properties
    of the solution, not of the Legendre degree or the number of zone terms."""
    base, _ = resolved
    d = np.array([1e-2, 2e-3, 1e-4, 1e-5])
    ref_fit = cs.tip_exponents(base, reference_setup, tip=0)
    for n, terms in ((32, tips.TIP_ZONE_TERMS), (24, tips.TIP_ZONE_TERMS + 8)):
        other, _ = cs.solve_tip_resolved(reference_setup, n, zone_terms=terms)
        fit = cs.tip_exponents(other, reference_setup, tip=0)
        assert fit["tau_log_coefficient"] == pytest.approx(ref_fit["tau_log_coefficient"], rel=0.01)
        assert abs(fit["sigma_power_exponent"] - ref_fit["sigma_power_exponent"]) < 5e-3
        assert np.allclose(_shear(other, d), _shear(base, d), rtol=0.01)


def test_tip_resolved_solve_passes_criterion_3_at_order_32(reference_setup):
    resolved32, report = cs.solve_tip_resolved(reference_setup, 32)
    for tip in (0, 1):
        fits = cs.tip_exponents(resolved32, reference_setup, tip=tip)
        assert fits["sigma_power_exponent"] < 0.1
        assert fits["tau_log_fit_relative_residual"] < 0.10
        checks = cs.tip_ladder_checks(resolved32, reference_setup, tip=tip)
        assert all(c.passed for c in checks), [c.to_dict() for c in checks]


def test_ladder_checks_reject_the_solver_field(reference_solution, reference_setup):
    """The ladder checks have teeth: the solver's own field, which
    extrapolates into the tip inset, fails both on the load scale."""
    dset, _ = reference_solution
    d = cs.tip_ladder(reference_setup)
    assert np.allclose(d, cs.face_tension_length(reference_setup) * 2.0 ** -np.arange(1, 9))
    for tip in (0, 1):
        checks = cs.tip_ladder_checks(dset, reference_setup, tip=tip)
        assert [c.passed for c in checks] == [False, False]
        assert all(c.tolerance == c.to_dict()["tolerance"] for c in checks)
        assert checks[1].details["scale"] == reference_setup.load.magnitude


def test_tip_resolved_field_holds_its_rows(reference_setup, resolved):
    field, report = resolved
    assert report.max_residual < 1e-2
    assert report.per_tag["force_balance_re"] < 1e-6
    assert report.per_tag["single_valuedness_re"] < 1e-6
    l0, l = field.l0, field.l
    for name in ("g0p", "gp"):
        for crack_side, bond_side in ((0.0, l), (l0, np.nextafter(l0, l))):
            jump = field.eval(name, crack_side) - field.eval(name, bond_side)
            assert abs(jump.real) < 1e-6
    # On the bonded arc g' = lam g0': every term but the constant is
    # eliminated exactly, the constant is tied by a weighted row.
    mat, inc = reference_setup.matrix, reference_setup.inclusion
    lam = -mat.shear_modulus * (inc.kappa + 1.0) / (inc.shear_modulus * (mat.kappa + 1.0))
    s = np.linspace(l0 + 0.01, l - 0.01, 9)
    gap = field.eval("gp", s) - lam * field.eval("g0p", s)
    assert np.max(np.abs(gap)) < 1e-3 * np.max(np.abs(field.eval("gp", s)))
    assert np.max(np.abs(gap - gap[4])) < 1e-9
    with pytest.raises(ValueError):
        field.eval("q0", -1.0)
    with pytest.raises(ValueError):
        field.eval("w", 1.0)


def test_tip_resolved_solve_imposes_the_integral_constraints(resolved):
    """Force balance and single-valuedness are eliminated exactly on the
    tip-enriched basis too.  Its coefficients reach 2e7 in magnitude, so the
    residuals c @ full sit at the rounding level of their terms (1.1e-10
    measured; the weighted rows left 1.9e-7).  conservation_checks
    integrates the densities with another rule, so there it measures a
    quadrature difference instead."""
    _, report = resolved
    tags = [f"{name}_{part}" for name in ("force_balance", "single_valuedness") for part in ("re", "im")]
    assert max(report.per_tag[tag] for tag in tags) <= 1e-9


def test_stress_trace_resolves_a_near_tip_layer(reference_setup, resolved):
    """At the bottom of the ladder the stress trace is converged in the
    quadrature: a finer rule moves it by far less than TRACE_TOL."""
    field, _ = resolved
    finer = cs.QuadratureRule(nodes_per_panel=24, panels_per_arc=32, adaptive=False)
    for s0 in (cs.tip_ladder(reference_setup)[-1], 1.0):
        for phase, side in (("inclusion", "plus"), ("matrix", "minus")):
            coarse = validation.stress_trace(field, reference_setup, s0, phase, side)
            fine = validation.stress_trace(field, reference_setup, s0, phase, side, rule=finer)
            assert abs(coarse - fine) < 1e-2 * validation.TRACE_TOL


def test_stress_class_does_not_decide_the_fits(reference_setup, resolved, monkeypatch):
    """The zone series hold the stresses to a + b log d at the tip.  With an
    unconstrained series for them (any function of log d) the equations
    still give a flat sigma and a logarithmic shear: the same fits and the
    same ladder checks.  That looser series pins the log coefficient less
    tightly (5.36 here, 5.75 to 5.85 with fewer zone points, against 5.85
    within 0.1% with the classes), so it is compared only in size."""
    with_classes = tips._basis_terms

    def terms(kind, k):
        if kind != "q":
            return with_classes(kind, k)
        eye = np.eye(k + 1)
        return {0: eye[1:] - eye[0]}  # T_j(x) - 1, j = 1..k

    monkeypatch.setattr(tips, "_basis_terms", terms)
    free, _ = cs.solve_tip_resolved(reference_setup, 24, zone_terms=40)
    base, _ = resolved
    for tip in (0, 1):
        assert all(c.passed for c in cs.tip_ladder_checks(free, reference_setup, tip=tip))
        fit = cs.tip_exponents(free, reference_setup, tip=tip)
        ref = cs.tip_exponents(base, reference_setup, tip=tip)
        assert abs(fit["sigma_power_exponent"] - ref["sigma_power_exponent"]) < 2e-3
        assert abs(fit["tau_log_fit_relative_residual"] - ref["tau_log_fit_relative_residual"]) < 2e-3
        assert fit["tau_log_coefficient"] == pytest.approx(ref["tau_log_coefficient"], rel=0.1)


def test_conservation_checks_pass_on_the_tip_resolved_field(reference_setup, resolved):
    """The graded conservation rule integrates the log d of the zone series:
    the checks agree with the solve's own force and single-valuedness rows."""
    field, _ = resolved
    checks = cs.conservation_checks(field, reference_setup)
    assert all(c.passed for c in checks), [c.to_dict() for c in checks]


def test_batched_stress_trace_matches_single_points(reference_setup, reference_solution, resolved):
    """Field points batched across gradings, interior and on the tip ladders
    c * 2^-k, give the per-point traces, on the solver's field and on the
    resolved one whose near-tip layer needs each point's own grading."""
    contour = reference_setup.contour
    ladder = cs.tip_ladder(reference_setup)
    s = np.concatenate([[0.7, 2.0, 4.1, 5.6], ladder, contour.l0 - ladder, contour.l - ladder])
    for field in (reference_solution[0], resolved[0]):
        for phase, side in (("inclusion", "plus"), ("matrix", "minus")):
            batched = validation.stress_trace(field, reference_setup, s, phase, side)
            single = [validation.stress_trace(field, reference_setup, x, phase, side) for x in s]
            assert np.ndim(single[0]) == 0
            assert np.allclose(batched, single, rtol=1e-12, atol=0.0)
    square = validation.stress_trace(resolved[0], reference_setup, s[:4].reshape(2, 2), "inclusion", "plus")
    assert square.shape == (2, 2)


def test_tip_resolved_kernels_take_the_kernel_guard_radius(reference_setup, monkeypatch):
    """The small radius DIVIDED_DIFFERENCE_EPS_FACTOR * l applies to the
    Cauchy table's divided differences only: the regular kernels switch to
    their near-diagonal expansion at DIAG_EPS_FACTOR * l, where the raw
    quotients lose digits."""
    seen, regular_kernels = [], solver._regular_kernels

    def spy(contour, s_field, t, dt, s_src, tau, eps):
        seen.append(eps)
        return regular_kernels(contour, s_field, t, dt, s_src, tau, eps)

    monkeypatch.setattr(solver, "_regular_kernels", spy)
    cs.solve_tip_resolved(reference_setup, 24)
    assert seen
    assert all(eps == DIAG_EPS_FACTOR * reference_setup.contour.l for eps in seen)


def test_densities_share_their_argument_checks(reference_setup):
    basis = tips.TipEnrichedBasis(reference_setup, 8)
    zeros = np.zeros(basis.size)
    for dens in (cs.DensitySet.zeros(8, np.pi, 2 * np.pi), cs.TipResolvedDensities(basis, [(zeros, zeros)] * 8)):
        with pytest.raises(ValueError, match="unknown density 'q1'"):
            dens.eval("q1", 1.0)
        for bad in (7.0, -0.1, np.nan):
            with pytest.raises(ValueError, match="outside"):
                dens.eval("q0", [1.0, bad])
        assert dens.eval("gp", 1.0) == 0.0
        assert dens.eval("gp", [1.0, 4.0], order=2).shape == (2,)
