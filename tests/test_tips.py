import numpy as np
import pytest

import crackst as cs
from crackst import solver, tips, validation
from crackst.kernels import DIAG_EPS_FACTOR, FINE_RULE


@pytest.fixture(scope="module")
def resolved(reference_setup):
    return cs.solve_tip_resolved(reference_setup, 24)


@pytest.fixture(scope="module")
def resolved32(reference_setup):
    return cs.solve_tip_resolved(reference_setup, 32)


def _shear(field, d):
    return 2.0 * field.eval("q0", d).imag


def test_tip_fits_do_not_depend_on_the_basis_size(reference_setup, resolved, resolved32):
    """The shear's log coefficient and the near-tip stresses are properties
    of the solution, not of the Legendre degree or the number of zone terms."""
    base, _ = resolved
    d = np.array([1e-2, 2e-3, 1e-4, 1e-5])
    ref_fit = cs.tip_exponents(base, reference_setup, tip=0)
    more_terms, _ = cs.solve_tip_resolved(reference_setup, 24, zone_terms=tips.TIP_ZONE_TERMS + 8)
    for other in (resolved32[0], more_terms):
        fit = cs.tip_exponents(other, reference_setup, tip=0)
        assert fit["tau_log_coefficient"] == pytest.approx(ref_fit["tau_log_coefficient"], rel=0.01)
        assert abs(fit["sigma_power_exponent"] - ref_fit["sigma_power_exponent"]) < 5e-3
        assert np.allclose(_shear(other, d), _shear(base, d), rtol=0.01)


def test_tip_resolved_solve_passes_criterion_3_at_order_32(reference_setup, resolved32):
    field, _ = resolved32
    for tip in (0, 1):
        fits = cs.tip_exponents(field, reference_setup, tip=tip)
        assert fits["sigma_power_exponent"] < 0.1
        assert fits["tau_log_fit_relative_residual"] < 0.10
        checks = cs.tip_ladder_checks(field, reference_setup, tip=tip)
        assert all(c.passed for c in checks), [c.to_dict() for c in checks]


def test_tip_resolved_opening_settles_in_the_order(reference_setup, resolved, resolved32):
    """The central openings at N = 16, 24 and 32 agree within 3e-4 relative
    (6.4e-5 measured)."""
    low, _ = cs.solve_tip_resolved(reference_setup, 16)
    openings = [cs.max_crack_opening(f, reference_setup) for f in (low, resolved[0], resolved32[0])]
    assert np.ptp(openings) < 3e-4 * openings[1], openings


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
    assert report.max_residual < 1e-3
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


def test_tip_resolved_field_is_a_density_set_that_is_not_written(resolved):
    """The tip-resolved solve returns the solver's densities type, which
    evaluates through its basis; densities.json holds Legendre coefficients
    only, so writing these is refused rather than mislabelled."""
    field, _ = resolved
    assert isinstance(field, cs.DensitySet)
    assert isinstance(field.basis, tips.TipEnrichedBasis)
    with pytest.raises(ValueError, match="Legendre"):
        field.to_dict()


def test_tip_resolved_solve_imposes_the_integral_constraints(resolved):
    """Force balance and single-valuedness are eliminated exactly on the
    tip-enriched basis too.  Its coefficients reach 1.5e7 in magnitude, so the
    residuals c @ full sit at the rounding level of their terms (2.9e-11
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
        for phase in ("inclusion", "matrix"):
            coarse = validation.stress_trace(field, reference_setup, s0, phase)
            fine = validation.stress_trace(field, reference_setup, s0, phase, rule=finer)
            assert abs(coarse - fine) < 1e-2 * validation.TRACE_TOL


def test_stress_class_does_not_decide_the_fits(reference_setup, resolved, monkeypatch):
    """The zone series hold the stresses to a + b log d at the tip.  With an
    unconstrained series for them (any function of log d) the equations
    still give a flat sigma and a logarithmic shear: the same fits and the
    same ladder checks.  The log coefficient is compared only in size, as
    the looser series need not pin it (measured: 5.848 here, against 5.852
    with the classes)."""
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
        for phase in ("inclusion", "matrix"):
            batched = validation.stress_trace(field, reference_setup, s, phase)
            single = [validation.stress_trace(field, reference_setup, x, phase) for x in s]
            assert np.ndim(single[0]) == 0
            assert np.allclose(batched, single, rtol=1e-12, atol=0.0)
    square = validation.stress_trace(resolved[0], reference_setup, s[:4].reshape(2, 2), "inclusion")
    assert square.shape == (2, 2)


def test_tip_resolved_kernels_take_the_kernel_guard_radius(reference_setup, monkeypatch):
    """The rounding-level radius DIVIDED_DIFFERENCE_EPS_FACTOR * l applies
    to the Cauchy integrals only (the solver's table and every principal
    value): the regular kernels switch to their near-diagonal expansion at
    DIAG_EPS_FACTOR * l, where the raw quotients lose digits."""
    seen, regular_kernels = [], solver._regular_kernels

    def spy(contour, s_field, t, dt, s_src, tau, eps):
        seen.append(eps)
        return regular_kernels(contour, s_field, t, dt, s_src, tau, eps)

    monkeypatch.setattr(solver, "_regular_kernels", spy)
    cs.solve_tip_resolved(reference_setup, 24)
    assert seen
    assert all(eps == DIAG_EPS_FACTOR * reference_setup.contour.l for eps in seen)


def test_tip_resolved_solve_is_solve_cases_on_the_enriched_basis(reference_setup):
    field, report = cs.solve_tip_resolved(reference_setup, 16)
    basis = tips.TipEnrichedBasis(reference_setup, 16)
    ((other, other_report),) = cs.solve_cases([reference_setup], 16, rule=FINE_RULE, basis=basis)
    for mine, theirs in zip(field.a + field.b, other.a + other.b):
        assert np.array_equal(mine, theirs)
    assert (report.rank, report.condition) == (other_report.rank, other_report.condition)


def test_densities_share_their_argument_checks(reference_setup):
    basis = tips.TipEnrichedBasis(reference_setup, 8)
    for dens in (cs.DensitySet.zeros(8, np.pi, 2 * np.pi), basis.densities(np.zeros(basis.total))):
        assert isinstance(dens, cs.DensitySet)
        with pytest.raises(ValueError, match="unknown density 'q1'"):
            dens.eval("q1", 1.0)
        for bad in (7.0, -0.1, np.nan):
            with pytest.raises(ValueError, match="outside"):
                dens.eval("q0", [1.0, bad])
        assert dens.eval("gp", 1.0) == 0.0
        assert dens.eval("gp", [1.0, 4.0], order=2).shape == (2,)


@pytest.mark.parametrize("kind", ["q", "g_re", "g_im"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_zone_derivatives_are_central_differences_of_the_lower_order(kind, order):
    """Each derivative of the zone functions is the central difference of the
    next lower one: above d_min, in the frozen region below it (where they
    are quadratics in d) and at the tip, where they stay finite.  The steps
    keep each difference on one side of d_min.  Measured: at most 5.6e-6 of
    the largest derivative."""
    zone = tips._LogBasis(0.05, 1e-9, tips.TIP_ZONE_TERMS)
    d_min, width = zone.d_min, zone.width
    for d, h in (
        (0.0, 0.5 * d_min),
        (0.5 * d_min, 0.25 * d_min),
        (2.0 * d_min, 2e-4 * d_min),
        (1e-3 * width, 1e-7 * width),
        (0.5 * width, 5e-5 * width),
    ):
        lower = zone.values(kind, [d - h, d + h], order - 1)
        exact = zone.values(kind, [d], order)[0]
        assert np.all(np.isfinite(exact)), d
        error = np.max(np.abs((lower[1] - lower[0]) / (2.0 * h) - exact))
        assert error <= 1e-4 * np.max(np.abs(exact)), (d, error)
