import numpy as np
import pytest

import crackst as cs
from crackst import validation as val
from crackst.kernels import FINE_RULE


@pytest.fixture(scope="module")
def circle():
    return cs.circular_contour(1.0, (0.0, np.pi))


def test_inversion_check_constant_density(circle):
    check = val.cauchy_inversion_checks(circle, [lambda s: np.ones_like(s, dtype=complex)])[0]
    assert check.passed
    assert check.value < 1e-12


def test_inversion_check_quadratic_density(circle):
    check = val.cauchy_inversion_checks(circle, [lambda s: circle.point(s) ** 2])[0]
    assert check.passed
    assert check.value < 1e-6


def test_inversion_check_random_polynomial(circle):
    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=7)

    def density(s):
        u = 2.0 * np.asarray(s) / circle.l - 1.0
        return np.polynomial.polynomial.polyval(u, coeffs) + 0j

    check = val.cauchy_inversion_checks(circle, [density])[0]
    assert check.passed
    assert check.value < 1e-5


def test_inversion_check_trigonometric_trial(circle):
    """The PV's near-diagonal patch accumulates every node close to a field
    point and keeps its difference stencil off the tips, so the smooth
    trigonometric trial of the default battery inverts to rounding level."""
    trials = [f for name, f in val._trial_densities(circle, 0, 3) if name == "trigonometric"]
    assert val.cauchy_inversion_checks(circle, trials)[0].value < 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_inversion_checks_pass_on_ellipse(seed):
    """The battery's trials invert below INVERSION_TOL on the 1.5:1 ellipse.
    Near-node pairs of the principal value need the tangent ratio
    dt_q / t'(mid) of the divided difference; without it most checks here
    exceed the tolerance."""
    ellipse = cs.elliptical_contour(1.5, 1.0, (0.0, np.pi))
    trials = [trial for _, trial in val._trial_densities(ellipse, seed, val.INVERSION_TRIALS)]
    values = [check.value for check in val.cauchy_inversion_checks(ellipse, trials)]
    assert max(values) < val.INVERSION_TOL, values


def test_surface_condition_residual_zero_solution(reference_setup):
    dset = cs.DensitySet.zeros(8, np.pi, 2 * np.pi)
    check = cs.original_bc_residual(dset, reference_setup)
    assert check.value == pytest.approx(0.0, abs=1e-15)


def test_surface_condition_residual_reference(reference_solution, reference_setup):
    dset, _ = reference_solution
    check = cs.original_bc_residual(dset, reference_setup)
    assert check.passed
    assert check.details["relative"] < 0.02


def test_surface_condition_residual_shrinks_with_order(reference_setup):
    """Every order up to 64 solves at full rank, and the residual of the
    original boundary conditions falls at each step (1.2e-2 at N = 16,
    1.4e-11 at N = 64)."""
    values = []
    for n in (8, 16, 24, 32, 48, 64):
        dset, report = cs.solve_problem(reference_setup, n)
        assert report.rank == report.cols, n
        values.append(cs.original_bc_residual(dset, reference_setup).value)
    assert all(a > b for a, b in zip(values, values[1:])), values


def test_surface_condition_residual_on_one_arc(reference_solution, reference_setup):
    """Samples on one arc only check that arc's conditions; the crack block
    is skipped like the bonded one."""
    dset, _ = reference_solution
    crack, bond = [0.5, 1.5, 2.5], [3.5, 4.5, 5.5]
    values = [cs.original_bc_residual(dset, reference_setup, s_samples=s, scale=1.0).value
              for s in (crack, bond, crack + bond)]
    assert values[2] == pytest.approx(max(values[:2]), rel=1e-12)
    check = cs.original_bc_residual(dset, reference_setup, s_samples=bond)
    assert check.passed and check.details["traction_scale"] == reference_setup.load.magnitude


def test_sampled_checks_reject_empty_samples(reference_solution, reference_setup):
    dset, _ = reference_solution
    with pytest.raises(ValueError, match="at least one sample"):
        cs.original_bc_residual(dset, reference_setup, s_samples=[])
    with pytest.raises(ValueError, match="at least one sample"):
        cs.trace_consistency(dset, reference_setup, s_samples=[])


def test_trace_consistency_zero_state(reference_setup):
    dset = cs.DensitySet.zeros(8, np.pi, 2 * np.pi)
    setup = cs.ProblemSetup(
        contour=reference_setup.contour,
        matrix=reference_setup.matrix,
        inclusion=reference_setup.inclusion,
        surface=reference_setup.surface,
        load=cs.RemoteLoad(0.0, 0.0, 0.0),
    )
    check = cs.trace_consistency(dset, setup, s_samples=np.array([0.7, 2.0, 4.1]))
    assert check.value == pytest.approx(0.0, abs=1e-12)


def test_trace_consistency_uniform_field(unit_semicircle):
    """On the exactly solvable uniform state the traces match to quadrature
    accuracy, well below the scheme-calibrated default tolerance."""
    p = 1.0
    mat = cs.Material(40.0, 0.25)
    kap = mat.kappa
    img0 = -p * (kap - 1.0) / (2.0 * (kap + 1.0))
    cp = 0.1 * (kap + 1.0) / (4.0 * mat.shear_modulus)
    setup = cs.ProblemSetup(
        contour=unit_semicircle,
        matrix=mat,
        inclusion=mat,
        surface=cs.SurfaceTension(0.1, 0.1, 0.0),
        load=cs.RemoteLoad(p, p, 0.0),
        tractions=cs.CrackTractions.constant(f1=p - 2 * cp * img0, f2=p - 2 * cp * img0),
    )
    dset, _ = cs.solve_problem(setup, 8)
    check = cs.trace_consistency(dset, setup, seed=1)
    assert check.value < 1e-8


def test_trace_consistency_reference(reference_solution, reference_setup):
    dset, _ = reference_solution
    check = cs.trace_consistency(dset, reference_setup)
    assert check.passed


def test_conservation_checks(reference_solution, reference_setup):
    dset, _ = reference_solution
    checks = cs.conservation_checks(dset, reference_setup)
    assert [c.name for c in checks] == ["force_balance", "single_valuedness"]
    assert all(c.passed for c in checks)
    zeros = cs.conservation_checks(cs.DensitySet.zeros(8, np.pi, 2 * np.pi), reference_setup)
    assert all(c.value == pytest.approx(0.0, abs=1e-14) for c in zeros)


def test_validate_solution_report(tmp_path, reference_solution, reference_setup):
    dset, _ = reference_solution
    report = cs.validate_solution(dset, reference_setup)
    assert report.all_passed
    names = [c.name for c in report.checks]
    assert names.count("cauchy_inversion") == 3
    assert "surface_condition_residual" in names
    assert "trace_consistency" in names
    path = tmp_path / "validation.json"
    report.write_json(path)
    import json

    data = json.loads(path.read_text())
    assert data["all_passed"] is True
    assert len(data["checks"]) == len(report.checks)


@pytest.mark.parametrize("value, passed", [(0.5, True), (1.0, False), (2.0, False), (float("nan"), False)])
def test_check_passes_only_below_its_tolerance(value, passed):
    check = val.ValidationCheck(name="probe", value=value, tolerance=1.0)
    assert check.passed is passed
    assert check.to_dict()["passed"] is passed
    with pytest.raises(TypeError):
        val.ValidationCheck(name="probe", value=value, tolerance=1.0, passed=not passed)


def test_validate_solution_times_each_check_family(reference_solution, reference_setup):
    dset, _ = reference_solution
    report = cs.validate_solution(dset, reference_setup)
    assert set(report.timings) == {"inversion_s", "surface_s", "trace_s", "conservation_s"}
    assert all(value >= 0.0 for value in report.timings.values())
    assert "timings" not in report.to_dict()
    assert [c.details.get("trial") for c in report.checks[:3]] == ["polynomial", "trigonometric", "polynomial"]


def test_validation_quadrature_finer_than_assembly():
    rule = FINE_RULE
    base = cs.QuadratureRule()
    assert rule.panels_per_arc >= 2 * base.panels_per_arc


def test_batched_inversion_checks_match_single_trials(circle):
    trials = [trial for _, trial in val._trial_densities(circle, 3, 3)]
    batched = val.cauchy_inversion_checks(circle, trials)
    for trial, check in zip(trials, batched):
        assert check.value == val.cauchy_inversion_checks(circle, [trial])[0].value


def test_validation_builds_each_discretization_once(monkeypatch):
    """Solve and validation battery on a 1.5:1 ellipse at N = 24 need few
    distinct discretizations, and the memo builds each of them once."""
    from crackst import kernels

    built = []
    build = kernels._build_discretization

    def counting(contour, *key):
        built.append(key)
        return build(contour, *key)

    monkeypatch.setattr(kernels, "_build_discretization", counting)
    ellipse = cs.elliptical_contour(1.5, 1.0, (0.0, np.pi))
    setup = cs.ProblemSetup(
        contour=ellipse,
        matrix=cs.Material(40.0, 0.25),
        inclusion=cs.Material(60.0, 0.35),
        surface=cs.SurfaceTension(0.1, 0.1, 0.1),
        load=cs.RemoteLoad(1.0, 0.0, 0.0),
    )
    dset, _ = cs.solve_problem(setup, 24)
    report = cs.validate_solution(dset, setup)
    assert len(report.checks) == 7
    assert len(built) <= 8
    assert len(set(built)) == len(built)


def test_stress_trace_rejects_unknown_phase(reference_setup):
    dset = cs.DensitySet.zeros(6, np.pi, 2 * np.pi)
    with pytest.raises(ValueError, match=repr("inclusoin")):
        val.stress_trace(dset, reference_setup, 1.0, "inclusoin")
