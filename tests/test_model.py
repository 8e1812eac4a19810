import numpy as np
import pytest

import crackst as cs
from crackst.model import m_coefficients_from_frame


def test_kolosov_values():
    assert cs.kolosov(0.25) == pytest.approx(2.2)
    assert cs.kolosov(0.25, "plane-strain") == pytest.approx(2.0)
    assert cs.kolosov(0.35) == pytest.approx(2.65 / 1.35)


def test_kolosov_range_and_mode():
    with pytest.raises(ValueError):
        cs.kolosov(0.7)
    with pytest.raises(ValueError):
        cs.kolosov(-1.0)
    with pytest.raises(ValueError):
        cs.kolosov(0.3, "plane-banana")


def test_kolosov_monotone_in_poisson():
    nus = np.linspace(-0.9, 0.45, 30)
    for mode in ("plane-stress", "plane-strain"):
        k = [cs.kolosov(nu, mode) for nu in nus]
        assert all(k[i + 1] < k[i] for i in range(len(k) - 1))


def test_far_field_constants():
    g, gp = cs.far_field_constants(1.0, 0.0, 0.0)
    assert g == pytest.approx(0.25)
    assert gp == pytest.approx(-0.5)
    g, gp = cs.far_field_constants(1.0, 0.0, np.pi / 2)
    assert g == pytest.approx(0.25)
    assert gp == pytest.approx(0.5)
    g, gp = cs.far_field_constants(3.0, 3.0, 1.234)
    assert g == pytest.approx(1.5)
    assert gp == pytest.approx(0.0, abs=1e-15)


def test_far_field_invariant_under_axis_relabeling():
    for s1, s2, al in ((1.0, 0.2, 0.4), (2.0, -1.0, 1.1)):
        a = cs.far_field_constants(s1, s2, al)
        b = cs.far_field_constants(s2, s1, al + np.pi / 2)
        assert a[0] == pytest.approx(b[0])
        assert a[1] == pytest.approx(b[1])


def test_material_validation():
    with pytest.raises(ValueError):
        cs.Material(-1.0, 0.3)
    with pytest.raises(ValueError):
        cs.Material(10.0, 0.6)
    m = cs.Material(40.0, 0.25)
    assert 1.0 < m.kappa < 3.0


def test_surface_tension_validation():
    with pytest.raises(ValueError):
        cs.SurfaceTension(0.0, 0.1, 0.0)
    with pytest.raises(ValueError):
        cs.SurfaceTension(0.1, -0.1, 0.0)
    with pytest.raises(ValueError):
        cs.SurfaceTension(0.1, 0.1, -0.5)
    cs.SurfaceTension(0.1, 0.1, 0.0)  # zero interface tension is fine


NON_FINITE_FIELDS = {
    "shear_modulus": lambda v: cs.Material(v, 0.25),
    "poisson": lambda v: cs.Material(40.0, v),
    "gamma_plus": lambda v: cs.SurfaceTension(v, 0.1, 0.1),
    "gamma_minus": lambda v: cs.SurfaceTension(0.1, v, 0.1),
    "gamma_interface": lambda v: cs.SurfaceTension(0.1, 0.1, v),
    "sigma1": lambda v: cs.RemoteLoad(v, 0.0),
    "sigma2": lambda v: cs.RemoteLoad(1.0, v),
    "alpha": lambda v: cs.RemoteLoad(1.0, 0.0, v),
    "radius": lambda v: cs.CircleContour(v, 0.0, np.pi),
    "crack_start": lambda v: cs.CircleContour(1.0, v, np.pi),
    "crack_end": lambda v: cs.EllipseContour(1.5, 1.0, 0.0, v),
    "a": lambda v: cs.EllipseContour(v, 1.0, 0.0, np.pi),
    "b": lambda v: cs.EllipseContour(1.5, v, 0.0, np.pi),
}


@pytest.mark.parametrize("name", NON_FINITE_FIELDS)
def test_non_finite_inputs_are_refused(name):
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got"):
            NON_FINITE_FIELDS[name](value)


def test_m_coefficients_on_unit_circle():
    c = cs.circular_contour(1.0, (0.0, np.pi))
    m1, m2, m3, m4 = cs.m_coefficients(c, 0.0)
    assert m3 == pytest.approx(-4.0)
    assert m4 == pytest.approx(2.0)
    assert m1 == pytest.approx(4j)
    assert m2 == pytest.approx(0.0, abs=1e-14)


def test_m_coefficients_straight_segment():
    m = m_coefficients_from_frame(1.0 + 0j, 0.0j, 0.0j, 0.0, 0.0)
    assert all(abs(v) < 1e-15 for v in m)


def test_m_coefficients_vanish_with_curvature():
    # m3 and m4 are proportional to the curvature
    _, _, m3, m4 = m_coefficients_from_frame(1j, 0.0j, 1.0 + 0j, 0.0, 0.7)
    assert abs(m3) < 1e-15 and abs(m4) < 1e-15


def test_degenerate_pair_flag(unit_semicircle):
    same = cs.Material(40.0, 0.25)
    setup = cs.ProblemSetup(
        contour=unit_semicircle,
        matrix=same,
        inclusion=same,
        surface=cs.SurfaceTension(0.1, 0.1, 0.0),
        load=cs.RemoteLoad(1.0, 0.0, 0.0),
    )
    assert setup.is_degenerate_pair
    other = cs.ProblemSetup(
        contour=unit_semicircle,
        matrix=cs.Material(40.0, 0.25),
        inclusion=cs.Material(60.0, 0.35),
        surface=cs.SurfaceTension(0.1, 0.1, 0.0),
        load=cs.RemoteLoad(1.0, 0.0, 0.0),
    )
    assert not other.is_degenerate_pair


def test_tractions_presets():
    z = cs.CrackTractions.zero()
    s = np.linspace(0.0, 1.0, 5)
    assert np.all(z.f1(s) == 0) and np.all(z.f2(s) == 0)
    t = cs.CrackTractions.constant(f1=1.0 + 2.0j, f2=-0.5j)
    assert np.allclose(t.f1(s), 1.0 + 2.0j)
    assert np.allclose(t.f2(s), -0.5j)
    assert np.allclose(t.scaled(2.0).f1(s), 2.0 + 4.0j)


def test_tractions_reject_nonfinite():
    bad = cs.CrackTractions(f1=lambda s: np.full_like(np.asarray(s), np.inf))
    with pytest.raises(ValueError):
        bad.f1(np.array([0.1]))


@pytest.mark.parametrize("mode", ["plane-stress", "plane-strain"])
def test_phase_records(unit_semicircle, mode):
    """Every field and factor of both phases, against the formulas written out."""
    mu, nu, mu0, nu0 = 40.0, 0.25, 60.0, 0.35
    if mode == "plane-stress":
        kap, kap0 = (3.0 - nu) / (1.0 + nu), (3.0 - nu0) / (1.0 + nu0)
    else:
        kap, kap0 = 3.0 - 4.0 * nu, 3.0 - 4.0 * nu0
    setup = cs.ProblemSetup(
        contour=unit_semicircle,
        matrix=cs.Material(mu, nu, mode),
        inclusion=cs.Material(mu0, nu0, mode),
        surface=cs.SurfaceTension(0.1, 0.2, 0.05),
        load=cs.RemoteLoad(1.0, 0.5, 0.3),
        tractions=cs.CrackTractions.constant(f1=0.3 + 0.1j, f2=-0.2j),
    )
    inc, mat = setup.phases
    assert (inc, mat) == (setup.phase("inclusion"), setup.phase("matrix"))

    assert (inc.name, inc.q, inc.g, inc.sign, inc.side) == ("inclusion", "q0", "g0p", 1.0, "plus")
    assert (inc.mu, inc.kappa, inc.gamma, inc.far_field) == (mu0, kap0, 0.1, (0.0, 0.0))
    assert inc.slope_factor == (kap0 + 1.0) / mu0
    assert inc.displacement_factor == 1j * (kap0 + 1.0) / (2.0 * mu0)
    assert inc.tension_coefficient == 0.1 * (kap0 + 1.0) / (4.0 * mu0)

    gamma, gamma_prime = (1.0 + 0.5) / 4.0, (0.5 - 1.0) * np.exp(-2j * 0.3) / 2.0
    assert (mat.name, mat.q, mat.g, mat.sign, mat.side) == ("matrix", "q", "gp", -1.0, "minus")
    assert (mat.mu, mat.kappa, mat.gamma, mat.far_field) == (mu, kap, 0.2, (gamma, gamma_prime))
    assert mat.slope_factor == (kap + 1.0) / mu
    assert mat.displacement_factor == -1j * (kap + 1.0) / (2.0 * mu)
    assert mat.tension_coefficient == 0.2 * (kap + 1.0) / (4.0 * mu)

    s = np.linspace(0.1, 3.0, 5)
    assert np.array_equal(inc.traction(s), np.full(5, 0.3 + 0.1j))
    assert np.array_equal(mat.traction(s), np.full(5, -0.2j))
    assert cs.face_tension_length(setup) == max(inc.tension_coefficient, mat.tension_coefficient)


def test_unknown_phase_is_rejected_alike(reference_setup):
    dset = cs.DensitySet.zeros(6, np.pi, 2 * np.pi)
    calls = [
        lambda: reference_setup.phase("solid"),
        lambda: cs.validation.stress_trace(dset, reference_setup, 1.0, "solid", "plus"),
        lambda: cs.potentials_at(dset, reference_setup, 0.1 + 0.1j, "solid"),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        messages.add(str(info.value))
    assert messages == {"phase must be 'inclusion' or 'matrix', got 'solid'"}
