import csv
import json
from dataclasses import replace

import numpy as np
import pytest

import crackst as cs
from crackst import postprocess as post


@pytest.fixture(scope="module")
def zero_dset():
    return cs.DensitySet.zeros(6, np.pi, 2 * np.pi)


def test_zero_solution_gives_zero_fields(zero_dset, reference_setup):
    fld = post.crack_face_fields(zero_dset, reference_setup)
    for name in ("sigma_n_plus_0", "tau_n_plus_0", "sigma_n_minus", "tau_n_minus",
                 "ut_prime_plus_0", "un_prime_plus_0", "ut_prime_minus", "un_prime_minus"):
        assert np.all(fld[name] == 0.0)
    assert cs.max_crack_opening(zero_dset, reference_setup) == 0.0
    assert cs.max_crack_aperture(zero_dset, reference_setup) == 0.0


def test_constant_stress_injection(reference_setup):
    dset = cs.DensitySet.zeros(6, np.pi, 2 * np.pi)
    c = 0.3 - 0.1j
    dset.a[0][0] = c.real
    dset.b[0][0] = c.imag
    fld = post.crack_face_fields(dset, reference_setup, n_samples=11)
    assert np.allclose(fld["sigma_n_plus_0"] + 1j * fld["tau_n_plus_0"], 2.0 * c)


def test_interface_fields_jump_with_zero_interface_tension(
    zero_interface_solution, zero_interface_setup
):
    dset, _ = zero_interface_solution
    fld = post.interface_fields(dset, zero_interface_setup, n_samples=301)
    jump = (fld["sigma_n_plus_0"] - fld["sigma_n_minus"]) + 1j * (fld["tau_n_plus_0"] - fld["tau_n_minus"])
    assert np.max(np.abs(jump)) < 0.01 * zero_interface_setup.load.magnitude


def test_displacement_anchoring(reference_solution, reference_setup):
    dset, _ = reference_solution
    s, u_inc, u_mat = post.displacements(dset, reference_setup)
    mid_crack = 0.5 * dset.l0
    mid_bond = 0.5 * (dset.l0 + dset.l)
    assert abs(np.interp(mid_crack, s, u_inc.real)) < 1e-12
    assert abs(np.interp(mid_crack, s, u_inc.imag)) < 1e-12
    gap = (np.interp(mid_bond, s, u_inc.real) - np.interp(mid_bond, s, u_mat.real)) + 1j * (
        np.interp(mid_bond, s, u_inc.imag) - np.interp(mid_bond, s, u_mat.imag)
    )
    assert abs(gap) < 1e-12


def test_displacement_single_valuedness(reference_solution, reference_setup):
    """Tip-to-tip displacement change agrees between the two crack faces."""
    dset, _ = reference_solution
    s, u_inc, u_mat = post.displacements(dset, reference_setup, n_samples=4001)
    on_crack = s <= dset.l0
    jump_inc = u_inc[on_crack][-1] - u_inc[on_crack][0]
    jump_mat = u_mat[on_crack][-1] - u_mat[on_crack][0]
    assert abs(jump_inc - jump_mat) < 1e-4


def test_opening_scales_with_load(reference_setup):
    d1, _ = cs.solve_problem(reference_setup, 8)
    d2, _ = cs.solve_problem(replace(reference_setup, load=cs.RemoteLoad(2.0, 0.0, 0.0)), 8)
    v1 = cs.max_crack_opening(d1, reference_setup)
    v2 = cs.max_crack_opening(d2, reference_setup)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-9)


def test_opening_window_parameter(reference_solution, reference_setup):
    dset, _ = reference_solution
    central = cs.max_crack_opening(dset, reference_setup)
    full = cs.max_crack_opening(dset, reference_setup, window=(0.0, 1.0))
    assert full >= central > 0.0
    # A window outside [0, 1] would sample the bonded arc.
    for window in ((1.2, 1.5), (-0.1, 0.5), (0.5, 1.1), (0.6, 0.4), (0.5, 0.5), (0.0, float("nan"))):
        with pytest.raises(ValueError, match="opening window"):
            cs.max_crack_opening(dset, reference_setup, window=window)


def test_potentials_constant_limits(zero_dset, reference_setup):
    phi, psi = cs.potentials_at(zero_dset, reference_setup, 3.0 + 1.0j, "matrix")
    assert phi == pytest.approx(reference_setup.load.gamma)
    assert psi == pytest.approx(reference_setup.load.gamma_prime)
    phi0, psi0 = cs.potentials_at(zero_dset, reference_setup, 0.1 + 0.2j, "inclusion")
    assert phi0 == 0.0 and psi0 == 0.0


def test_potentials_far_field_decay(reference_solution, reference_setup):
    dset, _ = reference_solution
    phi, _ = cs.potentials_at(dset, reference_setup, 100.0 + 0.0j, "matrix")
    gamma = reference_setup.load.gamma
    assert abs(phi - gamma) < 0.01 * abs(gamma)


def test_potentials_region_and_proximity_guards(zero_dset, reference_setup):
    with pytest.raises(post.NearBoundaryError):
        cs.potentials_at(zero_dset, reference_setup, 1.001 + 0.0j, "matrix")
    with pytest.raises(ValueError):
        cs.potentials_at(zero_dset, reference_setup, 0.1 + 0.1j, "matrix")
    with pytest.raises(ValueError):
        cs.potentials_at(zero_dset, reference_setup, 3.0 + 0.0j, "inclusion")


def test_tip_exponent_fields(reference_solution, reference_setup):
    dset, _ = reference_solution
    fits = cs.tip_exponents(dset, reference_setup, tip=0)
    for key in (
        "sigma_power_exponent",
        "tau_power_exponent",
        "tau_log_coefficient",
        "tau_log_fit_relative_residual",
    ):
        assert np.isfinite(fits[key])


def test_boundary_fields_csv_schema_and_determinism(tmp_path, reference_solution, reference_setup):
    dset, _ = reference_solution
    fld = post.crack_face_fields(dset, reference_setup, n_samples=20)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    post.write_csv(p1, fld)
    post.write_csv(p2, fld)
    assert p1.read_bytes() == p2.read_bytes()
    rows = list(csv.DictReader(open(p1)))
    assert len(rows) == 20
    assert "sigma_n_plus_0" in rows[0] and "re_g0_prime" in rows[0]
    float(rows[3]["tau_n_minus"])  # parses as a number


def test_deformed_boundary_csv(tmp_path, reference_solution, reference_setup):
    dset, _ = reference_solution
    cols = post.deformed_boundary(dset, reference_setup, scale=2.0, n_samples=50)
    path = tmp_path / "deformed.csv"
    post.write_csv(path, cols)
    rows = list(csv.DictReader(open(path)))
    assert len(rows) == 50
    assert set(rows[0]) == {
        "s",
        "x_undeformed",
        "y_undeformed",
        "x_deformed_inclusion",
        "y_deformed_inclusion",
        "x_deformed_matrix",
        "y_deformed_matrix",
    }


def _reference_csv(path, names, columns):
    """The csv.writer form of the CSV writers: each value formatted alone,
    integers as str(int) and the rest as %.12e."""

    def fmt(value):
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return f"{float(value):.12e}"

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in zip(*columns):
            writer.writerow([fmt(v) for v in row])


def test_csv_writers_match_csv_writer_reference(tmp_path, reference_solution, reference_setup):
    dset, _ = reference_solution
    fld = post.boundary_fields(dset, reference_setup, np.linspace(0.1, 6.0, 40))
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, -1.5e300, 5e-324])
    fld["sigma_n_plus_0"][: special.size] = special
    fld["re_g0_prime"][: special.size], fld["im_g0_prime"][: special.size] = special, -special[::-1]
    assert fld["arc"].dtype.kind == "i" and set(fld["arc"]) == {0, 1}
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    post.write_csv(got, fld)
    _reference_csv(want, list(fld), list(fld.values()))
    assert got.read_bytes() == want.read_bytes()
    assert b"nan" in got.read_bytes() and b"-0.000000000000e+00" in got.read_bytes()

    cols = post.deformed_boundary(dset, reference_setup, scale=2.0, n_samples=30)
    cols["x_deformed_matrix"][:3] = [-0.0, np.nan, -np.inf]
    post.write_csv(got, cols)
    names = ["s", "x_undeformed", "y_undeformed", "x_deformed_inclusion",
             "y_deformed_inclusion", "x_deformed_matrix", "y_deformed_matrix"]
    _reference_csv(want, names, [cols[name] for name in names])
    assert got.read_bytes() == want.read_bytes()


def test_summary_json(tmp_path, reference_solution, reference_setup):
    dset, report = reference_solution
    path = tmp_path / "summary.json"
    post.write_summary_json(path, dset, reference_setup, report, extra={"tag": "x"})
    data = json.loads(path.read_text())
    assert data["order"] == dset.n
    assert data["tag"] == "x"
    assert len(data["tip_fits"]) == 2
    assert data["max_crack_opening"] > 0.0


def test_summary_tip_fits_carry_their_ladder_checks(tmp_path, reference_solution, reference_setup):
    dset, report = reference_solution
    data = post.write_summary_json(tmp_path / "summary.json", dset, reference_setup, report)
    for tip, fits in enumerate(data["tip_fits"]):
        assert fits["tip"] == tip
        assert [c["name"] for c in fits["ladder_checks"]] == [
            "surface_condition_residual",
            "trace_consistency",
        ]
        assert all(c["passed"] for c in fits["ladder_checks"])
        assert fits["sigma_power_exponent"] < 0.1
    skipped = post.write_summary_json(tmp_path / "s.json", dset, reference_setup, report, with_tip_fits=False)
    assert skipped["tip_fits"] is None
    assert json.loads((tmp_path / "s.json").read_text())["tip_fits"] is None


def test_summary_tip_fits_without_interface_tension(tmp_path, zero_interface_solution,
                                                     zero_interface_setup):
    """With no interface tension the tip-resolved solve does not converge
    (see ROADMAP), so the summary publishes no fits, only the reason, and no
    tip-resolved opening."""
    dset, report = zero_interface_solution
    data = post.write_summary_json(tmp_path / "summary.json", dset, zero_interface_setup, report)
    for fits in data["tip_fits"]:
        assert fits["sigma_power_exponent"] is None
        assert fits["tau_log_fit_relative_residual"] is None
        assert "rank" in fits["error"]
    assert data["tip_resolved_max_crack_opening"] is None
    assert data["tip_resolved_opening_relative_change"] is None
    assert json.loads((tmp_path / "summary.json").read_text())["tip_resolved_max_crack_opening"] is None


@pytest.mark.parametrize("fn", [cs.tip_exponents, cs.tip_ladder_checks])
@pytest.mark.parametrize("tip", [2, -1])
def test_tip_functions_reject_unknown_tips(zero_dset, reference_setup, fn, tip):
    with pytest.raises(ValueError, match=f"tip must be 0 or 1, got {tip}"):
        fn(zero_dset, reference_setup, tip=tip)


def test_write_csv_writes_string_columns_as_csv_writer_does(tmp_path):
    names, columns = ["param", "value"], [["gamma0", "order"], [0.1, np.nan]]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    post.write_csv(got, dict(zip(names, columns)))
    with open(want, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows([["gamma0", "1.000000000000e-01"], ["order", "nan"]])
    assert got.read_bytes() == want.read_bytes()
