from dataclasses import replace

import numpy as np
import pytest

import crackst as cs
from crackst.scenarios import scenario_config
from crackst.solver import _Layout, _a_len


def test_full_coefficient_count():
    assert _Layout(16).total == 279
    assert _Layout(30).total == 503


def test_collocation_points_arithmetic():
    crack, bond = cs.collocation_points(np.pi, 2 * np.pi, 2, delta=0.01 * np.pi)
    assert np.allclose(crack, [0.01 * np.pi, 0.5 * np.pi, 0.99 * np.pi])
    assert crack.size == 3 and bond.size == 3
    crack, bond = cs.collocation_points(np.pi, 2 * np.pi, 16, delta=0.01 * np.pi)
    assert crack.size == 17 and bond.size == 17
    with pytest.raises(ValueError):
        cs.collocation_points(np.pi, 2 * np.pi, 8, delta=0.0)


def test_density_set_evaluation():
    # Coefficients are on P_k(x), x = (s - c)/h; the crack arc [0, pi] has
    # c = h = pi/2.
    dset = cs.DensitySet.zeros(4, np.pi, 2 * np.pi)
    assert dset.eval("q0", 1.0) == 0.0
    dset.a[0][0] = 1.0  # constant q0 on the crack arc
    assert dset.eval("q0", 0.5) == pytest.approx(1.0)
    dset2 = cs.DensitySet.zeros(4, np.pi, 2 * np.pi)
    dset2.a[1][1] = 1.0  # g0' = P_1(x) = (s - pi/2)/(pi/2) on the crack
    assert dset2.eval("g0p", np.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert dset2.eval("g0p", 0.0) == pytest.approx(-1.0)
    assert dset2.eval("g0p", 0.25 * np.pi) == pytest.approx(-0.5)
    dset2.b[5][2] = 1.0  # g0' = i P_2(x) on the bonded arc [pi, 2 pi]
    x = (4.0 - 1.5 * np.pi) / (0.5 * np.pi)
    assert dset2.eval("g0p", 4.0) == pytest.approx(0.5j * (3.0 * x**2 - 1.0))
    with pytest.raises(ValueError):
        dset2.eval("nope", 0.0)
    with pytest.raises(ValueError):
        dset2.eval("q0", -1.0)


def test_density_derivatives():
    h = 0.5 * np.pi  # half-length of the crack arc
    dset = cs.DensitySet.zeros(4, np.pi, 2 * np.pi)
    dset.a[1][2] = 1.0  # P_2(x) = (3 x^2 - 1)/2
    assert dset.eval("g0p", 0.3, order=2) == pytest.approx(3.0 / h**2)
    # a1 P_1(x) + i b1 P_1(x) has the s-derivative (a1 + i b1)/h everywhere.
    dset3 = cs.DensitySet.zeros(4, np.pi, 2 * np.pi)
    dset3.a[1][1] = 0.7
    dset3.b[1][1] = -0.2
    for s in (0.2, dset3.centers[0], 2.9):
        assert dset3.eval("g0p", s, order=1) == pytest.approx((0.7 - 0.2j) / h)
    dset4 = cs.DensitySet.zeros(4, np.pi, 2 * np.pi)
    dset4.a[1][3] = 1.0  # P_3(x) = (5 x^3 - 3 x)/2
    assert dset4.eval("g0p", 1.2, order=3) == pytest.approx(15.0 / h**3)
    x = (1.2 - h) / h
    assert dset4.eval("g0p", 1.2, order=1) == pytest.approx((7.5 * x**2 - 1.5) / h)


def test_density_set_roundtrip():
    dset = cs.DensitySet.zeros(5, np.pi, 2 * np.pi)
    rng = np.random.default_rng(0)
    for p in range(8):
        dset.a[p] = rng.normal(size=dset.a[p].size)
        dset.b[p] = rng.normal(size=dset.b[p].size)
    saved = dset.to_dict()
    assert saved["basis"] == "legendre"
    assert saved["halves"] == [0.5 * np.pi, 0.5 * np.pi]
    back = cs.DensitySet.from_dict(saved)
    s = np.linspace(0.0, 2 * np.pi, 11)
    for name in ("q0", "g0p", "q", "gp"):
        assert np.allclose(back.eval(name, s), dset.eval(name, s))
    # A file without a basis holds monomial coefficients: reading it as
    # Legendre coefficients would give other densities.
    del saved["basis"]
    with pytest.raises(ValueError, match="basis"):
        cs.DensitySet.from_dict(saved)


def test_assemble_shapes(reference_setup):
    n = 8
    system = cs.assemble(reference_setup, n)
    m_pts = system.meta["points_per_arc"]
    # 14 real equation rows per collocation point pair plus the six scalar
    # side rows (constant tie 2, continuity 4); force balance and
    # single-valuedness are eliminated, one column per real constraint
    assert system.matrix.shape[0] == 14 * m_pts + 6
    assert system.matrix.shape[1] == 14 * n + 18
    assert system.meta["full_coefficients"] == 16 * n + 23
    assert len(system.row_tags) == system.matrix.shape[0]
    assert system.row_weights.shape == (system.matrix.shape[0],)
    with pytest.raises(ValueError):
        cs.assemble(reference_setup, 3)


def test_homogeneous_problem_has_zero_solution(unit_semicircle):
    setup = cs.ProblemSetup(
        contour=unit_semicircle,
        matrix=cs.Material(40.0, 0.25),
        inclusion=cs.Material(60.0, 0.35),
        surface=cs.SurfaceTension(0.1, 0.1, 0.1),
        load=cs.RemoteLoad(0.0, 0.0, 0.0),
    )
    dset, report = cs.solve_problem(setup, 8)
    assert dset.max_abs_coefficient() == pytest.approx(0.0, abs=1e-14)
    assert report.max_residual == pytest.approx(0.0, abs=1e-14)


def test_uniform_field_oracle(unit_semicircle):
    """Identical phases under hydrostatic load with matched crack tractions
    admit the exact constant-density solution; the solver must return it."""
    p = 1.0
    mat = cs.Material(40.0, 0.25)
    kap = mat.kappa
    img0 = -p * (kap - 1.0) / (2.0 * (kap + 1.0))
    img = -img0
    cp = 0.1 * (kap + 1.0) / (4.0 * mat.shear_modulus)
    setup = cs.ProblemSetup(
        contour=unit_semicircle,
        matrix=mat,
        inclusion=mat,
        surface=cs.SurfaceTension(0.1, 0.1, 0.0),
        load=cs.RemoteLoad(p, p, 0.0),
        tractions=cs.CrackTractions.constant(f1=p - 2 * cp * img0, f2=p + 2 * cp * img),
    )
    dset, report = cs.solve_problem(setup, 8)
    s = np.array([0.3, 0.5 * np.pi, 4.0])
    assert np.allclose(dset.eval("q0", s), p / 2, atol=1e-10)
    assert np.allclose(dset.eval("q", s), -p / 2, atol=1e-10)
    assert np.allclose(dset.eval("g0p", s), 1j * img0, atol=1e-10)
    assert np.allclose(dset.eval("gp", s), 1j * img, atol=1e-10)
    assert report.max_residual < 1e-10


def test_solution_linearity(reference_setup):
    d1, _ = cs.solve_problem(reference_setup, 10)
    d2, _ = cs.solve_problem(reference_setup.scaled_load(2.0), 10)
    scale = max(np.max(np.abs(np.concatenate(d2.a))), np.max(np.abs(np.concatenate(d2.b))))
    worst = max(
        max(np.max(np.abs(2.0 * d1.a[p] - d2.a[p])) for p in range(8)),
        max(np.max(np.abs(2.0 * d1.b[p] - d2.b[p])) for p in range(8)),
    )
    assert worst / scale < 1e-10


def test_bonded_arc_slope_proportionality(reference_setup, reference_solution):
    """The degree >= 1 coefficients of the bonded-arc g' follow g0' exactly."""
    dset, _ = reference_solution
    mu, kap = 40.0, cs.kolosov(0.25)
    mu0, kap0 = 60.0, cs.kolosov(0.35)
    lam = -mu * (kap0 + 1.0) / (mu0 * (kap + 1.0))
    assert np.allclose(dset.a[7][1:], lam * dset.a[5][1:], rtol=0, atol=1e-13 * (1 + np.max(np.abs(dset.a[5]))))
    assert np.allclose(dset.b[7][1:], lam * dset.b[5][1:], rtol=0, atol=1e-13 * (1 + np.max(np.abs(dset.b[5]))))


def test_mirror_symmetry_of_reference_solution(reference_solution, reference_setup):
    dset, _ = reference_solution
    s = np.linspace(0.1 * dset.l0, 0.9 * dset.l0, 101)
    f = np.abs(dset.eval("q0", s))
    assert np.max(np.abs(f - f[::-1])) / np.max(f) < 1e-4


def test_residual_report_contents(reference_solution):
    _, report = reference_solution
    assert report.rank == report.cols
    assert report.condition > 1.0
    expected_tags = {
        "inclusion_extension_re",
        "inclusion_extension_im",
        "matrix_extension_re",
        "matrix_extension_im",
        "crack_plus_re",
        "crack_plus_im",
        "crack_minus_re",
        "crack_minus_im",
        "bond_jump_re",
        "bond_jump_im",
        "bond_slope_tie_re",
        "bond_slope_tie_im",
        "force_balance_re",
        "force_balance_im",
        "single_valuedness_re",
        "single_valuedness_im",
        "g0_slope_continuity_tip0",
        "g0_slope_continuity_tip1",
        "g_slope_continuity_tip0",
        "g_slope_continuity_tip1",
    }
    assert expected_tags == set(report.per_tag)
    d = report.to_dict()
    assert d["rows"] == report.rows and "per_tag" in d


def test_conserved_integrals_of_reference_solution(reference_solution, reference_setup):
    dset, _ = reference_solution
    checks = {c.name: c for c in cs.conservation_checks(dset, reference_setup)}
    assert checks["force_balance"].value < 1e-6
    assert checks["single_valuedness"].value < 1e-6


CONSTRAINT_TAGS = [f"{name}_{part}" for name in ("force_balance", "single_valuedness") for part in ("re", "im")]


def _assert_constraints_hold(dset, report, setup):
    """The eliminated integral constraints hold to rounding: their residuals
    in the report, and both conserved integrals by independent quadrature
    (the weighted rows they replace left 4.6e-7 at N = 16)."""
    assert max(report.per_tag[tag] for tag in CONSTRAINT_TAGS) <= 1e-13
    assert all(c.value <= 1e-13 for c in cs.conservation_checks(dset, setup))


@pytest.mark.parametrize("shape, n", [("semicircle", 16), ("semicircle", 24), ("ellipse", 24)])
def test_integral_constraints_hold_exactly(reference_setup, shape, n):
    setup = reference_setup
    if shape == "ellipse":
        setup = replace(setup, contour=cs.elliptical_contour(1.5, 1.0, (0.0, np.pi)))
    dset, report = cs.solve_problem(setup, n)
    assert report.rank == report.cols == 14 * n + 18
    _assert_constraints_hold(dset, report, setup)


def test_integral_constraints_hold_exactly_on_fig6_grid():
    cases = _fig6_grid()
    for setup, (dset, report) in zip(cases, cs.solve_cases(cases, scenario_config("fig6").numerics.order)):
        _assert_constraints_hold(dset, report, setup)


def test_layout_column_bookkeeping():
    n = 6
    layout = _Layout(n)
    assert layout.total == 16 * n + 23
    assert _a_len(6, n) == n + 1  # bonded-arc q has one fewer real coefficient
    seen = np.concatenate([np.concatenate([layout.a_cols(p), layout.b_cols(p)]) for p in range(8)])
    assert np.array_equal(np.sort(seen), np.arange(layout.total))


def _fig6_grid():
    """The fig6 scenario's 3 x 3 grid of load angles and face tensions plus
    its base setup, all on the base setup's contour object."""
    base = scenario_config("fig6").setup
    cases = [
        replace(base, surface=replace(base.surface, gamma_plus=g, gamma_minus=g),
                load=replace(base.load, alpha=a))
        for a in (0.0, np.pi / 4, np.pi / 2)
        for g in (0.1, 0.5, 1.0)
    ]
    return cases + [base]


def test_solve_cases_matches_single_solves_on_fig6_grid():
    cases = _fig6_grid()
    batched = cs.solve_cases(cases, 20)
    for setup, (dset, report) in zip(cases, batched):
        single, single_report = cs.solve_problem(setup, 20)
        scale = single.max_abs_coefficient()
        for p in range(8):
            assert np.max(np.abs(dset.a[p] - single.a[p])) <= 1e-10 * scale
            assert np.max(np.abs(dset.b[p] - single.b[p])) <= 1e-10 * scale
        # The residual is in load units (load magnitude 1 here).
        assert abs(report.max_residual - single_report.max_residual) <= 1e-10 * setup.load.magnitude
        assert (report.rank, report.cols, report.condition) == (
            single_report.rank, single_report.cols, single_report.condition
        )
    assert batched[-1][1].meta["batch"] == {
        "cases": 10, "loads": 4, "table_builds": 2, "factorizations": 3,
    }
    assert set(batched[0][1].meta["timings"]) == {"tables_s", "rows_s", "lstsq_s"}


def test_solve_cases_one_case_is_bit_identical(reference_setup):
    (dset, report), = cs.solve_cases([reference_setup], 16)
    single, single_report = cs.solve_problem(reference_setup, 16)
    for p in range(8):
        assert np.array_equal(dset.a[p], single.a[p])
        assert np.array_equal(dset.b[p], single.b[p])
    assert report.to_dict() == single_report.to_dict()
    assert report.meta["batch"] == {
        "cases": 1, "loads": 1, "table_builds": 2, "factorizations": 1,
    }
    assert "timings" not in report.to_dict()["meta"]


def test_solve_cases_builds_tables_once_per_level(monkeypatch):
    from crackst import solver

    built = []
    init = solver._Tables.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(solver._Tables, "__init__", counting)
    cs.solve_cases(_fig6_grid(), 20)
    assert len(built) == 2


def test_solve_cases_needs_one_contour(reference_setup):
    other = replace(reference_setup, contour=cs.circular_contour(1.0, (0.0, np.pi)))
    with pytest.raises(ValueError, match="contour"):
        cs.solve_cases([reference_setup, other], 8)


def test_solve_cases_names_failing_case(unit_semicircle):
    unloaded = cs.ProblemSetup(
        contour=unit_semicircle,
        matrix=cs.Material(40.0, 0.25),
        inclusion=cs.Material(60.0, 0.35),
        surface=cs.SurfaceTension(0.1, 0.1, 0.1),
        load=cs.RemoteLoad(0.0, 0.0, 0.0),
    )
    # Face tractions no polynomial can follow, on a matrix truncated to rank
    # 128 of 130 by rcond; the unloaded cases fit exactly.
    square_wave = cs.CrackTractions(
        f1=lambda s: np.sign(np.sin(40.0 * s)), f2=lambda s: -np.sign(np.sin(40.0 * s))
    )
    cases = [unloaded, replace(unloaded, tractions=square_wave), unloaded]
    with pytest.raises(cs.SingularSystemError, match="case 1") as err:
        cs.solve_cases(cases, 8, rcond=1e-2)
    assert err.value.case == 1


def test_solver_warnings(reference_setup, caplog):
    # Identical phases, unloaded (so the truncated solve still fits), on a
    # coarse quadrature and with rcond cutting the rank.
    same = replace(reference_setup, inclusion=reference_setup.matrix, load=cs.RemoteLoad(0.0, 0.0))
    coarse = cs.QuadratureRule(nodes_per_panel=4, panels_per_arc=2)
    with caplog.at_level("WARNING", logger="crackst"):
        _, report = cs.solve_problem(same, 8, rule=coarse, rcond=1e-2)
    assert report.rank < report.cols and report.degenerate_pair
    assert report.meta["quadrature_stabilized"] is False
    messages = " | ".join(r.getMessage() for r in caplog.records if r.name == "crackst")
    assert "rank" in messages
    assert "did not stabilize" in messages
    assert "degenerate material pair" in messages


# cols is the full rank 14N + 18.
@pytest.mark.parametrize(
    "shape, n, cols",
    [("semicircle", 16, 242), ("semicircle", 24, 354), ("semicircle", 32, 466),
     ("semicircle", 48, 690), ("semicircle", 64, 914), ("ellipse", 24, 354)],
)
def test_adaptive_quadrature_stabilizes_at_first_refinement(reference_setup, caplog, shape, n, cols):
    # The first-order near-diagonal kernel limit left a drift floor of 5e-9
    # to 1e-8, above MATRIX_STABILITY_TOL, at N = 24 and 64 and on the ellipse.
    setup = reference_setup
    if shape == "ellipse":
        setup = replace(setup, contour=cs.elliptical_contour(1.5, 1.0, (0.0, np.pi)))
    with caplog.at_level("WARNING", logger="crackst"):
        _, report = cs.solve_problem(setup, n)
    assert report.meta["quadrature_stabilized"] is True
    assert report.meta["batch"]["table_builds"] == 2
    assert not any("did not stabilize" in r.getMessage() for r in caplog.records)
    assert report.rank == report.cols == cols


def test_tabulated_ellipse_solve_matches_analytic(reference_setup, caplog):
    # 64 samples of the 1.5:1 ellipse.  Measured: the densities within
    # 4.2e-10 of the analytic ellipse's, relative to their largest value.
    theta = 2 * np.pi * np.arange(64) / 64
    tabulated = cs.TabulatedContour(1.5 * np.cos(theta) + 1j * np.sin(theta), 0.5)
    analytic = replace(reference_setup, contour=cs.elliptical_contour(1.5, 1.0, (0.0, np.pi)))
    with caplog.at_level("WARNING", logger="crackst"):
        dset, report = cs.solve_problem(replace(reference_setup, contour=tabulated), 24)
    assert report.meta["batch"]["table_builds"] == 2
    assert not [r for r in caplog.records if r.name == "crackst"]
    ref, _ = cs.solve_problem(analytic, 24)
    l0, l = tabulated.l0, tabulated.l
    # Points at least 0.5% of an arc from the tips, on both arcs.
    s = np.concatenate([np.linspace(0.005, 0.995, 200) * l0,
                        l0 + np.linspace(0.005, 0.995, 200) * (l - l0)])
    for which in ("q0", "g0p", "q", "gp"):
        expected = ref.eval(which, s)
        assert np.max(np.abs(dset.eval(which, s) - expected)) < 1e-8 * np.max(np.abs(expected))
