import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import legendre

import crackst as cs
from crackst import solver, tips
from crackst.geometry import MEMO_SIZE
from crackst.scenarios import scenario_config
from crackst.solver import _LegendreBasis

from blas_threads import _thread_controls


def test_full_coefficient_count():
    assert _LegendreBasis(np.pi, 2 * np.pi, 16).total == 279
    assert _LegendreBasis(np.pi, 2 * np.pi, 30).total == 503


def test_collocation_points_arithmetic():
    basis = _LegendreBasis(np.pi, 2 * np.pi, 16)
    basis.delta = 0.01 * np.pi
    crack, bond = basis.collocation_points()
    m = int(round(solver.OVERSAMPLE * 17))
    assert crack.size == bond.size == m == 51
    assert np.allclose(crack[[0, 25, -1]], [0.01 * np.pi, 0.5 * np.pi, 0.99 * np.pi])
    assert np.allclose(bond[[0, 25, -1]], [1.01 * np.pi, 1.5 * np.pi, 1.99 * np.pi])
    assert np.array_equal(crack, 0.01 * np.pi + np.arange(m) * (np.pi - 0.02 * np.pi) / (m - 1))


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
    for s in (0.2, dset3.basis.centers[0], 2.9):
        assert dset3.eval("g0p", s, order=1) == pytest.approx((0.7 - 0.2j) / h)
    dset4 = cs.DensitySet.zeros(4, np.pi, 2 * np.pi)
    dset4.a[1][3] = 1.0  # P_3(x) = (5 x^3 - 3 x)/2
    assert dset4.eval("g0p", 1.2, order=3) == pytest.approx(15.0 / h**3)
    x = (1.2 - h) / h
    assert dset4.eval("g0p", 1.2, order=1) == pytest.approx((7.5 * x**2 - 1.5) / h)


def test_density_eval_matches_clenshaw_sums():
    """DensitySet.eval multiplies the basis' table by the coefficients; the
    Legendre series summed by Clenshaw's recurrence (legval) of the
    differentiated coefficients is the reference, to 8 (N + 2) eps of its
    largest value (45 eps measured at N = 24)."""
    n = 24
    dset = cs.DensitySet.zeros(n, np.pi, 2 * np.pi)
    rng = np.random.default_rng(1)
    for p in range(8):
        dset.a[p], dset.b[p] = rng.normal(size=dset.a[p].size), rng.normal(size=dset.b[p].size)
    basis, s = dset.basis, np.linspace(0.0, 2 * np.pi, 201)
    for order in range(4):
        for p in range(8):
            arc, a, b = p // 4, dset.a[p], dset.b[p]
            on_arc = s[s <= np.pi] if arc == 0 else s[s > np.pi]
            h = basis.halves[arc]
            coef = legendre.legder(a + 1j * np.pad(b, (0, a.size - b.size)), order) / h**order
            want = legendre.legval((on_arc - basis.centers[arc]) / h, coef)
            got = dset.eval(solver.FUNCTIONS[p % 4], on_arc, order)
            assert np.max(np.abs(got - want)) <= 8 * (n + 2) * np.finfo(float).eps * np.max(np.abs(want))


@pytest.mark.parametrize("order", [-1, 4, 1.5, True, "1"])
def test_density_eval_rejects_bad_orders(order):
    dset = cs.DensitySet.zeros(4, np.pi, 2 * np.pi)
    with pytest.raises(ValueError, match=f"derivative order {order!r} "):
        dset.eval("q0", 0.5, order=order)
    assert not dset.basis._tables  # rejected before the memo is consulted


@pytest.mark.parametrize("enriched", [False, True])
def test_table_memo_is_read_only_and_bit_equal_to_functions(reference_setup, enriched):
    contour, n = reference_setup.contour, 8

    def new_basis():
        return tips.TipEnrichedBasis(reference_setup, n) if enriched else _LegendreBasis(contour.l0, contour.l, n)

    basis, fresh = new_basis(), new_basis()
    points = (np.linspace(0.0, contour.l0, 41), np.linspace(contour.l0, contour.l, 37))
    for order in (3, 0, 2, 1):  # a derivative before the values it is taken from
        for arc, s in enumerate(points):
            table = basis.table(arc, s, order)
            want = fresh.functions(arc, s, order)
            assert not table.flags.writeable
            assert table.shape == want.shape and table.strides == want.strides
            assert np.array_equal(table, want)
            assert basis.table(arc, s.copy(), order) is table


def test_table_memo_is_bounded():
    basis = _LegendreBasis(np.pi, 2 * np.pi, 4)
    point_sets = [np.array([0.1 + 1e-3 * k]) for k in range(MEMO_SIZE + 5)]
    for s in point_sets:
        basis.table(0, s)
    # The oldest are dropped first.
    kept = [key[-1] for key in basis._tables]
    assert kept == [s.tobytes() for s in point_sets[-MEMO_SIZE:]]


def _counting_functions(monkeypatch):
    """Record every (basis, arc, order, points) that _LegendreBasis.functions
    tabulates."""
    calls = []
    functions = solver._LegendreBasis.functions

    def counting(self, arc, s, order=0):
        s = np.asarray(s, dtype=float)
        calls.append((id(self), arc, order, s.shape, s.tobytes()))
        return functions(self, arc, s, order)

    monkeypatch.setattr(solver._LegendreBasis, "functions", counting)
    return calls


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
    assert type(back.basis) is _LegendreBasis and back.basis.n == back.n == 5
    s = np.linspace(0.0, 2 * np.pi, 11)
    for name in ("q0", "g0p", "q", "gp"):
        assert np.allclose(back.eval(name, s), dset.eval(name, s))
    # A file without a basis holds monomial coefficients: reading it as
    # Legendre coefficients would give other densities.
    del saved["basis"]
    with pytest.raises(ValueError, match="basis"):
        cs.DensitySet.from_dict(saved)


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda d: d["pieces"].pop(), "7 pieces, expected 8"),
        (lambda d: d["pieces"].append(d["pieces"][0]), "9 pieces, expected 8"),
        (lambda d: d["pieces"][3].update(function="q"), r"piece 3 \(gp on arc 0\) is labelled 'q' on arc 0"),
        (lambda d: d["pieces"][5].update(arc=0), r"piece 5 \(g0p on arc 1\) is labelled 'g0p' on arc 0"),
        (lambda d: d["pieces"][6]["a"].pop(), r"piece 6 \(q on arc 1\) has 4 real coefficients, expected 5"),
        (lambda d: d["pieces"][2]["b"].append(0.0), r"piece 2 \(q on arc 0\) has 6 imaginary coefficients"),
        (lambda d: d.update(order="4"), "order '4' is not a non-negative integer"),
        (lambda d: d.update(order=4.0), "order 4.0 is not a non-negative integer"),
        (lambda d: d.update(order=-1), "order -1 is not a non-negative integer"),
        (lambda d: d.update(order=True), "order True is not a non-negative integer"),
        (lambda d: d.update(l0=7.0), r"l0 7.0 is not in \(0, l\)"),
        (lambda d: d.update(l0=0.0), r"l0 0.0 is not in \(0, l\)"),
        (lambda d: d.update(l=float("nan")), "l nan is not a finite number"),
        (lambda d: d.update(l0="1"), "l0 '1' is not a finite number"),
        (lambda d: d["centers"].reverse(), "centers .* are not the basis'"),
        (lambda d: d["halves"].__setitem__(1, 1.0), "halves .* are not the basis'"),
        (lambda d: d.pop("pieces"), "densities record has no 'pieces'"),
        (lambda d: d["pieces"][4].pop("a"), r"piece 4 \(q0 on arc 1\) has no 'a' \(real coefficients\)"),
        (lambda d: d["pieces"][7].pop("b"), r"piece 7 \(gp on arc 1\) has no 'b' \(imaginary coefficients\)"),
        (lambda d: d["pieces"][1]["b"].__setitem__(0, float("nan")), r"piece 1 \(g0p on arc 0\) has a non-finite imaginary"),
    ],
)
def test_density_set_from_dict_rejects_malformed_records(damage, message):
    saved = cs.DensitySet.zeros(4, np.pi, 2 * np.pi).to_dict()
    damage(saved)
    with pytest.raises(ValueError, match=message):
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
    assert np.max(np.abs(np.concatenate(dset.a + dset.b))) == pytest.approx(0.0, abs=1e-14)
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
    """Doubling the remote load and the crack-face tractions together
    doubles every coefficient, without tractions and with constant ones."""
    load = reference_setup.load
    for f1, f2 in ((0.0, 0.0), (0.3 - 0.2j, -0.1 + 0.4j)):
        d1, d2 = (
            cs.solve_problem(
                replace(
                    reference_setup,
                    load=cs.RemoteLoad(k * load.sigma1, k * load.sigma2, load.alpha),
                    tractions=cs.CrackTractions.constant(k * f1, k * f2),
                ),
                10,
            )[0]
            for k in (1.0, 2.0)
        )
        scale = max(np.max(np.abs(np.concatenate(d2.a))), np.max(np.abs(np.concatenate(d2.b))))
        worst = max(
            max(np.max(np.abs(2.0 * d1.a[p] - d2.a[p])) for p in range(8)),
            max(np.max(np.abs(2.0 * d1.b[p] - d2.b[p])) for p in range(8)),
        )
        assert worst / scale < 1e-10, (f1, f2)


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


@pytest.mark.parametrize(
    "shape, n", [("semicircle", 16), ("semicircle", 24), ("semicircle", 64), ("ellipse", 24)]
)
def test_solution_is_reproducible_across_blas_thread_counts(reference_setup, shape, n):
    """A threaded OpenBLAS splits its sums at other places than one thread
    does, so the tables change in their last bits with the thread count, and
    the least squares amplifies that by at most its condition.  Between 1
    and 2 threads the coefficients move by at most condition x eps of the
    largest (0.062, 0.002, 0.007 and 0.002 of that bound measured with the
    QR solve, 0.13, 0.032, 0.028 and 0.095 with gelsd; at N = 64 1.0e-6 of
    the largest).  The bit-identity tests run on one thread."""
    controls = _thread_controls()
    if controls is None:
        pytest.skip("the thread count of numpy's OpenBLAS cannot be set")
    get, set_ = controls
    setup = reference_setup
    if shape == "ellipse":
        setup = replace(setup, contour=cs.elliptical_contour(1.5, 1.0, (0.0, np.pi)))
    before, solved = get(), []
    try:
        for threads in (1, 2):
            set_(threads)
            dset, report = cs.solve_problem(setup, n)
            solved.append((np.concatenate(dset.a + dset.b), report.condition))
    finally:
        set_(before)
    (one, condition), (two, _) = solved
    assert np.max(np.abs(two - one)) <= condition * np.finfo(float).eps * np.max(np.abs(one))


def test_integral_constraints_hold_exactly_on_fig6_grid():
    cases = _fig6_grid()
    for setup, (dset, report) in zip(cases, cs.solve_cases(cases, scenario_config("fig6").numerics.order)):
        _assert_constraints_hold(dset, report, setup)


def test_layout_column_bookkeeping():
    n = 6
    basis = _LegendreBasis(np.pi, 2 * np.pi, n)
    assert basis.total == 16 * n + 23
    assert basis.a_cols(6).size == n + 1  # bonded-arc q has one fewer real coefficient


@pytest.mark.parametrize(
    "enriched, gamma_interface",
    [(False, 0.1), (True, 0.1), (False, 0.0), (True, 0.0)],
    ids=["False", "True", "False-zero-interface", "True-zero-interface"],
)
def test_basis_columns_select_from_one_table_per_arc(reference_setup, enriched, gamma_interface):
    """Each part's columns lie inside its arc's function table, as many as
    its coefficients; the parts on an arc take every column of its table,
    and the coefficients of all parts partition the full vector."""
    setup = replace(reference_setup, surface=replace(reference_setup.surface, gamma_interface=gamma_interface))
    contour, n = setup.contour, 8
    if enriched:
        basis = tips.TipEnrichedBasis(setup, n)
    else:
        basis = _LegendreBasis(contour.l0, contour.l, n)
    taken = []
    for arc in (0, 1):
        width = basis.functions(arc, [contour.l0]).shape[1]
        used = []
        for p in range(4 * arc, 4 * arc + 4):
            for cols, coefficients in zip(basis.columns(p), (basis.a_cols(p), basis.b_cols(p))):
                selected = np.r_[cols]
                assert np.array_equal(np.arange(width)[cols], selected)  # inside the table
                assert np.unique(selected).size == selected.size == coefficients.size
                used.append(selected)
                taken.append(coefficients)
        assert np.array_equal(np.unique(np.concatenate(used)), np.arange(width))  # no unused function
    assert np.array_equal(np.sort(np.concatenate(taken)), np.arange(basis.total))


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
        scale = np.max(np.abs(np.concatenate(single.a + single.b)))
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
    built = []
    init = solver._Tables.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(solver._Tables, "__init__", counting)
    cs.solve_cases(_fig6_grid(), 20)
    assert len(built) == 2


def test_fig6_grid_tabulates_each_point_set_once(monkeypatch):
    """The solve and the openings of every case read one memo: the cases
    of a call share its basis."""
    calls = _counting_functions(monkeypatch)
    cases = _fig6_grid()
    for setup, (dset, _) in zip(cases, cs.solve_cases(cases, 20)):
        cs.postprocess.max_crack_opening(dset, setup)
    assert calls and len(set(calls)) == len(calls)


@pytest.mark.parametrize("levels", [1, 1 + solver.MAX_ADAPTIVE_ROUNDS])
def test_assembly_tabulates_collocation_points_once(reference_setup, monkeypatch, levels):
    """Every table comes from one ``functions`` call per (arc, point set,
    order): V, the basis at the collocation points, is read from the basis'
    memo at every quadrature level; only the node tables are built per level."""
    monkeypatch.setattr(solver, "MATRIX_STABILITY_TOL", 0.0)  # every refinement runs
    calls, values = _counting_functions(monkeypatch), []
    init = solver._Tables.__init__

    def recording(self, *args):
        init(self, *args)
        values.append(self.V)

    monkeypatch.setattr(solver._Tables, "__init__", recording)
    rule = cs.QuadratureRule(adaptive=levels > 1)
    ((system, _),) = solver._assemble_cases([reference_setup], 8, rule=rule)
    assert system.meta["batch"]["table_builds"] == len(values) == levels
    assert all(np.array_equal(v[arc], values[0][arc]) for v in values for arc in (0, 1))
    assert len(set(calls)) == len(calls)
    crack, bond = system.basis.collocation_points()
    at_points = [call for call in calls if call[4] in (crack.tobytes(), bond.tobytes())]
    assert sorted(call[1:3] for call in at_points) == [(arc, order) for arc in (0, 1) for order in range(3)]
    assert len(calls) == len(at_points) + 2 * levels + 2  # node tables per level and arc, tip rows


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


def test_failing_solve_names_its_rows_from_its_residuals(reference_setup, monkeypatch):
    """The cases above, with no SVD outside the least squares (the truncated
    solve takes np.linalg.lstsq): the error names the face rows, which
    cannot follow the square-wave tractions, by their residuals."""

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    unloaded = replace(reference_setup, load=cs.RemoteLoad(0.0, 0.0, 0.0))
    square_wave = cs.CrackTractions(
        f1=lambda s: np.sign(np.sin(40.0 * s)), f2=lambda s: -np.sign(np.sin(40.0 * s))
    )
    cases = [unloaded, replace(unloaded, tractions=square_wave), unloaded]
    with pytest.raises(cs.SingularSystemError) as err:
        cs.solve_cases(cases, 8, rcond=1e-2)
    assert err.value.case == 1
    message = str(err.value)
    assert "rank" in message
    assert re.search(r"largest residuals by row tag: crack_(plus|minus)_(re|im) \d\.\d{3}e[+-]\d\d", message)


def _equilibrated_singular_values(system):
    """Singular values of the weighted matrix with each column divided by
    its largest |entry|, as the solve equilibrates it."""
    return np.linalg.svd(system.matrix / np.max(np.abs(system.matrix), axis=0), compute_uv=False)


def test_solver_warnings(reference_setup, caplog):
    # Identical phases, unloaded (so the truncated solve still fits), on a
    # coarse quadrature and with rcond cutting the rank.
    same = replace(reference_setup, inclusion=reference_setup.matrix, load=cs.RemoteLoad(0.0, 0.0))
    coarse = cs.QuadratureRule(nodes_per_panel=4, panels_per_arc=2)
    with caplog.at_level("WARNING", logger="crackst"):
        system = cs.assemble(same, 8, rule=coarse)
        _, report = cs.solve(system, rcond=1e-2)
    assert report.rank < report.cols and report.degenerate_pair
    sing = _equilibrated_singular_values(system)
    assert report.rank == np.sum(sing > 1e-2 * sing[0])
    assert report.meta["quadrature_stabilized"] is False
    messages = " | ".join(r.getMessage() for r in caplog.records if r.name == "crackst")
    assert "rank" in messages
    assert "did not stabilize" in messages
    assert "degenerate material pair" in messages


@pytest.mark.parametrize("rcond", [float("nan"), float("inf"), -1.0, 1.0, 2.0])
def test_bad_rcond_is_rejected_before_assembly(reference_setup, monkeypatch, rcond):
    system = cs.assemble(reference_setup, 8)

    def refuse(*args, **kwargs):
        raise AssertionError("assembled with a bad rcond")

    monkeypatch.setattr(solver, "_assemble_cases", refuse)
    for call in (
        lambda: cs.solve(system, rcond=rcond),
        lambda: cs.solve_problem(reference_setup, 8, rcond=rcond),
        lambda: cs.solve_cases([reference_setup], 8, rcond=rcond),
    ):
        with pytest.raises(ValueError, match="rcond"):
            call()


def test_non_finite_system_names_its_row(reference_setup):
    system = cs.assemble(reference_setup, 8)
    for row, entry in ((17, np.nan), (len(system.row_tags) - 3, np.inf)):
        for field in ("matrix", "rhs"):
            broken = replace(system, **{field: getattr(system, field).copy()})
            getattr(broken, field)[row, ...] = entry
            with pytest.raises(ValueError, match=re.escape(f"row {row} ({system.row_tags[row]!r})")):
                cs.solve(broken)


# Conditions from the QR's Krylov estimates against a full SVD; cols is the
# full rank 14N + 18 (298 on the fig6 setup).
@pytest.mark.parametrize(
    "shape, n", [("semicircle", 16), ("semicircle", 24), ("semicircle", 32), ("semicircle", 48),
                 ("semicircle", 64), ("ellipse", 24), ("fig6", 20)],
)
def test_condition_and_rank_match_the_svd(reference_setup, shape, n):
    setup = {
        "semicircle": reference_setup,
        "ellipse": replace(reference_setup, contour=cs.elliptical_contour(1.5, 1.0, (0.0, np.pi))),
        "fig6": scenario_config("fig6").setup,
    }[shape]
    system = cs.assemble(setup, n)
    _, report = cs.solve(system)
    sing = _equilibrated_singular_values(system)
    cond = sing[0] / sing[-1]
    assert report.rank == report.cols == 14 * n + 18
    assert abs(report.condition - cond) <= max(1e-10, np.finfo(float).eps * cond) * cond


def test_unsettled_krylov_iteration_takes_the_svd(monkeypatch):
    """A Kahan matrix (Kahan, 1966) is upper triangular with a diagonal far
    above rcond times its largest singular value (1.8e-2 here), while its
    smallest one sits near that bound (3.3e-13).  The sigma_min iteration
    never settles on it: 40 steps, to its full 160 columns, without the cap.
    Capped, it gives up and the least squares take the SVD."""
    n, c = 160, 0.16
    r = np.diag(np.sqrt(1.0 - c * c) ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
    steps, largest = [], solver._largest_singular_value

    def counted(apply, apply_t, size, rtol):
        calls = []
        estimate = largest(lambda x: calls.append(1) or apply(x), apply_t, size, rtol)
        steps.append(len(calls))
        return estimate

    monkeypatch.setattr(solver, "_largest_singular_value", counted)
    rhs = np.cos(np.arange(n))[:, None]
    scale = solver._column_scale(r)
    sol, rank, cond = solver._least_squares(r, rhs, scale, 1e-13)
    # The start block's product and one per unsettled estimate.
    assert len(steps) == 2 and steps[0] <= steps[1] == solver.KRYLOV_MAX_STEPS + 1
    want, _, want_rank, sing = np.linalg.lstsq(r / scale, rhs, rcond=1e-13)
    assert rank == want_rank == n and cond == sing[0] / sing[-1]
    assert np.allclose(sol, want / scale[:, None], rtol=1e-12, atol=0.0)


def test_householder_qr_in_place_matches_numpy(reference_setup):
    """One copy of the matrix holds the QR and then R; the reflectors, tau
    and R are np.linalg.qr's bit for bit, and R is a C-ordered view."""
    mat = cs.assemble(reference_setup, 16).matrix
    h, tau = np.linalg.qr(mat, mode="raw")
    qrt, tau_in_place = solver._householder_qr(mat)
    assert np.array_equal(qrt, h) and np.array_equal(tau_in_place, tau)
    scale = solver._column_scale(mat)
    n = mat.shape[1]
    r = solver._equilibrated_r(qrt, scale)
    assert np.shares_memory(r, qrt) and r.strides == (8 * mat.shape[0], 8)
    assert np.array_equal(r, np.triu(h.T[:n]) / scale)


@pytest.mark.parametrize("layout", ["C", "F", "view"])
def test_householder_qr_matches_numpy_raw_qr_on_any_layout(layout):
    """The blocked copy into qrt takes C-ordered, F-ordered and strided input;
    600 rows leave a partial last block of the 256-row copy."""
    base = np.random.default_rng(5).standard_normal((1200, 74))
    mat = {
        "C": np.ascontiguousarray(base[:600, :37]),
        "F": np.asfortranarray(base[:600, :37]),
        "view": base[::2, 1::2],
    }[layout]
    assert mat.shape == (600, 37) and mat.flags.c_contiguous == (layout == "C")
    assert mat.flags.f_contiguous == (layout == "F")
    h, tau = np.linalg.qr(mat, mode="raw")
    qrt, tau_in_place = solver._householder_qr(mat)
    assert qrt.flags.c_contiguous and np.array_equal(qrt, h) and np.array_equal(tau_in_place, tau)


@pytest.mark.parametrize("order", [16.5, 16.0, True, "16"])
def test_solve_rejects_a_non_integral_order(reference_setup, order):
    # 16.5 used to fail deep in np.linspace with a TypeError.
    with pytest.raises(ValueError, match=f"polynomial order must be an integer, got {re.escape(repr(order))}"):
        solver.solve_problem(reference_setup, order)


def test_assemble_accepts_a_numpy_integer_order(reference_setup):
    want = cs.assemble(reference_setup, 8)
    got = cs.assemble(reference_setup, np.int64(8))
    assert np.array_equal(got.matrix, want.matrix) and np.array_equal(got.rhs, want.rhs)


def test_solve_does_not_load_numpy_random():
    # The Krylov iterations start from a fixed block; numpy.random would add
    # about 6 MB to a process that never loads it otherwise.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import crackst as cs\n"
        "setup = cs.ProblemSetup(cs.circular_contour(1.0, (0.0, np.pi)), cs.Material(40.0, 0.25),\n"
        "                        cs.Material(60.0, 0.35), cs.SurfaceTension(0.1, 0.1, 0.1),\n"
        "                        cs.RemoteLoad(1.0, 0.0, 0.0))\n"
        "_, report = cs.solve_problem(setup, 16)\n"
        "assert report.rank == report.cols\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random was loaded'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cs.__file__)))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


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


def test_nodes_on_collocation_points_take_the_slope_limit(reference_setup):
    # 17 nodes per panel put a node on a collocation point, where the raw
    # quotient of the Cauchy table divides by zero (the solve then rejects
    # the non-finite row).  Measured: 1.3e-12 of the largest coefficient.
    rule = cs.QuadratureRule(17, 3, adaptive=False)
    basis = _LegendreBasis(reference_setup.contour.l0, reference_setup.contour.l, 16)
    nodes = rule.discretize(reference_setup.contour, 0.5 * basis.delta).s
    assert np.intersect1d(nodes, np.concatenate(basis.collocation_points())).size
    odd, _ = cs.solve_problem(reference_setup, 16, rule=rule)
    ref, _ = cs.solve_problem(reference_setup, 16)
    got, want = (np.concatenate(d.a + d.b) for d in (odd, ref))
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", ["semicircle", "ellipse"])
@pytest.mark.parametrize("n", [24, 64])
def test_cauchy_table_is_the_principal_value_of_each_function(unit_semicircle, shape, n):
    """A[arc] holds cauchy_pv of each zero-extended basis function of the arc
    at the collocation points: one near-pair rule, on the final level's rule
    and tip panel.  Measured: at most 3.3e-13 of max |A|."""
    contour = {"semicircle": unit_semicircle,
               "ellipse": cs.elliptical_contour(1.5, 1.0, (0.0, np.pi))}[shape]
    basis = _LegendreBasis(contour.l0, contour.l, n)
    points = basis.collocation_points()
    pts, arc_of_pt = np.concatenate(points), np.repeat([0, 1], [p.size for p in points])
    rule = cs.QuadratureRule().refined()
    disc = rule.discretize(contour, 0.5 * basis.delta)
    tab = solver._Tables(contour, pts, arc_of_pt, disc, basis)
    scale = max(np.max(np.abs(a)) for a in tab.A.values())
    for arc in (0, 1):
        def extended(s, arc=arc):
            on_arc = np.where(s <= contour.l0, 0, 1) == arc
            return np.where(on_arc, basis.functions(arc, s).T, 0.0)

        pv = cs.cauchy_pv(contour, extended, pts, rule, 0.5 * basis.delta)
        assert np.max(np.abs(pv - tab.A[arc])) <= 1e-12 * scale, arc


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
