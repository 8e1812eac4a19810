"""The streamed assembly against its whole-matrix reference form
(reference_assembly.py): equal bit for bit, and leaner in memory."""

import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import crackst as cs
from crackst import solver, tips
from crackst.kernels import FINE_RULE
from crackst.scenarios import scenario_config

import reference_assembly as ref
from test_solver import _fig6_grid


def _coefficients(dset):
    return dset.a + dset.b


def _assert_identical(setups, n, **kwargs):
    """Assemble and solve setups both ways and compare every output."""
    systems = list(solver._assemble_cases(setups, n, **kwargs))
    want = ref.assemble_cases(setups, n, **kwargs)
    assert len(systems) == len(want)
    for (system, cases), expected in zip(systems, want):
        assert cases == expected["cases"]
        assert system.matrix.flags.c_contiguous
        assert np.array_equal(system.matrix, expected["matrix"])
        assert np.array_equal(system.rhs, expected["rhs"])
        assert np.array_equal(system.row_weights, expected["weights"])
        assert system.row_tags == expected["tags"]
        assert system.meta.get("quadrature_drift") == (expected["drifts"] or [None])[-1]
        got = [dset for dset, _ in solver._solve_columns(system, cases=cases)]
        for dset, dset_ref in zip(got, ref.densities(expected), strict=True):
            for c, c_ref in zip(_coefficients(dset), _coefficients(dset_ref), strict=True):
                assert np.array_equal(c, c_ref) and np.array_equal(np.signbit(c), np.signbit(c_ref))
    return systems


@pytest.mark.parametrize("n", [16, 64])
def test_semicircle_matches_reference(reference_setup, n):
    _assert_identical([reference_setup], n)


def test_ellipse_matches_reference(reference_setup):
    ellipse = replace(reference_setup, contour=cs.elliptical_contour(1.5, 1.0, (0.0, np.pi)))
    _assert_identical([ellipse], 24)


def test_fig6_grid_matches_reference():
    assert len(_assert_identical(_fig6_grid(), 20)) == 3


def test_tip_enriched_basis_matches_reference(reference_setup):
    basis = tips.TipEnrichedBasis(reference_setup, 24)
    _assert_identical([reference_setup], 24, rule=FINE_RULE, basis=basis)


def test_bases_set_their_collocation(reference_setup):
    """The reference form reads the collocation from the basis, so it is
    pinned here: the solver's inset, tapered rows, and the tip-enriched
    basis' untapered rows up to 2 d_min from the tips."""
    contour, n = reference_setup.contour, 24
    legendre = solver._LegendreBasis(contour.l0, contour.l, n)
    assert legendre.delta == solver.DEFAULT_INSET_FRACTION * min(contour.l0, contour.l - contour.l0)
    assert (legendre.taper_exponent, legendre.tip_weight) == (solver.DEFAULT_TAPER, solver.TIP_ROW_WEIGHT)
    m_pts, delta = int(round(solver.OVERSAMPLE * (n + 1))), legendre.delta
    crack, bond = legendre.collocation_points()
    assert np.array_equal(crack, delta + np.arange(m_pts) * (contour.l0 - 2.0 * delta) / (m_pts - 1))
    assert np.array_equal(
        bond, contour.l0 + delta + np.arange(m_pts) * ((contour.l - contour.l0) - 2.0 * delta) / (m_pts - 1)
    )
    enriched = tips.TipEnrichedBasis(reference_setup, n)
    assert enriched.delta == 2.0 * enriched.d_min
    assert (enriched.taper_exponent, enriched.tip_weight) == (0.0, tips.RESOLVED_TIP_ROW_WEIGHT)
    assert enriched.zone.width == tips.TIP_ZONE_WIDTH * legendre.delta
    crack, bond = enriched.collocation_points()
    assert crack[0] >= enriched.d_min and contour.l0 - crack[-1] >= enriched.d_min
    assert crack.size == bond.size == m_pts + 2 * int(round(solver.OVERSAMPLE * tips.TIP_ZONE_TERMS))


@pytest.mark.parametrize("enriched", [False, True])
def test_per_arc_kernel_tables_match_sliced_reference(reference_setup, enriched):
    """B1/B2 from the per-arc k1/k2 tables equal those from tables built over
    all nodes and sliced to each arc, for both bases."""
    contour, n = reference_setup.contour, 24
    if enriched:
        basis, rule = tips.TipEnrichedBasis(reference_setup, n), FINE_RULE
    else:
        basis, rule = solver._LegendreBasis(contour.l0, contour.l, n), cs.QuadratureRule()
    points = basis.collocation_points()
    pts = np.concatenate(points)
    arc_of_pt = np.repeat([0, 1], [points[0].size, points[1].size])
    disc = rule.discretize(contour, 0.5 * basis.delta)
    tab = solver._Tables(contour, pts, arc_of_pt, disc, basis)
    want_b1, want_b2 = ref.regular_tables(contour, pts, arc_of_pt, disc, basis)
    assert tab.B1.keys() == want_b1.keys() and tab.B2.keys() == want_b2.keys()
    for key in want_b1:
        assert np.array_equal(tab.B1[key], want_b1[key]), key
        assert np.array_equal(tab.B2[key], want_b2[key]), key


def test_non_adaptive_rule_matches_reference(reference_setup):
    ((system, _),) = _assert_identical([reference_setup], 16, rule=cs.QuadratureRule(adaptive=False))
    assert "quadrature_drift" not in system.meta
    assert system.meta["batch"]["table_builds"] == 1


def test_unstabilized_levels_match_reference(reference_setup, monkeypatch, caplog):
    # With a zero tolerance no level stabilizes, so the rows are assembled
    # once, on the tables of the last refinement.
    monkeypatch.setattr(solver, "MATRIX_STABILITY_TOL", 0.0)
    (expected,) = ref.assemble_cases([reference_setup], 16)
    assert len(expected["drifts"]) == solver.MAX_ADAPTIVE_ROUNDS == 3
    for rounds in (1, 2):
        monkeypatch.setattr(solver, "MAX_ADAPTIVE_ROUNDS", rounds)
        system = cs.assemble(reference_setup, 16)
        assert system.meta["quadrature_drift"] == expected["drifts"][rounds - 1]
    monkeypatch.setattr(solver, "MAX_ADAPTIVE_ROUNDS", 3)
    caplog.clear()
    with caplog.at_level("WARNING", logger="crackst"):
        ((system, _),) = _assert_identical([reference_setup], 16)
    assert system.meta["quadrature_stabilized"] is False
    assert system.meta["batch"]["table_builds"] == 4
    assert sum("did not stabilize" in r.getMessage() for r in caplog.records) == 1


def test_groups_share_the_drift_of_the_call():
    """The drift is measured on the tables, once per call, which is sound
    because no right-hand side depends on the quadrature."""
    setups = _fig6_grid()
    systems = list(solver._assemble_cases(setups, 20))
    assert len(systems) == 3
    assert len({system.meta["quadrature_drift"] for system, _ in systems}) == 1
    basis = systems[0][0].basis
    points = basis.collocation_points()
    pts = np.concatenate(points)
    arc_of_pt = np.repeat([0, 1], [points[0].size, points[1].size])
    rule, contour = cs.QuadratureRule(), setups[0].contour
    coarse, fine = (
        solver._Tables(contour, pts, arc_of_pt, r.discretize(contour, 0.5 * basis.delta), basis)
        for r in (rule, rule.refined())
    )
    for _, cases in systems:
        group = [setups[i] for i in cases]
        rhs_coarse, rhs_fine = (ref.stacked_rows(group, basis, tab)[1] for tab in (coarse, fine))
        assert np.array_equal(rhs_coarse, rhs_fine)


def test_rows_are_assembled_once_per_group(reference_setup, monkeypatch):
    calls = []
    assemble_rows = solver._assemble_rows

    def counting(*args):
        calls.append(1)
        return assemble_rows(*args)

    monkeypatch.setattr(solver, "_assemble_rows", counting)
    cs.solve_cases(_fig6_grid(), 20)
    assert len(calls) == 3
    calls.clear()
    cs.solve_problem(reference_setup, 16)
    assert len(calls) == 1
    calls.clear()
    monkeypatch.setattr(solver, "MATRIX_STABILITY_TOL", 0.0)
    system = cs.assemble(reference_setup, 16)
    assert system.meta["quadrature_stabilized"] is False and len(calls) == 1


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_assemble_peak_memory(reference_setup):
    """The rows are built once, on the final tables, after the coarse
    level's are dropped, and go straight into the one eliminated matrix
    (1.83x; whole-matrix assembly: 3.63x, rows of both levels: 2.46x)."""
    cs.assemble(reference_setup, 48)  # fills the discretization memo
    system, peak = _traced_peak(cs.assemble, reference_setup, 48)
    assert peak <= 1.9 * system.matrix.nbytes


def test_assemble_peak_memory_at_n24(reference_setup):
    """At N = 24 the k1/k2 kernel tables weigh as much as the matrix; they
    are built per arc, on that arc's nodes only (over all nodes: 4.26x)."""
    cs.assemble(reference_setup, 24)
    system, peak = _traced_peak(cs.assemble, reference_setup, 24)
    assert peak <= 3.6 * system.matrix.nbytes


def test_solve_peak_memory(reference_setup):
    """The rows arrive weighted, so the solve's one copy of the matrix is
    the QR's own (1.10x), and R stays inside it: alone it is 0.33x the
    matrix at N = 48.  No |A| either (2.00x with one)."""
    system = cs.assemble(reference_setup, 48)
    _, peak = _traced_peak(cs.solve, system)
    assert peak <= 1.25 * system.matrix.nbytes


def _face_tensions(gammas):
    base = scenario_config("fig6").setup
    return [replace(base, surface=replace(base.surface, gamma_plus=g, gamma_minus=g)) for g in gammas]


def test_batch_peak_memory_holds_one_group():
    """Each group is solved before the next is assembled, so four face
    tensions peak within one matrix of one (N = 32: 10.9 MiB for one,
    11.9 MiB for four; all four matrices at once: 26.0 MiB)."""
    cs.solve_cases(_face_tensions([0.1]), 32)  # fills the discretization memo
    _, one = _traced_peak(cs.solve_cases, _face_tensions([0.1]), 32)
    _, four = _traced_peak(cs.solve_cases, _face_tensions([0.1, 0.3, 0.5, 0.7]), 32)
    matrix_nbytes = cs.assemble(_face_tensions([0.1])[0], 32).matrix.nbytes
    assert four <= one + matrix_nbytes


def test_one_group_lives_at_a_time(reference_setup, monkeypatch):
    """When a group is assembled and when it is solved, the matrices of the
    groups before it are gone, and at the last group's solve so are the
    operator tables."""
    matrices, tables, at_assembly, at_solve = [], [], [], []
    solve_columns, constraint_rows = solver._solve_columns, solver._constraint_rows
    tables_init = solver._Tables.__init__

    def tracked_tables(self, *args):
        tables.append(weakref.ref(self))
        tables_init(self, *args)

    def tracked_constraints(*args):
        # Called as a group's assembly starts, before its matrix is allocated.
        at_assembly.append([m() is not None for m in matrices])
        return constraint_rows(*args)

    def tracked_solve(system, *args, **kwargs):
        at_solve.append(([m() is not None for m in matrices], sum(t() is not None for t in tables)))
        matrices.append(weakref.ref(system.matrix))
        return solve_columns(system, *args, **kwargs)

    monkeypatch.setattr(solver._Tables, "__init__", tracked_tables)
    monkeypatch.setattr(solver, "_constraint_rows", tracked_constraints)
    monkeypatch.setattr(solver, "_solve_columns", tracked_solve)
    cs.solve_cases(_fig6_grid(), 20)
    assert at_assembly == [[], [False], [False, False]]
    assert [alive for alive, _ in at_solve] == [[], [False], [False, False]]
    assert at_solve[-1][1] == 0
    for record in (matrices, tables, at_solve):
        record.clear()
    cs.solve_problem(reference_setup, 24)
    assert at_solve == [([], 0)]
