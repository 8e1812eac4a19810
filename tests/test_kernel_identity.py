"""The in-place kernel builders against their dense reference forms
(reference_kernels.py): equal bit for bit, and leaner in memory."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import crackst as cs
from crackst import kernels
from crackst import validation as val
from crackst.geometry import MEMO_SIZE
from crackst.kernels import (
    DIAG_EPS_FACTOR,
    DIVIDED_DIFFERENCE_EPS_FACTOR,
    PV_BLOCK_POINTS,
    QuadratureRule,
    _cauchy_matrix,
    _pv_values,
    _regular_kernels,
)

import reference_kernels as ref
from blas_threads import _thread_controls, one_blas_thread

CONTOURS = {
    "semicircle": lambda: cs.circular_contour(1.0, (0.0, np.pi)),
    "ellipse": lambda: cs.elliptical_contour(1.5, 1.0, (0.0, np.pi)),
    "slim_ellipse": lambda: cs.elliptical_contour(2.0, 0.7, (0.3, 2.0)),
}
TIP_PANELS = (None, 1e-6, 1e-4)  # fractions of l
# Field-point counts about the width of the principal value's blocks.
BLOCK_COUNTS = (0, 1, 2, 127, 128, 129, 130, 255, 256, 257)


@pytest.fixture(scope="module", params=sorted(CONTOURS))
def contour(request):
    return CONTOURS[request.param]()


def _field_sets(contour, disc):
    """Field points on the nodes, just off them, at random, and within 1e-6 l
    of both tips."""
    l, l0 = contour.l, contour.l0
    offsets = np.array([-9e-7, -5e-7, -1e-7, 1e-7, 5e-7, 9e-7]) * l
    return {
        "nodes": disc.s,
        "off_nodes": disc.s + 1e-7 * l,
        "random": np.random.default_rng(7).uniform(0.0, l, 150),
        "tips": contour.wrap(np.concatenate([offsets, l0 + offsets])),
    }


def _block_sets(contour, disc):
    """Field sets of each of BLOCK_COUNTS points: at random, and packed 1e-4 l
    apart about a node so that the block boundary at PV_BLOCK_POINTS falls
    inside a run of points near the same nodes.  (_field_sets' "nodes" puts
    a coincident pair in every block.)"""
    rng = np.random.default_rng(11)
    centre = disc.s[disc.n_nodes // 4]
    sets = {}
    for count in BLOCK_COUNTS:
        sets[f"random{count}"] = rng.uniform(0.0, contour.l, count)
        steps = np.arange(count) - PV_BLOCK_POINTS + 0.5
        sets[f"cluster{count}"] = contour.wrap(centre + 1e-4 * contour.l * steps)
    return sets


def _stacked_density(contour):
    trials = [trial for _, trial in val._trial_densities(contour, 3, 2)]
    return lambda s: np.stack([trial(s) for trial in trials])


@pytest.mark.parametrize("tip", TIP_PANELS)
def test_nodes_ascend(contour, tip):
    # The near-pair search bisects the nodes.
    disc = QuadratureRule().discretize(contour, None if tip is None else tip * contour.l)
    assert np.all(np.diff(disc.s) > 0.0)


@pytest.mark.parametrize("tip", TIP_PANELS)
def test_pv_values_match_dense_reference(contour, tip):
    """Bit for bit on one BLAS thread (see blas_threads); at the thread count
    the process started with the blocked and whole-matrix products may round
    some columns through different kernels, so there they agree to rounding."""
    disc = QuadratureRule().discretize(contour, None if tip is None else tip * contour.l)
    density = _stacked_density(contour)
    field_sets = {**_field_sets(contour, disc), **_block_sets(contour, disc)}
    for name, at in field_sets.items():
        got = _pv_values(contour, density, at, disc)
        want = ref.pv_values(contour, density, at, disc)
        assert got.shape == want.shape == (2, at.size), name
        scale = np.max(np.abs(want), initial=0.0)
        assert np.all(np.abs(got - want) <= 1e-11 * scale), name
        with one_blas_thread():
            got = _pv_values(contour, density, at, disc)
            want = ref.pv_values(contour, density, at, disc)
        assert np.array_equal(got, want), name


def test_one_blas_thread_sets_and_restores_the_count():
    controls = _thread_controls()
    if controls is None:
        pytest.skip("numpy's OpenBLAS library was not found")
    get, _ = controls
    before = get()
    with one_blas_thread():
        assert get() == 1
    assert get() == before


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("tip", TIP_PANELS)
def test_regular_kernels_match_raw_reference(contour, tip):
    """Bit for bit in the [field x node] layout of the stress traces, the
    [node x field] layout of the solver's tables and on 0-d inputs; at
    eps = 1e-3 l near pairs straddle the seam s = 0 == l."""
    disc = QuadratureRule().discretize(contour, None if tip is None else tip * contour.l)
    l = contour.l
    for eps in (DIAG_EPS_FACTOR * l, 1e-3 * l):
        for name, at in _field_sets(contour, disc).items():
            at = at[:: 1 + at.size // 200]
            t, dt = contour.point(at), contour.tangent(at)
            layouts = {
                "field x node": (contour, at[:, None], t[:, None], dt[:, None], disc.s, disc.tau, eps),
                "node x field": (contour, at, t, dt, disc.s[:, None], disc.tau[:, None], eps),
            }
            for layout, args in layouts.items():
                for got, want in zip(_regular_kernels(*args), ref.regular_kernels(*args)):
                    assert _same_bits(got, want), (name, layout, eps)
    # 0-d field points and nodes within 2e-3 l of each other, across the seam too.
    eps = 1e-3 * l
    at = _field_sets(contour, disc)["tips"]
    seam = 0
    for s in at:
        gap = np.abs(np.mod(disc.s - s + 0.5 * l, l) - 0.5 * l)
        for q in np.flatnonzero(gap < 2.0 * eps):
            seam += abs(disc.s[q] - s) > 0.5 * l and gap[q] < eps
            args = (contour, s, contour.point(s), contour.tangent(s), disc.s[q], disc.tau[q], eps)
            for got, want in zip(_regular_kernels(*args), ref.regular_kernels(*args)):
                assert _same_bits(got, want), (s, disc.s[q])
    assert seam > 0


@pytest.mark.parametrize("tip", TIP_PANELS)
def test_near_pairs_match_dense_mask(contour, tip):
    disc = QuadratureRule().discretize(contour, None if tip is None else tip * contour.l)
    for eps in (DIVIDED_DIFFERENCE_EPS_FACTOR * contour.l, DIAG_EPS_FACTOR * contour.l, 1e-3 * contour.l):
        for name, at in _field_sets(contour, disc).items():
            arc_at = np.where(contour.wrap(at) <= contour.l0, 0, 1)
            cmat, qi, ai = _cauchy_matrix(disc, at, contour.point(at), arc_at, eps)
            want_q, want_a = np.nonzero(ref.near_mask(disc, at, arc_at, eps))
            assert np.array_equal(qi, want_q) and np.array_equal(ai, want_a), (name, eps)
            assert not np.any(cmat[qi, ai]), (name, eps)  # the pairs are left out


def test_theta_memo_matches_fresh_contour_and_is_bounded():
    warm = CONTOURS["slim_ellipse"]()
    s = np.linspace(0.0, warm.l, 101)
    maps = ("point", "tangent", "curvature", "curvature_derivative")
    first = [getattr(warm, m)(s) for m in maps]
    again = [getattr(warm, m)(s.copy()) for m in maps]
    fresh = CONTOURS["slim_ellipse"]()
    for m, a, b in zip(maps, first, again):
        assert np.array_equal(a, b) and np.array_equal(a, getattr(fresh, m)(s)), m
    assert warm.point(0.3) == fresh.point(0.3)

    theta = warm._s_to_theta(s)
    assert warm._s_to_theta(s) is theta
    assert not theta.flags.writeable
    with pytest.raises(ValueError):
        theta[0] = 0.0

    for k in range(MEMO_SIZE + 5):
        warm.point(np.array([1e-3 * k]))
    memo = vars(warm)["_thetas"]
    assert len(memo) == MEMO_SIZE
    assert warm._s_to_theta(s) is not theta  # the oldest entries were dropped
    assert np.array_equal(warm._s_to_theta(s), theta)


def _pv_block_bound(contour):
    """Peak allocation allowed for a validation pass: 2.5 of the inner
    application's block matrix, [inner nodes x PV_BLOCK_POINTS] complex."""
    inner = kernels.FINE_RULE.discretize(contour, val.INNER_TIP_GRADING * contour.l).n_nodes
    return inner, 2.5 * inner * PV_BLOCK_POINTS * np.dtype(complex).itemsize


def _traced_peak(fn, *args):
    fn(*args)  # fills the discretization and theta memos
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_inversion_check_peak_memory(unit_semicircle):
    """The inner Cauchy application of the inversion check builds its kernel
    matrix PV_BLOCK_POINTS outer nodes at a time, never the whole
    [inner nodes x outer nodes] matrix, and no dense temporaries beside it."""
    contour = unit_semicircle
    trials = [trial for _, trial in val._trial_densities(contour, 0, 3)]
    peak = _traced_peak(val.cauchy_inversion_checks, contour, trials)
    inner, bound = _pv_block_bound(contour)
    assert inner == 1440  # nodes of both passes, which share one grading
    assert peak <= bound


@pytest.fixture(scope="module")
def solutions(reference_setup):
    """The reference setup and its 1.5:1 ellipse twin, each solved at N = 24."""
    ellipse = replace(reference_setup, contour=CONTOURS["ellipse"]())
    return {
        name: (cs.solve_problem(setup, 24)[0], setup)
        for name, setup in (("semicircle", reference_setup), ("ellipse", ellipse))
    }


def test_validate_solution_peak_memory(solutions):
    dset, setup = solutions["ellipse"]
    peak = _traced_peak(val.validate_solution, dset, setup)
    assert peak <= _pv_block_bound(setup.contour)[1]


@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("name", ["semicircle", "ellipse"])
def test_validate_solution_matches_dense_pv(solutions, name, seed, monkeypatch):
    """Every check of the battery, stress traces and inversion included, is
    bit-identical to a run on the whole-matrix principal value (on one BLAS
    thread, see blas_threads)."""
    dset, setup = solutions[name]
    with one_blas_thread():
        blocked = val.validate_solution(dset, setup, seed=seed).to_dict()
        monkeypatch.setattr(kernels, "_pv_values", ref.pv_values)
        dense = val.validate_solution(dset, setup, seed=seed).to_dict()
    assert [c["name"] for c in blocked["checks"]] == [c["name"] for c in dense["checks"]]
    for got, want in zip(blocked["checks"], dense["checks"]):
        assert got["value"] == want["value"] and got["details"] == want["details"], got["name"]


def test_inversion_check_builds_blocks(unit_semicircle, monkeypatch):
    widths = []

    def spy(disc, at, *args):
        widths.append(at.size)
        return _cauchy_matrix(disc, at, *args)

    monkeypatch.setattr(kernels, "_cauchy_matrix", spy)
    trials = [trial for _, trial in val._trial_densities(unit_semicircle, 0, 3)]
    val.cauchy_inversion_checks(unit_semicircle, trials)
    assert widths and max(widths) <= PV_BLOCK_POINTS + 1
    assert sum(widths) > 1440  # the outer nodes and the check's points
