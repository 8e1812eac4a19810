"""The in-place kernel builders against their dense reference forms
(reference_kernels.py): equal bit for bit, and leaner in memory."""

import tracemalloc

import numpy as np
import pytest

import crackst as cs
from crackst import validation as val
from crackst.geometry import THETA_MEMO_SIZE
from crackst.kernels import DIAG_EPS_FACTOR, QuadratureRule, _cauchy_matrix, _pv_values, _regular_kernels
from crackst.solver import DIVIDED_DIFFERENCE_EPS_FACTOR

import reference_kernels as ref

CONTOURS = {
    "semicircle": lambda: cs.circular_contour(1.0, (0.0, np.pi)),
    "ellipse": lambda: cs.elliptical_contour(1.5, 1.0, (0.0, np.pi)),
    "slim_ellipse": lambda: cs.elliptical_contour(2.0, 0.7, (0.3, 2.0)),
}
TIP_PANELS = (None, 1e-6, 1e-4)  # fractions of l


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
    disc = QuadratureRule().discretize(contour, None if tip is None else tip * contour.l)
    density = _stacked_density(contour)
    # At 1e-3 l several nodes pair with one field point.
    for eps in (1e-3 * contour.l, None):
        for name, at in _field_sets(contour, disc).items():
            got = _pv_values(contour, density, at, disc, eps)
            want = ref.pv_values(contour, density, at, disc, eps)
            assert np.array_equal(got, want), (name, eps)


@pytest.mark.parametrize("tip", TIP_PANELS)
def test_regular_kernels_match_raw_reference(contour, tip):
    disc = QuadratureRule().discretize(contour, None if tip is None else tip * contour.l)
    for eps in (DIAG_EPS_FACTOR * contour.l, 1e-3 * contour.l):
        for name, at in _field_sets(contour, disc).items():
            at = at[:: 1 + at.size // 200]  # a [field x node] matrix per set
            args = (contour, at[:, None], contour.point(at)[:, None], contour.tangent(at)[:, None],
                    disc.s, disc.tau, eps)
            for got, want in zip(_regular_kernels(*args), ref.regular_kernels(*args)):
                assert np.array_equal(got, want), (name, eps)


@pytest.mark.parametrize("tip", TIP_PANELS)
def test_near_pairs_match_dense_mask(contour, tip):
    disc = QuadratureRule().discretize(contour, None if tip is None else tip * contour.l)
    for eps in (DIVIDED_DIFFERENCE_EPS_FACTOR * contour.l, DIAG_EPS_FACTOR * contour.l, 1e-3 * contour.l):
        for name, at in _field_sets(contour, disc).items():
            arc_at = np.where(contour.wrap(at) <= contour.l0, 0, 1)
            _, qi, ai = _cauchy_matrix(disc, at, contour.point(at), arc_at, eps)
            want_q, want_a = np.nonzero(ref.near_mask(disc, at, arc_at, eps))
            assert np.array_equal(qi, want_q) and np.array_equal(ai, want_a), (name, eps)


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

    for k in range(THETA_MEMO_SIZE + 5):
        warm.point(np.array([1e-3 * k]))
    memo = vars(warm)["_thetas"]
    assert len(memo) == THETA_MEMO_SIZE
    assert warm._s_to_theta(s) is not theta  # the oldest entries were dropped
    assert np.array_equal(warm._s_to_theta(s), theta)


def test_inversion_check_peak_memory(unit_semicircle):
    """The inner Cauchy application of the inversion check builds one complex
    [inner nodes x outer nodes] matrix and no dense temporaries beside it."""
    contour = unit_semicircle
    trials = [trial for _, trial in val._trial_densities(contour, 0, 3)]
    val.cauchy_inversion_checks(contour, trials)  # fills the discretization memo
    tracemalloc.start()
    try:
        val.cauchy_inversion_checks(contour, trials)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rule = val._default_rule()
    inner = rule.discretize(contour, val.INNER_TIP_GRADING * contour.l).n_nodes
    outer = rule.discretize(contour, 1e-4 * contour.l).n_nodes
    assert (inner, outer) == (1440, 1056)
    assert peak <= 1.25 * inner * outer * np.dtype(complex).itemsize
