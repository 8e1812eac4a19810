import numpy as np
import pytest

import crackst as cs
from crackst.kernels import (
    DIAG_EPS_FACTOR,
    FINE_RULE,
    Discretization,
    QuadratureRule,
    _graded_edges,
    _regular_kernels,
)
from reference_kernels import kernel_k1, kernel_k2


@pytest.fixture(scope="module")
def circle():
    return cs.circular_contour(1.0, (0.0, np.pi))


@pytest.fixture(scope="module")
def rule():
    return QuadratureRule(adaptive=False)


def brute_force_pv(contour, density, s0, eps=1e-2):
    """Symmetric-exclusion principal value with Richardson extrapolation.

    The excluded-window error is a*eps + b*eps**3 + O(eps**5); two-stage
    extrapolation over eps, eps/2, eps/4 removes both leading terms.  The
    integrand is near-singular next to the exclusion window, so the panels
    are geometrically graded toward both ends.
    """

    def excl(e):
        xg, wg = np.polynomial.legendre.leggauss(24)
        lo, hi = s0 + e, s0 + contour.l - e
        width = hi - lo
        fracs = e / width * 2.0 ** np.arange(0, 12)
        fracs = fracs[fracs < 0.25]
        breaks = np.concatenate([fracs, np.linspace(0.3, 0.7, 9), 1.0 - fracs[::-1]])
        edges = lo + width * np.concatenate([[0.0], breaks, [1.0]])
        edges = np.unique(edges)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[:-1] + edges[1:])
        s = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
        w = (half[:, None] * wg[None, :]).ravel()
        sw = contour.wrap(s)
        vals = density(sw) * contour.tangent(sw) / (contour.point(sw) - contour.point(s0))
        return np.sum(vals * w)

    j1 = 2.0 * excl(eps / 2) - excl(eps)
    j2 = 2.0 * excl(eps / 4) - excl(eps / 2)
    return (8.0 * j2 - j1) / 7.0


def _kernels(contour, s_field, s_src):
    """(k1, k2) of field points against sources, with the library's
    near-diagonal guard."""
    s_field, s_src = np.asarray(s_field, dtype=float), np.asarray(s_src, dtype=float)
    return _regular_kernels(
        contour, s_field, contour.point(s_field), contour.tangent(s_field),
        s_src, contour.point(s_src), DIAG_EPS_FACTOR * contour.l,
    )


def test_k1_diagonal_unit_circle(circle):
    for s in (0.0, 0.7, 2.5, 4.0):
        assert _kernels(circle, s, s)[0] == pytest.approx(np.exp(-1j * s))


def test_k2_diagonal_unit_circle(circle):
    for s in (0.0, 1.3, 3.9):
        assert _kernels(circle, s, s)[1] == pytest.approx(np.exp(1j * s))


def test_kernels_antipodal_values(circle):
    assert _kernels(circle, 0.0, np.pi)[0] == pytest.approx(1.0)
    assert _kernels(circle, 0.0, np.pi)[1] == pytest.approx(-1.0)


def test_kernels_continuous_across_diagonal(circle):
    eps = 2e-5 * circle.l
    for s in (0.9, 3.3):
        assert abs(_kernels(circle, s, s + eps)[0] - _kernels(circle, s, s)[0]) < 1e-3
        assert abs(_kernels(circle, s, s + eps)[1] - _kernels(circle, s, s)[1]) < 1e-3


def _expansion_and_raw(contour, s, d):
    """Near-diagonal expansion (forced by an infinite guard) and raw kernels."""
    t, dt, tau = contour.point(s), contour.tangent(s), contour.point(contour.wrap(s + d))
    expanded = _regular_kernels(contour, s, t, dt, s + d, tau, np.inf)
    return expanded, (kernel_k1(t, dt, tau), kernel_k2(t, dt, tau))


def test_near_diagonal_expansion_is_second_order_on_ellipse():
    # rho' != 0 on the ellipse; at these gaps the raw quotients cancel below
    # 1e-10, so they serve as the reference.
    ellipse = cs.elliptical_contour(1.5, 1.0, (0.0, np.pi))
    for s in (0.4, 1.1, 2.9, 4.0, 6.5):
        assert abs(ellipse.curvature_derivative(s)) > 0.1
        for sign in (1.0, -1.0):
            errors = []
            for d in (1e-2, 5e-3, 2.5e-3):
                expanded, raw = _expansion_and_raw(ellipse, s, sign * d)
                errors.append([abs(expanded[0] - raw[0]), abs(expanded[1] - raw[1])])
            errors = np.array(errors)
            assert np.all(errors[0] < 5e-4)
            ratios = errors[:-1] / errors[1:]
            assert np.all((ratios > 3.5) & (ratios < 4.5)), (s, sign, ratios)


def test_near_diagonal_k1_is_exact_on_unit_circle(circle):
    for s in (0.3, 2.0, 5.9):
        for d in (0.3, 1e-2, -1e-2):
            expanded, raw = _expansion_and_raw(circle, s, d)
            assert abs(expanded[0] - raw[0]) < 1e-10  # cancellation in the raw k1
            assert abs(expanded[0] - np.exp(-1j * s)) < 1e-15


def test_kernels_vanish_on_straight_segments():
    # collinear field and source points with a tangent along the segment
    t, dt = 0.3 + 0.0j, 1.0 + 0.0j
    for tau in (0.9 + 0.0j, -0.4 + 0.0j):
        assert abs(kernel_k1(t, dt, tau)) < 1e-15
        assert abs(kernel_k2(t, dt, tau)) < 1e-15


def test_quadrature_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(nodes_per_panel=3)
    with pytest.raises(ValueError):
        QuadratureRule(panels_per_arc=0)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"nodes_per_panel": 8.5}, "nodes_per_panel"),
        ({"nodes_per_panel": 16.0}, "nodes_per_panel"),
        ({"nodes_per_panel": True}, "nodes_per_panel"),
        ({"panels_per_arc": 8.5}, "panels_per_arc"),
        ({"panels_per_arc": "8"}, "panels_per_arc"),
        ({"adaptive": "no"}, "adaptive"),
        ({"adaptive": 0}, "adaptive"),
    ],
)
def test_quadrature_rule_rejects_non_integral_counts_and_non_bool_adaptive(kwargs, field):
    # These used to fail deep in np.linspace, or ("no") to act as adaptive.
    with pytest.raises(ValueError, match=f"^{field} must be"):
        QuadratureRule(**kwargs)


def test_quadrature_rule_accepts_numpy_integers_and_bools():
    rule = QuadratureRule(np.int64(16), np.int32(4), np.bool_(False))
    assert rule == QuadratureRule(16, 4, False)
    assert rule.refined().panels_per_arc == 8 and rule.refined().adaptive is rule.adaptive


def test_discretization_weights_sum_to_arc_lengths(circle, rule):
    disc = rule.discretize(circle)
    assert isinstance(disc, Discretization)
    assert np.sum(disc.w[disc.arc == 0]) == pytest.approx(circle.l0)
    assert np.sum(disc.w[disc.arc == 1]) == pytest.approx(circle.l - circle.l0)
    # per-panel weights sum to the panel width
    edges = _graded_edges(0.0, circle.l0, rule.panels_per_arc, None)
    npp = rule.nodes_per_panel
    widths = np.diff(edges)
    sums = np.add.reduceat(disc.w[disc.arc == 0], np.arange(0, widths.size * npp, npp))
    assert np.allclose(sums, widths)


def test_pv_constant_density(circle, rule):
    for s0 in (0.5, 2.0, 4.4):
        pv = cs.cauchy_pv(circle, lambda s: np.ones_like(s, dtype=complex), s0, rule)
        assert pv == pytest.approx(1j * np.pi, abs=1e-12)


def test_pv_identity_density(circle, rule):
    for s0 in (1.1, 5.2):
        pv = cs.cauchy_pv(circle, lambda s: circle.point(s), s0, rule)
        assert pv == pytest.approx(1j * np.pi * circle.point(s0), abs=1e-12)


def test_pv_quadratic_against_brute_force(circle, rule):
    density = lambda s: circle.point(s) ** 2
    s0 = 2.3
    pv = cs.cauchy_pv(circle, density, s0, rule)
    assert pv == pytest.approx(1j * np.pi * circle.point(s0) ** 2, abs=1e-8)
    oracle = brute_force_pv(circle, density, s0)
    assert pv == pytest.approx(oracle, abs=1e-8)


def test_pv_linear_in_density(circle, rule):
    rng = np.random.default_rng(3)
    ca, cb = rng.normal(size=3) + 1j * rng.normal(size=3), rng.normal(size=3)
    f = lambda s: ca[0] + ca[1] * np.cos(s) + ca[2] * np.sin(2 * s)
    g = lambda s: cb[0] + cb[1] * np.sin(s) + cb[2] * np.cos(3 * s)
    s0 = 1.7
    combo = cs.cauchy_pv(circle, lambda s: 2.0 * f(s) - 1.5j * g(s), s0, rule)
    parts = 2.0 * cs.cauchy_pv(circle, f, s0, rule) - 1.5j * cs.cauchy_pv(circle, g, s0, rule)
    assert combo == pytest.approx(parts, abs=1e-12)


def test_pv_rejects_tip_points(circle, rule):
    with pytest.raises(cs.TipProximityError):
        cs.cauchy_pv(circle, lambda s: np.ones_like(s, dtype=complex), 1e-9, rule)
    with pytest.raises(cs.TipProximityError):
        cs.cauchy_pv(circle, lambda s: np.ones_like(s, dtype=complex), circle.l0, rule)


def test_singular_apply_identity_cases(circle, rule):
    at = np.array([0.4, 1.9, 3.6, 5.1])
    ones = cs.singular_apply(circle, lambda s: np.ones_like(s, dtype=complex), rule, at=at)
    assert np.allclose(ones, 1.0, atol=1e-12)
    tau = cs.singular_apply(circle, lambda s: circle.point(s), rule, at=at)
    assert np.allclose(tau, circle.point(at), atol=1e-12)


def test_singular_apply_is_involution_on_smooth_density(circle, rule):
    f = lambda s: np.exp(np.cos(s)) + 1j * np.sin(2 * s)
    at = np.array([0.5, 2.1, 3.3, 4.8])
    inner = lambda ss: cs.singular_apply(circle, f, rule, at=np.atleast_1d(ss))
    twice = cs.singular_apply(circle, inner, rule, at=at)
    assert np.max(np.abs(twice - f(at))) < 1e-6


def test_contour_integral_closed_polynomials(circle, rule):
    # closed-contour integrals of analytic monomials vanish
    for density in (lambda s: np.ones_like(s, dtype=complex), lambda s: circle.point(s)):
        assert abs(cs.contour_integral(circle, density, rule)) < 1e-12
    # single-arc integral of tau over the crack equals the chord difference of tau^2/2
    val = cs.contour_integral(circle, lambda s: circle.point(s), rule, arc=0)
    expect = 0.5 * (circle.point(circle.l0) ** 2 - circle.point(0.0) ** 2)
    assert val == pytest.approx(expect, abs=1e-12)


def test_discretize_is_memoized_read_only():
    contour = cs.circular_contour(1.0, (0.0, np.pi))
    disc = QuadratureRule(nodes_per_panel=8, panels_per_arc=4).discretize(contour, 1e-3)
    assert QuadratureRule(nodes_per_panel=8, panels_per_arc=4).discretize(contour, 1e-3) is disc
    finer = QuadratureRule(nodes_per_panel=8, panels_per_arc=4).discretize(contour, 1e-4)
    assert finer is not disc and finer.n_nodes > disc.n_nodes
    other = cs.circular_contour(1.0, (0.0, np.pi))
    assert QuadratureRule(nodes_per_panel=8, panels_per_arc=4).discretize(other, 1e-3) is not disc
    for values in (disc.s, disc.w, disc.arc, disc.tau, disc.dt):
        with pytest.raises(ValueError):
            values[0] = 0


def test_discretization_memo_is_bounded():
    from crackst.geometry import MEMO_SIZE

    contour = cs.circular_contour(1.0, (0.0, np.pi))
    rule = QuadratureRule(nodes_per_panel=4, panels_per_arc=1)
    for k in range(MEMO_SIZE + 5):
        rule.discretize(contour, 1e-3 / (k + 1))
    assert len(contour._discretizations) == MEMO_SIZE
    assert rule.discretize(contour, 1e-3 / (MEMO_SIZE + 5)).n_nodes > 0


@pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
def test_pv_near_a_node_takes_the_raw_quotient(circle, fraction):
    """S tau^3 = t^3 on the unit circle at field points 1e-6 l to 9e-6 l from
    a node but not on it, on both arcs: the near pair takes the raw divided
    difference, which loses only about 1e-16 w/d to rounding."""
    disc = FINE_RULE.discretize(circle)
    gap = fraction * 1e-5 * circle.l
    nodes = disc.s[[37, 300, 450]]
    at = np.concatenate([nodes - gap, nodes + gap])
    cube = cs.singular_apply(circle, lambda s: circle.point(s) ** 3, FINE_RULE, at=at)
    assert np.max(np.abs(cube - circle.point(at) ** 3)) < 1e-9


@pytest.mark.parametrize("shape", ["circle", "ellipse"])
def test_pv_on_the_nodes_takes_the_slope_limit(circle, shape):
    """S tau^3 = t^3 at FINE_RULE's own nodes, where every field point has a
    node on it and takes w_q times the density's central-difference slope.
    Measured: 1.3e-12 on the unit circle and 5.7e-12 on the 1.5:1 ellipse."""
    contour = circle if shape == "circle" else cs.elliptical_contour(1.5, 1.0, (0.0, np.pi))
    at = FINE_RULE.discretize(contour).s
    cube = cs.singular_apply(contour, lambda s: contour.point(s) ** 3, FINE_RULE)
    assert np.max(np.abs(cube - contour.point(at) ** 3)) < 1e-11


def test_stacked_densities_share_one_pv(circle, rule):
    """A density returning a stack gives each row's own principal value."""
    fs = (lambda s: circle.point(s) ** 2, lambda s: np.exp(1j * np.sin(s)))
    at = np.array([0.4, 2.5, 5.0])
    stacked = cs.singular_apply(circle, lambda s: np.stack([f(s) for f in fs]), rule, at=at)
    for row, f in zip(stacked, fs):
        assert np.array_equal(row, cs.singular_apply(circle, f, rule, at=at))
