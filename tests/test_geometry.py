import warnings

import numpy as np
import pytest

import crackst as cs
from crackst.geometry import CircleContour, EllipseContour, TabulatedContour


def test_circle_arc_lengths_and_points():
    c = cs.circular_contour(1.0, (0.0, np.pi))
    assert c.l0 == pytest.approx(np.pi)
    assert c.l == pytest.approx(2 * np.pi)
    assert c.point(0.0) == pytest.approx(1.0 + 0.0j)
    assert c.point(np.pi) == pytest.approx(-1.0 + 0.0j, abs=1e-12)
    # on the crack arc the point is exp(i s)
    s = np.linspace(0.1, 3.0, 7)
    assert np.allclose(c.point(s), np.exp(1j * s))


def test_circle_narrow_crack():
    c = cs.circular_contour(1.0, (-np.pi / 6, np.pi / 6))
    assert c.l0 == pytest.approx(np.pi / 3)
    assert c.l == pytest.approx(2 * np.pi)
    assert c.point(0.0) == pytest.approx(np.exp(-1j * np.pi / 6))


def test_circle_radius_two_reparametrization():
    c = cs.circular_contour(2.0, (0.0, np.pi))
    assert c.l0 == pytest.approx(2 * np.pi)
    assert c.l == pytest.approx(4 * np.pi)
    s = np.linspace(0.0, c.l, 9)
    assert np.allclose(c.point(s), 2.0 * np.exp(1j * s / 2.0))


def test_degenerate_crack_span_rejected():
    with pytest.raises(ValueError):
        cs.circular_contour(1.0, (0.0, 0.0))
    with pytest.raises(ValueError):
        cs.circular_contour(1.0, (0.0, 2 * np.pi))
    with pytest.raises(ValueError):
        cs.circular_contour(-1.0, (0.0, np.pi))


def test_curvature_values():
    assert cs.circular_contour(1.0, (0.0, np.pi)).curvature(0.7) == pytest.approx(1.0)
    assert cs.circular_contour(2.0, (0.0, np.pi)).curvature(1.3) == pytest.approx(0.5)


def test_ellipse_curvature_against_finite_differences():
    e = cs.elliptical_contour(1.5, 0.8, (0.0, np.pi))
    h = 1e-4  # large enough to stay above rounding noise of the 2nd difference
    for s in (0.0, 1.0, 2.7, 5.0):
        num = (e.point(s + h) - 2 * e.point(s) + e.point(s - h)) / h**2
        rho_fd = np.imag(num * np.conj(e.tangent(s)))
        assert e.curvature(s) == pytest.approx(rho_fd, abs=1e-6)


def test_ellipse_curvature_derivative_against_finite_differences():
    e = cs.elliptical_contour(1.5, 0.8, (0.0, np.pi))
    h = 1e-5
    for s in (0.3, 2.0, 4.4):
        fd = (e.curvature(s + h) - e.curvature(s - h)) / (2 * h)
        assert e.curvature_derivative(s) == pytest.approx(fd, abs=1e-5)


def test_circle_derivatives():
    c = cs.circular_contour(1.0, (0.0, np.pi))
    assert c.tangent(0.0) == pytest.approx(1j)
    assert c.second_derivative(0.0) == pytest.approx(-1.0)
    assert c.third_derivative(0.0) == pytest.approx(-1j)


@pytest.mark.parametrize(
    "contour",
    [
        CircleContour(1.0, 0.0, np.pi),
        CircleContour(2.5, -0.3, 1.2),
        EllipseContour(1.5, 0.8, 0.0, np.pi),
        EllipseContour(2.0, 1.0, -0.5, 0.5),
    ],
)
def test_unit_speed_frenet_closure(contour):
    rng = np.random.default_rng(42)
    s = rng.uniform(0.0, contour.l, 1000)
    assert np.max(np.abs(np.abs(contour.tangent(s)) - 1.0)) < 1e-10
    frenet = contour.second_derivative(s) - 1j * contour.curvature(s) * contour.tangent(s)
    assert np.max(np.abs(frenet)) < 1e-8
    assert abs(contour.point(0.0) - contour.point(contour.l)) < 1e-12
    assert 0.0 < contour.l0 < contour.l


def test_tabulated_contour_roundtrip():
    # Measured: l and l0 within 6.8e-14 and 3.0e-14 relative, |t'| within
    # 2.2e-16 of 1.
    theta = np.linspace(0.0, 2 * np.pi, 257)[:-1]
    samples = np.exp(1j * theta)
    c = TabulatedContour(samples, crack_end_fraction=0.5)
    assert c.l == pytest.approx(2 * np.pi, rel=1e-12)
    assert c.l0 == pytest.approx(np.pi, rel=1e-12)
    s = np.linspace(0.0, c.l, 17)
    assert np.max(np.abs(np.abs(c.tangent(s)) - 1.0)) < 1e-14


def _ellipse_samples(m):
    theta = 2 * np.pi * np.arange(m) / m
    return 1.5 * np.cos(theta) + 1j * np.sin(theta)


# The floor is the arc-length map's: the 1.5:1 ellipse's l is within 3.4e-14
# (4.2e-15 relative) of a 200-node Gauss-Legendre value, and the unit
# circle's within 4.3e-13 (6.8e-14 relative), from rounding in the table's
# running sum.  Measured here: l and l0 equal to EllipseContour's within
# 2.2e-16 relative, rho and rho' within 2.9e-15 and 6.7e-15.
@pytest.mark.parametrize("m", [64, 256])
def test_tabulated_ellipse_matches_analytic(m):
    tab = TabulatedContour(_ellipse_samples(m), crack_end_fraction=0.5)
    ref = EllipseContour(1.5, 1.0, 0.0, np.pi)
    assert tab.l == pytest.approx(ref.l, rel=1e-12)
    assert tab.l0 == pytest.approx(ref.l0, rel=1e-12)
    s = np.linspace(0.0, ref.l, 2001)
    assert np.max(np.abs(tab.curvature(s) - ref.curvature(s))) < 1e-8
    assert np.max(np.abs(tab.curvature_derivative(s) - ref.curvature_derivative(s))) < 1e-8


@pytest.mark.parametrize("m", [64, 4096])
def test_tabulated_derivatives_match_closed_form(m):
    # r = exp(i theta + g), g = 0.2 cos 2 theta: with h = i + g',
    # r' = r h, r'' = r (h^2 + g'') and r''' = r (h^3 + 3 h g'' + g''').
    theta = 2 * np.pi * np.arange(m) / m
    c = TabulatedContour(np.exp(1j * theta + 0.2 * np.cos(2 * theta)), crack_end_fraction=0.5)
    th = np.linspace(0.0, 2 * np.pi, 1001)
    r = np.exp(1j * th + 0.2 * np.cos(2 * th))
    h = 1j - 0.4 * np.sin(2 * th)
    g2, g3 = -0.8 * np.cos(2 * th), 1.6 * np.sin(2 * th)
    exact = (r, r * h, r * (h**2 + g2), r * (h**3 + 3 * h * g2 + g3))
    got = (c._r(th), c._r_prime(th), c._r_second(th), c._r_third(th))
    for value, ref in zip(got, exact):
        # Measured: at most 3.1e-13 (r''') of the largest value.
        assert np.max(np.abs(value - ref)) < 1e-12 * np.max(np.abs(ref))
    # The modes at rounding level are dropped, so the series has as many
    # terms at 4096 samples as at 64.
    assert c._coef.shape == (4, 37)


def test_tabulated_contour_closed_and_open_samples_agree():
    z = _ellipse_samples(64)
    open_, closed = (TabulatedContour(v, 0.3) for v in (z, np.append(z, z[0])))
    assert (open_.l, open_.l0) == (closed.l, closed.l0)
    s = np.linspace(0.0, open_.l, 101)
    assert np.array_equal(open_.curvature(s), closed.curvature(s))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_tabulated_contour_rejects_non_finite_samples(bad):
    z = np.exp(2j * np.pi * np.arange(64) / 64)
    z[[5, 40]] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no invalid-value warnings before the error
        with pytest.raises(ValueError, match=r"samples must be finite; samples \[5, 40\]"):
            TabulatedContour(z, crack_end_fraction=0.5)


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5, np.nan])
def test_tabulated_contour_rejects_crack_fraction_outside_unit_interval(fraction):
    z = np.exp(2j * np.pi * np.arange(64) / 64)
    with pytest.raises(ValueError, match=r"crack_end_fraction must lie in \(0, 1\)"):
        TabulatedContour(z, crack_end_fraction=fraction)


def test_wraparound():
    c = cs.circular_contour(1.0, (0.0, np.pi))
    assert c.wrap(c.l + 0.3) == pytest.approx(0.3)
    assert c.point(c.l + 0.25) == pytest.approx(c.point(2 * np.pi + 0.25))


def test_tabulated_contour_rejects_clockwise_samples():
    theta = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    with pytest.raises(ValueError, match="clockwise"):
        TabulatedContour(np.exp(-1j * theta), crack_end_fraction=0.5)
    with pytest.raises(ValueError, match="clockwise"):
        TabulatedContour(np.linspace(0.0, 1.0, 16) + 0j, crack_end_fraction=0.5)
    assert TabulatedContour(np.exp(1j * theta), crack_end_fraction=0.5).curvature(1.0) > 0.0


def test_memoized_builds_once_and_hands_out_read_only_arrays():
    from types import SimpleNamespace

    from crackst.geometry import MEMO_SIZE, _memoized

    owner, built = SimpleNamespace(), []

    def build(value):
        built.append(value)
        return {"array": np.full(3, value), "scalar": value}

    first = _memoized(owner, "_memo", "a", lambda: build(1.0))
    assert _memoized(owner, "_memo", "a", lambda: build(2.0)) is first and built == [1.0]
    assert not first["array"].flags.writeable
    entry = _memoized(owner, "_memo", "b", lambda: SimpleNamespace(x=np.zeros(2), n=1))
    assert not entry.x.flags.writeable
    assert not _memoized(owner, "_memo", "c", lambda: np.ones(2)).flags.writeable
    for k in range(MEMO_SIZE):
        _memoized(owner, "_memo", k, lambda: np.zeros(1))
    assert len(owner._memo) == MEMO_SIZE and "a" not in owner._memo and 0 in owner._memo


def test_log_basis_derivative_terms_are_memoized_read_only():
    from crackst.tips import _LogBasis

    basis, fresh = _LogBasis(2.0, 1e-6, 8), _LogBasis(2.0, 1e-6, 8)
    d = np.geomspace(1e-7, 2.0, 9)
    for order in (0, 1, 2, 3):
        first = basis.values("g_re", d, order)
        assert np.array_equal(basis.values("g_re", d, order), first)  # from the memo
        assert np.array_equal(first, fresh.values("g_re", d, order))
    terms = basis._derived_terms[("g_re", 2, basis._dx)]
    assert all(not g.flags.writeable for g in terms.values())
