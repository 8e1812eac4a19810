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
    theta = np.linspace(0.0, 2 * np.pi, 257)[:-1]
    samples = np.exp(1j * theta)
    c = TabulatedContour(samples, crack_end_fraction=0.5)
    assert c.l == pytest.approx(2 * np.pi, rel=1e-6)
    assert c.l0 == pytest.approx(np.pi, rel=1e-5)
    s = np.linspace(0.0, c.l, 17)
    assert np.max(np.abs(np.abs(c.tangent(s)) - 1.0)) < 1e-6


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
