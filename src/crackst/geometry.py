"""Closed dividing contours in arc-length parametrization.

A contour is the closed boundary of the inclusion, split into a debonded
(crack) arc for s in [0, l0] and a bonded arc for s in [l0, l].  Points are
complex numbers t(s) with |t'(s)| = 1, traversed counterclockwise, so the
inclusion interior lies to the left.  Curvature follows the convention
rho = Im(t''(s) * conj(t'(s))), which is +1/R on a counterclockwise circle.
Second and third derivatives are recovered from the Frenet relations

    t''(s)  = i * rho(s) * t'(s)
    t'''(s) = (i * rho'(s) - rho(s)**2) * t'(s)

so a concrete shape only has to supply t, t', rho and rho'; a tabulated shape
takes them from the trigonometric interpolant of its samples.
"""

from __future__ import annotations

from functools import partialmethod

import numpy as np

__all__ = [
    "Contour",
    "CircleContour",
    "EllipseContour",
    "TabulatedContour",
    "circular_contour",
    "elliptical_contour",
]

# 5-point Gauss-Legendre rule of the arc-length table's local integrals.
_GL5_NODES, _GL5_WEIGHTS = np.polynomial.legendre.leggauss(5)
# s -> theta inversions kept per reparametrized contour.
THETA_MEMO_SIZE = 64


def _require_finite(**values):
    """Raise a ValueError naming the first of the values that is not finite."""
    for name, value in values.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


class Contour:
    """Base class for closed contours with a marked crack arc.

    Subclasses set ``l0`` (crack arc length) and ``l`` (total length) and
    implement ``point``, ``tangent``, ``curvature`` and
    ``curvature_derivative``, each accepting scalars or arrays of arc length.
    """

    l0: float
    l: float

    def wrap(self, s):
        """Reduce arc length mod l (the junctions s=0(=l) and s=l0 are tips)."""
        return np.mod(s, self.l)

    def point(self, s):
        raise NotImplementedError

    def tangent(self, s):
        raise NotImplementedError

    def curvature(self, s):
        raise NotImplementedError

    def curvature_derivative(self, s):
        raise NotImplementedError

    def second_derivative(self, s):
        return 1j * self.curvature(s) * self.tangent(s)

    def third_derivative(self, s):
        rho = self.curvature(s)
        return (1j * self.curvature_derivative(s) - rho**2) * self.tangent(s)

    def arc_interval(self, arc):
        """(s_lo, s_hi) of arc 0 (crack) or arc 1 (bonded)."""
        if arc == 0:
            return 0.0, self.l0
        if arc == 1:
            return self.l0, self.l
        raise ValueError(f"arc must be 0 or 1, got {arc!r}")


class CircleContour(Contour):
    """Circle of radius R with the crack spanning given polar angles.

    s = 0 maps to polar angle ``crack_start``; the crack is traced
    counterclockwise to ``crack_end``, then the bonded arc closes the circle.
    """

    def __init__(self, radius, crack_start, crack_end, center=0.0):
        _require_finite(radius=radius, crack_start=crack_start, crack_end=crack_end)
        if radius <= 0.0:
            raise ValueError(f"radius must be positive, got {radius}")
        span = crack_end - crack_start
        if not 0.0 < span < 2.0 * np.pi:
            raise ValueError(
                f"crack angular span must lie strictly between 0 and 2*pi, got {span}"
            )
        self.radius = float(radius)
        self.theta0 = float(crack_start)
        self.center = complex(center)
        self.l0 = float(radius * span)
        self.l = float(2.0 * np.pi * radius)

    def point(self, s):
        return self.center + self.radius * np.exp(1j * (self.theta0 + np.asarray(s) / self.radius))

    def tangent(self, s):
        return 1j * np.exp(1j * (self.theta0 + np.asarray(s) / self.radius))

    def curvature(self, s):
        return np.full_like(np.asarray(s, dtype=float), 1.0 / self.radius)

    def curvature_derivative(self, s):
        return np.zeros_like(np.asarray(s, dtype=float))


class _ReparametrizedContour(Contour):
    """Arc-length reparametrization of a parametric curve r(theta).

    The subclass supplies a smooth 2*pi-periodic r and its first three
    theta-derivatives (rho' takes the third); a dense cumulative arc-length
    table plus Newton refinement inverts s -> theta.
    """

    _GRID = 4096

    def _init_maps(self, theta_start, theta_crack_end):
        two_pi = 2.0 * np.pi
        grid = np.linspace(theta_start, theta_start + two_pi, self._GRID + 1)
        # Composite Simpson on a fine grid; speeds are smooth and periodic.
        speeds = self._speed(grid)
        h = grid[1] - grid[0]
        mids = 0.5 * (grid[:-1] + grid[1:])
        seg = (speeds[:-1] + 4.0 * self._speed(mids) + speeds[1:]) * (h / 6.0)
        self._theta_grid = grid
        self._s_grid = np.concatenate(([0.0], np.cumsum(seg)))
        self.l = float(self._s_grid[-1])
        self._theta_start = float(theta_start)
        span = theta_crack_end - theta_start
        if not 0.0 < span < two_pi:
            raise ValueError(
                f"crack parameter span must lie strictly between 0 and 2*pi, got {span}"
            )
        self.l0 = float(self._theta_to_s(np.asarray(theta_crack_end)))

    def _theta_to_s(self, theta):
        # 5-point Gauss-Legendre from the nearest grid node.
        idx = np.clip(
            np.searchsorted(self._theta_grid, theta, side="right") - 1,
            0,
            self._GRID - 1,
        )
        th0 = self._theta_grid[idx]
        half = 0.5 * (theta - th0)
        nodes = th0[..., None] + half[..., None] * (_GL5_NODES + 1.0)
        return self._s_grid[idx] + np.sum(_GL5_WEIGHTS * self._speed(nodes), axis=-1) * half

    def _s_to_theta(self, s):
        # The maps of one point set share one inversion, memoized on the
        # input's bytes (oldest dropped first) and handed out read-only.
        s = np.asarray(s, dtype=float)
        memo = vars(self).setdefault("_thetas", {})
        key = (s.shape, s.tobytes())
        if key not in memo:
            if len(memo) >= THETA_MEMO_SIZE:
                del memo[next(iter(memo))]
            s = self.wrap(s)
            theta = np.interp(s, self._s_grid, self._theta_grid)
            for _ in range(4):
                theta = theta - (self._theta_to_s(theta) - s) / self._speed(theta)
            memo[key] = np.asarray(theta)
            memo[key].flags.writeable = False
        return memo[key]

    def _speed(self, theta):
        return np.abs(self._r_prime(theta))

    def _r(self, theta):
        raise NotImplementedError

    def _r_prime(self, theta):
        raise NotImplementedError

    def _r_second(self, theta):
        raise NotImplementedError

    def _r_third(self, theta):
        raise NotImplementedError

    def point(self, s):
        return self._r(self._s_to_theta(s))

    def tangent(self, s):
        rp = self._r_prime(self._s_to_theta(s))
        return rp / np.abs(rp)

    def curvature(self, s):
        theta = self._s_to_theta(s)
        rp = self._r_prime(theta)
        rpp = self._r_second(theta)
        cross = np.imag(np.conj(rp) * rpp)
        return cross / np.abs(rp) ** 3

    def curvature_derivative(self, s):
        theta = self._s_to_theta(s)
        rp = self._r_prime(theta)
        rpp = self._r_second(theta)
        rppp = self._r_third(theta)
        g = np.abs(rp)
        cross = np.imag(np.conj(rp) * rpp)
        dcross = np.imag(np.conj(rp) * rppp)
        dg = np.real(np.conj(rp) * rpp) / g
        # d(rho)/dtheta / |r'| converts to the arc-length derivative.
        return (dcross / g**3 - 3.0 * cross * dg / g**4) / g


class EllipseContour(_ReparametrizedContour):
    """Axis-aligned ellipse x = a*cos(theta), y = b*sin(theta).

    The crack spans the parameter interval [crack_start, crack_end]; s = 0
    corresponds to theta = crack_start.
    """

    def __init__(self, a, b, crack_start, crack_end):
        _require_finite(a=a, b=b, crack_start=crack_start, crack_end=crack_end)
        if a <= 0.0 or b <= 0.0:
            raise ValueError(f"semi-axes must be positive, got a={a}, b={b}")
        self.a = float(a)
        self.b = float(b)
        self._init_maps(float(crack_start), float(crack_end))

    def _r(self, theta):
        return self.a * np.cos(theta) + 1j * self.b * np.sin(theta)

    def _r_prime(self, theta):
        return -self.a * np.sin(theta) + 1j * self.b * np.cos(theta)

    def _r_second(self, theta):
        return -self.a * np.cos(theta) - 1j * self.b * np.sin(theta)

    def _r_third(self, theta):
        return self.a * np.sin(theta) - 1j * self.b * np.cos(theta)


class TabulatedContour(_ReparametrizedContour):
    """Closed contour on the trigonometric interpolant of its samples.

    ``samples`` are complex positions of a smooth closed curve (the
    interpolant rings at corners) at equal parameter steps, counterclockwise
    from the leading crack tip; clockwise samples are refused, and a trailing
    repeat of the first sample is dropped.  The crack covers
    ``crack_end_fraction``, in (0, 1), of the sample parameter.
    """

    def __init__(self, samples, crack_end_fraction):
        z = np.asarray(samples, dtype=complex)
        bad = np.flatnonzero(~np.isfinite(z))
        if bad.size:
            raise ValueError(f"samples must be finite; samples {bad.tolist()} are not")
        if z.size < 8:
            raise ValueError("need at least 8 samples to describe a closed contour")
        if not 0.0 < crack_end_fraction < 1.0:
            raise ValueError(f"crack_end_fraction must lie in (0, 1), got {crack_end_fraction}")
        if abs(z[0] - z[-1]) <= 1e-12 * np.max(np.abs(z - z.mean())):
            z = z[:-1]
        area = 0.5 * np.sum(np.imag(np.conj(z) * np.roll(z, -1)))  # shoelace, signed
        if not area > 0.0:
            raise ValueError(
                f"samples must run counterclockwise around the inclusion; their signed "
                f"area is {area:.6g}, so they run clockwise or enclose nothing"
            )
        # c_k for k = -(m//2)..m//2, an even count's Nyquist mode split in two.  Outer
        # modes at rounding level are dropped, since r''' would amplify them by k**3.
        m = z.size
        c = np.fft.fftshift(np.fft.fft(z)) / m
        if m % 2 == 0:
            c[0] /= 2
            c = np.append(c, c[0])
        kept = np.flatnonzero(np.abs(c) > 4.0 * np.finfo(float).eps * np.max(np.abs(c)))
        k = np.arange(kept[0], kept[-1] + 1) - m // 2
        self._coef = ((1j * k) ** np.arange(4)[:, None] * c[k + m // 2])[:, ::-1]
        self._k_low = k[0]
        self._init_maps(0.0, 2.0 * np.pi * float(crack_end_fraction))

    def _series(self, theta, j):
        # r^(j) = z**k_low * p(z) at z = e^(i theta); p holds c_k (ik)^j, highest k first.
        z = np.exp(1j * np.asarray(theta))
        return np.polyval(self._coef[j], z) * z**self._k_low

    _r = partialmethod(_series, j=0)
    _r_prime = partialmethod(_series, j=1)
    _r_second = partialmethod(_series, j=2)
    _r_third = partialmethod(_series, j=3)


def circular_contour(radius, crack_arc):
    """Unit-speed circle with the crack spanning polar angles ``crack_arc``.

    crack_arc = (angle_start, angle_end) in radians, counterclockwise.
    """
    start, end = crack_arc
    return CircleContour(radius, start, end)


def elliptical_contour(a, b, crack_arc):
    """Ellipse with the crack spanning the parameter interval ``crack_arc``."""
    start, end = crack_arc
    return EllipseContour(a, b, start, end)
