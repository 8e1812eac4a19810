"""Dense reference forms of the kernel builders, kept to pin the library's
in-place versions bit for bit.

``pv_values`` builds the coincident-pair mask and the quotient matrix
densely (coincident pairs zero, then their slope limit added), and
``regular_kernels`` evaluates k1 and k2 through the raw single-kernel
quotients below; the arithmetic of every kept entry is the library's.
"""

import numpy as np

from crackst.kernels import DIVIDED_DIFFERENCE_EPS_FACTOR, PV_SLOPE_STEP_FACTOR


def kernel_k1(t, dt_field, tau):
    """Raw first regular kernel; no diagonal guard (tau != t required)."""
    return -1.0 / (tau - t) + (np.conj(dt_field) / dt_field) / (np.conj(tau) - np.conj(t))


def kernel_k2(t, dt_field, tau):
    """Raw second regular kernel; no diagonal guard (tau != t required)."""
    dbar = np.conj(tau) - np.conj(t)
    return 1.0 / dbar - (tau - t) / dbar**2 * (np.conj(dt_field) / dt_field)


def regular_kernels(contour, s_field, t, dt, s_src, tau, eps):
    l = contour.l
    d = np.mod(s_src - s_field + 0.5 * l, l) - 0.5 * l
    near = np.abs(d) < eps
    tau = np.where(near, t + 1.0, tau)
    out1 = np.asarray(kernel_k1(t, dt, tau), dtype=complex)
    out2 = np.asarray(kernel_k2(t, dt, tau), dtype=complex)
    if np.any(near):
        s_near = np.broadcast_to(s_field, near.shape)[near]
        dt_near = np.broadcast_to(dt, near.shape)[near]
        d_near = d[near]
        rho = contour.curvature(s_near)
        lin = rho + contour.curvature_derivative(s_near) * d_near / 3.0
        out1[near] = 1j * lin / dt_near
        out2[near] = -1j * (lin + 1j * rho**2 * d_near) / np.conj(dt_near)
    return out1, out2


def near_mask(disc, at, arc_at, eps):
    """Dense [node, field point] mask of the same-arc pairs within eps."""
    return (np.abs(disc.s[:, None] - at[None, :]) < eps) & (disc.arc[:, None] == arc_at[None, :])


def pv_values(contour, density, at, disc):
    at = np.asarray(at, dtype=float)
    phi_q = np.asarray(density(disc.s), dtype=complex)
    phi_a = np.asarray(density(at), dtype=complex)
    t_a = contour.point(at)
    arc_a = np.where(contour.wrap(at) <= contour.l0, 0, 1)
    near = near_mask(disc, at, arc_a, DIVIDED_DIFFERENCE_EPS_FACTOR * contour.l)
    denom = np.where(near, 1.0, disc.tau[:, None] - t_a[None, :])
    cmat = np.where(near, 0.0, (disc.w * disc.dt)[:, None] / denom)
    heads = [row @ cmat for row in phi_q.reshape(-1, disc.n_nodes)]
    heads = np.reshape(heads, phi_q.shape[:-1] + (at.size,))
    total = heads - phi_a * (np.sum(cmat, axis=0) - 1j * np.pi)
    qi, ai = np.nonzero(near)
    if qi.size:
        s = at[ai]
        lo = np.where(arc_a[ai] == 0, 0.0, contour.l0)
        hi = np.where(arc_a[ai] == 0, contour.l0, contour.l)
        h = PV_SLOPE_STEP_FACTOR * contour.l
        hp = np.minimum(h, 0.5 * (hi - s))
        hm = np.minimum(h, 0.5 * (s - lo))
        dphi = np.subtract(density(s + hp), density(s - hm)) / (hp + hm)
        np.add.at(np.moveaxis(total, -1, 0), ai, np.moveaxis(disc.w[qi] * dphi, -1, 0))
    return total
