"""Regular kernels and Cauchy principal-value quadrature on the closed contour.

The two regular kernels are

    k1(t, tau) = -1/(tau - t) + (conj(t')/t') / (conj(tau) - conj(t))
    k2(t, tau) =  1/(conj(tau) - conj(t))
                  - (tau - t)/(conj(tau) - conj(t))**2 * conj(t')/t'

with t' the unit tangent at the field point.  Both are smooth along a smooth
contour; their diagonal limits are i*rho/t' and -i*rho/conj(t'), and both
vanish identically on straight segments.  Close to the diagonal the raw
quotients cancel, so every kernel evaluation (the solver's tables and the
stress traces) goes through _regular_kernels: a second-order expansion about
the field point for the near pairs (an exact test on a cheap test's
candidates), and elsewhere both raw quotients from one reciprocal 1/(tau - t).

Principal values of Cauchy integrals over the closed contour are computed by
singularity subtraction,

    PV int phi/(tau - t) dtau
        = int (phi(tau) - phi(t))/(tau - t) dtau + i*pi*phi(t),

which keeps composite Gauss-Legendre panels spectrally accurate for smooth
per-arc densities.  Every node/field pair, here and in the solver's Cauchy
table, takes the raw quotient but a node on the field point, which takes its
slope limit.  Densities may jump at the crack tips; panels never straddle a
tip, and an optional geometric grading of the end panels resolves the
resulting near-tip boundary layers.  The nodes ascend in s over both arcs,
which the bisection search for coincident node/field pairs relies on.

Principal values are evaluated in blocks of PV_BLOCK_POINTS = 128 field
points, so their kernel matrix takes O(nodes) memory however many points are
asked for.  Each field point's value is the one a single whole-matrix
evaluation gives, bit for bit on one BLAS thread: the blocks keep every
point's summation order, and a one-point remainder joins the block before it,
because a one-column matrix-vector product takes another BLAS path and rounds
differently.  A threaded OpenBLAS splits each product's field points between
threads at places that depend on the product's width and rounds the last
points of each share through that other path, so there blocked and
whole-matrix values may differ in their last bits (the whole-matrix values
themselves change with the thread count).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .geometry import _memoized

__all__ = [
    "TipProximityError",
    "QuadratureRule",
    "Discretization",
    "cauchy_pv",
    "singular_apply",
    "contour_integral",
]

# Fraction of the total length below which kernel evaluation switches from
# the raw quotients (cancellation error 1e-16/d**2) to the near-diagonal
# expansion (error O(d**2)).
DIAG_EPS_FACTOR = 1e-5
# Same-arc node/field pairs closer than this fraction of the total length
# coincide: the Cauchy quotient would divide by zero there and takes its slope
# limit, while elsewhere it loses only about 1e-16/d to rounding.
DIVIDED_DIFFERENCE_EPS_FACTOR = 1e-13
# Step, as a fraction of the total length, of the central difference giving
# that slope (README weighs its h**2 error against rounding).
PV_SLOPE_STEP_FACTOR = 1e-6
# Field points closer than this to a crack tip are rejected for PV evaluation.
TIP_EPS_FACTOR = 1e-6
# Field points per block of a principal-value evaluation; the block's kernel
# matrix holds nodes x PV_BLOCK_POINTS complex entries (one more at most).
PV_BLOCK_POINTS = 128


class TipProximityError(ValueError):
    """Raised when a principal value is requested too close to a crack tip."""


def circular_distance(s_a, s_b, period):
    d = np.abs(np.mod(s_a - s_b, period))
    return np.minimum(d, period - d)


def _regular_kernels(contour, s_field, t, dt, s_src, tau, eps):
    """k1 and k2 of the field points (s_field, t, dt) against the sources
    (s_src, tau), broadcast together.

    Pairs closer than ``eps`` in arc length, where the raw quotients lose
    about 1e-16/d**2 to cancellation, take the expansion about the field
    point in d = s_src - s_field, signed on the closed contour:

        k1 = i*(rho + rho'*d/3)/t' + O(d**2)
        k2 = -i*(rho + rho'*d/3 + i*rho**2*d)/conj(t') + O(d**2)

    with rho, rho' and t' at the field point; on a circle k1 is exact.  Only
    the candidates of a cheap test (|s_src - s_field| within 2 eps of 0 or
    past l - 2 eps, near the seam s = 0 == l) take the exact signed d.  Both
    raw quotients use one reciprocal inv = 1/dz, dz = tau - t: -1/dz is -inv
    and 1/conj(dz) is conj(inv), bit for bit.
    """
    l = contour.l
    gap = np.asarray(s_src - s_field)
    cand = (np.abs(gap, out=gap) < 2.0 * eps) | (gap > l - 2.0 * eps)
    src, field = (np.broadcast_to(s, cand.shape)[cand] for s in (s_src, s_field))
    d = np.mod(src - field + 0.5 * l, l) - 0.5 * l
    near = np.zeros_like(cand)
    near[cand] = keep = np.abs(d) < eps
    d = d[keep]
    # conj(dz) is conj(tau) - conj(t) bit for bit; dz is at least 1-d to be worked in place.
    dz = np.atleast_1d(tau - t).astype(complex, copy=False)
    dz[near] = 1.0
    dbar, ratio, inv = np.conj(dz), np.conj(dt) / dt, 1.0 / dz
    out1 = ratio / dbar - inv
    dz /= np.square(dbar, out=dbar)
    dz *= ratio
    out2 = np.subtract(np.conj(inv, out=inv), dz, out=inv)
    if np.any(near):
        s_near = np.broadcast_to(s_field, near.shape)[near]
        dt_near = np.broadcast_to(dt, near.shape)[near]
        rho = contour.curvature(s_near)
        lin = rho + contour.curvature_derivative(s_near) * d / 3.0
        out1[near] = 1j * lin / dt_near
        out2[near] = -1j * (lin + 1j * rho**2 * d) / np.conj(dt_near)
    return out1.reshape(near.shape), out2.reshape(near.shape)


def _graded_edges(lo, hi, base_panels, tip_panel):
    """Panel edges on [lo, hi]: uniform base panels, with the first and last
    panel geometrically refined toward the arc ends down to tip_panel."""
    edges = np.linspace(lo, hi, base_panels + 1)
    if tip_panel is None or tip_panel <= 0.0:
        return edges
    w = edges[1] - edges[0]
    if tip_panel >= w:
        return edges
    m = int(np.ceil(np.log2(w / tip_panel)))
    fracs = 2.0 ** np.arange(-m, 0)  # w/2^m ... w/2
    head = edges[0] + np.concatenate(([0.0], w * fracs))
    tail = edges[-1] - np.concatenate(([0.0], w * fracs))[::-1]
    return np.concatenate([head, edges[1:-1], tail[1:]])


@dataclass(frozen=True)
class Discretization:
    """Concrete nodes of a rule on a contour (arc 0 = crack, arc 1 = bonded)."""

    s: np.ndarray
    w: np.ndarray
    arc: np.ndarray
    tau: np.ndarray
    dt: np.ndarray

    @property
    def n_nodes(self):
        return self.s.size


# Gauss-Legendre nodes and weights on [-1, 1], which the rules only read.
_gauss_legendre = functools.lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


def _build_discretization(contour, nodes_per_panel, panels_per_arc, tip_panel):
    xg, wg = _gauss_legendre(nodes_per_panel)
    ss, ww, aa = [], [], []
    for arc in (0, 1):
        lo, hi = contour.arc_interval(arc)
        edges = _graded_edges(lo, hi, panels_per_arc, tip_panel)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[:-1] + edges[1:])
        nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
        weights = (half[:, None] * wg[None, :]).ravel()
        ss.append(nodes)
        ww.append(weights)
        aa.append(np.full(nodes.size, arc, dtype=int))
    s = np.concatenate(ss)
    return Discretization(
        s=s,
        w=np.concatenate(ww),
        arc=np.concatenate(aa),
        tau=contour.point(s),
        dt=contour.tangent(s),
    )


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre rule, per arc, with optional tip grading.

    nodes_per_panel must be at least 4; panels_per_arc counts the uniform base
    panels on each arc.  ``adaptive`` lets the solver double the base panels
    until its operator tables stabilize.
    """

    nodes_per_panel: int = 16
    panels_per_arc: int = 8
    adaptive: bool = True

    def __post_init__(self):
        for name, least in (("nodes_per_panel", 4), ("panels_per_arc", 1)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
        if not isinstance(self.adaptive, (bool, np.bool_)):
            raise ValueError(f"adaptive must be a bool, got {self.adaptive!r}")

    def refined(self):
        """The same rule with twice the panels per arc."""
        return replace(self, panels_per_arc=self.panels_per_arc * 2)

    def discretize(self, contour, tip_panel=None):
        """Nodes, weights and cached geometry for both arcs of the contour.

        Discretizations are memoized on the contour (geometry._memoized),
        which is treated as immutable: an equal rule and tip grading return
        the same Discretization, whose arrays are read-only.
        """
        if tip_panel is not None and tip_panel <= 0.0:
            tip_panel = None
        key = (
            self.nodes_per_panel,
            self.panels_per_arc,
            None if tip_panel is None else float(tip_panel),
        )
        return _memoized(contour, "_discretizations", key, lambda: _build_discretization(contour, *key))


# The fixed rule of the post-hoc validation checks, postprocess.potentials_at
# and the tip-resolved solve: twice the default base panels per arc.
FINE_RULE = QuadratureRule(nodes_per_panel=16, panels_per_arc=16, adaptive=False)


def _check_off_tips(contour, s_field, tip_eps=None):
    eps = TIP_EPS_FACTOR * contour.l if tip_eps is None else tip_eps
    if eps <= 0.0:
        return
    for tip in (0.0, contour.l0):
        d = circular_distance(np.asarray(s_field, dtype=float), tip, contour.l)
        if np.any(d < eps):
            raise TipProximityError(
                f"field point within {eps:g} of the crack tip at s={tip:g}; "
                "density regularity is not guaranteed there"
            )


def _cauchy_matrix(disc, at, t, arc_at, eps):
    """w dtau/(tau - t) of the nodes (rows) at the field points at, t(at)
    (columns), in one complex array, and the same-arc pairs (qi, ai) with
    |disc.s - at| < eps in row-major order, which the matrix leaves out
    (zero) for the caller's slope limit.  The pairs are found by bisection
    in disc.s, which ascends over both arcs, so no dense mask is built."""
    lo = np.searchsorted(disc.s, at - 2.0 * eps, side="left")
    counts = np.searchsorted(disc.s, at + 2.0 * eps, side="right") - lo
    ai = np.repeat(np.arange(at.size), counts)
    qi = np.arange(ai.size) - np.repeat(np.cumsum(counts) - counts - lo, counts)
    keep = (np.abs(disc.s[qi] - at[ai]) < eps) & (disc.arc[qi] == arc_at[ai])
    order = np.lexsort((ai[keep], qi[keep]))
    qi, ai = qi[keep][order], ai[keep][order]
    cmat = np.subtract.outer(disc.tau, t)
    cmat[qi, ai] = 1.0
    np.divide((disc.w * disc.dt)[:, None], cmat, out=cmat)
    cmat[qi, ai] = 0.0
    return cmat, qi, ai


def _pv_values(contour, density, at, disc):
    """Vectorized subtraction PV of int density/(tau - t(at)) dtau: the raw
    divided difference for every pair but a node on the field point, which
    adds w_q times the density's slope there.  ``density`` may return a
    stack of densities on leading axes; they share the kernel matrix.  The
    kernel matrix is built for PV_BLOCK_POINTS field points at a time (see
    _pv_blocks).
    """
    at = np.asarray(at, dtype=float)
    phi_q = np.asarray(density(disc.s), dtype=complex)
    phi_a = np.asarray(density(at), dtype=complex)
    t_a = contour.point(at)
    # Only same-arc pairs coincide; across a tip the density may jump, and
    # the raw quotient is then the correct (near-singular) integrand value.
    arc_a = np.where(contour.wrap(at) <= contour.l0, 0, 1)
    eps, step = DIVIDED_DIFFERENCE_EPS_FACTOR * contour.l, PV_SLOPE_STEP_FACTOR * contour.l
    rows = phi_q.reshape(-1, disc.n_nodes)
    heads = np.empty((rows.shape[0], at.size), dtype=complex)
    col_sums = np.empty(at.size, dtype=complex)
    near_q, near_a = [], []
    for start, stop in _pv_blocks(at.size):
        block = slice(start, stop)
        cmat, qi, ai = _cauchy_matrix(disc, at[block], t_a[block], arc_a[block], eps)
        # One matrix-vector product per density keeps its summation order.
        for row, head in zip(rows, heads):
            head[block] = row @ cmat
        col_sums[block] = np.sum(cmat, axis=0)
        near_q.append(qi)
        near_a.append(ai + start)
        del cmat  # before the next block's matrix is built
    heads = heads.reshape(phi_q.shape[:-1] + (at.size,))
    total = heads - phi_a * (col_sums - 1j * np.pi)
    qi, ai = np.concatenate(near_q), np.concatenate(near_a)
    if qi.size:
        # The slope is a central difference kept within half the distance to
        # the ends of the point's own arc: a stencil reaching a tip would read
        # the other arc's branch there (the densities take s <= l0 as arc 0).
        s = at[ai]
        lo = np.where(arc_a[ai] == 0, 0.0, contour.l0)
        hi = np.where(arc_a[ai] == 0, contour.l0, contour.l)
        hp, hm = np.minimum(step, 0.5 * (hi - s)), np.minimum(step, 0.5 * (s - lo))
        dphi = np.subtract(density(s + hp), density(s - hm)) / (hp + hm)
        # Each field point's pairs lie in one block, in ascending node order,
        # so np.add.at adds them in the order of the whole-matrix search.
        np.add.at(np.moveaxis(total, -1, 0), ai, np.moveaxis(disc.w[qi] * dphi, -1, 0))
    return total


def _pv_blocks(n_points):
    """(start, stop) of the field-point blocks of _pv_values: PV_BLOCK_POINTS
    wide, with a one-point remainder joined to the block before it, since a
    one-column product takes another BLAS path and rounds differently.  An
    empty field gives one empty block."""
    starts = list(range(0, n_points, PV_BLOCK_POINTS)) or [0]
    if len(starts) > 1 and n_points - starts[-1] == 1:
        starts.pop()
    return zip(starts, starts[1:] + [n_points])


def cauchy_pv(contour, density, s_field, rule, tip_panel=None, tip_eps=None):
    """Principal value of int density(tau)/(tau - t(s_field)) dtau over the
    closed contour.

    ``density`` is a vectorized callable of arc length; it must be smooth on
    each arc (jumps at the tips are allowed) and may return a stack of
    densities on leading axes.  Field points closer than
    ``tip_eps`` to a tip are rejected (pass 0 to disable the guard, e.g. when
    the density is known to be regular across that tip).  The near pairs
    follow _pv_values: the raw divided difference unless a node sits on the
    field point.
    """
    _check_off_tips(contour, s_field, tip_eps)
    disc = rule.discretize(contour, tip_panel)
    vals = _pv_values(contour, density, np.atleast_1d(s_field), disc)
    return vals[..., 0] if np.ndim(s_field) == 0 else vals


def singular_apply(contour, density, rule, at=None, tip_panel=None, tip_eps=None):
    """Cauchy singular operator S density = (1/(i*pi)) PV int density/(tau-t) dtau.

    Values are returned at ``at`` (defaults to the rule's own nodes).  On a
    closed contour S is an involution on smooth densities, which is the
    library's primary quadrature self-check.
    """
    if at is None:
        at = rule.discretize(contour, tip_panel).s
    return cauchy_pv(contour, density, at, rule, tip_panel, tip_eps) / (1j * np.pi)


def contour_integral(contour, density, rule, arc=None, tip_panel=None):
    """Plain int density(tau) dtau over the contour (or one arc of it)."""
    disc = rule.discretize(contour, tip_panel)
    mask = slice(None) if arc is None else disc.arc == arc
    phi = np.asarray(density(disc.s[mask]), dtype=complex)
    return np.sum(phi * disc.w[mask] * disc.dt[mask])
