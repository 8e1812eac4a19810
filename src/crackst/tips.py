"""Tip-resolved solve: the solver's equations on a basis that follows the
surface-tension layers at the crack tips.

The solver's polynomial densities cannot follow the near-tip fields, which
vary on the face surface-tension length c (about 2e-3 on the reference
setup) and below it; it therefore leaves a zone of width delta (its tip
inset) at each tip unenforced.  ``solve_tip_resolved`` assembles the same
rows (solver._assemble_rows) on a basis that adds, to a Legendre series
on each arc, a series per tip in a variable that is logarithmic in the
distance to the tip, and collocates them up to the tips.  It is a separate
solve: the published densities still come from ``solve_problem``.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev as C

from .kernels import FINE_RULE
from .solver import (
    FUNCTIONS,
    OVERSAMPLE,
    _LegendreBasis,
    _eval_arcs,
    assemble,
    solve,
)

__all__ = ["TipResolvedDensities", "face_tension_length", "solve_tip_resolved"]

# Each tip's series reaches TIP_ZONE_WIDTH solver insets delta from the tip
# on both arcs and has TIP_ZONE_TERMS functions per density part, Chebyshev
# polynomials in x, which is affine in log(u) + TIP_ZONE_STRETCH * u with
# u = d / zone width (the stretch adds resolution near the zone edge).  The
# series is resolved down to min(c, delta) * 2^-TIP_ZONE_DEPTH and frozen
# below.  The fits do not depend on the Legendre degree or the number of terms
# (tests/test_tips.py), nor on a depth from 16 to 18.  The region below
# d_min is not enforced, and at the ladder point d its error enters the
# stress trace like d_min / d: at a depth of 14 the matrix side misses by
# 0.14 of the load at the bottom of the ladder, at 17 by 6e-4.  Deeper
# resolution needs more terms (at 20 the residual is three times larger).
TIP_ZONE_WIDTH = 2.0
TIP_ZONE_TERMS = 32
TIP_ZONE_STRETCH = 8.0
TIP_ZONE_DEPTH = 17
# The basis resolves the tips, so its tip-anchored rows (slope continuity
# across the tips, the bonded-arc constant-term tie) are held strongly.  At
# weight 1 the N = 24 central opening moves by -6%, and the fits come to
# depend on the number of zone terms (tests/test_tips.py).
RESOLVED_TIP_ROW_WEIGHT = 100.0


def face_tension_length(setup):
    """Face surface-tension length c = max gamma_pm (kappa_pm + 1) / (4 mu_pm).

    These are the coefficients of the crack-face conditions; the surface
    tension regularizes the tip fields within a layer of about this width.
    """
    return max(phase.tension_coefficient for phase in setup.phases)


# Function kinds of the zone series: stress densities, and the real and
# imaginary parts of the displacement-derivative densities.
_KINDS = {"q0": ("q", "q"), "q": ("q", "q"), "g0p": ("g_re", "g_im"), "gp": ("g_re", "g_im")}


def _basis_terms(kind, k):
    """The k zone functions of one kind, as {m: [k, k+1] Chebyshev
    coefficients}: function j is sum_m u^m S_jm(x).  Every function vanishes
    at the zone edge u = 1.

    The stress densities are a + b log d at the tip, up to terms that vanish
    like d log^n d (x is affine in log u + STRETCH * u).  The
    displacement-derivative densities stay finite; the derivative of their
    real part (the slope) stays finite, and that of their imaginary part
    grows at most like a power of log d.  The face conditions take the second
    derivative of Re g and the first of Im g, so any faster growth would put
    a stress that is not integrable at the tip.
    """
    eye = np.eye(k + 1)
    series = eye[1:] - eye[0]  # T_j(x) - 1, j = 1..k
    terms = {m: np.zeros((k, k + 1)) for m in range(3)}
    if kind == "q":  # a + b x + u P(x)
        terms[0][0, 0], terms[1][0, 0] = 1.0, -1.0
        terms[0][1, :2] = -1.0, 1.0
        terms[1][2:] = series[: k - 2]
    elif kind == "g_re":  # a + b u + u^2 P(x)
        terms[0][0, 0], terms[1][0, 0] = 1.0, -1.0
        terms[1][1, 0], terms[2][1, 0] = 1.0, -1.0
        terms[2][2:] = series[: k - 2]
    else:  # a + u P(x)
        terms[0][0, 0], terms[1][0, 0] = 1.0, -1.0
        terms[1][1:] = series[: k - 1]
    return terms


class _LogBasis:
    """Zone functions on distances d in [0, width] from a tip.

    The Chebyshev variable x runs from -1 at d_min to 1 at the zone width,
    linearly in xi = log(u) + TIP_ZONE_STRETCH * (u - 1), u = d/width:
    logarithmic near the tip, with extra resolution near the zone edge.
    Below d_min the Chebyshev factors are frozen at x = -1.
    """

    def __init__(self, width, d_min, k):
        self.width, self.d_min, self.k = width, d_min, k
        u_min = d_min / width
        self._dx = 2.0 / -(np.log(u_min) + TIP_ZONE_STRETCH * (u_min - 1.0))  # dx/dxi
        self._terms = {kind: _basis_terms(kind, k) for kind in ("q", "g_re", "g_im")}
        self._cache = {}

    def distance(self, x):
        """Inverse map: the distances d at which the variable takes values x."""
        lo = np.full(np.shape(x), np.log(self.d_min / self.width))
        hi = np.zeros(np.shape(x))
        xi = (np.asarray(x, dtype=float) - 1.0) / self._dx
        for _ in range(60):  # bisection on log u; xi is increasing in u
            mid = 0.5 * (lo + hi)
            low = mid + TIP_ZONE_STRETCH * (np.exp(mid) - 1.0) < xi
            lo, hi = np.where(low, mid, lo), np.where(low, hi, mid)
        return self.width * np.exp(0.5 * (lo + hi))

    def _derivative_terms(self, kind, order):
        """{j: [k+1, k]} with the order-th u-derivative = sum_j u^(j-order) T(x) @ g_j.

        d^n/du^n f = u^-n (D - n + 1) ... (D - 1) D f with D = u d/du, and
        D [u^j S(x)] = u^j (j S + x' S') + u^(j+1) STRETCH x' S'.
        """
        key = (kind, order)
        if key not in self._cache:
            terms = {m: coef.T for m, coef in self._terms[kind].items()}
            for n in range(order):
                stepped = {}
                for j, g in terms.items():
                    dg = self._dx * np.pad(C.chebder(g), ((0, 1), (0, 0)))
                    stepped[j] = stepped.get(j, 0.0) + (j - n) * g + dg
                    stepped[j + 1] = stepped.get(j + 1, 0.0) + TIP_ZONE_STRETCH * dg
                terms = stepped
            self._cache[key] = terms
        return self._cache[key]

    def values(self, kind, d, order=0):
        """[len(d), k]: the order-th d-derivatives of the kind's functions."""
        d = np.asarray(d, dtype=float)
        u = d / self.width
        u_in = np.maximum(u, self.d_min / self.width)
        x = 1.0 + self._dx * (np.log(u_in) + TIP_ZONE_STRETCH * (u_in - 1.0))
        vander = C.chebvander(x, self.k)
        out = np.zeros((d.size, self.k))
        for j, g in self._derivative_terms(kind, order).items():
            out += (vander @ g) * (u_in ** (j - order))[:, None]
        frozen = d <= self.d_min
        if np.any(frozen):
            # There u^m S(-1) has the derivatives m!/(m-n)! u^(m-n) S(-1).
            vander = C.chebvander(-1.0, self.k)
            out[frozen] = 0.0
            for m, coef in self._terms[kind].items():
                if m >= order:
                    falling = np.prod(np.arange(m, m - order, -1.0))
                    out[frozen] += falling * np.outer(u[frozen] ** (m - order), vander @ coef.T)
        return out / self.width**order


class TipEnrichedBasis(_LegendreBasis):
    """Basis of the tip-resolved solve: on each arc the solver's Legendre
    polynomials P_0..P_N of the scaled arc variable, then the zone series of
    the tip at the arc's start and of the tip at its end.  The zone series of
    the real and the imaginary part of a density may differ in kind (see
    _basis_terms).

    Its rows run up to the tips: they keep only the inset 2 d_min, are not
    tapered, and the tip-anchored rows weigh RESOLVED_TIP_ROW_WEIGHT, since
    here the basis resolves the tips."""

    taper_exponent = 0.0
    tip_weight = RESOLVED_TIP_ROW_WEIGHT

    def __init__(self, setup, n, zone_terms=TIP_ZONE_TERMS):
        contour = setup.contour
        super().__init__(contour.l0, contour.l, n, degree=n)
        inset = self.delta  # the Legendre basis' inset sets the zone width
        self.d_min = min(face_tension_length(setup), inset) * 2.0**-TIP_ZONE_DEPTH
        self.delta = 2.0 * self.d_min
        self.zone = _LogBasis(TIP_ZONE_WIDTH * inset, self.d_min, zone_terms)
        self.size += 2 * zone_terms
        self.bond_tension = setup.surface.gamma_interface > 0.0

    def part_keys(self, piece):
        arc, which = divmod(piece, 4)
        if arc == 1 and which in (1, 3) and not self.bond_tension:
            # Without interface tension the bonded-arc conditions take no
            # derivative of g, so its real part is held only to the looser
            # class.
            return "g_im", "g_im"
        return _KINDS[FUNCTIONS[which]]

    def keys(self, arc):
        return tuple(dict.fromkeys(k for p in range(4 * arc, 4 * arc + 4) for k in self.part_keys(p)))

    def lengths(self, piece):
        return self.size, self.size

    def functions(self, arc, kind, s, order=0):
        """[len(s), size]: the order-th s-derivatives of the functions."""
        s = np.asarray(s, dtype=float)
        out = [super().functions(arc, kind, s, order)]
        start, end = (0.0, self.l0) if arc == 0 else (self.l0, self.l)
        for d, sign in ((s - start, 1.0), (end - s, -1.0)):
            z = np.zeros((s.size, self.zone.k))
            near = d <= self.zone.width
            if np.any(near):
                z[near] = self.zone.values(kind, np.maximum(d[near], 0.0), order) * sign**order
            out.append(z)
        return np.hstack(out)

    def densities(self, full, layout):
        return TipResolvedDensities(
            self, [(full[layout.a_cols(p)], full[layout.b_cols(p)]) for p in range(8)]
        )

    def collocation_points(self):
        """On each arc, OVERSAMPLE times as many points as the arc has
        Legendre functions, at its Chebyshev points, and at each end
        OVERSAMPLE times as many as a zone has functions, at the Chebyshev
        points of the zone variable."""
        m = int(round(OVERSAMPLE * (self.n + 1)))
        x = -np.cos(np.pi * (np.arange(m) + 0.5) / m)
        k = int(round(OVERSAMPLE * self.zone.k))
        d = self.zone.distance(-np.cos(np.pi * (np.arange(k) + 0.5) / k))
        out = []
        for start, end in ((0.0, self.l0), (self.l0, self.l)):
            mid, half = 0.5 * (start + end), 0.5 * (end - start)
            out.append(np.sort(np.concatenate([mid + half * x, start + d, end - d])))
        return tuple(out)


class TipResolvedDensities:
    """Densities of the tip-resolved solve, with DensitySet.eval's interface."""

    def __init__(self, basis, coefficients):
        self.basis = basis
        self.coefficients = coefficients  # (real, imaginary) per piece
        self.n, self.l0, self.l = basis.n, basis.l0, basis.l

    def eval(self, which, s, order=0):
        """Value (order=0) or s-derivative of a density, as DensitySet.eval."""
        def arc_values(piece, arc, s_arc):
            key_a, key_b = self.basis.part_keys(piece)
            re, im = self.coefficients[piece]
            return (
                self.basis.functions(arc, key_a, s_arc, order) @ re
                + 1j * (self.basis.functions(arc, key_b, s_arc, order) @ im)
            )

        return _eval_arcs(self, which, s, arc_values)


def solve_tip_resolved(setup, n, zone_terms=TIP_ZONE_TERMS):
    """Solve the problem on the tip-enriched basis, collocated up to the tips.

    The rows are the solver's (both extension equations, the face and
    bonded-arc conditions, the bonded-arc constant-term tie and the
    continuity of Re g0', Re g' across the tips), collocated and weighted as
    TipEnrichedBasis sets, and so are its exact side conditions (the
    bonded-arc slope proportionality, force balance and single-valuedness).
    The quadrature is kernels.FINE_RULE, its tip panels graded down to d_min.
    ``n`` is the Legendre degree on each arc.  Returns
    (TipResolvedDensities, ResidualReport).
    """
    basis = TipEnrichedBasis(setup, n, zone_terms)
    return solve(assemble(setup, n, rule=FINE_RULE, basis=basis))
