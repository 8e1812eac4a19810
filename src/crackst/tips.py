"""Tip-resolved solve: the solver's equations on a basis that follows the
surface-tension layers at the crack tips.

The solver's polynomial densities cannot follow the near-tip fields, which
vary on the face surface-tension length c (about 2e-3 on the reference
setup) and below it; it therefore leaves a zone of width delta (its tip
inset) at each tip unenforced.  ``solve_tip_resolved`` assembles the same
rows (solver._assemble_rows) on a basis that adds, to a Legendre series
on each arc, a series per tip in a variable that is logarithmic in the
distance to the tip, and collocates them up to the tips.  It returns a
DensitySet on that basis (TipEnrichedBasis), which evaluates through the
basis like the solver's; only the solver's Legendre densities can be
written to densities.json.  It is a separate solve: the published densities
still come from ``solve_problem``.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev as C

from .geometry import _memoized
from .kernels import FINE_RULE
from .solver import OVERSAMPLE, _LegendreBasis, solve_cases

__all__ = ["face_tension_length", "solve_tip_resolved"]

# Each tip's series reaches TIP_ZONE_WIDTH solver insets delta from the tip
# on both arcs and has TIP_ZONE_TERMS functions per density part, Chebyshev
# polynomials in x, which is affine in log(u) with u = d / zone width.  The
# series is resolved down to min(c, delta) * 2^-TIP_ZONE_DEPTH and frozen
# below.  The fits do not depend on the Legendre degree or the number of terms
# (tests/test_tips.py), nor on a depth from 16 to 18.  The region below
# d_min is not enforced, and at the ladder point d its error enters the
# stress trace like d_min / d: at a depth of 14 the matrix side misses by
# 2.7e-3 of the load at the bottom of the ladder, at 17 by 6e-4.  Deeper
# resolution needs more terms (at 20 the residual is ten times larger).
TIP_ZONE_WIDTH = 2.0
TIP_ZONE_TERMS = 32
TIP_ZONE_DEPTH = 17
# The basis resolves the tips, so its tip-anchored rows (slope continuity
# across the tips, the bonded-arc constant-term tie) are held strongly.  At
# weight 1 the N = 24 central opening moves by -2.3%; at 1e4 it agrees with
# that at 100 to 5e-6.
RESOLVED_TIP_ROW_WEIGHT = 100.0


def face_tension_length(setup):
    """Face surface-tension length c = max gamma_pm (kappa_pm + 1) / (4 mu_pm).

    These are the coefficients of the crack-face conditions; the surface
    tension regularizes the tip fields within a layer of about this width.
    """
    return max(phase.tension_coefficient for phase in setup.phases)


# Function kinds of the zone series, in the order of the function table:
# stress densities, and the real and imaginary parts of the
# displacement-derivative densities; and the kinds of the (real, imaginary)
# parts of each density, in the order of FUNCTIONS.  Without interface
# tension the bonded-arc conditions take no derivative of g, so there its
# real part is held only to the looser class.
_KINDS = ("q", "g_re", "g_im")
_PART_KINDS = (("q", "q"), ("g_re", "g_im"), ("q", "q"), ("g_re", "g_im"))
_UNTENSIONED_PART_KINDS = (("q", "q"), ("g_im", "g_im"), ("q", "q"), ("g_im", "g_im"))


def _basis_terms(kind, k):
    """The k zone functions of one kind, as {m: [k, k+1] Chebyshev
    coefficients}: function j is sum_m u^m S_jm(x).  Every function vanishes
    at the zone edge u = 1.

    The stress densities are a + b log d at the tip, up to terms that vanish
    like d log^n d (x is affine in log u).  The
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
    linearly in log(u), u = d/width.  Below d_min the Chebyshev factors are
    frozen at x = -1.
    """

    def __init__(self, width, d_min, k):
        self.width, self.d_min, self.k = width, d_min, k
        self._dx = 2.0 / -np.log(d_min / width)  # dx/dlog(u)
        self._terms = {kind: _basis_terms(kind, k) for kind in _KINDS}

    def distance(self, x):
        """Inverse map: the distances d at which the variable takes values x."""
        return self.width * np.exp((np.asarray(x, dtype=float) - 1.0) / self._dx)

    def _derivative_terms(self, kind, order, slope):
        """{j: [k+1, k]} with the order-th u-derivative = sum_j u^(j-order) T(x) @ g_j.

        d^n/du^n f = u^-n (D - n + 1) ... (D - 1) D f with D = u d/du, and
        D [u^j S(x)] = u^j (j S + x' S'), x' = u dx/du = ``slope``: the map's
        dx/dlog(u) above d_min, and 0 in the frozen region below it.
        """
        terms = {m: coef.T for m, coef in self._terms[kind].items()}
        for n in range(order):
            terms = {
                j: (j - n) * g + slope * np.pad(C.chebder(g), ((0, 1), (0, 0)))
                for j, g in terms.items()
            }
        return terms

    def values(self, kind, d, order=0):
        """[len(d), k]: the order-th d-derivatives of the kind's functions."""
        d = np.asarray(d, dtype=float)
        u = d / self.width
        frozen = d <= self.d_min
        x = 1.0 + self._dx * np.log(np.maximum(u, self.d_min / self.width))
        x[frozen] = -1.0
        vander = C.chebvander(x, self.k)
        out = np.zeros((d.size, self.k))
        for rows, slope in ((~frozen, self._dx), (frozen, 0.0)):
            key = (kind, order, slope)
            terms = _memoized(self, "_derived_terms", key, lambda: self._derivative_terms(*key))
            for j, g in terms.items():
                if np.any(g):  # u^(j-order) is infinite at d = 0 where g_j vanishes
                    out[rows] += (vander[rows] @ g) * (u[rows] ** (j - order))[:, None]
        return out / self.width**order


class TipEnrichedBasis(_LegendreBasis):
    """Basis of the tip-resolved solve.  Its function table on each arc holds
    the solver's Legendre polynomials P_0..P_N of the scaled arc variable,
    then, for each kind of _basis_terms that a part on the arc takes, the
    zone series of the tip at the arc's start and of the tip at its end.
    Each part of a density takes the Legendre block and the two zone series
    of its kind (``part_kinds``), so the real and the imaginary part of a
    density may differ in kind, and every column of a table is taken.

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
        # Per arc: the kinds of each density's parts, and the kinds its table holds.
        bonded = _PART_KINDS if setup.surface.gamma_interface > 0.0 else _UNTENSIONED_PART_KINDS
        self.part_kinds = (_PART_KINDS, bonded)
        self.kinds = tuple(
            tuple(kind for kind in _KINDS if any(kind in parts for parts in arc_parts))
            for arc_parts in self.part_kinds
        )

    def columns(self, piece):
        arc, which = divmod(piece, 4)
        zones, kinds = 2 * self.zone.k, self.kinds[arc]
        return tuple(
            np.concatenate([np.arange(self.size), self.size + zones * kinds.index(kind) + np.arange(zones)])
            for kind in self.part_kinds[arc][which]
        )

    def functions(self, arc, s, order=0):
        """[len(s), N + 1 + 2 zone terms per kind]: the order-th
        s-derivatives of the Legendre block, then of each of the arc's kinds'
        zone series at both tips."""
        s = np.asarray(s, dtype=float)
        out = [super().functions(arc, s, order)]
        start, end = (0.0, self.l0) if arc == 0 else (self.l0, self.l)
        for kind in self.kinds[arc]:
            for d, sign in ((s - start, 1.0), (end - s, -1.0)):
                z = np.zeros((s.size, self.zone.k))
                near = d <= self.zone.width
                if np.any(near):
                    z[near] = self.zone.values(kind, np.maximum(d[near], 0.0), order) * sign**order
                out.append(z)
        return np.hstack(out)

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


def solve_tip_resolved(setup, n, zone_terms=TIP_ZONE_TERMS):
    """Solve the problem on the tip-enriched basis, collocated up to the tips.

    The rows are the solver's (both extension equations, the face and
    bonded-arc conditions, the bonded-arc constant-term tie and the
    continuity of Re g0', Re g' across the tips), collocated and weighted as
    TipEnrichedBasis sets, and so are its exact side conditions (the
    bonded-arc slope proportionality, force balance and single-valuedness).
    The quadrature is kernels.FINE_RULE, its tip panels graded down to d_min.
    ``n`` is the Legendre degree on each arc.  Returns
    (DensitySet, ResidualReport); the DensitySet evaluates through the
    TipEnrichedBasis, and its to_dict raises ValueError.
    """
    return solve_cases([setup], n, rule=FINE_RULE, basis=TipEnrichedBasis(setup, n, zone_terms))[0]
