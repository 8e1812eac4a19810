"""Collocation solver for the coupled singular integro-differential system.

Four complex densities live on the closed contour: the stress jumps q0, q and
the displacement-derivative jumps g0', g' of the inclusion-side and
matrix-side zero extensions.  Each is a Legendre series per arc,

    f(s) = sum_k a_k P_k(x) + i * sum_k b_k P_k(x),   x = (s - c)/h,

with real coefficients, c the arc midpoint and h the arc half-length, real
degree N+1 and imaginary degree N (the bonded-arc q has real degree N), for
a total of 16N + 23 real coefficients.

Rows of the real linear system:

  * the two singular integral equations that force the zero extensions
    (vanishing displacement derivative of the inclusion outside the contour
    and of the matrix inside it), collocated at the basis' points (for the
    Legendre basis OVERSAMPLE*(N+1) interior points per arc), real and
    imaginary parts split; the matrix-side equation carries the remote-load
    terms;
  * the four real surface-tension conditions on the crack faces at the
    crack-arc points, and the two traction-jump conditions on the bonded arc
    at the bonded-arc points;
  * the constant-term tie of the bonded-arc proportionality of g0' and g'
    (two rows);
  * continuity of Re g0', Re g' across both tips (four rows).

The side conditions that hold exactly are imposed by eliminating columns
(``_Elimination``): the degree >= 1 coefficients of the bonded-arc g'
follow those of g0', and total-force balance and single-valuedness (four
real constraints) each fix one more column.  The system has 14N+18 columns
and is solved by weighted least squares with rank and condition reporting.
Each pair of rows that differs only by phase is built by one loop over
``setup.phases`` (model.Phase), which holds every per-phase convention:
density names, trace sign, face tension and tractions, far field and the
material factors.
The rows are built from a basis object (_LegendreBasis here), which also
sets their points and weights; tips.solve_tip_resolved assembles the same
rows on a basis that adds functions resolving the crack tips to the same
Legendre block.

``solve_cases`` solves several setups on one contour at once: the operator
tables depend only on the contour and the discretization, and the load and
the crack-face tractions enter only the right-hand side, so the tables are
built once per quadrature level and each matrix is factorized once for all
of its loads.

The adaptive quadrature refines until the operator tables stop changing:
its drift compares the quadrature-dependent tables of a level with those of
the coarser one.  The rows are then built once per group, on the final
tables, and streamed: ``_assemble_rows`` yields them block by block, and
each block is eliminated straight into the one preallocated matrix of its
group.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial import legendre as L

from .kernels import DIAG_EPS_FACTOR, QuadratureRule, _cauchy_matrix, _regular_kernels

__all__ = [
    "FUNCTIONS",
    "DensitySet",
    "LinearSystem",
    "ResidualReport",
    "SingularSystemError",
    "collocation_points",
    "assemble",
    "solve",
    "solve_problem",
    "solve_cases",
]

FUNCTIONS = ("q0", "g0p", "q", "gp")
MIN_ORDER = 4

log = logging.getLogger("crackst")

MATRIX_STABILITY_TOL = 1e-9
# Same-arc node/point pairs closer than this fraction of the total length
# take the midpoint-slope limit of the divided difference in the Cauchy
# table A.  That limit errs by O(d**2 f'''), which is large for high-degree
# functions near the arc ends: at 1e-5 it drifted the N = 24 tables by
# 2.5e-9 between quadrature levels, at 1e-9 by 3e-12.  The raw quotient
# loses only about 1e-16/d to rounding.
DIVIDED_DIFFERENCE_EPS_FACTOR = 1e-9
MAX_ADAPTIVE_ROUNDS = 3
# Equation rows are collocated at OVERSAMPLE*(N+1) points per arc and solved
# by least squares.  At exactly N+1 points per arc the square system admits
# alias polynomials (zero at every collocation point, order one between
# them) that the side conditions barely see, so it turns numerically
# singular as N grows; oversampling pins those modes.
OVERSAMPLE = 3.0
# Collocation stays this fraction of the shorter arc away from the tips.
# The shear-type densities grow logarithmically at the tips, which a
# polynomial basis cannot follow; fitting into that zone destabilizes the
# interior solution, so the equations are enforced outside it and the
# tip rows (slope continuity, constant-term ties) control the ends.
DEFAULT_INSET_FRACTION = 0.03
# Least-squares row weights: equation rows are tapered toward the tips with
# exponent TAPER; the bonded-arc traction-jump rows are kept at full weight
# times BOND_WEIGHT when their content is smooth (vanishing interface
# tension).  The tip-anchored rows (slope continuity across the tips,
# constant-term ties) stay at unit weight: they pin the polynomial exactly
# where it is least accurate, and forcing them hard distorts the interior
# solution.
DEFAULT_TAPER = 1.0
BOND_WEIGHT = 5.0
TIP_ROW_WEIGHT = 1.0
# A rank-deficient solve fails when its best fit misses the right-hand side
# by more than this fraction of the data scale; a deficient but consistent
# system still has a well-defined minimum-norm solution.
FAIL_RESIDUAL = 0.05


class SingularSystemError(RuntimeError):
    """Raised when the collocation matrix is rank deficient beyond tolerance.

    ``case`` is the index of the failing setup in a ``solve_cases`` call
    (None for a single solve)."""

    def __init__(self, message, case=None):
        super().__init__(message if case is None else f"case {case}: {message}")
        self.case = case


def collocation_points(l0, l, n, delta):
    """N+1 equally spaced interior points on each arc, inset delta from tips."""
    if n < 1:
        raise ValueError(f"order must be at least 1, got {n}")
    if delta <= 0.0:
        raise ValueError(f"tip inset must be positive, got {delta}")
    if 2.0 * delta >= min(l0, l - l0):
        raise ValueError(f"tip inset {delta} too large for arc lengths {l0}, {l - l0}")
    crack = delta + np.arange(n + 1) * (l0 - 2.0 * delta) / n
    bond = l0 + delta + np.arange(n + 1) * ((l - l0) - 2.0 * delta) / n
    return crack, bond


def _piece(which, arc):
    """Index of the piece of density ``which`` on arc 0 (crack) or 1 (bonded)."""
    try:
        return 4 * arc + FUNCTIONS.index(which)
    except ValueError:
        raise ValueError(f"unknown density {which!r}; expected one of {FUNCTIONS}")


def _eval_arcs(densities, which, s, arc_values):
    """The shared body of the densities' ``eval``: checks that s lies in
    [0, l] and names a density, then fills the points of each arc with
    arc_values(piece, arc, s of the arc)."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.all((s_arr >= -1e-12) & (s_arr <= densities.l + 1e-12)):
        raise ValueError("arc length outside [0, l] or not a number")
    crack_piece = _piece(which, 0)
    arc = np.where(s_arr <= densities.l0, 0, 1)
    out = np.zeros(s_arr.shape, dtype=complex)
    for a in (0, 1):
        mask = arc == a
        if np.any(mask):
            out[mask] = arc_values(crack_piece + 4 * a, a, s_arr[mask])
    return out if np.ndim(s) else out[0]


def _a_len(piece, n):
    return n + 1 if piece == 6 else n + 2


def _b_len(piece, n):
    return n + 1


class _Layout:
    """Column bookkeeping for the full coefficient vector (8 pieces:
    crack-arc q0, g0', q, g', then the same four on the bonded arc), with
    the piece lengths of the basis (the solver's by default)."""

    def __init__(self, n, basis=None):
        self.n = n
        self.lengths = [
            basis.lengths(p) if basis is not None else (_a_len(p, n), _b_len(p, n))
            for p in range(8)
        ]
        self.a_off = []
        self.b_off = []
        off = 0
        for ka, kb in self.lengths:
            self.a_off.append(off)
            off += ka
            self.b_off.append(off)
            off += kb
        self.total = off

    def a_cols(self, piece):
        return np.arange(self.a_off[piece], self.a_off[piece] + self.lengths[piece][0])

    def b_cols(self, piece):
        return np.arange(self.b_off[piece], self.b_off[piece] + self.lengths[piece][1])


@dataclass
class DensitySet:
    """Legendre coefficients of the four densities on the two arcs.

    ``a[p]`` and ``b[p]`` are the real and imaginary coefficient vectors of
    piece p (0..3 crack arc, 4..7 bonded arc, function order q0, g0', q, g')
    on P_k(x), x = (s - c)/h, with c the midpoint and h the half-length of
    the piece's arc.
    """

    n: int
    l0: float
    l: float
    a: list
    b: list

    @classmethod
    def zeros(cls, n, l0, l):
        return cls(
            n=n,
            l0=l0,
            l=l,
            a=[np.zeros(_a_len(p, n)) for p in range(8)],
            b=[np.zeros(_b_len(p, n)) for p in range(8)],
        )

    @property
    def centers(self):
        return (0.5 * self.l0, 0.5 * (self.l0 + self.l))

    @property
    def halves(self):
        return (0.5 * self.l0, 0.5 * (self.l - self.l0))

    def _coeffs(self, piece):
        a = self.a[piece]
        b = np.pad(self.b[piece], (0, len(a) - len(self.b[piece])))
        return a + 1j * b

    def eval(self, which, s, order=0):
        """Value (order=0) or exact s-derivative of a density."""
        def arc_values(piece, arc, s_arc):
            h = self.halves[arc]
            coef = L.legder(self._coeffs(piece), order) / h**order
            return L.legval((s_arc - self.centers[arc]) / h, coef)

        return _eval_arcs(self, which, s, arc_values)

    def max_abs_coefficient(self):
        return max(
            max((np.max(np.abs(v)) for v in self.a), default=0.0),
            max((np.max(np.abs(v)) for v in self.b), default=0.0),
        )

    def to_dict(self):
        return {
            "basis": "legendre",
            "order": self.n,
            "l0": self.l0,
            "l": self.l,
            "centers": list(self.centers),
            "halves": list(self.halves),
            "pieces": [
                {
                    "function": FUNCTIONS[p % 4],
                    "arc": p // 4,
                    "a": self.a[p].tolist(),
                    "b": self.b[p].tolist(),
                }
                for p in range(8)
            ],
        }

    @classmethod
    def from_dict(cls, d):
        if d.get("basis") != "legendre":
            raise ValueError(
                f"densities basis {d.get('basis')!r} is not 'legendre'; files without "
                "a basis hold monomial coefficients and cannot be read"
            )
        dset = cls.zeros(d["order"], d["l0"], d["l"])
        for p, item in enumerate(d["pieces"]):
            dset.a[p] = np.asarray(item["a"], dtype=float)
            dset.b[p] = np.asarray(item["b"], dtype=float)
        return dset


@dataclass
class LinearSystem:
    """Assembled real collocation system over the free coefficients."""

    matrix: np.ndarray
    rhs: np.ndarray
    row_tags: list
    row_weights: np.ndarray  # least-squares weights, one per row
    elimination: object  # _Elimination: the system's columns in the full vector
    n: int
    l0: float
    l: float
    meta: dict = field(default_factory=dict)
    basis: object = None  # set by assemble; builds the densities from the solution

    @property
    def shape(self):
        return self.matrix.shape


@dataclass
class ResidualReport:
    rows: int
    cols: int
    rank: int
    condition: float
    max_residual: float
    per_tag: dict
    degenerate_pair: bool
    meta: dict

    def to_dict(self):
        """The report without meta["timings"], so that it repeats exactly
        between runs."""
        return {
            "rows": self.rows,
            "cols": self.cols,
            "rank": self.rank,
            "condition": self.condition,
            "max_residual": self.max_residual,
            "per_tag": dict(sorted(self.per_tag.items())),
            "degenerate_pair": self.degenerate_pair,
            "meta": {k: v for k, v in self.meta.items() if k != "timings"},
        }


class _LegendreBasis:
    """The solver's basis: on each arc the Legendre polynomials P_0..P_degree
    of x = (s - c)/h, with c the arc midpoint and h its half-length.

    A basis names the function families it uses on each arc (``keys``) and,
    per piece, the family and the number of functions of the real and the
    imaginary part (``part_keys``, ``lengths``).  Here one family serves
    both parts.  The tables and the rows of the system evaluate the basis
    through ``functions`` alone, so another basis (tips.TipEnrichedBasis)
    extends it with its own columns and reuses the same equations.

    A basis also sets where the rows sit and how they weigh: its
    ``collocation_points``, the tip inset ``delta`` they keep (the
    quadrature grades its tip panels down to delta/2), the ``taper_exponent``
    of the equation rows toward the tips and the ``tip_weight`` of the
    tip-anchored rows (slope continuity, constant-term ties).
    """

    taper_exponent = DEFAULT_TAPER
    tip_weight = TIP_ROW_WEIGHT

    def __init__(self, l0, l, n, degree=None):
        self.n, self.l0, self.l = n, l0, l
        self.degree = n + 1 if degree is None else degree
        self.size = self.degree + 1
        self.centers = (0.5 * l0, 0.5 * (l0 + l))
        self.halves = (0.5 * l0, 0.5 * (l - l0))
        self.delta = DEFAULT_INSET_FRACTION * min(l0, l - l0)
        # Column j of _derivatives[k] holds the Legendre coefficients of
        # d^k P_j / dx^k.
        eye = np.eye(self.size)
        self._derivatives = [eye] + [
            np.pad(L.legder(eye, k), ((0, k), (0, 0))) for k in (1, 2, 3)
        ]

    def keys(self, arc):
        return ("x",)

    def part_keys(self, piece):
        return "x", "x"

    def lengths(self, piece):
        return _a_len(piece, self.n), _b_len(piece, self.n)

    def functions(self, arc, key, s, order=0):
        """[len(s), size]: the order-th s-derivatives (order <= 3) of the
        functions at the arc lengths s of the arc."""
        h = self.halves[arc]
        x = (np.asarray(s, dtype=float) - self.centers[arc]) / h
        return L.legvander(x, self.degree) @ self._derivatives[order] / h**order

    def densities(self, full, layout):
        """The DensitySet of the full coefficient vector."""
        dset = DensitySet.zeros(self.n, self.l0, self.l)
        for p in range(8):
            dset.a[p], dset.b[p] = full[layout.a_cols(p)], full[layout.b_cols(p)]
        return dset

    def collocation_points(self):
        """(crack, bonded) arrays of OVERSAMPLE * (N + 1) equispaced points
        per arc, inset delta from the tips."""
        m = int(round(OVERSAMPLE * (self.n + 1)))
        return collocation_points(self.l0, self.l, m - 1, self.delta)


class _Tables:
    """Per-quadrature operator tables evaluated at the collocation points.

    For every function of each of the basis' families on each arc these hold
    the Cauchy principal value A, the regular-kernel integrals B1 (against
    d tau) and B2 (against conj(d tau)), the plain moments Q, and the values
    and first two s-derivatives V at the collocation points of the
    function's own arc; all are keyed by (arc, family).
    """

    def __init__(self, contour, pts, arc_of_pt, disc, basis):
        t_p = contour.point(pts)
        dt_p = contour.tangent(pts)
        self.pts, self.arc_of_pt, self.t_p, self.dt_p = pts, arc_of_pt, t_p, dt_p
        self.rho_p = contour.curvature(pts)
        self.rhop_p = contour.curvature_derivative(pts)

        # Divided-difference replacement applies only to same-arc pairs;
        # across a tip the raw quotient is the correct near-singular value.
        dd_eps = DIVIDED_DIFFERENCE_EPS_FACTOR * contour.l
        cmat, near_q, near_p = _cauchy_matrix(disc, pts, t_p, arc_of_pt, dd_eps)
        g_all = np.sum(cmat, axis=0)

        self.A, self.B1, self.B2, self.Q, self.V = {}, {}, {}, {}, {}
        for arc in (0, 1):
            qmask = disc.arc == arc
            arc_start = np.flatnonzero(qmask)[0]  # the nodes of an arc are contiguous
            pmask = arc_of_pt == arc
            # The kernels' near-diagonal guard has its own, larger radius: the
            # raw kernel quotients lose about 1e-16/d**2 to cancellation.
            k1m, k2m = _regular_kernels(
                contour, pts, t_p, dt_p, disc.s[qmask, None], disc.tau[qmask, None],
                DIAG_EPS_FACTOR * contour.l,
            )
            for key in basis.keys(arc):
                m_arc = basis.functions(arc, key, disc.s[qmask]).T  # [K, n_q]
                stack = np.zeros((3, m_arc.shape[0], pts.size))
                for order in range(3):
                    stack[order][:, pmask] = basis.functions(arc, key, pts[pmask], order).T
                self.V[arc, key] = stack
                v0 = stack[0]

                t1 = m_arc @ cmat[qmask, :]
                a_tab = t1 - v0 * (g_all - 1j * np.pi)[None, :]
                # Exact divided-difference replacement for near node/point pairs.
                on_arc = disc.arc[near_q] == arc
                qi, pi = near_q[on_arc], near_p[on_arc]
                if qi.size:
                    s_q, w_q, dt_q = disc.s[qi], disc.w[qi], disc.dt[qi]
                    mid = 0.5 * (s_q + pts[pi])
                    dd = basis.functions(arc, key, mid, 1).T * (dt_q / contour.tangent(mid))[None, :]
                    crude = (m_arc[:, qi - arc_start] - v0[:, pi]) * cmat[qi, pi][None, :]
                    np.add.at(a_tab.T, pi, (w_q[None, :] * dd - crude).T)
                self.A[arc, key] = a_tab

                wdt = disc.w[qmask] * disc.dt[qmask]
                wdtc = disc.w[qmask] * np.conj(disc.dt[qmask])
                self.B1[arc, key] = (m_arc * wdt[None, :]) @ k1m
                self.B2[arc, key] = (m_arc * wdtc[None, :]) @ k2m
                self.Q[arc, key] = m_arc @ wdt

    def drift_from(self, coarse):
        """Largest change of the quadrature-dependent tables (A, B1, B2, Q)
        from those of the coarser level, relative to their largest entry
        here.  V depends on the points only."""
        pairs = [
            (fine[key], old[key])
            for fine, old in zip((self.A, self.B1, self.B2, self.Q), (coarse.A, coarse.B1, coarse.B2, coarse.Q))
            for key in fine
        ]
        scale = max(float(np.max(np.abs(fine))) for fine, _ in pairs)
        change = max(float(np.max(np.abs(fine - old))) for fine, old in pairs)
        return change / max(scale, 1e-300)


def assemble(setup, n, rule=None, basis=None):
    """Assemble the real collocation system for the given problem and order.

    The system is solved by weighted least squares (weights are stored on
    the system and reported residuals are unweighted).  ``rule`` is the
    quadrature (QuadratureRule() by default).  ``basis`` replaces the
    Legendre basis of order n (see _LegendreBasis); the basis also sets the
    collocation points, their tip inset, the row taper and the weight of the
    tip-anchored rows.
    """
    ((system, _),) = _assemble_cases([setup], n, rule, basis)
    system.rhs = system.rhs[:, 0]
    return system


def _assemble_cases(setups, n, rule=None, basis=None):
    """Systems of setups on one contour: [(LinearSystem, case indices)], one
    per group of setups with equal materials and surface tension, each with
    one right-hand-side column per case of the group (``rhs`` [rows, cases]).

    The adaptive quadrature builds the operator tables once per level for
    all setups and stops when their drift from the coarser level
    (``_Tables.drift_from``) falls below MATRIX_STABILITY_TOL, or after
    MAX_ADAPTIVE_ROUNDS refinements; the right-hand sides do not depend on
    the quadrature.  Each group's rows are then assembled once, on the final
    tables, and reduced to the group's columns (_Elimination), whose
    integral constraints come from the same tables' moments; every group
    reports the same drift.  ``rule`` and ``basis`` are those of
    ``assemble``.
    """
    if n < MIN_ORDER:
        raise ValueError(f"polynomial order must be at least {MIN_ORDER}, got {n}")
    if not setups:
        raise ValueError("no setups to solve")
    contour = setups[0].contour
    for i, setup in enumerate(setups):
        if setup.contour is not contour:
            raise ValueError(
                f"setup {i} is on another contour object than setup 0; the cases "
                "of one call share its operator tables, so they must share one "
                "contour (build them with dataclasses.replace)"
            )
    if rule is None:
        rule = QuadratureRule()
    if basis is None:
        basis = _LegendreBasis(contour.l0, contour.l, n)
    delta, points = basis.delta, basis.collocation_points()
    pts = np.concatenate(points)
    arc_of_pt = np.repeat([0, 1], [points[0].size, points[1].size])

    t0 = time.perf_counter()
    tab = drift = None
    for level in range(1 + MAX_ADAPTIVE_ROUNDS if rule.adaptive else 1):
        if level:
            rule = rule.refined()
        disc = rule.discretize(contour, 0.5 * delta)
        coarse, tab = tab, _Tables(contour, pts, arc_of_pt, disc, basis)
        if coarse is not None:
            drift = tab.drift_from(coarse)
            if drift < MATRIX_STABILITY_TOL:
                break
    del coarse  # the rows are built on the final tables alone
    tables_s = time.perf_counter() - t0
    table_builds = level + 1
    quadrature = {
        "quadrature_nodes": int(disc.n_nodes),
        "nodes_per_panel": rule.nodes_per_panel,
        "panels_per_arc": rule.panels_per_arc,
        "tip_panel": 0.5 * delta,
    }
    if drift is not None:
        quadrature["quadrature_drift"] = drift
        quadrature["quadrature_stabilized"] = drift < MATRIX_STABILITY_TOL
        if drift >= MATRIX_STABILITY_TOL:
            log.warning(
                "adaptive quadrature did not stabilize at order %d: "
                "drift %.3e after %d refinements, tolerance %.0e",
                n, drift, MAX_ADAPTIVE_ROUNDS, MATRIX_STABILITY_TOL,
            )

    by_key = {}
    for i, setup in enumerate(setups):
        by_key.setdefault((setup.matrix, setup.inclusion, setup.surface), []).append(i)
    groups = list(by_key.values())
    layout = _Layout(n, basis)
    n_rows = 4 * pts.size + 4 * points[0].size + 2 * points[1].size + 6
    systems = []
    for cases in groups:
        t0 = time.perf_counter()
        setup = setups[cases[0]]
        elimination = _Elimination(setup, layout, _constraint_rows(setup, basis, tab, layout))
        matrix, rhs = np.empty((n_rows, elimination.keep.size)), np.empty((n_rows, len(cases)))
        tags, wts = [None] * n_rows, np.empty(n_rows)
        r0 = 0
        for rows, b, block_tags, w in _assemble_rows([setups[i] for i in cases], basis, tab):
            r1 = r0 + rows.shape[0]
            elimination.reduce(rows, out=matrix[r0:r1])
            rhs[r0:r1], wts[r0:r1] = b, w
            tags[r0:r1] = block_tags
            r0 = r1
            del rows, b  # the next block is built without these
        if setup.is_degenerate_pair:
            log.warning(
                "degenerate material pair mu0*kappa*(kappa0+1) = mu*kappa0*(kappa+1) "
                "(cases %s); the solve proceeds and reports its condition", cases,
            )
        meta = {
            **quadrature,
            "order": n,
            "delta": delta,
            "points_per_arc": int(points[0].size),
            "taper_exponent": basis.taper_exponent,
            "full_coefficients": layout.total,
            "degenerate_pair": setup.is_degenerate_pair,
            # Work shared with other cases: the tables with all cases of the
            # call, the rows and the factorization with the loads of the group.
            "timings": {"tables_s": tables_s, "rows_s": time.perf_counter() - t0},
            "batch": {
                "cases": len(setups),
                "loads": len(cases),
                "table_builds": table_builds,
                "factorizations": len(groups),
            },
        }
        system = LinearSystem(
            matrix=matrix,
            rhs=rhs,
            row_tags=tags,
            row_weights=wts,
            elimination=elimination,
            n=n,
            l0=contour.l0,
            l=contour.l,
            meta=meta,
            basis=basis,
        )
        systems.append((system, cases))
    return systems


class _Elimination:
    """A group's system columns and their map to the full vector of ``layout``.

    Exact side conditions remove columns.  The bonded-arc g' coefficients of
    degree >= 1 (``linked``) follow the bonded-arc g0' coefficients with
    factor lam = -slope_factor(inclusion) / slope_factor(matrix), so they
    fold into the ``free`` columns at ``sources``.  Gauss-Jordan elimination
    of the tied integral constraints c @ full = 0 (``rows``, tagged
    ``tags``), each row pivoting on its largest entry, then solves them for
    one free column each, ``dep``: x_free[dep] = t @ x_free[keep], with
    ``keep`` the system's columns (the equality-constrained least-squares
    problem by elimination; Golub and Van Loan, Matrix Computations, 6.2).
    """

    def __init__(self, setup, layout, constraints):
        inclusion, matrix = setup.phases
        self.lam = -inclusion.slope_factor / matrix.slope_factor
        self.linked, sources = (
            np.concatenate([layout.a_cols(p)[1:], layout.b_cols(p)[1:]])
            for p in (_piece(matrix.g, 1), _piece(inclusion.g, 1))
        )
        self.free = np.delete(np.arange(layout.total), self.linked)
        self.sources, self.layout = np.searchsorted(self.free, sources), layout
        self.rows, self.tags = constraints
        c = np.take(self.rows, self.free, axis=1)
        c[:, self.sources] += self.lam * np.take(self.rows, self.linked, axis=1)
        # The constraints do not involve the tie sources; no pivot lands on
        # one, so every source stays a system column and reduce ties in place.
        pivotable = np.ones(self.free.size)
        pivotable[self.sources] = 0.0
        self.dep = np.zeros(len(c), dtype=int)
        for i, row in enumerate(c):
            self.dep[i] = pivot = np.argmax(np.abs(row) * pivotable)
            row /= row[pivot]
            others = np.arange(len(c)) != i
            c[others] -= np.outer(c[others, pivot], row)
        self.keep = np.delete(np.arange(self.free.size), self.dep)
        self.t = -np.take(c, self.keep, axis=1)  # C order, which einsum runs 4x faster on
        self.cols, self.kept_sources = self.free[self.keep], np.searchsorted(self.keep, self.sources)

    def reduce(self, rows, out):
        """Rows over the full vector as rows of the system, written to out;
        einsum, unlike BLAS, rounds each entry alike in any block of rows."""
        np.take(rows, self.cols, axis=1, out=out)
        out[:, self.kept_sources] += self.lam * np.take(rows, self.linked, axis=1)
        out += np.einsum("ik,kj->ij", np.take(rows, self.free[self.dep], axis=1), self.t)

    def expand(self, x):
        """The full coefficient vector of a system solution x."""
        x_free = np.empty(self.free.size)
        x_free[self.keep], x_free[self.dep] = x, self.t @ x
        full = np.zeros(self.layout.total)
        full[self.free], full[self.linked] = x_free, self.lam * x_free[self.sources]
        return full


def _constraint_rows(setup, basis, tab, layout):
    """The integral constraints as real rows over the full vector and their
    tags: total-force balance, int (q0 - q) d tau = 0 over the contour, and
    single-valuedness, the sum over the phases of slope_factor * int g' d tau
    over the crack arc = 0; each with its real and imaginary part."""
    z = np.zeros((2, layout.total), dtype=complex)  # force balance, single-valuedness
    for phase in setup.phases:
        q_terms = [(0, _piece(phase.q, arc), phase.sign) for arc in (0, 1)]
        for i, piece, fac in q_terms + [(1, _piece(phase.g, 0), phase.slope_factor)]:
            (ka, kb), (key_a, key_b) = layout.lengths[piece], basis.part_keys(piece)
            z[i, layout.a_cols(piece)] += fac * tab.Q[piece // 4, key_a][:ka]
            z[i, layout.b_cols(piece)] += 1j * fac * tab.Q[piece // 4, key_b][:kb]
    tags = [f"{name}_{part}" for name in ("force_balance", "single_valuedness") for part in ("re", "im")]
    return np.stack([z.real[0], z.imag[0], z.real[1], z.imag[1]]), tags


def _assemble_rows(setups, basis, tab):
    """Rows on one level's tables for setups that share materials and surface
    tension, as blocks (rows, rhs [rows, len(setups)], tags, weights) in the
    order of the system.  The matrix comes from the first setup; each
    setup's load and crack-face tractions give its right-hand-side column.
    The rows sit at the tables' points and weigh as the basis sets.  A
    complex family block is dropped once its real and imaginary rows have
    been taken."""
    setup = setups[0]
    contour = setup.contour
    layout = _Layout(basis.n, basis)
    crack_sel, bond_sel = (np.flatnonzero(tab.arc_of_pt == arc) for arc in (0, 1))
    crack_pts, bond_pts = tab.pts[crack_sel], tab.pts[bond_sel]
    inclusion, matrix = phases = setup.phases

    n_pts = tab.pts.size
    n_cases = len(setups)

    def taper(sel_pts, lo, hi):
        d = np.minimum(sel_pts - lo, hi - sel_pts) / (hi - lo)
        return (4.0 * d * np.maximum(1.0 - d, 1e-12)) ** basis.taper_exponent

    w_crack = taper(crack_pts, 0.0, contour.l0)
    w_bond = taper(bond_pts, contour.l0, contour.l)
    w_both = np.concatenate([w_crack, w_bond])

    def family(z, direct, a_fac, b1_fac, b2_fac, name):
        """Add the complex coefficients of density ``name`` on both arcs to
        the block z [n_pts, full].  The families of one equation have
        disjoint columns, so each adds to zeros."""
        for p in (_piece(name, 0), _piece(name, 1)):
            arc = p // 4
            ka, kb = layout.lengths[p]
            key_a, key_b = basis.part_keys(p)
            base = {
                key: direct * tab.V[arc, key][0]
                + a_fac * tab.A[arc, key]
                + b1_fac * tab.B1[arc, key]
                for key in dict.fromkeys((key_a, key_b))
            }
            z[:, layout.a_cols(p)] += (base[key_a][:ka] + b2_fac * tab.B2[arc, key_a][:ka]).T
            z[:, layout.b_cols(p)] += (
                1j * base[key_b][:kb] - 1j * b2_fac * tab.B2[arc, key_b][:kb]
            ).T

    def complex_rows(z, rvec, tag, weight):
        for part, suffix in ((np.real, "_re"), (np.imag, "_im")):
            size = z.shape[0]
            yield part(z), part(rvec), [tag + suffix] * size, np.broadcast_to(weight, (size,))

    # Zero extension of each phase across the contour: of the inclusion
    # outside it, of the matrix inside it.  The matrix-side equation also
    # carries the remote-load terms; its single-valuedness term, the
    # integral times 1/t', vanishes on the system's columns (_Elimination).
    for phase in phases:
        kap = phase.kappa
        z = np.zeros((n_pts, layout.total), dtype=complex)
        family(
            z,
            direct=-phase.sign * 0.5j * (kap + 1.0),
            a_fac=(kap - 1.0) / (2.0 * np.pi),
            b1_fac=-1.0 / (2.0 * np.pi),
            b2_fac=-1.0 / (2.0 * np.pi),
            name=phase.g,
        )
        family(
            z,
            direct=0.0,
            a_fac=2.0 * kap / ((kap + 1.0) * 1j * np.pi),
            b1_fac=kap / ((kap + 1.0) * 1j * np.pi),
            b2_fac=1.0 / ((kap + 1.0) * 1j * np.pi),
            name=phase.q,
        )
        if phase is matrix:
            rhs = -np.stack(
                [
                    (kap - 1.0) * gamma - np.conj(gamma_p) * np.conj(tab.dt_p) / tab.dt_p
                    for gamma, gamma_p in (s.phase(phase.name).far_field for s in setups)
                ],
                axis=1,
            )
        else:
            rhs = np.zeros((n_pts, n_cases), dtype=complex)
        yield from complex_rows(z, rhs, f"{phase.name}_extension", w_both)
        del z, rhs  # the next block is built without these

    # Surface-tension conditions on the crack faces and the traction-jump
    # condition on the bonded arc.
    def tension_rows(sel, arc, coef, q_pieces, g_piece, rhs_re, rhs_im, tag, weight):
        # Re q = coef*rho*(rho*Im g' + Re g'') + rhs_re, and the arc-length
        # derivative of the bracket for Im q.  The density is already a first
        # derivative, so g'' and g''' are its first and second poly derivatives.
        rho = tab.rho_p[sel][:, None]
        rhop = tab.rhop_p[sel][:, None]
        row_re = np.zeros((sel.size, layout.total))
        row_im = np.zeros((sel.size, layout.total))
        for qp in q_pieces:
            (ka, kb), (key_a, key_b) = layout.lengths[qp], basis.part_keys(qp)
            row_re[:, layout.a_cols(qp)] += tab.V[arc, key_a][0][:ka, sel].T
            row_im[:, layout.b_cols(qp)] += tab.V[arc, key_b][0][:kb, sel].T
        (ka, kb), (key_a, key_b) = layout.lengths[g_piece], basis.part_keys(g_piece)
        v_re, v_im = tab.V[arc, key_a], tab.V[arc, key_b]
        row_re[:, layout.b_cols(g_piece)] -= coef * rho**2 * v_im[0][:kb, sel].T
        row_re[:, layout.a_cols(g_piece)] -= coef * rho * v_re[1][:ka, sel].T
        row_im[:, layout.b_cols(g_piece)] -= coef * (
            rhop * v_im[0][:kb, sel].T + rho * v_im[1][:kb, sel].T
        )
        row_im[:, layout.a_cols(g_piece)] -= coef * v_re[2][:ka, sel].T
        for row, b, suffix in ((row_re, rhs_re, "_re"), (row_im, rhs_im, "_im")):
            yield row, b, [tag + suffix] * sel.size, np.broadcast_to(weight, (sel.size,))

    for phase in phases:
        f = np.stack([s.phase(phase.name).traction(crack_pts) for s in setups], axis=1)
        yield from tension_rows(
            crack_sel, 0, phase.tension_coefficient, (_piece(phase.q, 0),), _piece(phase.g, 0),
            phase.sign * 0.5 * np.real(f), phase.sign * 0.5 * np.imag(f), f"crack_{phase.side}", w_crack,
        )
    zero = np.zeros((bond_pts.size, n_cases))
    # With a vanishing interface tension the jump condition reads q0 + q = 0,
    # whose content is smooth (the tip logarithms cancel in the sum), so it
    # is enforced untapered and strongly; otherwise it carries the same
    # log-singular derivative terms as the crack rows and is tapered alike.
    if setup.surface.gamma_interface == 0.0:
        w_jump = BOND_WEIGHT
    else:
        w_jump = w_bond
    # The bonded line's tension acts on the inclusion-side displacement.
    bond = replace(inclusion, gamma=setup.surface.gamma_interface)
    bond_q = tuple(_piece(phase.q, 1) for phase in phases)
    yield from tension_rows(
        bond_sel, 1, bond.tension_coefficient, bond_q, _piece(bond.g, 1), zero, zero, "bond_jump", w_jump
    )

    # Constant-term tie of the bonded-arc slope proportionality (the higher
    # coefficients are eliminated exactly).
    for cols, tag in ((layout.a_cols, "bond_slope_tie_re"), (layout.b_cols, "bond_slope_tie_im")):
        row = np.zeros((1, layout.total))
        for phase in phases:
            row[0, cols(_piece(phase.g, 1))[0]] = phase.slope_factor
        yield row, np.zeros((1, n_cases)), [tag], np.array([basis.tip_weight])

    # Continuity of Re g0' and Re g' across both tips: tip 0 joins the start
    # of the crack arc to the end of the bonded arc, tip 1 the other ends.
    for phase in phases:
        crack_piece, bond_piece = _piece(phase.g, 0), _piece(phase.g, 1)
        kc_, kb_ = layout.lengths[crack_piece][0], layout.lengths[bond_piece][0]
        crack_start, crack_end = basis.functions(0, basis.part_keys(crack_piece)[0], [0.0, contour.l0])
        bond_start, bond_end = basis.functions(1, basis.part_keys(bond_piece)[0], [contour.l0, contour.l])
        name = phase.g.removesuffix("p")  # g0 or g
        for crack_val, bond_val, tag in (
            (crack_start[:kc_], bond_end[:kb_], f"{name}_slope_continuity_tip0"),
            (crack_end[:kc_], bond_start[:kb_], f"{name}_slope_continuity_tip1"),
        ):
            row = np.zeros((1, layout.total))
            row[0, layout.a_cols(crack_piece)] = crack_val
            row[0, layout.a_cols(bond_piece)] = -bond_val
            yield row, np.zeros((1, n_cases)), [tag], np.array([basis.tip_weight])


def solve(system, rcond=1e-13):
    """Least-squares solve with column equilibration and rank reporting.

    Truncated directions below ``rcond`` are reported through the effective
    rank; the solve only fails when the matrix is rank deficient *and* the
    best fit misses the right-hand side by more than FAIL_RESIDUAL relative
    to the data scale.
    """
    return _solve_columns(system, rcond)[0]


def _solve_columns(system, rcond=1e-13, cases=None):
    """``solve`` for every right-hand-side column of the system (``rhs``
    [rows] or [rows, columns]) with one factorization; returns one
    (DensitySet, ResidualReport) per column.  ``cases`` names the columns
    in a SingularSystemError."""
    t0 = time.perf_counter()
    rhs = system.rhs.reshape(system.rhs.shape[0], -1)
    w = system.row_weights
    mat, vec = system.matrix * w[:, None], rhs * w[:, None]
    col_scale = np.maximum(np.max(mat, axis=0), -np.min(mat, axis=0))  # max |mat| without a copy
    col_scale[col_scale == 0.0] = 1.0
    scaled = np.divide(mat, col_scale, out=mat)
    sol, _, rank, sing = np.linalg.lstsq(scaled, vec, rcond=rcond)
    sol /= col_scale[:, None]
    cond = float(sing[0] / sing[-1]) if sing.size and sing[-1] > 0 else np.inf
    lstsq_s = time.perf_counter() - t0
    if rank < scaled.shape[1]:
        log.warning(
            "collocation matrix rank %d < %d columns at order %d (condition %.3e)%s",
            rank, scaled.shape[1], system.n, cond, "" if cases is None else f" for cases {cases}",
        )

    out = []
    for j in range(rhs.shape[1]):
        x, b = sol[:, j], rhs[:, j]
        # Residuals are reported for the unweighted rows.
        resid = system.matrix @ x - b
        data_scale = max(np.max(np.abs(b)), 1.0)
        resid_scale = float(np.max(np.abs(resid))) if resid.size else 0.0
        if rank < scaled.shape[1] and resid_scale > FAIL_RESIDUAL * data_scale:
            deficient = _deficient_tags(scaled, system.row_tags, rcond)
            raise SingularSystemError(
                f"collocation matrix rank {rank} < {scaled.shape[1]} and the "
                f"least-squares residual {resid_scale:.3e} exceeds tolerance; "
                f"most involved row tags: {deficient}",
                case=None if cases is None else cases[j],
            )
        per_tag = {}
        for tag, r in zip(system.row_tags, resid):
            per_tag[tag] = max(per_tag.get(tag, 0.0), abs(float(r)))
        # The eliminated constraints report their residuals c @ full.
        full = system.elimination.expand(x)
        per_tag.update(zip(system.elimination.tags, np.abs(system.elimination.rows @ full).tolist()))
        dset = system.basis.densities(full, system.elimination.layout)
        meta = dict(system.meta)
        meta["timings"] = {**meta.get("timings", {}), "lstsq_s": lstsq_s}
        report = ResidualReport(
            rows=mat.shape[0],
            cols=mat.shape[1],
            rank=int(rank),
            condition=cond,
            max_residual=max(per_tag.values()),
            per_tag=per_tag,
            degenerate_pair=bool(system.meta.get("degenerate_pair", False)),
            meta=meta,
        )
        out.append((dset, report))
    return out


def _deficient_tags(scaled, row_tags, rcond):
    u, s, _ = np.linalg.svd(scaled, full_matrices=False)
    bad = s < rcond * s[0]
    if not np.any(bad):
        return []
    weight = np.sum(np.abs(u[:, bad]), axis=1)
    order = np.argsort(weight)[::-1]
    seen, out = set(), []
    for idx in order:
        tag = row_tags[idx]
        if tag not in seen:
            seen.add(tag)
            out.append(tag)
        if len(out) >= 4:
            break
    return out


def solve_problem(setup, n, rule=None, rcond=1e-13):
    """Assemble and solve in one step; returns (DensitySet, ResidualReport)."""
    return solve(assemble(setup, n, rule=rule), rcond=rcond)


def solve_cases(setups, n, rule=None, rcond=1e-13):
    """Solve several setups on one contour object; returns one
    (DensitySet, ResidualReport) per setup, in input order.

    The operator tables are built once per quadrature level for all cases,
    and the setups with equal materials and surface tension share one matrix
    and one least-squares factorization, with a right-hand-side column per
    load and crack-face tractions.  A one-case call gives what solve_problem
    gives, errors included.  Each report's meta carries ``batch`` (the
    counts of cases, loads sharing its factorization, table builds and
    factorizations) and ``timings`` (tables_s for all cases of the call,
    rows_s and lstsq_s for the loads of its group).  A failing case raises
    SingularSystemError naming its index (``case``) when there are several.
    """
    out = [None] * len(setups)
    for system, cases in _assemble_cases(setups, n, rule=rule):
        named = cases if len(setups) > 1 else None
        for i, result in zip(cases, _solve_columns(system, rcond, cases=named)):
            out[i] = result
    return out
