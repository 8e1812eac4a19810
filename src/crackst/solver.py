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
and is solved by weighted least squares with rank and condition reporting;
its rows are stored times their weights.
Each pair of rows that differs only by phase is built by one loop over
``setup.phases`` (model.Phase), which holds every per-phase convention:
density names, trace sign, face tension and tractions, far field and the
material factors.
The rows are built from a basis object (_LegendreBasis here): one table of
functions per arc, and for each density piece the columns of that table
its real and its imaginary part take.  The basis also sets the rows' points
and weights and lays out the full coefficient vector, and DensitySet (a
basis and its coefficients) evaluates each piece through the same table and
columns.  The basis memoizes its tables per point set (``table``), so the
densities of one basis, and the collocation points of every quadrature
level, are tabulated once.  tips.solve_tip_resolved passes ``solve_cases``
a basis whose tables add functions resolving the crack tips to the same
Legendre block.

``solve_cases`` solves several setups on one contour at once: the operator
tables depend only on the contour and the discretization, and the load and
the crack-face tractions enter only the right-hand side, so the tables are
built once per quadrature level and each matrix is factorized once for all
of its loads.  Each group is solved before the next is assembled, and the
tables are released before the last one is solved.

The adaptive quadrature refines until the operator tables stop changing:
its drift compares the quadrature-dependent tables of a level with those of
the coarser one.  The rows are then built once per group, on the final
tables, and streamed: ``_assemble_rows`` yields them block by block, and
each block is eliminated and weighted straight into the one preallocated
matrix of its group.

The least squares (``_least_squares``) factorize the weighted matrix by one
Householder QR (Golub and Van Loan, Matrix Computations, 5.3): LAPACK's
geqrf, in place in one transposed copy of the matrix, over whose reflectors
R then moves.  The condition of the column-equilibrated R comes from its
extreme singular values, which block Lanczos iterations on R and on R^-1
find.  A full-rank system is then solved by back-substitution; only a
rank-deficient R goes to the SVD (``np.linalg.lstsq``), for the truncated
minimum-norm solution.
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.linalg import lapack_lite
from numpy.polynomial import legendre as L

from .geometry import _memoized
from .kernels import DIAG_EPS_FACTOR, DIVIDED_DIFFERENCE_EPS_FACTOR, QuadratureRule, _cauchy_matrix
from .kernels import _regular_kernels

__all__ = [
    "FUNCTIONS",
    "DensitySet",
    "LinearSystem",
    "ResidualReport",
    "SingularSystemError",
    "assemble",
    "solve",
    "solve_problem",
    "solve_cases",
]

FUNCTIONS = ("q0", "g0p", "q", "gp")
MIN_ORDER = 4

log = logging.getLogger("crackst")

MATRIX_STABILITY_TOL = 1e-9
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
# The least squares apply Householder reflectors, and solve triangular
# systems, in blocks of this many columns or rows.
LSQ_BLOCK = 32
# The extreme singular values come from block Lanczos iterations with this
# many vectors per block; an iteration stops once a step moves its estimate
# by at most KRYLOV_RTOL relative, or by less than the estimate's rounding,
# and gives up (the least squares then take the SVD) after KRYLOV_MAX_STEPS
# estimates.  Measured on the Legendre ladder N = 16..64: at most 11 steps
# for sigma_max and 8 for sigma_min (15 and 9 over the scenarios, N = 8..64).
KRYLOV_BLOCK = 4
KRYLOV_RTOL = 1e-14
KRYLOV_MAX_STEPS = 32
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


def _piece(which, arc):
    """Index of the piece of density ``which`` on arc 0 (crack) or 1 (bonded)."""
    try:
        return 4 * arc + FUNCTIONS.index(which)
    except ValueError:
        raise ValueError(f"unknown density {which!r}; expected one of {FUNCTIONS}")


@dataclass
class DensitySet:
    """Coefficients of the four densities on the two arcs in a basis.

    ``a[p]`` and ``b[p]`` are the real and imaginary coefficient vectors of
    piece p (0..3 crack arc, 4..7 bonded arc, function order q0, g0', q, g')
    on the columns ``basis.columns(p)`` of the arc's table
    ``basis.functions`` (_LegendreBasis: P_k(x), x = (s - c)/h, with c the
    midpoint and h the half-length of the piece's arc).
    """

    basis: object
    a: list
    b: list

    @property
    def n(self):
        return self.basis.n

    @property
    def l0(self):
        return self.basis.l0

    @property
    def l(self):
        return self.basis.l

    @classmethod
    def zeros(cls, n, l0, l):
        """Zero densities on the Legendre basis of order n."""
        basis = _LegendreBasis(l0, l, n)
        return basis.densities(np.zeros(basis.total))

    def eval(self, which, s, order=0):
        """Value (order=0) or exact s-derivative (order 1..3) of a density: on
        each arc the piece's columns of the basis' table (``basis.table``,
        memoized per point set) times its coefficients."""
        if not isinstance(order, (int, np.integer)) or isinstance(order, bool) or not 0 <= order <= 3:
            raise ValueError(f"derivative order {order!r} is not an integer in 0..3")
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        if not np.all((s_arr >= -1e-12) & (s_arr <= self.l + 1e-12)):
            raise ValueError("arc length outside [0, l] or not a number")
        crack_piece = _piece(which, 0)
        out = np.zeros(s_arr.shape, dtype=complex)
        for arc, mask in enumerate((s_arr <= self.l0, s_arr > self.l0)):
            if np.any(mask):
                p = crack_piece + 4 * arc
                table = self.basis.table(arc, s_arr[mask], order)
                cols_a, cols_b = self.basis.columns(p)
                out[mask] = table[:, cols_a] @ self.a[p] + 1j * (table[:, cols_b] @ self.b[p])
        return out if np.ndim(s) else out[0]

    def to_dict(self):
        """The densities.json record; only the Legendre basis has one."""
        if type(self.basis) is not _LegendreBasis:
            raise ValueError(f"only Legendre densities can be written, not {type(self.basis).__name__}'s")
        return {
            "basis": "legendre",
            "order": self.n,
            "l0": self.l0,
            "l": self.l,
            "centers": list(self.basis.centers),
            "halves": list(self.basis.halves),
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
        """The densities of a densities.json record; a ValueError names the
        first header key or piece that does not fit."""
        if d.get("basis") != "legendre":
            raise ValueError(
                f"densities basis {d.get('basis')!r} is not 'legendre'; files without "
                "a basis hold monomial coefficients and cannot be read"
            )
        order, l0, l = d.get("order"), d.get("l0"), d.get("l")
        if not isinstance(order, int) or isinstance(order, bool) or order < 0:
            raise ValueError(f"densities order {order!r} is not a non-negative integer")
        for key, value in (("l0", l0), ("l", l)):
            if not isinstance(value, (int, float)) or isinstance(value, bool) or not np.isfinite(value):
                raise ValueError(f"densities {key} {value!r} is not a finite number")
        if not 0.0 < l0 < l:
            raise ValueError(f"densities l0 {l0!r} is not in (0, l) with l = {l!r}")
        if "pieces" not in d:
            raise ValueError("densities record has no 'pieces'")
        dset = cls.zeros(order, l0, l)
        basis, pieces = dset.basis, d["pieces"]
        for key in ("centers", "halves"):
            if key in d and d[key] != list(getattr(basis, key)):
                raise ValueError(f"densities {key} {d[key]!r} are not the basis' {list(getattr(basis, key))!r}")
        if len(pieces) != 8:
            raise ValueError(f"densities hold {len(pieces)} pieces, expected 8")
        for p, item in enumerate(pieces):
            name = f"piece {p} ({FUNCTIONS[p % 4]} on arc {p // 4})"
            if (item.get("function"), item.get("arc")) != (FUNCTIONS[p % 4], p // 4):
                raise ValueError(f"{name} is labelled {item.get('function')!r} on arc {item.get('arc')!r}")
            for key, part, cols in (("a", "real", basis.a_cols(p)), ("b", "imaginary", basis.b_cols(p))):
                if key not in item:
                    raise ValueError(f"{name} has no {key!r} ({part} coefficients)")
                coef = np.asarray(item[key], dtype=float)
                if coef.shape != cols.shape:
                    raise ValueError(f"{name} has {coef.size} {part} coefficients, expected {cols.size}")
                if not np.isfinite(coef).all():
                    raise ValueError(f"{name} has a non-finite {part} coefficient")
                getattr(dset, key)[p] = coef
        return dset


@dataclass
class LinearSystem:
    """Assembled real collocation system over the free coefficients."""

    matrix: np.ndarray  # rows times their weights
    rhs: np.ndarray  # rows times their weights
    row_tags: list
    row_weights: np.ndarray  # least-squares weights, one per row
    elimination: object  # _Elimination: the system's columns in the full vector
    basis: object  # lays out the full vector; builds the densities from the solution
    meta: dict = field(default_factory=dict)


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

    A basis is one table of functions per arc (``functions``) and, for each
    piece, the columns of that table its real and its imaginary part take
    (``columns``); here both are leading slices of the same polynomials.
    The tables and the rows of the system read the basis through these two
    alone, so another basis (tips.TipEnrichedBasis) adds its own functions
    and columns and reuses the same equations and DensitySet.eval.  The full
    coefficient vector holds each piece's real, then imaginary part
    (``a_cols``, ``b_cols``).

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
        # Column j of _derivatives[k - 1] holds the Legendre coefficients of
        # d^k P_j / dx^k.
        eye = np.eye(self.size)
        self._derivatives = [np.pad(L.legder(eye, k), ((0, k), (0, 0))) for k in (1, 2, 3)]
        self._tables = {}  # the memo of ``table``

    def columns(self, piece):
        """(real, imaginary) columns of the arc's function table that a piece
        takes; bonded-arc q has one real fewer.  Slices, so that
        DensitySet.eval multiplies views of the table, not copies."""
        return slice(0, self.n + 1 if piece == 6 else self.n + 2), slice(0, self.n + 1)

    @functools.cached_property
    def _starts(self):
        """First column of piece p's real part at 2p, of its imaginary part at
        2p+1 (np.r_ expands a slice)."""
        return np.cumsum([0] + [len(np.r_[cols]) for p in range(8) for cols in self.columns(p)]).tolist()

    def a_cols(self, piece):
        return np.arange(self._starts[2 * piece], self._starts[2 * piece + 1])

    def b_cols(self, piece):
        return np.arange(self._starts[2 * piece + 1], self._starts[2 * piece + 2])

    @property
    def total(self):
        return self._starts[-1]

    def functions(self, arc, s, order=0):
        """[len(s), size]: the order-th s-derivatives (order <= 3) of the
        arc's functions at its arc lengths s."""
        h = self.halves[arc]
        vander = L.legvander((np.asarray(s, dtype=float) - self.centers[arc]) / h, self.degree)
        return vander if order == 0 else vander @ self._derivatives[order - 1] / h**order

    def table(self, arc, s, order=0):
        """``functions(arc, s, order)`` as a read-only array, memoized on the
        basis (geometry._memoized) and keyed on the arc, the order and the
        points' shape and bytes.  Every table of every basis comes from
        ``functions``, derivatives included."""
        s = np.asarray(s, dtype=float)
        key = (arc, order, s.shape, s.tobytes())
        return _memoized(self, "_tables", key, lambda: self.functions(arc, s, order))

    def densities(self, full):
        """The DensitySet of the full coefficient vector."""
        return DensitySet(
            self, [full[self.a_cols(p)] for p in range(8)], [full[self.b_cols(p)] for p in range(8)]
        )

    def collocation_points(self):
        """(crack, bonded) arrays of OVERSAMPLE * (N + 1) equispaced points
        per arc, inset delta from the tips."""
        m, delta = int(round(OVERSAMPLE * (self.n + 1))), self.delta
        crack = delta + np.arange(m) * (self.l0 - 2.0 * delta) / (m - 1)
        bond = self.l0 + delta + np.arange(m) * ((self.l - self.l0) - 2.0 * delta) / (m - 1)
        return crack, bond


class _Tables:
    """Per-quadrature operator tables evaluated at the collocation points.

    For every function of the basis' table on each arc these hold the
    Cauchy principal value A, the regular-kernel integrals B1 (against
    d tau) and B2 (against conj(d tau)), the plain moments Q, and the values
    and first two s-derivatives V at the collocation points of the
    function's own arc (``_point_values``, from the basis' memo, so the levels
    of one assembly tabulate them once); all are keyed by arc, one row per
    function.
    """

    def __init__(self, contour, pts, arc_of_pt, disc, basis):
        self.V = values = _point_values(basis, pts, arc_of_pt)
        t_p = contour.point(pts)
        dt_p = contour.tangent(pts)
        self.pts, self.arc_of_pt, self.t_p, self.dt_p = pts, arc_of_pt, t_p, dt_p
        self.rho_p = contour.curvature(pts)
        self.rhop_p = contour.curvature_derivative(pts)

        # The Cauchy integrals follow kernels._pv_values: the raw divided
        # difference, but a node on a same-arc point (left out of cmat).
        dd_eps = DIVIDED_DIFFERENCE_EPS_FACTOR * contour.l
        cmat, near_q, near_p = _cauchy_matrix(disc, pts, t_p, arc_of_pt, dd_eps)
        g_all = np.sum(cmat, axis=0)

        self.A, self.B1, self.B2, self.Q = {}, {}, {}, {}
        for arc in (0, 1):
            # The mask copies the arc's rows of cmat: with views of them the
            # N = 64 solve peaks 7% higher in resident memory (glibc heap state).
            qmask = disc.arc == arc
            # The kernels' near-diagonal guard has its own, larger radius: the
            # raw kernel quotients lose about 1e-16/d**2 to cancellation.
            k1m, k2m = _regular_kernels(
                contour, pts, t_p, dt_p, disc.s[qmask, None], disc.tau[qmask, None],
                DIAG_EPS_FACTOR * contour.l,
            )
            m_arc = basis.functions(arc, disc.s[qmask]).T  # [K, n_q]
            v0 = values[arc][0]

            t1 = m_arc @ cmat[qmask, :]
            a_tab = t1 - v0 * (g_all - 1j * np.pi)[None, :]
            # A node on a point adds w_q times the basis slope there.
            on_arc = disc.arc[near_q] == arc
            qi, pi = near_q[on_arc], near_p[on_arc]
            np.add.at(a_tab.T, pi, (disc.w[qi] * values[arc][1][:, pi]).T)
            self.A[arc] = a_tab

            wdt = disc.w[qmask] * disc.dt[qmask]
            wdtc = disc.w[qmask] * np.conj(disc.dt[qmask])
            self.B1[arc] = (m_arc * wdt[None, :]) @ k1m
            self.B2[arc] = (m_arc * wdtc[None, :]) @ k2m
            self.Q[arc] = m_arc @ wdt

    def drift_from(self, coarse):
        """Largest change of the quadrature-dependent tables (A, B1, B2, Q)
        from those of the coarser level, relative to their largest entry
        here.  V depends on the points only."""
        pairs = [
            (fine[arc], old[arc])
            for fine, old in zip((self.A, self.B1, self.B2, self.Q), (coarse.A, coarse.B1, coarse.B2, coarse.Q))
            for arc in fine
        ]
        scale = max(float(np.max(np.abs(fine))) for fine, _ in pairs)
        change = max(float(np.max(np.abs(fine - old))) for fine, old in pairs)
        return change / max(scale, 1e-300)


def _point_values(basis, pts, arc_of_pt):
    """{arc: [3, functions, points]}: the values and first two s-derivatives
    of the arc's functions at the points of that arc, zero elsewhere."""
    values = {}
    for arc in (0, 1):
        pmask = arc_of_pt == arc
        tables = [basis.table(arc, pts[pmask], order) for order in range(3)]
        values[arc] = np.zeros((3, tables[0].shape[1], pts.size))
        for stack, table in zip(values[arc], tables):
            stack[:, pmask] = table.T
    return values


def assemble(setup, n, rule=None):
    """Assemble the real collocation system for the given problem and order.

    The system is solved by weighted least squares: its matrix and rhs rows
    are stored times their weights (``row_weights``), and reported residuals
    are unweighted.  ``rule`` is the quadrature (QuadratureRule() by
    default).
    """
    ((system, _),) = _assemble_cases([setup], n, rule)
    system.rhs = system.rhs[:, 0]
    return system


def _assemble_cases(setups, n, rule=None, basis=None):
    """Systems of setups on one contour, yielded as (LinearSystem, case
    indices), one per group of setups with equal materials and surface
    tension, each with one right-hand-side column per case of the group
    (``rhs`` [rows, cases]).  A group is assembled when the one before it
    has been taken, and the tables are dropped before the last is yielded.

    The adaptive quadrature builds the operator tables once per level for
    all setups and stops when their drift from the coarser level
    (``_Tables.drift_from``) falls below MATRIX_STABILITY_TOL, or after
    MAX_ADAPTIVE_ROUNDS refinements; the right-hand sides do not depend on
    the quadrature.  Each group's rows are then assembled once, on the final
    tables, and reduced to the group's columns (_Elimination), whose
    integral constraints come from the same tables' moments; every group
    reports the same drift.  ``rule`` and ``basis`` are those of
    ``solve_cases``.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"polynomial order must be an integer, got {n!r}")
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
    n_rows = 4 * pts.size + 4 * points[0].size + 2 * points[1].size + 6
    for k, cases in enumerate(groups):
        t0 = time.perf_counter()
        setup = setups[cases[0]]
        elimination = _Elimination(setup, basis, _constraint_rows(setup, basis, tab))
        matrix, rhs = np.empty((n_rows, elimination.keep.size)), np.empty((n_rows, len(cases)))
        tags, wts = [None] * n_rows, np.empty(n_rows)
        r0 = 0
        for rows, b, block_tags, w in _assemble_rows([setups[i] for i in cases], basis, tab):
            r1 = r0 + rows.shape[0]
            elimination.reduce(rows, out=matrix[r0:r1])
            matrix[r0:r1] *= w[:, None]
            rhs[r0:r1], wts[r0:r1] = b * w[:, None], w
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
            "full_coefficients": basis.total,
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
            basis=basis,
            meta=meta,
        )
        if k == len(groups) - 1:
            del tab  # kept through the solve, they raise a one-group peak RSS 23% at N = 64 (glibc heap)
        yield system, cases
        del matrix, system  # the next group's matrix is allocated without this one


class _Elimination:
    """A group's system columns and their map to the full vector of ``basis``.

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

    def __init__(self, setup, basis, constraints):
        inclusion, matrix = setup.phases
        self.lam = -inclusion.slope_factor / matrix.slope_factor
        self.linked, sources = (
            np.concatenate([basis.a_cols(p)[1:], basis.b_cols(p)[1:]])
            for p in (_piece(matrix.g, 1), _piece(inclusion.g, 1))
        )
        self.free = np.delete(np.arange(basis.total), self.linked)
        self.sources, self.total = np.searchsorted(self.free, sources), basis.total
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
        self.col_runs, self.linked_runs = (  # reduce copies each run of consecutive columns as one slice
            np.split(i, np.flatnonzero(np.diff(i) != 1) + 1) for i in (self.cols, self.linked)
        )

    def reduce(self, rows, out):
        """Rows over the full vector as rows of the system, written to out;
        einsum, unlike BLAS, rounds each entry alike in any block of rows."""
        np.concatenate([rows[:, r[0]:r[-1] + 1] for r in self.col_runs], axis=1, out=out)
        linked = np.concatenate([rows[:, r[0]:r[-1] + 1] for r in self.linked_runs], axis=1)
        out[:, self.kept_sources] += self.lam * linked
        out += np.einsum("ik,kj->ij", np.take(rows, self.free[self.dep], axis=1), self.t)

    def expand(self, x):
        """The full coefficient vector of a system solution x."""
        x_free = np.empty(self.free.size)
        x_free[self.keep], x_free[self.dep] = x, self.t @ x
        full = np.zeros(self.total)
        full[self.free], full[self.linked] = x_free, self.lam * x_free[self.sources]
        return full


def _constraint_rows(setup, basis, tab):
    """The integral constraints as real rows over the full vector and their
    tags: total-force balance, int (q0 - q) d tau = 0 over the contour, and
    single-valuedness, the sum over the phases of slope_factor * int g' d tau
    over the crack arc = 0; each with its real and imaginary part."""
    z = np.zeros((2, basis.total), dtype=complex)  # force balance, single-valuedness
    for phase in setup.phases:
        q_terms = [(0, _piece(phase.q, arc), phase.sign) for arc in (0, 1)]
        for i, piece, fac in q_terms + [(1, _piece(phase.g, 0), phase.slope_factor)]:
            (cols_a, cols_b), moments = basis.columns(piece), tab.Q[piece // 4]
            z[i, basis.a_cols(piece)] += fac * moments[cols_a]
            z[i, basis.b_cols(piece)] += 1j * fac * moments[cols_b]
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
    crack_sel, bond_sel = (np.flatnonzero(tab.arc_of_pt == arc) for arc in (0, 1))
    crack_pts, bond_pts = tab.pts[crack_sel], tab.pts[bond_sel]
    inclusion, matrix = phases = setup.phases

    n_pts = tab.pts.size
    n_cases = len(setups)

    def taper(sel_pts, lo, hi):
        d = np.minimum(sel_pts - lo, hi - sel_pts) / (hi - lo)
        return (4.0 * d * (1.0 - d)) ** basis.taper_exponent

    w_crack = taper(crack_pts, 0.0, contour.l0)
    w_bond = taper(bond_pts, contour.l0, contour.l)
    w_both = np.concatenate([w_crack, w_bond])

    def family(z, direct, a_fac, b1_fac, b2_fac, name):
        """Add the complex coefficients of density ``name`` on both arcs to
        the block z [n_pts, full].  The densities of one equation have
        disjoint columns, so each adds to zeros."""
        for p in (_piece(name, 0), _piece(name, 1)):
            arc = p // 4
            cols_a, cols_b = basis.columns(p)
            base = direct * tab.V[arc][0] + a_fac * tab.A[arc] + b1_fac * tab.B1[arc]
            z[:, basis.a_cols(p)] += (base[cols_a] + b2_fac * tab.B2[arc][cols_a]).T
            z[:, basis.b_cols(p)] += (1j * base[cols_b] - 1j * b2_fac * tab.B2[arc][cols_b]).T

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
        z = np.zeros((n_pts, basis.total), dtype=complex)
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
        v = tab.V[arc][:, :, sel]  # [order, function, point]
        row_re = np.zeros((sel.size, basis.total))
        row_im = np.zeros((sel.size, basis.total))
        for qp in q_pieces:
            cols_a, cols_b = basis.columns(qp)
            row_re[:, basis.a_cols(qp)] += v[0, cols_a].T
            row_im[:, basis.b_cols(qp)] += v[0, cols_b].T
        cols_a, cols_b = basis.columns(g_piece)
        row_re[:, basis.b_cols(g_piece)] -= coef * rho**2 * v[0, cols_b].T
        row_re[:, basis.a_cols(g_piece)] -= coef * rho * v[1, cols_a].T
        row_im[:, basis.b_cols(g_piece)] -= coef * (rhop * v[0, cols_b].T + rho * v[1, cols_b].T)
        row_im[:, basis.a_cols(g_piece)] -= coef * v[2, cols_a].T
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
    for cols, tag in ((basis.a_cols, "bond_slope_tie_re"), (basis.b_cols, "bond_slope_tie_im")):
        row = np.zeros((1, basis.total))
        for phase in phases:
            row[0, cols(_piece(phase.g, 1))[0]] = phase.slope_factor
        yield row, np.zeros((1, n_cases)), [tag], np.array([basis.tip_weight])

    # Continuity of Re g0' and Re g' across both tips: tip 0 joins the start
    # of the crack arc to the end of the bonded arc, tip 1 the other ends.
    for phase in phases:
        crack_piece, bond_piece = _piece(phase.g, 0), _piece(phase.g, 1)
        crack_start, crack_end = basis.table(0, [0.0, contour.l0])[:, basis.columns(crack_piece)[0]]
        bond_start, bond_end = basis.table(1, [contour.l0, contour.l])[:, basis.columns(bond_piece)[0]]
        name = phase.g.removesuffix("p")  # g0 or g
        for crack_val, bond_val, tag in (
            (crack_start, bond_end, f"{name}_slope_continuity_tip0"),
            (crack_end, bond_start, f"{name}_slope_continuity_tip1"),
        ):
            row = np.zeros((1, basis.total))
            row[0, basis.a_cols(crack_piece)] = crack_val
            row[0, basis.a_cols(bond_piece)] = -bond_val
            yield row, np.zeros((1, n_cases)), [tag], np.array([basis.tip_weight])


def solve(system, rcond=1e-13):
    """Least-squares solve with column equilibration and rank reporting.

    The weighted matrix is factorized by one Householder QR.  The solve is
    full rank when the smallest singular value of the column-equilibrated R
    exceeds ``rcond`` times the largest; both come from block Lanczos
    iterations, their ratio is the reported condition, and the solution is
    back-substituted.  Otherwise the SVD of R truncates the directions below
    ``rcond``, reported through the effective rank, and gives the
    minimum-norm solution; the solve then fails only when the best fit
    misses the right-hand side by more than FAIL_RESIDUAL relative to the
    data scale; its SingularSystemError names the (at most 4) row tags with
    the largest unweighted residuals, largest first.  ``rcond`` must lie in
    [0, 1), and a non-finite entry of the system raises a ValueError naming
    its row tag.
    """
    return _solve_columns(system, rcond)[0]


def _check_rcond(rcond):
    if not 0.0 <= rcond < 1.0:  # NaN fails the comparison too
        raise ValueError(f"rcond must be finite and in [0, 1), got {rcond!r}")


def _column_scale(mat):
    """The largest |entry| of each column, 1 for a zero column."""
    scale = np.maximum(np.max(mat, axis=0), -np.min(mat, axis=0))  # without an |mat| copy
    scale[scale == 0.0] = 1.0
    return scale


def _solve_columns(system, rcond=1e-13, cases=None):
    """``solve`` for every right-hand-side column of the system (``rhs``
    [rows] or [rows, columns]) with one factorization; returns one
    (DensitySet, ResidualReport) per column.  ``cases`` names the columns
    in a SingularSystemError."""
    _check_rcond(rcond)
    t0 = time.perf_counter()
    mat, rhs, w = system.matrix, system.rhs.reshape(system.rhs.shape[0], -1), system.row_weights
    col_scale = _column_scale(mat)  # NaN or inf where a column holds one
    if not (np.all(np.isfinite(col_scale)) and np.all(np.isfinite(rhs))):
        finite = np.all(np.isfinite(mat), axis=1) & np.all(np.isfinite(rhs), axis=1)
        row = int(np.argmin(finite))
        raise ValueError(f"non-finite entry in row {row} ({system.row_tags[row]!r}) of the collocation system")
    sol, rank, cond = _least_squares(mat, rhs, col_scale, rcond)
    lstsq_s = time.perf_counter() - t0
    rows, cols = mat.shape
    if rank < cols:
        log.warning(
            "collocation matrix rank %d < %d columns at order %d (condition %.3e)%s",
            rank, cols, system.basis.n, cond, "" if cases is None else f" for cases {cases}",
        )

    # The rows of a tag come in runs (one per block of _assemble_rows).
    tags = system.row_tags
    runs = [i for i, tag in enumerate(tags) if i == 0 or tag != tags[i - 1]]
    out = []
    for j in range(rhs.shape[1]):
        x = sol[:, j]
        # Residuals are reported for the unweighted rows.
        resid = (mat @ x - rhs[:, j]) / w
        per_tag = {}
        for i, r in zip(runs, np.maximum.reduceat(np.abs(resid), runs).tolist()):
            per_tag[tags[i]] = max(per_tag.get(tags[i], 0.0), r)
        data_scale = max(np.max(np.abs(rhs[:, j] / w)), 1.0)
        resid_scale = max(per_tag.values())
        if rank < cols and resid_scale > FAIL_RESIDUAL * data_scale:
            worst = sorted(per_tag.items(), key=lambda item: item[1], reverse=True)[:4]
            raise SingularSystemError(
                f"collocation matrix rank {rank} < {cols} and the "
                f"least-squares residual {resid_scale:.3e} exceeds tolerance; "
                f"largest residuals by row tag: {', '.join(f'{tag} {r:.3e}' for tag, r in worst)}",
                case=None if cases is None else cases[j],
            )
        # The eliminated constraints report their residuals c @ full.
        full = system.elimination.expand(x)
        per_tag.update(zip(system.elimination.tags, np.abs(system.elimination.rows @ full).tolist()))
        dset = system.basis.densities(full)
        meta = dict(system.meta)
        meta["timings"] = {**meta.get("timings", {}), "lstsq_s": lstsq_s}
        report = ResidualReport(
            rows=rows,
            cols=cols,
            rank=int(rank),
            condition=cond,
            max_residual=max(per_tag.values()),
            per_tag=per_tag,
            degenerate_pair=bool(system.meta.get("degenerate_pair", False)),
            meta=meta,
        )
        out.append((dset, report))
    return out


def _least_squares(mat, rhs, col_scale, rcond):
    """(solutions [cols, columns of rhs], rank, condition) of the least
    squares mat x = rhs, equilibrated by the column scales ``col_scale``.

    One Householder QR of mat (``_householder_qr``, in one copy of mat)
    gives Q^T rhs (``_apply_qt``) and then R, moved in place over the
    reflectors; the extreme singular values of R C^-1 (C = diag(col_scale))
    come from ``_largest_singular_value`` on it and on its inverse.  Since
    the smallest is at most min |r_ii| / c_i, a diagonal at or below rcond
    times the largest skips the second iteration.  A full-rank R is inverted
    by back-substitution; otherwise, or when an iteration gives up (NaN, so
    every comparison below fails), the SVD of R C^-1 (np.linalg.lstsq) gives
    the truncated minimum-norm solution, the rank and the condition, as it
    would for mat C^-1 itself.
    """
    qrt, tau = _householder_qr(mat)
    n = qrt.shape[0]
    qtb = _apply_qt(qrt.T, tau, rhs)[:n]
    r = _equilibrated_r(qrt, col_scale)
    s_max = _largest_singular_value(lambda z: r @ z, lambda y: r.T @ y, n, KRYLOV_RTOL)
    diagonal = np.min(np.abs(np.diagonal(r)))
    if diagonal > rcond * s_max:
        # Rounding moves the smallest singular value by about eps * condition
        # relative, which min |r_ii| bounds from below.
        noise = np.finfo(float).eps * s_max / diagonal
        s_min = 1.0 / _largest_singular_value(
            lambda y: _solve_upper(r, y), lambda z: _solve_upper(r, z, transpose=True), n,
            max(KRYLOV_RTOL, noise),
        )
        if s_min > rcond * s_max:
            return _solve_upper(r, qtb) / col_scale[:, None], n, float(s_max / s_min)
    sol, _, rank, sing = np.linalg.lstsq(r, qtb, rcond=rcond)
    cond = float(sing[0] / sing[-1]) if sing[-1] > 0 else np.inf
    return sol / col_scale[:, None], int(rank), cond


def _householder_qr(mat):
    """(qrt, tau): LAPACK geqrf's QR of mat [rows, cols] with its output
    transposed, qrt [cols, rows] (R^T on and below the diagonal of its
    leading columns, reflector j in row j past the diagonal), computed in
    place in one C-ordered copy of mat^T, filled 256 rows of mat at a time
    and read by LAPACK as mat in column order.  np.linalg.qr(mat, "raw")
    gives the same bit for bit, but holds a second copy of mat."""
    m, n = mat.shape
    qrt = np.empty((n, m))
    for r0 in range(0, m, 256):
        qrt[:, r0:r0 + 256] = mat[r0:r0 + 256].T
    tau, work = np.empty(min(m, n)), np.empty(1)
    lapack_lite.dgeqrf(m, n, qrt, m, tau, work, -1, 0)  # workspace query
    work = np.empty(int(work[0]))
    info = lapack_lite.dgeqrf(m, n, qrt, m, tau, work, work.size, 0)["info"]
    if info:
        raise np.linalg.LinAlgError(f"geqrf failed with info {info}")
    return qrt, tau


def _apply_qt(qr, tau, b):
    """Q^T b for the QR (qr, tau) in geqrf's layout.  Each block of LSQ_BLOCK
    reflectors H_j = I - tau_j v_j v_j^T acts at once as I - V T V^T, with
    T^-1 = diag(1/tau_j) plus the strict upper triangle of V^T V (Joffrain
    et al., ACM TOMS 32, 2006); tau_j = 0 marks H_j = I."""
    c = np.array(b, dtype=float)
    for j0 in range(0, qr.shape[1], LSQ_BLOCK):
        j1 = min(j0 + LSQ_BLOCK, qr.shape[1])
        tau_block = tau[j0:j1]
        v = qr[j0:, j0:j1].copy()
        v[: j1 - j0] = np.tril(v[: j1 - j0], -1)
        np.fill_diagonal(v, 1.0)
        v[:, tau_block == 0.0] = 0.0
        t_inv = np.triu(v.T @ v, 1)
        np.fill_diagonal(t_inv, 1.0 / np.where(tau_block == 0.0, 1.0, tau_block))
        c[j0:] -= v @ np.linalg.solve(t_inv.T, v.T @ c[j0:])
    return c


def _equilibrated_r(qrt, col_scale):
    """R C^-1 in place of the leading columns of ``_householder_qr``'s qrt,
    a C-ordered view.  Block row by block row, the block's upper part
    (reflectors that Q^T b no longer needs) takes R from the R^T below it,
    and its lower part is zeroed once the rows above have taken it."""
    n = qrt.shape[0]
    r = qrt[:, :n]
    for j0 in range(0, n, LSQ_BLOCK):
        j1 = min(j0 + LSQ_BLOCK, n)
        r[j0:j1, j1:] = r[j1:, j0:j1].T
        r[j0:j1, j0:j1] = np.tril(r[j0:j1, j0:j1]).T
        r[j0:j1, :j0] = 0.0
    r /= col_scale
    return r


def _solve_upper(r, y, transpose=False):
    """r^-1 y (r^-T y when ``transpose``) for the upper triangular r, by
    substitution over diagonal blocks of LSQ_BLOCK rows.  np.linalg.solve
    of an upper triangular block pivots on its diagonal, so it substitutes;
    for the transposed block it is backward stable as well."""
    x = np.empty_like(y)
    n = r.shape[0]
    starts = range(0, n, LSQ_BLOCK)
    for j0 in starts if transpose else reversed(starts):
        j1 = min(j0 + LSQ_BLOCK, n)
        if transpose:
            x[j0:j1] = np.linalg.solve(r[j0:j1, j0:j1].T, y[j0:j1] - r[:j0, j0:j1].T @ x[:j0])
        else:
            x[j0:j1] = np.linalg.solve(r[j0:j1, j0:j1], y[j0:j1] - r[j0:j1, j1:] @ x[j1:])
    return x


def _start_block(n):
    """A deterministic [n, KRYLOV_BLOCK] start block with no structure a
    collocation matrix shares: the fractional parts of a Weyl sequence."""
    k = np.arange(1, n * KRYLOV_BLOCK + 1, dtype=float).reshape(n, KRYLOV_BLOCK)
    return np.modf(k * (np.sqrt(5.0) - 1.0) / 2.0)[0] - 0.5


def _largest_singular_value(apply, apply_t, n, rtol):
    """Largest singular value of the n x n operator ``apply`` (``apply_t``
    its transpose) by block Lanczos on apply_t(apply(.)) from _start_block,
    with full reorthogonalization: the estimate is the largest singular
    value of ``apply`` on the orthonormal basis (Rayleigh-Ritz, from below),
    and the iteration stops once a step moves it by at most rtol relative.
    NaN when KRYLOV_MAX_STEPS estimates leave it unsettled."""
    basis = np.linalg.qr(_start_block(n))[0]
    images = apply(basis)
    estimate = 0.0
    for _ in range(KRYLOV_MAX_STEPS):
        previous, estimate = estimate, float(np.sqrt(np.linalg.eigvalsh(images.T @ images)[-1]))
        if estimate - previous <= rtol * estimate or basis.shape[1] + KRYLOV_BLOCK > n:
            return estimate
        block = apply_t(images[:, -KRYLOV_BLOCK:])
        for _ in range(2):
            block -= basis @ (basis.T @ block)
        block = np.linalg.qr(block)[0]
        basis = np.hstack([basis, block])
        images = np.hstack([images, apply(block)])
    return np.nan


def solve_problem(setup, n, rule=None, rcond=1e-13):
    """Assemble and solve in one step; returns (DensitySet, ResidualReport)."""
    return solve_cases([setup], n, rule=rule, rcond=rcond)[0]


def solve_cases(setups, n, rule=None, rcond=1e-13, basis=None):
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
    SingularSystemError naming its index (``case``) when there are several;
    as each group is solved and dropped before the next is assembled (one
    group matrix at a time), the later groups are then not assembled.
    ``basis`` replaces the Legendre basis of order n (see _LegendreBasis) for
    every case; the basis also sets the collocation points, their tip inset,
    the row taper and the weight of the tip-anchored rows.
    """
    _check_rcond(rcond)
    out = [None] * len(setups)
    for system, cases in _assemble_cases(setups, n, rule=rule, basis=basis):
        named = cases if len(setups) > 1 else None
        for i, result in zip(cases, _solve_columns(system, rcond, cases=named)):
            out[i] = result
        del system  # before the next group's matrix is allocated
    return out
