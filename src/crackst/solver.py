"""Collocation solver for the coupled singular integro-differential system.

Four complex densities live on the closed contour: the stress jumps q0, q and
the displacement-derivative jumps g0', g' of the inclusion-side and
matrix-side zero extensions.  Each is a truncated Taylor polynomial per arc,

    f(s) = sum_k a_k (s - c)^k + i * sum_k b_k (s - c)^k,

with real coefficients, expansion centers at the arc midpoints, real degree
N+1 and imaginary degree N (the bonded-arc q has real degree N), for a total
of 16N + 23 real coefficients.

Rows of the real linear system:

  * the two singular integral equations that force the zero extensions
    (vanishing displacement derivative of the inclusion outside the contour
    and of the matrix inside it), collocated at N+1 interior points per arc,
    real and imaginary parts split; the matrix-side equation carries the
    single-valuedness integral and the remote-load terms;
  * the four real surface-tension conditions on the crack faces at the
    crack-arc points, and the two traction-jump conditions on the bonded arc
    at the bonded-arc points;
  * the proportionality of g0' and g' on the bonded arc, imposed by
    eliminating the degree >= 1 coefficients of the bonded-arc g' and adding
    the constant-term tie as two residual rows;
  * total-force balance (two rows) and continuity of Re g0', Re g' across
    both tips (four rows).

The system has 14N+22 columns and is solved by weighted least squares with
rank and condition reporting.
Monomials are evaluated internally in the shifted variable (s-c)/h with h the
arc half-length, which keeps the Vandermonde-like blocks well conditioned;
solved coefficients are reported in powers of (s-c).  The rows are built from
a basis object (_MonomialBasis here); tips.solve_tip_resolved assembles the
same rows on a basis that resolves the crack tips.

``solve_cases`` solves several setups on one contour at once: the operator
tables depend only on the contour and the discretization, and the load and
the crack-face tractions enter only the right-hand side, so the tables are
built once per quadrature level and each matrix is factorized once for all
of its loads.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .kernels import DIAG_EPS_FACTOR, QuadratureRule, _regular_kernels

__all__ = [
    "FUNCTIONS",
    "DensitySet",
    "LinearSystem",
    "ResidualReport",
    "SingularSystemError",
    "collocation_points",
    "eval_density",
    "eval_density_derivatives",
    "assemble",
    "solve",
    "solve_problem",
    "solve_cases",
    "full_coefficient_count",
    "tension_coefficients",
]

FUNCTIONS = ("q0", "g0p", "q", "gp")
MIN_ORDER = 4

log = logging.getLogger("crackst")

# Collocation points stay l/(TIP_INSET_FACTOR*(N+1)) away from the crack
# tips, where shear stresses may grow logarithmically.
TIP_INSET_FACTOR = 200.0
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
# tension); the integral constraint rows (force balance, single-valuedness)
# are weighted strongly so the conserved quantities hold to post-hoc
# quadrature accuracy.  The tip-anchored rows (slope continuity across the
# tips, constant-term ties) stay at unit weight: they pin the polynomial
# exactly where it is least accurate, and forcing them hard distorts the
# interior solution.
DEFAULT_TAPER = 1.0
BOND_WEIGHT = 5.0
CONSTRAINT_WEIGHT = 100.0
FORCE_WEIGHT = 10.0
TIP_ROW_WEIGHT = 1.0


class SingularSystemError(RuntimeError):
    """Raised when the collocation matrix is rank deficient beyond tolerance.

    ``case`` is the index of the failing setup in a ``solve_cases`` call
    (None for a single solve)."""

    def __init__(self, message, case=None):
        super().__init__(message if case is None else f"case {case}: {message}")
        self.case = case


def full_coefficient_count(n):
    """Total real coefficients of the density representation: 16N + 23."""
    return 16 * n + 23


def collocation_points(l0, l, n, delta=None):
    """N+1 equally spaced interior points on each arc, inset delta from tips."""
    if n < 1:
        raise ValueError(f"order must be at least 1, got {n}")
    if delta is None:
        delta = l / (TIP_INSET_FACTOR * (n + 1))
    if delta <= 0.0:
        raise ValueError(f"tip inset must be positive, got {delta}")
    if 2.0 * delta >= min(l0, l - l0):
        raise ValueError(f"tip inset {delta} too large for arc lengths {l0}, {l - l0}")
    crack = delta + np.arange(n + 1) * (l0 - 2.0 * delta) / n
    bond = l0 + delta + np.arange(n + 1) * ((l - l0) - 2.0 * delta) / n
    return crack, bond


def _a_len(piece, n):
    return n + 1 if piece == 6 else n + 2


def _b_len(piece, n):
    return n + 1


class _Layout:
    """Column bookkeeping for the full coefficient vector (8 pieces:
    crack-arc q0, g0', q, g', then the same four on the bonded arc), with
    the piece lengths of the basis (the monomial ones by default)."""

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
    """Polynomial coefficients of the four densities on the two arcs.

    ``a[p]`` and ``b[p]`` are the real and imaginary coefficient vectors of
    piece p (0..3 crack arc, 4..7 bonded arc, function order q0, g0', q, g'),
    in powers of (s - center of the arc).
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

    def piece(self, which, arc):
        try:
            f = FUNCTIONS.index(which)
        except ValueError:
            raise ValueError(f"unknown density {which!r}; expected one of {FUNCTIONS}")
        return 4 * arc + f

    def _coeffs(self, piece):
        a = self.a[piece]
        b = np.pad(self.b[piece], (0, len(a) - len(self.b[piece])))
        return a + 1j * b

    def eval(self, which, s, order=0):
        """Value (order=0) or exact polynomial s-derivative of a density."""
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any(s_arr < -1e-12) or np.any(s_arr > self.l + 1e-12):
            raise ValueError("arc length outside [0, l]")
        arc = np.where(s_arr <= self.l0, 0, 1)
        out = np.zeros(s_arr.shape, dtype=complex)
        for a in (0, 1):
            mask = arc == a
            if not np.any(mask):
                continue
            coef = self._coeffs(self.piece(which, a))
            for _ in range(order):
                coef = coef[1:] * np.arange(1, len(coef))
            out[mask] = np.polynomial.polynomial.polyval(
                s_arr[mask] - self.centers[a], coef
            )
        return out if np.ndim(s) else out[0]

    def scaled(self, factor):
        return DensitySet(
            n=self.n,
            l0=self.l0,
            l=self.l,
            a=[factor * a for a in self.a],
            b=[factor * b for b in self.b],
        )

    def max_abs_coefficient(self):
        return max(
            max((np.max(np.abs(v)) for v in self.a), default=0.0),
            max((np.max(np.abs(v)) for v in self.b), default=0.0),
        )

    def to_dict(self):
        return {
            "order": self.n,
            "l0": self.l0,
            "l": self.l,
            "centers": list(self.centers),
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
        dset = cls.zeros(d["order"], d["l0"], d["l"])
        for p, item in enumerate(d["pieces"]):
            dset.a[p] = np.asarray(item["a"], dtype=float)
            dset.b[p] = np.asarray(item["b"], dtype=float)
        return dset


def eval_density(dset, which, s):
    """Density value at arc length s (which in q0, g0p, q, gp)."""
    return dset.eval(which, s)


def eval_density_derivatives(dset, which, s, order):
    """Exact polynomial derivative of a density (order 1, 2 or 3)."""
    if order not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2 or 3, got {order!r}")
    return dset.eval(which, s, order=order)


@dataclass
class LinearSystem:
    """Assembled real collocation system over the free coefficients."""

    matrix: np.ndarray
    rhs: np.ndarray
    row_tags: list
    row_weights: np.ndarray  # least-squares weights, one per row
    elimination: np.ndarray  # maps free coefficients to the full vector
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


def _derivative_stack(x_p, pmask, powers, half):
    kk = powers[:, None].astype(float)
    x = x_p[None, :]
    mask = pmask[None, :]

    def mono(shift):
        keep = mask & (powers[:, None] >= shift)
        return np.where(keep, x ** np.maximum(powers[:, None] - shift, 0), 0.0)

    v0 = mono(0)
    v1 = kk * mono(1) / half
    v2 = kk * np.maximum(kk - 1.0, 0.0) * mono(2) / half**2
    v3 = kk * np.maximum(kk - 1.0, 0.0) * np.maximum(kk - 2.0, 0.0) * mono(3) / half**3
    return v0, v1, v2, v3


class _MonomialBasis:
    """The solver's basis: on each arc the scaled monomials x^k, x = (s-c)/h.

    A basis names the function families it uses on each arc (``keys``) and,
    per piece, the family and the number of functions of the real and the
    imaginary part (``part_keys``, ``lengths``).  Here one family serves
    both parts.  The tables and the rows of the system are built from these
    methods alone, so another basis (tips.TipEnrichedBasis) reuses the same
    equations.
    """

    def __init__(self, l0, l, n):
        self.n = n
        self.centers = (0.5 * l0, 0.5 * (l0 + l))
        self.halves = (0.5 * l0, 0.5 * (l - l0))
        self.powers = np.arange(n + 2)
        # Same-arc node/point pairs closer than this take the
        # divided-difference limit in the Cauchy table A.
        self.diag_eps = DIAG_EPS_FACTOR * l

    def keys(self, arc):
        return ("x",)

    def part_keys(self, piece):
        return "x", "x"

    def lengths(self, piece):
        return _a_len(piece, self.n), _b_len(piece, self.n)

    def node_values(self, arc, key, s):
        """[K, len(s)]: function values at quadrature nodes of the arc."""
        x_q = (s - self.centers[arc]) / self.halves[arc]
        return x_q[None, :] ** self.powers[:, None]

    def point_values(self, arc, key, pts, pmask):
        """Values and first three s-derivatives, [K, len(pts)] each, at the
        points of the arc (zero elsewhere)."""
        x_p = np.zeros(pts.size)
        x_p[pmask] = (pts[pmask] - self.centers[arc]) / self.halves[arc]
        return _derivative_stack(x_p, pmask, self.powers, self.halves[arc])

    def slopes(self, arc, key, s):
        """[K, len(s)]: first s-derivatives."""
        x_mid = (s - self.centers[arc]) / self.halves[arc]
        kk = self.powers[:, None].astype(float)
        return kk * np.where(kk > 0, x_mid[None, :] ** np.maximum(kk - 1, 0), 0.0) / self.halves[arc]

    def end_values(self, arc, key):
        """Function values at the start and at the end of the arc."""
        return (-1.0) ** np.arange(self.n + 2, dtype=float), np.ones(self.n + 2)

    def densities(self, full, layout, l0, l):
        """The DensitySet of the full coefficient vector, converted from the
        scaled monomials to powers of (s - c)."""
        dset = DensitySet.zeros(self.n, l0, l)
        for p in range(8):
            h = self.halves[p // 4]
            a, b = full[layout.a_cols(p)], full[layout.b_cols(p)]
            dset.a[p] = a * h ** -np.arange(a.size, dtype=float)
            dset.b[p] = b * h ** -np.arange(b.size, dtype=float)
        return dset


class _Tables:
    """Per-quadrature operator tables evaluated at the collocation points.

    For every function of each of the basis' families on each arc these hold
    the Cauchy principal value A, the regular-kernel integrals B1 (against
    d tau) and B2 (against conj(d tau)), the plain moments Q, and the values
    and first three s-derivatives V at the collocation points of the
    function's own arc; all are keyed by (arc, family).
    """

    def __init__(self, contour, pts, arc_of_pt, disc, basis):
        t_p = contour.point(pts)
        dt_p = contour.tangent(pts)
        self.pts, self.arc_of_pt, self.t_p, self.dt_p = pts, arc_of_pt, t_p, dt_p
        self.rho_p = contour.curvature(pts)
        self.rhop_p = contour.curvature_derivative(pts)

        denom = disc.tau[:, None] - t_p[None, :]
        d_s = disc.s[:, None] - pts[None, :]
        # Divided-difference replacement applies only to same-arc pairs;
        # across a tip the raw quotient is the correct near-singular value.
        near_plain = (np.abs(d_s) < basis.diag_eps) & (disc.arc[:, None] == arc_of_pt[None, :])
        safe = np.where(near_plain, 1.0, denom)
        cmat = (disc.w * disc.dt)[:, None] / safe
        # The kernels' near-diagonal guard does not depend on the basis;
        # basis.diag_eps sets only the divided-difference radius above.
        k1m, k2m = _regular_kernels(
            contour, pts, t_p, dt_p, disc.s[:, None], disc.tau[:, None],
            DIAG_EPS_FACTOR * contour.l,
        )

        g_all = np.sum(cmat, axis=0)

        self.A, self.B1, self.B2, self.Q, self.V = {}, {}, {}, {}, {}
        for arc in (0, 1):
            qmask = disc.arc == arc
            pmask = arc_of_pt == arc
            for key in basis.keys(arc):
                m_arc = basis.node_values(arc, key, disc.s[qmask])  # [K, n_q]
                stack = basis.point_values(arc, key, pts, pmask)
                self.V[arc, key] = stack
                v0 = stack[0]

                t1 = m_arc @ cmat[qmask, :]
                a_tab = t1 - v0 * (g_all - 1j * np.pi)[None, :]
                # Exact divided-difference replacement for near node/point pairs.
                qi, pi = np.nonzero(near_plain[qmask, :])
                if qi.size:
                    s_q = disc.s[qmask][qi]
                    w_q = disc.w[qmask][qi]
                    dt_q = disc.dt[qmask][qi]
                    c_q = cmat[qmask, :][qi, pi]
                    mid = 0.5 * (s_q + pts[pi])
                    dd = basis.slopes(arc, key, mid) * (dt_q / contour.tangent(mid))[None, :]
                    crude = (m_arc[:, qi] - v0[:, pi]) * c_q[None, :]
                    np.add.at(a_tab.T, pi, (w_q[None, :] * dd - crude).T)
                self.A[arc, key] = a_tab

                wdt = disc.w[qmask] * disc.dt[qmask]
                wdtc = disc.w[qmask] * np.conj(disc.dt[qmask])
                self.B1[arc, key] = (m_arc * wdt[None, :]) @ k1m[qmask, :]
                self.B2[arc, key] = (m_arc * wdtc[None, :]) @ k2m[qmask, :]
                self.Q[arc, key] = m_arc @ wdt


def assemble(
    setup,
    n,
    rule=None,
    delta=None,
    taper_exponent=DEFAULT_TAPER,
    tip_weight=TIP_ROW_WEIGHT,
    basis=None,
    points=None,
):
    """Assemble the real collocation system for the given problem and order.

    The system is solved by weighted least squares (weights are stored on
    the system and reported residuals are unweighted).  ``delta`` overrides
    the default tip inset of DEFAULT_INSET_FRACTION times the shorter arc;
    the quadrature grades its tip panels down to delta/2.
    ``taper_exponent`` sets the taper of the equation rows toward the tips.
    ``basis`` replaces the scaled monomials (see _MonomialBasis) and
    ``points``, a (crack, bonded) pair of arrays, the inset equispaced
    collocation points.  ``tip_weight`` weighs the tip-anchored rows (slope
    continuity, constant-term ties).
    """
    ((system, _),) = _assemble_cases(
        [setup], n, rule, delta, taper_exponent, tip_weight, basis, points
    )
    system.rhs = system.rhs[:, 0]
    return system


def _assemble_cases(
    setups,
    n,
    rule=None,
    delta=None,
    taper_exponent=DEFAULT_TAPER,
    tip_weight=TIP_ROW_WEIGHT,
    basis=None,
    points=None,
):
    """Systems of setups on one contour: [(LinearSystem, case indices)], one
    per group of setups with equal materials and surface tension, each with
    one right-hand-side column per case of the group (``rhs`` [rows, cases]).

    The adaptive quadrature runs level by level: each level builds the
    operator tables once for all groups still drifting, and a group's drift
    is the largest over its matrix and all of its columns.  The keywords are
    those of ``assemble``.
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
    if delta is None:
        delta = DEFAULT_INSET_FRACTION * min(contour.l0, contour.l - contour.l0)
    if basis is None:
        basis = _MonomialBasis(contour.l0, contour.l, n)
    if points is None:
        m_pts = int(round(OVERSAMPLE * (n + 1)))
        points = collocation_points(contour.l0, contour.l, m_pts - 1, delta)
    pts = np.concatenate(points)
    arc_of_pt = np.concatenate(
        [np.zeros(points[0].size, dtype=int), np.ones(points[1].size, dtype=int)]
    )

    by_key = {}
    for i, setup in enumerate(setups):
        by_key.setdefault((setup.matrix, setup.inclusion, setup.surface), []).append(i)
    groups = list(by_key.values())
    built = [None] * len(groups)  # (matrix, rhs, tags, weights, meta) per group
    rows_s = [0.0] * len(groups)
    tables_s, table_builds, row_assemblies = 0.0, 0, 0
    pending = list(range(len(groups)))
    for level in range(1 + MAX_ADAPTIVE_ROUNDS if rule.adaptive else 1):
        if level:
            rule = rule.refined()
        t0 = time.perf_counter()
        disc = rule.discretize(contour, 0.5 * delta)
        tab = _Tables(contour, pts, arc_of_pt, disc, basis)
        tables_s += time.perf_counter() - t0
        table_builds += 1
        for g in pending:
            t0 = time.perf_counter()
            mat, rhs, tags, wts = _assemble_rows(
                [setups[i] for i in groups[g]], basis, tab, points, taper_exponent, tip_weight
            )
            meta = {
                "quadrature_nodes": int(disc.n_nodes),
                "nodes_per_panel": rule.nodes_per_panel,
                "panels_per_arc": rule.panels_per_arc,
                "tip_panel": 0.5 * delta,
            }
            if level:
                meta["quadrature_drift"] = _drift(built[g][0], built[g][1], mat, rhs)
                meta["quadrature_stabilized"] = meta["quadrature_drift"] < MATRIX_STABILITY_TOL
            built[g] = (mat, rhs, tags, wts, meta)
            rows_s[g] += time.perf_counter() - t0
            row_assemblies += 1
        del tab, disc
        if level:
            pending = [g for g in pending if not built[g][4]["quadrature_stabilized"]]
            if not pending:
                break

    layout = _Layout(n, basis)
    systems = []
    for g, cases in enumerate(groups):
        mat, rhs, tags, wts, meta = built[g]
        setup = setups[cases[0]]
        if meta.get("quadrature_stabilized") is False:
            log.warning(
                "adaptive quadrature did not stabilize at order %d (cases %s): "
                "drift %.3e after %d refinements, tolerance %.0e",
                n, cases, meta["quadrature_drift"], MAX_ADAPTIVE_ROUNDS, MATRIX_STABILITY_TOL,
            )
        if setup.is_degenerate_pair:
            log.warning(
                "degenerate material pair mu0*kappa*(kappa0+1) = mu*kappa0*(kappa+1) "
                "(cases %s); the solve proceeds and reports its condition", cases,
            )
        t0 = time.perf_counter()
        elim, free, linked, sources, lam = _elimination(setup, layout)
        matrix = np.take(mat, free, axis=1)  # C order, like mat (mat[:, free] is not)
        matrix[:, sources] += lam * np.take(mat, linked, axis=1)
        rows_s[g] += time.perf_counter() - t0
        meta.update(
            {
                "order": n,
                "delta": delta,
                "points_per_arc": int(points[0].size),
                "taper_exponent": taper_exponent,
                "full_coefficients": layout.total,
                "degenerate_pair": setup.is_degenerate_pair,
                # Work shared with other cases: the tables with all cases of
                # the call, the rows and the factorization with the loads of
                # the group.
                "timings": {"tables_s": tables_s, "rows_s": rows_s[g]},
                "batch": {
                    "cases": len(setups),
                    "loads": len(cases),
                    "table_builds": table_builds,
                    "row_assemblies": row_assemblies,
                    "factorizations": len(groups),
                },
            }
        )
        system = LinearSystem(
            matrix=matrix,
            rhs=rhs,
            row_tags=tags,
            row_weights=wts,
            elimination=elim,
            n=n,
            l0=contour.l0,
            l=contour.l,
            meta=meta,
            basis=basis,
        )
        systems.append((system, cases))
    return systems


def _drift(mat, rhs, mat2, rhs2):
    """Largest change from (mat, rhs) to the finer (mat2, rhs2), relative to
    the matrix scale and to each right-hand-side column's own scale."""
    scale = max(float(np.max(np.abs(mat2))), 1e-300)
    rscale = np.maximum(np.max(np.abs(rhs2), axis=0), scale * 1e-6)
    return max(
        float(np.max(np.abs(mat2 - mat))) / scale,
        float(np.max(np.max(np.abs(rhs2 - rhs), axis=0) / rscale)),
    )


def tension_coefficients(setup):
    """Coefficients gamma (kappa + 1) / (4 mu) of the surface-tension
    conditions: crack face seen from the inclusion, crack face seen from the
    matrix, bonded line."""
    mu, kap = setup.matrix.shear_modulus, setup.matrix.kappa
    mu0, kap0 = setup.inclusion.shear_modulus, setup.inclusion.kappa
    return (
        setup.surface.gamma_plus * (kap0 + 1.0) / (4.0 * mu0),
        setup.surface.gamma_minus * (kap + 1.0) / (4.0 * mu),
        setup.surface.gamma_interface * (kap0 + 1.0) / (4.0 * mu0),
    )


def _elimination(setup, layout):
    """Full-vector reconstruction map: bonded-arc g' coefficients of degree
    >= 1 follow the bonded-arc g0' coefficients with factor
    lam = -mu*(kappa0+1) / (mu0*(kappa+1)).

    Returns (map, free, linked, sources, lam): the map [full, free] and the
    parts that apply it to a matrix's columns, mat[:, free] plus lam times
    mat[:, linked] added to the free columns at ``sources``."""
    mu, kap = setup.matrix.shear_modulus, setup.matrix.kappa
    mu0, kap0 = setup.inclusion.shear_modulus, setup.inclusion.kappa
    lam = -mu * (kap0 + 1.0) / (mu0 * (kap + 1.0))
    links = {}
    a_src, a_dst = layout.a_cols(5), layout.a_cols(7)
    b_src, b_dst = layout.b_cols(5), layout.b_cols(7)
    for kk in range(1, a_dst.size):
        links[int(a_dst[kk])] = int(a_src[kk])
    for kk in range(1, b_dst.size):
        links[int(b_dst[kk])] = int(b_src[kk])
    free = [c for c in range(layout.total) if c not in links]
    pos = {c: i for i, c in enumerate(free)}
    elim = np.zeros((layout.total, len(free)))
    for c in free:
        elim[c, pos[c]] = 1.0
    for dst, src in links.items():
        elim[dst, pos[src]] = lam
    linked = list(links)
    return elim, free, linked, [pos[links[c]] for c in linked], lam


def _assemble_rows(setups, basis, tab, points, taper_exponent, tip_weight):
    """Rows on one level's tables for setups that share materials and surface
    tension: (matrix, rhs [rows, len(setups)], tags, weights).  The matrix
    comes from the first setup; each setup's load and crack-face tractions
    give its right-hand-side column."""
    setup = setups[0]
    contour = setup.contour
    layout = _Layout(basis.n, basis)
    crack_pts, bond_pts = points

    mu, kap = setup.matrix.shear_modulus, setup.matrix.kappa
    mu0, kap0 = setup.inclusion.shear_modulus, setup.inclusion.kappa

    n_pts = tab.pts.size
    n_cases = len(setups)
    rows, rhs, tags, wts = [], [], [], []

    def taper(sel_pts, lo, hi):
        d = np.minimum(sel_pts - lo, hi - sel_pts) / (hi - lo)
        return (4.0 * d * np.maximum(1.0 - d, 1e-12)) ** taper_exponent

    w_crack = taper(crack_pts, 0.0, contour.l0)
    w_bond = taper(bond_pts, contour.l0, contour.l)
    w_both = np.concatenate([w_crack, w_bond])

    def family(direct, a_fac, b1_fac, b2_fac, pieces):
        """Complex coefficient block [n_pts, full] of one density family."""
        z = np.zeros((n_pts, layout.total), dtype=complex)
        for p in pieces:
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
        return z

    def push_complex(z, rvec, tag, weight):
        for part, suffix in ((np.real, "_re"), (np.imag, "_im")):
            rows.append(part(z))
            rhs.append(part(rvec))
            tags.extend([f"{tag}{suffix}"] * z.shape[0])
            wts.append(np.broadcast_to(weight, (z.shape[0],)))

    # Zero extension of the inclusion outside the contour.
    z_inc = family(
        direct=-0.5j * (kap0 + 1.0),
        a_fac=(kap0 - 1.0) / (2.0 * np.pi),
        b1_fac=-1.0 / (2.0 * np.pi),
        b2_fac=-1.0 / (2.0 * np.pi),
        pieces=(1, 5),
    )
    z_inc += family(
        direct=0.0,
        a_fac=2.0 * kap0 / ((kap0 + 1.0) * 1j * np.pi),
        b1_fac=kap0 / ((kap0 + 1.0) * 1j * np.pi),
        b2_fac=1.0 / ((kap0 + 1.0) * 1j * np.pi),
        pieces=(0, 4),
    )
    push_complex(z_inc, np.zeros((n_pts, n_cases), dtype=complex), "inclusion_extension", w_both)

    # Zero extension of the matrix inside the contour, with the
    # single-valuedness integral and the remote-load terms.
    z_mat = family(
        direct=0.5j * (kap + 1.0),
        a_fac=(kap - 1.0) / (2.0 * np.pi),
        b1_fac=-1.0 / (2.0 * np.pi),
        b2_fac=-1.0 / (2.0 * np.pi),
        pieces=(3, 7),
    )
    z_mat += family(
        direct=0.0,
        a_fac=2.0 * kap / ((kap + 1.0) * 1j * np.pi),
        b1_fac=kap / ((kap + 1.0) * 1j * np.pi),
        b2_fac=1.0 / ((kap + 1.0) * 1j * np.pi),
        pieces=(2, 6),
    )
    inv_dt = 1.0 / tab.dt_p

    def moments(piece):
        """Integrals of the real- and imaginary-part functions over the arc."""
        (ka, kb), (key_a, key_b) = layout.lengths[piece], basis.part_keys(piece)
        return tab.Q[piece // 4, key_a][:ka], tab.Q[piece // 4, key_b][:kb]

    for piece, fac in ((1, (kap0 + 1.0) / mu0), (3, (kap + 1.0) / mu)):
        q_a, q_b = moments(piece)
        z_mat[:, layout.a_cols(piece)] += fac * np.outer(inv_dt, q_a)
        z_mat[:, layout.b_cols(piece)] += 1j * (fac * np.outer(inv_dt, q_b))
    load_term = np.stack(
        [
            (kap - 1.0) * s.load.gamma - np.conj(s.load.gamma_prime) * np.conj(tab.dt_p) / tab.dt_p
            for s in setups
        ],
        axis=1,
    )
    push_complex(z_mat, -load_term, "matrix_extension", w_both)

    # Surface-tension conditions on the crack faces and the traction-jump
    # condition on the bonded arc.
    crack_sel = np.arange(crack_pts.size)
    bond_sel = np.arange(crack_pts.size, n_pts)
    f1 = np.stack([s.tractions.f1(crack_pts) for s in setups], axis=1)
    f2 = np.stack([s.tractions.f2(crack_pts) for s in setups], axis=1)

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
        rows.append(row_re)
        rhs.append(rhs_re)
        tags.extend([f"{tag}_re"] * sel.size)
        wts.append(np.broadcast_to(weight, (sel.size,)))
        rows.append(row_im)
        rhs.append(rhs_im)
        tags.extend([f"{tag}_im"] * sel.size)
        wts.append(np.broadcast_to(weight, (sel.size,)))

    c_plus, c_minus, c_iface = tension_coefficients(setup)
    tension_rows(crack_sel, 0, c_plus, (0,), 1, 0.5 * np.real(f1), 0.5 * np.imag(f1), "crack_plus", w_crack)
    tension_rows(crack_sel, 0, c_minus, (2,), 3, -0.5 * np.real(f2), -0.5 * np.imag(f2), "crack_minus", w_crack)
    zero = np.zeros((bond_pts.size, n_cases))
    # With a vanishing interface tension the jump condition reads q0 + q = 0,
    # whose content is smooth (the tip logarithms cancel in the sum), so it
    # is enforced untapered and strongly; otherwise it carries the same
    # log-singular derivative terms as the crack rows and is tapered alike.
    if setup.surface.gamma_interface == 0.0:
        w_jump = BOND_WEIGHT
    else:
        w_jump = w_bond
    tension_rows(bond_sel, 1, c_iface, (4, 6), 5, zero, zero, "bond_jump", w_jump)

    # Constant-term tie of the bonded-arc slope proportionality (the higher
    # coefficients are eliminated exactly).
    for src, dst, tag in (
        (layout.a_cols(5)[0], layout.a_cols(7)[0], "bond_slope_tie_re"),
        (layout.b_cols(5)[0], layout.b_cols(7)[0], "bond_slope_tie_im"),
    ):
        row = np.zeros((1, layout.total))
        row[0, src] = (kap0 + 1.0) / mu0
        row[0, dst] = (kap + 1.0) / mu
        rows.append(row)
        rhs.append(np.zeros((1, n_cases)))
        tags.append(tag)
        wts.append(np.array([tip_weight]))

    # Total-force balance: int (q0 - q) d tau = 0 over the whole contour.
    zf = np.zeros((1, layout.total), dtype=complex)
    for piece, sign in ((0, 1.0), (4, 1.0), (2, -1.0), (6, -1.0)):
        q_a, q_b = moments(piece)
        zf[0, layout.a_cols(piece)] += sign * q_a
        zf[0, layout.b_cols(piece)] += 1j * sign * q_b
    push_complex(zf, np.zeros((1, n_cases), dtype=complex), "force_balance", FORCE_WEIGHT)

    # Single-valuedness of the displacements along the crack: the same
    # integral that is folded into the matrix-side equation must itself
    # vanish; enforcing it explicitly keeps the discrete solution from
    # exciting the gauge family the continuum argument removes.
    zsv = np.zeros((1, layout.total), dtype=complex)
    for piece, fac in ((1, (kap0 + 1.0) / mu0), (3, (kap + 1.0) / mu)):
        q_a, q_b = moments(piece)
        zsv[0, layout.a_cols(piece)] += fac * q_a
        zsv[0, layout.b_cols(piece)] += 1j * fac * q_b
    push_complex(zsv, np.zeros((1, n_cases), dtype=complex), "single_valuedness", CONSTRAINT_WEIGHT)

    # Continuity of Re g0' and Re g' across both tips: tip 0 joins the start
    # of the crack arc to the end of the bonded arc, tip 1 the other ends.
    for crack_piece, bond_piece, name in ((1, 5, "g0"), (3, 7, "g")):
        kc_, kb_ = layout.lengths[crack_piece][0], layout.lengths[bond_piece][0]
        crack_start, crack_end = basis.end_values(0, basis.part_keys(crack_piece)[0])
        bond_start, bond_end = basis.end_values(1, basis.part_keys(bond_piece)[0])
        for crack_val, bond_val, tag in (
            (crack_start[:kc_], bond_end[:kb_], f"{name}_slope_continuity_tip0"),
            (crack_end[:kc_], bond_start[:kb_], f"{name}_slope_continuity_tip1"),
        ):
            row = np.zeros((1, layout.total))
            row[0, layout.a_cols(crack_piece)] = crack_val
            row[0, layout.a_cols(bond_piece)] = -bond_val
            rows.append(row)
            rhs.append(np.zeros((1, n_cases)))
            tags.append(tag)
            wts.append(np.array([tip_weight]))

    mat = np.vstack(rows)
    vec = np.concatenate(rhs).astype(float)
    wvec = np.concatenate(wts).astype(float)
    return mat, vec, tags, wvec


def solve(system, rcond=1e-13, fail_residual=0.05):
    """Least-squares solve with column equilibration and rank reporting.

    Truncated directions below ``rcond`` are reported through the effective
    rank; the solve only fails when the matrix is rank deficient *and* the
    best fit misses the right-hand side by more than ``fail_residual``
    relative to the data scale (a deficient but consistent system still has a
    well-defined minimum-norm solution).
    """
    return _solve_columns(system, rcond, fail_residual)[0]


def _solve_columns(system, rcond=1e-13, fail_residual=0.05, cases=None):
    """``solve`` for every right-hand-side column of the system (``rhs``
    [rows] or [rows, columns]) with one factorization; returns one
    (DensitySet, ResidualReport) per column.  ``cases`` names the columns
    in a SingularSystemError."""
    t0 = time.perf_counter()
    rhs = system.rhs.reshape(system.rhs.shape[0], -1)
    w = system.row_weights
    mat, vec = system.matrix * w[:, None], rhs * w[:, None]
    col_scale = np.max(np.abs(mat), axis=0)
    col_scale[col_scale == 0.0] = 1.0
    scaled = mat / col_scale
    sol, _, rank, sing = np.linalg.lstsq(scaled, vec, rcond=rcond)
    sol = sol / col_scale[:, None]
    cond = float(sing[0] / sing[-1]) if sing.size and sing[-1] > 0 else np.inf
    lstsq_s = time.perf_counter() - t0
    if rank < scaled.shape[1]:
        log.warning(
            "collocation matrix rank %d < %d columns at order %d (condition %.3e)%s",
            rank, scaled.shape[1], system.n, cond, "" if cases is None else f" for cases {cases}",
        )

    out = []
    layout = _Layout(system.n, system.basis)
    for j in range(rhs.shape[1]):
        x, b = sol[:, j], rhs[:, j]
        # Residuals are reported for the unweighted rows.
        resid = system.matrix @ x - b
        data_scale = max(np.max(np.abs(b)), 1.0)
        resid_scale = float(np.max(np.abs(resid))) if resid.size else 0.0
        if rank < scaled.shape[1] and resid_scale > fail_residual * data_scale:
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

        dset = system.basis.densities(system.elimination @ x, layout, system.l0, system.l)
        meta = dict(system.meta)
        meta["timings"] = {**meta.get("timings", {}), "lstsq_s": lstsq_s}
        report = ResidualReport(
            rows=mat.shape[0],
            cols=mat.shape[1],
            rank=int(rank),
            condition=cond,
            max_residual=float(np.max(np.abs(resid))) if resid.size else 0.0,
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


def solve_problem(setup, n, rule=None, rcond=1e-13, **assemble_kwargs):
    """Assemble and solve in one step; returns (DensitySet, ResidualReport)."""
    system = assemble(setup, n, rule=rule, **assemble_kwargs)
    return solve(system, rcond=rcond)


def solve_cases(setups, n, rule=None, rcond=1e-13, **assemble_kwargs):
    """Solve several setups on one contour object; returns one
    (DensitySet, ResidualReport) per setup, in input order.

    The operator tables are built once per quadrature level for all cases,
    and the setups with equal materials and surface tension share one matrix
    and one least-squares factorization, with a right-hand-side column per
    load and crack-face tractions.  A one-case call gives what solve_problem
    gives, errors included.  Each report's meta carries ``batch`` (the counts of cases,
    loads sharing its factorization, table builds, row assemblies and
    factorizations) and ``timings`` (tables_s for all cases of the call,
    rows_s and lstsq_s for the loads of its group).  A failing case raises
    SingularSystemError naming its index (``case``) when there are several.
    """
    out = [None] * len(setups)
    for system, cases in _assemble_cases(setups, n, rule=rule, **assemble_kwargs):
        named = cases if len(setups) > 1 else None
        for i, result in zip(cases, _solve_columns(system, rcond, cases=named)):
            out[i] = result
    return out
