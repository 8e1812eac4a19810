"""Whole-matrix reference form of the solver's assembly, kept to pin the
streamed assembly bit for bit.

Every level's tables are kept, the drift compares the tables of two levels
flattened into one vector, the final level's row blocks of
``_assemble_rows`` are stacked with ``vstack``, the elimination takes and
adds whole columns and multiplies the whole matrix by the constraint map,
and the densities come from a dense map of the bonded-arc ties.
The k1/k2 kernel tables are built over all nodes and sliced per arc.  The
arithmetic of every entry is the library's.
"""

import numpy as np

from crackst import solver
from crackst.kernels import DIAG_EPS_FACTOR, _regular_kernels


def drift(coarse, fine):
    """Largest change of the quadrature-dependent tables (A, B1, B2, Q) from
    the coarser level to the finer one, all tables flattened into one
    vector, relative to the largest entry of the finer level's."""
    def flat(tab):
        return np.concatenate([table[key].ravel() for table in (tab.A, tab.B1, tab.B2, tab.Q)
                               for key in table])
    old, new = flat(coarse), flat(fine)
    return float(np.max(np.abs(new - old))) / max(float(np.max(np.abs(new))), 1e-300)


def stacked_rows(setups, basis, tab):
    """(matrix, rhs, tags, weights) of one level, every block stacked."""
    blocks = list(solver._assemble_rows(setups, basis, tab))
    mat = np.vstack([b[0] for b in blocks])
    rhs = np.concatenate([b[1] for b in blocks]).astype(float)
    tags = [tag for b in blocks for tag in b[2]]
    weights = np.concatenate([b[3] for b in blocks]).astype(float)
    return mat, rhs, tags, weights


def regular_tables(contour, pts, arc_of_pt, disc, basis):
    """(B1, B2) keyed by (arc, family) as ``solver._Tables`` holds them, from
    k1/k2 tables built once over all nodes and sliced to each arc's rows."""
    t_p, dt_p = contour.point(pts), contour.tangent(pts)
    k1m, k2m = _regular_kernels(
        contour, pts, t_p, dt_p, disc.s[:, None], disc.tau[:, None], DIAG_EPS_FACTOR * contour.l,
    )
    b1, b2 = {}, {}
    for arc in (0, 1):
        qmask = disc.arc == arc
        wdt = disc.w[qmask] * disc.dt[qmask]
        wdtc = disc.w[qmask] * np.conj(disc.dt[qmask])
        for key in basis.keys(arc):
            m_arc = basis.functions(arc, key, disc.s[qmask]).T
            b1[arc, key] = (m_arc * wdt[None, :]) @ k1m[qmask, :]
            b2[arc, key] = (m_arc * wdtc[None, :]) @ k2m[qmask, :]
    return b1, b2


def tie_map(elimination):
    """The dense [full, free] map of the bonded-arc ties of a
    ``solver._Elimination``."""
    e = elimination
    ties = np.zeros((e.layout.total, e.free.size))
    ties[e.free, np.arange(e.free.size)] = 1.0
    ties[e.linked, e.sources] = e.lam
    return ties


def assemble_cases(setups, n, rule=None, basis=None):
    """One dict per group of ``solver._assemble_cases``: the eliminated
    matrix, rhs, tags, weights, the drift of every refinement of the call
    (``drifts``, the same for every group),
    the group's elimination and the basis and layout."""
    contour = setups[0].contour
    rule = solver.QuadratureRule() if rule is None else rule
    if basis is None:
        basis = solver._LegendreBasis(contour.l0, contour.l, n)
    points = basis.collocation_points()
    pts = np.concatenate(points)
    arc_of_pt = np.repeat([0, 1], [points[0].size, points[1].size])
    layout = solver._Layout(n, basis)

    level_rule, tables, drifts = rule, [], []
    for level in range(1 + solver.MAX_ADAPTIVE_ROUNDS if rule.adaptive else 1):
        if level:
            level_rule = level_rule.refined()
        disc = level_rule.discretize(contour, 0.5 * basis.delta)
        tables.append(solver._Tables(contour, pts, arc_of_pt, disc, basis))
        if level:
            drifts.append(drift(*tables[-2:]))
            if drifts[-1] < solver.MATRIX_STABILITY_TOL:
                break

    by_key = {}
    for i, setup in enumerate(setups):
        by_key.setdefault((setup.matrix, setup.inclusion, setup.surface), []).append(i)
    out = []
    for cases in by_key.values():
        group = [setups[i] for i in cases]
        mat, rhs, tags, weights = stacked_rows(group, basis, tables[-1])
        e = elimination = solver._Elimination(
            group[0], layout, solver._constraint_rows(group[0], basis, tables[-1], layout)
        )
        tied = np.take(mat, e.free, axis=1)
        tied[:, e.sources] += e.lam * np.take(mat, e.linked, axis=1)
        matrix = tied[:, e.keep] + np.einsum("ik,kj->ij", tied[:, e.dep], e.t)
        out.append(dict(matrix=matrix, rhs=rhs, tags=tags, weights=weights, drifts=drifts,
                        elimination=elimination, basis=basis, layout=layout, cases=cases))
    return out


def densities(system, rcond=1e-13):
    """The densities of every rhs column of a reference system: the solver's
    equilibrated least-squares solve, the constrained columns t @ x of each
    column x (a product over several columns at once rounds otherwise),
    then the dense tie map."""
    rhs = system["rhs"].reshape(system["rhs"].shape[0], -1)
    w = system["weights"]
    mat, vec = system["matrix"] * w[:, None], rhs * w[:, None]
    col_scale = np.max(np.abs(mat), axis=0)
    col_scale[col_scale == 0.0] = 1.0
    sol = np.linalg.lstsq(np.divide(mat, col_scale, out=mat), vec, rcond=rcond)[0]
    sol /= col_scale[:, None]
    layout = system["layout"]
    e = system["elimination"]
    ties, out = tie_map(e), []
    for x in sol.T:
        x_free = np.zeros(e.free.size)
        x_free[e.keep], x_free[e.dep] = x, e.t @ x
        out.append(system["basis"].densities(ties @ x_free, layout))
    return out
