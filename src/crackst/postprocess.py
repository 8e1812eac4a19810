"""Physical boundary fields, displacements, crack opening and full-field
potentials derived from a solved density set.

The zero-extension construction makes the one-sided traces algebraic in the
densities: on either arc

    (sigma_n + i tau_n) from the inclusion side = 2 q0
    (sigma_n + i tau_n) from the matrix side    = -2 q
    d(u1+iu2)/dt from the inclusion side        =  i (kappa0+1)/(2 mu0) g0'
    d(u1+iu2)/dt from the matrix side           = -i (kappa +1)/(2 mu ) g'

Because |t'| = 1, the tangential/normal split of the arc-length displacement
derivative, conj(t') * d(u1+iu2)/ds, equals d(u1+iu2)/dt itself.  The signs
and factors of these traces, and the far field of ``potentials_at``, come
from the phases' records (model.Phase: ``sign``, ``displacement_factor``,
``far_field``); each field here is one loop or one call over
``setup.phases``.

The solver leaves a zone of width delta (its tip inset) at each side of each
tip unenforced, so there the polynomial densities extrapolate.  The tip
regularity is therefore measured on the field of tips.solve_tip_resolved,
which resolves the tips, and only where that field passes the ladder checks
(tip_ladder_checks).  That field is a DensitySet like the solver's, so every
function here takes either; the summary gives its central opening beside
the solver's.
"""

from __future__ import annotations

import numpy as np

from .kernels import FINE_RULE
from .solver import SingularSystemError
from .tips import face_tension_length, solve_tip_resolved
from .validation import original_bc_residual, trace_consistency, write_json

__all__ = [
    "NearBoundaryError",
    "boundary_fields",
    "crack_face_fields",
    "interface_fields",
    "displacements",
    "deformed_boundary",
    "max_crack_opening",
    "max_crack_aperture",
    "opening_profile",
    "tip_exponents",
    "tip_fits",
    "tip_ladder",
    "tip_ladder_checks",
    "potentials_at",
    "write_csv",
    "write_summary_json",
]

# Full-field evaluation closer to the contour than this fraction of l is
# refused; use the boundary traces instead.
NEAR_BOUNDARY_FACTOR = 0.02
# Default window (fractions of l0) for the crack-opening maximum.  The
# derivative-jump curves are trustworthy over the central part of the crack;
# the outer portions sit in the tip zones where the polynomial densities
# extrapolate the unresolved surface-tension layers.
OPENING_WINDOW = (0.25, 0.75)
# Tip distances c * 2^-k of the regularity fits, in units of the face
# surface-tension length c (face_tension_length): the ladder lies inside the
# layer where the surface tension regularizes the tip fields.
TIP_LADDER = range(1, 9)


class NearBoundaryError(ValueError):
    """Raised when a full-field point is too close to the contour."""


def boundary_fields(dset, setup, s):
    """The boundary tractions and displacement derivatives on both sides of
    the contour at the arc lengths s, and the density traces: the columns of
    boundary_fields.csv by name, in its order."""
    s = np.asarray(s, dtype=float)
    inclusion, matrix = setup.phases
    q0, q = dset.eval(inclusion.q, s), dset.eval(matrix.q, s)
    g0, g = dset.eval(inclusion.g, s), dset.eval(matrix.g, s)
    stress0, stress = inclusion.sign * 2.0 * q0, matrix.sign * 2.0 * q
    dudt0, dudt = inclusion.displacement_factor * g0, matrix.displacement_factor * g
    return {
        "s": s,
        "arc": np.where(s <= dset.l0, 0, 1),
        "sigma_n_plus_0": stress0.real,
        "tau_n_plus_0": stress0.imag,
        "sigma_n_minus": stress.real,
        "tau_n_minus": stress.imag,
        "ut_prime_plus_0": dudt0.real,
        "un_prime_plus_0": dudt0.imag,
        "ut_prime_minus": dudt.real,
        "un_prime_minus": dudt.imag,
        "re_q0": q0.real,
        "im_q0": q0.imag,
        "re_q": q.real,
        "im_q": q.imag,
        "re_g0_prime": g0.real,
        "im_g0_prime": g0.imag,
        "re_g_prime": g.real,
        "im_g_prime": g.imag,
    }


def _arc_samples(lo, hi, n_samples, edge=1e-3):
    pad = edge * (hi - lo)
    return np.linspace(lo + pad, hi - pad, n_samples)


def crack_face_fields(dset, setup, n_samples=400):
    """Boundary fields sampled along the crack arc."""
    return boundary_fields(dset, setup, _arc_samples(0.0, dset.l0, n_samples))


def interface_fields(dset, setup, n_samples=400):
    """Boundary fields sampled along the bonded arc."""
    return boundary_fields(dset, setup, _arc_samples(dset.l0, dset.l, n_samples))


def _dudt(dset, phase, s):
    """d(u1+iu2)/dt from the side of a Phase."""
    return phase.displacement_factor * dset.eval(phase.g, s)


def _opening_dudt(dset, setup, s):
    """Jump of d(u1+iu2)/dt across the contour, inclusion side minus matrix side."""
    inclusion, matrix = setup.phases
    return _dudt(dset, inclusion, s) - _dudt(dset, matrix, s)


def _cumulative_trapezoid(s, f):
    """Cumulative trapezoid integral of f over the samples s, zero at s[0]."""
    steps = np.diff(s) * 0.5 * (f[1:] + f[:-1])
    return np.concatenate([[0.0], np.cumsum(steps)])


def displacements(dset, setup, n_samples=2001):
    """Boundary displacements by cumulative integration of the derivative
    traces.

    The inclusion-side displacement is anchored to zero at the crack
    midpoint; the matrix side is fixed by displacement continuity across the
    bonded arc at its midpoint.  Rigid translation is otherwise undetermined
    by the derivative-only formulation.  Returns (s, u_inclusion, u_matrix).
    """
    inclusion, matrix = setup.phases
    s = np.linspace(0.0, dset.l, n_samples)
    tangent = setup.contour.tangent(s)

    def cumulative(phase, anchor_s, anchor_value):
        # integrate from s[0], then shift so u(anchor_s) = anchor_value
        u = _cumulative_trapezoid(s, _dudt(dset, phase, s) * tangent)
        return u - np.interp(anchor_s, s, u.real) - 1j * np.interp(anchor_s, s, u.imag) + anchor_value

    u_inc = cumulative(inclusion, 0.5 * dset.l0, 0.0)
    anchor_bond = 0.5 * (dset.l0 + dset.l)
    u_inc_at_bond = np.interp(anchor_bond, s, u_inc.real) + 1j * np.interp(anchor_bond, s, u_inc.imag)
    u_mat = cumulative(matrix, anchor_bond, u_inc_at_bond)
    return s, u_inc, u_mat


def deformed_boundary(dset, setup, scale=1.0, n_samples=2001):
    """Undeformed and displaced boundary curves for both phases.

    Returns a dict of columns matching the CSV schema; displacements are
    magnified by ``scale``.
    """
    s, u_inc, u_mat = displacements(dset, setup, n_samples)
    z = setup.contour.point(s)
    z_inc = z + scale * u_inc
    z_mat = z + scale * u_mat
    return {
        "s": s,
        "x_undeformed": z.real,
        "y_undeformed": z.imag,
        "x_deformed_inclusion": z_inc.real,
        "y_deformed_inclusion": z_inc.imag,
        "x_deformed_matrix": z_mat.real,
        "y_deformed_matrix": z_mat.imag,
    }


def opening_profile(dset, setup, n_samples=2001, window=(0.0, 1.0)):
    """|jump of d(u1+iu2)/dt| across the crack faces over a window (lo, hi)
    of L0, with 0 <= lo < hi <= 1 (a ValueError otherwise)."""
    lo, hi = window
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"opening window {window!r} is not 0 <= lo < hi <= 1")
    s = np.linspace(max(lo, 1e-4) * dset.l0, min(hi, 1.0 - 1e-4) * dset.l0, n_samples)
    return s, np.abs(_opening_dudt(dset, setup, s))


def max_crack_opening(dset, setup, window=OPENING_WINDOW, n_samples=2001):
    """Maximum displacement-derivative jump across the crack faces.

    The default window restricts the dense sample to the central half of the
    crack, where the curves are resolution-independent; the near-tip
    portions reflect polynomial extrapolation of the unresolved
    surface-tension layers and are not a stable basis for comparisons.  Pass
    window=(0, 1) for the full-arc value.
    """
    _, vals = opening_profile(dset, setup, n_samples, window)
    return float(np.max(vals))


def max_crack_aperture(dset, setup, n_samples=2001):
    """Maximum magnitude of the displacement jump (integrated opening).

    This aperture measure is an additional output; the primary crack-opening
    number is the derivative-jump maximum of max_crack_opening.
    """
    s = np.linspace(0.0, dset.l0, n_samples)
    jump = _cumulative_trapezoid(s, _opening_dudt(dset, setup, s) * setup.contour.tangent(s))
    return float(np.max(np.abs(jump)))


def tip_ladder(setup):
    """Tip distances c * 2^-k, k in TIP_LADDER, of the regularity fits."""
    return face_tension_length(setup) * 2.0 ** -np.array(list(TIP_LADDER), dtype=float)


def _ladder_points(dset, setup, tip):
    """Distances tip_ladder(setup) from tip 0 or 1 and their arc lengths."""
    if tip not in (0, 1):
        raise ValueError(f"tip must be 0 or 1, got {tip!r}")
    d = tip_ladder(setup)
    return d, (d if tip == 0 else dset.l0 - d)


def tip_ladder_checks(dset, setup, tip=0):
    """original_bc_residual and trace_consistency of a field at the ladder
    points of one tip, with their standing tolerances taken on the load
    scale rather than on the field's own stress near the tip."""
    _, s = _ladder_points(dset, setup, tip)
    scale = max(setup.load.magnitude, 1e-12)
    return [
        original_bc_residual(dset, setup, s_samples=s, scale=scale),
        trace_consistency(dset, setup, s_samples=s, scale=scale),
    ]


def _log_fit(x, y):
    coeff = np.polynomial.polynomial.polyfit(x, y, 1)
    resid = y - np.polynomial.polynomial.polyval(x, coeff)
    return coeff, resid


_FIT_KEYS = (
    "sigma_power_exponent",
    "tau_power_exponent",
    "tau_log_coefficient",
    "tau_log_fit_relative_residual",
)


def tip_exponents(dset, setup, tip=0):
    """Power-law and logarithmic fits of the crack-face stresses near a tip.

    Samples |sigma_n| and tau_n from the inclusion side of ``dset`` at the
    distances tip_ladder(setup), c * 2^-k (k = 1..8) with c the face
    surface-tension length, from the chosen tip (0 or 1).  The fits describe
    the tip only for a field that solves the equations there: pass the field
    of tips.solve_tip_resolved and check it with tip_ladder_checks (a
    DensitySet from solve_problem extrapolates its polynomials into the tip
    inset).  Returns a dict with the fitted power-law exponents (positive =
    growth toward the tip) and the relative residual of the a + b*log(d) fit
    of the shear stress; the four are None when no sample of |sigma_n| or
    |tau_n| exceeds the floor, since a vanishing field has no tip behaviour.
    """
    d, s = _ladder_points(dset, setup, tip)
    stress = 2.0 * dset.eval("q0", s)
    sigma = np.abs(np.real(stress))
    tau = np.imag(stress)

    floor = 1e-14 * max(setup.load.magnitude, 1.0)
    if max(np.max(sigma), np.max(np.abs(tau))) <= floor:
        return {"tip": tip, **dict.fromkeys(_FIT_KEYS)}
    (_, slope_sigma), _ = _log_fit(np.log(d), np.log(np.maximum(sigma, floor)))
    (_, slope_tau), _ = _log_fit(np.log(d), np.log(np.maximum(np.abs(tau), floor)))
    (_, b_log), resid = _log_fit(np.log(d), tau)
    tau_scale = max(float(np.sqrt(np.mean(tau**2))), floor)
    return {
        "tip": tip,
        "sigma_power_exponent": float(-slope_sigma),
        "tau_power_exponent": float(-slope_tau),
        "tau_log_coefficient": float(b_log),
        "tau_log_fit_relative_residual": float(np.sqrt(np.mean(resid**2)) / tau_scale),
    }


def potentials_at(dset, setup, z, region):
    """Complex potentials at a point strictly inside (inclusion) or outside
    (matrix) the contour, by quadrature of the density representation.

    Points within NEAR_BOUNDARY_FACTOR * l of the contour are refused; use
    the boundary traces instead.
    """
    phase = setup.phase(region)
    contour = setup.contour
    disc = FINE_RULE.discretize(contour)
    z = complex(z)
    dist = np.min(np.abs(disc.tau - z))
    if dist < NEAR_BOUNDARY_FACTOR * contour.l:
        raise NearBoundaryError(
            f"point {z} is within {NEAR_BOUNDARY_FACTOR:g}*l of the contour; "
            "full-field quadrature is not trusted there"
        )
    winding = np.sum(disc.w * disc.dt / (disc.tau - z)) / (2j * np.pi)
    inside = abs(winding - 1.0) < 0.5
    if inside != (phase.name == "inclusion"):
        where = "inside" if inside else "outside"
        raise ValueError(f"point lies {where} the contour but region={region!r}")

    kappa = phase.kappa
    phi_const, psi_const = phase.far_field
    g = dset.eval(phase.g, disc.s)
    q = dset.eval(phase.q, disc.s)
    dtau = disc.w * disc.dt
    inv = 1.0 / (disc.tau - z)
    inv2 = inv * inv
    c_kap = 1.0 / ((kappa + 1.0) * 1j * np.pi)
    phi = phi_const + np.sum(g * dtau * inv) / (2.0 * np.pi) + c_kap * np.sum(q * dtau * inv)
    psi = (
        psi_const
        + np.sum((np.conj(g * dtau) * inv - np.conj(disc.tau) * g * dtau * inv2)) / (2.0 * np.pi)
        + c_kap * np.sum(kappa * np.conj(q * dtau) * inv - np.conj(disc.tau) * q * dtau * inv2)
    )
    return phi, psi


def write_csv(path, columns):
    """The CSV of a dict of columns by name, in its order: a header and one
    row per sample, integer columns as %d, string columns as %s (unquoted)
    and the others as %.12e, with CRLF line ends as csv.writer writes them."""
    names, columns = list(columns), [np.asarray(c) for c in columns.values()]
    formats = {"i": "%d", "u": "%d", "U": "%s"}
    row = ",".join(formats.get(c.dtype.kind, "%.12e") for c in columns) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\r\n")
        fh.writelines(row % values for values in zip(*(c.tolist() for c in columns)))


def tip_fits(setup, n):
    """Tip fits of the tip-resolved solve at order n, one dict per tip, and
    the tip-resolved DensitySet they fit (None when its solve fails).

    Each dict holds tip_exponents' keys and the ladder checks of that tip;
    the fit values are None when a check fails, since the fits then describe
    no solution of the equations, and when the tip-resolved solve itself
    fails (its message is then under "error")."""
    try:
        resolved, _ = solve_tip_resolved(setup, n)
    except SingularSystemError as exc:
        fits = [dict(tip=tip, **dict.fromkeys(_FIT_KEYS), ladder_checks=[], error=str(exc))
                for tip in (0, 1)]
        return fits, None
    out = []
    for tip in (0, 1):
        fits = tip_exponents(resolved, setup, tip=tip)
        checks = tip_ladder_checks(resolved, setup, tip=tip)
        if not all(c.passed for c in checks):
            fits.update(dict.fromkeys(_FIT_KEYS))
        fits["ladder_checks"] = [c.to_dict() for c in checks]
        out.append(fits)
    return out, resolved


def write_summary_json(path, dset, setup, report, extra=None, with_tip_fits=True):
    """Machine-readable run summary: opening measures, tip fits, residuals.

    The tip fits (see tip_fits) take a second, tip-resolved solve; with
    ``with_tip_fits=False`` they are skipped and written as null.  The
    opening of that solve's field, over the window of max_crack_opening, is
    written as tip_resolved_max_crack_opening, and its relative change from
    the solver's as tip_resolved_opening_relative_change; both are null
    without the tip fits or when the tip-resolved solve fails, and the change
    is null when the solver's opening is 0.  Returns the summary dict it
    wrote."""
    fits, resolved = tip_fits(setup, dset.n) if with_tip_fits else (None, None)
    opening = max_crack_opening(dset, setup)
    resolved_opening = None if resolved is None else max_crack_opening(resolved, setup)
    summary = {
        "order": dset.n,
        "l0": dset.l0,
        "l": dset.l,
        "max_crack_opening": opening,
        "max_crack_opening_window": list(OPENING_WINDOW),
        "max_crack_opening_full_arc": max_crack_opening(dset, setup, window=(0.0, 1.0)),
        "max_crack_aperture": max_crack_aperture(dset, setup),
        "tip_fits": fits,
        "tip_resolved_max_crack_opening": resolved_opening,
        "tip_resolved_opening_relative_change": (
            None if resolved is None or opening == 0.0 else resolved_opening / opening - 1.0
        ),
        "residual_report": report.to_dict() if report is not None else None,
    }
    if extra:
        summary.update(extra)
    write_json(path, summary)
    return summary
