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
(tip_ladder_checks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import FINE_RULE
from .solver import SingularSystemError
from .tips import face_tension_length, solve_tip_resolved
from .validation import original_bc_residual, trace_consistency, write_json

__all__ = [
    "BoundaryField",
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
    "write_boundary_fields_csv",
    "write_deformed_boundary_csv",
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


@dataclass
class BoundaryField:
    """Per-arc-length samples of the boundary tractions and displacement
    derivatives on both sides of the contour, plus the raw density traces."""

    s: np.ndarray
    arc: np.ndarray
    sigma_n_plus0: np.ndarray
    tau_n_plus0: np.ndarray
    sigma_n_minus: np.ndarray
    tau_n_minus: np.ndarray
    ut_plus0: np.ndarray
    un_plus0: np.ndarray
    ut_minus: np.ndarray
    un_minus: np.ndarray
    q0: np.ndarray
    q: np.ndarray
    g0p: np.ndarray
    gp: np.ndarray


# Suffix of each phase's fields in BoundaryField.
_FIELD_SUFFIX = {"inclusion": "plus0", "matrix": "minus"}


def boundary_fields(dset, setup, s):
    """Evaluate all boundary fields at the given arc lengths."""
    s = np.asarray(s, dtype=float)
    fields = {}
    for phase in setup.phases:
        q, g = dset.eval(phase.q, s), dset.eval(phase.g, s)
        stress, dudt = phase.sign * 2.0 * q, phase.displacement_factor * g
        suffix = _FIELD_SUFFIX[phase.name]
        fields.update({
            phase.q: q,
            phase.g: g,
            f"sigma_n_{suffix}": np.real(stress),
            f"tau_n_{suffix}": np.imag(stress),
            f"ut_{suffix}": np.real(dudt),
            f"un_{suffix}": np.imag(dudt),
        })
    return BoundaryField(s=s, arc=np.where(s <= dset.l0, 0, 1), **fields)


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
    """|jump of d(u1+iu2)/dt| across the crack faces over a window of L0."""
    lo, hi = window
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
    of the shear stress.
    """
    d, s = _ladder_points(dset, setup, tip)
    stress = 2.0 * dset.eval("q0", s)
    sigma = np.abs(np.real(stress))
    tau = np.imag(stress)

    floor = 1e-14 * max(setup.load.magnitude, 1.0)
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


def potentials_at(dset, setup, z, region, rule=FINE_RULE):
    """Complex potentials at a point strictly inside (inclusion) or outside
    (matrix) the contour, by quadrature of the density representation.

    Points within NEAR_BOUNDARY_FACTOR * l of the contour are refused; use
    the boundary traces instead.
    """
    phase = setup.phase(region)
    contour = setup.contour
    disc = rule.discretize(contour)
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


_FIELD_COLUMNS = [
    "s",
    "arc",
    "sigma_n_plus_0",
    "tau_n_plus_0",
    "sigma_n_minus",
    "tau_n_minus",
    "ut_prime_plus_0",
    "un_prime_plus_0",
    "ut_prime_minus",
    "un_prime_minus",
    "re_q0",
    "im_q0",
    "re_q",
    "im_q",
    "re_g0_prime",
    "im_g0_prime",
    "re_g_prime",
    "im_g_prime",
]


def write_boundary_fields_csv(path, *fields):
    """One row per sample with all boundary fields and density traces, the
    samples of each field in turn."""
    def column(name):
        return np.concatenate([getattr(field, name) for field in fields])

    traces = ("sigma_n_plus0", "tau_n_plus0", "sigma_n_minus", "tau_n_minus",
              "ut_plus0", "un_plus0", "ut_minus", "un_minus")
    cols = [column("s"), column("arc"), *(column(name) for name in traces)]
    cols += [part(column(name)) for name in ("q0", "q", "g0p", "gp") for part in (np.real, np.imag)]
    write_csv(path, _FIELD_COLUMNS, cols)


def write_deformed_boundary_csv(path, columns):
    names = [
        "s",
        "x_undeformed",
        "y_undeformed",
        "x_deformed_inclusion",
        "y_deformed_inclusion",
        "x_deformed_matrix",
        "y_deformed_matrix",
    ]
    write_csv(path, names, [columns[name] for name in names])


def write_csv(path, names, columns):
    """A header and one row per sample, integer columns as %d and the others
    as %.12e, with CRLF line ends as csv.writer writes them."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.12e" for c in columns) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\r\n")
        fh.writelines(row % values for values in zip(*(c.tolist() for c in columns)))


def tip_fits(setup, n):
    """Tip fits of the tip-resolved solve at order n, one dict per tip.

    Each dict holds tip_exponents' keys and the ladder checks of that tip;
    the fit values are None when a check fails, since the fits then describe
    no solution of the equations, and when the tip-resolved solve itself
    fails (its message is then under "error")."""
    try:
        resolved, _ = solve_tip_resolved(setup, n)
    except SingularSystemError as exc:
        return [dict(tip=tip, **dict.fromkeys(_FIT_KEYS), ladder_checks=[], error=str(exc))
                for tip in (0, 1)]
    out = []
    for tip in (0, 1):
        fits = tip_exponents(resolved, setup, tip=tip)
        checks = tip_ladder_checks(resolved, setup, tip=tip)
        if not all(c.passed for c in checks):
            fits.update(dict.fromkeys(_FIT_KEYS))
        fits["ladder_checks"] = [c.to_dict() for c in checks]
        out.append(fits)
    return out


def write_summary_json(path, dset, setup, report, extra=None, with_tip_fits=True):
    """Machine-readable run summary: opening measures, tip fits, residuals.

    The tip fits (see tip_fits) take a second, tip-resolved solve; with
    ``with_tip_fits=False`` they are skipped and written as null.  Returns
    the summary dict it wrote."""
    summary = {
        "order": dset.n,
        "l0": dset.l0,
        "l": dset.l,
        "max_crack_opening": max_crack_opening(dset, setup),
        "max_crack_opening_window": list(OPENING_WINDOW),
        "max_crack_opening_full_arc": max_crack_opening(dset, setup, window=(0.0, 1.0)),
        "max_crack_aperture": max_crack_aperture(dset, setup),
        "tip_fits": tip_fits(setup, dset.n) if with_tip_fits else None,
        "residual_report": report.to_dict() if report is not None else None,
    }
    if extra:
        summary.update(extra)
    write_json(path, summary)
    return summary
