"""Problem data: materials, remote load, surface tension, crack tractions,
and the two phases they define.

Every convention that differs between the inclusion and the matrix (density
names, trace sign, face tension and tractions, far field, material factors)
is written once, in ``Phase``; ``ProblemSetup.phases`` and ``.phase(name)``
give the records that the solver, validation and post-processing loop over.

Numerical values are used exactly as given (shear moduli as GPa numbers,
stresses as MPa numbers, surface-tension parameters as bare numbers on a
unit-scale contour); no unit conversion is applied, matching the convention
of the reference scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import _require_finite

__all__ = [
    "Material",
    "SurfaceTension",
    "RemoteLoad",
    "CrackTractions",
    "Phase",
    "ProblemSetup",
    "kolosov",
    "far_field_constants",
    "m_coefficients",
    "m_coefficients_from_frame",
]

PLANE_STRESS = "plane-stress"
PLANE_STRAIN = "plane-strain"


def kolosov(nu, mode=PLANE_STRESS):
    """Kolosov constant: (3-nu)/(1+nu) in plane stress, 3-4*nu in plane strain."""
    if not -1.0 < nu < 0.5:
        raise ValueError(f"Poisson ratio must lie in (-1, 0.5), got {nu}")
    if mode == PLANE_STRESS:
        return (3.0 - nu) / (1.0 + nu)
    if mode == PLANE_STRAIN:
        return 3.0 - 4.0 * nu
    raise ValueError(f"unknown plane mode {mode!r}")


@dataclass(frozen=True)
class Material:
    """Isotropic elastic phase: shear modulus, Poisson ratio, plane mode."""

    shear_modulus: float
    poisson: float
    plane_mode: str = PLANE_STRESS

    def __post_init__(self):
        _require_finite(shear_modulus=self.shear_modulus, poisson=self.poisson)
        if self.shear_modulus <= 0.0:
            raise ValueError(f"shear modulus must be positive, got {self.shear_modulus}")
        kolosov(self.poisson, self.plane_mode)  # validates range and mode

    @property
    def kappa(self):
        return kolosov(self.poisson, self.plane_mode)


@dataclass(frozen=True)
class SurfaceTension:
    """Surface-tension parameters of the three dividing lines.

    gamma_plus acts on the crack face seen from the inclusion, gamma_minus on
    the face seen from the matrix, gamma_interface on the bonded line.  The
    crack-face parameters must be positive (they divide the reconstruction of
    the density slopes); the interface parameter may vanish.
    """

    gamma_plus: float
    gamma_minus: float
    gamma_interface: float

    def __post_init__(self):
        _require_finite(**vars(self))
        if self.gamma_plus <= 0.0 or self.gamma_minus <= 0.0:
            raise ValueError(
                "crack-face surface tensions must be positive, got "
                f"gamma_plus={self.gamma_plus}, gamma_minus={self.gamma_minus}"
            )
        if self.gamma_interface < 0.0:
            raise ValueError(
                f"interface surface tension must be nonnegative, got {self.gamma_interface}"
            )


def far_field_constants(sigma1, sigma2, alpha):
    """Far-field potential constants (Gamma, Gamma') of the remote load."""
    gamma = (sigma1 + sigma2) / 4.0
    gamma_prime = (sigma2 - sigma1) * np.exp(-2j * alpha) / 2.0
    return gamma, gamma_prime


@dataclass(frozen=True)
class RemoteLoad:
    """Principal stresses at infinity; sigma1 acts at angle alpha to the x-axis."""

    sigma1: float
    sigma2: float
    alpha: float = 0.0

    def __post_init__(self):
        _require_finite(**vars(self))

    @property
    def gamma(self):
        return far_field_constants(self.sigma1, self.sigma2, self.alpha)[0]

    @property
    def gamma_prime(self):
        return far_field_constants(self.sigma1, self.sigma2, self.alpha)[1]

    @property
    def magnitude(self):
        """Stress scale used for relative tolerances."""
        return max(abs(self.sigma1), abs(self.sigma2))


class CrackTractions:
    """Tractions applied to the crack faces, as vectorized callables of s.

    f1(s) acts on the face seen from the inclusion, f2(s) on the face seen
    from the matrix; both return complex sigma_n + i*tau_n values.
    ``constants`` holds (f1, f2) of the zero and the constant preset, and
    None for other callables.
    """

    def __init__(self, f1=None, f2=None):
        self._f1 = f1
        self._f2 = f2
        self.constants = (0j, 0j) if f1 is None and f2 is None else None

    @staticmethod
    def zero():
        return CrackTractions()

    @staticmethod
    def constant(f1=0.0, f2=0.0):
        c1, c2 = complex(f1), complex(f2)
        tractions = CrackTractions(
            f1=lambda s: np.full_like(np.asarray(s, dtype=float), c1, dtype=complex),
            f2=lambda s: np.full_like(np.asarray(s, dtype=float), c2, dtype=complex),
        )
        tractions.constants = c1, c2
        return tractions

    def f1(self, s):
        return self._values(self._f1, "f1", s)

    def f2(self, s):
        return self._values(self._f2, "f2", s)

    @staticmethod
    def _values(fn, name, s):
        if fn is None:
            return np.zeros_like(np.asarray(s, dtype=float), dtype=complex)
        out = np.asarray(fn(s), dtype=complex)
        if not np.all(np.isfinite(out)):
            raise ValueError(f"crack traction {name} produced non-finite values")
        return out


@dataclass(frozen=True)
class Phase:
    """One elastic phase and its Savruk-type densities ``q`` and ``g`` (q0
    and g0' inside, q and g' outside).

    On the contour the phase's traces are (sigma_n + i tau_n) = sign * 2 q
    and d(u1 + i u2)/dt = displacement_factor * g', with ``sign`` +1 in the
    inclusion (the '+' side) and -1 in the matrix (the '-' side).  ``gamma``
    and ``traction`` belong to the crack face seen from the phase, and
    ``far_field`` holds (Gamma, Gamma') at infinity, zero inside.
    """

    name: str
    mu: float
    kappa: float
    q: str
    g: str
    sign: float
    gamma: float
    traction: object
    far_field: tuple

    @property
    def side(self):
        return "plus" if self.sign > 0 else "minus"

    @property
    def slope_factor(self):
        """(kappa + 1) / mu, the weight of g' in the single-valuedness
        integral and the bonded-arc slope tie."""
        return (self.kappa + 1.0) / self.mu

    @property
    def displacement_factor(self):
        return self.sign * 1j * (self.kappa + 1.0) / (2.0 * self.mu)

    @property
    def tension_coefficient(self):
        """gamma (kappa + 1) / (4 mu) of the face's surface-tension condition."""
        return self.gamma * (self.kappa + 1.0) / (4.0 * self.mu)


@dataclass
class ProblemSetup:
    """Complete problem description: geometry, phases, surface tension, load."""

    contour: object
    matrix: Material
    inclusion: Material
    surface: SurfaceTension
    load: RemoteLoad
    tractions: CrackTractions = field(default_factory=CrackTractions.zero)

    @property
    def phases(self):
        """The (inclusion, matrix) Phase records."""
        inc, mat = self.inclusion, self.matrix
        return (
            Phase("inclusion", inc.shear_modulus, inc.kappa, "q0", "g0p", 1.0,
                  self.surface.gamma_plus, self.tractions.f1, (0.0, 0.0)),
            Phase("matrix", mat.shear_modulus, mat.kappa, "q", "gp", -1.0,
                  self.surface.gamma_minus, self.tractions.f2, (self.load.gamma, self.load.gamma_prime)),
        )

    def phase(self, name):
        """The Phase called ``name``, "inclusion" or "matrix"."""
        by_name = {phase.name: phase for phase in self.phases}
        if name not in by_name:
            raise ValueError(f"phase must be 'inclusion' or 'matrix', got {name!r}")
        return by_name[name]

    @property
    def is_degenerate_pair(self):
        """True when mu0*k*(k0+1) == mu*k0*(k+1), e.g. identical phases.

        The solve still proceeds; conditioning is reported alongside.
        """
        inc, mat = self.phases
        lhs, rhs = (a.mu * b.kappa * (a.kappa + 1.0) for a, b in ((inc, mat), (mat, inc)))
        return abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def m_coefficients_from_frame(dt, d2t, d3t, rho, rho_prime):
    """Linearized surface-tension coefficients from local contour data.

    dt, d2t, d3t are the first three arc-length derivatives of the position;
    rho, rho_prime the signed curvature and its arc-length derivative.  The
    four coefficients multiply the first and second s-derivatives of the
    displacement and its conjugate in the curvature-dependent boundary
    conditions; all of them vanish on straight segments.
    """
    m1 = (
        -np.conj(d3t)
        - 2j * np.conj(d2t) * rho
        - 3j * np.conj(dt) * rho_prime
        - 3.0 * np.conj(dt) * rho**2
    )
    m2 = d3t - 4j * d2t * rho - 3j * dt * rho_prime - 3.0 * dt * rho**2
    m3 = -4j * np.conj(dt) * rho
    m4 = -2j * dt * rho
    return m1, m2, m3, m4


def m_coefficients(contour, s):
    """Surface-tension boundary-condition coefficients m1..m4 at arc length s."""
    return m_coefficients_from_frame(
        contour.tangent(s),
        contour.second_derivative(s),
        contour.third_derivative(s),
        contour.curvature(s),
        contour.curvature_derivative(s),
    )
