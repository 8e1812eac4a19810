"""Built-in scenario presets reproducing the reference parameter sets.

Each preset returns a RunConfig; the CLI's ``scenario`` command additionally
emits the scenario-specific data files (density convergence sweeps, stress
profiles per surface-tension value, deformed boundaries, opening sweeps).
The two presets that were originally compared against externally published
curves (fig4, fig5a) note in their metadata that those reference curves are
not regenerated here.
"""

from __future__ import annotations

import numpy as np

from .config import Numerics, RunConfig
from .geometry import CircleContour
from .model import CrackTractions, Material, ProblemSetup, RemoteLoad, SurfaceTension

__all__ = ["SCENARIOS", "scenario_config", "scenario_metadata"]


def _circle_setup(mu, nu, mu0, nu0, gammas, sigma1=1.0, sigma2=0.0, alpha=0.0,
                  crack=(0.0, np.pi), radius=1.0):
    return ProblemSetup(
        contour=CircleContour(radius, crack[0], crack[1]),
        matrix=Material(mu, nu),
        inclusion=Material(mu0, nu0),
        surface=SurfaceTension(*gammas),
        load=RemoteLoad(sigma1, sigma2, alpha),
        tractions=CrackTractions.zero(),
    )


def _fig1():
    return _circle_setup(40.0, 0.25, 60.0, 0.35, (0.1, 0.1, 0.1))


def _fig2():
    return _circle_setup(40.0, 0.25, 60.0, 0.35, (0.1, 0.1, 0.0))


def _fig4():
    return _circle_setup(40.0, 0.25, 40.0, 0.25, (0.01, 0.01, 0.05))


def _fig5():
    return _circle_setup(40.0, 0.25, 60.0, 0.35, (0.1, 0.1, 0.05))


def _fig5a():
    return _circle_setup(
        2.39, 0.35, 44.2, 0.22, (1e-4, 1e-4, 0.0),
        alpha=np.pi / 6, crack=(-np.pi / 6, np.pi / 6),
    )


# The cases of a preset: its base with each (param, values) pair of "grid"
# applied in turn, the first param varying slowest; its base alone without one.
SCENARIOS = {
    "fig1": {
        "setup": _fig1,
        "order": 24,
        "grid": (("order", (16, 24, 30)),),
        "description": "semicircular crack, dissimilar phases, horizontal tension; "
                       "density curves exported for several polynomial orders",
    },
    "fig2": {
        "setup": _fig2,
        "order": 24,
        "grid": (("gamma0", (0.1, 0.5, 1.0)),),
        "description": "normal and shear stresses on both arcs for three "
                       "crack-face surface-tension values",
    },
    "fig3": {
        "setup": _fig2,
        "order": 24,
        "grid": (("gamma0", (0.1, 0.5, 1.0)),),
        "description": "displacement-derivative components on both arcs for "
                       "three crack-face surface-tension values",
    },
    "fig4": {
        "setup": _fig4,
        "order": 24,
        "description": "identical phases with interface tension; "
                       "displacement derivatives on the right half of the crack",
        "note": "externally published comparison curves are not regenerated",
    },
    "fig5": {
        "setup": _fig5,
        "order": 24,
        "grid": (("alpha", (0.0, np.pi / 2)),),
        "displacement_scale": 2.0,
        "description": "deformed boundary for horizontal and vertical remote tension",
    },
    "fig5a": {
        "setup": _fig5a,
        "order": 30,
        "description": "glass inclusion in an epoxy matrix, 60-degree crack, "
                       "inclined tension; stresses on the bonded arc",
        "note": "externally published comparison curves are not regenerated",
    },
    "fig6": {
        "setup": _fig2,
        "order": 20,
        "grid": (("alpha", (0.0, np.pi / 4, np.pi / 2)), ("gamma0", (0.1, 0.5, 1.0))),
        "description": "maximal crack opening versus surface tension for "
                       "several load angles",
    },
}


def scenario_config(name, order=None):
    """RunConfig of a named scenario's base case."""
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    entry = SCENARIOS[name]
    return RunConfig(
        setup=entry["setup"](),
        numerics=Numerics(order=entry["order"] if order is None else order),
        output_dir=name,
    )


def scenario_metadata(name):
    entry = SCENARIOS[name]
    meta = {"scenario": name, "description": entry["description"], "order": entry["order"]}
    if "note" in entry:
        meta["note"] = entry["note"]
    return meta
