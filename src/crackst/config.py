"""Run-configuration files: flat INI-style sections with units in key names.

Stress-like inputs are plain numbers in the unit system of the scenario
definitions (shear moduli as GPa values, remote stresses as MPa values,
surface tension as the matching derived unit on a unit-scale contour); the
key names carry the units to keep silent mismatches out of user configs.
Unknown sections or keys are rejected.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import CircleContour, EllipseContour
from .model import CrackTractions, Material, ProblemSetup, RemoteLoad, SurfaceTension

__all__ = ["ConfigError", "Numerics", "RunConfig", "parse_config", "parse_config_text", "dump_config"]


class ConfigError(ValueError):
    """Malformed run configuration; the message names the offending key."""


@dataclass
class Numerics:
    """Discretization controls; defaults follow the solver module.  Each
    field is a key of the [numerics] section, read with the type of its
    default."""

    order: int = 24
    nodes_per_panel: int = 16
    panels_per_arc: int = 8
    adaptive_quadrature: bool = True
    rcond: float = 1e-13

    def assemble_kwargs(self):
        """Keywords for solver.assemble beyond the quadrature rule: none, as
        every field sets the rule or the solve.  Its only caller is the
        benchmark's perfbench/worker.py, which unpacks it into assemble."""
        return {}


_SCHEMA = {
    "contour": {"kind", "radius", "semi_axis_a", "semi_axis_b", "crack_start_rad", "crack_end_rad"},
    "matrix": {"mu_gpa", "nu", "plane"},
    "inclusion": {"mu_gpa", "nu", "plane"},
    "surface_tension": {"gamma_plus", "gamma_minus", "gamma_interface"},
    "load": {"sigma1_mpa", "sigma2_mpa", "alpha_rad"},
    "tractions": {"preset", "f1_re_mpa", "f1_im_mpa", "f2_re_mpa", "f2_im_mpa"},
    "numerics": {f.name for f in fields(Numerics)},
    "output": {"directory"},
}

_REQUIRED = ("contour", "matrix", "inclusion", "surface_tension", "load")


@dataclass
class RunConfig:
    setup: ProblemSetup
    numerics: Numerics
    output_dir: str = "out"
    raw: dict = field(default_factory=dict)


def _read(parser, section, key, cast, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(f"missing key {key!r} in section [{section}]")
        return default
    text = parser.get(section, key)
    try:
        value = parser.getboolean(section, key) if cast is bool else cast(text)
        if cast is float and not np.isfinite(value):
            raise ValueError("a float key needs a finite number")
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {text!r}") from exc
    return value


def parse_config_text(text):
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    for section in _REQUIRED:
        if not parser.has_section(section):
            raise ConfigError(f"missing required section [{section}]")

    kind = _read(parser, "contour", "kind", str, default="circle").lower()
    start = _read(parser, "contour", "crack_start_rad", float, required=True)
    end = _read(parser, "contour", "crack_end_rad", float, required=True)
    try:
        if kind == "circle":
            contour = CircleContour(_read(parser, "contour", "radius", float, default=1.0), start, end)
        elif kind == "ellipse":
            contour = EllipseContour(
                _read(parser, "contour", "semi_axis_a", float, required=True),
                _read(parser, "contour", "semi_axis_b", float, required=True),
                start,
                end,
            )
        else:
            raise ConfigError(f"unknown contour kind {kind!r}")

        def material(section):
            mode = _read(parser, section, "plane", str, default="stress").lower()
            mode_name = {"stress": "plane-stress", "strain": "plane-strain"}.get(mode)
            if mode_name is None:
                raise ConfigError(f"bad value for [{section}] plane: {mode!r}")
            return Material(
                _read(parser, section, "mu_gpa", float, required=True),
                _read(parser, section, "nu", float, required=True),
                mode_name,
            )

        surface = SurfaceTension(
            _read(parser, "surface_tension", "gamma_plus", float, required=True),
            _read(parser, "surface_tension", "gamma_minus", float, required=True),
            _read(parser, "surface_tension", "gamma_interface", float, default=0.0),
        )
        load = RemoteLoad(
            _read(parser, "load", "sigma1_mpa", float, required=True),
            _read(parser, "load", "sigma2_mpa", float, required=True),
            _read(parser, "load", "alpha_rad", float, default=0.0),
        )
        preset = _read(parser, "tractions", "preset", str, default="zero")
        if preset == "zero":
            tractions = CrackTractions.zero()
        elif preset == "constant":
            tractions = CrackTractions.constant(
                f1=complex(
                    _read(parser, "tractions", "f1_re_mpa", float, default=0.0),
                    _read(parser, "tractions", "f1_im_mpa", float, default=0.0),
                ),
                f2=complex(
                    _read(parser, "tractions", "f2_re_mpa", float, default=0.0),
                    _read(parser, "tractions", "f2_im_mpa", float, default=0.0),
                ),
            )
        else:
            raise ConfigError(f"unknown tractions preset {preset!r}")
        setup = ProblemSetup(
            contour=contour,
            matrix=material("matrix"),
            inclusion=material("inclusion"),
            surface=surface,
            load=load,
            tractions=tractions,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    numerics = Numerics(**{
        f.name: _read(parser, "numerics", f.name, type(f.default), default=f.default) for f in fields(Numerics)
    })
    for key, ok, need in (
        ("nodes_per_panel", numerics.nodes_per_panel >= 4, "at least 4"),
        ("panels_per_arc", numerics.panels_per_arc >= 1, "at least 1"),
        ("rcond", 0.0 <= numerics.rcond < 1.0, "in [0, 1)"),
    ):
        if not ok:
            raise ConfigError(f"bad value for [numerics] {key}: {getattr(numerics, key)!r}, need {need}")

    output_dir = _read(parser, "output", "directory", str, default="out")
    raw = {s: dict(parser.items(s)) for s in parser.sections()}
    return RunConfig(setup=setup, numerics=numerics, output_dir=output_dir, raw=raw)


def parse_config(path):
    with open(path) as fh:
        return parse_config_text(fh.read())


def dump_config(run_config):
    """Serialize a RunConfig back to config text (round-trips parse_config)."""
    setup = run_config.setup
    contour = setup.contour
    parser = configparser.ConfigParser()
    if isinstance(contour, CircleContour):
        parser["contour"] = {
            "kind": "circle",
            "radius": repr(contour.radius),
            "crack_start_rad": repr(contour.theta0),
            "crack_end_rad": repr(contour.theta0 + contour.l0 / contour.radius),
        }
    elif isinstance(contour, EllipseContour):
        theta_end = float(contour._s_to_theta(contour.l0))
        parser["contour"] = {
            "kind": "ellipse",
            "semi_axis_a": repr(contour.a),
            "semi_axis_b": repr(contour.b),
            "crack_start_rad": repr(contour._theta_start),
            "crack_end_rad": repr(theta_end),
        }
    else:
        raise ConfigError("only circle and ellipse contours can be serialized")
    for name, mat in (("matrix", setup.matrix), ("inclusion", setup.inclusion)):
        parser[name] = {
            "mu_gpa": repr(mat.shear_modulus),
            "nu": repr(mat.poisson),
            "plane": "strain" if mat.plane_mode == "plane-strain" else "stress",
        }
    parser["surface_tension"] = {
        "gamma_plus": repr(setup.surface.gamma_plus),
        "gamma_minus": repr(setup.surface.gamma_minus),
        "gamma_interface": repr(setup.surface.gamma_interface),
    }
    parser["load"] = {
        "sigma1_mpa": repr(setup.load.sigma1),
        "sigma2_mpa": repr(setup.load.sigma2),
        "alpha_rad": repr(setup.load.alpha),
    }
    # str gives a float's repr and, lowered, a boolean getboolean reads.
    parser["numerics"] = {f.name: str(getattr(run_config.numerics, f.name)).lower() for f in fields(Numerics)}
    parser["output"] = {"directory": run_config.output_dir}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
