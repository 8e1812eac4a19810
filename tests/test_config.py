import configparser
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import crackst as cs
from crackst.config import ConfigError, dump_config, parse_config_text

GOOD = """
[contour]
kind = circle
radius = 1.0
crack_start_rad = 0.0
crack_end_rad = 3.141592653589793

[matrix]
mu_gpa = 40.0
nu = 0.25

[inclusion]
mu_gpa = 60.0
nu = 0.35

[surface_tension]
gamma_plus = 0.1
gamma_minus = 0.1
gamma_interface = 0.1

[load]
sigma1_mpa = 1.0
sigma2_mpa = 0.0
alpha_rad = 0.0

[numerics]
order = 12

[output]
directory = out
"""


def test_parse_good_config():
    rc = parse_config_text(GOOD)
    assert rc.numerics.order == 12
    assert rc.setup.matrix.shear_modulus == 40.0
    assert rc.setup.contour.l0 == pytest.approx(np.pi)
    assert rc.output_dir == "out"


def test_unknown_section_and_key_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config_text(GOOD + "\n[banana]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text(GOOD.replace("mu_gpa = 40.0", "mu_gpa = 40.0\nshininess = 3"))


@pytest.mark.parametrize(
    "key",
    ["oversample", "tip_inset", "tie_constant_terms", "taper_exponent",
     "bond_weight", "constraint_weight", "force_weight"],
)
def test_fixed_solver_constants_are_not_numerics_keys(key):
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config_text(GOOD.replace("order = 12", f"order = 12\n{key} = 1"))


def test_invalid_poisson_named_in_error():
    with pytest.raises(ConfigError, match="Poisson"):
        parse_config_text(GOOD.replace("nu = 0.25", "nu = 0.7"))


@pytest.mark.parametrize(
    "key, value",
    [
        ("nodes_per_panel", "2"),
        ("nodes_per_panel", "3"),
        ("panels_per_arc", "0"),
        ("rcond", "-1"),
        ("rcond", "nan"),
        ("rcond", "inf"),
        ("rcond", "1.0"),
    ],
)
def test_bad_numerics_named_in_error(key, value):
    with pytest.raises(ConfigError, match=f"\\[numerics\\] {key}"):
        parse_config_text(GOOD.replace("order = 12", f"order = 12\n{key} = {value}"))


def test_numerics_bounds_are_inclusive():
    text = GOOD.replace("order = 12", "order = 12\nnodes_per_panel = 4\npanels_per_arc = 1\nrcond = 0")
    numerics = parse_config_text(text).numerics
    assert (numerics.nodes_per_panel, numerics.panels_per_arc, numerics.rcond) == (4, 1, 0.0)


def test_missing_required_section():
    bad = GOOD.replace("[load]", "[output2]").replace("sigma1_mpa = 1.0", "")
    with pytest.raises(ConfigError):
        parse_config_text(bad)


def test_ellipse_config():
    text = GOOD.replace(
        "kind = circle\nradius = 1.0",
        "kind = ellipse\nsemi_axis_a = 1.5\nsemi_axis_b = 0.8",
    )
    rc = parse_config_text(text)
    assert rc.setup.contour.l > 2 * np.pi  # longer than the unit circle


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("[output]", "[tractions]\nf1_re_mpa = 0.5\n\n[output]", r"'f1_re_mpa' in section \[tractions\] .* preset = zero"),
        ("[output]", "[tractions]\npreset = zero\nf2_im_mpa = 1\n\n[output]", r"'f2_im_mpa' .* preset = zero"),
        ("radius = 1.0", "radius = 1.0\nsemi_axis_a = 2.0", r"'semi_axis_a' in section \[contour\] .* kind = circle"),
        ("kind = circle", "kind = ellipse\nsemi_axis_a = 1.5\nsemi_axis_b = 1.0", r"'radius' .* kind = ellipse"),
        ("kind = circle", "kind = square", "unknown contour kind 'square'"),
        ("[output]", "[tractions]\npreset = linear\n\n[output]", "unknown tractions preset 'linear'"),
    ],
)
def test_keys_the_chosen_kind_or_preset_does_not_read_are_rejected(old, new, message):
    with pytest.raises(ConfigError, match=message):
        parse_config_text(GOOD.replace(old, new))


def test_readme_config_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        rc = parse_config_text(block)
        assert rc.setup.contour.l0 == pytest.approx(np.pi)


def test_constant_tractions_config():
    text = GOOD + "\n[tractions]\npreset = constant\nf1_re_mpa = 0.5\nf2_im_mpa = -0.25\n"
    rc = parse_config_text(text)
    s = np.array([0.3])
    assert rc.setup.tractions.f1(s)[0] == pytest.approx(0.5)
    assert rc.setup.tractions.f2(s)[0] == pytest.approx(-0.25j)


def test_dump_roundtrip():
    constant = GOOD + "\n[tractions]\npreset = constant\nf1_re_mpa = 0.5\nf2_im_mpa = -0.25\n"
    for rc in (parse_config_text(GOOD), cs.scenario_config("fig6"), parse_config_text(constant)):
        text = dump_config(rc)
        rc2 = parse_config_text(text)
        assert rc2.setup.tractions.constants == rc.setup.tractions.constants
        assert rc2.numerics == rc.numerics
        assert rc2.setup.load.sigma1 == rc.setup.load.sigma1
        assert rc2.setup.contour.l0 == pytest.approx(rc.setup.contour.l0)
        assert rc2.setup.surface.gamma_interface == rc.setup.surface.gamma_interface
        dumped = configparser.ConfigParser()
        dumped.read_string(text)
        assert set(dumped["numerics"]) == {
            "order", "nodes_per_panel", "panels_per_arc", "adaptive_quadrature", "rcond"
        }


def test_values_are_read_and_written_literally():
    """A '%' is a character, not the start of an interpolation."""
    with pytest.raises(ConfigError, match=r"bad value for \[numerics\] order: '12%'"):
        parse_config_text(GOOD.replace("order = 12", "order = 12%"))
    rc = replace(parse_config_text(GOOD), output_dir="runs/100%")
    assert parse_config_text(dump_config(rc)).output_dir == "runs/100%"


@pytest.mark.parametrize(
    "contour",
    [
        # Written as theta0 + l0 / radius and _s_to_theta(l0), these crack ends came back with l0 one ulp off.
        cs.CircleContour(1.7828404614306053, 2.2592225784994833, 5.143489922716346),
        cs.EllipseContour(1.6635367821527425, 0.9632860440788915, -1.3809792869951991, 3.838805876883912),
    ],
)
def test_dumped_contour_is_bit_equal(contour):
    rc = parse_config_text(GOOD)
    back = parse_config_text(dump_config(replace(rc, setup=replace(rc.setup, contour=contour)))).setup.contour
    assert type(back) is type(contour)
    assert (back.l0, back.l) == (contour.l0, contour.l)
    assert back.crack_arc == contour.crack_arc


def test_dump_rejects_tractions_no_preset_describes():
    rc = parse_config_text(GOOD)
    custom = replace(rc, setup=replace(rc.setup, tractions=cs.CrackTractions(f1=np.sin)))
    with pytest.raises(ConfigError, match=r"\[tractions\]"):
        dump_config(custom)


def test_scenario_configs_build():
    for name in cs.SCENARIOS:
        rc = cs.scenario_config(name)
        assert rc.setup.contour.l0 > 0
        assert rc.numerics.order >= 4
    with pytest.raises(KeyError):
        cs.scenario_config("fig99")
    # An explicit order, 0 included, replaces the preset's; the solve then
    # refuses order 0 with the error that names it.
    assert cs.scenario_config("fig1", order=12).numerics.order == 12
    rc = cs.scenario_config("fig1", order=0)
    assert rc.numerics.order == 0
    with pytest.raises(ValueError, match="order must be at least 4, got 0"):
        cs.solve_problem(rc.setup, rc.numerics.order)
