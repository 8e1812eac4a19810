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


def test_constant_tractions_config():
    text = GOOD + "\n[tractions]\npreset = constant\nf1_re_mpa = 0.5\nf2_im_mpa = -0.25\n"
    rc = parse_config_text(text)
    s = np.array([0.3])
    assert rc.setup.tractions.f1(s)[0] == pytest.approx(0.5)
    assert rc.setup.tractions.f2(s)[0] == pytest.approx(-0.25j)


def test_dump_roundtrip():
    for rc in (parse_config_text(GOOD), cs.scenario_config("fig6")):
        text = dump_config(rc)
        rc2 = parse_config_text(text)
        assert rc2.numerics == rc.numerics
        assert rc2.setup.load.sigma1 == rc.setup.load.sigma1
        assert rc2.setup.contour.l0 == pytest.approx(rc.setup.contour.l0)
        assert rc2.setup.surface.gamma_interface == rc.setup.surface.gamma_interface
        assert set(rc2.raw["numerics"]) == {
            "order", "nodes_per_panel", "panels_per_arc", "adaptive_quadrature", "rcond"
        }


def test_scenario_configs_build():
    for name in cs.SCENARIOS:
        rc = cs.scenario_config(name)
        assert rc.setup.contour.l0 > 0
        assert rc.numerics.order >= 4
    with pytest.raises(KeyError):
        cs.scenario_config("fig99")
