import csv
import json
import os

import numpy as np
import pytest

from crackst import postprocess as post
from crackst.cli import main
from crackst.config import parse_config

BASE = """
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
gamma_interface = {gamma_i}

[load]
sigma1_mpa = {sigma1}
sigma2_mpa = 0.0
alpha_rad = 0.0

[numerics]
order = 8
"""


def write_config(tmp_path, name="run.ini", sigma1=1.0, gamma_i=0.1):
    path = tmp_path / name
    path.write_text(BASE.format(sigma1=sigma1, gamma_i=gamma_i))
    return str(path)


def test_solve_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out, "--quiet"]) == 0
    for fname in ("densities.json", "boundary_fields.csv", "validation.json", "summary.json"):
        assert os.path.exists(os.path.join(out, fname))
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    assert summary["order"] == 8


def test_solve_writes_stage_timings(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "timed")
    assert main(["solve", "--config", cfg, "--out", out, "--quiet"]) == 0
    timings = json.loads(open(os.path.join(out, "timings.json")).read())["timings"]
    stages = {"tables_s", "rows_s", "lstsq_s", "inversion_s", "surface_s", "trace_s", "conservation_s"}
    assert set(timings) == stages
    assert all(value >= 0.0 for value in timings.values())
    assert "timings" not in open(os.path.join(out, "validation.json")).read()


@pytest.mark.parametrize("line", ["nodes_per_panel = 2", "panels_per_arc = 0", "rcond = nan"])
def test_bad_numerics_exit_with_config_error(tmp_path, line):
    import subprocess
    import sys

    import crackst

    path = tmp_path / "bad.ini"
    path.write_text(BASE.format(sigma1=1.0, gamma_i=0.1) + line + "\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(crackst.__file__)))
    cmd = [sys.executable, "-m", "crackst.cli", "solve", "--config", str(path), "--out", str(tmp_path / "o")]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "config error:" in proc.stderr and line.split()[0] in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "key, line",
    [("mu_gpa", "mu_gpa = nan"), ("gamma_plus", "gamma_plus = inf"), ("radius", "radius = inf"),
     ("sigma1_mpa", "sigma1_mpa = inf")],
)
def test_non_finite_inputs_exit_with_config_error(tmp_path, key, line):
    # Each replaces the first line of its key in the base config.
    import re
    import subprocess
    import sys

    import crackst

    path = tmp_path / "bad.ini"
    path.write_text(re.sub(rf"^{key} = .*$", line, BASE.format(sigma1=1.0, gamma_i=0.1), count=1, flags=re.M))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(crackst.__file__)))
    cmd = [sys.executable, "-m", "crackst.cli", "solve", "--config", str(path), "--out", str(tmp_path / "o")]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "config error:" in proc.stderr and key in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not os.path.exists(tmp_path / "o")


def test_solve_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["solve", "--config", cfg, "--out", out1, "--quiet"]) == 0
    assert main(["solve", "--config", cfg, "--out", out2, "--quiet"]) == 0
    for fname in ("densities.json", "boundary_fields.csv", "validation.json", "summary.json"):
        b1 = open(os.path.join(out1, fname), "rb").read()
        b2 = open(os.path.join(out2, fname), "rb").read()
        assert b1 == b2, fname


def test_solve_tip_fits_flag(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "tips")
    assert main(["solve", "--config", cfg, "--out", out, "--order", "16", "--tip-fits", "--quiet"]) == 0
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    fits = summary["tip_fits"]
    assert [f["tip"] for f in fits] == [0, 1]
    assert all(c["passed"] for f in fits for c in f["ladder_checks"])
    assert all(f["sigma_power_exponent"] < 0.1 for f in fits)
    # The tip-resolved field's central opening, 0.0219686 against the
    # solver's 0.0219347 at N = 16; from N = 16 to 40 it moves by 3e-4 relative.
    resolved = summary["tip_resolved_max_crack_opening"]
    assert resolved == pytest.approx(0.02197, rel=1e-3)
    change = resolved / summary["max_crack_opening"] - 1.0
    assert summary["tip_resolved_opening_relative_change"] == pytest.approx(change, rel=1e-12)
    plain = str(tmp_path / "plain")
    assert main(["solve", "--config", cfg, "--out", plain, "--quiet"]) == 0
    summary = json.loads(open(os.path.join(plain, "summary.json")).read())
    assert summary["tip_fits"] is None
    assert summary["tip_resolved_max_crack_opening"] is None
    assert summary["tip_resolved_opening_relative_change"] is None


def test_zero_load_solve_is_all_zero(tmp_path):
    cfg = write_config(tmp_path, sigma1=0.0)
    out = str(tmp_path / "zero")
    assert main(["solve", "--config", cfg, "--out", out, "--quiet"]) == 0
    rows = list(csv.DictReader(open(os.path.join(out, "boundary_fields.csv"))))
    vals = [abs(float(r["sigma_n_plus_0"])) + abs(float(r["re_g0_prime"])) for r in rows]
    assert max(vals) < 1e-12
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    assert summary["max_crack_opening"] == 0.0


def test_zero_load_tip_fits_write_no_relative_change(tmp_path):
    cfg = write_config(tmp_path, sigma1=0.0)
    out = str(tmp_path / "zero_tips")
    assert main(["solve", "--config", cfg, "--out", out, "--order", "8", "--tip-fits", "--quiet"]) == 0
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    assert summary["max_crack_opening"] == 0.0
    assert summary["tip_resolved_max_crack_opening"] == 0.0
    assert summary["tip_resolved_opening_relative_change"] is None
    # A field that vanishes at every ladder sample has no tip behaviour to
    # fit: the fits are null, while the ladder checks are still reported.
    for fits in summary["tip_fits"]:
        for key in ("sigma_power_exponent", "tau_power_exponent", "tau_log_coefficient",
                    "tau_log_fit_relative_residual"):
            assert fits[key] is None, key
        assert len(fits["ladder_checks"]) == 2


def test_malformed_config_names_invariant(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(BASE.format(sigma1=1.0, gamma_i=0.1).replace("nu = 0.25", "nu = 0.7"))
    code = main(["solve", "--config", str(path), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert "Poisson" in err


def test_percent_sign_is_read_as_a_character(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(BASE.format(sigma1=1.0, gamma_i=0.1).replace("order = 8", "order = 12%"))
    assert main(["solve", "--config", str(path), "--quiet"]) == 1
    assert "config error: bad value for [numerics] order: '12%'" in capsys.readouterr().err


def test_order_override(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "o12")
    assert main(["solve", "--config", cfg, "--out", out, "--order", "12", "--quiet"]) == 0
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    assert summary["order"] == 12


def test_sweep_outputs(tmp_path):
    cfg = write_config(tmp_path, gamma_i=0.0)
    out = str(tmp_path / "sw")
    code = main([
        "sweep", "--config", cfg, "--param", "gamma0",
        "--values", "0.1,0.5", "--out", out, "--quiet",
    ])
    assert code == 0
    rows = list(csv.DictReader(open(os.path.join(out, "sweep.csv"))))
    assert len(rows) == 2
    assert float(rows[0]["value"]) == pytest.approx(0.1)
    assert float(rows[0]["max_crack_opening"]) > 0
    assert os.path.isdir(os.path.join(out, "gamma0_0.1"))
    assert os.path.isdir(os.path.join(out, "gamma0_0.5"))
    assert _assert_csv_headers(out) == ["boundary_fields.csv"] * 2 + ["sweep.csv"]


def test_sweep_alpha_rows_match_separate_solves(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "sw")
    assert main([
        "sweep", "--config", cfg, "--param", "alpha", "--values", "0,0.7", "--out", out, "--quiet",
    ]) == 0
    rows = list(csv.DictReader(open(os.path.join(out, "sweep.csv"))))
    assert [float(r["value"]) for r in rows] == [0.0, 0.7]
    for row in rows:
        alpha = float(row["value"])
        path = tmp_path / f"alpha{alpha:g}.ini"
        path.write_text(
            BASE.format(sigma1=1.0, gamma_i=0.1).replace("alpha_rad = 0.0", f"alpha_rad = {alpha!r}")
        )
        single = str(tmp_path / f"single{alpha:g}")
        assert main(["solve", "--config", str(path), "--out", single, "--quiet"]) == 0
        summary = json.loads(open(os.path.join(single, "summary.json")).read())
        for key in ("max_crack_opening", "max_crack_opening_full_arc", "max_crack_aperture"):
            assert float(row[key]) == pytest.approx(summary[key], rel=1e-9)
        report = summary["residual_report"]
        assert abs(float(row["max_residual"]) - report["max_residual"]) <= 1e-10  # load units
        assert float(row["condition"]) == pytest.approx(report["condition"], rel=1e-11)


def test_bad_orders_are_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "bad")
    sweep = ["sweep", "--config", cfg, "--param", "order", "--out", out, "--quiet", "--values"]
    assert main(sweep + ["8.7"]) == 1
    assert "got 8.7" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "order_8.7"))
    assert main(sweep + ["2"]) == 1
    assert "got 2" in capsys.readouterr().err
    assert main(["solve", "--config", cfg, "--order", "2", "--out", out, "--quiet"]) == 1
    assert "got 2" in capsys.readouterr().err
    assert main(["solve", "--config", cfg, "--order", "8.7", "--out", out, "--quiet"]) == 1
    assert "got 8.7" in capsys.readouterr().err


@pytest.mark.parametrize("param, values, name", [("gamma0", "0.1,0.1000001", "gamma0_0.1"), ("order", "8,8", "order_8")])
def test_sweep_rejects_values_that_share_a_directory(tmp_path, capsys, param, values, name):
    cfg = write_config(tmp_path)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--param", param, "--values", values, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    first, second = (repr(float(v)) for v in values.split(","))
    assert f"sweep values {first} and {second} would both write to {name}" in err
    assert not out.exists()  # rejected before any solve


def _failed_checks(outdir):
    report = json.loads((outdir / "validation.json").read_text())
    return [c["name"] for c in report["checks"] if not c["passed"]]


@pytest.mark.parametrize("command", [["solve", "--config", "{cfg}"], ["scenario", "fig4"]])
def test_failed_validation_checks_warn_unless_quiet(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr("crackst.validation.TRACE_TOL", 0.0)
    cfg, out = write_config(tmp_path), tmp_path / "out"
    argv = [arg.format(cfg=cfg) for arg in command] + ["--out", str(out), "--order", "8"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    failed = _failed_checks(out)
    assert "trace_consistency" in failed
    assert captured.err.count(f"warning: validation checks failed: {failed}") == 1
    assert "checks failed" not in captured.out
    assert main(argv + ["--quiet"]) == 0
    assert "checks failed" not in capsys.readouterr().err


def test_sweep_warns_of_failed_validation_checks(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("crackst.validation.TRACE_TOL", 0.0)
    cfg, out = write_config(tmp_path), tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--param", "alpha", "--values", "0,0.7", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    for name in ("alpha_0", "alpha_0.7"):
        failed = _failed_checks(out / name)
        assert "trace_consistency" in failed
        assert f"warning: validation checks failed: {failed}" in err
    assert err.count("validation checks failed") == 2


def test_sweep_rejects_empty_values(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--param", "gamma0", "--values", "", "--quiet"]) == 1


def test_usage_errors_exit_with_usage_code(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--param", "foo", "--values", "1", "--quiet"]) == 1
    assert "invalid choice: 'foo'" in capsys.readouterr().err
    assert main(["sweep", "--param", "gamma0", "--values", "1", "--quiet"]) == 1
    assert "--config" in capsys.readouterr().err
    assert main(["sweep", "--config", cfg, "--param", "gamma0", "--quiet"]) == 1
    assert "--values" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "usage: crackst" in capsys.readouterr().out


def test_scenario_unknown_name(capsys):
    assert main(["scenario", "fig99", "--quiet"]) == 1


STANDARD_FILES = [
    "boundary_fields.csv", "config.ini", "densities.json", "metadata.json",
    "summary.json", "timings.json", "validation.json",
]

# Each preset's data files and the number of its cases at the base's order:
# the base is one of them, solved once.
SCENARIO_FILES = {
    "fig1": (["fig1_density_convergence.csv"], 1),
    "fig2": ([f"fig2_{q}_{arc}.csv" for q in ("sigma", "tau") for arc in ("crack", "bond")], 3),
    "fig3": ([f"fig3_{q}_{arc}.csv" for q in ("ut", "un") for arc in ("crack", "bond")], 3),
    "fig4": (["fig4_displacement_derivatives.csv"], 1),
    "fig5": (["fig5_deformed_alpha0.csv", "fig5_deformed_alpha1.5708.csv"], 2),
    "fig5a": (["fig5a_stress_bond.csv"], 1),
    "fig6": (["fig6_opening.csv"], 9),
}


def _gamma_columns(quantity):
    return ["s"] + [f"{quantity}_{side}_gamma{g}" for g in ("0.1", "0.5", "1") for side in ("plus_0", "minus")]


# The header row, names and order, of every CSV the CLI writes (the scenario
# files as written at --order 8; fig1's grid sets its own orders).
CSV_HEADERS = {
    "boundary_fields.csv": [
        "s", "arc", "sigma_n_plus_0", "tau_n_plus_0", "sigma_n_minus", "tau_n_minus",
        "ut_prime_plus_0", "un_prime_plus_0", "ut_prime_minus", "un_prime_minus",
        "re_q0", "im_q0", "re_q", "im_q", "re_g0_prime", "im_g0_prime", "re_g_prime", "im_g_prime",
    ],
    "sweep.csv": [
        "param", "value", "max_crack_opening", "max_crack_opening_full_arc", "max_crack_aperture",
        "tip0_sigma_power_exponent", "tip0_tau_log_fit_relative_residual",
        "tip1_sigma_power_exponent", "tip1_tau_log_fit_relative_residual",
        "max_residual", "condition", "force_balance", "single_valuedness",
    ],
    "fig1_density_convergence.csv": ["s"] + [
        f"{part}_g0_prime_order{n}" for n in (16, 24, 30) for part in ("re", "im")
    ],
    **{f"fig2_{q}_{arc}.csv": _gamma_columns(q) for q in ("sigma", "tau") for arc in ("crack", "bond")},
    **{f"fig3_{q}_{arc}.csv": _gamma_columns(q) for q in ("ut", "un") for arc in ("crack", "bond")},
    "fig4_displacement_derivatives.csv": [
        "s", "ut_prime_plus_0", "un_prime_plus_0", "ut_prime_minus", "un_prime_minus",
    ],
    **dict.fromkeys(["fig5_deformed_alpha0.csv", "fig5_deformed_alpha1.5708.csv"], [
        "s", "x_undeformed", "y_undeformed", "x_deformed_inclusion", "y_deformed_inclusion",
        "x_deformed_matrix", "y_deformed_matrix",
    ]),
    "fig5a_stress_bond.csv": ["s", "sigma_n_plus_0", "tau_n_plus_0", "sigma_n_minus", "tau_n_minus"],
    "fig6_opening.csv": ["alpha_rad", "gamma0", "max_opening", "max_opening_full_arc", "max_aperture"],
}


def _assert_csv_headers(out):
    """Check the header of every CSV under out against CSV_HEADERS and
    return the file names checked, sorted."""
    checked = []
    for root, _, files in os.walk(out):
        for fname in files:
            if fname.endswith(".csv"):
                with open(os.path.join(root, fname), newline="") as fh:
                    assert next(csv.reader(fh)) == CSV_HEADERS[fname], fname
                checked.append(fname)
    return sorted(checked)


@pytest.mark.parametrize("name", sorted(SCENARIO_FILES))
def test_scenario_writes_its_files_and_solves_its_base_once(tmp_path, name):
    files, cases = SCENARIO_FILES[name]
    out = str(tmp_path / name)
    assert main(["scenario", name, "--out", out, "--order", "8", "--quiet"]) == 0
    assert sorted(os.listdir(out)) == sorted(files + STANDARD_FILES)
    assert _assert_csv_headers(out) == sorted(files + ["boundary_fields.csv"])
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    assert summary["residual_report"]["meta"]["batch"]["cases"] == cases
    if name == "fig2":
        for fname in files:
            rows = list(csv.DictReader(open(os.path.join(out, fname))))
            assert len(rows) > 100
            assert any("gamma0.5" in k for k in rows[0])
    elif name == "fig5":
        rows = list(csv.DictReader(open(os.path.join(out, files[0]))))
        assert "x_deformed_inclusion" in rows[0]
    elif name == "fig5a":
        meta = json.loads(open(os.path.join(out, "metadata.json")).read())
        assert "not regenerated" in meta["note"]


def test_fig5a_scenario_validates(tmp_path):
    # With the inversion check's outer pass graded only to 1e-4 l, the two
    # polynomial trials read 1.6e-5 here, over INVERSION_TOL = 1e-5.
    out = str(tmp_path / "fig5a")
    assert main(["scenario", "fig5a", "--out", out, "--quiet"]) == 0
    report = json.loads(open(os.path.join(out, "validation.json")).read())
    assert report["all_passed"], [c for c in report["checks"] if not c["passed"]]


@pytest.mark.parametrize("name", ["fig4", "fig2"])
def test_scenario_roundtrip_through_dumped_config(tmp_path, name):
    out = str(tmp_path / name)
    assert main(["scenario", name, "--out", out, "--order", "8", "--quiet"]) == 0
    cfg = os.path.join(out, "config.ini")
    assert os.path.exists(cfg)
    # summary.json and metadata.json record the order solved, as config.ini does.
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    meta = json.loads(open(os.path.join(out, "metadata.json")).read())
    assert summary["order"] == summary["residual_report"]["meta"]["order"] == meta["order"] == 8
    assert parse_config(cfg).numerics.order == 8
    out2 = str(tmp_path / f"{name}_replay")
    assert main(["solve", "--config", cfg, "--out", out2, "--order", "8", "--quiet"]) == 0
    b1 = open(os.path.join(out, "boundary_fields.csv"), "rb").read()
    b2 = open(os.path.join(out2, "boundary_fields.csv"), "rb").read()
    assert b1 == b2


def _fail_at(predicate):
    """A solve_cases that raises SingularSystemError naming the case that
    predicate(setups, n) returns (None for a one-case call), and solves when
    it returns False."""
    from crackst.solver import SingularSystemError, solve_cases

    def failing(setups, n, **kwargs):
        found = predicate(setups, n)
        if found is not False:
            raise SingularSystemError("rank 3 < 4", case=found)
        return solve_cases(setups, n, **kwargs)

    return failing


@pytest.mark.parametrize(
    "command, predicate, named",
    [
        (["solve", "--config", "{cfg}"], lambda setups, n: None, None),
        (
            ["sweep", "--config", "{cfg}", "--param", "gamma0", "--values", "0.1,0.5"],
            lambda setups, n: 1,
            "gamma0=0.5",
        ),
        (
            ["sweep", "--config", "{cfg}", "--param", "order", "--values", "8,12"],
            lambda setups, n: None if n == 12 else False,
            "order=12",
        ),
        (["scenario", "fig2", "--order", "8"], lambda setups, n: 2, None),
    ],
    ids=["solve", "sweep-gamma0", "sweep-order", "scenario-fig2"],
)
def test_solver_failure_exits_with_solver_code(tmp_path, capsys, monkeypatch, command, predicate, named):
    monkeypatch.setattr("crackst.cli.solve_cases", _fail_at(predicate))
    cfg = write_config(tmp_path)
    argv = [arg.format(cfg=cfg) for arg in command] + ["--out", str(tmp_path / "out"), "--quiet"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "solver failure" in err and "rank 3 < 4" in err
    if named is not None:
        assert f"solver failure at {named}:" in err


def test_validate_command(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "val")
    code = main(["validate", "--config", cfg, "--out", out, "--order", "16", "--quiet"])
    assert code in (0, 3)
    assert os.path.exists(os.path.join(out, "validation.json"))


def test_validate_command_passes_on_ellipse(tmp_path):
    # On the 1.5:1 ellipse every check of the battery passes, the Cauchy
    # inversion included.
    cfg = tmp_path / "ellipse.ini"
    cfg.write_text(
        BASE.format(sigma1=1.0, gamma_i=0.1).replace(
            "kind = circle\nradius = 1.0", "kind = ellipse\nsemi_axis_a = 1.5\nsemi_axis_b = 1.0"
        )
    )
    out = str(tmp_path / "val")
    assert main(["validate", "--config", str(cfg), "--out", out, "--order", "24", "--quiet"]) == 0
    report = json.loads(open(os.path.join(out, "validation.json")).read())
    assert report["all_passed"] is True


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CRACKST_OUTPUT_ROOT", str(tmp_path))
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", cfg, "--out", "sub", "--quiet"]) == 0
    assert os.path.exists(os.path.join(str(tmp_path), "sub", "summary.json"))


def test_usage_without_command(capsys):
    assert main([]) == 1


REFUSED_IMPORTS = """
import sys

# scipy is no dependency, importing numpy.ma costs 1.2 MB and 11-16 ms, and
# numpy.random (with secrets, hashlib and OpenSSL) 4.1 MB and 9-17 ms.
REFUSED = ("scipy", "numpy.ma", "numpy.random")
refused = []


def loaded():
    return [name for name in REFUSED if name in sys.modules]


class Refuse:
    def find_spec(self, name, path=None, target=None):
        if any(name == top or name.startswith(top + ".") for top in REFUSED):
            refused.append(name)
            raise ModuleNotFoundError(f"no module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, Refuse())
import crackst.cli
assert not loaded(), loaded()
import numpy as np
import crackst as cs

assert crackst.cli.main(["scenario", "fig6", "--out", sys.argv[1], "--quiet"]) == 0
theta = 2 * np.pi * np.arange(64) / 64
setup = cs.ProblemSetup(
    contour=cs.TabulatedContour(1.5 * np.cos(theta) + 1j * np.sin(theta), 0.5),
    matrix=cs.Material(40.0, 0.25),
    inclusion=cs.Material(60.0, 0.35),
    surface=cs.SurfaceTension(0.1, 0.1, 0.1),
    load=cs.RemoteLoad(1.0, 0.0, 0.0),
)
dset, report = cs.solve_problem(setup, 16)
cs.validate_solution(dset, setup, seed=3)
assert not refused and not loaded(), (refused, loaded())
"""


def test_runs_without_scipy(tmp_path):
    # Installing needs numpy only: with every scipy, numpy.ma and numpy.random
    # import refused, the CLI imports without loading any of them, `crackst
    # scenario fig6` runs and validates its cases, and a tabulated contour
    # solves and validates.
    import subprocess
    import sys

    import crackst

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(crackst.__file__)))
    cmd = [sys.executable, "-c", REFUSED_IMPORTS, str(tmp_path / "fig6")]
    result = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_order_zero_is_rejected(tmp_path, capsys):
    # An order of 0 is checked like any other, not taken for "no override".
    cfg = write_config(tmp_path)
    out = str(tmp_path / "zero")
    for argv in (
        ["scenario", "fig6"],
        ["solve", "--config", cfg],
        ["validate", "--config", cfg],
        ["sweep", "--config", cfg, "--param", "gamma0", "--values", "0.1"],
    ):
        assert main(argv + ["--order", "0", "--out", out, "--quiet"]) == 1
        assert "order must be an integer of at least 4, got 0" in capsys.readouterr().err
        assert not os.path.exists(out)


def _columns_csv_reference(path, header, columns):
    """csv.writer with each value formatted alone as %.12e: how the fig1,
    fig2, fig3, fig4, fig5a and fig6 CSVs were written before they went
    through postprocess.write_csv."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([f"{float(v):.12e}" for v in row])


def test_column_csvs_match_csv_writer_reference(tmp_path):
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, -1.5e300, 5e-324]
    s = np.linspace(1e-3, 3.0, 12)
    curve = np.sin(s)
    curve[: len(special)] = special
    header = ["s", "re_g0_prime_order16", "im_g0_prime_order16"]
    columns = [s, curve, -curve[::-1]]
    # fig6_opening.csv: one tuple per grid point, the angle given as an int.
    rows = [(0, 0.1, v, -v, 2.0 * v) for v in special]
    fig6 = ["alpha_rad", "gamma0", "max_opening", "max_opening_full_arc", "max_aperture"]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    for names, cols, written in (
        (header, columns, columns),
        (fig6, list(zip(*rows)), np.array(rows, dtype=float).T),
    ):
        post.write_csv(got, dict(zip(names, written)))
        _columns_csv_reference(want, names, cols)
        assert got.read_bytes() == want.read_bytes()
        for token in (b"nan", b"-inf", b"-0.000000000000e+00"):
            assert token in got.read_bytes()
