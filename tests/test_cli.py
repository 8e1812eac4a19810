import csv
import json
import os

import numpy as np
import pytest

from crackst import postprocess as post
from crackst.cli import _fmt, main

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
    fits = json.loads(open(os.path.join(out, "summary.json")).read())["tip_fits"]
    assert [f["tip"] for f in fits] == [0, 1]
    assert all(c["passed"] for f in fits for c in f["ladder_checks"])
    assert all(f["sigma_power_exponent"] < 0.1 for f in fits)
    plain = str(tmp_path / "plain")
    assert main(["solve", "--config", cfg, "--out", plain, "--quiet"]) == 0
    assert json.loads(open(os.path.join(plain, "summary.json")).read())["tip_fits"] is None


def test_zero_load_solve_is_all_zero(tmp_path):
    cfg = write_config(tmp_path, sigma1=0.0)
    out = str(tmp_path / "zero")
    assert main(["solve", "--config", cfg, "--out", out, "--quiet"]) == 0
    rows = list(csv.DictReader(open(os.path.join(out, "boundary_fields.csv"))))
    vals = [abs(float(r["sigma_n_plus_0"])) + abs(float(r["re_g0_prime"])) for r in rows]
    assert max(vals) < 1e-12
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    assert summary["max_crack_opening"] == 0.0


def test_malformed_config_names_invariant(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(BASE.format(sigma1=1.0, gamma_i=0.1).replace("nu = 0.25", "nu = 0.7"))
    code = main(["solve", "--config", str(path), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert "Poisson" in err


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


def test_scenario_fig2_emits_four_csvs(tmp_path):
    out = str(tmp_path / "fig2")
    assert main(["scenario", "fig2", "--out", out, "--order", "8", "--quiet"]) == 0
    for fname in (
        "fig2_sigma_crack.csv",
        "fig2_tau_crack.csv",
        "fig2_sigma_bond.csv",
        "fig2_tau_bond.csv",
    ):
        path = os.path.join(out, fname)
        assert os.path.exists(path), fname
        rows = list(csv.DictReader(open(path)))
        assert len(rows) > 100
        assert any("gamma0.5" in k for k in rows[0])


def test_scenario_fig5_emits_deformed_boundaries(tmp_path):
    out = str(tmp_path / "fig5")
    assert main(["scenario", "fig5", "--out", out, "--order", "8", "--quiet"]) == 0
    names = sorted(f for f in os.listdir(out) if f.startswith("fig5_deformed"))
    assert len(names) == 2
    rows = list(csv.DictReader(open(os.path.join(out, names[0]))))
    assert "x_deformed_inclusion" in rows[0]


def test_scenario_fig5a_metadata_note(tmp_path):
    out = str(tmp_path / "fig5a")
    assert main(["scenario", "fig5a", "--out", out, "--order", "8", "--quiet"]) == 0
    meta = json.loads(open(os.path.join(out, "metadata.json")).read())
    assert "not regenerated" in meta["note"]
    assert os.path.exists(os.path.join(out, "fig5a_stress_bond.csv"))


def test_scenario_roundtrip_through_dumped_config(tmp_path):
    out = str(tmp_path / "fig4")
    assert main(["scenario", "fig4", "--out", out, "--order", "8", "--quiet"]) == 0
    cfg = os.path.join(out, "config.ini")
    assert os.path.exists(cfg)
    out2 = str(tmp_path / "fig4_replay")
    assert main(["solve", "--config", cfg, "--out", out2, "--order", "8", "--quiet"]) == 0
    b1 = open(os.path.join(out, "boundary_fields.csv"), "rb").read()
    b2 = open(os.path.join(out2, "boundary_fields.csv"), "rb").read()
    assert b1 == b2


def test_validate_command(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "val")
    code = main(["validate", "--config", cfg, "--out", out, "--order", "16", "--quiet"])
    assert code in (0, 3)
    assert os.path.exists(os.path.join(out, "validation.json"))


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CRACKST_OUTPUT_ROOT", str(tmp_path))
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", cfg, "--out", "sub", "--quiet"]) == 0
    assert os.path.exists(os.path.join(str(tmp_path), "sub", "summary.json"))


def test_usage_without_command(capsys):
    assert main([]) == 1


REFUSED_IMPORTS = """
import sys

refused = []


class Refuse:
    # scipy is no dependency, and importing numpy.ma costs 1.2 MB and 11-16 ms.
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy" or name == "numpy.ma" or name.startswith("numpy.ma."):
            refused.append(name)
            raise ModuleNotFoundError(f"no module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, Refuse())
import crackst.cli
assert "scipy" not in sys.modules and "numpy.ma" not in sys.modules
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
cs.validate_solution(dset, setup)
assert not refused and "scipy" not in sys.modules and "numpy.ma" not in sys.modules, refused
"""


def test_runs_without_scipy(tmp_path):
    # Installing needs numpy only: with every scipy and numpy.ma import
    # refused, the CLI imports without loading either, `crackst scenario
    # fig6` runs, and a tabulated contour solves and validates.
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
    """csv.writer with each value formatted alone by cli._fmt: how the fig1,
    fig2, fig3, fig4, fig5a and fig6 CSVs were written before they went
    through postprocess.write_csv."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([_fmt(v) for v in row])


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
        post.write_csv(got, names, written)
        _columns_csv_reference(want, names, cols)
        assert got.read_bytes() == want.read_bytes()
        for token in (b"nan", b"-inf", b"-0.000000000000e+00"):
            assert token in got.read_bytes()
