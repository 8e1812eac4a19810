"""Command-line front end: config-driven solves, parameter sweeps, scenario
presets and validation runs, all emitting CSV/JSON artifacts.

Exit codes: 0 success, 1 usage or configuration error, 2 solver failure,
3 validation failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from . import postprocess as post
from .config import ConfigError, RunConfig, dump_config, parse_config
from .scenarios import SCENARIOS, scenario_config, scenario_metadata
from .kernels import QuadratureRule
from .solver import MIN_ORDER, SingularSystemError, solve_cases
from .validation import validate_solution, write_json

__all__ = ["main", "cmd_solve", "cmd_sweep", "cmd_scenario", "cmd_validate"]

OUTPUT_ROOT_ENV = "CRACKST_OUTPUT_ROOT"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_VALIDATION = 3


def _out_dir(run_config, override):
    base = override or run_config.output_dir
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not os.path.isabs(base):
        base = os.path.join(root, base)
    os.makedirs(base, exist_ok=True)
    return base


def _checked_order(value):
    """An order from the command line, a config or a sweep list, as an int;
    the solver needs at least MIN_ORDER."""
    if not float(value).is_integer() or value < MIN_ORDER:
        raise ConfigError(f"order must be an integer of at least {MIN_ORDER}, got {value:g}")
    return int(value)


def _load_config(args):
    """The run configuration of --config with the --order override applied."""
    run_config = parse_config(args.config)
    if args.order is not None:
        run_config.numerics.order = args.order
    run_config.numerics.order = _checked_order(run_config.numerics.order)
    return run_config


def _with_param(setup, param, value):
    """The setup with its face tensions (gamma0) or its load angle (alpha)
    set to value; it keeps the contour object, so cases built this way share
    their operator tables in solve_cases."""
    if param == "gamma0":
        return replace(setup, surface=replace(setup.surface, gamma_plus=value, gamma_minus=value))
    return replace(setup, load=replace(setup.load, alpha=value))


def _solve_runs(cases, quiet=False):
    """Solve run configurations that share the numerics of the first and its
    contour object in one solve_cases call; one (dset, report) per case."""
    numerics = cases[0].numerics
    rule = QuadratureRule(
        nodes_per_panel=numerics.nodes_per_panel,
        panels_per_arc=numerics.panels_per_arc,
        adaptive=numerics.adaptive_quadrature,
    )
    results = solve_cases(
        [case.setup for case in cases], numerics.order, rule=rule, rcond=numerics.rcond
    )
    if not quiet:
        for _, report in results:
            print(
                f"solved order {numerics.order}: rows={report.rows} cols={report.cols} "
                f"max residual {report.max_residual:.3e} condition {report.condition:.3e}"
            )
    return results


def _solve_run(run_config, quiet=False):
    return _solve_runs([run_config], quiet)[0]


def _write_standard_outputs(outdir, run_config, dset, report, vreport, extra=None, tip_fits=False):
    setup = run_config.setup
    write_json(os.path.join(outdir, "densities.json"), dset.to_dict())
    post.write_boundary_fields_csv(
        os.path.join(outdir, "boundary_fields.csv"),
        post.crack_face_fields(dset, setup),
        post.interface_fields(dset, setup),
    )
    vreport.write_json(os.path.join(outdir, "validation.json"))
    failed = [c.name for c in vreport.checks if not c.passed]
    if failed:
        logging.getLogger("crackst").warning("validation checks failed: %s", failed)
    # Stage timings vary between runs, so they stay out of summary.json and validation.json.
    timings = {**report.meta.get("timings", {}), **vreport.timings}
    write_json(os.path.join(outdir, "timings.json"), {"timings": timings, "batch": report.meta.get("batch")})
    return post.write_summary_json(
        os.path.join(outdir, "summary.json"), dset, setup, report, extra=extra, with_tip_fits=tip_fits
    )


def _solve_config(args):
    """(run_config, outdir, dset, report, vreport) of a solved and validated
    --config, or the exit code of a failure after printing its cause."""
    try:
        run_config = _load_config(args)
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    outdir = _out_dir(run_config, args.out)
    try:
        dset, report = _solve_run(run_config, args.quiet)
    except SingularSystemError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return run_config, outdir, dset, report, validate_solution(dset, run_config.setup)


def cmd_solve(args):
    solved = _solve_config(args)
    if isinstance(solved, int):
        return solved
    run_config, outdir, dset, report, vreport = solved
    _write_standard_outputs(outdir, run_config, dset, report, vreport, tip_fits=args.tip_fits)
    if not args.quiet:
        print(f"outputs written to {outdir}")
    return EXIT_OK


def _apply_sweep_value(run_config, param, value):
    setup, numerics = run_config.setup, run_config.numerics
    if param in ("gamma0", "alpha"):
        setup = _with_param(setup, param, value)
    elif param in ("order", "N"):
        numerics = replace(numerics, order=_checked_order(value))
    else:
        raise ConfigError(f"sweep parameter must be gamma0, alpha or order, got {param!r}")
    return RunConfig(setup, numerics, run_config.output_dir)


SWEEP_COLUMNS = [
    "param",
    "value",
    "max_crack_opening",
    "max_crack_opening_full_arc",
    "max_crack_aperture",
    "tip0_sigma_power_exponent",
    "tip0_tau_log_fit_relative_residual",
    "tip1_sigma_power_exponent",
    "tip1_tau_log_fit_relative_residual",
    "max_residual",
    "condition",
    "force_balance",
    "single_valuedness",
]


def _sweep_row(param, value, summary, report, vreport):
    tips = summary["tip_fits"] or [{}, {}]

    def fit(tip, key):
        found = tips[tip].get(key)
        return float("nan") if found is None else found

    by_name = {c.name: c.value for c in vreport.checks}
    return [param] + [
        float(v)
        for v in (
            value,
            summary["max_crack_opening"],
            summary["max_crack_opening_full_arc"],
            summary["max_crack_aperture"],
            fit(0, "sigma_power_exponent"),
            fit(0, "tau_log_fit_relative_residual"),
            fit(1, "sigma_power_exponent"),
            fit(1, "tau_log_fit_relative_residual"),
            report.max_residual,
            report.condition,
            by_name.get("force_balance", float("nan")),
            by_name.get("single_valuedness", float("nan")),
        )
    ]


def cmd_sweep(args):
    try:
        run_config = _load_config(args)
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
        if not values:
            raise ConfigError("empty sweep value list")
        cases = [_apply_sweep_value(run_config, args.param, value) for value in values]
        subdirs = [f"{args.param}_{value:g}" for value in values]
        for i, name in enumerate(subdirs):
            if name in subdirs[:i]:
                first = values[subdirs.index(name)]
                raise ConfigError(f"sweep values {first!r} and {values[i]!r} would both write to {name}")
    except (OSError, ConfigError, ValueError) as exc:
        print(f"sweep setup error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    outdir = _out_dir(run_config, args.out)
    results = []
    try:
        if args.param in ("gamma0", "alpha"):
            results = _solve_runs(cases, args.quiet)
        else:  # each order has its own tables
            for case in cases:
                results.append(_solve_run(case, args.quiet))
    except SingularSystemError as exc:
        failed = values[len(results) if exc.case is None else exc.case]
        print(f"solver failure at {args.param}={failed:g}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    rows = []
    for value, name, case, (dset, report) in zip(values, subdirs, cases, results):
        subdir = os.path.join(outdir, name)
        os.makedirs(subdir, exist_ok=True)
        vreport = validate_solution(dset, case.setup)
        summary = _write_standard_outputs(subdir, case, dset, report, vreport, tip_fits=args.tip_fits)
        rows.append(_sweep_row(args.param, value, summary, report, vreport))
    post.write_csv(os.path.join(outdir, "sweep.csv"), SWEEP_COLUMNS, list(zip(*rows)))
    if not args.quiet:
        print(f"sweep outputs written to {outdir}")
    return EXIT_OK


# Each scenario writes its data files and returns the solution of its base
# configuration, (dset, report), for the standard artifacts.

def _scenario_fig1(entry, run_config, outdir, quiet):
    orders, solved, curves = entry["orders_sweep"], {}, {}
    for order in orders:
        case = RunConfig(run_config.setup, replace(run_config.numerics, order=order), run_config.output_dir)
        solved[order] = _solve_run(case, quiet)
        curves[order] = post.crack_face_fields(solved[order][0], run_config.setup, 241)
    header = ["s"] + [f"{part}_g0_prime_order{n}" for n in orders for part in ("re", "im")]
    cols = [curves[orders[0]].s] + [part(curves[n].g0p) for n in orders for part in (np.real, np.imag)]
    post.write_csv(os.path.join(outdir, "fig1_density_convergence.csv"), header, cols)
    return solved.get(run_config.numerics.order) or _solve_run(run_config, quiet)


def _scenario_fig2_fig3(name, entry, run_config, outdir, quiet):
    gammas = entry["gammas"]
    cases = [replace(run_config, setup=_with_param(run_config.setup, "gamma0", g)) for g in gammas]
    *solved, base = _solve_runs(cases + [run_config], quiet)
    prefixes = ("sigma_n", "tau_n") if name == "fig2" else ("ut", "un")
    for sample, label in ((post.crack_face_fields, "crack"), (post.interface_fields, "bond")):
        fields = [sample(dset, case.setup, 241) for case, (dset, _) in zip(cases, solved)]
        for prefix in prefixes:
            qname = prefix.partition("_")[0]
            header, cols = ["s"], [fields[0].s]
            for gamma, fld in zip(gammas, fields):
                for suffix, side in (("plus0", "plus_0"), ("minus", "minus")):
                    header.append(f"{qname}_{side}_gamma{gamma:g}")
                    cols.append(getattr(fld, f"{prefix}_{suffix}"))
            post.write_csv(os.path.join(outdir, f"{name}_{qname}_{label}.csv"), header, cols)
    return base


def _scenario_fig4(entry, run_config, outdir, quiet):
    dset, report = _solve_run(run_config, quiet)
    setup = run_config.setup
    s = np.linspace(1e-3 * dset.l0, 0.5 * dset.l0, 161)  # right half of the crack
    fld = post.boundary_fields(dset, setup, s)
    post.write_csv(
        os.path.join(outdir, "fig4_displacement_derivatives.csv"),
        ["s", "ut_prime_plus_0", "un_prime_plus_0", "ut_prime_minus", "un_prime_minus"],
        [s, fld.ut_plus0, fld.un_plus0, fld.ut_minus, fld.un_minus],
    )
    return dset, report


def _scenario_fig5(entry, run_config, outdir, quiet):
    alphas = entry["alphas"]
    cases = [replace(run_config, setup=_with_param(run_config.setup, "alpha", a)) for a in alphas]
    *solved, base = _solve_runs(cases + [run_config], quiet)
    for alpha, case, (dset, _) in zip(alphas, cases, solved):
        columns = post.deformed_boundary(dset, case.setup, scale=entry["displacement_scale"])
        post.write_deformed_boundary_csv(
            os.path.join(outdir, f"fig5_deformed_alpha{alpha:g}.csv"), columns
        )
    return base


def _scenario_fig5a(entry, run_config, outdir, quiet):
    dset, report = _solve_run(run_config, quiet)
    fld = post.interface_fields(dset, run_config.setup, 241)
    post.write_csv(
        os.path.join(outdir, "fig5a_stress_bond.csv"),
        ["s", "sigma_n_plus_0", "tau_n_plus_0", "sigma_n_minus", "tau_n_minus"],
        [fld.s, fld.sigma_n_plus0, fld.tau_n_plus0, fld.sigma_n_minus, fld.tau_n_minus],
    )
    return dset, report


def _scenario_fig6(entry, run_config, outdir, quiet):
    grid = [(alpha, gamma0) for alpha in entry["alphas"] for gamma0 in entry["gammas"]]
    cases = [
        replace(run_config, setup=_with_param(_with_param(run_config.setup, "gamma0", g), "alpha", a))
        for a, g in grid
    ]
    *solved, base = _solve_runs(cases + [run_config], quiet)
    rows = [
        (
            alpha,
            gamma0,
            post.max_crack_opening(dset, case.setup),
            post.max_crack_opening(dset, case.setup, window=(0.0, 1.0)),
            post.max_crack_aperture(dset, case.setup),
        )
        for (alpha, gamma0), case, (dset, _) in zip(grid, cases, solved)
    ]
    post.write_csv(
        os.path.join(outdir, "fig6_opening.csv"),
        ["alpha_rad", "gamma0", "max_opening", "max_opening_full_arc", "max_aperture"],
        np.array(rows, dtype=float).T,
    )
    return base


def cmd_scenario(args):
    name = args.name
    if name not in SCENARIOS:
        print(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}", file=sys.stderr)
        return EXIT_USAGE
    entry = SCENARIOS[name]
    try:
        order = None if args.order is None else _checked_order(args.order)
    except ConfigError as exc:
        print(f"scenario setup error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    run_config = scenario_config(name, order=order)
    outdir = _out_dir(run_config, args.out)
    with open(os.path.join(outdir, "config.ini"), "w") as fh:
        fh.write(dump_config(run_config))
    write_json(os.path.join(outdir, "metadata.json"), scenario_metadata(name))
    try:
        if name == "fig1":
            dset, report = _scenario_fig1(entry, run_config, outdir, args.quiet)
        elif name in ("fig2", "fig3"):
            dset, report = _scenario_fig2_fig3(name, entry, run_config, outdir, args.quiet)
        elif name == "fig4":
            dset, report = _scenario_fig4(entry, run_config, outdir, args.quiet)
        elif name == "fig5":
            dset, report = _scenario_fig5(entry, run_config, outdir, args.quiet)
        elif name == "fig5a":
            dset, report = _scenario_fig5a(entry, run_config, outdir, args.quiet)
        else:
            dset, report = _scenario_fig6(entry, run_config, outdir, args.quiet)
    except SingularSystemError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    vreport = validate_solution(dset, run_config.setup)
    _write_standard_outputs(
        outdir, run_config, dset, report, vreport, extra=scenario_metadata(name), tip_fits=args.tip_fits
    )
    if not args.quiet:
        print(f"scenario {name} outputs written to {outdir}")
    return EXIT_OK


def cmd_validate(args):
    solved = _solve_config(args)
    if isinstance(solved, int):
        return solved
    _, outdir, _, _, vreport = solved
    vreport.write_json(os.path.join(outdir, "validation.json"))
    for check in vreport.checks:
        status = "pass" if check.passed else "FAIL"
        if not args.quiet or not check.passed:
            print(f"{status}: {check.name} = {check.value:.3e} (tolerance {check.tolerance:.3e})")
    return EXIT_OK if vreport.all_passed else EXIT_VALIDATION


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crackst",
        description="Interface-crack solver with curvature-dependent surface tension",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", help="output directory (default from config)")
        # Parsed as a number so that a non-integer order gets the usage exit code.
        p.add_argument("--order", type=float, help="polynomial order override")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    def tip_fits_flag(p):
        p.add_argument(
            "--tip-fits",
            action="store_true",
            help="add the tip regularity fits to summary.json (a second, tip-resolved solve)",
        )

    p_solve = sub.add_parser("solve", help="solve one configuration")
    common(p_solve)
    tip_fits_flag(p_solve)
    p_sweep = sub.add_parser("sweep", help="sweep a parameter over a value list")
    common(p_sweep)
    tip_fits_flag(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=("gamma0", "alpha", "order", "N"))
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_scenario = sub.add_parser("scenario", help="run a built-in scenario preset")
    p_scenario.add_argument("name", help=f"one of {sorted(SCENARIOS)}")
    common(p_scenario, config_required=False)
    tip_fits_flag(p_scenario)
    p_validate = sub.add_parser("validate", help="solve and run the validation battery")
    common(p_validate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is the solver-failure
        # code here, and 0 after --help.
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    command = {
        "solve": cmd_solve,
        "sweep": cmd_sweep,
        "scenario": cmd_scenario,
        "validate": cmd_validate,
    }[args.command]
    # The warnings of the solver (rank deficiency, unconverged quadrature, degenerate
    # material pair) and of failed validation checks go to stderr unless --quiet.
    log = logging.getLogger("crackst")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("warning: %(message)s"))
    handler.setLevel(logging.ERROR if args.quiet else logging.WARNING)
    log.addHandler(handler)
    try:
        return command(args)
    finally:
        log.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
