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
from .config import ConfigError, dump_config, parse_config
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


def _with_value(run_config, param, value):
    """The run configuration with its face tensions (gamma0), its load angle
    (alpha) or its order (order or N) set to value.  It keeps the contour
    object, so cases built this way share their operator tables in solve_cases."""
    setup, numerics = run_config.setup, run_config.numerics
    if param == "gamma0":
        setup = replace(setup, surface=replace(setup.surface, gamma_plus=value, gamma_minus=value))
    elif param == "alpha":
        setup = replace(setup, load=replace(setup.load, alpha=value))
    elif param in ("order", "N"):
        numerics = replace(numerics, order=_checked_order(value))
    else:
        raise ConfigError(f"sweep parameter must be gamma0, alpha or order, got {param!r}")
    return replace(run_config, setup=setup, numerics=numerics)


def _solve_runs(cases, quiet=False):
    """One (dset, report) per run configuration, in order.  The cases share a
    contour object and every numerics key but the order; the cases of each
    order are solved in one solve_cases call, and a SingularSystemError names
    the index of its case in cases."""
    results = [None] * len(cases)
    for order in dict.fromkeys(case.numerics.order for case in cases):
        group = [i for i, case in enumerate(cases) if case.numerics.order == order]
        numerics = cases[group[0]].numerics
        rule = QuadratureRule(
            nodes_per_panel=numerics.nodes_per_panel,
            panels_per_arc=numerics.panels_per_arc,
            adaptive=numerics.adaptive_quadrature,
        )
        try:
            solved = solve_cases([cases[i].setup for i in group], order, rule=rule, rcond=numerics.rcond)
        except SingularSystemError as exc:
            exc.case = group[exc.case or 0]
            raise
        for i, (dset, report) in zip(group, solved):
            results[i] = dset, report
            if not quiet:
                print(
                    f"solved order {order}: rows={report.rows} cols={report.cols} "
                    f"max residual {report.max_residual:.3e} condition {report.condition:.3e}"
                )
    return results


def _write_standard_outputs(outdir, run_config, dset, report, vreport, extra=None, tip_fits=False):
    setup = run_config.setup
    write_json(os.path.join(outdir, "densities.json"), dset.to_dict())
    crack, bond = post.crack_face_fields(dset, setup), post.interface_fields(dset, setup)
    post.write_csv(
        os.path.join(outdir, "boundary_fields.csv"),
        {name: np.concatenate([crack[name], bond[name]]) for name in crack},
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
        ((dset, report),) = _solve_runs([run_config], args.quiet)
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


def _sweep_row(param, value, summary, report, vreport):
    """The sweep.csv row of one case, by column name; a value that is
    missing (a fit not made or null, a check not run) is NaN."""
    tips = summary["tip_fits"] or [{}, {}]
    checks = {c.name: c.value for c in vreport.checks}
    row = {
        "value": value,
        **{key: summary[key] for key in ("max_crack_opening", "max_crack_opening_full_arc", "max_crack_aperture")},
        **{f"tip{tip}_{key}": tips[tip].get(key) for tip in (0, 1)
           for key in ("sigma_power_exponent", "tau_log_fit_relative_residual")},
        "max_residual": report.max_residual,
        "condition": report.condition,
        "force_balance": checks.get("force_balance"),
        "single_valuedness": checks.get("single_valuedness"),
    }
    return {"param": param, **{key: float("nan") if v is None else float(v) for key, v in row.items()}}


def _by_column(rows):
    """The columns of rows (dicts with the same keys), by key."""
    return {key: [row[key] for row in rows] for key in rows[0]}


def cmd_sweep(args):
    try:
        run_config = _load_config(args)
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
        if not values:
            raise ConfigError("empty sweep value list")
        cases = [_with_value(run_config, args.param, value) for value in values]
        subdirs = [f"{args.param}_{value:g}" for value in values]
        for i, name in enumerate(subdirs):
            if name in subdirs[:i]:
                first = values[subdirs.index(name)]
                raise ConfigError(f"sweep values {first!r} and {values[i]!r} would both write to {name}")
    except (OSError, ConfigError, ValueError) as exc:
        print(f"sweep setup error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    outdir = _out_dir(run_config, args.out)
    try:
        results = _solve_runs(cases, args.quiet)
    except SingularSystemError as exc:
        print(f"solver failure at {args.param}={values[exc.case]:g}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    rows = []
    for value, name, case, (dset, report) in zip(values, subdirs, cases, results):
        subdir = os.path.join(outdir, name)
        os.makedirs(subdir, exist_ok=True)
        vreport = validate_solution(dset, case.setup)
        summary = _write_standard_outputs(subdir, case, dset, report, vreport, tip_fits=args.tip_fits)
        rows.append(_sweep_row(args.param, value, summary, report, vreport))
    post.write_csv(os.path.join(outdir, "sweep.csv"), _by_column(rows))
    if not args.quiet:
        print(f"sweep outputs written to {outdir}")
    return EXIT_OK


# Each scenario's writer gets its grid cases and their (dset, report)
# solutions and writes its data files.

def _write_fig1(outdir, name, entry, cases, solved):
    curves = [post.crack_face_fields(dset, case.setup, 241) for case, (dset, _) in zip(cases, solved)]
    columns = {"s": curves[0]["s"]}
    for case, curve in zip(cases, curves):
        order = case.numerics.order
        columns.update({f"{col}_order{order}": curve[col] for col in curve if col.endswith("_g0_prime")})
    post.write_csv(os.path.join(outdir, "fig1_density_convergence.csv"), columns)


def _write_fig2_fig3(outdir, name, entry, cases, solved):
    # Each file holds one quantity of boundary_fields, both sides of each case.
    prefixes = ("sigma_n_", "tau_n_") if name == "fig2" else ("ut_prime_", "un_prime_")
    for sample, label in ((post.crack_face_fields, "crack"), (post.interface_fields, "bond")):
        fields = [sample(dset, case.setup, 241) for case, (dset, _) in zip(cases, solved)]
        for prefix in prefixes:
            qname = prefix.partition("_")[0]
            columns = {"s": fields[0]["s"]}
            for case, fld in zip(cases, fields):
                gamma = case.setup.surface.gamma_plus
                columns.update({
                    f"{qname}_{col[len(prefix):]}_gamma{gamma:g}": fld[col] for col in fld if col.startswith(prefix)
                })
            post.write_csv(os.path.join(outdir, f"{name}_{qname}_{label}.csv"), columns)


def _write_fig4(outdir, name, entry, cases, solved):
    (dset, _), setup = solved[0], cases[0].setup
    s = np.linspace(1e-3 * dset.l0, 0.5 * dset.l0, 161)  # right half of the crack
    fld = post.boundary_fields(dset, setup, s)
    post.write_csv(
        os.path.join(outdir, "fig4_displacement_derivatives.csv"),
        {col: fld[col] for col in fld if col == "s" or col.startswith(("ut_prime_", "un_prime_"))},
    )


def _write_fig5(outdir, name, entry, cases, solved):
    for case, (dset, _) in zip(cases, solved):
        post.write_csv(
            os.path.join(outdir, f"fig5_deformed_alpha{case.setup.load.alpha:g}.csv"),
            post.deformed_boundary(dset, case.setup, scale=entry["displacement_scale"]),
        )


def _write_fig5a(outdir, name, entry, cases, solved):
    fld = post.interface_fields(solved[0][0], cases[0].setup, 241)
    post.write_csv(
        os.path.join(outdir, "fig5a_stress_bond.csv"),
        {col: fld[col] for col in fld if col == "s" or col.startswith(("sigma_n_", "tau_n_"))},
    )


def _write_fig6(outdir, name, entry, cases, solved):
    rows = [
        {
            "alpha_rad": float(case.setup.load.alpha),
            "gamma0": float(case.setup.surface.gamma_plus),
            "max_opening": post.max_crack_opening(dset, case.setup),
            "max_opening_full_arc": post.max_crack_opening(dset, case.setup, window=(0.0, 1.0)),
            "max_aperture": post.max_crack_aperture(dset, case.setup),
        }
        for case, (dset, _) in zip(cases, solved)
    ]
    post.write_csv(os.path.join(outdir, "fig6_opening.csv"), _by_column(rows))


_WRITERS = {
    "fig1": _write_fig1,
    "fig2": _write_fig2_fig3,
    "fig3": _write_fig2_fig3,
    "fig4": _write_fig4,
    "fig5": _write_fig5,
    "fig5a": _write_fig5a,
    "fig6": _write_fig6,
}


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
    meta = {**scenario_metadata(name), "order": run_config.numerics.order}  # the order solved
    write_json(os.path.join(outdir, "metadata.json"), meta)
    cases = [run_config]
    for param, values in entry.get("grid", ()):
        cases = [_with_value(case, param, value) for case in cases for value in values]
    # The base is solved as the grid case equal to it, or after the grid.
    runs = cases if run_config in cases else cases + [run_config]
    try:
        solved = _solve_runs(runs, args.quiet)
    except SingularSystemError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    _WRITERS[name](outdir, name, entry, cases, solved)
    dset, report = solved[runs.index(run_config)]
    vreport = validate_solution(dset, run_config.setup)
    _write_standard_outputs(outdir, run_config, dset, report, vreport, extra=meta, tip_fits=args.tip_fits)
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
