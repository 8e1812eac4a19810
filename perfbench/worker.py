"""One pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py '{"workload": "order_ladder", "seed": 7, "trace": false, "out": DIR}'

With ``"trace": true`` the JSON also names a ``"spans"`` file, which receives
the pass's spans when it ends.

The worker imports the CLI package from ``src/`` of the checkout (this is
the set-up a ``crackst`` command pays), runs the workload once, checks its
outputs against ``reference.json`` and prints one JSON line: the monotonic
time at which the import finished, the pass's wall time, peak resident
memory, the accuracy figures of its solves and checks, the list of output
mismatches and, when traced, the per-layer metrics.  ``run.py`` drives it.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_crackst():
    sys.path.insert(0, SRC)
    import crackst.cli  # noqa: F401  (what the console script imports)

    return time.monotonic()


# -- workloads ---------------------------------------------------------------
# Each pass function takes (out_dir, seed) and returns a state object that
# ``capture`` turns into outputs; only the pass function is timed.  Program
# functions are looked up on their modules at call time, so a traced run
# sees the wrapped versions.

LADDER_ORDERS = (16, 24, 32, 48, 64)
ELLIPSE_AXES = (1.5, 1.0)
ELLIPSE_ORDER = 24
# g0' of the ladder and the ellipse densities are sampled here, as fractions
# of each arc.
SAMPLE_FRACTIONS = tuple(0.1 + 0.05 * k for k in range(17))


def _reference_setup(contour):
    import crackst as cs

    return cs.ProblemSetup(
        contour=contour,
        matrix=cs.Material(40.0, 0.25),
        inclusion=cs.Material(60.0, 0.35),
        surface=cs.SurfaceTension(0.1, 0.1, 0.1),
        load=cs.RemoteLoad(1.0, 0.0, 0.0),
    )


def fig6_grid(out, seed):
    cli = sys.modules["crackst.cli"]
    code = cli.main(["scenario", "fig6", "--out", out, "--quiet"])
    if code != 0:
        raise RuntimeError(f"crackst scenario fig6 exited with code {code}")
    return out


def order_ladder(out, seed):
    import numpy as np

    import crackst as cs

    solver, validation = cs.solver, cs.validation
    setup = _reference_setup(cs.circular_contour(1.0, (0.0, np.pi)))
    results = []
    for n in LADDER_ORDERS:
        dset, report = solver.solve_problem(setup, n)
        checks = [validation.original_bc_residual(dset, setup)]
        checks += validation.conservation_checks(dset, setup)
        results.append((n, dset, report, checks))
    return results


def ellipse_validate(out, seed, order=ELLIPSE_ORDER):
    import numpy as np

    import crackst as cs

    solver, validation = cs.solver, cs.validation
    setup = _reference_setup(cs.elliptical_contour(*ELLIPSE_AXES, (0.0, np.pi)))
    numerics = cs.Numerics(order=order)
    rule = cs.QuadratureRule(
        nodes_per_panel=numerics.nodes_per_panel,
        panels_per_arc=numerics.panels_per_arc,
        adaptive=numerics.adaptive_quadrature,
    )
    system = solver.assemble(setup, numerics.order, rule=rule, **numerics.assemble_kwargs())
    dset, report = solver.solve(system, rcond=numerics.rcond)
    vreport = validation.validate_solution(dset, setup, seed=seed)
    vreport.write_json(os.path.join(out, "validation.json"))
    return dset, report, vreport


WORKLOADS = {
    "fig6_grid": fig6_grid,
    "order_ladder": order_ladder,
    "ellipse_validate": ellipse_validate,
}


# -- outputs -----------------------------------------------------------------
# ``capture`` returns {"solves": [...], "checks": [...], "outputs": {...}}.
# Solves and checks carry the order they ran at; outputs are what the
# reference comparison reads.

FIG6_FILES = (
    "config.ini",
    "metadata.json",
    "fig6_opening.csv",
    "densities.json",
    "boundary_fields.csv",
    "validation.json",
    "summary.json",
)


def _solve_record(order, report):
    return {
        "order": order,
        "rows": report["rows"],
        "cols": report["cols"],
        "rank": report["rank"],
        "condition": report["condition"],
        "max_residual": report["max_residual"],
    }


def _check_record(order, check):
    return {
        "order": order,
        "name": check["name"],
        "value": check["value"],
        "tolerance": check["tolerance"],
        "passed": bool(check["passed"]),
        "relative": check["details"].get("relative"),
    }


def _samples(dset, name, arcs=(0,)):
    import numpy as np

    s = []
    for arc in arcs:
        lo, hi = (0.0, dset.l0) if arc == 0 else (dset.l0, dset.l)
        s.extend(lo + f * (hi - lo) for f in SAMPLE_FRACTIONS)
    vals = dset.eval(name, np.asarray(s))
    return [[float(v.real), float(v.imag)] for v in vals]


def capture(workload, state):
    if workload == "fig6_grid":
        import csv

        out = state
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        with open(os.path.join(out, "validation.json")) as fh:
            checks = json.load(fh)["checks"]
        with open(os.path.join(out, "fig6_opening.csv"), newline="") as fh:
            rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
        order = summary["order"]
        sizes = {name: os.path.getsize(os.path.join(out, name)) for name in FIG6_FILES
                 if os.path.exists(os.path.join(out, name))}
        return {
            "solves": [_solve_record(order, summary["residual_report"])],
            "checks": [_check_record(order, c) for c in checks],
            "outputs": {"fig6_opening": rows, "file_sizes": sizes},
        }
    if workload == "order_ladder":
        return {
            "solves": [_solve_record(n, r.to_dict()) for n, _, r, _ in state],
            "checks": [_check_record(n, c.to_dict()) for n, _, _, cs in state for c in cs],
            "outputs": {"g0p": {str(n): _samples(d, "g0p") for n, d, _, _ in state}},
        }
    dset, report, vreport = state
    return {
        "solves": [_solve_record(dset.n, report.to_dict())],
        "checks": [_check_record(dset.n, c.to_dict()) for c in vreport.checks],
        "outputs": {
            "densities": {f: _samples(dset, f, (0, 1)) for f in ("q0", "g0p", "q", "gp")},
        },
    }


def _curve_mismatch(name, got, ref, tol):
    """Max distance between sampled complex curves, relative to the
    reference amplitude; returns a message when it exceeds ``tol``."""
    if len(got) != len(ref):
        return f"{name}: {len(got)} samples, expected {len(ref)}"
    amp = max(max(abs(complex(*r)) for r in ref), 1e-300)
    err = max(abs(complex(*g) - complex(*r)) for g, r in zip(got, ref)) / amp
    if not err <= tol:
        return f"{name}: relative deviation {err:.3e} exceeds {tol:.3e}"
    return None


def _check_mismatch(check, ref_value, factor):
    """A validation value is an error measure: it may shrink freely but may
    not grow past ``factor`` times its reference or past the check's own
    tolerance, whichever is larger."""
    limit = max(factor * ref_value, check["tolerance"])
    if not check["value"] <= limit:
        return (f"{check['name']} at order {check['order']}: {check['value']:.3e} "
                f"above {limit:.3e}")
    return None


def compare(workload, captured, reference):
    """List of mismatches between a pass's outputs and the reference."""
    ref = reference[workload]
    out = captured["outputs"]
    problems = []
    by_order = {}
    for c in captured["checks"]:
        by_order.setdefault((c["name"], c["order"]), []).append(c)
    for key, limits in ref["checks"].items():
        name, order = key.rsplit("@", 1)
        got = by_order.get((name, int(order)), [])
        if len(got) != len(limits["values"]):
            problems.append(f"{key}: {len(got)} results, expected {len(limits['values'])}")
            continue
        factor = reference["factors"]["seeded" if limits.get("seeded") else "fixed"]
        problems += [_check_mismatch(c, v, factor) for c, v in zip(got, limits["values"])]
    if workload == "fig6_grid":
        rows, ref_rows = out["fig6_opening"], ref["fig6_opening"]
        if len(rows) != len(ref_rows):
            problems.append(f"fig6_opening.csv: {len(rows)} rows, expected {len(ref_rows)}")
        for i, (row, r) in enumerate(zip(rows, ref_rows)):
            for j, (v, rv, t) in enumerate(zip(row, r, ref["fig6_opening_rtol"])):
                if not abs(v - rv) <= t * abs(rv):
                    problems.append(f"fig6_opening.csv row {i} col {j}: {v!r} vs {rv!r}")
        problems += [f"{name}: missing or empty" for name in FIG6_FILES
                     if not out["file_sizes"].get(name)]
    elif workload == "order_ladder":
        for n, curve in ref["g0p"].items():
            problems.append(_curve_mismatch(f"g0' at order {n}", out["g0p"].get(n, []),
                                            curve, ref["g0p_tol"][n]))
    else:
        for f, curve in ref["densities"].items():
            problems.append(_curve_mismatch(f"ellipse {f}", out["densities"][f], curve,
                                            ref["densities_tol"][f]))
    return [p for p in problems if p]


# -- environment -------------------------------------------------------------

def environment():
    import numpy as np

    scipy = sys.modules.get("scipy")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": getattr(scipy, "__version__", "not imported"),
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def main():
    imported_at = _import_crackst()
    import resource

    args = json.loads(sys.argv[1])
    workload, out = args["workload"], args["out"]
    tracer = None
    if args["trace"]:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    result = {"imported_at": imported_at, "error": None, "mismatches": []}
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        state = WORKLOADS[workload](out, args["seed"])
    except Exception as exc:  # a failed operation is counted, not fatal
        result["error"] = f"{type(exc).__name__}: {exc}"
        state = None
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = time.process_time() - c0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, result["wall_s"])
        with open(args["spans"], "w") as fh:
            json.dump(tracer.spans, fh)
    if state is not None:
        try:
            captured = capture(workload, state)
            with open(os.path.join(HERE, "reference.json")) as fh:
                reference = json.load(fh)
            result["mismatches"] = compare(workload, captured, reference)
            result["solves"], result["checks"] = captured["solves"], captured["checks"]
        except Exception as exc:  # unreadable or malformed outputs
            result["error"] = f"output check: {type(exc).__name__}: {exc}"
    result["env"] = environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
