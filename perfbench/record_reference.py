"""Record the reference outputs that every benchmark pass is checked against.

    python3 perfbench/record_reference.py

Run from the root of a checkout of the commit whose outputs are the
reference; it writes ``perfbench/reference.json``.  The tolerances are
derived from the discretization error at the recorded commit, so that a
change which makes the solution more accurate still matches, while a wrong
solution, off by more than twice that error, does not:

  fig6_opening.csv  each column may move by twice its largest relative change
                    from N=20 to N=24 (load angle and tension match to 1e-12);
  g0' of the ladder at order N may move by twice its distance from the N=64
                    curve; at N=64 by twice the N=48 distance;
  ellipse densities may move by twice their change from N=24 to N=32.

Validation values are error measures: they may shrink freely, but not grow
past FACTORS["fixed"] times the recorded value, or for the seeded ellipse
checks (trial densities and trace samples drawn from the seed) past
FACTORS["seeded"] times the largest value over ELLIPSE_SEEDS seeds, unless
they stay below the check's own tolerance.
"""

import json
import os
import sys
import tempfile

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import worker  # noqa: E402  (after pinning the BLAS threads)

FACTORS = {"fixed": 2.0, "seeded": 5.0}
ELLIPSE_SEEDS = range(32)


def _check_refs(checks, seeded=()):
    refs = {}
    for c in checks:
        key = f"{c['name']}@{c['order']}"
        refs.setdefault(key, {"values": []})["values"].append(c["value"])
        if c["name"] in seeded:
            refs[key]["seeded"] = True
    return refs


def _max_dev(a, b):
    return max(abs(complex(*x) - complex(*y)) for x, y in zip(a, b))


def _amp(curve):
    return max(abs(complex(*x)) for x in curve)


def fig6(tmp):
    coarse = worker.capture("fig6_grid", worker.fig6_grid(os.path.join(tmp, "n20"), 0))
    fine_dir = os.path.join(tmp, "n24")
    code = sys.modules["crackst.cli"].main(
        ["scenario", "fig6", "--out", fine_dir, "--quiet", "--order", "24"])
    assert code == 0, code
    fine = worker.capture("fig6_grid", fine_dir)["outputs"]["fig6_opening"]
    rows = coarse["outputs"]["fig6_opening"]
    rtol = [1e-12, 1e-12] + [
        2.0 * max(abs(g[j] - r[j]) / abs(r[j]) for r, g in zip(rows, fine))
        for j in range(2, len(rows[0]))
    ]
    return {"checks": _check_refs(coarse["checks"]), "fig6_opening": rows,
            "fig6_opening_rtol": rtol}


def ladder(tmp):
    got = worker.capture("order_ladder", worker.order_ladder(tmp, 0))
    curves = got["outputs"]["g0p"]
    top = str(max(worker.LADDER_ORDERS))
    second = str(sorted(worker.LADDER_ORDERS)[-2])
    amp = _amp(curves[top])
    dist = {n: _max_dev(c, curves[top]) / amp for n, c in curves.items()}
    dist[top] = dist[second]
    return {"checks": _check_refs(got["checks"]), "g0p": curves,
            "g0p_tol": {n: 2.0 * d for n, d in dist.items()}}


def ellipse(tmp):
    runs = [worker.capture("ellipse_validate", worker.ellipse_validate(tmp, seed))
            for seed in ELLIPSE_SEEDS]
    seeded = ("cauchy_inversion", "trace_consistency")
    checks = _check_refs(runs[0]["checks"], seeded)
    for run in runs[1:]:
        for key, ref in _check_refs(run["checks"], seeded).items():
            checks[key]["values"] = [max(a, b) for a, b in zip(checks[key]["values"], ref["values"])]
    densities = runs[0]["outputs"]["densities"]
    finer = worker.capture("ellipse_validate", worker.ellipse_validate(tmp, 0, order=32))
    tol = {f: max(2.0 * _max_dev(c, finer["outputs"]["densities"][f]) / _amp(c), 1e-6)
           for f, c in densities.items()}
    return {"checks": checks, "densities": densities, "densities_tol": tol}


def main():
    worker._import_crackst()
    with tempfile.TemporaryDirectory(dir=worker.HERE) as tmp:
        reference = {
            "factors": FACTORS,
            "fig6_grid": fig6(tmp),
            "order_ladder": ladder(tmp),
            "ellipse_validate": ellipse(tmp),
        }
    with open(os.path.join(worker.HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
