"""Maximal crack opening versus face tension for several load angles.

The opening measure is the largest displacement-derivative jump across the
crack faces over the central half of the crack (the near-tip zones are
extrapolation-dominated at practical orders and are excluded from the
default measure; the full-arc value is exported alongside).  Stiffer faces
open less for every load direction.

All cases share one contour object, so a single ``solve_cases`` call builds
the operator tables once per quadrature level and factorizes one matrix per
face tension for all three load angles.
"""

import csv
import os
from dataclasses import replace

import numpy as np

import crackst as cs

os.makedirs("demo_output", exist_ok=True)
base = cs.ProblemSetup(
    contour=cs.circular_contour(1.0, (0.0, np.pi)),
    matrix=cs.Material(40.0, 0.25),
    inclusion=cs.Material(60.0, 0.35),
    surface=cs.SurfaceTension(0.1, 0.1, 0.0),
    load=cs.RemoteLoad(1.0, 0.0, 0.0),
)
grid = [(alpha, gamma0) for alpha in (0.0, np.pi / 4, np.pi / 2) for gamma0 in (0.1, 0.25, 0.5, 1.0)]
setups = [
    replace(base, surface=cs.SurfaceTension(gamma0, gamma0, 0.0), load=cs.RemoteLoad(1.0, 0.0, alpha))
    for alpha, gamma0 in grid
]
rows = []
for (alpha, gamma0), setup, (dset, _) in zip(grid, setups, cs.solve_cases(setups, 20)):
    rows.append(
        (
            alpha,
            gamma0,
            cs.max_crack_opening(dset, setup),
            cs.max_crack_opening(dset, setup, window=(0.0, 1.0)),
            cs.max_crack_aperture(dset, setup),
        )
    )
    print(
        f"alpha={alpha:.3f} gamma0={gamma0:4.2f}: "
        f"opening {rows[-1][2]:.5f}, aperture {rows[-1][4]:.5f}"
    )

with open("demo_output/opening_sweep.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["alpha_rad", "gamma0", "max_opening", "max_opening_full_arc", "max_aperture"])
    writer.writerows([[f"{v:.10e}" for v in r] for r in rows])
print("wrote demo_output/opening_sweep.csv")
