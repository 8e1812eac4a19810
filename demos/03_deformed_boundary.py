"""Displaced interface shapes under horizontal and vertical remote tension.

Integrates the displacement-derivative traces along the boundary (inclusion
side anchored at the crack midpoint, matrix side matched across the bonded
arc) and exports the undeformed and displaced curves with the displacements
magnified for visibility.  Under horizontal tension the crack gapes near its
center; under vertical tension the faces may overlap since no contact
condition is imposed.
"""

import os

import numpy as np

import crackst as cs
from crackst import postprocess as post

os.makedirs("demo_output", exist_ok=True)

for label, alpha in (("horizontal", 0.0), ("vertical", np.pi / 2)):
    setup = cs.ProblemSetup(
        contour=cs.circular_contour(1.0, (0.0, np.pi)),
        matrix=cs.Material(40.0, 0.25),
        inclusion=cs.Material(60.0, 0.35),
        surface=cs.SurfaceTension(0.1, 0.1, 0.05),
        load=cs.RemoteLoad(1.0, 0.0, alpha),
    )
    dset, _ = cs.solve_problem(setup, 24)
    columns = post.deformed_boundary(dset, setup, scale=2.0)
    path = f"demo_output/deformed_{label}.csv"
    post.write_csv(path, columns)
    gap = np.hypot(
        columns["x_deformed_inclusion"] - columns["x_deformed_matrix"],
        columns["y_deformed_inclusion"] - columns["y_deformed_matrix"],
    )
    on_crack = columns["s"] <= setup.contour.l0
    print(
        f"{label}: max face separation (scaled) = {np.max(gap[on_crack]):.4f}, "
        f"wrote {path}"
    )
