"""Stiff glass inclusion in an epoxy matrix with a 60-degree debond.

A strong stiffness contrast (shear moduli 44.2 vs 2.39) and a short crack
spanning polar angles -30..30 degrees, loaded by unit tension inclined at 30
degrees.  With nearly vanishing surface tension the bonded-arc stresses
approach the classical sharp-interface solution; the script exports them and
reports the conserved integrals as a health check.
"""

import os

import numpy as np

import crackst as cs
from crackst import postprocess as post

setup = cs.ProblemSetup(
    contour=cs.circular_contour(1.0, (-np.pi / 6, np.pi / 6)),
    matrix=cs.Material(2.39, 0.35),
    inclusion=cs.Material(44.2, 0.22),
    surface=cs.SurfaceTension(1e-4, 1e-4, 0.0),
    load=cs.RemoteLoad(1.0, 0.0, np.pi / 6),
)
dset, report = cs.solve_problem(setup, 30)
print(f"residual {report.max_residual:.2e}, condition {report.condition:.1e}")
for check in cs.conservation_checks(dset, setup):
    print(f"{check.name}: {check.value:.2e} (tolerance {check.tolerance:g})")

os.makedirs("demo_output", exist_ok=True)
bond = post.interface_fields(dset, setup, n_samples=241)
post.write_csv("demo_output/glass_epoxy_bond.csv", bond)
imax = np.argmax(np.abs(bond["sigma_n_plus_0"]))
print(
    f"peak bonded-arc normal stress {bond['sigma_n_plus_0'][imax]:+.3f} "
    f"at s = {bond['s'][imax]:.3f}; wrote demo_output/glass_epoxy_bond.csv"
)
