"""Boundary stresses and displacement derivatives for several face tensions.

Same inclusion/matrix pair as demo 01, but the interface tension is switched
off and the crack-face tension is swept over 0.1, 0.5 and 1.0.  The stronger
the faces resist curvature change, the flatter the mid-crack response; the
script exports the normal/shear stress and displacement-derivative profiles
on both the debonded and bonded arcs.
"""

import os

import numpy as np

import crackst as cs
from crackst import postprocess as post

os.makedirs("demo_output", exist_ok=True)

profiles = {}
for gamma in (0.1, 0.5, 1.0):
    setup = cs.ProblemSetup(
        contour=cs.circular_contour(1.0, (0.0, np.pi)),
        matrix=cs.Material(40.0, 0.25),
        inclusion=cs.Material(60.0, 0.35),
        surface=cs.SurfaceTension(gamma, gamma, 0.0),
        load=cs.RemoteLoad(1.0, 0.0, 0.0),
    )
    dset, _ = cs.solve_problem(setup, 24)
    crack = post.crack_face_fields(dset, setup, n_samples=181)
    bond = post.interface_fields(dset, setup, n_samples=181)
    profiles[gamma] = (crack, bond)
    mid = 90
    print(
        f"gamma={gamma}: crack mid sigma_n+0 = {crack['sigma_n_plus_0'][mid]:+.4f}, "
        f"bond mid sigma_n+0 = {bond['sigma_n_plus_0'][mid]:+.4f}"
    )

# Column names as in the fig2 files of `crackst scenario fig2`.
for arc_name, idx in (("crack", 0), ("bond", 1)):
    fields = {gamma: pair[idx] for gamma, pair in profiles.items()}
    columns = {"s": next(iter(fields.values()))["s"]}
    for q in ("sigma", "tau"):
        columns.update({f"{q}_plus_0_gamma{g:g}": fld[f"{q}_n_plus_0"] for g, fld in fields.items()})
    path = f"demo_output/stress_{arc_name}_vs_gamma.csv"
    post.write_csv(path, columns)
    print(f"wrote {path}")
