"""Span tracing of crackst's layers, installed from outside the package.

Every public function of the layer modules (``cli``, ``geometry``,
``kernels``, ``solver``, ``validation``, ``postprocess``) is wrapped and the
wrapper is stored wherever a caller looks the function up: in each
``crackst.*`` module namespace that holds it, e.g. ``crackst.cli.assemble``
as well as ``crackst.solver.assemble``.  The contour map methods and
``QuadratureRule.discretize`` are wrapped on their classes, so contours built
inside the CLI are traced too.  ``config`` and ``scenarios`` are not wrapped;
their cost lands in the self time of the ``cli`` spans that call them.

A span is ``[parent, name, start, end, info]``, kept in memory; ``info``
holds a per-call work count (points, nodes, matrix size) taken from the
arguments or the result.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "geometry", "kernels", "solver", "validation", "postprocess")
CONTOUR_MAPS = ("point", "tangent", "curvature", "curvature_derivative")


def _points(args, kwargs, out):
    import numpy as np

    return int(np.size(args[1] if len(args) > 1 else kwargs["s"]))


def _nodes(args, kwargs, out):
    return int(out.n_nodes)


def _stabilized(args, kwargs, out):
    return bool(out.meta.get("quadrature_stabilized", True))


def _solve_size(args, kwargs, out):
    report = out[1]
    return {"rows": report.rows, "cols": report.cols, "condition": report.condition}


INFO = {
    "solver.assemble": _stabilized,
    "solver.solve": _solve_size,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [stack[-1] if stack else -1, name, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
            if info is not None:
                rec[4] = info(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap the layers of the already imported ``crackst`` package."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"crackst.{layer}")
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    key = f"{layer}.{name}"
                    wrappers[fn] = self.wrap(key, fn, INFO.get(key))
        for modname, mod in list(sys.modules.items()):
            if modname != "crackst" and not modname.startswith("crackst."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
        geometry = sys.modules["crackst.geometry"]
        for cls in vars(geometry).values():
            if inspect.isclass(cls) and issubclass(cls, geometry.Contour):
                for meth in CONTOUR_MAPS:
                    if meth in vars(cls):
                        fn = vars(cls)[meth]
                        setattr(cls, meth, self.wrap(f"geometry.{cls.__name__}.{meth}", fn, _points))
        rule = sys.modules["crackst.kernels"].QuadratureRule
        rule.discretize = self.wrap("kernels.QuadratureRule.discretize", rule.discretize, _nodes)


def layer_metrics(spans, wall_s):
    """Per-layer counts and times of one traced pass.

    Self time is a span's duration minus the time its direct children cover;
    inclusive layer time sums only the outermost span of each layer.
    """
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[0] >= 0:
            child[s[0]] += dur[i]
    layer = [s[1].split(".", 1)[0] for s in spans]
    func = [s[1].rsplit(".", 1)[1] for s in spans]
    # Parents precede children in the list, so one forward pass fills these.
    above = [frozenset()] * n  # layers of all ancestors
    in_assemble = [False] * n
    for i, s in enumerate(spans):
        p = s[0]
        if p >= 0:
            above[i] = above[p] | {layer[p]}
            in_assemble[i] = in_assemble[p] or spans[p][1] == "solver.assemble"
    outer = [layer[i] not in above[i] for i in range(n)]

    def total(pred, values):
        return float(sum(v for i, v in enumerate(values) if pred(i)))

    def count(pred):
        return sum(1 for i in range(n) if pred(i))

    selfs = [dur[i] - child[i] for i in range(n)]
    geo = lambda i: layer[i] == "geometry"
    disc = lambda i: func[i] == "discretize"
    is_ = lambda name: (lambda i: spans[i][1] == name)
    solves = [spans[i][4] for i in range(n) if spans[i][1] == "solver.solve"]
    assembles = [spans[i][4] for i in range(n) if spans[i][1] == "solver.assemble"]
    out = {f"{name}.self_s": total(lambda i, name=name: layer[i] == name, selfs)
           for name in LAYERS}
    out.update({
        "geometry.calls": count(geo),
        "geometry.points": int(sum(spans[i][4] or 0 for i in range(n) if geo(i))),
        "kernels.discretize_calls": count(disc),
        "kernels.discretize_self_s": total(disc, selfs),
        "kernels.nodes": int(sum(spans[i][4] for i in range(n) if disc(i))),
        "solver.assemble_s": total(is_("solver.assemble"), dur),
        "solver.assemble_calls": len(assembles),
        "solver.assemblies": count(lambda i: disc(i) and in_assemble[i]),
        "solver.quad_stabilized_ratio": (
            sum(assembles) / len(assembles) if assembles else 0.0
        ),
        "solver.solve_s": total(is_("solver.solve"), dur),
        "solver.matrix_cells": int(sum(s["rows"] * s["cols"] for s in solves)),
        "solver.condition_max": max((s["condition"] for s in solves), default=0.0),
        "validation.s": total(lambda i: layer[i] == "validation" and outer[i], dur),
        "validation.validate_s": total(is_("validation.validate_solution"), dur),
        "validation.inversion_s": total(is_("validation.inversion_check"), dur),
        "validation.trace_s": total(is_("validation.trace_consistency"), dur),
        "validation.surface_s": total(is_("validation.original_bc_residual"), dur),
        "validation.conservation_s": total(is_("validation.conservation_checks"), dur),
        "validation.inversion_checks": count(is_("validation.inversion_check")),
        "validation.stress_traces": count(is_("validation.stress_trace")),
        "postprocess.s": total(lambda i: layer[i] == "postprocess" and outer[i], dur),
        "postprocess.write_s": total(
            lambda i: layer[i] == "postprocess" and func[i].startswith("write_"), dur
        ),
        "postprocess.calls": count(lambda i: layer[i] == "postprocess"),
        "trace.spans": n,
        "trace.unattributed_s": wall_s - total(lambda i: spans[i][0] < 0, dur),
    })
    return out
