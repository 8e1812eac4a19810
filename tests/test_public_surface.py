"""The exported names resolve, and the benchmark's workloads still run on
the library as it is: a trim that removes something they call fails here
rather than only in a benchmark run."""

import importlib
import importlib.util
import json
import pkgutil
from pathlib import Path

import pytest

import crackst

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


@pytest.fixture(scope="module")
def worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_exports_resolve():
    missing = [name for name in crackst.__all__ if not hasattr(crackst, name)]
    assert not missing
    assert len(set(crackst.__all__)) == len(crackst.__all__)


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(crackst.__path__)])
def test_module_exports_resolve(name):
    module = importlib.import_module(f"crackst.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _assert_captured(captured, order):
    assert captured["solves"] and captured["checks"]
    for solve in captured["solves"]:
        assert solve["order"] == order
        assert solve["rank"] == solve["cols"]


def test_benchmark_ellipse_validate_runs(worker, tmp_path):
    state = worker.ellipse_validate(str(tmp_path), 0, order=8)
    assert (tmp_path / "validation.json").is_file()
    captured = worker.capture("ellipse_validate", state)
    _assert_captured(captured, 8)
    assert len(captured["checks"]) == 7
    assert set(captured["outputs"]["densities"]) == {"q0", "g0p", "q", "gp"}


def test_benchmark_order_ladder_runs(worker, tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "LADDER_ORDERS", (8,))
    captured = worker.capture("order_ladder", worker.order_ladder(str(tmp_path), 0))
    _assert_captured(captured, 8)
    assert [c["name"] for c in captured["checks"]] == [
        "surface_condition_residual", "force_balance", "single_valuedness",
    ]
    assert list(captured["outputs"]["g0p"]) == ["8"]


def _reference():
    return json.loads((WORKER.parent / "reference.json").read_text())


def test_benchmark_fig6_grid_runs(worker, tmp_path):
    captured = worker.capture("fig6_grid", worker.fig6_grid(str(tmp_path), 0))
    _assert_captured(captured, 20)
    assert set(captured["outputs"]["file_sizes"]) == set(worker.FIG6_FILES)
    assert len(captured["outputs"]["fig6_opening"]) == 9  # 3 load angles x 3 face tensions
    assert worker.compare("fig6_grid", captured, _reference()) == []


@pytest.mark.parametrize("workload", ["order_ladder", "ellipse_validate"])
def test_benchmark_outputs_match_reference_at_full_size(worker, tmp_path, workload):
    """The benchmark's output gate on a seed-0 pass of the workload as the
    benchmark runs it."""
    captured = worker.capture(workload, worker.WORKLOADS[workload](str(tmp_path), 0))
    assert worker.compare(workload, captured, _reference()) == []
