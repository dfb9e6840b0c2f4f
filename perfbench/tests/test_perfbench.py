"""Self-tests of the benchmark harness: tracing, reduction, verification and
the metric names it prints."""

import dataclasses
import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from screwgen import pipeline
from screwgen.control_map import ControlMap
from screwgen.splines import SplineMap, uniform_knots

from perfbench import harness
from perfbench import trace as tr
from perfbench.verify import verify

ROOT = Path(__file__).resolve().parents[2]


def _bindings():
    """Every attribute of the modules and classes the tracer may rebind."""
    owners = {}
    plan, _ = tr._plan()
    for owner, _, _, _ in plan:
        owners[id(owner)] = owner
    for module_name in {m for m, _, _ in tr.FUNCTIONS}:
        module = importlib.import_module(module_name)
        owners[id(module)] = module
    return {(id(owner), name): value for owner in owners.values()
            for name, value in list(vars(owner).items())}


def _assert_same(before, after):
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert not changed


def test_wrappers_restore_original_bindings():
    before = _bindings()
    original = pipeline.fit_curve
    tracer = tr.Tracer()
    with tr.instrument(tracer):
        assert pipeline.fit_curve is not original
        t = np.linspace(0.0, 1.0, 40)
        points = np.column_stack([np.cos(t), np.sin(t)])
        with tracer.root("angle"):
            pipeline.fit_curve(points, t, uniform_knots(3, 4))
    _assert_same(before, _bindings())
    names = {span.name for span in tracer.spans}
    assert {"angle", "fitting.fit_curve", "splines.basis"} <= names
    assert not tracer.missing

    with pytest.raises(RuntimeError):
        with tr.instrument(tr.Tracer()):
            raise RuntimeError("interrupted run")
    _assert_same(before, _bindings())


def test_wrappers_record_nothing_outside_a_root_span():
    tracer = tr.Tracer()
    with tr.instrument(tracer):
        t = np.linspace(0.0, 1.0, 40)
        pipeline.fit_curve(np.column_stack([t, t * t]), t, uniform_knots(3, 4))
    assert tracer.spans == []


def test_self_time_is_duration_minus_child_coverage():
    Span = tr.Span
    spans = [Span("root", 0.0, 10.0, -1, 0),
             Span("a", 1.0, 4.0, 0, 0),
             Span("b", 3.0, 6.0, 0, 0),    # overlaps a: together they cover [1, 6]
             Span("c", 2.0, 3.0, 1, 0),    # a grandchild does not count for root
             Span("d", 9.0, 12.0, 0, 0)]   # clipped to the root's end: [9, 10]
    assert tr.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_root_stats_on_a_synthetic_solve():
    Span = tr.Span
    spans = [Span("angle", 0.0, 10.0, -1, 0),
             Span("egg.solve", 1.0, 9.0, 0, 0, {"steps": 2}),
             Span("egg.residual", 1.0, 2.0, 1, 0),
             Span("egg.factor", 2.0, 5.0, 1, 0, {"nnz": 7, "unknowns": 3}),
             Span("egg.residual", 5.0, 6.0, 1, 0),
             Span("egg.factor", 6.0, 8.0, 1, 0, {"nnz": 5, "unknowns": 3}),
             Span("egg.residual", 8.0, 9.0, 1, 0)]
    acc = tr.root_stats(spans)[0]
    assert acc["n:egg.factor"] == 2
    assert acc["egg.solve.steps"] == 2
    assert acc["egg.factor.nnz"] == 7
    assert acc["line_search_evals"] == 2
    assert acc["total:egg"] == pytest.approx(8.0)
    assert acc["self:egg"] == pytest.approx(8.0)
    assert acc["t:egg.factor"] == pytest.approx(5.0)


@pytest.fixture(scope="module")
def patch_set():
    workload = harness.Workload(harness.TABLE2, 1e-3, False, (0.25,))
    return harness.make_context(workload).build_patches(math.pi / 4)


def _with_separator(patch_set, control_points):
    sep = patch_set.separator
    new_map = SplineMap(sep.map.basis, control_points)
    return dataclasses.replace(
        patch_set, separator=dataclasses.replace(sep, map=new_map))


def test_verifier_accepts_a_returned_set(patch_set):
    assert verify(patch_set, harness.TABLE2) is None


def test_verifier_rejects_a_folded_map(patch_set):
    cp = np.array(patch_set.separator.map.control_points)
    i, j = 2, cp.shape[0] - 3
    cp[[i, j], 1:-1] = cp[[j, i], 1:-1]
    assert verify(_with_separator(patch_set, cp), harness.TABLE2) == "fold"


def test_verifier_rejects_an_infeasible_control_map(patch_set):
    control = patch_set.control
    coeffs = np.array(control.coeffs)
    coeffs[:, 1] = 0.1 * control.margin
    infeasible = ControlMap(control.basis, coeffs, control.margin)
    bad = dataclasses.replace(patch_set, control=infeasible)
    assert verify(bad, harness.TABLE2) == "control"


def test_verifier_rejects_a_displaced_separator(patch_set):
    cp = np.array(patch_set.separator.map.control_points)
    cp += 1e-4 * harness.TABLE2.screw_radius
    assert verify(_with_separator(patch_set, cp), harness.TABLE2) == "interface"


def test_printed_metric_names_appear_in_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    record = harness.AngleRecord(0.0, build_s=2.0, ortho_ratio=0.8,
                                 min_scaled_jac=0.5)
    e2e = harness.end_to_end_metrics([[record]], [0.1, 0.2], 300.0)
    assert {k: unit for k, (_, unit) in e2e.items()} == declared_e2e

    tracer = tr.Tracer()
    with tracer.root("setup"):
        pass
    with tracer.root("angle"):
        pass
    layer = tr.layer_metrics(tracer, tr.root_stats(tracer.spans), [0], [[1]],
                             0.0)
    assert {k: unit for k, (_, unit) in layer.items()} == declared_layer
