"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench

The smoke tests run tiny versions of each workload through the same
fresh-process path as the benchmark, a few seconds in all.
"""

import dataclasses
import json
import os

import pytest

import layers
import run
from spans import self_costs
from workloads import SMOKE, WORKLOADS


def _span(name, start, end, parent, rss=(0, 0)):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "run": "r", "rss_start_kb": rss[0], "rss_end_kb": rss[1],
            "counts": None}


def test_self_costs_on_a_synthetic_tree():
    spans = [
        _span("cli.main", 0.0, 10.0, None, (100, 400)),
        _span("experiments.goe_demo", 1.0, 9.0, 0, (100, 400)),
        _span("filtration.run_filtration", 2.0, 5.0, 1, (100, 300)),
        _span("output.emit_csv", 6.0, 8.5, 1, (300, 350)),
        _span("output.write_metadata", 8.6, 8.8, 1, (350, 350)),
    ]
    costs = self_costs(spans)
    times = [round(t, 9) for t, _ in costs]
    assert times == [2.0, 2.3, 3.0, 2.5, 0.2]
    assert sum(times) == pytest.approx(10.0)
    assert [kb for _, kb in costs] == [0, 50, 200, 50, 0]


def test_layer_metrics_map_spans_to_layers():
    spans = [
        _span("cli.import", 0.0, 0.5, None),
        _span("cli.main", 0.5, 4.0, None),
        _span("experiments.sweep_n_epsilon", 0.6, 3.9, 1),
        _span("filtration.run_filtration", 1.0, 3.0, 2),
        _span("filtration.FiltrationSetup.string_rows", 1.5, 2.0, 3),
    ]
    spans[3]["counts"] = {"steps": 1000}
    spans[4]["counts"] = {"samples": 10}
    metrics = layers.layer_metrics(spans)
    assert metrics["cli.import_s"] == pytest.approx(0.5)
    assert metrics["cli.self_s"] == pytest.approx(0.2)
    assert metrics["experiments.self_s"] == pytest.approx(1.3)
    assert metrics["filtration.run_s"] == pytest.approx(1.5)
    assert metrics["filtration.string_s"] == pytest.approx(0.5)
    assert metrics["filtration.us_per_step"] == pytest.approx(1500.0)
    assert metrics["filtration.ms_per_string_sample"] == pytest.approx(50.0)
    assert layers.accounted_s(metrics) == pytest.approx(4.0)


def test_end_to_end_scales_times_by_the_probe():
    def untraced(wall, setup, probe_s):
        return {"mode": "untraced", "ok": True, "wall_s": wall,
                "setup_s": setup, "peak_rss_mb": 100.0, "probe_s": probe_s,
                "host_scale": 1.0 / probe_s}
    runs = [untraced(4.0, 1.0, 2.0), untraced(3.0, 0.6, 1.0),
            untraced(1.5, 0.4, 0.5)]
    metrics = run.end_to_end(runs)
    assert metrics["wall_s"]["value"] == pytest.approx(3.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.6)
    assert metrics["peak_rss_mb"]["value"] == pytest.approx(100.0)


def _tampered(workload, change):
    def inputs(seed):
        doc, expected = workload.inputs(seed)
        return doc, change(dict(expected))
    return dataclasses.replace(workload, inputs=inputs)


def test_a_tampered_reference_fails_the_run_not_the_harness(tmp_path):
    sweep = SMOKE["tower-sweep"]
    wrong = _tampered(sweep, lambda e: dict(e, n_eps={**e["n_eps"], 6: 24}))
    runs, _ = run.measure(wrong, 23, 0, False, str(tmp_path / "a"))
    assert runs and not any(r["ok"] for r in runs)
    assert all("n_eps" in " ".join(r["problems"]) for r in runs)
    assert run.end_to_end(runs) == {}

    missing = _tampered(SMOKE["goe-demo"], lambda e: {})
    runs, _ = run.measure(missing, 23, 0, False, str(tmp_path / "b"))
    assert not any(r["ok"] for r in runs)
    assert all("output check raised" in r["problems"][0] for r in runs)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_workload_end_to_end_and_traced(name, tmp_path):
    workload = SMOKE[name]
    runs, _ = run.measure(workload, 23, 0, False, str(tmp_path / "u"))
    assert len(runs) == run.MIN_CYCLES[False]
    assert all(r["ok"] for r in runs), [r["problems"] for r in runs]
    metrics = run.end_to_end(runs)
    assert set(metrics) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in metrics.values())

    runs, _ = run.measure(workload, 23, 0, True, str(tmp_path / "t"))
    assert [r["mode"] for r in runs] == ["untraced", "traced"]
    assert all(r["ok"] for r in runs), [r["problems"] for r in runs]
    metrics = run.per_layer(runs)
    assert set(metrics) == {name for name, _, _ in layers.PER_LAYER}
    assert metrics["filtration.steps"]["value"] > 0
    assert metrics["output.csv_rows"]["value"] > 0


def test_benchmark_json_lists_what_the_harness_reports():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(name, unit) for name, unit, _ in layers.PER_LAYER]
