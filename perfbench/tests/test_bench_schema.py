import json
import re

from perfbench import run
from perfbench.tracing import Recorder
from perfbench.workloads import WORKLOADS, make_inputs, run_job

from .test_bench_tracing import SMALL_JOBS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in SPEC[k]]
    assert len(names) == len(set(names))
    for k, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                    ("per_layer", {"name", "unit", "better"})):
        for m in SPEC[k]:
            assert set(m) == keys
            assert NAME.match(m["name"]) and m["unit"]
            assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_printed_end_to_end_metrics_are_declared():
    values = run.end_to_end_metrics([1.0, 2.0], [0.1, 0.2],
                                    [((2, 3), 24)])
    metrics = run.with_units(values, "end_to_end")
    declared = run.declared_metrics()
    for name, m in metrics.items():
        assert m["unit"] == declared[name]["unit"]
        assert declared[name]["better"] in ("lower", "higher")
        assert m["value"] > 0


def test_printed_layer_metrics_are_declared(tmp_path):
    rec = Recorder()
    for job, data in zip(SMALL_JOBS, make_inputs(SMALL_JOBS, 3)):
        run_job(job, data, rec, tmp_path)
    metrics = run.with_units(run.layer_metrics([rec], [1.0], [1.0], [1.0]),
                             "per_layer")
    declared = run.declared_metrics()
    assert set(metrics) == {n for n, d in declared.items()
                            if d["kind"] == "per_layer"}
    assert metrics["posets.cells"]["value"] > 0
    assert metrics["reduction.schedule_steps"]["value"] == 9
