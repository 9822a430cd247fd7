"""tools/bench_point.py: perfbench run records -> one BENCH_<n>.json point."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_point", os.path.join(ROOT, "tools", "bench_point.py"))
bench_point = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_point)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
END_TO_END = [m["name"] for m in BENCH["end_to_end"]]


def _write_run(runs, workload, seed, trace, metrics, sha="abc"):
    record = {"workload": workload, "seed": seed, "seconds": 25, "trace": trace,
              "smoke": False, "nproc": 2, "machine": "x86_64", "python": "3.11",
              "numpy": "2.0", "scipy": "1.0", "git_sha": sha, "details": {}}
    result = {"correct": True, "attempted": 10, "failed": 1,
              "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}
    with open(runs / f"{workload}-{seed}-t{trace}.json", "w") as fh:
        json.dump({"record": record, "result": result}, fh)


def test_parse_seeds():
    assert bench_point.parse_seeds("1-3,7") == {1, 2, 3, 7}
    assert bench_point.parse_seeds("5") == {5}


def test_point_summarizes_the_chosen_seeds(tmp_path):
    runs = tmp_path / "runs"
    runs.mkdir()
    for seed, value in ((1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0), (5, 5.0), (9, 100.0)):
        _write_run(runs, "analytic-sweep", seed, 0, {n: value for n in END_TO_END})
    _write_run(runs, "analytic-sweep", 1, 1, {"models.phi.calls": 7.0})
    out = tmp_path / "BENCH_0.json"
    argv = ["--seeds", "1-5", "--out", str(out), "--runs", str(runs)]
    assert bench_point.main(["--label", "parent"] + argv) == 0
    assert bench_point.main(["--label", "change"] + argv) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc) == ["change", "parent"]
    entry = doc["change"]["workloads"]["analytic-sweep"]
    assert entry["seeds"] == [1, 2, 3, 4, 5]  # seed 9 is not collected
    assert entry["end_to_end"]["op_s.gmean"] == pytest.approx(
        {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5, "unit": "s"})
    assert entry["per_layer"] == {"models.phi.calls": {
        "median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1, "unit": "count"}}
    assert doc["change"]["env"]["git_sha"] == "abc"
    assert doc["change"]["env"]["nproc"] == 2
    assert bench_point.main(["--label", "x", "--seeds", "42", "--out", str(out),
                             "--runs", str(runs)]) == 2
