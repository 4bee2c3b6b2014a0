"""Fast tests of the benchmark itself, at seconds-scale sizes.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.use_source_tree()

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# The figure each workload names on its report lines, with its unit.
FIGURES = {
    "census": {"census.p23_per_s": "1/s", "census.p61_s": "s",
               "census.search_starts_per_s": "1/s"},
    "stream": {"stream.search_trials_per_s": "1/s", "stream.bytes_per_s": "B/s",
               "stream.outputs_per_s": "1/s"},
    "exchange": {"exchange.session_p50_ms": "ms",
                 "exchange.local_exchanges_per_s": "1/s",
                 "exchange.session_p99_ms": "ms",
                 "exchange.recoveries_per_s": "1/s"},
    "algebra": {"algebra.dim3_checks_per_s": "1/s",
                "algebra.dim4_checks_per_s": "1/s",
                "algebra.sym_expansions_per_s": "1/s"},
}


def tiny_run(workload, trace, out_dir, capsys):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace)], sizes=workloads.TINY, out_dir=out_dir)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for key, declared in (("end_to_end", workloads.END_TO_END),
                          ("per_layer", workloads.PER_LAYER)):
        declared_in_spec = [(m["name"], m["unit"], m["better"]) for m in SPEC[key]]
        assert declared_in_spec == list(declared)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(FIGURES))
def test_tiny_run_emits_every_metric(workload, trace, tmp_path, capsys):
    code, lines, result = tiny_run(workload, trace, tmp_path, capsys)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in FIGURES[workload].items():
        assert any(line.startswith(f"{name} ") and f" {unit} (" in line
                   for line in lines), name
    assert any(line.startswith("error_rate 0 ") for line in lines)
    record = json.loads(
        (tmp_path / f"{workload}-seed7-trace{trace}.json").read_text())
    assert record["stamp"]["seed"] == 7 and record["stamp"]["nproc"] >= 1
    if trace:
        assert record["trace"]["spans"]


def test_wrong_expected_value_counts_as_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(workloads.CENSUS_ANCHORS, (23, (9, 19, 1, 1, 2)),
                        [("share", 528, 66.0, 1.0)])
    code, lines, result = tiny_run("census", 0, tmp_path, capsys)
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1
    rates = [line for line in lines if line.startswith("error_rate ")]
    assert rates and not rates[0].startswith("error_rate 0 ")


def test_self_time_excludes_child_spans(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(spans.time, "perf_counter", lambda: now[0])
    tracer = spans.Tracer()

    def child():
        now[0] += 2.0

    traced_child = tracer.span("child", child)

    def parent():
        traced_child()
        traced_child()
        now[0] += 1.0

    tracer.span("parent", parent)()
    tracer.span("parent", parent)()
    assert tracer.calls == {"child": 4, "parent": 2}
    assert tracer.mean_self_s("parent") == 1.0
    assert tracer.mean_self_s("child") == 2.0
    by_id = {s[0]: s for s in tracer.spans}
    for sid, name, start, end, parent_id, run_id in tracer.spans:
        if name == "child":
            assert by_id[parent_id][1] == "parent" and run_id == parent_id
        else:
            assert parent_id is None and run_id == sid and end - start == 5.0


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
