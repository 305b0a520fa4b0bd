"""Tests of the benchmark's own logic.

Run with: python3 -m pytest perfbench/tests
"""
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
from gate import check_command  # noqa: E402
from tracer import self_times  # noqa: E402
from workloads import WHY, WORKLOADS, commands, generate_inputs, resolve  # noqa: E402


def span(sid, start, end, parent):
    return [sid, f"s{sid}", start, end, parent, 0]


def test_self_time_subtracts_children_once():
    spans = [
        span(0, 0.0, 10.0, -1),
        span(1, 1.0, 4.0, 0),
        span(2, 3.0, 6.0, 0),  # overlaps span 1: [1, 6] is covered once
        span(3, 2.0, 3.0, 1),
        span(4, 9.0, 12.0, 0),  # runs past its parent: clipped to [9, 10]
    ]
    got = self_times(spans)
    assert got == pytest.approx({0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0})


def test_self_time_of_leaf_is_its_duration():
    assert self_times([span(7, 2.5, 3.0, -1)]) == pytest.approx({7: 0.5})


def _autos_output(tmp_path):
    files = generate_inputs(3, tmp_path)
    command = next(c for c in commands("small-inputs") if c.argv[2] == "{heawood}")
    proc = subprocess.run(
        [sys.executable, "-m", "amalgamlab.cli", *resolve(command, files)],
        capture_output=True, text=True, cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src")}, timeout=120,
    )
    return command, proc


def test_gate_accepts_real_report_and_rejects_one_tampered_order(tmp_path):
    command, proc = _autos_output(tmp_path)
    assert check_command(command, proc.returncode, proc.stdout) == []
    report = json.loads(proc.stdout)
    report["checks"][0]["details"]["order"] += 1
    problems = check_command(command, proc.returncode, json.dumps(report))
    assert len(problems) == 1 and "order" in problems[0]


def test_gate_rejects_exit_code_and_overall():
    command = commands("tc-pipeline")[0]
    assert any("exit code 1" in p for p in check_command(command, 1, ""))
    report = {"command": command.command, "inputs": {}, "checks": [], "overall": "violated"}
    problems = check_command(command, 0, json.dumps(report))
    assert any("overall" in p for p in problems)


def test_inputs_depend_only_on_seed(tmp_path):
    texts = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        files = generate_inputs(5, tmp_path / name)
        texts.append({k: Path(v).read_text() for k, v in files.items()})
    assert texts[0] == texts[1]


def test_tail_is_p90_with_ten_samples_beyond():
    values = [float(v) for v in range(110)]
    random.Random(0).shuffle(values)
    assert run.tail([values[:55], values[55:]]) == (98.0, 90.0, 11)


def test_tail_without_ten_samples_beyond_is_slowest_command_median():
    assert run.tail([[1.0, 5.0], [2.0, 7.0], [3.0, 4.0]]) == (5.0, 100.0, 0)
    assert run.tail([[float(v) for v in range(99)]]) == (98.0, 100.0, 0)


def test_per_layer_counts_repeat_across_traced_runs():
    first, _ = run.run("small-inputs", 11, 1, True)
    second, _ = run.run("small-inputs", 11, 1, True)
    assert first["correct"] and second["correct"]
    counts = {
        name: (m["value"], second["metrics"][name]["value"])
        for name, m in first["metrics"].items()
        if m["unit"] != "s"
    }
    assert counts["kernels.compose.calls"][0] > 0
    assert all(a == b for a, b in counts.values()), counts


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WHY[w["name"]] for w in spec["workloads"])
    passes = [run.Pass([run.Sample(0, 1.0, 0.1, 10.0, [], {"spans": [], "counts": {}})])]
    e2e, _ = run.end_to_end(passes)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    layers, _ = run.per_layer(passes, passes)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        unit = (e2e.get(metric["name"]) or layers.get(metric["name"]))[1]
        assert metric["unit"] == unit


def test_missing_program_exits_nonzero_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-inputs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_refuses_different_guards():
    prov = {"backend": "python", "guards": {"elements": 1}, "workload": "w", "trace": 0}
    result = {"metrics": {"wall_s": {"value": 2.0, "unit": "s"}}}
    assert compare.compare((prov, result), (prov, result)) == [
        "wall_s: 2 -> 2 s (1.000)"
    ]
    other = {**prov, "guards": {"elements": 2}}
    with pytest.raises(ValueError, match="guards"):
        compare.compare((prov, result), (other, result))
