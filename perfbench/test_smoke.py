"""Smoke check of the benchmark: every workload at minimal size, traced and not.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each run prints the workload's own metrics by name and unit, that
its last line carries exactly the metrics BENCHMARK.json names, and that the
traced run reproduces the counts measured when the benchmark was defined.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

NAMED = {
    "label": {"source_trees_per_s": "trees/s", "target_records_per_s": "records/s",
              "oracle_trees_per_s": "trees/s"},
    "train": {"pretrain_graphs_per_s": "graphs/s", "prompt_items_per_s": "items/s",
              "meta_tasks_per_s": "tasks/s"},
    "infer": {"infer_n4_p50_ms": "ms", "infer_n4_p90_ms": "ms", "infer_n30_p50_s": "s",
              "cli_infer_s": "s"},
}
QUALITY = {"train": ("pretrain_val_mae", "prompt_top1", "greedy_tm_mean")}
# counts of the program as it stood when the benchmark was defined
TRACED_COUNTS = {
    "label": {"graphs.useful_label_ratio.oracle": 0.5},  # every tree scored twice
    "train": {"meta.stage1_per_objective_call": 1.0},    # stage 1 redone per call
    "infer": {"inference.mlp_rows_per_candidate": 2.0},  # x and y rows per item
}


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", (0, 1))
def test_run_prints_every_metric(workload, trace):
    out = bench(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        for name, expected in TRACED_COUNTS[workload].items():
            assert values[name] == expected, name
        assert any(line.startswith("trace overhead phase1_ms") for line in lines)
        return
    assert all(v > 0 for v in values.values()), values
    for name, unit in NAMED[workload].items():
        assert any(line.startswith(f"metric {name} = ") and f" {unit} (n=" in line
                   for line in lines), name
    for name in QUALITY.get(workload, ()):
        assert any(line.startswith(f"quality {name} = ") for line in lines), name
    assert any(line.startswith("env ") for line in lines)


def test_refuses_to_run_without_the_program():
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = bench("label", 0, cwd=bare)
        assert out.returncode != 0
        assert '"metrics"' not in out.stdout
    finally:
        shutil.rmtree(bare)
