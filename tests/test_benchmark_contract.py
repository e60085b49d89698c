"""The names the benchmark under perfbench/ imports, patches and reads exist,
and every workload runs clean.

perfbench/test_smoke.py runs the workloads but sits outside the tier-1 test
paths; this test fails in tier-1 when a refactor drops a name the benchmark
needs. It only reads perfbench/.
"""

import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_benchmark_imports_patches_and_reads_the_program(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    for name in ("workload_label", "workload_train", "workload_infer"):
        importlib.import_module(name)
    from stepasm import graphs, kernels

    original = graphs.kabsch_align
    tracer = importlib.import_module("spans").Tracer()
    try:
        tracer.install()
        assert graphs.kabsch_align is not original
    finally:
        tracer.uninstall()
    assert graphs.kabsch_align is original
    assert kernels.HAVE_NUMBA is False
    assert kernels.active_backend() == "numpy"


@pytest.mark.parametrize("name", ["label", "train", "infer"])
def test_workload_runs_clean_at_smoke_scale(monkeypatch, tmp_path, name):
    """Set-up, one cycle and the checks of a workload at smoke scale, with no
    failed operation: for label, the source and target labels and the
    `stepasm enumerate-oracle` report of an N=6 complex."""
    monkeypatch.syspath_prepend(PERFBENCH)
    common = importlib.import_module("common")
    workload = importlib.import_module(f"workload_{name}").Workload("smoke")
    state = workload.setup(1, str(tmp_path))
    out = workload.cycle(state, common.Clock(), 0)
    tally = common.Tally()
    workload.check(state, out, tally)
    assert tally.attempted >= 1
    assert tally.failed == 0, tally.messages
