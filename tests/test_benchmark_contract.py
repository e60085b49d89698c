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
    `stepasm enumerate-oracle` report of an N=6 complex. The workload runs
    twice, untraced and then with the benchmark's tracer installed around
    all three steps, as a `--trace 1` run installs it, so a signature the
    tracer wraps (such as fit's forward callback) cannot drift unseen."""
    monkeypatch.syspath_prepend(PERFBENCH)
    common = importlib.import_module("common")
    spans = importlib.import_module("spans")
    workload = importlib.import_module(f"workload_{name}").Workload("smoke")
    for tracer in (None, spans.Tracer()):
        workdir = tmp_path / ("plain" if tracer is None else "traced")
        workdir.mkdir()
        tally = common.Tally()
        if tracer is not None:
            tracer.install()
        try:
            state = workload.setup(1, str(workdir))
            if tracer is not None:
                tracer.phase, tracer.cycle = "cycle", 0
            out = workload.cycle(state, common.Clock(tracer), 0)
            if tracer is not None:
                tracer.phase, tracer.cycle = "check", None
            workload.check(state, out, tally)
        finally:
            if tracer is not None:
                tracer.uninstall()
        assert tally.attempted >= 1
        assert tally.failed == 0, tally.messages
        if tracer is not None:
            assert set(spans.layer_metrics(tracer.spans, 1)) == set(spans.LAYER_METRICS)
