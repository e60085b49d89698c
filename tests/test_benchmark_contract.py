"""The names the benchmark under perfbench/ imports, patches and reads exist,
every import kept only for it is one it patches, and every workload runs
clean.

perfbench/test_smoke.py runs the workloads but sits outside the tier-1 test
paths; this test fails in tier-1 when a refactor drops a name the benchmark
needs. It writes nothing under perfbench/.
"""

import glob
import importlib
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SHIM = "# not called here; kept because perfbench/spans.py patches this name"


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


def _shims():
    """(module, name) of each import src/stepasm marks as kept for the
    benchmark's tracer to patch: the line after the SHIM comment."""
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "stepasm", "*.py"))):
        with open(path) as fh:
            lines = fh.read().splitlines()
        for marker, line in zip(lines, lines[1:]):
            if marker.strip() == SHIM:
                imported = re.fullmatch(r"from \.\w+ import (\w+)  # noqa: F401", line)
                assert imported, f"{path}: {line!r} after the shim comment"
                module = os.path.splitext(os.path.basename(path))[0]
                found.append((f"stepasm.{module}", imported.group(1)))
    return found


def test_every_kept_import_is_one_the_tracer_patches(monkeypatch):
    """An import kept only for the tracer goes once the tracer stops patching
    it; this fails as soon as that happens, so the import is not forgotten."""
    shims = _shims()
    assert sorted(shims) == [("stepasm.datagen", "assembly_correctness"),
                             ("stepasm.graphs", "tm_score"),
                             ("stepasm.inference", "pipeline_forward_batch"),
                             ("stepasm.meta", "pipeline_forward_batch")]
    monkeypatch.syspath_prepend(PERFBENCH)
    modules = {module: importlib.import_module(module) for module, _ in shims}
    before = {shim: getattr(modules[shim[0]], shim[1]) for shim in shims}
    tracer = importlib.import_module("spans").Tracer()
    try:
        tracer.install()
        unpatched = [shim for shim in shims if getattr(modules[shim[0]], shim[1]) is before[shim]]
    finally:
        tracer.uninstall()
    assert unpatched == []


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
