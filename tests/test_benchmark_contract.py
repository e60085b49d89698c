"""The names the benchmark under perfbench/ imports, patches and reads exist.

perfbench/test_smoke.py runs the workloads but sits outside the tier-1 test
paths; this test fails in tier-1 when a refactor drops a name the benchmark
needs. It only reads perfbench/.
"""

import importlib
import os

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
