"""Backend flags kept for the benchmark's environment record.

``perfbench/machine.py::environment`` is their only reader; the numeric
kernels live in ``geometry``. Both names go when the benchmark stops
recording them (ROADMAP item 5).
"""

HAVE_NUMBA = False


def active_backend():
    return "numpy"
