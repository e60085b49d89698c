"""What a result was measured on: CPUs, BLAS, versions, revision and load.

``pin_blas_threads`` must run before numpy is first imported, because
OpenBLAS reads its thread count once, when it loads.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_BLAS_THREADS = 2  # the thread count the ROADMAP baselines were taken with
# Share of the machine's CPU time spent outside this process during the run
# above which the run is flagged as taken on a loaded machine.
LOADED_SHARE = 0.10


def nproc():
    return len(os.sched_getaffinity(0))


def pin_blas_threads():
    threads = min(MAX_BLAS_THREADS, nproc())
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _cpu_ticks():
    """(busy, steal, total) jiffies over all CPUs, or None without /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    idle = fields[3] + (fields[4] if len(fields) > 4 else 0)
    steal = fields[7] if len(fields) > 7 else 0
    return sum(fields[:8]) - idle - steal, steal, sum(fields[:8])


def git_rev(root):
    """Commit of the checkout from its .git directory; None outside a git tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


class LoadProbe:
    """Load averages, and the CPU time other processes used, around a run."""

    def __init__(self):
        self.loadavg_before = os.getloadavg()
        self._ticks = _cpu_ticks()
        self._own = _own_cpu_s()

    def finish(self):
        record = {
            "loadavg_before": [round(v, 2) for v in self.loadavg_before],
            "loadavg_after": [round(v, 2) for v in os.getloadavg()],
            "other_cpu_share": None,
            "steal_share": None,
        }
        ticks = _cpu_ticks()
        if self._ticks is not None and ticks is not None:
            hz = os.sysconf("SC_CLK_TCK")
            busy, steal, total = (b - a for a, b in zip(self._ticks, ticks))
            if total > 0:
                own = (_own_cpu_s() - self._own) * hz
                record["other_cpu_share"] = round(max(busy - own, 0.0) / total, 4)
                record["steal_share"] = round(steal / total, 4)
        shares = [record["other_cpu_share"], record["steal_share"]]
        if shares[0] is None:
            # no /proc/stat: fall back on the load average seen before the run
            record["loaded"] = self.loadavg_before[0] > LOADED_SHARE * nproc()
        else:
            record["loaded"] = sum(shares) > LOADED_SHARE
        return record


def _own_cpu_s():
    t = os.times()
    return t.user + t.system


def environment(root, blas_threads):
    import numpy as np
    from stepasm import kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "kernels_backend": kernels.active_backend(),
        "numba": kernels.HAVE_NUMBA,
        "git_rev": git_rev(root),
    }
