"""stepasm benchmark: label, train and infer workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {label,train,infer} --seed N \
        --seconds S --trace {0,1} [--scale {full,smoke}]

Each run builds its inputs from the seed (set-up, repeated SETUP_REPEATS
times and reported as the median), runs a warm-up pass, then repeats the
workload's cycle of three phases for about S seconds and checks every
output. Each phase is reported as its time per unit of work, with each of
its inputs taken at the upper quartile of that input's repetitions.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` measures half
the time untraced and half traced, and reports the per-layer metrics of
perfbench/spans.py plus the tracing overhead. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Spans and the full result, with the machine it ran on, are written under
.perfbench/ in the checkout.
"""

import os
import sys

sys.dont_write_bytecode = True  # leave no caches in the checkout's sources

import machine  # noqa: E402  (pins BLAS threads before numpy loads)

BLAS_THREADS = machine.pin_blas_threads()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

from common import Clock, Tally  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("label", "train", "infer")
SETUP_REPEATS = 3  # untraced runs; a traced run sets up once, under the tracer
END_TO_END = {"setup_s": "s", "phase1_ms": "ms", "phase2_ms": "ms", "phase3_ms": "ms"}


def import_program():
    """Put the checkout's own sources first on the path; refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "stepasm", "__init__.py")):
        sys.exit(f"perfbench: no stepasm sources under {SRC}")
    sys.path.insert(0, SRC)
    import stepasm
    from stepasm.errors import NoValidGrowthWarning

    if os.path.dirname(os.path.dirname(os.path.abspath(stepasm.__file__))) != SRC:
        sys.exit(f"perfbench: imported stepasm from {stepasm.__file__}, not {SRC}")
    # dead-end growth is expected on random complexes; the trace counts it
    warnings.simplefilter("ignore", NoValidGrowthWarning)


def measure(wl, state, seconds, tally, tracer=None):
    """Run cycles for about ``seconds``, at least one; returns the Clock and
    the last cycle's outputs."""
    clock = Clock(tracer)
    start = time.perf_counter()
    cycles = 0
    while True:
        gc.collect()  # every cycle starts from the same collector state
        if tracer is not None:
            tracer.cycle = cycles
        t0 = time.perf_counter()
        try:
            out = wl.cycle(state, clock, cycles)
        except Exception:  # a failing program is reported, not fatal mid-run
            traceback.print_exc()
            tally.op(False, "cycle raised")
            out = None
        else:
            clock.record("cycle", time.perf_counter() - t0, 1)
        if tracer is not None:
            tracer.cycle = None
            tracer.phase = "check"
        if out is not None:
            wl.check(state, out, tally)
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / cycles > seconds:  # end nearest to ``seconds``
            return clock, out


def end_to_end(module, clock, setup_times):
    """Median set-up; per phase, the time per unit of its inputs, each at the
    upper quartile of its repetitions (every input is repeated once per cycle).

    On the small shared machines this runs on, the same work runs at one of
    two speeds, 1.4 to 1.85 times apart, switching within seconds, and the
    share of time at the fast one changes from minute to minute, from none to
    most of a run. The fastest repetition depends on whether a run met a fast
    moment at all and the median on whether it was fast half the time; the
    upper quartile reads the slow speed unless the run was fast three
    quarters of the time, and had the smallest worst-case spread over ten
    seeds of the statistics tried.
    """
    metrics = {"setup_s": statistics.median(setup_times)}
    for slot, phase, _unit in module.PHASES:
        metrics[slot] = 1e3 * clock.upper_quartile(phase)
    return metrics


def named(module, clock):
    """The workload's metrics by their own names: (value, unit, samples)."""
    out = {}
    for name, phase, stat, unit in module.NAMED:
        per_unit = clock.per_unit(phase)
        scale = 1e3 if unit == "ms" else 1.0
        if stat == "rate":
            value = clock.rate(phase)
        elif stat == "p50":
            value = scale * statistics.median(per_unit)
        else:  # p90
            value = scale * (statistics.quantiles(per_unit, n=10)[-1]
                             if len(per_unit) > 1 else per_unit[0])
        out[name] = (value, unit, len(per_unit))
    return out


def run(args, workdir):
    module = importlib.import_module(f"workload_{args.workload}")
    wl = module.Workload(args.scale)
    tracer = Tracer() if args.trace else None
    setup_times = []
    state = None
    repeats = 1 if tracer is not None else SETUP_REPEATS
    for _ in range(repeats):
        state = None
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            state = wl.setup(args.seed, workdir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_times.append(time.perf_counter() - t0)

    warm = Tally()  # the warm-up's outputs are checked but not counted
    wl.check(state, wl.cycle(state, Clock(), 0), warm)

    tally = Tally()
    report = {"setup_runs": len(setup_times)}
    if not args.trace:
        clock, last = measure(wl, state, args.seconds, tally)
        if not clock.samples["cycle"]:
            sys.exit("perfbench: no cycle completed")
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(module, clock, setup_times).items()}
        report["named"] = named(module, clock)
        report["cycle_s"] = clock.upper_quartile("cycle")
        if last is not None:
            report["quality"] = wl.quality(state, last)
    else:
        plain, _ = measure(wl, state, args.seconds / 2, tally)
        tracer.install()
        try:
            tracer.phase, tracer.cycle = "cycle", 0
            traced, _ = measure(wl, state, args.seconds / 2, tally, tracer)
        finally:
            tracer.uninstall()
        if not plain.samples["cycle"] or not traced.samples["cycle"]:
            sys.exit("perfbench: no cycle completed")
        n_cycles = len(traced.samples["cycle"])
        metrics = layer_metrics(tracer.spans, n_cycles)
        base = end_to_end(module, plain, setup_times)
        with_trace = end_to_end(module, traced, setup_times)
        metrics["trace.overhead_share"] = (
            traced.upper_quartile("cycle") / plain.upper_quartile("cycle") - 1.0, "ratio")
        report["overhead"] = {k: with_trace[k] - base[k] for k in base if k != "setup_s"}
        spans_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl")
        tracer.write(spans_path)
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
    report["samples"] = dict((traced if args.trace else clock).samples)
    report["cycles"] = len(report["samples"]["cycle"])
    return metrics, tally, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "smoke"),
                        help="smoke: minimal inputs, for the benchmark's own test")
    args = parser.parse_args(argv)

    import_program()
    probe = machine.LoadProbe()
    env = machine.environment(ROOT, BLAS_THREADS)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        metrics, tally, report = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env.update(probe.finish())

    print("env " + json.dumps(env, sort_keys=True))
    if not env["numba"]:
        print("note: numba is not installed; kernels run on the numpy backend and "
              "the compiled path is not measured")
    if env["loaded"]:
        print("warning: the machine was loaded during this run; compare with care")
    print(f"run {args.workload} seed {args.seed}: {report['cycles']} cycles, "
          f"set-up x{report['setup_runs']}, trace {args.trace}")
    if "cycle_s" in report:
        print(f"cycle {report['cycle_s']:.6g} s (upper quartile)")
    for name, (value, unit, n) in report.get("named", {}).items():
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    for name, (value, unit) in report.get("quality", {}).items():
        print(f"quality {name} = {value:.6g} {unit}")
    for name, delta in report.get("overhead", {}).items():
        print(f"trace overhead {name} {delta:+.6g} {END_TO_END[name]}")
    print(f"checks: {tally.failed} failed of {tally.attempted} attempted")
    for msg in tally.messages:
        print(f"failed: {msg}")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({**result, "env": env, "report": report}, fh, indent=1, default=str)
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
