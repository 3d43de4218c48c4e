"""One benchmark workload in one fresh process.

run.py starts this script with the BLAS thread count pinned and
``src`` on the path.  It times the import of qparity and its lazy
set-up, runs one warm-up round, then a closed loop with one client for
the requested seconds, and prints a single JSON line of raw results.
With ``--trace 1`` the loop is split: an untraced half, then a half with
the outside-in tracer installed, which yields the per-layer metrics.
``--setup-probe`` only imports qparity, finishes the lazy set-up and
prints how long that took.
"""

import time

T_START = time.perf_counter()  # before numpy and qparity are imported

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

MAX_FAILURE_MESSAGES = 20
# Timed ops at least, so that ten latency samples lie beyond p90.
MIN_OPS = 100


def import_program():
    import qparity
    import qparity.cli  # noqa: F401  (the CLI is part of what users load)
    return qparity


def lazy_setup(qparity) -> None:
    """The set-up the first op would otherwise pay: the derived readout
    correction table and the connection tables of the named scenarios."""
    qparity.shor.readout_correction_table()
    for factory in ("connect_scenario", "bare_loss_scenario",
                    "encoded_loss_scenario"):
        qparity.rgs.connection_corrections(getattr(qparity.rgs, factory)(0))


def run_phase(rounds, seconds: float, min_ops: int, tracer=None) -> dict:
    """Run whole rounds until ``seconds`` have passed and ``min_ops`` ops
    are done.  Every op is timed and checked; a failing op is counted
    and the loop goes on."""
    latencies = []
    attempted: Counter = Counter()
    failed: Counter = Counter()
    failures = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        for op in next(rounds):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    op.run()
                else:
                    with tracer.op(op.cls):
                        op.run()
            except Exception as exc:  # the run must survive a failing op
                failed[op.cls] += 1
                if len(failures) < MAX_FAILURE_MESSAGES:
                    failures.append(f"{op.cls}: " + "".join(
                        traceback.format_exception_only(exc)).strip())
            latencies.append(time.perf_counter() - t0)
            attempted[op.cls] += 1
        now = time.perf_counter()
        if now >= deadline and len(latencies) >= min_ops:
            break
    return {"elapsed": now - start, "latencies": latencies,
            "attempted": attempted, "failed": failed, "failures": failures}


def ops_per_s(phase: dict) -> float:
    return len(phase["latencies"]) / phase["elapsed"]


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("lib*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def numpy_provenance() -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"numpy": numpy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": blas_threads()}


def merge_counts(*phases) -> tuple:
    attempted: Counter = Counter()
    failed: Counter = Counter()
    failures = []
    for phase in phases:
        attempted.update(phase["attempted"])
        failed.update(phase["failed"])
        failures += phase["failures"]
    return attempted, failed, failures[:MAX_FAILURE_MESSAGES]


def measure(workload_name: str, seed: int, seconds: float, trace: int,
            root: Path) -> dict:
    """Set up, then run one workload from the checkout at ``root``; the
    raw results that run.py turns into metrics."""
    qparity = import_program()
    setup_tracer = None
    if trace:
        from tracer import Tracer

        setup_tracer = Tracer(qparity)
    with setup_tracer or nullcontext():
        lazy_setup(qparity)
    setup_s = time.perf_counter() - T_START

    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, root)
    rounds = workload.rounds()
    try:
        warmup = run_phase(rounds, 0.0, 1)
        main_seconds = seconds / 2 if trace else seconds
        timed = run_phase(rounds, main_seconds, 1 if trace else MIN_OPS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        phases = [warmup, timed]
        result = {}
        if trace:
            result.update(traced_phase(qparity, workload, rounds, setup_tracer,
                                       main_seconds, timed,
                                       root / ".perfbench_out" /
                                       f"spans-{workload_name}-seed{seed}"
                                       ".jsonl"))
            phases.append(result.pop("phase"))
    finally:
        if hasattr(workload, "close"):
            workload.close()

    lat = timed["latencies"]
    attempted, failed, failures = merge_counts(*phases)
    result.update({
        "setup_s": setup_s,
        "ops_per_s": ops_per_s(timed),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "timed_ops": len(lat),
        "timed_seconds": timed["elapsed"],
        "attempted": sum(attempted.values()),
        "failed": sum(failed.values()),
        "attempted_by_class": dict(sorted(attempted.items())),
        "failed_by_class": dict(sorted(failed.items())),
        "failures": failures,
        **numpy_provenance(),
    })
    return result


def traced_phase(qparity, workload, rounds, setup_tracer, seconds, untraced,
                 spans_path: Path) -> dict:
    """Second half of a traced run: the same loop under the tracer."""
    from tracer import Tracer, layer_totals, per_layer_metrics

    tracer = Tracer(qparity)
    bytes_before = getattr(workload, "bytes_out", 0)
    with tracer:
        phase = run_phase(rounds, seconds, 1, tracer)
    ops = len(phase["latencies"])
    overhead = 1.0 - ops_per_s(phase) / ops_per_s(untraced)
    metrics = per_layer_metrics(tracer, setup_tracer, ops,
                                getattr(workload, "bytes_out", 0)
                                - bytes_before, overhead)
    wall = sum(phase["latencies"])
    covered = sum(layer_totals(tracer).values())
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write_jsonl(spans_path)
    return {"phase": phase, "per_layer": metrics,
            "trace_coverage_error": abs(covered - wall) / wall,
            "trace_problems": tracer.problems()[:MAX_FAILURE_MESSAGES],
            "traced_ops": ops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true")
    args = parser.parse_args(argv)

    if args.setup_probe:
        lazy_setup(import_program())
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0
    print(json.dumps(measure(args.workload, args.seed, args.seconds,
                             args.trace, Path.cwd())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
