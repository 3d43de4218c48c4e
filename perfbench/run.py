"""qparity benchmark: one workload, one seed, one run.

Usage, from the root of a qparity checkout:

    python3 perfbench/run.py --workload cli --seed 1 --seconds 15 --trace 0

Every metric is printed by name with its unit, followed by provenance;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  The
full result, with provenance, is also written under ``.perfbench_out/``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402  (stdlib only, no numpy)

WORKLOAD_NAMES = ("montecarlo", "cli")
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))
# One thread for every BLAS the program might load, never above nproc;
# no bytecode cache, so every process compiles the sources and nothing is
# written beside them.  The same on every commit so that runs compare.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
# Set-up probes before and again after the workload: the median spans the
# whole run, not only its first seconds.
SETUP_PROBES = 6
TIME_LIMIT_S = 170.0
TRACE_COVERAGE_TOLERANCE = 0.01


def git_sha(root: Path) -> str | None:
    """HEAD commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env(root: Path) -> dict:
    env = dict(os.environ, **PINNED_ENV)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_worker(args: list, root: Path, deadline: float) -> dict:
    """Run worker.py in a fresh process; its last stdout line is JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("time limit reached before the worker started")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True,
        timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one qparity benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_probes(root: Path, deadline: float, count: int) -> list:
    return [run_worker(["--setup-probe"], root, deadline)["setup_s"]
            for _ in range(count)]


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "qparity" / "__init__.py").is_file():
        print(f"error: no qparity sources under {root / 'src'}; run from "
              "the root of a qparity checkout", file=sys.stderr)
        return 2

    try:
        # The first probe fills the page cache; it is not counted.
        setup_samples = setup_probes(root, deadline, SETUP_PROBES + 1)[1:]
        raw = run_worker(["--workload", args.workload, "--seed",
                          str(args.seed), "--seconds", str(args.seconds),
                          "--trace", str(args.trace)], root, deadline)
        setup_samples += setup_probes(root, deadline, SETUP_PROBES)
    except (OSError, RuntimeError, TimeoutError, ValueError,
            subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not args.trace:  # a traced worker's own set-up ran under the tracer
        setup_samples.append(raw["setup_s"])
    print(json.dumps(report(args, raw, setup_samples, root)))
    return 0


def report(args: argparse.Namespace, raw: dict, setup_samples: list,
           root: Path) -> dict:
    """Print every metric with its unit, the sample counts, failures and
    provenance; write the details under .perfbench_out/; return the
    result object."""
    raw = dict(raw, setup_s=statistics.median(setup_samples))
    failed_frac = raw["failed"] / raw["attempted"]
    correct = raw["failed"] == 0
    end_to_end = {name: {"value": raw[name], "unit": unit}
                  for name, unit in END_TO_END}
    metrics = end_to_end
    samples = {"timed_ops": (raw["timed_ops"], "count"),
               "timed_seconds": (raw["timed_seconds"], "s"),
               "setup_samples": (len(setup_samples), "count")}
    failures = list(raw["failures"])
    if args.trace:
        metrics = {name: {"value": raw["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
        failures += [f"trace: {p}" for p in raw["trace_problems"]]
        correct = correct and not raw["trace_problems"] and (
            raw["trace_coverage_error"] <= TRACE_COVERAGE_TOLERANCE)
        samples.update(traced_ops=(raw["traced_ops"], "count"),
                       trace_coverage_error=(raw["trace_coverage_error"],
                                             "ratio"))

    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(root), "python": platform.python_version(),
        "numpy": raw["numpy"], "blas": raw["blas"],
        "blas_threads": raw["blas_threads"],
        "pinned_env": PINNED_ENV, "nproc": os.cpu_count(),
        "attempted_by_class": raw["attempted_by_class"],
        "failed_by_class": raw["failed_by_class"],
    }

    if args.trace:
        print("end-to-end, untraced first half of the timed loop:")
    rows = [(name, m["value"], m["unit"]) for name, m in end_to_end.items()]
    rows.append(("failed_frac", failed_frac, "ratio"))
    if args.trace:
        rows.append(("per-layer, traced second half:", None, ""))
        rows += [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    rows += [(name, value, unit) for name, (value, unit) in samples.items()]
    for name, value, unit in rows:
        print(name if value is None else f"{name:<44} {value:>16.6g} {unit}")
    for message in failures:
        print(f"failure: {message}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    details = {"metrics": metrics, "end_to_end": end_to_end,
               "failed_frac": failed_frac,
               "samples": {name: value for name, (value, _) in samples.items()},
               "failures": failures, "provenance": provenance}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(details, indent=1, sort_keys=True) + "\n")
    return {"correct": correct, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}

if __name__ == "__main__":
    sys.exit(main())
