"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import qparity  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import PER_LAYER, Span, Tracer, layer_modules  # noqa: E402
from workloads import GOLDEN_COMMANDS, GOLDEN_DIR, WORKLOADS, Cli  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, f"{BENCH.name}/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def minimal_run(workload, trace, monkeypatch):
    """One in-process run of at least one whole round per phase."""
    monkeypatch.setattr(worker, "MIN_OPS", 1)
    args = run.parse_args(["--workload", workload, "--seed", "5",
                           "--seconds", "0", "--trace", str(trace)])
    raw = worker.measure(workload, 5, 0.0, trace, ROOT)
    return run.report(args, raw, [raw["setup_s"]], ROOT)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_minimal_run_emits_every_metric(workload, trace, monkeypatch, capsys):
    result = minimal_run(workload, trace, monkeypatch)
    printed = capsys.readouterr().out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == dict(specs)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    for name, unit in specs:
        assert f"{name} " in printed and unit in printed
    assert "failed_frac" in printed


def test_command_prints_the_result_last():
    proc = bench("--workload", "montecarlo", "--seed", "7", "--seconds", "0",
                 "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= worker.MIN_OPS
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] \
        == list(run.END_TO_END)


def test_misplaced_span_makes_the_run_incorrect(monkeypatch, capsys):
    # An op root that is never pushed on the stack leaves every library
    # span of the op outside any op; self times still add up.
    def unpushed_op(self, op_class):
        span = Span(f"bench.{op_class}", time.perf_counter(), -1,
                    len(self.spans), "", 0)
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()

    monkeypatch.setattr(Tracer, "op", contextmanager(unpushed_op))
    result = minimal_run("cli", 1, monkeypatch)
    assert result["correct"] is False and result["failed"] == 0
    assert "is outside any op" in capsys.readouterr().out


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(PER_LAYER)
    assert set(WORKLOADS) == set(run.WORKLOAD_NAMES)


def _attributes():
    snap = {}
    for module in layer_modules(qparity):
        snap[module.__name__] = dict(vars(module))
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith(
                    "qparity"):
                snap[value.__qualname__] = dict(vars(value))
    return snap


def test_tracer_restores_every_attribute():
    before = _attributes()
    original = qparity.shor.measure
    tracer = Tracer(qparity)
    with tracer:
        assert qparity.shor.measure is not original
        assert qparity.rgs.Scenario.initial_state is not \
            before["Scenario"]["initial_state"]
        with tracer.op("probe"):
            word = qparity.shor.encode_shor(
                qparity.shor.LogicalInput.from_angles(0.3, 0.2))
            qparity.shor.decode_readout(word, losses=(4,))
    after = _attributes()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner
        for name, value in attrs.items():
            assert after[owner][name] is value, (owner, name)
    names = {s.name for s in tracer.spans}
    assert {"bench.probe", "shor.decode_readout", "sim.measure",
            "sim.partial_trace"} <= names
    dm = [s for s in tracer.spans if s.rep == "dm"]
    assert dm and max(s.qubits for s in dm) == 8
    own = tracer.self_times()
    root = tracer.spans[0]
    assert sum(own) == pytest.approx(root.end - root.start, rel=1e-9)
    assert tracer.problems() == []


def test_corrupted_golden_counts_one_failed_op(tmp_path):
    goldens = {name: (ROOT / GOLDEN_DIR / name).read_bytes()
               for name, _ in GOLDEN_COMMANDS}
    goldens["encode_d.json"] += b"\n"
    workload = Cli(3, tmp_path, goldens=goldens)
    try:
        phase = worker.run_phase(workload.rounds(), 0.0, 1)
    finally:
        workload.close()
    assert sum(phase["attempted"].values()) == 17
    assert dict(phase["failed"]) == {"encode": 1}
    assert "differs from its golden" in phase["failures"][0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cli", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
