"""Outside-in span tracer for the qparity layers.

The tracer replaces every public callable of the layer modules, as bound
in each module that calls it (``qparity.shor.measure``,
``qparity.rgs.measure_out``, ``qparity.cli.decode_readout``, ...), plus
the methods in ``TRACED_METHODS``, with a wrapper that records one span
per call.  Spans stay in memory until :meth:`Tracer.write_jsonl`; self
time is derived from them afterwards.  :meth:`Tracer.uninstall` puts
every original attribute back, and nothing is installed unless a traced
phase asks for it, so untraced runs execute the program untouched.

A span records its name (``<layer>.<function>``), start and end
(``time.perf_counter``), parent span, the representation of a state
argument (``pure`` or ``dm``) and its qubit count, and one
function-specific number: kept and computed branches for measurements,
shots or pulses for the samplers, returned branches for the walkers.
"""

from __future__ import annotations

import inspect
import json
import time
from contextlib import contextmanager

LAYERS = ("sim", "shor", "rgs", "rates", "photonics", "cli")

# Methods that do real work but are not module-level names.
TRACED_METHODS = (("rgs", "Scenario", "initial_state"),)

SIM_FUNCS = ("apply_unitary", "measure", "measure_out", "measure_pauli",
             "bell_project", "partial_trace", "expectation", "fidelity",
             "apply_pauli_channel")

# Projections each measurement computes per call, kept or not.
_COMPUTED_BRANCHES = {"sim.measure": 2, "sim.measure_out": 2,
                      "sim.measure_pauli": 2, "sim.bell_project": 4}

# Sampler argument that counts the work of one call.
_SIZE_ARGS = {"rates.monte_carlo_side": "shots",
              "rates.monte_carlo_rate": "shots",
              "rates.monte_carlo_bare": "shots",
              "photonics.monte_carlo_coincidence": "pulses"}

# Walkers whose returned list length is the branch count.
_BRANCHING = ("shor.decode_readout", "rgs.run_connection")

_CLOSED_FORMS = ("rates.p_logical_alive", "rates.p_side", "rates.evaluate",
                 "rates.p_connect_bare", "rates.sweep", "rates.optimize")
_MONTE_CARLO = ("rates.monte_carlo_side", "rates.monte_carlo_rate",
                "rates.monte_carlo_bare")
_ENCODERS = ("shor.encode_shor", "shor.encode_qpc", "shor.encode_block")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "rep", "qubits",
                 "kept", "size")

    def __init__(self, name, start, parent, op, rep, qubits):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.rep = rep
        self.qubits = qubits
        self.kept = 0
        self.size = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_json_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "rep": self.rep,
                "qubits": self.qubits, "kept": self.kept, "size": self.size}


def layer_modules(qparity) -> list:
    """The package and its layer modules, in a fixed order."""
    return [qparity] + [getattr(qparity, name) for name in LAYERS]


class Tracer:
    """Records spans around calls into the qparity layers while installed."""

    def __init__(self, qparity):
        self._qparity = qparity
        self._state_types = {qparity.sim.PureState: "pure",
                             qparity.sim.DensityMatrix: "dm"}
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        prefixes = {f"qparity.{layer}": layer for layer in LAYERS}
        for module in layer_modules(self._qparity):
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or isinstance(value, type):
                    continue
                layer = prefixes.get(getattr(value, "__module__", None))
                if layer is None or not callable(value):
                    continue
                self._replace(module, attr, value, f"{layer}.{attr}")
        for layer, cls_name, attr in TRACED_METHODS:
            cls = getattr(getattr(self._qparity, layer), cls_name)
            self._replace(cls, attr, vars(cls)[attr], f"{layer}.{attr}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _replace(self, owner, attr, original, name) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name))

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        state_types = self._state_types
        clock = time.perf_counter
        computed = _COMPUTED_BRANCHES.get(name, 0)
        branching = name in _BRANCHING
        size_arg = _SIZE_ARGS.get(name)
        size_pos = (list(inspect.signature(fn).parameters).index(size_arg)
                    if size_arg else -1)

        def traced(*args, **kwargs):
            rep, qubits = "", 0
            if args:
                rep = state_types.get(type(args[0]), "")
                if rep:
                    qubits = args[0].num_qubits
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = Span(name, 0.0, parent, spans[stack[0]].op if stack
                        else idx, rep, qubits)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if computed:
                span.kept = len(result) if isinstance(result, list) else 1
                span.size = computed
            elif branching:
                span.kept = len(result) if isinstance(result, list) else 1
            elif size_arg:
                span.size = int(kwargs[size_arg] if size_arg in kwargs
                                else args[size_pos])
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- op roots -----------------------------------------------------------

    @contextmanager
    def op(self, op_class: str):
        """Root span ``bench.<op_class>`` around one benchmark op."""
        if self._stack:
            raise RuntimeError("ops do not nest")
        idx = len(self.spans)
        span = Span(f"bench.{op_class}", 0.0, -1, idx, "", 0)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    # -- output ---------------------------------------------------------------

    def problems(self) -> list:
        """What is wrong with the span tree of a traced phase: a span still
        open, a library span outside every op, a span not inside its
        parent's interval, or a negative self time.  Empty when sound.

        Self times of all spans always add up to the duration of the root
        spans, whatever the tree, so only these checks can catch a span
        that was recorded in the wrong place.
        """
        found = []
        if self._stack:
            found.append(f"{len(self._stack)} spans still open")
        for idx, (span, own) in enumerate(zip(self.spans, self.self_times())):
            if span.parent < 0:
                if span.layer != "bench":
                    found.append(f"span {idx} {span.name} is outside any op")
            else:
                outer = self.spans[span.parent]
                if not outer.start <= span.start <= span.end <= outer.end:
                    found.append(f"span {idx} {span.name} is not inside "
                                 f"its parent {outer.name}")
            if own < 0:
                found.append(f"span {idx} {span.name} has self time {own!r}")
        return found

    def self_times(self) -> list:
        """Per span: its duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span, own in zip(self.spans, self.self_times()):
                fh.write(json.dumps({**span.to_json_dict(), "self": own},
                                    separators=(",", ":")))
                fh.write("\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _per_layer_specs() -> list:
    specs = []
    for func in SIM_FUNCS:
        specs += [(f"sim.{func}.calls", "calls/op"),
                  (f"sim.{func}.self_s", "s/op")]
    for rep in ("dm", "pure"):
        specs += [(f"sim.{rep}.self_s", "s/op"),
                  (f"sim.{rep}.calls", "calls/op"),
                  (f"sim.{rep}.bytes_computed", "B/op")]
    specs += [
        ("sim.max_qubits_dm", "qubits"),
        ("sim.calls", "calls/op"),
        ("sim.self_s", "s/op"),
        ("sim.branch_keep_ratio", "ratio"),
        ("shor.self_s", "s/op"),
        ("shor.decode_readout.calls", "calls/op"),
        ("shor.decode_readout.self_s", "s/op"),
        ("shor.decode_readout.branches", "branches/op"),
        ("shor.encode.self_s", "s/op"),
        ("shor.syndromes.self_s", "s/op"),
        ("shor.correction_table_s", "s"),
        ("rgs.self_s", "s/op"),
        ("rgs.run_connection.calls", "calls/op"),
        ("rgs.run_connection.self_s", "s/op"),
        ("rgs.branches", "branches/op"),
        ("rgs.witness.self_s", "s/op"),
        ("rgs.initial_state.self_s", "s/op"),
        ("rgs.connection_corrections.self_s", "s"),
        ("rates.self_s", "s/op"),
        ("rates.monte_carlo.calls", "calls/op"),
        ("rates.monte_carlo.self_s", "s/op"),
        ("rates.shots", "shots/op"),
        ("rates.shots_per_s", "1/s"),
        ("rates.closed_form.self_s", "s/op"),
        ("photonics.self_s", "s/op"),
        ("photonics.encode_shor_noisy.self_s", "s/op"),
        ("photonics.visibility_noise.self_s", "s/op"),
        ("photonics.monte_carlo_coincidence.self_s", "s/op"),
        ("photonics.pulses", "pulses/op"),
        ("cli.main.calls", "calls/op"),
        ("cli.self_s", "s/op"),
        ("cli.bytes_out", "B/op"),
        ("bench.self_s", "s/op"),
        ("trace.overhead_frac", "ratio"),
    ]
    return specs


PER_LAYER = _per_layer_specs()


def layer_totals(tracer: Tracer) -> dict:
    """Summed self seconds per layer, ``bench`` included."""
    totals = dict.fromkeys(LAYERS + ("bench",), 0.0)
    for span, own in zip(tracer.spans, tracer.self_times()):
        totals[span.layer] += own
    return totals


def per_layer_metrics(run: Tracer, setup: Tracer, ops: int,
                      bytes_out: int, overhead_frac: float) -> dict:
    """Every PER_LAYER metric from a traced phase of ``ops`` whole ops and
    the traced lazy set-up before it.  Per-op values divide by ``ops``."""
    calls: dict = {}
    self_s: dict = {}
    rep_calls = {"dm": 0, "pure": 0}
    rep_self = {"dm": 0.0, "pure": 0.0}
    rep_bytes = {"dm": 0, "pure": 0}
    max_dm = kept = computed = branches = shots = pulses = 0
    shor_branches = 0
    for span, own in zip(run.spans, run.self_times()):
        name = span.name
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if span.layer == "sim" and span.rep:
            rep_calls[span.rep] += 1
            rep_self[span.rep] += own
            per_amp = 4 if span.rep == "dm" else 2
            rep_bytes[span.rep] += 16 * per_amp ** span.qubits
            if span.rep == "dm":
                max_dm = max(max_dm, span.qubits)
        if name in _COMPUTED_BRANCHES:
            kept += span.kept
            computed += span.size
        elif name == "rgs.run_connection":
            branches += span.kept
        elif name == "shor.decode_readout":
            shor_branches += span.kept
        elif name in _MONTE_CARLO:
            shots += span.size
        elif name == "photonics.monte_carlo_coincidence":
            pulses += span.size
    layers = layer_totals(run)

    def total(names, table=self_s):
        return sum(table.get(n, 0) for n in names)

    sim_names = [n for n in calls if n.startswith("sim.")]
    mc_self = total(_MONTE_CARLO)
    setup_inclusive = sum(s.end - s.start for s in setup.spans
                          if s.name == "shor.readout_correction_table"
                          and s.parent < 0)
    setup_conn = sum(own for s, own in zip(setup.spans, setup.self_times())
                     if s.name == "rgs.connection_corrections")

    values = {}
    for func in SIM_FUNCS:
        values[f"sim.{func}.calls"] = calls.get(f"sim.{func}", 0) / ops
        values[f"sim.{func}.self_s"] = self_s.get(f"sim.{func}", 0.0) / ops
    for rep in ("dm", "pure"):
        values[f"sim.{rep}.self_s"] = rep_self[rep] / ops
        values[f"sim.{rep}.calls"] = rep_calls[rep] / ops
        values[f"sim.{rep}.bytes_computed"] = rep_bytes[rep] / ops
    values.update({
        "sim.max_qubits_dm": max_dm,
        "sim.calls": total(sim_names, calls) / ops,
        "sim.self_s": layers["sim"] / ops,
        "sim.branch_keep_ratio": kept / computed if computed else 0.0,
        "shor.self_s": layers["shor"] / ops,
        "shor.decode_readout.calls": calls.get("shor.decode_readout", 0) / ops,
        "shor.decode_readout.self_s":
            self_s.get("shor.decode_readout", 0.0) / ops,
        "shor.decode_readout.branches": shor_branches / ops,
        "shor.encode.self_s": total(_ENCODERS) / ops,
        "shor.syndromes.self_s": self_s.get("shor.measure_syndromes", 0.0) / ops,
        "shor.correction_table_s": setup_inclusive,
        "rgs.self_s": layers["rgs"] / ops,
        "rgs.run_connection.calls": calls.get("rgs.run_connection", 0) / ops,
        "rgs.run_connection.self_s":
            self_s.get("rgs.run_connection", 0.0) / ops,
        "rgs.branches": branches / ops,
        "rgs.witness.self_s": self_s.get("rgs.witness", 0.0) / ops,
        "rgs.initial_state.self_s": self_s.get("rgs.initial_state", 0.0) / ops,
        "rgs.connection_corrections.self_s": setup_conn,
        "rates.self_s": layers["rates"] / ops,
        "rates.monte_carlo.calls": total(_MONTE_CARLO, calls) / ops,
        "rates.monte_carlo.self_s": mc_self / ops,
        "rates.shots": shots / ops,
        "rates.shots_per_s": shots / mc_self if mc_self else 0.0,
        "rates.closed_form.self_s": total(_CLOSED_FORMS) / ops,
        "photonics.self_s": layers["photonics"] / ops,
        "photonics.encode_shor_noisy.self_s":
            self_s.get("photonics.encode_shor_noisy", 0.0) / ops,
        "photonics.visibility_noise.self_s":
            self_s.get("photonics.apply_visibility_noise", 0.0) / ops,
        "photonics.monte_carlo_coincidence.self_s":
            self_s.get("photonics.monte_carlo_coincidence", 0.0) / ops,
        "photonics.pulses": pulses / ops,
        "cli.main.calls": calls.get("cli.main", 0) / ops,
        "cli.self_s": layers["cli"] / ops,
        "cli.bytes_out": bytes_out / ops,
        "bench.self_s": layers["bench"] / ops,
        "trace.overhead_frac": overhead_frac,
    })
    return values
