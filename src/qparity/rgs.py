"""Repeater graph states and the entanglement-connection protocol.

A Scenario wires EPR channel pairs to a repeater graph state (RGS),
lists which photons are lost, and gives the ordered measurement plan
(single-photon X measurements, per-logical-qubit Z measurements,
Bell-state measurements).  It runs as a :class:`qparity.sim.Protocol`,
the loss protocol of the Shor readout too, and yields per measurement
branch the corrected two-qubit state of the terminal photons and its
Bell-state witness.  The corrections, terminal Pauli pairs giving unit
fidelity with |phi+>, are derived on first use from the lossless
scenario and cached, never shipped; lossy runs reuse them, which is
what makes the loss-tolerance claim meaningful.

Photon labels follow the conventional primed numbering: terminals 1'
and 9', channel interfaces 2' and 8', RGS photons 3', 10', 7' plus the
encoded block {4', 5', 6'}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import ConditionViolation, ConfigError, _check_count
from .shor import LogicalInput, _spread, encode_qpc
from .sim import (
    H,
    MAX_QUBITS,
    PAULI,
    PauliString,
    PlanStep,
    Protocol,
    PureState,
    State,
    _apply_to_axes,
    _pauli_rows,
    correction_table,
)

PHI_PLUS_2Q = PureState(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))


# ---------------------------------------------------------------------------
# state builders
# ---------------------------------------------------------------------------

def build_bare_rgs(n: int) -> PureState:
    """n-qubit GHZ state, the unprotected repeater graph state."""
    _check_count("n", n, least=2, most=MAX_QUBITS)
    return PureState(_ghz_amps(n))


def build_partial_encoded(m: int) -> PureState:
    """(|000>|0_l> + |111>|1_l>)/sqrt2 with an m-photon encoded qubit.

    Qubits 0..2 are the bare GHZ arms, qubits 3..2+m the encoded block.
    The circuit's GHZ over the three arms plus the block leader, with the
    leader rotated, is a 4-qubit register; it is spread over blocks of
    1, 1, 1 and m qubits (:func:`qparity.shor.encode_qpc` says why this
    is the circuit bit for bit).
    """
    _check_count("m", m, most=MAX_QUBITS - 3)
    register = _apply_to_axes(_ghz_amps(4).reshape([2] * 4), H, [3])
    return _spread(register.reshape(-1), (1, 1, 1, m))


def _ghz_amps(k: int) -> np.ndarray:
    """(|0..0> + |1..1>)/sqrt2 on k qubits."""
    amps = np.zeros(2 ** k, dtype=complex)
    amps[[0, -1]] = 1 / math.sqrt(2)
    return amps


def build_encoded_rgs(n: int, m: int) -> PureState:
    """Fully encoded RGS: every GHZ qubit becomes an m-photon block."""
    s = 1 / math.sqrt(2)
    return encode_qpc(LogicalInput(s, s), n, m)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RgsSpec:
    kind: str   # "bare" | "partial" | "encoded"
    n: int
    m: int

    def __post_init__(self):
        _check_count("n", self.n)
        _check_count("m", self.m)
        if self.kind not in ("bare", "partial", "encoded"):
            raise ConfigError(f"unknown RGS kind {self.kind!r}")
        if self.kind == "bare" and self.m != 1:
            raise ConfigError("bare RGS has m = 1")
        if self.kind == "partial" and self.n != 4:
            raise ConfigError("partially encoded RGS has n = 4: three bare "
                              "arms and one encoded block")
        least = 2 if self.kind == "bare" else 1
        if self.n < least or self.qubits > MAX_QUBITS:
            raise ConfigError(f"{self.kind} RGS n = {self.n}, m = {self.m} "
                              f"makes {self.qubits} photons; its builder "
                              f"takes n >= {least}, m >= 1 and at most "
                              f"{MAX_QUBITS} photons")

    @property
    def qubits(self) -> int:
        """Photons of the built state."""
        if self.kind == "bare":
            return self.n
        if self.kind == "partial":
            return 3 + self.m
        return self.n * self.m

    def build(self) -> PureState:
        if self.kind == "bare":
            return build_bare_rgs(self.n)
        if self.kind == "partial":
            return build_partial_encoded(self.m)
        return build_encoded_rgs(self.n, self.m)


@dataclass(frozen=True)
class Scenario:
    """A complete connection experiment."""

    name: str
    channels: tuple            # ((terminal, interface), ...)
    rgs: RgsSpec
    rgs_order: tuple           # RGS photon labels in state order
    rgs_groups: tuple          # labels grouped per logical qubit
    loss: tuple                # lost photon labels
    plan: tuple                # PlanStep instructions, executed in order
    terminals: tuple           # (left terminal, right terminal)

    def __post_init__(self):
        object.__setattr__(self, "channels",
                           tuple(tuple(c) for c in self.channels))
        object.__setattr__(self, "rgs_order", tuple(self.rgs_order))
        object.__setattr__(self, "rgs_groups",
                           tuple(tuple(g) for g in self.rgs_groups))
        object.__setattr__(self, "loss", tuple(self.loss))
        object.__setattr__(self, "plan", tuple(
            s if isinstance(s, PlanStep) else PlanStep(**s)
            for s in self.plan))
        object.__setattr__(self, "terminals", tuple(self.terminals))
        self._validate()

    def _validate(self):
        order = self.photon_order()
        if len(set(order)) != len(order):
            raise ConfigError("photon labels are not unique")
        if len(self.rgs_order) != self.rgs.qubits:
            raise ConfigError(f"rgs_order labels {len(self.rgs_order)} "
                              f"photons, the {self.rgs.kind} RGS has "
                              f"{self.rgs.qubits}")
        if len(order) > MAX_QUBITS:
            raise ConfigError(f"scenario holds {len(order)} photons, the "
                              f"state cap is {MAX_QUBITS} qubits")
        grouped = [p for g in self.rgs_groups for p in g]
        if sorted(grouped) != sorted(self.rgs_order):
            raise ConfigError("rgs_groups must partition rgs_order")
        interfaces = {i for _, i in self.channels}
        rgs = set(self.rgs_order)
        known = set(order)
        for lost in self.loss:
            if lost not in rgs:
                raise ConfigError(f"lost photon {lost!r} is not an RGS photon")
        for step in self.plan:
            for p in step.photons:
                if p not in known:
                    raise ConfigError(f"plan references unknown photon {p!r}")
            if step.op == "bsm":
                a, b = step.photons
                if not ((a in interfaces and b in rgs)
                        or (b in interfaces and a in rgs)):
                    raise ConfigError(f"bsm {step.photons} must pair a "
                                      "channel interface with an RGS photon")
        if len(self.terminals) != 2 or len(set(self.terminals)) != 2:
            raise ConfigError("a connection needs two distinct terminals, "
                              f"got {self.terminals}")
        channel_terminals = {term for term, _ in self.channels}
        for t in self.terminals:
            if t not in channel_terminals and t not in rgs:
                raise ConfigError(f"terminal {t!r} unknown")
            if t in self.loss:
                raise ConfigError(f"terminal {t!r} is lost")

    def photon_order(self) -> tuple:
        order = []
        for term, iface in self.channels:
            order.extend([term, iface])
        order.extend(self.rgs_order)
        return tuple(order)

    def protocol(self) -> Protocol:
        """The connection as a :class:`qparity.sim.Protocol`: a branch's
        key joins its :func:`_branch_tokens`, the candidates are the 16
        terminal Pauli pairs, and the terminals are kept in photon order.
        A walk never reorders the photons it leaves, so whether the pair
        operators swap the terminals is known without walking."""
        keep = tuple(p for p in self.photon_order() if p in self.terminals)
        swapped = keep != self.terminals
        return Protocol(
            self.plan,
            lambda records: ["|".join(tokens) for tokens
                             in _branch_tokens(self.plan, records)],
            {pair: _pair_operator(pair, swapped) for pair in _PAULI_PAIRS},
            keep)

    def initial_state(self) -> PureState:
        """|phi+> per channel, left to right, then the RGS; one shared,
        read-only state per (RGS spec, channel count)."""
        return _initial_state(self.rgs, len(self.channels))

    def to_json_dict(self) -> dict:
        """The fields as ``dataclasses.asdict`` gives them: ``rgs`` and
        each plan step as a dict, every other field as is."""
        rgs = self.rgs
        return {
            "name": self.name,
            "channels": self.channels,
            "rgs": {"kind": rgs.kind, "n": rgs.n, "m": rgs.m},
            "rgs_order": self.rgs_order,
            "rgs_groups": self.rgs_groups,
            "loss": self.loss,
            "plan": tuple({"op": s.op, "photons": s.photons}
                          for s in self.plan),
            "terminals": self.terminals,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Scenario":
        return cls(**{**data, "rgs": RgsSpec(**data["rgs"])})


@lru_cache(maxsize=16)
def _initial_state(rgs: RgsSpec, channels: int) -> PureState:
    amps = None
    bell = PHI_PLUS_2Q.amplitudes
    for _ in range(channels):
        amps = bell if amps is None else np.kron(amps, bell)
    rgs_amps = rgs.build().amplitudes
    amps = rgs_amps if amps is None else np.kron(amps, rgs_amps)
    state = PureState(amps)
    state.vectors.flags.writeable = False
    state.weights.flags.writeable = False
    return state


_C4 = ("4'", "5'", "6'")


def _check_loss_count(loss_count: int, qubit: str) -> None:
    _check_count("loss count", loss_count, least=0)
    if loss_count >= len(_C4):
        raise ConditionViolation(
            f"condition (ii) violated: the {qubit} must keep at least one "
            f"photon, cannot lose {loss_count} of {len(_C4)}")


def connect_scenario(loss_count: int = 0) -> Scenario:
    """Simplified connection experiment with a partially encoded RGS.

    Two EPR channels flank a 6-photon RGS; photon 10' is measured in X,
    the surviving photons of the encoded block {4',5',6'} in Z, and the
    interfaces 2'/8' are Bell-measured against RGS photons 3'/7'.
    """
    _check_loss_count(loss_count, "encoded logical qubit")
    return Scenario(
        name="connect",
        channels=(("1'", "2'"), ("9'", "8'")),
        rgs=RgsSpec("partial", 4, 3),
        rgs_order=("3'", "10'", "7'") + _C4,
        rgs_groups=(("3'",), ("10'",), ("7'",), _C4),
        loss=_C4[:loss_count],
        plan=(
            PlanStep("measure_x", ("10'",)),
            PlanStep("measure_block_z", _C4),
            PlanStep("bsm", ("2'", "3'")),
            PlanStep("bsm", ("8'", "7'")),
        ),
        terminals=("1'", "9'"),
    )


def bare_loss_scenario(loss_count: int = 1) -> Scenario:
    """Control experiment: bare GHZ RGS, one arm is a single photon.

    Losing that photon leaves nothing to measure in Z, so the run
    proceeds without its outcome and the terminals end up separable.
    """
    _check_count("loss count", loss_count, least=0, most=1)
    return Scenario(
        name="bare-control",
        channels=(("1'", "2'"), ("9'", "8'")),
        rgs=RgsSpec("bare", 4, 1),
        rgs_order=("3'", "10'", "7'", "4'"),
        rgs_groups=(("3'",), ("10'",), ("7'",), ("4'",)),
        loss=("4'",)[:loss_count],
        plan=(
            PlanStep("measure_x", ("10'",)),
            PlanStep("measure_x", ("4'",)),
            PlanStep("bsm", ("2'", "3'")),
            PlanStep("bsm", ("8'", "7'")),
        ),
        terminals=("1'", "9'"),
    )


def encoded_loss_scenario(loss_count: int = 0) -> Scenario:
    """Loss test on the fully encoded RGS (the nine-qubit code word).

    No channels: the terminals are RGS photons 1' and 9' themselves.
    Photons 2',3' and 7',8' are measured in X, the survivors of the
    middle logical qubit {4',5',6'} in Z.
    """
    _check_loss_count(loss_count, "loss-affected logical qubit")
    return Scenario(
        name="rgs-loss",
        channels=(),
        rgs=RgsSpec("encoded", 3, 3),
        rgs_order=("1'", "2'", "3'", "4'", "5'", "6'", "7'", "8'", "9'"),
        rgs_groups=(("1'", "2'", "3'"), _C4, ("7'", "8'", "9'")),
        loss=_C4[:loss_count],
        plan=(
            PlanStep("measure_x", ("2'",)),
            PlanStep("measure_x", ("3'",)),
            PlanStep("measure_x", ("7'",)),
            PlanStep("measure_x", ("8'",)),
            PlanStep("measure_block_z", _C4),
        ),
        terminals=("1'", "9'"),
    )


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessResult:
    """Bell-state witness data for a two-qubit state.

    fidelity = (1 + xx - yy + zz)/4 targets |phi+|; witness = 1/2 -
    fidelity, negative values certify entanglement.
    """

    xx: float
    yy: float
    zz: float
    fidelity: float
    witness: float

    def to_json_dict(self) -> dict:
        return {"xx": self.xx, "yy": self.yy, "zz": self.zz,
                "fidelity": self.fidelity, "witness": self.witness}


_WITNESS_OPS = tuple(PauliString({0: letter, 1: letter}) for letter in "XYZ")


def _witnesses(vectors: np.ndarray, weights: np.ndarray) -> list:
    """The |phi+> witness of every two-qubit ensemble of a stack
    (B x r x 4 rows, B x r weights).

    <XX>, <YY> and <ZZ> are one reduction over the stack: per branch
    sum_i w_i <v_i|P v_i>, clipped to [-1, 1] like
    :func:`qparity.sim.expectation`.
    """
    moved = np.stack([weights[:, :, None] * _pauli_rows(vectors, op)
                      for op in _WITNESS_OPS])
    values = np.vecdot(vectors.reshape(len(vectors), -1),
                       moved.reshape(3, len(vectors), -1)).real
    xx, yy, zz = np.clip(values, -1.0, 1.0)
    fid = (1.0 + xx - yy + zz) / 4.0
    return [WitnessResult(xx=x, yy=y, zz=z, fidelity=f, witness=0.5 - f)
            for x, y, z, f in zip(xx.tolist(), yy.tolist(), zz.tolist(),
                                  fid.tolist())]


def witness(rho: State) -> WitnessResult:
    """Evaluate the |phi+> witness on a two-qubit state."""
    if rho.num_qubits != 2:
        raise ConfigError(f"witness needs 2 qubits, got {rho.num_qubits}")
    return _witnesses(rho.vectors[None], rho.weights[None])[0]


# ---------------------------------------------------------------------------
# protocol execution
# ---------------------------------------------------------------------------

@dataclass
class BranchResult:
    """One measurement branch of a connection run."""

    probability: float
    outcomes: tuple            # key tokens, one per plan step
    correction: tuple          # (pauli on left terminal, pauli on right)
    terminal: State            # two-qubit corrected state
    witness: WitnessResult

    def to_json_dict(self) -> dict:
        return {
            "probability": self.probability,
            "outcomes": list(self.outcomes),
            "correction": list(self.correction),
            **self.witness.to_json_dict(),
        }


def _branch_tokens(plan: tuple, branch_records: list) -> list:
    """Outcome key tokens of every branch, one per plan step.

    A block Z step contributes its first survivor's outcome, the block
    sign.  A step whose photons are all lost measured nothing and
    contributes a trivial +1, so that outcome keys keep the structure of
    the lossless run the correction tables were derived from.  Built
    step by step: each step formats its token once per distinct outcome.
    """
    columns = []
    for step, step_records in zip(plan, zip(*branch_records)):
        signs = [recs[0].outcome if recs else +1 for recs in step_records]
        group = ",".join(step.photons)
        if step.op == "bsm":
            token = {s: f"bsm({group})={s}" for s in set(signs)}
        else:
            kind = "x" if step.op == "measure_x" else "z"
            token = {s: f"{kind}({group})={s:+d}" for s in set(signs)}
        columns.append([token[s] for s in signs])
    return list(zip(*columns)) if columns else [()] * len(branch_records)


@lru_cache(maxsize=None)
def _pair_operator(pair: tuple, swapped: bool) -> np.ndarray:
    """Read-only kron of a terminal Pauli pair, in the walk's order."""
    op = np.kron(*(PAULI[p] for p in (pair[::-1] if swapped else pair)))
    op.flags.writeable = False
    return op


def run_connection(scenario: Scenario, *,
                   initial_state: State | None = None) -> list:
    """Execute a connection scenario through its :meth:`Scenario.protocol`.

    Returns every branch as a BranchResult, probabilities summing to 1,
    in walk order: the indices :func:`qparity.sim.draw_branches` draws
    over the protocol's stack index this list.  Each branch's outcome
    key selects a fixed terminal Pauli pair from the table of the
    lossless scenario (:func:`connection_corrections`).
    ``initial_state`` overrides the scenario's ideal state, e.g. with
    interference noise; it holds every photon of
    :meth:`Scenario.photon_order` (the lost ones are traced out here) or
    only the survivors (ConfigError for any other size).
    """
    stack, pairs, corrected = scenario.protocol().run(
        scenario.initial_state() if initial_state is None else initial_state,
        scenario.photon_order(), scenario.loss,
        connection_corrections(scenario))
    return list(map(BranchResult, stack.probabilities,
                    _branch_tokens(scenario.plan, stack.records), pairs,
                    corrected.states(),
                    _witnesses(corrected.vectors, corrected.weights)))


# ---------------------------------------------------------------------------
# correction tables
# ---------------------------------------------------------------------------

_PAULI_PAIRS = tuple((left, right) for left in "IXYZ" for right in "IXYZ")


def derive_corrections(scenario: Scenario) -> dict:
    """Derive outcome -> (pauli, pauli) from the lossless scenario.

    For every branch of the lossless run, the first pair of terminal
    Paulis turning the branch state into |phi+> (fidelity 1) is
    recorded.  Keys are loss-independent: a Z measurement on an encoded
    block contributes only its block sign, which assumes GHZ-type blocks
    whose survivor outcomes are perfectly correlated (true for every code
    this package builds).
    """
    protocol = scenario.protocol()
    return correction_table(*protocol.walk(scenario.initial_state(),
                                           scenario.photon_order()),
                            protocol.candidates, PHI_PLUS_2Q)


# ``derive`` is bound here: a profile counts it in connection_corrections.
@lru_cache(maxsize=None)
def _derived(lossless: Scenario, derive=derive_corrections):
    return MappingProxyType(derive(lossless))


@lru_cache(maxsize=256)
def connection_corrections(scenario: Scenario) -> MappingProxyType:
    """Correction table for a scenario, derived from its lossless variant
    once per lossless scenario (name, plan and every other field
    included) and cached; callers share one read-only view.  A scenario
    seen before finds its table without building that variant again."""
    return _derived(replace(scenario, loss=()) if scenario.loss
                    else scenario)


# ---------------------------------------------------------------------------
# encoded-RGS loss test
# ---------------------------------------------------------------------------

def logical_loss_test(losses_on_c3: int = 0) -> list:
    """Loss tolerance of the encoded RGS: every branch of the witness
    between photons 1', 9' while 0..2 photons of the middle logical
    qubit are lost.

    Three losses destroy the logical qubit and raise ConditionViolation.
    """
    return run_connection(encoded_loss_scenario(losses_on_c3))
