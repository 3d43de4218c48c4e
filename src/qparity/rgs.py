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
from functools import lru_cache, reduce
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
    n = _check_count("n", n, least=2, most=MAX_QUBITS)
    return PureState(_ghz_amps(n))


def build_partial_encoded(m: int) -> PureState:
    """(|000>|0_l> + |111>|1_l>)/sqrt2 with an m-photon encoded qubit.

    Qubits 0..2 are the bare GHZ arms, qubits 3..2+m the encoded block.
    The circuit's GHZ over the three arms plus the block leader, with the
    leader rotated, is a 4-qubit register; it is spread over blocks of
    1, 1, 1 and m qubits (:func:`qparity.shor.encode_qpc` says why this
    is the circuit bit for bit).
    """
    m = _check_count("m", m, most=MAX_QUBITS - 3)
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
    """An RGS's structure: "bare" has n single photons, "partial" three
    and a block of m (n = 4), "encoded" n blocks of m."""

    kind: str
    n: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "n", _check_count("n", self.n))
        object.__setattr__(self, "m", _check_count("m", self.m))
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
        """Photons of the built state (a bare RGS has m = 1)."""
        return 3 + self.m if self.kind == "partial" else self.n * self.m

    @property
    def blocks(self) -> tuple:
        """Qubit indices of each logical qubit, in state order."""
        if self.kind == "partial":
            return (0,), (1,), (2,), tuple(range(3, 3 + self.m))
        m = self.m
        return tuple(tuple(range(b * m, b * m + m)) for b in range(self.n))

    def encoder_sites(self, first: int = 0) -> list:
        """Effective site Paulis of the RGS's encoders, in circuit order,
        on qubits numbered from ``first``, the index of the RGS's first
        photon.

        The GHZ stage kicks the second logical qubit before its basis
        rotation: an X string over an encoded block, Z on a bare photon.
        A partially encoded RGS rotates its encoded leader after that
        stage, so the block's encoder kick is an X string too; a fully
        encoded RGS builds its blocks last, each leaving a Z kick on its
        second photon.  A lone block (one logical qubit) has no GHZ
        stage.
        """
        first = _check_count("first", first, least=0)
        blocks = [[first + q for q in block] for block in self.blocks]

        def ghz_kick(block):
            return PauliString(dict.fromkeys(block,
                                             "X" if len(block) > 1 else "Z"))

        sites = [ghz_kick(blocks[1])] if len(blocks) > 1 else []
        if self.kind == "partial":
            sites += [ghz_kick(b) for b in blocks if len(b) > 1]
        elif self.kind == "encoded":
            sites += [PauliString({(b[1:2] or b)[0]: "Z"}) for b in blocks]
        return sites

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
    loss: tuple                # lost photon labels
    plan: tuple                # PlanStep instructions, executed in order
    terminals: tuple           # (left terminal, right terminal)

    def __post_init__(self):
        object.__setattr__(self, "channels",
                           tuple(tuple(c) for c in self.channels))
        object.__setattr__(self, "rgs_order", tuple(self.rgs_order))
        object.__setattr__(self, "loss", tuple(self.loss))
        object.__setattr__(self, "plan", tuple(self.plan))
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
        interfaces = {i for _, i in self.channels}
        rgs = set(self.rgs_order)
        known = set(order)
        for lost in self.loss:
            if lost not in rgs:
                raise ConfigError(f"lost photon {lost!r} is not an RGS photon")
        for step in self.plan:
            if not isinstance(step, PlanStep):
                raise ConfigError(f"plan step {step!r} is not a PlanStep")
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

    @property
    def rgs_groups(self) -> tuple:
        """``rgs_order``'s labels per logical qubit, by
        :attr:`RgsSpec.blocks`."""
        return tuple(tuple(map(self.rgs_order.__getitem__, block))
                     for block in self.rgs.blocks)

    def encoder_sites(self) -> list:
        """:meth:`RgsSpec.encoder_sites` on the qubits of
        :meth:`initial_state`, whose channel photons come first."""
        return self.rgs.encoder_sites(first=2 * len(self.channels))

    def photon_order(self) -> tuple:
        """Each channel's (terminal, interface), then ``rgs_order``."""
        return sum(self.channels, ()) + self.rgs_order

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
        """The fields as ``dataclasses.asdict`` gives them, ``rgs`` and
        each plan step as a dict and every other field as is, and
        ``rgs_groups``."""
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


@lru_cache(maxsize=16)
def _initial_state(rgs: RgsSpec, channels: int) -> PureState:
    state = PureState(reduce(np.kron, [PHI_PLUS_2Q.amplitudes] * channels
                             + [rgs.build().amplitudes]))
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


@lru_cache(maxsize=None)
def _lossless_table(lossless: Scenario) -> MappingProxyType:
    """The correction table of a lossless scenario, read-only.  Private,
    so that a profile counts the derivation in connection_corrections."""
    protocol = lossless.protocol()
    return MappingProxyType(correction_table(
        *protocol.walk(lossless.initial_state(), lossless.photon_order()),
        protocol.candidates, PHI_PLUS_2Q))


@lru_cache(maxsize=256)
def connection_corrections(scenario: Scenario) -> MappingProxyType:
    """Outcome -> (pauli, pauli) for a scenario, derived from its lossless
    variant once per lossless scenario (name, plan and every other field
    included) and cached; callers share one read-only view.  A scenario
    seen before finds its table without building that variant again.

    For every branch of the lossless run, the first pair of terminal
    Paulis turning the branch state into |phi+> (fidelity 1) is
    recorded.  Keys are loss-independent: a Z measurement on an encoded
    block contributes only its block sign, which assumes GHZ-type blocks
    whose survivor outcomes are perfectly correlated (true for every code
    this package builds).
    """
    return _lossless_table(replace(scenario, loss=()) if scenario.loss
                           else scenario)
