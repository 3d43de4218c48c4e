"""Nine-qubit Shor code and generalized (n, m) quantum parity code.

Physical qubits are 0-indexed; the conventional 1-based photon numbering
maps to index = number - 1.  The Shor code is the (n=3, m=3) instance
with blocks {0,1,2}, {3,4,5}, {6,7,8}; block leaders sit at indices
0, m, 2m, ...

Readout is a measurement plan run by the same walker as an RGS
connection (:func:`qparity.sim.walk_stack`): Z on the survivors of blocks
2..n (each block's sign is the outcome of its first survivor), then X on
the non-leader survivors of block 1, every measured qubit removed.  The
leader is left; it gets a fixed Hadamard and one of {I, Z, X, ZX}, one
operator per name applied to every branch by
:meth:`qparity.sim.PlanStack.corrected`.  The outcome-to-correction
table is derived the first time it is needed by the shared correction
search (:func:`qparity.sim.correction_table`), which tries the same
operators on the stacked lossless branches of a generic code word; it
is never hand-written.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable

import numpy as np

from .config import TOL
from .errors import PreconditionError
from .sim import (
    CNOT,
    H,
    X,
    Z,
    DensityMatrix,
    PauliString,
    PlanStep,
    PureState,
    State,
    apply_pauli_channel,
    apply_unitary,
    correction_table,
    expectation,
    fidelity,
    measure_pauli,
    partial_trace,
    state_from_qubit,
    walk_stack,
)


@dataclass(frozen=True)
class LogicalInput:
    """Single-qubit input alpha|0> + beta|1> to be encoded."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(norm - 1.0) > TOL.atol:
            raise ValueError(f"input not normalized: |a|^2+|b|^2 = {norm!r}")

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "LogicalInput":
        """Bloch angles: alpha = cos(theta/2), beta = e^{i phi} sin(theta/2)."""
        return cls(math.cos(theta / 2),
                   cmath.exp(1j * phi) * math.sin(theta / 2))

    def to_state(self) -> PureState:
        return state_from_qubit(self.alpha, self.beta)


@dataclass(frozen=True)
class CodeLayout:
    """Mapping of n blocks x m qubits onto physical indices 0..n*m-1."""

    n_blocks: int
    block_size: int

    def __post_init__(self):
        if self.n_blocks < 1 or self.block_size < 1:
            raise ValueError("layout needs n_blocks >= 1 and block_size >= 1")

    @property
    def num_qubits(self) -> int:
        return self.n_blocks * self.block_size

    def qubit_of(self, block: int, position: int) -> int:
        if not (0 <= block < self.n_blocks):
            raise ValueError(f"block {block} out of range")
        if not (0 <= position < self.block_size):
            raise ValueError(f"position {position} out of range")
        return block * self.block_size + position

    def block_qubits(self, block: int) -> tuple:
        return tuple(self.qubit_of(block, i) for i in range(self.block_size))

    def leaders(self) -> tuple:
        return tuple(self.qubit_of(b, 0) for b in range(self.n_blocks))


SHOR_LAYOUT = CodeLayout(3, 3)


@dataclass(frozen=True)
class LossPattern:
    """Set of lost physical qubits."""

    lost: frozenset

    def validate(self, layout: CodeLayout) -> None:
        for q in self.lost:
            if not (0 <= q < layout.num_qubits):
                raise ValueError(f"lost qubit {q} outside layout")


@dataclass(frozen=True)
class SyndromeRecord:
    """Values of a layout's stabilizers, in the order returned by
    :func:`stabilizers`: the n(m-1) ZZ pairs, then the n-1 X strings."""

    values: tuple
    layout: CodeLayout = SHOR_LAYOUT

    def __post_init__(self):
        count = len(stabilizers(self.layout))
        if len(self.values) != count:
            raise ValueError(f"syndrome record of a {self.layout.n_blocks}x"
                             f"{self.layout.block_size} layout needs "
                             f"exactly {count} values")
        for v in self.values:
            if not (-1.0 - TOL.atol <= v <= 1.0 + TOL.atol):
                raise ValueError(f"syndrome value {v} outside [-1, 1]")

    @property
    def sz(self) -> tuple:
        return self.values[:len(self.values) - (self.layout.n_blocks - 1)]

    @property
    def sx(self) -> tuple:
        return self.values[len(self.values) - (self.layout.n_blocks - 1):]

    def to_json_dict(self) -> dict:
        return {"SZ": list(self.sz), "SX": list(self.sx)}


@dataclass(frozen=True)
class ErrorHypothesis:
    """diagnose() output: the minimal single-qubit error consistent with
    a sampled syndrome, or none/unidentifiable."""

    kind: str                 # "none" | "x" | "z" | "y" | "unidentifiable"
    qubit: int | None = None  # for x / y
    block: int | None = None  # for z (degeneracy: identified per block)

    def label(self) -> str:
        if self.kind == "x":
            return f"X on qubit {self.qubit}"
        if self.kind == "y":
            return f"Y on qubit {self.qubit}"
        if self.kind == "z":
            return f"Z on block {self.block}"
        return self.kind


@dataclass
class DecodeResult:
    """One readout branch: recovered qubit, correction, transcript."""

    output: DensityMatrix
    correction: str                      # element of {"I", "Z", "X", "ZX"}
    transcript: list = field(default_factory=list)
    probability: float = 1.0
    degraded: bool = False               # output-block loss: no guarantee

    def fidelity_to(self, inp: LogicalInput) -> float:
        return fidelity(self.output, inp.to_state())

    def to_json_dict(self, inp: LogicalInput | None = None) -> dict:
        out = {
            "correction": self.correction,
            "probability": self.probability,
            "degraded": self.degraded,
            "transcript": [
                {"qubit": r.qubit, "basis": r.basis, "outcome": r.outcome,
                 "probability": r.probability}
                for r in self.transcript
            ],
        }
        if inp is not None:
            out["fidelity"] = self.fidelity_to(inp)
        return out


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def encode_block(inp: LogicalInput, m: int = 3) -> PureState:
    """Quantum encoder: alpha|0..0> + beta|1..1> over m qubits, built by
    m-1 CNOTs from the input qubit onto fresh |0> targets."""
    state = state_from_qubit(inp.alpha, inp.beta, m)
    for t in range(1, m):
        state = apply_unitary(state, CNOT, [0, t])
    return state


def encode_qpc(inp: LogicalInput, n: int, m: int) -> PureState:
    """Quantum parity code over n blocks of m qubits.

    Circuit: copy the input qubit onto the block leaders, Hadamard each
    leader, then expand every leader into its block.  The result is
    alpha |0>_L^n + beta |1>_L^n with |0/1>_L = (|0..0> +- |1..1>)/sqrt2.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if n * m > 12:
        raise ValueError(f"{n}x{m} = {n * m} qubits exceeds the 12-qubit cap")
    layout = CodeLayout(n, m)
    state = state_from_qubit(inp.alpha, inp.beta, n * m)
    for b in range(1, n):
        state = apply_unitary(state, CNOT, [0, layout.qubit_of(b, 0)])
    for leader in layout.leaders():
        state = apply_unitary(state, H, [leader])
    for b in range(n):
        leader = layout.qubit_of(b, 0)
        for pos in range(1, m):
            state = apply_unitary(state, CNOT,
                                  [leader, layout.qubit_of(b, pos)])
    return state


def encode_shor(inp: LogicalInput) -> PureState:
    """Nine-qubit Shor code word for the given input."""
    return encode_qpc(inp, 3, 3)


# ---------------------------------------------------------------------------
# stabilizers and syndromes
# ---------------------------------------------------------------------------

def stabilizers(layout: CodeLayout = SHOR_LAYOUT) -> list:
    """The code's stabilizer generators.

    For the Shor layout: Z0Z1, Z1Z2, Z3Z4, Z4Z5, Z6Z7, Z7Z8, then
    X0..X5 and X3..X8 (adjacent-block X strings), in this order.
    """
    gens = []
    for b in range(layout.n_blocks):
        qs = layout.block_qubits(b)
        for i in range(layout.block_size - 1):
            gens.append(PauliString({qs[i]: "Z", qs[i + 1]: "Z"}))
    for b in range(layout.n_blocks - 1):
        qs = layout.block_qubits(b) + layout.block_qubits(b + 1)
        gens.append(PauliString({q: "X" for q in qs}))
    return gens


def measure_syndromes(state: State, mode: str = "expectation",
                      rng: np.random.Generator | None = None,
                      layout: CodeLayout = SHOR_LAYOUT):
    """Evaluate the layout's syndrome operators (:func:`stabilizers`).

    mode="expectation" leaves the state untouched and records <S_i>;
    mode="sample" measures the (commuting) operators sequentially in the
    listed order, collapsing as it goes.  Returns (SyndromeRecord,
    post_measurement_state).
    """
    if state.num_qubits != layout.num_qubits:
        raise ValueError(f"state has {state.num_qubits} qubits, layout needs "
                         f"{layout.num_qubits}")
    gens = stabilizers(layout)
    if mode == "expectation":
        return (SyndromeRecord(tuple(expectation(state, g) for g in gens),
                               layout), state)
    if mode == "sample":
        values = []
        for g in gens:
            outcome, _, state = measure_pauli(state, g, mode="sample",
                                              rng=rng)
            values.append(outcome)
        return SyndromeRecord(tuple(values), layout), state
    raise ValueError(f"unknown mode {mode!r}")


def apply_flip_channel(state: State, qubit: int, kind: str,
                       p: float) -> DensityMatrix:
    """Probabilistic bit-flip (X) or phase-flip (Z) channel on one qubit."""
    ops = {"bit-flip": "X", "phase-flip": "Z"}
    if kind not in ops:
        raise ValueError(f"kind must be 'bit-flip' or 'phase-flip', "
                         f"got {kind!r}")
    return apply_pauli_channel(state, PauliString({qubit: ops[kind]}), p)


# ---------------------------------------------------------------------------
# diagnosis and correction
# ---------------------------------------------------------------------------

def _flip_site(links: tuple):
    """The one site whose flip explains a chain of +-1 links (link i
    joins sites i and i+1): None for no flip, -1 when no site or several
    sites explain it."""
    if all(v == 1 for v in links):
        return None
    sites = [j for j in range(len(links) + 1)
             if all((v == -1) == (i in (j - 1, j))
                    for i, v in enumerate(links))]
    return sites[0] if len(sites) == 1 else -1


def diagnose(record: SyndromeRecord) -> ErrorHypothesis:
    """Minimal single-qubit hypothesis for a sampled (+-1) syndrome.

    Each block's X position comes from its chain of ZZ pairs, the Z
    block from the chain of adjacent-block X strings.  Z errors are
    degenerate within a block and reported per block.  Syndromes outside
    the single-error table come back unidentifiable, and so does a flip
    that two sites explain alike (X in a block of two, Z in a code of
    two blocks).
    """
    layout = record.layout
    vals = tuple(int(v) for v in record.values)
    if any(v not in (-1, 1) for v in vals):
        raise ValueError("diagnose needs a sampled record with +-1 entries")
    links = layout.block_size - 1
    x_hits = []
    for b in range(layout.n_blocks):
        pos = _flip_site(vals[b * links:(b + 1) * links])
        if pos is not None:
            x_hits.append((b, pos))
    z_block = _flip_site(vals[layout.n_blocks * links:])
    if len(x_hits) > 1 or -1 in (z_block, *(p for _, p in x_hits)):
        return ErrorHypothesis("unidentifiable")

    if not x_hits and z_block is None:
        return ErrorHypothesis("none")
    if x_hits and z_block is None:
        b, pos = x_hits[0]
        return ErrorHypothesis("x", qubit=layout.qubit_of(b, pos))
    if not x_hits:
        return ErrorHypothesis("z", block=z_block)
    b, pos = x_hits[0]
    if b != z_block:
        return ErrorHypothesis("unidentifiable")
    return ErrorHypothesis("y", qubit=layout.qubit_of(b, pos))


def correct(state: State, hypothesis: ErrorHypothesis,
            layout: CodeLayout = SHOR_LAYOUT) -> State:
    """Apply the conjugate Pauli for the hypothesis.

    Z corrections target the lowest-indexed qubit of the implicated
    block; a Y correction is applied as Z then X (global phase dropped).
    """
    if hypothesis.kind == "none":
        return state
    if hypothesis.kind == "unidentifiable":
        raise PreconditionError("cannot correct an unidentifiable syndrome")
    if hypothesis.kind == "x":
        return apply_unitary(state, X, [hypothesis.qubit])
    if hypothesis.kind == "z":
        return apply_unitary(state, Z, [layout.qubit_of(hypothesis.block, 0)])
    if hypothesis.kind == "y":
        q = hypothesis.qubit
        return apply_unitary(apply_unitary(state, Z, [q]), X, [q])
    raise ValueError(f"unknown hypothesis kind {hypothesis.kind!r}")


# ---------------------------------------------------------------------------
# readout with loss
# ---------------------------------------------------------------------------

# Each readout correction with the leader's Hadamard folded in.
_CORRECTION_OPS = {"I": H, "Z": Z @ H, "X": X @ H, "ZX": Z @ X @ H}


_READOUT_PLAN = tuple(
    [PlanStep("measure_block_z", SHOR_LAYOUT.block_qubits(b))
     for b in range(1, SHOR_LAYOUT.n_blocks)]
    + [PlanStep("measure_x", (q,)) for q in SHOR_LAYOUT.block_qubits(0)[1:]])


def _readout_key(records: tuple) -> tuple:
    """(s, t): s is the product of the block signs of blocks >= 1, t the
    product of the X outcomes on block 0's surviving non-leaders."""
    signs = {"Z": 1, "X": 1}
    for recs in records:
        if recs:
            signs[recs[0].basis] *= recs[0].outcome
    return signs["Z"], signs["X"]


@lru_cache(maxsize=None)
def readout_correction_table() -> MappingProxyType:
    """(block-sign product, X parity) -> correction in {I, Z, X, ZX}.

    Derived by enumerating every lossless readout branch of a generic
    codeword as one stack and picking, per branch, the first correction
    that restores the input with fidelity 1; callers share one
    read-only view.
    """
    # Asymmetric amplitudes so that every wrong correction is detectable.
    inp = LogicalInput(math.cos(0.35), cmath.exp(0.9j) * math.sin(0.35))
    stack = walk_stack(encode_shor(inp), range(SHOR_LAYOUT.num_qubits),
                       _READOUT_PLAN)
    table = correction_table(stack, [_readout_key(recs) for recs in
                                     stack.records],
                             _CORRECTION_OPS, inp.to_state())
    if len(table) != 4:
        raise RuntimeError(f"expected 4 table entries, derived {len(table)}")
    return MappingProxyType(table)


def decode_readout(state: State, losses: Iterable[int] = (),
                   mode: str = "enumerate",
                   rng: np.random.Generator | None = None):
    """Read the encoded qubit back out of a (possibly lossy) code word.

    ``state`` may be the full 9-qubit word (losses are traced out here)
    or one already reduced to the surviving qubits.  Loss in the output
    block (block 0, qubits 0..m-1) beyond its leader is read out but
    flags every branch ``degraded``: the output's fidelity to the input
    is then not guaranteed (for the (3, 3) code it drops to about 0.79
    for a generic input).  Without that flag every branch has
    fidelity 1.
    mode="enumerate" returns every measurement branch as a list of
    DecodeResult; mode="sample" follows a single random path.
    """
    layout = SHOR_LAYOUT
    lost = frozenset(int(q) for q in losses)
    LossPattern(lost).validate(layout)
    if 0 in lost:
        raise PreconditionError("output qubit lost: qubit 0 carries the "
                                "decoded state and cannot be recovered")
    for b in range(layout.n_blocks):
        if set(layout.block_qubits(b)) <= lost:
            raise PreconditionError(f"block {b} fully lost: no photon left "
                                    "to measure")
    alive = [q for q in range(layout.num_qubits) if q not in lost]
    if state.num_qubits == layout.num_qubits and lost:
        work: State = partial_trace(state, lost)
    elif state.num_qubits == len(alive):
        work = state
    else:
        raise ValueError(f"state has {state.num_qubits} qubits; expected "
                         f"{layout.num_qubits} or {len(alive)}")
    degraded = bool(lost & set(layout.block_qubits(0)))

    table = readout_correction_table()
    stack = walk_stack(work, alive, _READOUT_PLAN, mode, rng)
    names = [table[_readout_key(recs)] for recs in stack.records]
    ops = np.array([_CORRECTION_OPS[name] for name in names])
    fixed = stack.corrected(ops)._replace(kind=DensityMatrix)
    results = [DecodeResult(output=out, correction=name,
                            transcript=[r for recs in records for r in recs],
                            probability=p, degraded=degraded)
               for out, name, records, p in zip(
                   fixed.states(), names, stack.records,
                   stack.probabilities)]
    if mode == "sample":
        return results[0]
    return results
