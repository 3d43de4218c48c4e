"""Nine-qubit Shor code and generalized (n, m) quantum parity code.

Physical qubits are 0-indexed; the conventional 1-based photon numbering
maps to index = number - 1.  The Shor code is the (n=3, m=3) instance
with blocks {0,1,2}, {3,4,5}, {6,7,8}; block leaders sit at indices
0, m, 2m, ...

A code word is built with no gate on the full word: the encoding
circuit's CNOTs only move amplitudes, so the Hadamards act on the
n-leader register alone, which is then spread over the blocks (each
leader bit becomes m equal bits), bit for bit as the circuit does.

Readout is a :class:`qparity.sim.Protocol`, the loss protocol of an
RGS connection too: Z on the survivors of blocks 2..n (each block's sign
is the outcome of its first survivor), then X on the non-leader
survivors of block 1.  The leader is left; it gets a fixed Hadamard and
one of {I, Z, X, ZX}, by a table derived on first use from a generic
code word's lossless walk, never hand-written.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable

import numpy as np

from .errors import (
    ConditionViolation,
    ConfigError,
    PreconditionError,
    _check_count,
)
from .sim import (
    ATOL,
    H,
    MAX_QUBITS,
    X,
    Z,
    DensityMatrix,
    PauliString,
    PlanStep,
    Protocol,
    PureState,
    State,
    _apply_to_axes,
    _check_targets,
    _pick,
    apply_pauli,
    apply_pauli_channel,
    correction_table,
    expectation,
    fidelity,
    measure_pauli,
    state_from_qubit,
)


@dataclass(frozen=True)
class LogicalInput:
    """Single-qubit input alpha|0> + beta|1> to be encoded."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        a, b = abs(self.alpha), abs(self.beta)
        # Squaring an amplitude above 1e150 could overflow.
        norm = math.inf if max(a, b) > 1e150 else a ** 2 + b ** 2
        if not abs(norm - 1.0) <= ATOL:   # a NaN norm is refused too
            raise ConfigError(f"input not normalized: |a|^2+|b|^2 = {norm!r}")

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "LogicalInput":
        """Bloch angles: alpha = cos(theta/2), beta = e^{i phi} sin(theta/2)."""
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ConfigError("theta/phi must be finite")
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
        for name in ("n_blocks", "block_size"):
            object.__setattr__(self, name,
                               _check_count(name, getattr(self, name)))

    @property
    def num_qubits(self) -> int:
        return self.n_blocks * self.block_size

    def qubit_of(self, block: int, position: int) -> int:
        _check_count("block", block, least=0, most=self.n_blocks - 1)
        _check_count("position", position, least=0, most=self.block_size - 1)
        return block * self.block_size + position

    def block_qubits(self, block: int) -> tuple:
        return tuple(self.qubit_of(block, i) for i in range(self.block_size))


SHOR_LAYOUT = CodeLayout(3, 3)


@dataclass(frozen=True)
class SyndromeRecord:
    """Values of a layout's stabilizers, in the order returned by
    :func:`stabilizers`: the n(m-1) ZZ pairs, then the n-1 X strings."""

    values: tuple
    layout: CodeLayout = SHOR_LAYOUT

    def __post_init__(self):
        count = len(stabilizers(self.layout))
        if len(self.values) != count:
            raise ConfigError(f"syndrome record of a {self.layout.n_blocks}x"
                              f"{self.layout.block_size} layout needs "
                              f"exactly {count} values")
        for v in self.values:
            if not (-1.0 - ATOL <= v <= 1.0 + ATOL):
                raise ConfigError(f"syndrome value {v} outside [-1, 1]")

    @property
    def sz(self) -> tuple:
        return self.values[:len(self.values) - (self.layout.n_blocks - 1)]

    @property
    def sx(self) -> tuple:
        return self.values[len(self.values) - (self.layout.n_blocks - 1):]


@dataclass(frozen=True)
class ErrorHypothesis:
    """diagnose() output: the minimal single-qubit error consistent with
    a sampled syndrome, or none/unidentifiable."""

    kind: str                 # "none" | "x" | "z" | "y" | "unidentifiable"
    qubit: int | None = None  # for x / y
    block: int | None = None  # for z (degeneracy: identified per block)


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

    def to_json_dict(self, inp: LogicalInput) -> dict:
        return {
            "correction": self.correction,
            "probability": self.probability,
            "degraded": self.degraded,
            "transcript": [
                {"qubit": r.qubit, "basis": r.basis, "outcome": r.outcome,
                 "probability": r.probability}
                for r in self.transcript
            ],
            "fidelity": self.fidelity_to(inp),
        }


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _spread_index(sizes: tuple) -> np.ndarray:
    """Read-only index, in a word of sum(sizes) qubits, of each basis
    state of a register whose bit i becomes block i of sizes[i] bits."""
    index = np.zeros(1, dtype=np.intp)
    for size in sizes:
        shifted = index << size
        index = np.stack([shifted, shifted | ((1 << size) - 1)],
                         axis=1).reshape(-1)
    index.flags.writeable = False
    return index


def _code_word(register, sizes: tuple, rotated=()) -> PureState:
    """The encoding circuit's word from its leader register: a Hadamard
    on each leader in ``rotated``, then leader i fanned out over a block
    of sizes[i] qubits.  A zero column 1 keeps the Hadamards' products
    at two or more columns, as on the full word (a one-column product
    runs through another BLAS kernel, whose last bits differ), and
    ``+ 0.0`` turns a zero of either sign into +0, as the matmul of the
    CNOTs that copy and fan out the leaders does."""
    fanned = max(sizes) > 1
    column = np.zeros((2 ** len(sizes), 2 if fanned else 1), dtype=complex)
    column[:, 0] = register
    if len(sizes) > 1:
        column += 0.0
    tensor = column.reshape([2] * len(sizes) + [-1])
    for leader in rotated:
        tensor = _apply_to_axes(tensor, H, [leader])
    leaders = tensor.reshape(len(column), -1)[:, 0]
    amps = np.zeros(2 ** sum(sizes), dtype=complex)
    amps[_spread_index(sizes)] = leaders + 0.0 if fanned else leaders
    return PureState(amps)


def encode_block(inp: LogicalInput, m: int = 3) -> PureState:
    """Quantum encoder: alpha|0..0> + beta|1..1> over m qubits, the input
    qubit spread over a block of m with no gate, bit for bit what m-1
    CNOTs onto fresh |0> targets give."""
    m = _check_count("m", m, most=MAX_QUBITS)
    return _code_word([inp.alpha, inp.beta], (m,))


def encode_qpc(inp: LogicalInput, n: int, m: int) -> PureState:
    """Quantum parity code over n blocks of m qubits: the input copied
    onto the block leaders, each leader rotated and fanned out over its
    block.  The word is alpha |0>_L^n + beta |1>_L^n with |0/1>_L =
    (|0..0> +- |1..1>)/sqrt2, bit for bit the circuit's."""
    n = _check_count("n", n)
    m = _check_count("m", m)
    if n * m > MAX_QUBITS:
        raise ConfigError(f"{n}x{m} = {n * m} qubits exceeds the "
                          f"{MAX_QUBITS}-qubit cap")
    register = np.zeros(2 ** n, dtype=complex)
    register[0], register[-1] = inp.alpha, inp.beta
    return _code_word(register, (m,) * n, range(n))


def encode_shor(inp: LogicalInput) -> PureState:
    """Nine-qubit Shor code word for the given input."""
    return encode_qpc(inp, 3, 3)


# ---------------------------------------------------------------------------
# stabilizers and syndromes
# ---------------------------------------------------------------------------

def stabilizers(layout: CodeLayout = SHOR_LAYOUT) -> tuple:
    """The code's stabilizer generators, built once per layout; every
    call shares one tuple of read-only :class:`PauliString` objects.

    For the Shor layout: Z0Z1, Z1Z2, Z3Z4, Z4Z5, Z6Z7, Z7Z8, then
    X0..X5 and X3..X8 (adjacent-block X strings), in this order.
    """
    return _stabilizers(layout)


@lru_cache(maxsize=None)
def _stabilizers(layout: CodeLayout) -> tuple:
    gens = []
    for b in range(layout.n_blocks):
        qs = layout.block_qubits(b)
        for i in range(layout.block_size - 1):
            gens.append(PauliString({qs[i]: "Z", qs[i + 1]: "Z"}))
    for b in range(layout.n_blocks - 1):
        qs = layout.block_qubits(b) + layout.block_qubits(b + 1)
        gens.append(PauliString({q: "X" for q in qs}))
    return tuple(gens)


def measure_syndromes(state: State, mode: str = "expectation",
                      rng: np.random.Generator | None = None,
                      layout: CodeLayout = SHOR_LAYOUT):
    """Evaluate the layout's syndrome operators (:func:`stabilizers`).

    mode="expectation" leaves the state untouched and records <S_i>;
    mode="sample" measures the (commuting) operators sequentially in the
    listed order, collapsing as it goes: per operator one uniform from
    ``rng`` picks among its enumerated outcomes.  Returns
    (SyndromeRecord, post_measurement_state).
    """
    if state.num_qubits != layout.num_qubits:
        raise ConfigError(f"state has {state.num_qubits} qubits, layout needs "
                          f"{layout.num_qubits}")
    gens = stabilizers(layout)
    if mode == "expectation":
        return (SyndromeRecord(tuple(expectation(state, g) for g in gens),
                               layout), state)
    if mode == "sample":
        if rng is None:
            raise ConfigError("sample mode needs an rng")
        values = []
        for g in gens:
            results = measure_pauli(state, g)
            outcome, _, state = results[_pick([p for _, p, _ in results],
                                              rng.random())]
            values.append(outcome)
        return SyndromeRecord(tuple(values), layout), state
    raise ConfigError(f"unknown mode {mode!r}")


def apply_flip_channel(state: State, qubit: int, kind: str,
                       p: float) -> DensityMatrix:
    """Probabilistic bit-flip (X) or phase-flip (Z) channel on one qubit."""
    ops = {"bit-flip": "X", "phase-flip": "Z"}
    if kind not in ops:
        raise ConfigError(f"kind must be 'bit-flip' or 'phase-flip', "
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
        raise ConfigError("diagnose needs a sampled record with +-1 entries")
    links = layout.block_size - 1
    x_hits = []
    for b in range(layout.n_blocks):
        pos = _flip_site(vals[b * links:(b + 1) * links])
        if pos is not None:
            x_hits.append((b, pos))
    z_block = _flip_site(vals[len(record.sz):])
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
    letters = {"x": "X", "z": "Z", "y": "ZX"}.get(hypothesis.kind)
    if letters is None:
        raise ConfigError(f"unknown hypothesis kind {hypothesis.kind!r}")
    q = (layout.qubit_of(hypothesis.block, 0) if hypothesis.kind == "z"
         else hypothesis.qubit)
    # Before PauliString, which would call a negative q a bad index.
    _check_targets([q], state.num_qubits)
    for letter in letters:
        state = apply_pauli(state, PauliString({q: letter}))
    return state


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


# The readout leaves the output block's leader, qubit 0.
_READOUT = Protocol(_READOUT_PLAN, lambda rs: [_readout_key(r) for r in rs],
                    _CORRECTION_OPS, keep=(0,))


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
    table = correction_table(*_READOUT.walk(encode_shor(inp),
                                            range(SHOR_LAYOUT.num_qubits)),
                             _CORRECTION_OPS, inp.to_state())
    if len(table) != 4:
        raise RuntimeError(f"expected 4 table entries, derived {len(table)}")
    return MappingProxyType(table)


def decode_readout(state: State, losses: Iterable[int] = ()) -> list:
    """Read the encoded qubit back out of a (possibly lossy) code word.

    ``state`` may be the full 9-qubit word (losses are traced out here)
    or one already reduced to the surviving qubits.  Loss in the output
    block (block 0, qubits 0..m-1) beyond its leader is read out but
    flags every branch ``degraded``: the output's fidelity to the input
    is then not guaranteed (for the (3, 3) code it drops to about 0.79
    for a generic input).  Without that flag every branch has
    fidelity 1.
    Losing qubit 0 raises PreconditionError, and losing every qubit of
    another block ConditionViolation (condition (ii)).
    Returns every measurement branch as a list of DecodeResult in walk
    order.  Sampled readouts are the indices
    :func:`qparity.sim.draw_branches` draws over its walk.
    """
    layout = SHOR_LAYOUT
    lost = frozenset(losses)
    for q in lost:
        _check_count("lost qubit", q, least=0, most=layout.num_qubits - 1)
    if 0 in lost:
        raise PreconditionError("output qubit lost: qubit 0 carries the "
                                "decoded state and cannot be recovered")
    for b in range(layout.n_blocks):
        if set(layout.block_qubits(b)) <= lost:
            raise ConditionViolation(f"block {b} fully lost: no photon "
                                     "left to measure")
    degraded = bool(lost & set(layout.block_qubits(0)))
    stack, names, fixed = _READOUT.run(state, range(layout.num_qubits),
                                       lost, readout_correction_table())
    return [DecodeResult(output=out, correction=name,
                         transcript=[r for recs in records for r in recs],
                         probability=p, degraded=degraded)
            for out, name, records, p in zip(
                fixed._replace(kind=DensityMatrix).states(), names,
                stack.records, stack.probabilities)]
