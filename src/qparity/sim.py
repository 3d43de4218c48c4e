"""Exact dense simulation of few-qubit quantum states.

States hold at most 12 qubits.  Qubit 0 is the most significant bit of
the computational-basis index, so for two qubits the amplitude order is
|00>, |01>, |10>, |11>.  All operations are pure functions: they never
mutate their argument and return fresh state objects.

Stochastic operations draw from a caller-supplied
``numpy.random.Generator``; for a fixed seed every run is bit-identical
because every draw happens in documented call order: each sampled
measurement makes exactly one draw.

The measurement-plan walker (:func:`walk_plan`) and the correction
search (:func:`correction_table`) shared by the Shor readout and the RGS
connection protocol live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .config import TOL
from .errors import PreconditionError

MAX_QUBITS = 12

# Single-qubit gate constants (complex128).
I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
S = np.array([[1, 0], [0, 1j]], dtype=complex)

# CNOT acts on (control, target) with the control as the first axis.
CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]], dtype=complex)

SWAP = np.array(
    [[1, 0, 0, 0],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1]], dtype=complex)

PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}

# Columns are the +1 / -1 eigenvectors of each measurement basis.
_BASIS_VECS = {
    "Z": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / math.sqrt(2),
}

BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")


def _bell_vectors() -> np.ndarray:
    """4x4 array whose rows are the Bell states in (qa, qb) axis order."""
    s = 1.0 / math.sqrt(2)
    return np.array(
        [[s, 0, 0, s],     # phi+ = (|00> + |11>)/sqrt2
         [s, 0, 0, -s],    # phi- = (|00> - |11>)/sqrt2
         [0, s, s, 0],     # psi+ = (|01> + |10>)/sqrt2
         [0, s, -s, 0]],   # psi- = (|01> - |10>)/sqrt2
        dtype=complex)


BELL_STATES = _bell_vectors()


class PureState:
    """Normalized state vector of ``num_qubits`` qubits."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes: np.ndarray):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        n = int(round(math.log2(amps.size)))
        if 2 ** n != amps.size or not (1 <= n <= MAX_QUBITS):
            raise ValueError(f"amplitude vector length {amps.size} is not a "
                             f"power of two within 1..{MAX_QUBITS} qubits")
        norm = float(np.vdot(amps, amps).real)
        if abs(norm - 1.0) > TOL.atol:
            raise ValueError(f"state not normalized: sum |a|^2 = {norm!r}")
        self.amplitudes = amps

    @property
    def num_qubits(self) -> int:
        return int(round(math.log2(self.amplitudes.size)))

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))

    def amplitude(self, bits: str) -> complex:
        """Amplitude of the basis string, qubit 0 leftmost."""
        return complex(self.amplitudes[int(bits, 2)])

    def __repr__(self) -> str:
        return f"PureState(num_qubits={self.num_qubits})"


class DensityMatrix:
    """Hermitian, unit-trace density operator.

    Hermiticity and trace are checked on construction; positivity is
    checked only by :meth:`validate` because an eigendecomposition per
    intermediate state would dominate branch-enumeration runtimes.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        n = int(round(math.log2(mat.shape[0])))
        if 2 ** n != mat.shape[0] or not (1 <= n <= MAX_QUBITS):
            raise ValueError(f"dimension {mat.shape[0]} is not a power of two "
                             f"within 1..{MAX_QUBITS} qubits")
        if np.max(np.abs(mat - mat.conj().T)) > TOL.atol:
            raise ValueError("density matrix not Hermitian")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TOL.atol:
            raise ValueError(f"density matrix trace {tr!r} != 1")
        self.matrix = mat

    @property
    def num_qubits(self) -> int:
        return int(round(math.log2(self.matrix.shape[0])))

    def validate(self) -> None:
        """Raise if any eigenvalue is more negative than the PSD slack."""
        evals = np.linalg.eigvalsh(self.matrix)
        if evals.min() < -TOL.psd_slack:
            raise ValueError(f"density matrix not PSD: min eigenvalue "
                             f"{evals.min():.3e}")

    def __repr__(self) -> str:
        return f"DensityMatrix(num_qubits={self.num_qubits})"


State = Union[PureState, DensityMatrix]


@dataclass(frozen=True)
class PauliString:
    """Signed tensor product of Pauli factors over named qubits.

    ``factors`` maps qubit index -> one of "X", "Y", "Z"; identity
    factors are omitted.  The empty factor map is the (signed) identity.
    """

    factors: Mapping[int, str]
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        object.__setattr__(self, "factors",
                           dict(sorted(self.factors.items())))
        for q, letter in self.factors.items():
            if letter not in ("X", "Y", "Z"):
                raise ValueError(f"bad Pauli letter {letter!r} on qubit {q}")
            if q < 0:
                raise ValueError(f"negative qubit index {q}")

    def support(self) -> tuple:
        return tuple(self.factors)

    def commutes_with(self, other: "PauliString") -> bool:
        overlap = set(self.factors) & set(other.factors)
        anti = sum(1 for q in overlap if self.factors[q] != other.factors[q])
        return anti % 2 == 0

    def __mul__(self, other: "PauliString") -> "PauliString":
        """Product, valid only when no i/-i phase arises (disjoint or equal
        factors on every shared qubit)."""
        factors = dict(self.factors)
        sign = self.sign * other.sign
        for q, letter in other.factors.items():
            if q not in factors:
                factors[q] = letter
            elif factors[q] == letter:
                del factors[q]
            else:
                raise ValueError("product would carry an imaginary phase")
        return PauliString(factors, sign)

    def label(self) -> str:
        body = " ".join(f"{l}{q}" for q, l in self.factors.items()) or "I"
        return ("-" if self.sign < 0 else "") + body


@dataclass(frozen=True)
class MeasurementRecord:
    """One single-qubit projective measurement outcome."""

    qubit: int
    basis: str
    outcome: int
    probability: float

    def __post_init__(self):
        if not (0.0 - TOL.atol <= self.probability <= 1.0 + TOL.atol):
            raise ValueError(f"probability {self.probability} out of [0,1]")


# ---------------------------------------------------------------------------
# internal tensor helpers
# ---------------------------------------------------------------------------

def _apply_to_axes(tensor: np.ndarray, mat: np.ndarray,
                   axes: Sequence[int], total: int) -> np.ndarray:
    """Apply ``mat`` (2^k x 2^k) to the given axes of a [2]*total tensor."""
    k = len(axes)
    rest = [a for a in range(total) if a not in axes]
    perm = list(axes) + rest
    out = tensor.transpose(perm).reshape(2 ** k, -1)
    out = mat @ out
    out = out.reshape([2] * total).transpose(np.argsort(perm))
    return out


def _vec_apply(amps: np.ndarray, mat: np.ndarray,
               targets: Sequence[int], n: int) -> np.ndarray:
    t = _apply_to_axes(amps.reshape([2] * n), mat, list(targets), n)
    return t.reshape(-1)


def _dm_apply(rho: np.ndarray, mat: np.ndarray,
              targets: Sequence[int], n: int) -> np.ndarray:
    """U rho U^dagger on the target qubits."""
    t = rho.reshape([2] * (2 * n))
    t = _apply_to_axes(t, mat, list(targets), 2 * n)
    t = _apply_to_axes(t, mat.conj(), [n + q for q in targets], 2 * n)
    return t.reshape(2 ** n, 2 ** n)


def _pauli_left(arr: np.ndarray, op: PauliString, n: int) -> np.ndarray:
    """P |psi> for a raw vector, P rho for a raw matrix."""
    total = arr.ndim * n
    t = arr.reshape([2] * total)
    for q, letter in op.factors.items():
        if q >= n:
            raise PreconditionError(f"Pauli factor on qubit {q} out of range")
        t = _apply_to_axes(t, PAULI[letter], [q], total)
    return op.sign * t.reshape(arr.shape)


def _check_unitary(mat: np.ndarray) -> None:
    d = mat.shape[0]
    if np.max(np.abs(mat.conj().T @ mat - np.eye(d))) > TOL.atol:
        raise ValueError("matrix is not unitary within tolerance")


def _check_targets(targets: Sequence[int], n: int) -> None:
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubits {targets}")
    for q in targets:
        if not (0 <= q < n):
            raise ValueError(f"target qubit {q} out of range for {n} qubits")


def _renorm(v: np.ndarray) -> np.ndarray:
    return v / math.sqrt(float(np.vdot(v, v).real))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def make_basis_state(num_qubits: int) -> PureState:
    """All-zeros computational basis state |0...0>."""
    if not (1 <= num_qubits <= MAX_QUBITS):
        raise ValueError(f"num_qubits must be in 1..{MAX_QUBITS}, "
                         f"got {num_qubits}")
    amps = np.zeros(2 ** num_qubits, dtype=complex)
    amps[0] = 1.0
    return PureState(amps)


def state_from_qubit(alpha: complex, beta: complex,
                     num_qubits: int = 1) -> PureState:
    """alpha|0> + beta|1> on qubit 0, all other qubits |0>."""
    amps = np.zeros(2 ** num_qubits, dtype=complex)
    amps[0] = alpha
    amps[2 ** (num_qubits - 1)] = beta
    return PureState(amps)


def apply_unitary(state: State, matrix: np.ndarray,
                  targets: Sequence[int]) -> State:
    """Apply a 2x2 or 4x4 unitary to the target qubits.

    Returns the same kind of state that came in; norm (trace) is
    preserved by construction.
    """
    mat = np.asarray(matrix, dtype=complex)
    k = len(targets)
    if mat.shape != (2 ** k, 2 ** k) or k not in (1, 2):
        raise ValueError(f"matrix shape {mat.shape} does not match "
                         f"{k} target(s)")
    _check_unitary(mat)
    _check_targets(targets, state.num_qubits)
    if isinstance(state, PureState):
        return PureState(_vec_apply(state.amplitudes, mat, targets,
                                    state.num_qubits))
    return DensityMatrix(_dm_apply(state.matrix, mat, targets,
                                   state.num_qubits))


def _select(branches: list, mode: str, rng: np.random.Generator | None,
            outcome):
    """Pick one (outcome, probability, state) branch.

    mode="forced" returns the branch with the given ``outcome``;
    mode="sample" draws exactly one uniform number from ``rng`` and picks
    by cumulative probability, falling back to the last branch.
    """
    if mode == "forced":
        for branch in branches:
            if branch[0] == outcome:
                return branch
        raise PreconditionError(f"forced outcome {outcome!r} has probability "
                                f"below {TOL.branch_eps}")
    if mode == "sample":
        if rng is None:
            raise ValueError("sample mode needs an rng")
        r = rng.random()
        acc = 0.0
        for branch in branches:
            acc += branch[1]
            if r < acc:
                return branch
        return branches[-1]
    raise ValueError(f"unknown measurement mode {mode!r}")


def _project_out(state: State, targets: Sequence[int], basis: str) -> list:
    """Project the target qubits onto each vector of ``basis`` (X, Y, Z
    or "bell") and remove them.

    Returns (outcome, probability, remaining state) for every branch
    above the branch floor; the other qubits keep their relative order.
    """
    n, k = state.num_qubits, len(targets)
    _check_targets(targets, n)
    if k >= n:
        raise ValueError("cannot remove every qubit")
    if basis == "bell":
        vecs, labels = BELL_STATES, BELL_LABELS
    elif basis in _BASIS_VECS:
        vecs, labels = _BASIS_VECS[basis].T, (+1, -1)
    else:
        raise ValueError(f"basis must be X, Y or Z, got {basis!r}")
    rest = [q for q in range(n) if q not in targets]
    branches = []
    if isinstance(state, PureState):
        psi = state.amplitudes.reshape([2] * n)
        psi = psi.transpose(list(targets) + rest).reshape(2 ** k, -1)
        for label, vec in zip(labels, vecs):
            v = vec.conj() @ psi
            p = float(np.vdot(v, v).real)
            if p > TOL.branch_eps:
                branches.append((label, p, PureState(_renorm(v))))
    else:
        t = state.matrix.reshape([2] * (2 * n))
        perm = list(targets) + rest + [n + q for q in list(targets) + rest]
        t = t.transpose(perm).reshape(2 ** k, 2 ** (n - k), 2 ** k,
                                      2 ** (n - k))
        for label, vec in zip(labels, vecs):
            sub = np.einsum("a,abcd,c->bd", vec.conj(), t, vec)
            p = float(np.trace(sub).real)
            if p > TOL.branch_eps:
                branches.append((label, p, DensityMatrix(sub / p)))
    return branches


def _recorded(qubit: int, basis: str, branches: list, mode: str, rng,
              outcome):
    """Single-qubit results, with MeasurementRecord in place of
    (outcome, probability)."""
    if mode == "distribution":
        return [(MeasurementRecord(qubit, basis, o, p), st)
                for o, p, st in branches]
    o, p, st = _select(branches, mode, rng, outcome)
    return MeasurementRecord(qubit, basis, o, p), st


def measure(state: State, qubit: int, basis: str = "Z", mode: str = "sample",
            rng: np.random.Generator | None = None,
            outcome: int | None = None):
    """Projective single-qubit measurement.

    mode="sample" draws the outcome from ``rng``; mode="forced" collapses
    onto the requested ``outcome``; mode="distribution" returns every
    realizable branch.  Sample/forced return
    ``(MeasurementRecord, collapsed_state)``; distribution returns a list
    of such pairs whose probabilities sum to 1.
    """
    _check_targets([qubit], state.num_qubits)
    branches = measure_pauli(state, PauliString({qubit: basis}),
                             mode="distribution")
    return _recorded(qubit, basis, branches, mode, rng, outcome)


def measure_out(state: State, qubit: int, basis: str = "Z",
                mode: str = "sample",
                rng: np.random.Generator | None = None,
                outcome: int | None = None):
    """Measure a qubit and remove it from the state.

    Same conventions as :func:`measure`, but the collapsed qubit is
    contracted away, so the returned states have one qubit fewer (the
    rest keep their relative order).  The state must hold >= 2 qubits.
    """
    return _recorded(qubit, basis, _project_out(state, [qubit], basis), mode,
                     rng, outcome)


def measure_pauli(state: State, op: PauliString, mode: str = "sample",
                  rng: np.random.Generator | None = None,
                  outcome: int | None = None):
    """Projective measurement of a +-1-valued Pauli product.

    Same mode/return conventions as :func:`measure`, with the outcome
    reported as (op, outcome, probability) tuples in place of
    MeasurementRecord.
    """
    n = state.num_qubits
    branches = []
    if isinstance(state, PureState):
        pv = _pauli_left(state.amplitudes, op, n)
        for s in (+1, -1):
            collapsed = (state.amplitudes + s * pv) / 2.0
            p = float(np.vdot(collapsed, collapsed).real)
            if p > TOL.branch_eps:
                branches.append((s, p, PureState(_renorm(collapsed))))
    else:
        rho = state.matrix
        pr = _pauli_left(rho, op, n)
        rp = pr.conj().T           # rho P, since P rho is (rho P)^dagger
        prp = _pauli_left(rp, op, n)
        for s in (+1, -1):
            collapsed = (rho + s * pr + s * rp + prp) / 4.0
            p = float(np.trace(collapsed).real)
            if p > TOL.branch_eps:
                branches.append((s, p, DensityMatrix(collapsed / p)))
    if mode == "distribution":
        return branches
    s, p, st = _select(branches, mode, rng, outcome)
    return (s, p), st


def expectation(state: State, op: PauliString) -> float:
    """<P> for a signed Pauli product; real and clipped to [-1, 1]."""
    n = state.num_qubits
    if isinstance(state, PureState):
        val = np.vdot(state.amplitudes, _pauli_left(state.amplitudes, op, n))
    else:
        val = np.trace(_pauli_left(state.matrix, op, n))
    return float(np.clip(val.real, -1.0, 1.0))


def partial_trace(state: State, discard: Iterable[int]) -> DensityMatrix:
    """Trace out the given qubits.

    The kept qubits are reindexed in ascending order of their original
    indices (original relative order is preserved).
    """
    n = state.num_qubits
    disc = sorted(set(int(q) for q in discard))
    _check_targets(disc, n)
    if not disc:
        raise ValueError("discard set is empty")
    keep = [q for q in range(n) if q not in disc]
    if not keep:
        raise ValueError("cannot trace out every qubit")
    k, d = len(keep), len(disc)
    if isinstance(state, PureState):
        psi = state.amplitudes.reshape([2] * n)
        psi = psi.transpose(keep + disc).reshape(2 ** k, 2 ** d)
        return DensityMatrix(psi @ psi.conj().T)
    t = state.matrix.reshape([2] * (2 * n))
    perm = keep + disc + [n + q for q in keep] + [n + q for q in disc]
    t = t.transpose(perm).reshape(2 ** k, 2 ** d, 2 ** k, 2 ** d)
    return DensityMatrix(np.einsum("adbd->ab", t))


def bell_project(state: State, qa: int, qb: int, mode: str = "sample",
                 rng: np.random.Generator | None = None,
                 outcome: str | None = None):
    """Project qubits (qa, qb) onto the Bell basis and remove them.

    Outcomes are labelled "phi+", "phi-", "psi+", "psi-".  Sample/forced
    return ``(label, probability, collapsed_state)``; mode="enumerate"
    returns the list of realizable branches in label order.  Remaining
    qubits keep their original relative order.
    """
    branches = _project_out(state, [qa, qb], "bell")
    if mode == "enumerate":
        return branches
    return _select(branches, mode, rng, outcome)


def fidelity(state: State, target: PureState) -> float:
    """<target| rho |target>, or |<target|psi>|^2 for pure input."""
    if state.num_qubits != target.num_qubits:
        raise ValueError(f"qubit count mismatch: {state.num_qubits} vs "
                         f"{target.num_qubits}")
    t = target.amplitudes
    if isinstance(state, PureState):
        val = abs(np.vdot(t, state.amplitudes)) ** 2
    else:
        val = np.vdot(t, state.matrix @ t).real
    return float(np.clip(val, 0.0, 1.0))


def apply_pauli_channel(state: State, op: PauliString, p: float) -> DensityMatrix:
    """rho -> (1-p) rho + p P rho P.

    Always promotes to a density matrix: flip channels are stochastic.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"channel probability {p} out of [0, 1]")
    rho = state.to_density() if isinstance(state, PureState) else state
    n = rho.num_qubits
    # P rho P = P (P rho)^dagger for Hermitian rho and P.
    flipped = _pauli_left(_pauli_left(rho.matrix, op, n).conj().T, op, n)
    return DensityMatrix((1.0 - p) * rho.matrix + p * flipped)


# ---------------------------------------------------------------------------
# measurement plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanStep:
    """One protocol instruction.

    op="measure_x":       photons = (label,)
    op="measure_block_z": photons = one logical qubit; its surviving
                          photons are measured in Z in the listed order
    op="bsm":             photons = (channel interface, RGS photon)
    """

    op: str
    photons: tuple

    def __post_init__(self):
        if self.op not in _STEP_BASIS:
            raise ValueError(f"unknown plan op {self.op!r}")
        object.__setattr__(self, "photons", tuple(self.photons))
        if self.op == "measure_x" and len(self.photons) != 1:
            raise ValueError("measure_x takes exactly one photon")
        if self.op == "bsm" and len(set(self.photons)) != 2:
            raise ValueError("bsm takes exactly two distinct photons")


_STEP_BASIS = {"measure_x": "X", "measure_block_z": "Z", "bsm": "bell"}


class PlanBranch(NamedTuple):
    """One branch of a walked plan."""

    records: tuple        # per plan step, the MeasurementRecords it made
    probability: float
    state: State
    order: tuple          # labels of the qubits left in ``state``


def walk_plan(state: State, order: Sequence, plan: Sequence[PlanStep],
              mode: str = "enumerate",
              rng: np.random.Generator | None = None) -> list:
    """Run a measurement plan, removing every qubit it measures.

    ``order`` labels the qubits of ``state``.  mode="enumerate" returns
    every realizable branch, mode="sample" the one branch drawn from
    ``rng``, as a list of PlanBranch.  ``records[i]`` holds the
    MeasurementRecords of step i with photon labels in place of qubit
    indices (the label pair and basis "bell" for a BSM).  Photons not in
    ``order`` are lost and a step records nothing for them; measure_x on
    a photon an earlier step consumed, or a BSM on a missing photon,
    raises PreconditionError.
    """
    if mode not in ("enumerate", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    order, initial = list(order), set(order)
    branches = [((), 1.0, state)]
    for step in plan:
        present = [p for p in step.photons if p in order]
        if step.op == "bsm" and len(present) < 2:
            raise PreconditionError(f"BSM {step.photons} on a lost photon")
        if (step.op == "measure_x" and not present
                and step.photons[0] in initial):
            raise PreconditionError(f"malformed plan: photon "
                                    f"{step.photons[0]!r} already consumed")
        groups = ([step.photons] if step.op == "bsm"
                  else [(p,) for p in present])
        basis = _STEP_BASIS[step.op]
        # (records so far, probability, state, this step's records,
        # this step's probability)
        growing = [(recs, prob, st, (), 1.0) for recs, prob, st in branches]
        for group in groups:
            targets = [order.index(p) for p in group]
            label = group if len(group) > 1 else group[0]
            nxt = []
            for recs, prob, st, made, p_step in growing:
                outs = _project_out(st, targets, basis)
                if mode == "sample":
                    outs = [_select(outs, mode, rng, None)]
                nxt += [(recs, prob, ns,
                         made + (MeasurementRecord(label, basis, o, p),),
                         p_step * p) for o, p, ns in outs]
            growing = nxt
            order = [p for p in order if p not in group]
        branches = [(recs + (made,), prob * p_step, st)
                    for recs, prob, st, made, p_step in growing]
    return [PlanBranch(recs, prob, st, tuple(order))
            for recs, prob, st in branches]


def correction_table(branches: Sequence[PlanBranch],
                     key: Callable[[tuple], object], names: Iterable,
                     apply: Callable[[State, tuple, object], State],
                     target: PureState) -> dict:
    """Map each branch key to the first correction restoring ``target``.

    For every branch the candidate corrections ``names`` are tried in
    order; the first for which ``apply(state, order, name)`` has
    fidelity 1 with ``target`` is recorded under ``key(records)``.
    Raises RuntimeError when no candidate restores a branch, or when two
    branches with one key need different corrections.
    """
    table = {}
    for branch in branches:
        k = key(branch.records)
        for name in names:
            fixed = apply(branch.state, branch.order, name)
            if fidelity(fixed, target) > 1.0 - TOL.atol:
                break
        else:
            raise RuntimeError(f"no correction restores branch {k!r}")
        if table.setdefault(k, name) != name:
            raise RuntimeError(f"correction table is inconsistent at {k!r}")
    return table
