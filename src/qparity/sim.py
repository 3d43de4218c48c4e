"""Exact dense simulation of few-qubit quantum states.

States hold at most 12 qubits.  Qubit 0 is the most significant bit of
the computational-basis index, so for two qubits the amplitude order is
|00>, |01>, |10>, |11>.  All operations are pure functions: they never
mutate their argument and return fresh state objects.

Every state is an ensemble rho = sum_i w_i |v_i><v_i| of r amplitude
rows ``vectors`` (r x 2^n, not necessarily normalized) with real
``weights``; a :class:`PureState` is the case r = 1, w = 1.  Each
operation is one code path over the rows: tracing a qubit out splits
every row per discarded basis value, a Pauli channel returns [A; P A],
and everything else acts row by row, so a mixed state costs r vectors
instead of a 4^n matrix.  A Pauli string acts on all rows at once
as one cached index gather and one phase multiply.  Dense matrices
exist only at the boundary: ``DensityMatrix(matrix)`` decomposes its
argument once with ``eigh``, ``DensityMatrix.matrix`` is rebuilt on
demand, and a stack outgrowing 2^n rows is compressed back through one
``eigh``.

Every measurement of one state (:func:`measure_pauli`, :func:`measure`,
:func:`measure_out`) returns the list of realizable
``(outcome, probability, state)`` triples in label order.  Nothing here
samples a single state's outcome: a caller keeps the triple it wants,
by label or by :func:`_pick` over the probabilities with one uniform
from its own ``numpy.random.Generator``.

The measurement-plan walker (:func:`walk_stack`), the correction
search (:func:`correction_table`) and the loss protocol built on them
(:class:`Protocol`), which the Shor readout and the RGS connection
share, live here too.  A walk holds its live branches as one stack
(:class:`PlanStack`), so each measurement is one projection of every
branch; it only enumerates, and :func:`draw_branches` samples walks
over the stack's outcome tree.  A correction is an operator on the
qubits a plan leaves, applied to every branch in one batched matmul
(:meth:`PlanStack.corrected`), in searches and runs alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import (Callable, Hashable, Iterable, Mapping, NamedTuple,
                    Sequence, Union)

import numpy as np

from .errors import ConfigError, PreconditionError, _check_count, _check_unit

MAX_QUBITS = 12

# ATOL is the slack of exactness checks (normalization, unitarity,
# hermiticity), PSD_SLACK that of eigenvalue positivity of density
# matrices, and BRANCH_EPS the least probability at which a measurement
# branch counts as realizable.
ATOL = 1e-10
PSD_SLACK = 1e-9
BRANCH_EPS = 1e-12

# Single-qubit gate constants (complex128).
I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

# CNOT acts on (control, target) with the control as the first axis.
CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]], dtype=complex)

PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}

BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")

# Per measurement basis, the outcome labels and the bras <v| of the
# vectors it projects onto (for "bell", over the (qa, qb) axis pair).
_S2 = 1.0 / math.sqrt(2)
_BRAS = {
    "Z": ((+1, -1), np.array([[1, 0], [0, 1]], dtype=complex)),
    "X": ((+1, -1), np.array([[1, 1], [1, -1]], dtype=complex) * _S2),
    "Y": ((+1, -1), np.array([[1, -1j], [1, 1j]], dtype=complex) * _S2),
    "bell": (BELL_LABELS, np.array([[_S2, 0, 0, _S2],      # phi+
                                    [_S2, 0, 0, -_S2],     # phi-
                                    [0, _S2, _S2, 0],      # psi+
                                    [0, _S2, -_S2, 0]],    # psi-
                                   dtype=complex)),
}


def _check_dimension(dim: int, what: str) -> None:
    n = dim.bit_length() - 1
    if dim != 2 ** n or not (1 <= n <= MAX_QUBITS):
        raise ConfigError(f"{what} {dim} is not a power of two within "
                          f"1..{MAX_QUBITS} qubits")


def _dense(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i w_i |v_i><v_i| as a 2^n x 2^n matrix, per leading index of a
    stack of ensembles."""
    return (vectors.swapaxes(-1, -2) * weights[..., None, :]) @ vectors.conj()


def _eigen_rows(mats: np.ndarray) -> tuple:
    """Eigenvectors (as rows) and eigenvalues of a stack of Hermitian
    matrices (B x d x d), without the eigenvalues that are zero to
    working precision.

    Members of lower rank are padded to the largest rank with
    eigenvectors of weight zero.  Returns rows (B x rank x d) and
    weights (B x rank); kept rows stay in ascending eigenvalue order.
    """
    evals, evecs = np.linalg.eigh(mats)
    size = np.abs(evals)
    keep = size > (size.max(axis=1, keepdims=True) * evals.shape[1]
                   * np.finfo(float).eps)
    first = np.argsort(~keep, axis=1, kind="stable")[:, :keep.sum(1).max()]
    rows = np.take_along_axis(evecs, first[:, None, :], axis=2)
    weights = np.where(np.take_along_axis(keep, first, axis=1),
                       np.take_along_axis(evals, first, axis=1), 0.0)
    return np.ascontiguousarray(rows.swapaxes(1, 2)), weights


def _compressed(vectors: np.ndarray, weights: np.ndarray) -> tuple:
    """A stack of ensembles (B x r x d, B x r) with more rows than
    amplitudes, rebuilt from one stacked ``eigh``; others unchanged."""
    if vectors.shape[1] > vectors.shape[2]:
        return _eigen_rows(_dense(vectors, weights))
    return vectors, weights


class _Ensemble:
    """rho = sum_i weights[i] |vectors[i]><vectors[i]|."""

    __slots__ = ("vectors", "weights")

    @classmethod
    def _from_rows(cls, vectors: np.ndarray, weights: np.ndarray):
        """Unchecked constructor for states made by library operations;
        more rows than amplitudes are compressed through ``eigh``."""
        if len(vectors) > vectors.shape[1]:
            vectors, weights = _compressed(vectors[None], weights[None])
            vectors, weights = vectors[0], weights[0]
        state = object.__new__(cls)
        state.vectors = vectors
        state.weights = weights
        return state

    @property
    def num_qubits(self) -> int:
        return self.vectors.shape[1].bit_length() - 1

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix._from_rows(self.vectors, self.weights)

    def probabilities(self) -> np.ndarray:
        """Computational-basis probabilities, in amplitude order."""
        return (self.weights[:, None] * np.abs(self.vectors) ** 2).sum(axis=0)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_qubits={self.num_qubits})"


class PureState(_Ensemble):
    """Normalized state vector of ``num_qubits`` qubits: the ensemble of
    one row with weight 1."""

    __slots__ = ()

    def __init__(self, amplitudes: np.ndarray):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        _check_dimension(amps.size, "amplitude vector length")
        if not np.isfinite(amps).all():
            raise ConfigError("state has a non-finite amplitude")
        norm = float(np.vdot(amps, amps).real)
        if abs(norm - 1.0) > ATOL:
            raise ConfigError(f"state not normalized: sum |a|^2 = {norm!r}")
        self.vectors = amps.reshape(1, -1)
        self.weights = np.ones(1)

    @property
    def amplitudes(self) -> np.ndarray:
        return self.vectors[0]


class DensityMatrix(_Ensemble):
    """Hermitian, unit-trace density operator, held as an ensemble.

    The constructor checks Hermiticity and trace of ``matrix``, then
    decomposes it once with ``eigh``: the eigenvectors become the rows
    and the eigenvalues the weights.  A weight may be negative, so a
    matrix that is not positive semidefinite still constructs;
    positivity is checked only by :meth:`validate`.  ``matrix`` is a
    read-only dense view, rebuilt on each access.
    """

    __slots__ = ()

    def __init__(self, matrix: np.ndarray):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ConfigError("density matrix must be square")
        _check_dimension(mat.shape[0], "dimension")
        if not np.isfinite(mat).all():
            raise ConfigError("density matrix has a non-finite entry")
        if np.max(np.abs(mat - mat.conj().T)) > ATOL:
            raise ConfigError("density matrix not Hermitian")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > ATOL:
            raise ConfigError(f"density matrix trace {tr!r} != 1")
        vectors, weights = _eigen_rows(mat[None])
        self.vectors, self.weights = vectors[0], weights[0]

    @property
    def matrix(self) -> np.ndarray:
        mat = _dense(self.vectors, self.weights)
        mat.flags.writeable = False
        return mat

    def validate(self) -> None:
        """Raise if any eigenvalue is more negative than the PSD slack."""
        evals = np.linalg.eigvalsh(self.matrix)
        if evals.min() < -PSD_SLACK:
            raise ConfigError(f"density matrix not PSD: min eigenvalue "
                              f"{evals.min():.3e}")


State = Union[PureState, DensityMatrix]


@dataclass(frozen=True)
class PauliString:
    """Signed tensor product of Pauli factors over named qubits.

    ``factors`` maps qubit index -> one of "X", "Y", "Z"; identity
    factors are omitted.  The empty factor map is the (signed) identity.
    It is kept as a read-only mapping in qubit order, so that a shared
    operator (a cached stabilizer, say) cannot be edited.
    """

    factors: Mapping[int, str]
    sign: int = 1

    def __post_init__(self):
        _check_count("sign", self.sign, least=-1, most=1)
        if self.sign == 0:
            raise ConfigError("sign must be +1 or -1")
        for q, letter in self.factors.items():
            _check_count("qubit index", q, least=0)
            if letter not in ("X", "Y", "Z"):
                raise ConfigError(f"bad Pauli letter {letter!r} on qubit {q}")
        object.__setattr__(self, "factors", MappingProxyType(
            dict(sorted(self.factors.items()))))

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
                raise ConfigError("product would carry an imaginary phase")
        return PauliString(factors, sign)

    def label(self) -> str:
        body = " ".join(f"{l}{q}" for q, l in self.factors.items()) or "I"
        return ("-" if self.sign < 0 else "") + body


@dataclass(frozen=True)
class MeasurementRecord:
    """One projective measurement outcome: a qubit (index or photon label)
    in basis X, Y or Z with outcome +1 or -1, or a label pair in basis
    "bell" with a Bell label such as "phi+"."""

    qubit: Hashable
    basis: str
    outcome: int | str
    probability: float

    def __post_init__(self):
        if not (0.0 - ATOL <= self.probability <= 1.0 + ATOL):
            raise ConfigError(f"probability {self.probability} out of [0,1]")


# ---------------------------------------------------------------------------
# internal tensor helpers
# ---------------------------------------------------------------------------

def _apply_to_axes(tensor: np.ndarray, mat: np.ndarray,
                   axes: Sequence[int]) -> np.ndarray:
    """Apply ``mat`` (2^k x 2^k) to the given axes of ``tensor``."""
    rest = [a for a in range(tensor.ndim) if a not in axes]
    perm = list(axes) + rest
    out = tensor.transpose(perm)
    shape = out.shape
    out = mat @ out.reshape(len(mat), -1)
    return out.reshape(shape).transpose(np.argsort(perm))


@lru_cache(maxsize=128)
def _pauli_action(factors: tuple, sign: int, n: int) -> tuple:
    """Index gather and phase of a Pauli product on n qubits.

    ``factors`` is a tuple of (qubit, letter) pairs.  Returns read-only
    arrays (src, phase) with (P v)[k] = phase[k] * v[src[k]]: src flips
    the bits of the X and Y factors, and phase is the sign times -1 per
    set Z or Y bit of k times -i per Y factor, since
    (Y v)[b] = -i (-1)^b v[1 - b].
    """
    k = np.arange(2 ** n)
    signs = np.full(2 ** n, sign)
    xmask = n_y = 0
    for q, letter in factors:
        if q >= n:
            raise PreconditionError(f"Pauli factor on qubit {q} out of range")
        bit = 1 << (n - 1 - q)
        if letter != "Z":
            xmask |= bit
        if letter != "X":
            signs[k & bit != 0] *= -1
        n_y += letter == "Y"
    re, im = ((1, 0), (0, -1), (-1, 0), (0, 1))[n_y % 4]
    phase = np.empty(2 ** n, dtype=complex)
    phase.real, phase.imag = signs * re, signs * im
    src = k ^ xmask
    src.flags.writeable = False
    phase.flags.writeable = False
    return src, phase


def _pauli_rows(vectors: np.ndarray, op: PauliString) -> np.ndarray:
    """P |v> for every row (last axis) of a stack: one gather, one multiply."""
    n = vectors.shape[-1].bit_length() - 1
    src, phase = _pauli_action(tuple(op.factors.items()), op.sign, n)
    return phase * vectors.take(src, axis=-1)


def _check_targets(targets: Sequence[int], n: int) -> None:
    for q in targets:
        _check_count("target qubit", q, least=0, most=n - 1)
    if len(set(targets)) != len(targets):
        raise ConfigError(f"duplicate target qubits {targets}")


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def make_basis_state(num_qubits: int) -> PureState:
    """All-zeros computational basis state |0...0>."""
    return state_from_qubit(1.0, 0.0, num_qubits)


def state_from_qubit(alpha: complex, beta: complex,
                     num_qubits: int = 1) -> PureState:
    """alpha|0> + beta|1> on qubit 0, all other qubits |0>."""
    num_qubits = _check_count("num_qubits", num_qubits, most=MAX_QUBITS)
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
        raise ConfigError(f"matrix shape {mat.shape} does not match "
                          f"{k} target(s)")
    if not np.isfinite(mat).all():   # before a matmul that would warn
        raise ConfigError("matrix is not unitary: it has a non-finite entry")
    if not np.max(np.abs(mat.conj().T @ mat - np.eye(2 ** k))) <= ATOL:
        raise ConfigError("matrix is not unitary within tolerance")
    n = state.num_qubits
    _check_targets(targets, n)
    rows = _apply_to_axes(state.vectors.reshape([-1] + [2] * n), mat,
                          [1 + q for q in targets])
    return state._from_rows(rows.reshape(state.vectors.shape), state.weights)


def _branch_probabilities(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i w_i |row_i|^2 per (branch, outcome) of projected rows
    (B x L x r x d) under their branches' weights (B x r): B x L."""
    b, l = rows.shape[:2]
    weighted = rows * weights[:, None, :, None]
    return np.vecdot(rows.reshape(b, l, -1), weighted.reshape(b, l, -1)).real


def _pick(probs: Sequence[float], draws):
    """Per draw, the index of the first outcome whose cumulative
    probability (summed in order) exceeds it, else of the last one."""
    return np.minimum(np.searchsorted(np.cumsum(probs), draws, side="right"),
                      len(probs) - 1)


def _project_out(vectors: np.ndarray, targets: Sequence[int],
                 basis: str) -> tuple:
    """Project the target qubits of a stack of ensembles (B x r x 2^n)
    onto each vector of ``basis`` (X, Y, Z or "bell") and remove them.

    Returns (labels, rows): the unnormalized rows B x L x r x 2^(n-k),
    one slab per outcome label; the other qubits keep their relative
    order.
    """
    n, k = vectors.shape[2].bit_length() - 1, len(targets)
    _check_targets(targets, n)
    if k >= n:
        raise ConfigError("cannot remove every qubit")
    if basis not in _BRAS or _BRAS[basis][1].shape[1] != 2 ** k:
        raise ConfigError(f"basis {basis!r} does not fit {k} target(s): "
                          "X, Y and Z measure one qubit, 'bell' a pair")
    labels, bras = _BRAS[basis]
    rest = [2 + q for q in range(n) if q not in targets]
    psi = vectors.reshape([len(vectors), -1] + [2] * n).transpose(
        [0] + [2 + q for q in targets] + [1] + rest)
    psi = psi.reshape(len(vectors), 2 ** k, -1)
    rows = psi if basis == "Z" else bras @ psi   # Z bras are the identity
    return labels, rows.reshape(len(vectors), len(labels), -1, 2 ** (n - k))


def _children(rows: np.ndarray, weights: np.ndarray):
    """The children of a projected stack (rows B x L x r x d, weights
    B x r): each (branch, outcome) above the branch floor, parent first
    and then by label.

    Returns (parents, picks, probabilities, vectors, weights): per
    child its parent branch, outcome index and probability, and the
    stack of the children's renormalized, compressed rows.
    """
    probs = _branch_probabilities(rows, weights)
    index = np.nonzero(probs > BRANCH_EPS)
    parents, picks = index[0].tolist(), index[1].tolist()
    kept = probs[index]
    vectors, weights = _compressed(
        rows[index] / np.sqrt(kept)[:, None, None], weights[index[0]])
    return parents, picks, kept.tolist(), vectors, weights


def _outcomes(state: State, labels: Sequence, rows: np.ndarray) -> list:
    """(outcome, probability, state) of every outcome of a one-state
    projection above the branch floor, in label order."""
    _, picks, probs, vectors, weights = _children(rows, state.weights[None])
    return [(labels[i], p, state._from_rows(v, w))
            for i, p, v, w in zip(picks, probs, vectors, weights)]


def measure(state: State, qubit: int, basis: str = "Z") -> list:
    """Projective single-qubit measurement in basis X, Y or Z: the
    :func:`measure_pauli` of that one-letter Pauli, with its
    ``(outcome, probability, collapsed_state)`` triples."""
    _check_targets([qubit], state.num_qubits)
    return measure_pauli(state, PauliString({qubit: basis}))


def measure_out(state: State, qubits: Sequence[int],
                basis: str = "Z") -> list:
    """Measure the given qubits and remove them from the state.

    ``basis`` is X, Y or Z for one qubit (outcomes +1, -1) or "bell" for
    a pair (outcomes "phi+", "phi-", "psi+", "psi-"); any other basis,
    or one that does not fit the number of qubits, raises ConfigError.
    Same triples as :func:`measure_pauli`, but the returned states have
    the measured qubits contracted away (the rest keep their relative
    order), so at least one qubit must remain.
    """
    return _outcomes(state, *_project_out(state.vectors[None], qubits, basis))


def measure_pauli(state: State, op: PauliString) -> list:
    """Projective measurement of a +-1-valued Pauli product.

    Returns the realizable ``(s, probability, collapsed_state)`` triples
    in label order (+1 first), whose probabilities sum to 1.  The
    branches are the rows (v +- P v) / 2, one stack of 1 x 2 x r x 2^n.
    """
    vectors = state.vectors
    pv = _pauli_rows(vectors, op)
    rows = np.stack([(vectors + pv) / 2.0, (vectors - pv) / 2.0])
    return _outcomes(state, (+1, -1), rows[None])


def expectation(state: State, op: PauliString) -> float:
    """<P> for a signed Pauli product; real and clipped to [-1, 1]."""
    vectors = state.vectors
    pv = _pauli_rows(vectors, op)
    val = float(np.vdot(vectors, state.weights[:, None] * pv).real)
    return min(max(val, -1.0), 1.0)   # NaN passes through


def apply_pauli(state: State, op: PauliString) -> State:
    """Apply a signed Pauli product: P|psi> for a pure state (sign
    included), P rho P for a mixed one; returns the same kind of state."""
    return state._from_rows(_pauli_rows(state.vectors, op), state.weights)


def partial_trace(state: State, discard: Iterable[int]) -> DensityMatrix:
    """Trace out the given qubits.

    The kept qubits are reindexed in ascending order of their original
    indices (original relative order is preserved).  Each row splits
    into one row per basis value of the discarded qubits; rows that
    vanish are dropped.
    """
    n = state.num_qubits
    disc = sorted(set(discard))
    _check_targets(disc, n)
    if not disc:
        raise ConfigError("discard set is empty")
    keep = [q for q in range(n) if q not in disc]
    if not keep:
        raise ConfigError("cannot trace out every qubit")
    rows = state.vectors.reshape([-1] + [2] * n).transpose(
        [0] + [1 + q for q in disc + keep]).reshape(-1, 2 ** len(keep))
    weights = np.repeat(state.weights, 2 ** len(disc))
    nonzero = rows.any(axis=1)
    return DensityMatrix._from_rows(rows[nonzero], weights[nonzero])


def fidelity(state: State, target: PureState) -> float:
    """<target| rho |target> = sum_i w_i |<target|v_i>|^2."""
    if state.num_qubits != target.num_qubits:
        raise ConfigError(f"qubit count mismatch: {state.num_qubits} vs "
                          f"{target.num_qubits}")
    t = target.amplitudes
    val = sum(w * abs(np.vdot(t, v)) ** 2
              for w, v in zip(state.weights, state.vectors))
    return float(np.clip(val, 0.0, 1.0))


def apply_pauli_channel(state: State, op: PauliString, p: float) -> DensityMatrix:
    """rho -> (1-p) rho + p P rho P.

    The rows A become [A; P A] with weights [(1-p) w; p w]; rows of
    weight zero are dropped.
    """
    _check_unit("channel probability", p)
    vectors, weights = state.vectors, state.weights
    rows = np.concatenate([vectors, _pauli_rows(vectors, op)])
    weights = np.concatenate([(1.0 - p) * weights, p * weights])
    kept = weights != 0.0
    return DensityMatrix._from_rows(rows[kept], weights[kept])


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
            raise ConfigError(f"unknown plan op {self.op!r}")
        object.__setattr__(self, "photons", tuple(self.photons))
        if self.op == "measure_x" and len(self.photons) != 1:
            raise ConfigError("measure_x takes exactly one photon")
        if self.op == "bsm" and len(set(self.photons)) != 2:
            raise ConfigError("bsm takes exactly two distinct photons")


_STEP_BASIS = {"measure_x": "X", "measure_block_z": "Z", "bsm": "bell"}


class PlanStack(NamedTuple):
    """Every branch of a walked plan as one stack, in walk order."""

    vectors: np.ndarray        # B x r x 2^n renormalized rows per branch
    weights: np.ndarray        # B x r, zero on padding rows
    probabilities: list        # B
    records: list              # per branch, per plan step, its records
    order: tuple               # labels of the qubits left, shared
    kind: type                 # state class of the walked state
    tree: tuple                # per group, (parents, probabilities) per child

    def states(self) -> list:
        """Each branch as a state of ``kind``, without the zero-weight
        rows that pad it to the stack's row count."""
        if self.weights.all():
            return [self.kind._from_rows(vectors, weights)
                    for vectors, weights in zip(self.vectors, self.weights)]
        return [self.kind._from_rows(vectors[weights != 0],
                                     weights[weights != 0])
                for vectors, weights in zip(self.vectors, self.weights)]

    def corrected(self, ops: np.ndarray) -> "PlanStack":
        """Each branch's rows acted on by its operator on ``order``: ops
        is B x 2^k x 2^k, or one 2^k x 2^k operator for every branch."""
        return self._replace(vectors=self.vectors @ ops.swapaxes(-1, -2))


def draw_branches(stack: PlanStack, rng: np.random.Generator,
                  shots: int) -> np.ndarray:
    """The branch index in ``stack`` that each of ``shots`` sampled walks
    ends on: one uniform per walk and measurement group, walk by walk
    (the stream of walks drawn one at a time), and at each node of
    ``stack.tree`` the child that :func:`_pick` gives for the group's
    draw.  ``shots`` must be an integer >= 1, and the draws and ends
    must fit in NumPy's array size limit (ConfigError otherwise)."""
    shots = _check_count("shots", shots)
    groups = len(stack.tree)
    # The uniforms and the ends, 8 bytes each, beside NumPy's limit.
    if 8 * shots * max(groups, 1) > np.iinfo(np.intp).max:
        raise ConfigError(f"{shots} walks of {groups} draws exceed NumPy's "
                          "array size limit")
    draws = rng.random((shots, groups))
    ends = np.zeros(shots, dtype=np.intp)
    for (parents, kept), column in zip(stack.tree, draws.T):
        children = np.empty_like(ends)
        for node in np.unique(ends).tolist():
            walks = ends == node
            lo, hi = np.searchsorted(parents, [node, node + 1]).tolist()
            children[walks] = lo + _pick(kept[lo:hi], column[walks])
        ends = children
    return ends


def walk_stack(state: State, order: Sequence,
               plan: Sequence[PlanStep]) -> PlanStack:
    """Run a measurement plan, removing every qubit it measures, and
    return every realizable branch as one PlanStack.

    ``order`` labels the qubits of ``state``, one distinct label each
    (ConfigError otherwise).  ``records[b][i]`` holds the
    MeasurementRecords of step i in branch b with photon labels in place
    of qubit indices (the label pair and basis "bell" for a BSM).
    Photons not in ``order`` are lost and a step records nothing for
    them; measure_x on a photon an earlier step consumed, or a BSM on a
    missing photon, raises PreconditionError.

    Each measurement group is one projection of every live branch; a
    stack outgrowing 2^n rows per branch is compressed through one
    stacked ``eigh``.  The children of a branch follow it, in
    outcome-label order, and ``tree`` keeps each group's parents and
    probabilities for :func:`draw_branches`.
    """
    order = list(order)
    if len(order) != state.num_qubits:
        raise ConfigError(f"order labels {len(order)} qubits, the state has "
                          f"{state.num_qubits}")
    initial = set(order)
    if len(initial) != len(order):
        raise ConfigError(f"order repeats a label: {order}")
    vectors, weights = state.vectors[None], state.weights[None]
    probs = [1.0]
    records = [()]
    tree = []
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
        made = [()] * len(records)      # this step's records per branch
        p_step = [1.0] * len(records)   # this step's probability
        for group in groups:
            labels, rows = _project_out(
                vectors, [order.index(p) for p in group], basis)
            parents, picks, kept, vectors, weights = _children(rows, weights)
            tree.append((parents, kept))
            label = group if len(group) > 1 else group[0]
            made = [made[b] + (MeasurementRecord(label, basis, labels[i], p),)
                    for b, i, p in zip(parents, picks, kept)]
            records = [records[b] for b in parents]
            probs = [probs[b] for b in parents]
            p_step = [p_step[b] * p for b, p in zip(parents, kept)]
            order = [p for p in order if p not in group]
        records = [recs + (m,) for recs, m in zip(records, made)]
        probs = [p * s for p, s in zip(probs, p_step)]
    return PlanStack(vectors, weights, probs, records, tuple(order),
                     type(state), tuple(tree))


def correction_table(stack: PlanStack, keys: Sequence,
                     candidates: Mapping[object, np.ndarray],
                     target: PureState) -> dict:
    """Map each branch key to the first correction restoring ``target``.

    ``stack`` holds the branches of a lossless walk and ``keys`` one key
    per branch.  Each operator in ``candidates`` (name -> operator on
    ``stack.order``) is tried in turn on every branch at once
    (:meth:`PlanStack.corrected`), and a branch still open takes the
    first candidate whose fidelity sum_i w_i |<target|v_i>|^2 exceeds
    1 - ATOL.  Raises RuntimeError when no candidate restores a
    branch, or when two branches with one key need different
    corrections, at the first such branch in walk order.
    """
    if stack.vectors.shape[2] != len(target.amplitudes):
        raise ConfigError(f"qubit count mismatch: {len(stack.order)} vs "
                          f"{target.num_qubits}")
    chosen = [None] * len(keys)
    for name, op in candidates.items():
        fixed = stack.corrected(op)
        fids = (fixed.weights
                * np.abs(fixed.vectors @ target.amplitudes.conj()) ** 2).sum(1)
        for b, fid in enumerate(fids.tolist()):
            if chosen[b] is None and fid > 1.0 - ATOL:
                chosen[b] = name
        if None not in chosen:
            break
    table = {}
    for k, name in zip(keys, chosen):
        if name is None:
            raise RuntimeError(f"no correction restores branch {k!r}")
        if table.setdefault(k, name) != name:
            raise RuntimeError(f"correction table is inconsistent at {k!r}")
    return table


class Protocol(NamedTuple):
    """A loss protocol: trace out the lost photons, walk ``plan``, key
    each branch (``key`` maps a walk's records to one key per branch) and
    correct it by its table entry, a name in ``candidates``, which maps
    each name to its operator on ``keep``, the labels the plan leaves.
    The table is ``correction_table(*protocol.walk(lossless_state,
    order), protocol.candidates, target)``."""

    plan: tuple
    key: Callable
    candidates: Mapping
    keep: tuple

    def walk(self, state: State, order: Sequence, lost=()) -> tuple:
        """(stack, keys) of the plan walked on ``state``, whose photons
        ``order`` labels, the lost ones included.  A state of every
        photon has ``lost`` traced out, one of the survivors is walked as
        is, and any other size raises ConfigError.  Raises
        PreconditionError unless the walk leaves exactly ``keep``."""
        order, lost = list(order), set(lost)
        if not lost <= set(order):
            raise ConfigError(f"lost labels {lost - set(order)} not in order")
        alive = [p for p in order if p not in lost]
        if lost and state.num_qubits == len(order):
            state = partial_trace(state, [order.index(p) for p in lost])
        elif state.num_qubits != len(alive):
            sizes = f"{len(order)} or {len(alive)}" if lost else len(order)
            raise ConfigError(f"state has {state.num_qubits} qubits; "
                              f"expected {sizes}")
        stack = walk_stack(state, alive, self.plan)
        if stack.order != self.keep:
            raise PreconditionError(f"malformed plan: {list(stack.order)} "
                                    f"remain, expected {list(self.keep)}")
        return stack, self.key(stack.records)

    def run(self, state: State, order, lost, table: Mapping) -> tuple:
        """(stack, names, corrected): :meth:`walk`, each branch's
        correction name in ``table`` (PreconditionError for a key it
        lacks) and one :meth:`PlanStack.corrected` by those names."""
        stack, keys = self.walk(state, order, lost)
        try:
            names = [table[key] for key in keys]
        except KeyError as missing:
            raise PreconditionError(f"no correction entry for outcome "
                                    f"{missing.args[0]!r}") from None
        ops = np.array([self.candidates[name] for name in names])
        return stack, names, stack.corrected(ops)
