"""Independent reference implementations used as test oracles.

Everything here builds full 2^n x 2^n operators by Kronecker products
and explicit index arithmetic, deliberately avoiding the tensor-reshape
code paths of the package under test.  The gate-by-gate encoders are
the exception: they run the package's gate primitive, since they are
bit-for-bit oracles.
"""

import math
from typing import NamedTuple

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)

PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}


def site_operator(factors: dict, n: int) -> np.ndarray:
    """kron product with the given single-qubit matrices at their sites."""
    out = np.array([[1.0 + 0j]])
    for q in range(n):
        out = np.kron(out, factors.get(q, I2))
    return out


def pauli_matrix(factors: dict, n: int, sign: int = 1) -> np.ndarray:
    return sign * site_operator({q: PAULI[l] for q, l in factors.items()}, n)


def cnot_matrix(control: int, target: int, n: int) -> np.ndarray:
    return (site_operator({control: P0}, n)
            + site_operator({control: P1, target: X}, n))


def lift_two_site(op4: np.ndarray, qa: int, qb: int, n: int) -> np.ndarray:
    """Embed a 4x4 operator acting on (qa, qb) into the full space."""
    # elem[(i, k)] = |i><k| on one qubit
    elem = {
        (0, 0): P0,
        (0, 1): np.array([[0, 1], [0, 0]], dtype=complex),
        (1, 0): np.array([[0, 0], [1, 0]], dtype=complex),
        (1, 1): P1,
    }
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    coeff = op4[2 * i + j, 2 * k + l]
                    if coeff != 0:
                        out += coeff * site_operator(
                            {qa: elem[(i, k)], qb: elem[(j, l)]}, n)
    return out


def bell_vector(label: str) -> np.ndarray:
    s = 1 / math.sqrt(2)
    return {
        "phi+": np.array([s, 0, 0, s], dtype=complex),
        "phi-": np.array([s, 0, 0, -s], dtype=complex),
        "psi+": np.array([0, s, s, 0], dtype=complex),
        "psi-": np.array([0, s, -s, 0], dtype=complex),
    }[label]


def bell_projector(label: str, qa: int, qb: int, n: int) -> np.ndarray:
    v = bell_vector(label)
    return lift_two_site(np.outer(v, v.conj()), qa, qb, n)


def partial_trace_dense(rho: np.ndarray, keep: list, n: int) -> np.ndarray:
    """Brute-force partial trace by summing over basis strings."""
    disc = [q for q in range(n) if q not in keep]
    dim_k = 2 ** len(keep)
    # index[a, d]: the full basis index of kept bits a and discarded bits d
    index = np.array([[_compose_index(keep, a, disc, d, n)
                       for d in range(2 ** len(disc))]
                      for a in range(dim_k)])
    out = np.zeros((dim_k, dim_k), dtype=complex)
    for d in range(2 ** len(disc)):
        out += rho[np.ix_(index[:, d], index[:, d])]
    return out


def _compose_index(keep: list, kbits: int, disc: list, dbits: int,
                   n: int) -> int:
    idx = 0
    for pos, q in enumerate(keep):
        bit = (kbits >> (len(keep) - 1 - pos)) & 1
        idx |= bit << (n - 1 - q)
    for pos, q in enumerate(disc):
        bit = (dbits >> (len(disc) - 1 - pos)) & 1
        idx |= bit << (n - 1 - q)
    return idx


def shor_encoding_circuit(n: int = 3, m: int = 3) -> list:
    """The encoding circuit as a list of full matrices, in order."""
    total = n * m
    ops = []
    for b in range(1, n):
        ops.append(cnot_matrix(0, b * m, total))
    for b in range(n):
        ops.append(site_operator({b * m: H}, total))
    for b in range(n):
        for pos in range(1, m):
            ops.append(cnot_matrix(b * m, b * m + pos, total))
    return ops


def inverse_circuit_decode(amps: np.ndarray, n: int = 3,
                           m: int = 3) -> np.ndarray:
    """Undo the encoding circuit; returns the 2-vector on qubit 0.

    Valid only for states in the code space (all other qubits must
    disentangle to |0>).
    """
    vec = amps.copy()
    for op in reversed(shor_encoding_circuit(n, m)):
        vec = op.conj().T @ vec
    total = n * m
    out = np.zeros(2, dtype=complex)
    out[0] = vec[0]
    out[1] = vec[1 << (total - 1)]
    residual = np.sum(np.abs(vec) ** 2) - np.sum(np.abs(out) ** 2)
    if residual > 1e-9:
        raise AssertionError("state was not in the code space")
    return out


def pauli_on_vector(factors: dict, amps: np.ndarray, n: int) -> np.ndarray:
    """P|psi> for a Pauli product by basis-index arithmetic: X reads the
    amplitude of the index with the qubit's bit flipped, Z signs by the
    bit, Y = iXZ does both.  No full matrix, so it serves 12 qubits."""
    idx = np.arange(2 ** n)
    out = np.asarray(amps, dtype=complex)
    for q, letter in factors.items():
        mask = 1 << (n - 1 - q)
        bit = (idx & mask) != 0
        if letter in ("X", "Y"):
            out = out[idx ^ mask]
        if letter == "Z":
            out = np.where(bit, -out, out)
        elif letter == "Y":
            out = np.where(bit, 1j * out, -1j * out)
    return out


def qpc_codeword(alpha: complex, beta: complex, n: int, m: int) -> np.ndarray:
    """alpha |0_L>^n + beta |1_L>^n with |0/1_L> = (|0..0> +- |1..1>)/sqrt2
    per block of m qubits, written out string by string."""
    amps = np.zeros(2 ** (n * m), dtype=complex)
    for pattern in range(2 ** n):
        ones = [(pattern >> (n - 1 - b)) & 1 for b in range(n)]
        index = 0
        for b, one in enumerate(ones):
            if one:
                index |= ((1 << m) - 1) << (m * (n - 1 - b))
        amps[index] = (alpha + beta * (-1) ** sum(ones)) / 2 ** (n / 2)
    return amps


def single_error_diagnoser(n: int, m: int):
    """An oracle for diagnosing a +-1 syndrome record of the (n, m) code.

    Each single-qubit X and Z error's syndrome is read off the damaged
    code word by index arithmetic, over the generators in their
    documented order: per block the ZZ pairs of adjacent qubits, then
    the X strings over each pair of adjacent blocks.  The X errors' ZZ
    parts locate a qubit, the Z errors' X-string parts a block (Z is
    degenerate within a block).  A record is split into its two parts:
    an all +1 part locates nothing, a part that one site explains
    locates that site, and any other part (no site, or two sites alike)
    is unidentifiable.  An X site and a Z block combine into Y when the
    qubit lies in the block.  Returns record -> (kind, qubit, block).
    """
    total, split = n * m, n * (m - 1)
    word = qpc_codeword(0.6, 0.8j, n, m)
    gens = ([{b * m + i: "Z", b * m + i + 1: "Z"}
             for b in range(n) for i in range(m - 1)]
            + [dict.fromkeys(range(b * m, b * m + 2 * m), "X")
               for b in range(n - 1)])

    def syndrome(q, letter):
        damaged = pauli_on_vector({q: letter}, word, total)
        return tuple(int(round(np.vdot(damaged, pauli_on_vector(
            g, damaged, total)).real)) for g in gens)

    qubits, blocks = {}, {}
    for q in range(total):
        qubits.setdefault(syndrome(q, "X")[:split], set()).add(q)
        blocks.setdefault(syndrome(q, "Z")[split:], set()).add(q // m)

    def locate(sites, part):
        if all(v == 1 for v in part):
            return None
        found = sites.get(part, ())
        return next(iter(found)) if len(found) == 1 else -1

    def diagnose(record):
        qubit = locate(qubits, tuple(record[:split]))
        block = locate(blocks, tuple(record[split:]))
        if -1 in (qubit, block):
            return "unidentifiable", None, None
        if qubit is None:
            return ("none", None, None) if block is None else ("z", None,
                                                               block)
        if block is None:
            return "x", qubit, None
        if qubit // m == block:
            return "y", qubit, None
        return "unidentifiable", None, None

    return diagnose


# ---------------------------------------------------------------------------
# Gate-by-gate encoders
# ---------------------------------------------------------------------------
# The encoding circuits as the package once ran them, one
# qparity.sim.apply_unitary call per gate.  They use the package's own
# gate primitive on purpose: the builders that replaced them must give
# the same amplitudes bit for bit, signs of zero included.

def encode_block_circuit(alpha: complex, beta: complex, m: int):
    """alpha|0..0> + beta|1..1> over m qubits by m-1 CNOTs."""
    from qparity import sim
    state = sim.state_from_qubit(alpha, beta, m)
    for t in range(1, m):
        state = sim.apply_unitary(state, sim.CNOT, [0, t])
    return state


def encode_qpc_circuit(alpha: complex, beta: complex, n: int, m: int):
    """Copy the input onto the n block leaders, Hadamard each leader,
    expand each leader into its block of m."""
    from qparity import sim
    state = sim.state_from_qubit(alpha, beta, n * m)
    for b in range(1, n):
        state = sim.apply_unitary(state, sim.CNOT, [0, b * m])
    for b in range(n):
        state = sim.apply_unitary(state, sim.H, [b * m])
    for b in range(n):
        for pos in range(1, m):
            state = sim.apply_unitary(state, sim.CNOT, [b * m, b * m + pos])
    return state


def partial_encoded_circuit(m: int):
    """GHZ over three bare arms and a block leader, the leader rotated
    and expanded into its block of m."""
    from qparity import sim
    total = 3 + m
    amps = np.zeros(2 ** total, dtype=complex)
    amps[0] = amps[0b1111 << (total - 4)] = 1 / math.sqrt(2)
    state = sim.apply_unitary(sim.PureState(amps), sim.H, [3])
    for t in range(4, total):
        state = sim.apply_unitary(state, sim.CNOT, [3, t])
    return state


# ---------------------------------------------------------------------------
# Monte-Carlo samplers with NumPy axis reductions
# ---------------------------------------------------------------------------
# The package folds its short any/all axes slice by slice; these are the
# same samplers written with .any/.all, drawing the same numbers in the
# same order, so their (estimate, standard error) must match exactly.

def _estimate(hits: int, shots: int):
    p_hat = hits / shots
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / shots)


def side_success_anyall(eta, q, n, m, shots, rng):
    arrived = rng.random((shots, n, m)) < eta
    alive = arrived.any(axis=2)
    intact = arrived.all(axis=2)
    bsm_ok = rng.random((shots, n)) < q
    return alive.all(axis=1) & (intact & bsm_ok).any(axis=1)


def monte_carlo_side_anyall(eta, q, n, m, shots, seed):
    rng = np.random.default_rng(seed)
    hits = int(side_success_anyall(eta, q, n, m, shots, rng).sum())
    return _estimate(hits, shots)


def monte_carlo_rate_anyall(eta, q, n, m, shots, seed):
    rng = np.random.default_rng(seed)
    left = side_success_anyall(eta, q, n, m, shots, rng)
    right = side_success_anyall(eta, q, n, m, shots, rng)
    return _estimate(int((left & right).sum()), shots)


def monte_carlo_bare_anyall(n, eta, q, shots, seed):
    rng = np.random.default_rng(seed)
    arrived = rng.random((shots, 2, n)) < eta
    bsm_ok = rng.random((shots, 2, n)) < q
    success = arrived.all(axis=(1, 2)) & bsm_ok.any(axis=2).all(axis=1)
    return _estimate(int(success.sum()), shots)


def monte_carlo_coincidence_anyall(pair_prob, eta_pair, rep_rate, n_sources,
                                   postselect_factor, pulses, seed):
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 1_000_000
    done = 0
    while done < pulses:
        k = min(chunk, pulses - done)
        emitted = rng.random((k, n_sources)) < pair_prob
        delivered = emitted & (rng.random((k, n_sources)) < eta_pair)
        events = delivered.all(axis=1)
        passed = events & (rng.random(k) < postselect_factor)
        hits += int(passed.sum())
        done += k
    p_hat, se_p = _estimate(hits, pulses)
    return rep_rate * p_hat, rep_rate * se_p


# ---------------------------------------------------------------------------
# per-branch plan walker
# ---------------------------------------------------------------------------
# The package walks a measurement plan with every live branch in one
# stack.  This is the walker it replaced: each branch is projected,
# floored, renormalized and compressed on its own, one group at a time.

_S2 = 1 / math.sqrt(2)
WALK_BRAS = {
    "Z": ((+1, -1), np.array([[1, 0], [0, 1]], dtype=complex)),
    "X": ((+1, -1), np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex)),
    "bell": (("phi+", "phi-", "psi+", "psi-"),
             np.array([bell_vector(l).conj()
                       for l in ("phi+", "phi-", "psi+", "psi-")])),
}
_STEP_BASIS = {"measure_x": "X", "measure_block_z": "Z", "bsm": "bell"}
BRANCH_EPS = 1e-12


class Record(NamedTuple):
    """The fields of a MeasurementRecord."""

    qubit: object
    basis: str
    outcome: object
    probability: float


def ensemble_matrix(vectors, weights) -> np.ndarray:
    """sum_i w_i |v_i><v_i|, one outer product at a time."""
    return sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vectors))


def _project_branch(vectors, weights, targets, basis):
    """(outcome, probability, renormalized rows) of every outcome above
    the branch floor, the measured qubits removed."""
    n, k = vectors.shape[1].bit_length() - 1, len(targets)
    rest = [q for q in range(n) if q not in targets]
    psi = vectors.reshape([-1] + [2] * n).transpose(
        [0] + [1 + q for q in list(targets) + rest])
    psi = psi.reshape(-1, 2 ** k, 2 ** (n - k))
    labels, bras = WALK_BRAS[basis]
    out = []
    for label, bra in zip(labels, bras):
        rows = np.einsum("j,rjm->rm", bra, psi)
        p = float(np.vdot(rows, weights[:, None] * rows).real)
        if p > BRANCH_EPS:
            out.append((label, p, rows / math.sqrt(p), weights))
    return out


def _compressed_branch(vectors, weights):
    """An ensemble with more rows than amplitudes as the eigenpairs of
    its matrix, without those of zero eigenvalue; others unchanged."""
    if len(vectors) <= vectors.shape[1]:
        return vectors, weights
    evals, evecs = np.linalg.eigh(ensemble_matrix(vectors, weights))
    size = np.abs(evals)
    keep = size > size.max() * len(evals) * np.finfo(float).eps
    return evecs.T[keep], evals[keep]


def walk_plan_per_branch(vectors, weights, order, plan, mode="enumerate",
                         rng=None) -> list:
    """Walk ``plan`` one branch at a time.

    Returns (records, probability, vectors, weights, order) per branch,
    parent first and then by outcome label; ``records[i]`` lists the
    Records of step i.  Sample mode draws one uniform per measurement
    and keeps the first outcome whose cumulative probability exceeds
    it, else the last one.
    """
    order = list(order)
    branches = [((), 1.0, np.asarray(vectors), np.asarray(weights))]
    for step in plan:
        groups = ([step.photons] if step.op == "bsm"
                  else [(p,) for p in step.photons if p in order])
        basis = _STEP_BASIS[step.op]
        growing = [(recs, prob, v, w, (), 1.0)
                   for recs, prob, v, w in branches]
        for group in groups:
            targets = [order.index(p) for p in group]
            label = group if len(group) > 1 else group[0]
            nxt = []
            for recs, prob, v, w, made, p_step in growing:
                outs = _project_branch(v, w, targets, basis)
                if mode == "sample":
                    r, acc, pick = rng.random(), 0.0, outs[-1]
                    for out in outs:
                        acc += out[1]
                        if r < acc:
                            pick = out
                            break
                    outs = [pick]
                nxt += [(recs, prob, *_compressed_branch(nv, nw),
                         made + (Record(label, basis, o, p),), p_step * p)
                        for o, p, nv, nw in outs]
            growing = nxt
            order = [p for p in order if p not in group]
        branches = [(recs + (made,), prob * p_step, v, w)
                    for recs, prob, v, w, made, p_step in growing]
    return [(recs, prob, v, w, tuple(order))
            for recs, prob, v, w in branches]
