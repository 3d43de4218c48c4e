"""Core simulator tests against Kronecker-product oracles."""

import tracemalloc

import numpy as np
import pytest

import reference as ref
from qparity import sim
from qparity.errors import ConfigError, PreconditionError
from qparity.photonics import (
    SourceParams,
    apply_visibility_noise,
    monte_carlo_coincidence,
)
from qparity.rates import (
    RateModel,
    monte_carlo_bare,
    monte_carlo_rate,
    monte_carlo_side,
)
from qparity.rgs import RgsSpec, connect_scenario
from qparity.shor import CodeLayout, LogicalInput, encode_qpc, stabilizers
from qparity.sim import (
    BELL_LABELS,
    CNOT,
    H,
    DensityMatrix,
    PauliString,
    PlanStep,
    PureState,
    _pick,
    apply_pauli,
    apply_pauli_channel,
    apply_unitary,
    expectation,
    fidelity,
    make_basis_state,
    measure,
    measure_out,
    measure_pauli,
    partial_trace,
    state_from_qubit,
    walk_stack,
)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return PureState(v / np.linalg.norm(v))


def by_label(branches, label):
    """The one (outcome, probability, state) triple with that outcome."""
    (found,) = [branch for branch in branches if branch[0] == label]
    return found


def bell_pair():
    s = apply_unitary(make_basis_state(2), H, [0])
    return apply_unitary(s, CNOT, [0, 1])


class TestStates:
    def test_basis_state_sizes(self):
        assert np.allclose(make_basis_state(1).amplitudes, [1, 0])
        assert np.allclose(make_basis_state(2).amplitudes, [1, 0, 0, 0])
        big = make_basis_state(12)
        assert big.amplitudes.size == 4096
        assert big.amplitudes[0] == 1
        assert np.count_nonzero(big.amplitudes) == 1

    def test_basis_state_range(self):
        with pytest.raises(ValueError):
            make_basis_state(0)
        with pytest.raises(ValueError):
            make_basis_state(13)

    @pytest.mark.parametrize("n", [0, -1, 13])
    def test_qubit_state_size_outside_cap_is_a_value_error(self, n):
        with pytest.raises(ValueError,
                           match=rf"^num_qubits {n} outside 1\.\.12$"):
            state_from_qubit(0.6, 0.8, n)

    def test_pauli_factors_are_read_only_and_copied(self):
        source = {2: "X", 0: "Z"}
        op = PauliString(source)
        source[1] = "Y"
        assert list(op.factors.items()) == [(0, "Z"), (2, "X")]
        with pytest.raises(TypeError):
            op.factors[1] = "Y"
        assert op == PauliString({0: "Z", 2: "X"})

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    def test_density_checks(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Herm.
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))  # trace 2
        rho = DensityMatrix(np.eye(2) / 2)
        rho.validate()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(0, np.nan)])
    def test_non_finite_entries_are_config_errors(self, bad):
        """A NaN passes every tolerance comparison, so each state refuses
        non-finite entries outright (a NaN density matrix became an
        ensemble of no rows)."""
        with pytest.raises(ConfigError, match="non-finite"):
            PureState(np.array([bad, 0]))
        with pytest.raises(ConfigError, match="non-finite"):
            DensityMatrix(np.array([[bad, 0], [0, 0]]))
        with pytest.raises(ConfigError, match="non-finite"):
            DensityMatrix(np.array([[1, bad], [bad, 0]]))

    def test_density_validate_catches_negative(self):
        mat = np.diag([1.5, -0.5]).astype(complex)
        rho = DensityMatrix(mat)
        with pytest.raises(ValueError):
            rho.validate()


class TestApplyUnitary:
    def test_x_flips(self):
        s = apply_unitary(make_basis_state(1), ref.X, [0])
        assert np.allclose(s.amplitudes, [0, 1])

    def test_h_superposes(self):
        s = apply_unitary(make_basis_state(1), H, [0])
        assert np.allclose(s.amplitudes, [1, 1] / np.sqrt(2))

    def test_cnot_entangles(self):
        alpha, beta = 0.6, 0.8
        s = state_from_qubit(alpha, beta, 2)
        s = apply_unitary(s, CNOT, [0, 1])
        assert np.allclose(s.amplitudes, [alpha, 0, 0, beta])

    def test_nonunitary_rejected(self):
        with pytest.raises(ValueError):
            apply_unitary(make_basis_state(1), np.array([[1, 0], [1, 1]]),
                          [0])

    def test_nan_matrix_is_not_unitary(self):
        with pytest.raises(ConfigError, match="not unitary"):
            apply_unitary(make_basis_state(1), np.full((2, 2), np.nan), [0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(np.inf, 0),
                                     complex(0, np.nan)])
    def test_non_finite_matrix_is_refused_before_any_product(self, bad):
        """An infinite entry made the unitarity check's matmul warn
        (an error under this suite's warning filter) before it refused
        the matrix."""
        with pytest.raises(ConfigError, match="non-finite entry"):
            apply_unitary(make_basis_state(1), [[bad, 0], [0, 1]], [0])
        with pytest.raises(ConfigError, match="non-finite entry"):
            apply_unitary(make_basis_state(2), np.diag([1, 1, 1, bad]),
                          [0, 1])

    def test_bad_targets_rejected(self):
        with pytest.raises(ValueError):
            apply_unitary(make_basis_state(2), CNOT, [0, 0])
        with pytest.raises(ValueError):
            apply_unitary(make_basis_state(2), ref.X, [2])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_kron_oracle(self, seed):
        """Gates on arbitrary targets equal the full-matrix product."""
        n = 5
        state = random_state(n, seed)
        rng = np.random.default_rng(100 + seed)
        c, t = rng.choice(n, size=2, replace=False)
        via_sim = apply_unitary(state, CNOT, [c, t])
        via_kron = ref.cnot_matrix(c, t, n) @ state.amplitudes
        np.testing.assert_allclose(via_sim.amplitudes, via_kron, atol=1e-12)

        q = int(rng.integers(n))
        via_sim = apply_unitary(state, ref.Y, [q])
        via_kron = ref.site_operator({q: ref.Y}, n) @ state.amplitudes
        np.testing.assert_allclose(via_sim.amplitudes, via_kron, atol=1e-12)

    def test_norm_preserved(self):
        state = random_state(6, 3)
        for q in range(6):
            state = apply_unitary(state, H, [q])
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1) < 1e-10

    def test_density_conjugation_matches_oracle(self):
        rho = random_state(3, 9).to_density()
        out = apply_unitary(rho, ref.H, [1])
        full = ref.site_operator({1: ref.H}, 3)
        np.testing.assert_allclose(out.matrix,
                                   full @ rho.matrix @ full.conj().T,
                                   atol=1e-12)


class TestQubitIndices:
    """A qubit index must be an integer: a float, even a whole one, or a
    bool was truncated or taken as 0/1 without an error."""

    BAD = [0.5, 1.0, np.float64(0.0), True, False]

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_partial_trace_refuses_non_integer_indices(self, bad):
        with pytest.raises(ConfigError, match="must be an integer"):
            partial_trace(make_basis_state(2), [bad])

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_gates_and_measurements_refuse_non_integer_indices(self, bad):
        state = make_basis_state(2)
        for call in (lambda: apply_unitary(state, ref.X, [bad]),
                     lambda: measure(state, bad),
                     lambda: measure_out(state, [bad])):
            with pytest.raises(ConfigError, match="must be an integer"):
                call()

    def test_numpy_integers_are_indices(self):
        state = state_from_qubit(0.6, 0.8, 2)
        np.testing.assert_allclose(
            partial_trace(state, [np.int64(1)]).matrix,
            partial_trace(state, [1]).matrix, atol=0)
        np.testing.assert_allclose(
            apply_unitary(state, ref.X, [np.int64(0)]).amplitudes,
            apply_unitary(state, ref.X, [0]).amplitudes, atol=0)


class TestMeasure:
    def test_plus_in_x_is_deterministic(self):
        s = apply_unitary(make_basis_state(1), H, [0])
        branches = measure(s, 0, "X")
        assert len(branches) == 1
        outcome, p, _ = branches[0]
        assert outcome == +1 and abs(p - 1) < 1e-10

    def test_zero_in_x_is_even(self):
        branches = measure(make_basis_state(1), 0, "X")
        probs = {outcome: p for outcome, p, _ in branches}
        assert abs(probs[+1] - 0.5) < 1e-10
        assert abs(probs[-1] - 0.5) < 1e-10

    def test_ghz_forced_collapse(self):
        ghz = PureState(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2))
        outcome, p, post = by_label(measure(ghz, 0, "Z"), +1)
        assert outcome == +1 and abs(p - 0.5) < 1e-10
        assert np.allclose(post.amplitudes, [1, 0, 0, 0, 0, 0, 0, 0])

    def test_forced_impossible_outcome(self):
        branches = measure(make_basis_state(1), 0, "Z")
        assert -1 not in [outcome for outcome, _, _ in branches]

    def test_branch_probabilities_sum_to_one(self):
        for seed in range(4):
            state = random_state(4, seed)
            for basis in ("X", "Y", "Z"):
                branches = measure(state, seed % 4, basis)
                assert abs(sum(p for _, p, _ in branches) - 1) < 1e-10

    def test_measure_out_matches_measure(self):
        state = random_state(5, 11)
        kept = measure(state, 2, "Y")
        removed = measure_out(state, [2], "Y")
        assert len(kept) == len(removed)
        for (o1, p1, s1), (o2, p2, s2) in zip(kept, removed):
            assert o1 == o2
            assert abs(p1 - p2) < 1e-12
            reduced = partial_trace(s1, [2])
            np.testing.assert_allclose(reduced.matrix,
                                       s2.to_density().matrix, atol=1e-10)

    @pytest.mark.parametrize("basis", ["X", "Y", "Z"])
    def test_density_collapse_matches_oracle(self, basis):
        rho = random_state(3, 17).to_density()
        columns = {"Z": [[1, 0], [0, 1]], "X": [[1, 1], [1, -1]],
                   "Y": [[1, 1], [1j, -1j]]}
        for outcome, p, post in measure(rho, 1, basis):
            col = (1 - outcome) // 2
            v = np.array(columns[basis], dtype=complex)[:, col]
            v = v / np.linalg.norm(v)
            proj = ref.site_operator({1: np.outer(v, v.conj())}, 3)
            want = proj @ rho.matrix @ proj
            assert abs(np.trace(want).real - p) < 1e-12
            np.testing.assert_allclose(post.matrix, want / p, atol=1e-12)

    @pytest.mark.parametrize("basis", ["bell", "Q"])
    def test_measure_out_rejects_other_bases(self, basis):
        with pytest.raises(ValueError, match=f"basis '{basis}' does not fit "
                                             "1 target"):
            measure_out(make_basis_state(3), [0], basis)

    def test_measure_out_basis_must_fit_the_targets(self):
        """"bell" takes a pair and X, Y, Z one qubit; the message names the
        basis and the target count."""
        state = make_basis_state(3)
        with pytest.raises(ValueError,
                           match="basis 'bell' does not fit 1 target"):
            measure_out(state, [1], "bell")
        for basis in "XYZ":
            with pytest.raises(ValueError,
                               match=f"basis '{basis}' does not fit 2 target"):
                measure_out(state, [0, 2], basis)

    def test_distribution_mode_is_unknown(self):
        """Measurements only enumerate: they take no mode, rng or outcome."""
        state = random_state(3, 8)
        for call in (lambda **kw: measure(state, 0, "X", **kw),
                     lambda **kw: measure_out(state, [0], "X", **kw),
                     lambda **kw: measure_pauli(
                         state, PauliString({0: "Z", 1: "X"}), **kw)):
            for kw in ({"mode": "distribution"}, {"mode": "enumerate"},
                       {"rng": np.random.default_rng(0)}, {"outcome": 1}):
                with pytest.raises(TypeError, match="unexpected keyword"):
                    call(**kw)

    def test_measure_pauli_product(self):
        ghz = PureState(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2))
        op = PauliString({0: "Z", 1: "Z"})
        branches = measure_pauli(ghz, op)
        assert len(branches) == 1 and branches[0][0] == +1
        op = PauliString({0: "X", 1: "X", 2: "X"})
        assert abs(expectation(ghz, op) - 1) < 1e-10  # XXX stabilizes GHZ
        outcome, p, post = by_label(measure_pauli(make_basis_state(3), op),
                                    -1)
        assert outcome == -1 and abs(p - 0.5) < 1e-10
        assert abs(expectation(post, op) + 1) < 1e-10


class TestExpectation:
    def test_z_on_zero(self):
        assert abs(expectation(make_basis_state(1),
                               PauliString({0: "Z"})) - 1) < 1e-12

    def test_bell_correlations(self):
        bell = bell_pair()
        assert abs(expectation(bell, PauliString({0: "X", 1: "X"})) - 1) < 1e-10
        assert abs(expectation(bell, PauliString({0: "Y", 1: "Y"})) + 1) < 1e-10
        assert abs(expectation(bell, PauliString({0: "Z", 1: "Z"})) - 1) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_kron_oracle(self, seed):
        n = 4
        state = random_state(n, seed)
        rng = np.random.default_rng(200 + seed)
        letters = ["I", "X", "Y", "Z"]
        factors = {q: letters[rng.integers(1, 4)]
                   for q in rng.choice(n, size=2, replace=False)}
        op = PauliString(factors)
        full = ref.pauli_matrix(factors, n)
        want = np.vdot(state.amplitudes, full @ state.amplitudes).real
        assert abs(expectation(state, op) - want) < 1e-10

    def test_sign_carried(self):
        op = PauliString({0: "Z"}, sign=-1)
        assert abs(expectation(make_basis_state(1), op) + 1) < 1e-12


class TestPartialTrace:
    def test_bell_reduces_to_mixed(self):
        rho = partial_trace(bell_pair(), [1])
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state_reduces_pure(self):
        s = apply_unitary(make_basis_state(2), H, [0])
        rho = partial_trace(s, [1])
        plus = np.full((2, 2), 0.5)
        np.testing.assert_allclose(rho.matrix, plus, atol=1e-12)

    def test_full_discard_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(bell_pair(), [0, 1])

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_oracle(self, seed):
        n = 5
        state = random_state(n, seed)
        rng = np.random.default_rng(300 + seed)
        disc = sorted(rng.choice(n, size=2, replace=False).tolist())
        keep = [q for q in range(n) if q not in disc]
        got = partial_trace(state, disc)
        want = ref.partial_trace_dense(
            np.outer(state.amplitudes, state.amplitudes.conj()), keep, n)
        np.testing.assert_allclose(got.matrix, want, atol=1e-12)
        got.validate()

    @pytest.mark.parametrize("seed", range(4))
    def test_consistency_with_padded_expectation(self, seed):
        """<P_A> on the reduced state equals <P_A x I_B> on the whole."""
        n = 5
        state = random_state(n, 40 + seed)
        rho_a = partial_trace(state, [3, 4])
        op_small = PauliString({0: "X", 2: "Z"})
        op_big = PauliString({0: "X", 2: "Z"})
        assert abs(expectation(rho_a, op_small)
                   - expectation(state, op_big)) < 1e-10


class TestBellProject:
    def test_bell_pair_is_phi_plus(self):
        big = PureState(np.kron(bell_pair().amplitudes, [1, 0]))
        label, p, _ = by_label(measure_out(big, (0, 1), "bell"), "phi+")
        assert label == "phi+" and abs(p - 1) < 1e-10

    def test_product_zero_splits_evenly(self):
        s = make_basis_state(3)
        branches = measure_out(s, (0, 1), "bell")
        got = {label: p for label, p, _ in branches}
        assert set(got) == {"phi+", "phi-"}
        assert abs(got["phi+"] - 0.5) < 1e-10

    def test_probabilities_match_explicit_projectors(self):
        for seed in range(4):
            n = 4
            state = random_state(n, 60 + seed)
            branches = measure_out(state, (1, 3), "bell")
            got = {label: p for label, p, _ in branches}
            for label in BELL_LABELS:
                proj = ref.bell_projector(label, 1, 3, n)
                want = np.vdot(state.amplitudes,
                               proj @ state.amplitudes).real
                assert abs(got.get(label, 0.0) - want) < 1e-10

    def test_entanglement_swap_all_outcomes(self):
        """BSM on the middle two qubits of two Bell pairs leaves the outer
        qubits in the Bell state matching the outcome."""
        chain = PureState(np.kron(bell_pair().amplitudes,
                                  bell_pair().amplitudes))
        branches = measure_out(chain, (1, 2), "bell")
        assert len(branches) == 4
        for label, p, rest in branches:
            assert abs(p - 0.25) < 1e-10
            np.testing.assert_allclose(
                np.abs(np.vdot(ref.bell_vector(label), rest.amplitudes)),
                1.0, atol=1e-10)

    def test_density_matrix_branch_agrees_with_pure(self):
        state = random_state(4, 77)
        pure_branches = measure_out(state, (0, 2), "bell")
        dm_branches = measure_out(state.to_density(), (0, 2), "bell")
        for (l1, p1, s1), (l2, p2, s2) in zip(pure_branches, dm_branches):
            assert l1 == l2
            assert abs(p1 - p2) < 1e-10
            np.testing.assert_allclose(s1.to_density().matrix, s2.matrix,
                                       atol=1e-10)


class TestFidelity:
    def test_self_fidelity(self):
        s = random_state(3, 5)
        assert abs(fidelity(s.to_density(), s) - 1) < 1e-12

    def test_mixed_vs_zero(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert abs(fidelity(rho, make_basis_state(1)) - 0.5) < 1e-12

    def test_maximally_mixed_vs_bell(self):
        rho = DensityMatrix(np.eye(4) / 4)
        assert abs(fidelity(rho, bell_pair()) - 0.25) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(make_basis_state(2), make_basis_state(1))


class TestPauliChannel:
    def test_zero_strength_is_identity(self):
        s = random_state(2, 8)
        rho = apply_pauli_channel(s, PauliString({0: "X"}), 0.0)
        np.testing.assert_allclose(rho.matrix, s.to_density().matrix,
                                   atol=1e-12)

    def test_full_strength_applies_pauli(self):
        rho = apply_pauli_channel(make_basis_state(1), PauliString({0: "X"}),
                                  1.0)
        np.testing.assert_allclose(rho.matrix, np.diag([0, 1]), atol=1e-12)

    def test_output_is_valid_density(self):
        s = random_state(3, 13)
        rho = apply_pauli_channel(s, PauliString({0: "Z", 2: "X"}), 0.3)
        rho.validate()
        assert abs(np.trace(rho.matrix).real - 1) < 1e-10


class TestPauliKernel:
    """The one gather-and-phase Pauli action behind apply_pauli,
    apply_pauli_channel, expectation and the Pauli measurements, against
    index arithmetic (tests/reference.py::pauli_on_vector) up to 12
    qubits and the dense Kronecker matrix up to 8."""

    @staticmethod
    def random_case(n, rank, rng):
        """A random signed Pauli string on n qubits (identity factors
        dropped, Y included) and a state of ``rank`` normalized rows with
        random weights summing to 1 (a PureState when rank is 1)."""
        letters = rng.integers(0, 4, size=n)
        op = PauliString({q: "IXYZ"[l] for q, l in enumerate(letters) if l},
                         sign=int(rng.choice([1, -1])))
        shape = (rank, 2 ** n)
        rows = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        if rank == 1:
            return op, PureState(rows[0])
        weights = rng.dirichlet(np.ones(rank))
        return op, DensityMatrix._from_rows(rows, weights)

    def test_rows_match_index_oracle(self):
        rng = np.random.default_rng(5)
        for n in range(1, 13):
            # at most 2^(n-1) rows, so the channel's doubled stack is not
            # compressed and its rows can be compared one by one
            for rank in sorted({1, min(3, 2 ** (n - 1))}):
                for _ in range(3):
                    op, state = self.random_case(n, rank, rng)
                    want = np.array([op.sign * ref.pauli_on_vector(
                        op.factors, row, n) for row in state.vectors])
                    out = apply_pauli(state, op)
                    assert type(out) is type(state)
                    np.testing.assert_allclose(out.vectors, want, atol=1e-12)
                    np.testing.assert_array_equal(out.weights, state.weights)
                    p = float(rng.uniform(0.1, 0.9))
                    mixed = apply_pauli_channel(state, op, p)
                    np.testing.assert_allclose(
                        mixed.vectors,
                        np.concatenate([state.vectors, want]), atol=1e-12)
                    np.testing.assert_allclose(
                        mixed.weights, np.concatenate(
                            [(1 - p) * state.weights, p * state.weights]))

    def test_rows_of_any_leading_shape(self):
        """The kernel reads n from the row length and acts on the last
        axis, whatever the leading shape of the stack."""
        rng = np.random.default_rng(7)
        op = PauliString({0: "Y", 2: "X", 3: "Z"}, sign=-1)
        rows = rng.normal(size=(2, 3, 16)) + 1j * rng.normal(size=(2, 3, 16))
        got = sim._pauli_rows(rows, op)
        want = [[-ref.pauli_on_vector(op.factors, row, 4) for row in block]
                for block in rows]
        np.testing.assert_allclose(got, want, atol=1e-12)
        np.testing.assert_array_equal(sim._pauli_rows(rows[1, 2], op),
                                      got[1, 2])

    def test_expectation_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        for n in range(1, 9):
            for rank in sorted({1, min(3, 2 ** n)}):
                for _ in range(4):
                    op, state = self.random_case(n, rank, rng)
                    full = ref.pauli_matrix(op.factors, n, op.sign)
                    want = sum(w * np.vdot(v, full @ v).real for w, v in
                               zip(state.weights, state.vectors))
                    assert abs(expectation(state, op) - want) < 1e-12

    def test_out_of_range_factor_raises(self):
        state = random_state(3, 21)
        op = PauliString({1: "X", 3: "Z"})
        for call in (lambda: apply_pauli(state, op),
                     lambda: apply_pauli_channel(state, op, 0.5),
                     lambda: expectation(state, op),
                     lambda: measure_pauli(state, op)):
            with pytest.raises(ConfigError,
                               match="^target qubit 3 outside 0..2$"):
                call()

    def test_cached_arrays_are_read_only_and_the_cache_bounded(self):
        src, phase = sim._pauli_action(((0, "Y"), (2, "X")), -1, 3)
        for array in (src, phase):
            with pytest.raises(ValueError):
                array[0] = 0
        assert sim._pauli_action.cache_info().maxsize is not None


class TestPauliString:
    def test_duplicate_qubit_impossible(self):
        # dict keys already dedupe; the letter check is the guard
        with pytest.raises(ValueError):
            PauliString({0: "Q"})

    def test_commutation(self):
        zz = PauliString({0: "Z", 1: "Z"})
        xx = PauliString({0: "X", 1: "X"})
        xz = PauliString({0: "X"})
        assert zz.commutes_with(xx)
        assert not zz.commutes_with(xz)

    def test_square_is_identity(self):
        op = PauliString({0: "X", 1: "Y", 2: "Z"})
        sq = op * op
        assert sq.factors == {} and sq.sign == 1

    @pytest.mark.parametrize("factors,sign,match", [
        ({True: "X"}, 1, "qubit index must be an integer, got True"),
        ({0.0: "X"}, 1, "qubit index must be an integer, got 0.0"),
        ({-1: "X"}, 1, "^need qubit index >= 0$"),
        ({0: "X"}, True, "sign must be an integer, got True"),
        ({0: "X"}, 0, "^sign must be \\+1 or -1$")], ids=repr)
    def test_qubit_keys_and_sign_follow_the_count_rule(self, factors, sign,
                                                       match):
        """{True: "X"} acted on qubit 1, and {0.0: "X"} failed at first
        use with an int << float TypeError."""
        with pytest.raises(ConfigError, match=match):
            PauliString(factors, sign)

    def test_product_with_an_imaginary_phase_is_refused(self):
        with pytest.raises(ConfigError, match="^product would carry an "
                           "imaginary phase$"):
            PauliString({0: "X"}) * PauliString({0: "Z"})

    def test_product_of_disjoint_factors_joins_them(self):
        op = PauliString({0: "X"}) * PauliString({1: "Z"}, -1)
        assert op.factors == {0: "X", 1: "Z"} and op.sign == -1

    def test_numpy_integer_keys_are_qubits(self):
        op = PauliString({np.int64(1): "X"}, np.int64(-1))
        assert op.factors == {1: "X"} and op.sign == -1


class TestRefusals:
    """Each bad argument raises its own message."""

    def test_amplitude_count_must_be_a_power_of_two(self):
        with pytest.raises(ConfigError, match="not a power of two"):
            PureState(np.ones(3) / np.sqrt(3))

    def test_density_matrix_must_be_square(self):
        with pytest.raises(ConfigError, match="^density matrix must be "
                           "square$"):
            DensityMatrix(np.ones((2, 4)) / 2)

    def test_unitary_must_match_its_targets(self):
        with pytest.raises(ConfigError,
                           match=r"does not match 2 target\(s\)$"):
            apply_unitary(make_basis_state(2), sim.X, [0, 1])

    def test_measure_out_keeps_a_qubit(self):
        with pytest.raises(ConfigError, match="^cannot remove every qubit$"):
            measure_out(make_basis_state(1), [0])

    def test_partial_trace_needs_a_qubit_to_discard(self):
        with pytest.raises(ConfigError, match="^discard set is empty$"):
            partial_trace(make_basis_state(2), [])

    @pytest.mark.parametrize("op,photons,message", [
        ("measure_x", ("a", "b"), "^measure_x takes exactly one photon$"),
        ("bsm", ("a", "a"), "^bsm takes exactly two distinct photons$")])
    def test_plan_step_photon_count(self, op, photons, message):
        with pytest.raises(ConfigError, match=message):
            PlanStep(op, photons)

    def test_a_photon_is_measured_once(self):
        plan = [PlanStep("measure_x", ("a",))] * 2
        with pytest.raises(PreconditionError,
                           match="^malformed plan: photon 'a' already "
                           "consumed$"):
            walk_stack(make_basis_state(2), "ab", plan)


class TestSampleDraws:
    """The one sampling rule, shared by sampled syndromes and
    :func:`sim.draw_branches`."""

    def test_pick_is_the_sequential_cumulative_rule(self):
        """The first outcome whose in-order cumulative probability
        exceeds the draw, else the last one (probabilities that sum to
        less than one)."""
        draws = [0.0, 0.4999, 0.5, 0.74, 0.75, 0.94, 0.96, 0.999]
        assert _pick([0.5, 0.25, 0.2], draws).tolist() == \
            [0, 0, 1, 1, 2, 2, 2, 2]


def random_ensemble(n, rank, seed, negative=False):
    """A DensityMatrix built through the public constructor from a dense
    sum of ``rank`` random projectors, and that dense matrix.  With
    ``negative`` the first weight is negative (a non-PSD matrix)."""
    rng = np.random.default_rng(seed)
    shape = (rank, 2 ** n)
    vecs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    weights = rng.uniform(0.2, 1.0, size=rank)
    if negative:
        weights[0] = -0.1 * weights[1:].sum()
    weights /= weights.sum()
    mat = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vecs))
    return DensityMatrix(mat), mat


def ensemble_cases():
    """(n, rank, negative) over 1..8 qubits and ranks 1..4, a non-PSD
    matrix wherever a rank leaves room for one."""
    for n in range(1, 9):
        for rank in range(1, min(4, 2 ** n) + 1):
            yield n, rank, False
            if 2 <= rank < 2 ** n:
                yield n, rank, True


class TestEnsembleOracle:
    """Every state operation on weighted ensembles against the dense
    Kronecker formulas of tests/reference.py."""

    ATOL = 1e-10

    def test_public_construction_round_trips(self):
        for case, (n, rank, negative) in enumerate(ensemble_cases()):
            state, mat = random_ensemble(n, rank, case, negative)
            np.testing.assert_allclose(state.matrix, mat, atol=self.ATOL)
            assert len(state.vectors) == rank == len(state.weights)
            if negative:
                with pytest.raises(ValueError):
                    state.validate()
            else:
                state.validate()
            with pytest.raises(ValueError):
                state.matrix[0, 0] = 0

    def test_unitaries_channels_traces_and_values(self):
        letters = ["X", "Y", "Z"]
        for case, (n, rank, negative) in enumerate(ensemble_cases()):
            state, mat = random_ensemble(n, rank, 100 + case, negative)
            rng = np.random.default_rng(case)
            q = int(rng.integers(n))
            got = apply_unitary(state, H, [q])
            full = ref.site_operator({q: ref.H}, n)
            np.testing.assert_allclose(got.matrix, full @ mat @ full.conj().T,
                                       atol=self.ATOL)
            factors = {int(s): letters[rng.integers(3)]
                       for s in rng.choice(n, size=min(n, 2), replace=False)}
            op, pauli = PauliString(factors), ref.pauli_matrix(factors, n)
            want = np.clip(np.trace(pauli @ mat).real, -1, 1)
            assert abs(expectation(state, op) - want) < self.ATOL
            p = float(rng.uniform())
            got = apply_pauli_channel(state, op, p)
            np.testing.assert_allclose(
                got.matrix, (1 - p) * mat + p * pauli @ mat @ pauli,
                atol=self.ATOL)
            target = random_state(n, 500 + case)
            want = np.vdot(target.amplitudes, mat @ target.amplitudes).real
            assert abs(fidelity(state, target) - np.clip(want, 0, 1)) \
                < self.ATOL
            if n >= 2:
                c, t = (int(x) for x in rng.choice(n, size=2, replace=False))
                got = apply_unitary(state, CNOT, [c, t])
                full = ref.cnot_matrix(c, t, n)
                np.testing.assert_allclose(got.matrix, full @ mat @ full.T,
                                           atol=self.ATOL)
                disc = sorted(int(x) for x in rng.choice(
                    n, size=int(rng.integers(1, n)), replace=False))
                keep = [k for k in range(n) if k not in disc]
                np.testing.assert_allclose(
                    partial_trace(state, disc).matrix,
                    ref.partial_trace_dense(mat, keep, n), atol=self.ATOL)

    def assert_branches(self, branches, projectors, mat, reduce=None):
        """Each (label, probability, state) branch against its projector;
        labels without a branch must be unrealizable."""
        got = {label: (p, st) for label, p, st in branches}
        for label, proj in projectors.items():
            collapsed = proj @ mat @ proj
            want_p = np.trace(collapsed).real
            if label not in got:
                assert want_p <= 1e-12
                continue
            p, st = got[label]
            assert abs(p - want_p) < self.ATOL
            post = collapsed / want_p
            np.testing.assert_allclose(
                st.to_density().matrix, reduce(post) if reduce else post,
                atol=self.ATOL)

    def test_measurements_in_enumerate_mode(self):
        columns = {"Z": [[1, 0], [0, 1]], "X": [[1, 1], [1, -1]],
                   "Y": [[1, 1], [1j, -1j]]}
        for case, (n, rank, negative) in enumerate(ensemble_cases()):
            state, mat = random_ensemble(n, rank, 200 + case, negative)
            rng = np.random.default_rng(case)
            q = int(rng.integers(n))
            basis = "XYZ"[case % 3]
            projectors = {}
            for col, outcome in ((0, +1), (1, -1)):
                v = np.array(columns[basis], dtype=complex)[:, col]
                v = v / np.linalg.norm(v)
                projectors[outcome] = ref.site_operator(
                    {q: np.outer(v, v.conj())}, n)
            factors = {q: basis}
            if n >= 2:
                factors[(q + 1) % n] = "XYZ"[(case + 1) % 3]
            pauli = ref.pauli_matrix(factors, n)
            eye = np.eye(2 ** n)
            self.assert_branches(
                measure_pauli(state, PauliString(factors)),
                {+1: (eye + pauli) / 2, -1: (eye - pauli) / 2}, mat)
            self.assert_branches(measure(state, q, basis),
                                 projectors, mat)
            if n < 2:
                continue
            keep = [k for k in range(n) if k != q]
            self.assert_branches(
                measure_out(state, [q], basis),
                projectors, mat,
                reduce=lambda m: ref.partial_trace_dense(m, keep, n))
            if n < 3:
                continue
            qa, qb = (int(x) for x in rng.choice(n, size=2, replace=False))
            keep = [k for k in range(n) if k not in (qa, qb)]
            self.assert_branches(
                measure_out(state, (qa, qb), "bell"),
                {label: ref.bell_projector(label, qa, qb, n)
                 for label in BELL_LABELS}, mat,
                reduce=lambda m: ref.partial_trace_dense(m, keep, n))

    def test_pure_state_is_one_unit_row(self):
        state = random_state(4, 21)
        assert state.vectors.shape == (1, 16)
        assert state.weights.tolist() == [1.0]
        rho = state.to_density()
        assert isinstance(rho, DensityMatrix)
        np.testing.assert_allclose(
            rho.matrix, np.outer(state.amplitudes, state.amplitudes.conj()),
            atol=1e-15)

    def test_rows_compress_to_the_dense_dimension(self):
        """Channels on a 2-qubit state would make 8 rows; the stack is
        compressed back to at most 4 with the same matrix."""
        state, mat = random_ensemble(2, 2, 7)
        for q, letter in ((0, "X"), (1, "Z"), (0, "Y")):
            op = PauliString({q: letter})
            state = apply_pauli_channel(state, op, 0.3)
            pauli = ref.pauli_matrix({q: letter}, 2)
            mat = 0.7 * mat + 0.3 * pauli @ mat @ pauli
        assert len(state.vectors) <= 4
        np.testing.assert_allclose(state.matrix, mat, atol=1e-12)


def random_stack(rng, ranks, rows, n, zero=0, negative=False):
    """A stack of len(ranks) ensembles of ``rows`` rows on n qubits, each
    row a random combination of ``rank`` random vectors; the last
    ``zero`` rows of every member weigh zero, and with ``negative`` the
    first row of every member weighs minus a tenth of the rest."""
    vectors = np.empty((len(ranks), rows, 2 ** n), dtype=complex)
    for b, rank in enumerate(ranks):
        basis = (rng.normal(size=(rank, 2 ** n))
                 + 1j * rng.normal(size=(rank, 2 ** n)))
        vectors[b] = (rng.normal(size=(rows, rank))
                      + 1j * rng.normal(size=(rows, rank))) @ basis
    weights = rng.uniform(0.2, 1.0, size=(len(ranks), rows))
    weights[:, rows - zero:] = 0.0
    if negative:
        weights[:, 0] = -0.1 * weights[:, 1:].sum(axis=1)
    return vectors, weights


class TestRankStep:
    """``sim._compressed`` against the dense sums of tests/reference.py:
    the Gram path (r < 2^n, no negative weight) and the dense path."""

    CASES = {
        # name: (per-member ranks, rows, qubits, zero-weight rows, negative)
        "gram": ((3, 1, 2), 5, 4, 0, False),
        "gram-one-member": ((4,), 16, 9, 0, False),
        "gram-zero-padding": ((2, 3), 6, 3, 2, False),
        "dense-rows-equal-amplitudes": ((2, 4), 4, 2, 0, False),
        "dense-more-rows": ((1, 3, 4), 7, 2, 0, False),
        "dense-negative": ((2, 3), 5, 4, 0, True),
        "dense-negative-zero-padding": ((2, 3), 6, 3, 1, True),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_each_member_keeps_its_matrix_at_its_rank(self, case):
        ranks, rows, n, zero, negative = self.CASES[case]
        vectors, weights = random_stack(np.random.default_rng(len(case)),
                                        ranks, rows, n, zero, negative)
        got, got_weights = sim._compressed(vectors, weights)
        assert got.shape == (len(ranks), max(ranks), 2 ** n)
        for b, rank in enumerate(ranks):
            want = ref.ensemble_matrix(vectors[b], weights[b])
            np.testing.assert_allclose(
                ref.ensemble_matrix(got[b], got_weights[b]), want,
                atol=1e-12 * np.abs(want).max())
            kept = got_weights[b] != 0
            assert np.count_nonzero(kept) == rank
            # The kept rows are orthonormal eigenvectors.
            np.testing.assert_allclose(got[b][kept].conj() @ got[b][kept].T,
                                       np.eye(rank), atol=1e-12)

    def test_gram_path_never_forms_the_dense_matrix(self, monkeypatch):
        """Sixteen rows of 512 amplitudes: one 16 x 16 eigh."""
        sizes = []
        eigen_rows = sim._eigen_rows
        monkeypatch.setattr(sim, "_eigen_rows",
                            lambda mats: sizes.append(mats.shape)
                            or eigen_rows(mats))
        vectors, weights = random_stack(np.random.default_rng(3), (8,), 16, 9)
        sim._compressed(vectors, weights)
        assert sizes == [(1, 16, 16)]


class TestVisibilityRankStep:
    """apply_visibility_noise ends in one rank step: the ensemble the
    channels make, at its rank, with the same matrix."""

    @staticmethod
    def channel_by_channel(state, sites, visibility):
        rho = state.to_density()
        for site in sites:
            rho = apply_pauli_channel(rho, site, (1 - visibility) / 2)
        return rho

    # name: (state, sites), channel rows, rank
    CASES = {
        "shor": (lambda: (encode_qpc(LogicalInput.from_angles(
            1.0471975511965976, 0.5), 3, 3),
            RgsSpec("encoded", 3, 3).encoder_sites()), 16, 8),
        "connect": (lambda: (connect_scenario(1).initial_state(),
                             connect_scenario(1).encoder_sites()), 4, 2),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_noise_at_point_seven_keeps_the_channel_matrix(self, case):
        build, rows, ranked = self.CASES[case]
        state, sites = build()
        channels = self.channel_by_channel(state, sites, 0.7)
        noisy = apply_visibility_noise(state, sites, 0.7)
        assert len(channels.vectors) == rows
        assert len(noisy.vectors) == ranked and np.all(noisy.weights > 0)
        np.testing.assert_allclose(
            ref.ensemble_matrix(noisy.vectors, noisy.weights),
            ref.ensemble_matrix(channels.vectors, channels.weights),
            atol=1e-12)


class TestMemoryAtTheCap:
    def test_noisy_lossy_twelve_qubit_pipeline_stays_small(self):
        """Encoding, interference noise, one loss, every stabilizer and a
        measurement at 12 qubits peak far below the 268 MB of one dense
        matrix."""
        layout = CodeLayout(4, 3)
        tracemalloc.start()
        try:
            word = encode_qpc(LogicalInput(0.6, 0.8), 4, 3)
            sites = RgsSpec("encoded", 4, 3).encoder_sites()
            noisy = apply_visibility_noise(word, sites, 0.8)
            values = [expectation(noisy, s) for s in stabilizers(layout)]
            lossy = partial_trace(noisy, [11])
            kept = [s for s in stabilizers(layout) if 11 not in s.factors]
            values += [expectation(lossy, s) for s in kept]
            branches = measure_out(lossy, [0], "X")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20, peak
        assert lossy.num_qubits == 11 and len(branches) == 2
        assert all(-1 <= v <= 1 for v in values)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestSamplerMemory:
    """The Monte-Carlo samplers draw in chunks of shots, so a 10^6-shot
    call peaks far below its whole draw arrays (48-78 MB)."""

    BOUND = 16 * 2 ** 20
    CALLS = {
        "side": lambda: monte_carlo_side(RateModel(0.9, 0.5, 3, 3),
                                         10 ** 6, 1),
        "rate": lambda: monte_carlo_rate(RateModel(0.9, 0.5, 3, 3),
                                         10 ** 6, 2),
        "bare": lambda: monte_carlo_bare(3, 0.9, 0.5, 10 ** 6, 3),
        "coincidence": lambda: monte_carlo_coincidence(
            SourceParams(0.6, 0.8, 1e6), 5, 0.5, 10 ** 6, 4),
    }

    @pytest.mark.parametrize("kind", CALLS)
    def test_million_shot_call_stays_small(self, kind):
        peak = _traced_peak(self.CALLS[kind])
        assert peak < self.BOUND, peak

    def test_bound_does_not_grow_with_shots(self):
        """10^7 shots at n = m = 1 are an 80 MB whole draw."""
        peak = _traced_peak(lambda: monte_carlo_side(
            RateModel(0.9, 0.5, 1, 1), 10 ** 7, 5))
        assert peak < self.BOUND, peak


def test_package_exports_its_public_names_once():
    """``qparity.__all__`` holds each imported public name once and no
    submodule."""
    import types

    import qparity
    names = qparity.__all__
    assert len(names) == len(set(names)) == 68
    assert not [name for name in names if name.startswith("build_")]
    assert {"encode_qpc", "stabilizers", "PauliString",
            "draw_branches"} <= set(names)
    assert not {"LossPattern", "NoiseParams", "encoder_sites",
                "derive_corrections"} & set(names)
    assert not [name for name in names if name.startswith("logical_loss")]
    assert not any(isinstance(getattr(qparity, name), types.ModuleType)
                   for name in names)
