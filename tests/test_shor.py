"""Shor / quantum parity code tests.

Syndrome values for injected errors are frozen from the dense-matrix
oracle (Pauli conjugation on the full 512-dim space), and the readout
is checked branch by branch against the inverse-encoding-circuit
decoder.
"""

import itertools
import math
import time

import numpy as np
import pytest

import reference as ref
from qparity.errors import ConditionViolation, ConfigError, PreconditionError
from qparity.photonics import noisy_block_fidelity
from qparity.rgs import RgsSpec
from qparity.shor import (
    CodeLayout,
    ErrorHypothesis,
    LogicalInput,
    SHOR_LAYOUT,
    SyndromeRecord,
    apply_flip_channel,
    correct,
    decode_readout,
    diagnose,
    encode_block,
    encode_qpc,
    encode_shor,
    measure_syndromes,
    readout_correction_table,
    stabilizers,
)
from qparity.sim import (
    MAX_QUBITS,
    PauliString,
    PureState,
    apply_unitary,
    expectation,
    fidelity,
    make_basis_state,
    partial_trace,
)

S2 = 1 / math.sqrt(2)
D_INPUT = LogicalInput(S2, S2)
A_INPUT = LogicalInput(S2, -S2)

# |D>_l support: both code-block signs multiply to +, so an even number
# of blocks sit in the |111| branch.
D_SUPPORT = {
    int("000000000", 2): 0.5,
    int("000111111", 2): 0.5,
    int("111000111", 2): 0.5,
    int("111111000", 2): 0.5,
}


def random_inputs(count, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        out.append(LogicalInput.from_angles(theta, phi))
    return out


def apply_pauli_error(state, qubit, letter):
    return apply_unitary(state, ref.PAULI[letter], [qubit])


class TestLogicalInput:
    @pytest.mark.parametrize("theta,phi", [
        (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (1.0, -math.inf)])
    def test_non_finite_angles_are_config_errors(self, theta, phi):
        """nan built a NaN word and inf raised "math domain error"."""
        with pytest.raises(ConfigError, match="theta/phi must be finite"):
            LogicalInput.from_angles(theta, phi)

    @pytest.mark.parametrize("alpha,beta", [(math.nan, 0.0), (S2, math.nan),
                                            (math.inf, 0.0)])
    def test_non_finite_amplitudes_are_config_errors(self, alpha, beta):
        with pytest.raises(ConfigError, match="not normalized"):
            LogicalInput(alpha, beta)

    @pytest.mark.parametrize("alpha,beta", [
        (1e200, 0.0), (0.0, -1e200), (complex(0, 1e300), 0.0),
        (np.float64(1e200), 0.0), (1e155, 1e155)])
    def test_huge_amplitudes_are_config_errors(self, alpha, beta):
        """Squaring 1e200 raised OverflowError (a NumPy float warned)."""
        with pytest.raises(ConfigError, match="not normalized: .* = inf"):
            LogicalInput(alpha, beta)

    def test_moderately_large_amplitudes_report_their_norm(self):
        with pytest.raises(ConfigError, match=r"= 9\.0$"):
            LogicalInput(3.0, 0.0)
        with pytest.raises(ConfigError) as err:
            LogicalInput(2.0 ** 490, 0.0)    # squares exactly to 2^980
        assert str(err.value).endswith(f"= {2.0 ** 980!r}")


class TestEncodeBlock:
    def test_zero_input(self):
        s = encode_block(LogicalInput(1, 0))
        assert np.allclose(s.amplitudes[0], 1)

    def test_plus_input_gives_ghz(self):
        s = encode_block(LogicalInput(S2, S2))
        np.testing.assert_allclose(s.amplitudes[[0, 7]], [S2, S2],
                                   atol=1e-12)

    def test_complex_input_matches_circuit_oracle(self):
        inp = LogicalInput(S2, 1j * S2)
        s = encode_block(inp)
        # oracle: two explicit CNOT matrices acting on (a|0>+b|1>)|00>
        vec = np.zeros(8, dtype=complex)
        vec[0], vec[4] = inp.alpha, inp.beta
        vec = ref.cnot_matrix(0, 2, 3) @ ref.cnot_matrix(0, 1, 3) @ vec
        np.testing.assert_allclose(s.amplitudes, vec, atol=1e-12)
        np.testing.assert_allclose(s.amplitudes[[0, 7]], [S2, 1j * S2],
                                   atol=1e-12)

    @pytest.mark.parametrize("m", [0, -1, 13])
    def test_block_size_outside_cap_is_a_value_error(self, m):
        with pytest.raises(ValueError, match=f"1..{MAX_QUBITS}"):
            encode_block(D_INPUT, m)

    def test_noisy_block_of_no_photons_is_a_value_error(self):
        with pytest.raises(ValueError, match=f"1..{MAX_QUBITS}"):
            noisy_block_fidelity(0.7, 0)


def _with_signed_zeros():
    """Inputs whose amplitude parts include zeros of both signs."""
    out = []
    for a_re, a_im, b_re, b_im in itertools.product(
            (S2, -S2, 1.0, -1.0, 0.0, -0.0), repeat=4):
        if abs(a_re ** 2 + a_im ** 2 + b_re ** 2 + b_im ** 2 - 1) < 1e-12:
            parts = np.array([[a_re, a_im], [b_re, b_im]])
            alpha, beta = parts.view(complex)[:, 0]
            out.append(LogicalInput(alpha, beta))
    return out


# Seeded inputs, the six inputs at theta in {0, pi/2, pi} and phi in
# {0, pi}, and inputs with signed zeros in their amplitudes.
ORACLE_INPUTS = (random_inputs(4, seed=15)
                 + [LogicalInput.from_angles(t, p)
                    for t in (0.0, math.pi / 2, math.pi)
                    for p in (0.0, math.pi)]
                 + _with_signed_zeros())
LAYOUTS = [(n, m) for n in range(1, MAX_QUBITS + 1)
           for m in range(1, MAX_QUBITS // n + 1)]


def bits(state):
    """The amplitudes' IEEE bits, so that the sign of zero counts."""
    return state.amplitudes.view(np.uint64)


class TestGateOracle:
    """The code-word builders give the old gate circuits' amplitudes bit
    for bit (tests/reference.py keeps the circuits)."""

    @pytest.mark.parametrize("n,m", LAYOUTS)
    def test_encode_qpc(self, n, m):
        for inp in ORACLE_INPUTS:
            want = ref.encode_qpc_circuit(inp.alpha, inp.beta, n, m)
            np.testing.assert_array_equal(bits(encode_qpc(inp, n, m)),
                                          bits(want))

    @pytest.mark.parametrize("m", range(1, MAX_QUBITS + 1))
    def test_encode_block(self, m):
        for inp in ORACLE_INPUTS:
            want = ref.encode_block_circuit(inp.alpha, inp.beta, m)
            np.testing.assert_array_equal(bits(encode_block(inp, m)),
                                          bits(want))

    @pytest.mark.parametrize(
        "kind,n,m",
        [("partial", 4, m) for m in range(1, MAX_QUBITS - 2)]
        + [("encoded", n, m) for n, m in LAYOUTS]
        + [("bare", n, 1) for n in range(2, MAX_QUBITS + 1)])
    def test_rgs(self, kind, n, m):
        """Every RGS the spec accepts: the partial circuit, the parity
        code word of |+>, and the GHZ literal."""
        if kind == "partial":
            want = ref.partial_encoded_circuit(m)
        elif kind == "encoded":
            want = ref.encode_qpc_circuit(S2, S2, n, m)
        else:
            amps = np.zeros(2 ** n, dtype=complex)
            amps[[0, -1]] = S2
            want = PureState(amps)
        np.testing.assert_array_equal(bits(RgsSpec(kind, n, m).build()),
                                      bits(want))

    def test_signed_zero_inputs_are_covered(self):
        """Each of the four amplitude parts is -0 in some inputs and +0
        in others."""
        parts = np.array([(inp.alpha, inp.beta) for inp in ORACLE_INPUTS])
        parts = parts.view(float)
        assert len(parts) > 100
        for column in parts.T:
            signs = np.signbit(column[column == 0])
            assert signs.any() and not signs.all()


class TestEncodeShor:
    def test_zero_input_block_structure(self):
        s = encode_shor(LogicalInput(1, 0))
        block = np.zeros(8)
        block[[0, 7]] = S2
        want = np.kron(np.kron(block, block), block)
        np.testing.assert_allclose(s.amplitudes, want, atol=1e-12)

    def test_one_input_block_structure(self):
        s = encode_shor(LogicalInput(0, 1))
        block = np.zeros(8)
        block[0], block[7] = S2, -S2
        want = np.kron(np.kron(block, block), block)
        np.testing.assert_allclose(s.amplitudes, want, atol=1e-12)

    def test_d_state_support(self):
        s = encode_shor(D_INPUT)
        nz = {i: a for i, a in enumerate(s.amplitudes) if abs(a) > 1e-12}
        assert set(nz) == set(D_SUPPORT)
        for i, want in D_SUPPORT.items():
            assert abs(nz[i] - want) < 1e-10

    def test_matches_full_circuit_oracle(self):
        inp = random_inputs(1, seed=5)[0]
        vec = np.zeros(512, dtype=complex)
        vec[0], vec[256] = inp.alpha, inp.beta
        for op in ref.shor_encoding_circuit():
            vec = op @ vec
        np.testing.assert_allclose(encode_shor(inp).amplitudes, vec,
                                   atol=1e-12)

    def test_codeword_stabilized(self):
        for inp in random_inputs(20, seed=1):
            word = encode_shor(inp)
            for gen in stabilizers():
                assert abs(expectation(word, gen) - 1) < 1e-10


class TestEncodeQpc:
    def test_3x3_equals_shor(self):
        inp = random_inputs(1, seed=2)[0]
        np.testing.assert_allclose(encode_qpc(inp, 3, 3).amplitudes,
                                   encode_shor(inp).amplitudes, atol=1e-12)

    def test_1x1_is_hadamard(self):
        inp = random_inputs(1, seed=3)[0]
        got = encode_qpc(inp, 1, 1)
        want = [(inp.alpha + inp.beta) * S2, (inp.alpha - inp.beta) * S2]
        np.testing.assert_allclose(got.amplitudes, want, atol=1e-12)

    def test_2x2_zero_input(self):
        got = encode_qpc(LogicalInput(1, 0), 2, 2)
        want = np.zeros(16)
        want[[0b0000, 0b0011, 0b1100, 0b1111]] = 0.5
        np.testing.assert_allclose(got.amplitudes, want, atol=1e-12)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            encode_qpc(LogicalInput(1, 0), 4, 4)


class TestStabilizers:
    def test_exact_generators(self):
        want = [
            {0: "Z", 1: "Z"}, {1: "Z", 2: "Z"},
            {3: "Z", 4: "Z"}, {4: "Z", 5: "Z"},
            {6: "Z", 7: "Z"}, {7: "Z", 8: "Z"},
            {q: "X" for q in range(6)},
            {q: "X" for q in range(3, 9)},
        ]
        gens = stabilizers()
        assert [g.factors for g in gens] == want
        assert all(g.sign == 1 for g in gens)

    def test_one_shared_tuple_per_layout(self):
        gens = stabilizers()
        assert isinstance(gens, tuple)
        assert stabilizers() is gens
        assert stabilizers(SHOR_LAYOUT) is gens
        assert stabilizers(CodeLayout(3, 3)) is gens
        assert stabilizers(CodeLayout(2, 4)) is stabilizers(CodeLayout(2, 4))

    @pytest.mark.parametrize("n,m", [(3, 3), (1, 1), (1, 4), (4, 1), (2, 5),
                                     (4, 3)])
    def test_equals_generator_list(self, n, m):
        """The generators the layout's loops once built on every call."""
        layout = CodeLayout(n, m)
        want = []
        for b in range(n):
            qs = layout.block_qubits(b)
            for i in range(m - 1):
                want.append(PauliString({qs[i]: "Z", qs[i + 1]: "Z"}))
        for b in range(n - 1):
            qs = layout.block_qubits(b) + layout.block_qubits(b + 1)
            want.append(PauliString({q: "X" for q in qs}))
        assert list(stabilizers(layout)) == want

    def test_shared_generators_cannot_be_edited(self):
        gen = stabilizers()[0]
        with pytest.raises(TypeError):
            gen.factors[5] = "X"
        with pytest.raises(TypeError):
            del gen.factors[0]
        with pytest.raises(AttributeError):
            gen.factors.clear()
        assert dict(stabilizers()[0].factors) == {0: "Z", 1: "Z"}

    def test_pairwise_commutation(self):
        gens = stabilizers()
        for a, b in itertools.combinations(gens, 2):
            assert a.commutes_with(b)

    def test_squares_are_identity(self):
        for g in stabilizers():
            sq = g * g
            assert sq.factors == {} and sq.sign == 1


# Syndrome signatures frozen from the dense oracle: conjugating each
# stabilizer by the error and reading the sign flip.
SINGLE_ERROR_SYNDROMES = {
    ("X", 3): (1, 1, -1, 1, 1, 1, 1, 1),
    ("Z", 1): (1, 1, 1, 1, 1, 1, -1, 1),
    ("Y", 4): (1, 1, -1, -1, 1, 1, -1, -1),
}


class TestSyndromes:
    @pytest.mark.parametrize("error,want", SINGLE_ERROR_SYNDROMES.items())
    def test_injected_error_signature(self, error, want):
        letter, qubit = error
        state = apply_pauli_error(encode_shor(D_INPUT), qubit, letter)
        record, _ = measure_syndromes(state)
        np.testing.assert_allclose(record.values, want, atol=1e-10)

    @pytest.mark.parametrize("error", SINGLE_ERROR_SYNDROMES)
    def test_signature_matches_conjugation_oracle(self, error):
        """<S> after error E equals the sign of E S E relative to S."""
        letter, qubit = error
        state = apply_pauli_error(encode_shor(D_INPUT), qubit, letter)
        record, _ = measure_syndromes(state)
        for gen, got in zip(stabilizers(), record.values):
            full = ref.pauli_matrix(gen.factors, 9)
            err = ref.pauli_matrix({qubit: letter}, 9)
            sign = 1 if np.allclose(err @ full @ err, full) else -1
            assert abs(got - sign) < 1e-10

    def test_sample_mode_on_codeword(self):
        rng = np.random.default_rng(0)
        record, post = measure_syndromes(encode_shor(D_INPUT), mode="sample",
                                         rng=rng)
        assert record.values == (1,) * 8
        assert abs(fidelity(post, encode_shor(D_INPUT)) - 1) < 1e-10

    def test_sample_mode_pins_error(self):
        state = apply_pauli_error(encode_shor(D_INPUT), 3, "X")
        rng = np.random.default_rng(0)
        record, _ = measure_syndromes(state, mode="sample", rng=rng)
        assert record.values == SINGLE_ERROR_SYNDROMES[("X", 3)]

    def test_sample_mode_needs_an_rng(self):
        with pytest.raises(ValueError, match="sample mode needs an rng"):
            measure_syndromes(encode_shor(D_INPUT), mode="sample")

    def test_value_outside_unit_interval_is_refused(self):
        with pytest.raises(ConfigError, match=r"^syndrome value 2 outside "
                           r"\[-1, 1\]$"):
            SyndromeRecord((2,) + (1,) * 7)

    def test_state_must_fit_the_layout(self):
        with pytest.raises(ConfigError, match="^state has 8 qubits, layout "
                           "needs 9$"):
            measure_syndromes(make_basis_state(8))

    def test_unknown_mode_is_refused(self):
        with pytest.raises(ConfigError, match="^unknown mode 'bogus'$"):
            measure_syndromes(encode_shor(D_INPUT), mode="bogus")


def _sampled_syndrome_states():
    """States whose sampled syndromes depend on the draws: a 50% bit flip
    on a Shor word, a random 9-qubit state and a (4, 3) flip mixture."""
    flipped = apply_flip_channel(encode_shor(D_INPUT), 3, "bit-flip", 0.5)
    rng = np.random.default_rng(2024)
    v = rng.normal(size=512) + 1j * rng.normal(size=512)
    mixture = encode_qpc(LogicalInput.from_angles(1.1, 0.7), 4, 3)
    for qubit, kind, p in ((4, "bit-flip", 0.3), (7, "phase-flip", 0.4),
                           (11, "bit-flip", 0.5)):
        mixture = apply_flip_channel(mixture, qubit, kind, p)
    return {"bit-flip": (flipped, SHOR_LAYOUT),
            "random": (PureState(v / np.linalg.norm(v)), SHOR_LAYOUT),
            "qpc43": (mixture, CodeLayout(4, 3))}


# Sampled records per seed 0..4, and the generator's next draw after
# each, frozen from the measurement code that drew one uniform per
# syndrome operator through _pick.
SAMPLED_SYNDROME_PINS = {
    "bit-flip": [
        ((1, 1, 1, 1, 1, 1, 1, 1), 0.5436249914654229),
        ((1, 1, 1, 1, 1, 1, 1, 1), 0.5495936876730595),
        ((1, 1, -1, 1, 1, 1, 1, 1), 0.2749693679060381),
        ((1, 1, -1, 1, 1, 1, 1, 1), 0.7345771514092145),
        ((1, 1, -1, 1, 1, 1, 1, 1), 0.8716352741876564)],
    "random": [
        ((-1, 1, 1, 1, -1, -1, -1, 1), 0.5436249914654229),
        ((-1, -1, 1, -1, 1, 1, -1, 1), 0.5495936876730595),
        ((1, 1, -1, 1, -1, -1, 1, 1), 0.2749693679060381),
        ((1, 1, -1, -1, 1, 1, -1, 1), 0.7345771514092145),
        ((-1, -1, -1, 1, -1, 1, -1, 1), 0.8716352741876564)],
    "qpc43": [
        ((1, 1, 1, 1, 1, 1, 1, -1, 1, -1, -1), 0.002738500170148095),
        ((1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), 0.5381433132192782),
        ((1, 1, -1, -1, 1, 1, 1, 1, 1, -1, -1), 0.15006226330533612),
        ((1, 1, -1, -1, 1, 1, 1, 1, 1, 1, 1), 0.5167401826213637),
        ((1, 1, -1, -1, 1, 1, 1, 1, 1, 1, 1), 0.4771535238392063)],
}


class TestSampledSyndromeStream:
    """Sampled syndromes of states whose outcomes are not certain, so a
    changed draw or a changed pick rule shows."""

    @pytest.mark.parametrize("name", SAMPLED_SYNDROME_PINS)
    def test_pinned_records_and_next_draw(self, name):
        state, layout = _sampled_syndrome_states()[name]
        for seed, (values, next_draw) in enumerate(
                SAMPLED_SYNDROME_PINS[name]):
            rng = np.random.default_rng(seed)
            record, post = measure_syndromes(state, mode="sample", rng=rng,
                                             layout=layout)
            assert record.values == values, seed
            assert rng.random() == next_draw, seed
            # The post-measurement state sits in the recorded eigenspace.
            np.testing.assert_allclose(
                [expectation(post, g) for g in stabilizers(layout)], values,
                atol=1e-10)

    @pytest.mark.parametrize("name", SAMPLED_SYNDROME_PINS)
    def test_one_uniform_per_generator(self, name):
        state, layout = _sampled_syndrome_states()[name]
        rng = np.random.default_rng(123)
        measure_syndromes(state, mode="sample", rng=rng, layout=layout)
        ref_rng = np.random.default_rng(123)
        ref_rng.random(len(stabilizers(layout)))
        assert rng.random() == ref_rng.random()


class TestFlipChannel:
    def test_zero_probability_unchanged(self):
        word = encode_shor(D_INPUT)
        rho = apply_flip_channel(word, 3, "bit-flip", 0.0)
        np.testing.assert_allclose(rho.matrix, word.to_density().matrix,
                                   atol=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_linear_response_bit_flip(self, p):
        rho = apply_flip_channel(encode_shor(D_INPUT), 3, "bit-flip", p)
        record, _ = measure_syndromes(rho)
        assert abs(record.values[2] - (1 - 2 * p)) < 1e-10
        for i in (0, 1, 3, 4, 5, 6, 7):
            assert abs(record.values[i] - 1) < 1e-10

    def test_phase_flip_endpoint(self):
        rho = apply_flip_channel(encode_shor(D_INPUT), 1, "phase-flip", 1.0)
        record, _ = measure_syndromes(rho)
        assert abs(record.values[6] + 1) < 1e-10

    def test_unknown_kind_is_refused(self):
        with pytest.raises(ConfigError, match="^kind must be 'bit-flip' or "
                           "'phase-flip', got 'depolarizing'$"):
            apply_flip_channel(encode_shor(D_INPUT), 0, "depolarizing", 0.1)

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            apply_flip_channel(encode_shor(D_INPUT), 0, "bit-flip", 1.5)

    @pytest.mark.parametrize("p", [-0.25, 1.5, math.nan, math.inf])
    def test_probability_outside_unit_interval_is_a_config_error(self, p):
        with pytest.raises(ConfigError, match="channel probability"):
            apply_flip_channel(encode_shor(D_INPUT), 0, "bit-flip", p)


class TestDiagnoseCorrect:
    def test_clean_syndrome(self):
        assert diagnose(SyndromeRecord((1,) * 8)).kind == "none"

    def test_x4_identified(self):
        rec = SyndromeRecord((1, 1, -1, 1, 1, 1, 1, 1))
        hyp = diagnose(rec)
        assert hyp.kind == "x" and hyp.qubit == 3

    def test_z_block_identified(self):
        rec = SyndromeRecord((1, 1, 1, 1, 1, 1, -1, 1))
        hyp = diagnose(rec)
        assert hyp.kind == "z" and hyp.block == 0

    def test_cross_block_unidentifiable(self):
        # X signature in block 2, Z signature in block 1
        rec = SyndromeRecord((1, 1, -1, 1, 1, 1, -1, 1))
        assert diagnose(rec).kind == "unidentifiable"

    def test_two_block_x_unidentifiable(self):
        rec = SyndromeRecord((-1, 1, -1, 1, 1, 1, 1, 1))
        assert diagnose(rec).kind == "unidentifiable"

    def test_correct_refuses_unidentifiable(self):
        with pytest.raises(PreconditionError):
            correct(encode_shor(D_INPUT), diagnose(
                SyndromeRecord((-1, 1, -1, 1, 1, 1, 1, 1))))

    def test_diagnose_refuses_an_expectation_record(self):
        with pytest.raises(ConfigError, match="^diagnose needs a sampled "
                           "record with \\+-1 entries$"):
            diagnose(SyndromeRecord((0.5,) + (1,) * 7))

    def test_correct_refuses_an_unknown_kind(self):
        with pytest.raises(ConfigError,
                           match="^unknown hypothesis kind 'w'$"):
            correct(encode_shor(D_INPUT), ErrorHypothesis("w"))

    @pytest.mark.parametrize("hypothesis,layout,match", [
        (ErrorHypothesis("x", qubit=9), SHOR_LAYOUT,
         "^target qubit 9 outside 0..8$"),
        (ErrorHypothesis("y", qubit=-1), SHOR_LAYOUT,
         "^target qubit -1 outside 0..8$"),
        (ErrorHypothesis("z", block=3), CodeLayout(4, 3),
         "^target qubit 9 outside 0..8$")], ids=["x", "y", "z"])
    def test_correct_refuses_a_qubit_outside_the_state(self, hypothesis,
                                                       layout, match):
        """The Pauli kernel would call an out-of-range factor a
        PreconditionError; a correction checks its target first."""
        with pytest.raises(ConfigError, match=match):
            correct(encode_shor(D_INPUT), hypothesis, layout)

    def test_all_27_single_errors_recover(self):
        """Complete single-error table: diagnose then correct restores
        the code word (Z corrections may differ by a stabilizer)."""
        word = encode_shor(D_INPUT)
        for qubit in range(9):
            for letter in "XYZ":
                damaged = apply_pauli_error(word, qubit, letter)
                record, _ = measure_syndromes(damaged)
                sampled = SyndromeRecord(
                    tuple(int(round(v)) for v in record.values))
                hyp = diagnose(sampled)
                assert hyp.kind != "unidentifiable", (qubit, letter)
                fixed = correct(damaged, hyp)
                assert abs(fidelity(fixed.to_density(), word) - 1) < 1e-10, \
                    (qubit, letter)

    def test_degenerate_z_correction(self):
        """Z on any qubit of a block is corrected by Z on its first."""
        word = encode_shor(D_INPUT)
        damaged = apply_pauli_error(word, 2, "Z")
        hyp = diagnose(SyndromeRecord((1, 1, 1, 1, 1, 1, -1, 1)))
        fixed = correct(damaged, hyp)  # applies Z on qubit 0
        assert abs(fidelity(fixed.to_density(), word) - 1) < 1e-10

    def test_no_error_correct_is_identity(self):
        word = encode_shor(D_INPUT)
        fixed = correct(word, diagnose(SyndromeRecord((1,) * 8)))
        assert abs(fidelity(fixed.to_density(), word) - 1) < 1e-12


class TestDecodeReadout:
    def test_correction_table_contents(self):
        table = readout_correction_table()
        assert set(table) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
        assert set(table.values()) == {"I", "X", "Z", "ZX"}

    def test_lossless_every_branch_perfect(self):
        for inp in random_inputs(4, seed=11):
            branches = decode_readout(encode_shor(inp))
            assert len(branches) == 16
            assert abs(sum(b.probability for b in branches) - 1) < 1e-10
            for b in branches:
                assert abs(b.fidelity_to(inp) - 1) < 1e-10
                assert not b.degraded

    def test_matches_inverse_circuit_oracle(self):
        """Branch outputs equal the inverse-circuit decoding."""
        inp = random_inputs(1, seed=21)[0]
        word = encode_shor(inp)
        oracle_vec = ref.inverse_circuit_decode(word.amplitudes)
        oracle = PureState(oracle_vec)
        for b in decode_readout(word):
            assert abs(fidelity(b.output, oracle) - 1) < 1e-10

    def test_six_cardinal_states_read_back(self):
        """Round trip for the complete orthogonal basis set: the poles
        and the four equatorial states of the Bloch sphere."""
        cardinals = [
            LogicalInput(1, 0),            # |0>
            LogicalInput(0, 1),            # |1>
            LogicalInput(S2, S2),          # (|0> + |1>)/sqrt2
            LogicalInput(S2, -S2),         # (|0> - |1>)/sqrt2
            LogicalInput(S2, 1j * S2),     # (|0> + i|1>)/sqrt2
            LogicalInput(S2, -1j * S2),    # (|0> - i|1>)/sqrt2
        ]
        for inp in cardinals:
            for b in decode_readout(encode_shor(inp)):
                assert abs(b.fidelity_to(inp) - 1) < 1e-10
            for b in decode_readout(encode_shor(inp), losses=[5]):
                assert abs(b.fidelity_to(inp) - 1) < 1e-10

    @pytest.mark.parametrize("losses", [(5,), (3, 5), (4,), (6, 8)])
    def test_loss_tolerant_branches(self, losses):
        for inp in (D_INPUT, A_INPUT):
            branches = decode_readout(encode_shor(inp), losses=losses)
            assert abs(sum(b.probability for b in branches) - 1) < 1e-10
            for b in branches:
                assert abs(b.fidelity_to(inp) - 1) < 1e-10
                b.output.validate()

    def test_prereduced_state_accepted(self):
        word = encode_shor(D_INPUT)
        reduced = partial_trace(word, [5])
        branches = decode_readout(reduced, losses=[5])
        for b in branches:
            assert abs(b.fidelity_to(D_INPUT) - 1) < 1e-10

    def test_block1_loss_degraded(self):
        branches = decode_readout(encode_shor(D_INPUT), losses=[1])
        assert all(b.degraded for b in branches)
        assert abs(sum(b.probability for b in branches) - 1) < 1e-10

    @pytest.mark.parametrize("losses,degraded", [
        ((1,), True), ((2,), True), ((1, 4), True),
        ((4,), False), ((4, 6), False)])
    def test_degraded_means_no_fidelity_guarantee(self, losses, degraded):
        """Loss in the output block flags every branch and costs
        fidelity; loss elsewhere keeps every branch at fidelity 1."""
        inp = LogicalInput.from_angles(math.pi / 3, 0.5)
        branches = decode_readout(encode_shor(inp), losses=losses)
        for b in branches:
            assert b.degraded is degraded
            if degraded:
                assert abs(b.fidelity_to(inp) - 0.789) < 1e-3
            else:
                assert abs(b.fidelity_to(inp) - 1) < 1e-12

    def test_output_qubit_loss_rejected(self):
        for lost in ([0], [0, 1, 2]):
            with pytest.raises(PreconditionError, match="output qubit lost"):
                decode_readout(encode_shor(D_INPUT), losses=lost)

    def test_full_block_loss_rejected(self):
        """A fully lost block beside the output breaks condition (ii)."""
        for block in ([3, 4, 5], [6, 7, 8]):
            with pytest.raises(ConditionViolation, match="fully lost"):
                decode_readout(encode_shor(D_INPUT), losses=block)

    @pytest.mark.parametrize("lost", [-1, 9])
    def test_lost_qubit_outside_layout_rejected(self, lost):
        with pytest.raises(ValueError, match=f"lost qubit {lost} outside"):
            decode_readout(encode_shor(D_INPUT), losses=[lost])

    @pytest.mark.parametrize("losses", [(4.7,), (True,), (3.0, 4.0, 5.0),
                                        (False,), (np.float64(4.0),)],
                             ids=repr)
    def test_lost_qubits_must_be_integers(self, losses):
        """4.7 read as qubit 4 and True as qubit 1; a block of whole
        floats read as a fully lost block."""
        with pytest.raises(ConfigError, match="lost qubit must be an integer"):
            decode_readout(encode_shor(D_INPUT), losses=losses)

    def test_numpy_integer_losses_read_as_ints(self):
        word = encode_shor(D_INPUT)
        got = decode_readout(word, losses=(np.int64(3), np.int64(5)))
        want = decode_readout(word, losses=(3, 5))
        assert [b.probability for b in got] == [b.probability for b in want]
        assert [b.correction for b in got] == [b.correction for b in want]

    def test_json_round(self):
        b = decode_readout(encode_shor(D_INPUT))[0]
        d = b.to_json_dict(D_INPUT)
        assert d["correction"] in ("I", "X", "Z", "ZX")
        assert abs(d["fidelity"] - 1) < 1e-10
        assert len(d["transcript"]) == 8

    @pytest.mark.parametrize("losses,branches", [
        ((5,), 16), ((3, 5), 16), ((4,), 16), ((4, 6), 16), ((1,), 8)])
    def test_json_dict_under_loss(self, losses, branches):
        """Every branch's dict carries its fidelity to the input, and a
        transcript of the surviving measured qubits only."""
        inp = LogicalInput.from_angles(math.pi / 3, 0.5)
        got = decode_readout(encode_shor(inp), losses=losses)
        assert len(got) == branches
        for b in got:
            d = b.to_json_dict(inp)
            assert d["fidelity"] == b.fidelity_to(inp)
            assert d["degraded"] is b.degraded
            assert len(d["transcript"]) == 8 - len(losses)
            assert not set(losses) & {r["qubit"] for r in d["transcript"]}


class TestLayout:
    def test_shor_layout_blocks(self):
        assert SHOR_LAYOUT.block_qubits(0) == (0, 1, 2)
        assert SHOR_LAYOUT.block_qubits(2) == (6, 7, 8)

    def test_bijection(self):
        layout = CodeLayout(4, 3)
        seen = {layout.qubit_of(b, p)
                for b in range(4) for p in range(3)}
        assert seen == set(range(12))

    @pytest.mark.parametrize("call,match", [
        (lambda: SHOR_LAYOUT.qubit_of(1.5, 0), "block must be an integer"),
        (lambda: SHOR_LAYOUT.block_qubits(True), "block must be an integer"),
        (lambda: SHOR_LAYOUT.qubit_of(3, 0), r"^block 3 outside 0\.\.2$"),
        (lambda: SHOR_LAYOUT.qubit_of(0, -1),
         r"^position -1 outside 0\.\.2$"),
        (lambda: CodeLayout(2.5, 2), "n_blocks must be an integer"),
        (lambda: CodeLayout(2, 0), "^need block_size >= 1$")])
    def test_blocks_and_positions_follow_the_count_rule(self, call, match):
        """qubit_of(1.5, 0) returned 4.5, block_qubits(True) block 1, and
        CodeLayout(2.5, 2) held 5.0 qubits."""
        with pytest.raises(ConfigError, match=match):
            call()

    def test_numpy_integer_blocks_and_positions(self):
        assert SHOR_LAYOUT.qubit_of(np.int64(1), np.int64(2)) == 5
        assert CodeLayout(np.int64(2), np.int64(3)).num_qubits == 6


# Every (blocks, block size) layout the syndrome tests cover, up to the
# 12-qubit cap.
LAYOUTS = [(2, 3), (3, 3), (4, 3), (3, 4), (2, 5)]


class TestLayoutSyndromes:
    """Syndromes, diagnosis and correction of every single-qubit Pauli
    error on generalized (n, m) codes, against the index-arithmetic
    oracle of tests/reference.py."""

    @pytest.mark.parametrize("n,m", LAYOUTS)
    def test_single_errors_against_oracle(self, n, m):
        layout = CodeLayout(n, m)
        inp = LogicalInput.from_angles(1.1, 0.7)
        word = encode_qpc(inp, n, m)
        oracle = ref.qpc_codeword(inp.alpha, inp.beta, n, m)
        np.testing.assert_allclose(word.amplitudes, oracle, atol=1e-12)
        gens = stabilizers(layout)
        assert len(gens) == n * (m - 1) + n - 1
        rng = np.random.default_rng(n * 10 + m)
        for q in range(n * m):
            for letter in "XYZ":
                damaged = ref.pauli_on_vector({q: letter}, oracle, n * m)
                want = [np.vdot(damaged, ref.pauli_on_vector(
                    g.factors, damaged, n * m)).real for g in gens]
                state = PureState(damaged)
                record, _ = measure_syndromes(state, layout=layout)
                np.testing.assert_allclose(record.values, want, atol=1e-10)
                sampled, _ = measure_syndromes(state, mode="sample",
                                               rng=rng, layout=layout)
                assert sampled.values == tuple(round(v) for v in want)
                assert len(sampled.sz) == n * (m - 1)
                assert len(sampled.sx) == n - 1
                hyp = diagnose(sampled)
                # A flip two sites explain alike cannot be located: X in
                # a block of two, Z in a code of two blocks.
                if (letter != "Z" and m < 3) or (letter != "X" and n < 3):
                    assert hyp.kind == "unidentifiable", (q, letter)
                    continue
                if letter == "Z":
                    assert (hyp.kind, hyp.block) == ("z", q // m)
                else:
                    assert (hyp.kind, hyp.qubit) == (letter.lower(), q)
                fixed = correct(state, hyp, layout)
                assert abs(fidelity(fixed, word) - 1) < 1e-10, (q, letter)

    def test_index_oracle_matches_kronecker_oracle(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=32) + 1j * rng.normal(size=32)
        for factors in ({0: "X"}, {1: "Y", 3: "Z"}, {0: "Y", 2: "X", 4: "Y"}):
            np.testing.assert_allclose(ref.pauli_on_vector(factors, v, 5),
                                       ref.pauli_matrix(factors, 5) @ v,
                                       atol=1e-12)
        inp = LogicalInput.from_angles(1.1, 0.7)
        np.testing.assert_allclose(
            ref.inverse_circuit_decode(
                ref.qpc_codeword(inp.alpha, inp.beta, 2, 3), 2, 3),
            [inp.alpha, inp.beta], atol=1e-12)

    def test_diagnose_every_record_against_oracle(self):
        """Every +-1 record of every layout with n*m <= 12 (35 layouts,
        17 989 records) diagnoses as the single-error oracle of
        tests/reference.py does, within a 3 s budget."""
        start = time.perf_counter()
        layouts = [(n, m) for n in range(1, MAX_QUBITS + 1)
                   for m in range(1, MAX_QUBITS // n + 1)]
        records = 0
        for n, m in layouts:
            layout = CodeLayout(n, m)
            oracle = ref.single_error_diagnoser(n, m)
            for values in itertools.product((1, -1), repeat=n * m - 1):
                hyp = diagnose(SyndromeRecord(values, layout))
                assert (hyp.kind, hyp.qubit, hyp.block) == oracle(values), \
                    (n, m, values)
                records += 1
        elapsed = time.perf_counter() - start
        assert (len(layouts), records) == (35, 17989)
        assert elapsed < 3.0, f"took {elapsed:.2f}s (budget 3s)"

    def test_record_length_follows_layout(self):
        layout = CodeLayout(2, 3)
        record = SyndromeRecord((1, 1, 1, 1, -1), layout)
        assert record.sz == (1, 1, 1, 1) and record.sx == (-1,)
        assert diagnose(record).kind == "unidentifiable"
        with pytest.raises(ValueError):
            SyndromeRecord((1,) * 8, layout)
        with pytest.raises(ValueError):
            SyndromeRecord((1,) * 5)
