"""Repeater-graph-state and connection-protocol tests."""

import json
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import reference as ref
from qparity.errors import ConditionViolation, PreconditionError
from qparity.rgs import (
    PlanStep,
    RgsSpec,
    Scenario,
    _branch_tokens,
    bare_loss_scenario,
    build_bare_rgs,
    build_encoded_rgs,
    build_partial_encoded,
    connection_corrections,
    derive_corrections,
    encoded_loss_scenario,
    connect_scenario,
    logical_loss_test,
    run_connection,
    witness,
)
from qparity import sim
from qparity.shor import (
    LogicalInput,
    decode_readout,
    encode_shor,
    readout_correction_table,
)
from qparity.sim import (
    DensityMatrix,
    PauliString,
    PureState,
    apply_unitary,
    expectation,
    walk_stack,
)

S2 = 1 / math.sqrt(2)
GOLDEN = Path(__file__).parent / "golden"


class TestBuilders:
    def test_bare_2_is_bell(self):
        s = build_bare_rgs(2)
        np.testing.assert_allclose(s.amplitudes, [S2, 0, 0, S2], atol=1e-12)

    def test_bare_4_strings(self):
        s = build_bare_rgs(4)
        nz = {i: a for i, a in enumerate(s.amplitudes) if abs(a) > 1e-12}
        assert set(nz) == {0, 15}
        assert abs(nz[0] - S2) < 1e-12 and abs(nz[15] - S2) < 1e-12

    def test_bare_3_stabilizers(self):
        s = build_bare_rgs(3)
        for factors in ({0: "X", 1: "X", 2: "X"}, {0: "Z", 1: "Z"},
                        {1: "Z", 2: "Z"}):
            assert abs(expectation(s, PauliString(factors)) - 1) < 1e-10

    def test_bare_size_limits(self):
        with pytest.raises(ValueError):
            build_bare_rgs(1)
        with pytest.raises(ValueError):
            build_bare_rgs(11)

    def test_partial_m1_is_rotated_ghz(self):
        got = build_partial_encoded(1)
        want = apply_unitary(build_bare_rgs(4), ref.H, [3])
        np.testing.assert_allclose(got.amplitudes, want.amplitudes,
                                   atol=1e-12)

    def test_partial_m3_strings(self):
        got = build_partial_encoded(3)
        nz = {format(i, "06b"): a
              for i, a in enumerate(got.amplitudes) if abs(a) > 1e-12}
        want = {"000000": 0.5, "000111": 0.5, "111000": 0.5, "111111": -0.5}
        assert set(nz) == set(want)
        for k, v in want.items():
            assert abs(nz[k] - v) < 1e-12

    def test_partial_stabilizer_expectations(self):
        """Stabilizers of (|000>|0_l> + |111>|1_l>)/sqrt2, cross-checked
        against the full-matrix oracle.

        Flipping the three bare arms must be paired with a logical flip
        of the block, i.e. a single block Z; a bare X string across all
        six photons is *not* a stabilizer (expectation 0).
        """
        state = build_partial_encoded(3)

        def value(factors):
            got = expectation(state, PauliString(factors))
            want = np.vdot(state.amplitudes,
                           ref.pauli_matrix(factors, 6) @ state.amplitudes)
            assert abs(got - want.real) < 1e-12
            return got

        arms_x_block_z = {0: "X", 1: "X", 2: "X", 3: "Z"}
        arm_z_block_x = {2: "Z", 3: "X", 4: "X", 5: "X"}
        arm_pair_z = {0: "Z", 1: "Z"}
        assert abs(value(arms_x_block_z) - 1) < 1e-10
        assert abs(value(arm_z_block_x) - 1) < 1e-10
        assert abs(value(arm_pair_z) - 1) < 1e-10
        assert abs(value({q: "X" for q in range(6)})) < 1e-10

    def test_encoded_33_is_code_word(self):
        got = build_encoded_rgs(3, 3)
        want = encode_shor(LogicalInput(S2, S2))
        np.testing.assert_allclose(got.amplitudes, want.amplitudes,
                                   atol=1e-12)

    def test_encoded_21_is_bell(self):
        # (|++> + |-->)/sqrt2 equals |phi+> exactly
        got = build_encoded_rgs(2, 1)
        np.testing.assert_allclose(got.amplitudes, [S2, 0, 0, S2],
                                   atol=1e-12)

    def test_encoded_31_strings(self):
        got = build_encoded_rgs(3, 1)
        nz = {i: a for i, a in enumerate(got.amplitudes) if abs(a) > 1e-12}
        # H-rotated GHZ3: even-weight strings at amplitude 1/2
        assert set(nz) == {0b000, 0b011, 0b101, 0b110}
        for v in nz.values():
            assert abs(v - 0.5) < 1e-12


class TestWitness:
    def test_phi_plus(self):
        w = witness(PureState(np.array([1, 0, 0, 1]) / np.sqrt(2)))
        assert abs(w.xx - 1) < 1e-10
        assert abs(w.yy + 1) < 1e-10
        assert abs(w.zz - 1) < 1e-10
        assert abs(w.fidelity - 1) < 1e-10
        assert abs(w.witness + 0.5) < 1e-10

    def test_maximally_mixed(self):
        w = witness(DensityMatrix(np.eye(4) / 4))
        assert abs(w.fidelity - 0.25) < 1e-12
        assert abs(w.witness - 0.25) < 1e-12

    def test_reported_pair_is_consistent(self):
        """F = 0.67 pairs with W = -0.17 for any state with that overlap."""
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        target = np.outer(phi, phi.conj())
        f = 0.67
        rho = DensityMatrix(f * target + (1 - f) * (np.eye(4) - target) / 3)
        w = witness(rho)
        assert abs(w.fidelity - 0.67) < 1e-12
        assert abs(w.witness + 0.17) < 1e-12

    def test_invariant_rederivation(self):
        """The stored fields satisfy the defining formulas."""
        rng = np.random.default_rng(4)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = PureState(v / np.linalg.norm(v))
        w = witness(state)
        assert abs(w.fidelity - (1 + w.xx - w.yy + w.zz) / 4) < 1e-12
        assert abs(w.witness - (0.5 - w.fidelity)) < 1e-12

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            witness(PureState(np.array([1, 0])))


class TestScenario:
    def test_json_round_trip(self):
        scen = connect_scenario(1)
        data = json.loads(json.dumps(scen.to_json_dict()))
        back = Scenario.from_json_dict(data)
        assert back == scen

    def test_unique_labels_enforced(self):
        with pytest.raises(ValueError):
            Scenario(name="bad", channels=(("a", "b"),),
                     rgs=RgsSpec("bare", 2, 1), rgs_order=("a", "c"),
                     rgs_groups=(("a",), ("c",)), loss=(),
                     plan=(), terminals=("a", "c"))

    def test_bsm_must_pair_interface_with_rgs(self):
        with pytest.raises(ValueError):
            Scenario(name="bad", channels=(("t", "i"),),
                     rgs=RgsSpec("bare", 2, 1), rgs_order=("r1", "r2"),
                     rgs_groups=(("r1",), ("r2",)), loss=(),
                     plan=(PlanStep("bsm", ("r1", "r2")),),
                     terminals=("t", "r2"))

    def test_initial_state_is_channels_times_rgs(self):
        scen = connect_scenario(0)
        state = scen.initial_state()
        assert state.num_qubits == 10
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        want = np.kron(np.kron(bell, np.kron(bell,
                       build_partial_encoded(3).amplitudes)), [1])
        # channels are listed (left, right) around the RGS in photon order
        order = scen.photon_order()
        assert order == ("1'", "2'", "9'", "8'", "3'", "10'", "7'",
                         "4'", "5'", "6'")


class TestConnection:
    def test_lossless_all_branches_perfect(self):
        res = run_connection(connect_scenario(0))
        assert len(res) == 64
        assert abs(sum(b.probability for b in res) - 1) < 1e-10
        for b in res:
            assert abs(b.witness.fidelity - 1) < 1e-10
            assert abs(b.witness.witness + 0.5) < 1e-10

    @pytest.mark.parametrize("loss", [1, 2])
    def test_lossy_branches_stay_perfect(self, loss):
        """The lossless-derived corrections keep working under loss."""
        res = run_connection(connect_scenario(loss))
        assert abs(sum(b.probability for b in res) - 1) < 1e-10
        for b in res:
            assert abs(b.witness.fidelity - 1) < 1e-10
            if isinstance(b.terminal, DensityMatrix):
                b.terminal.validate()

    def test_three_losses_violate_condition(self):
        with pytest.raises(ConditionViolation):
            connect_scenario(3)

    def test_bare_control_lossless_works(self):
        res = run_connection(bare_loss_scenario(0))
        for b in res:
            assert abs(b.witness.fidelity - 1) < 1e-10

    def test_bare_control_fails_under_loss(self):
        res = run_connection(bare_loss_scenario(1))
        assert abs(sum(b.probability for b in res) - 1) < 1e-10
        for b in res:
            assert b.witness.fidelity <= 0.5 + 1e-10

    def test_bsm_on_lost_photon_rejected(self):
        scen = connect_scenario(0)
        bad = replace(scen, loss=("3'",))
        with pytest.raises(PreconditionError):
            run_connection(bad)

    def test_plan_leaving_more_than_the_terminals_rejected(self):
        """Without the X measurement of 10' the walk leaves three photons;
        both the derivation and the run refuse it."""
        bad = replace(connect_scenario(0), name="no-x",
                      plan=connect_scenario(0).plan[1:])
        for call in (derive_corrections, run_connection):
            with pytest.raises(PreconditionError, match="malformed plan"):
                call(bad)

    def test_branch_probability_collapse_pattern(self):
        """Every lossless branch carries probability 1/64."""
        for b in run_connection(connect_scenario(0)):
            assert abs(b.probability - 1 / 64) < 1e-10

    def test_sample_mode_reproducible(self):
        scen = connect_scenario(1)
        a = run_connection(scen, mode="sample", rng=np.random.default_rng(3))
        b = run_connection(scen, mode="sample", rng=np.random.default_rng(3))
        assert a.outcomes == b.outcomes
        assert abs(a.witness.fidelity - b.witness.fidelity) < 1e-12


class TestCorrections:
    def test_frozen_tables_match_rederivation(self):
        """The factories' tables equal the ones frozen in the fixture
        when these tables were still shipped with the package."""
        data = json.loads((GOLDEN / "correction_tables.json").read_text())
        assert data["version"] == 1 and data["witness_target"] == "phi+"
        assert set(data["tables"]) == {"connect", "bare-control", "rgs-loss"}
        for scen in (connect_scenario(0), bare_loss_scenario(0),
                     encoded_loss_scenario(0)):
            frozen = {k: tuple(v)
                      for k, v in data["tables"][scen.name].items()}
            assert connection_corrections(scen) == frozen
            assert derive_corrections(scen) == frozen

    def test_cached_tables_are_read_only(self):
        """Neither cached table can be edited through what a caller gets,
        so later runs keep their corrections."""
        with pytest.raises(AttributeError):
            connection_corrections(connect_scenario(1)).clear()
        with pytest.raises(TypeError):
            readout_correction_table()[(1, 1)] = "X"
        assert readout_correction_table()[(1, 1)] == "I"
        for b in run_connection(connect_scenario(0)):
            assert abs(b.witness.fidelity - 1) < 1e-10
        inp = LogicalInput.from_angles(1.0471975511965976, 0.5)
        for b in decode_readout(encode_shor(inp)):
            assert abs(b.fidelity_to(inp) - 1) < 1e-10

    def test_tables_do_not_depend_on_loss(self):
        assert connection_corrections(connect_scenario(0)) is \
            connection_corrections(connect_scenario(2))

    def test_custom_scenario_derives_on_the_fly(self):
        scen = replace(connect_scenario(0), name="custom-experiment")
        res = run_connection(scen)
        for b in res:
            assert abs(b.witness.fidelity - 1) < 1e-10

    @pytest.mark.parametrize("loss", [0, 2])
    def test_tables_keyed_by_content_not_name(self, loss):
        """A factory-named scenario with another plan gets a table
        derived from its own plan, not the cached one of its name."""
        scen = encoded_loss_scenario(loss)
        reordered = replace(scen, plan=tuple(reversed(scen.plan)))
        res = run_connection(reordered)
        assert abs(sum(b.probability for b in res) - 1) < 1e-10
        for b in res:
            assert abs(b.witness.fidelity - 1) < 1e-10


class TestLogicalLossTest:
    @pytest.mark.parametrize("loss", [0, 1, 2])
    def test_fidelity_invariant_under_loss(self, loss):
        res = logical_loss_test(loss)
        assert abs(sum(b.probability for b in res) - 1) < 1e-10
        for b in res:
            assert abs(b.witness.fidelity - 1) < 1e-10
            assert abs(b.witness.witness + 0.5) < 1e-10

    def test_three_losses_raise(self):
        with pytest.raises(ConditionViolation) as err:
            logical_loss_test(3)
        assert "condition (ii)" in str(err.value)

    def test_branch_count(self):
        assert len(logical_loss_test(0)) == 32


class TestSampleFrequencies:
    def test_sampled_keys_match_enumerated_probabilities(self):
        """10^5 sampled protocol walks land on each branch at the
        enumerated rate within 3 sigma."""
        scen = connect_scenario(0)
        enumerated = run_connection(scen)
        probs = {"|".join(b.outcomes): b.probability for b in enumerated}

        state = scen.initial_state()
        order = list(scen.photon_order())
        rng = np.random.default_rng(20250809)
        shots = 100_000
        counts = Counter()
        for _ in range(shots):
            stack = walk_stack(state, order, scen.plan, "sample", rng)
            (tokens,) = _branch_tokens(scen.plan, stack.records)
            counts["|".join(tokens)] += 1
        assert set(counts) <= set(probs)
        for key, p in probs.items():
            se = math.sqrt(p * (1 - p) / shots)
            assert abs(counts[key] / shots - p) <= 3 * se, key

    def test_sampled_walks_build_one_state_per_measurement(self, monkeypatch):
        """Sample mode builds one state per walk, the kept branch's when
        its stack's states are built at the end: 2000 lossless connect
        walks of 6 measurements each construct 2000 states."""
        scen = connect_scenario(0)
        state = scen.initial_state()
        order = list(scen.photon_order())
        built = []
        original = sim._Ensemble._from_rows.__func__

        def counting(cls, vectors, weights):
            built.append(cls)
            return original(cls, vectors, weights)

        monkeypatch.setattr(sim._Ensemble, "_from_rows",
                            classmethod(counting))
        rng = np.random.default_rng(11)
        for _ in range(2000):
            walk_stack(state, order, scen.plan, "sample", rng).states()
        assert len(built) == 2000
        assert set(built) == {PureState}
