"""Repeater-graph-state and connection-protocol tests."""

import itertools
import json
import math
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

import reference as ref
from qparity.errors import ConditionViolation, ConfigError, PreconditionError
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
    encoded_loss_scenario,
    connect_scenario,
    run_connection,
    witness,
)
from qparity import rgs, shor
from qparity.rates import p_logical_alive
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
    draw_branches,
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
        """The builders share the state cap, sim.MAX_QUBITS = 12."""
        with pytest.raises(ValueError):
            build_bare_rgs(1)
        with pytest.raises(ValueError):
            build_bare_rgs(13)
        assert build_bare_rgs(12).num_qubits == 12
        assert build_partial_encoded(9).num_qubits == 12
        with pytest.raises(ValueError, match=r"^m 10 outside 1\.\.9$"):
            build_partial_encoded(10)

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
    def test_shared_witness_operators_are_read_only(self):
        with pytest.raises(TypeError):
            rgs._WITNESS_OPS[0].factors[0] = "Z"

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
    @pytest.mark.parametrize("factory", [connect_scenario,
                                         encoded_loss_scenario,
                                         bare_loss_scenario])
    def test_json_dict_is_asdict(self, factory):
        for loss in (0, 1):
            scen = factory(loss)
            assert scen.to_json_dict() == {**asdict(scen),
                                           "rgs_groups": scen.rgs_groups}

    @pytest.mark.parametrize("factory,groups,sites", [
        (connect_scenario, (("3'",), ("10'",), ("7'",), rgs._C4),
         "Z5,X7 X8 X9"),
        (bare_loss_scenario, (("3'",), ("10'",), ("7'",), ("4'",)), "Z5"),
        (encoded_loss_scenario, (("1'", "2'", "3'"), rgs._C4,
                                 ("7'", "8'", "9'")), "X3 X4 X5,Z1,Z4,Z7")])
    def test_groups_and_sites_come_from_the_rgs(self, factory, groups,
                                                sites):
        """The groups each factory once typed by hand, and the sites
        photonics.encoder_sites(kind, groups, index) gave them."""
        assert factory(1).rgs_groups == groups
        assert ",".join(s.label() for s in factory(0).encoder_sites()) == sites

    @pytest.mark.parametrize("spec,first,sites", [
        (("bare", 2, 1), 0, "Z1"), (("partial", 4, 1), 0, "Z1"),
        (("encoded", 1, 1), 0, "Z0"), (("encoded", 1, 3), 0, "Z1"),
        (("encoded", 3, 1), 0, "Z1,Z0,Z1,Z2"),
        (("encoded", 2, 2), 3, "X5 X6,Z4,Z6")])
    def test_encoder_sites_of_each_kind(self, spec, first, sites):
        got = RgsSpec(*spec).encoder_sites(first)
        assert ",".join(s.label() for s in got) == sites
        with pytest.raises(ConfigError, match="first"):
            RgsSpec(*spec).encoder_sites(-1)

    def test_unique_labels_enforced(self):
        with pytest.raises(ValueError):
            Scenario(name="bad", channels=(("a", "b"),),
                     rgs=RgsSpec("bare", 2, 1), rgs_order=("a", "c"),
                     loss=(),
                     plan=(), terminals=("a", "c"))

    def test_bsm_must_pair_interface_with_rgs(self):
        with pytest.raises(ValueError):
            Scenario(name="bad", channels=(("t", "i"),),
                     rgs=RgsSpec("bare", 2, 1), rgs_order=("r1", "r2"),
                     loss=(),
                     plan=(PlanStep("bsm", ("r1", "r2")),),
                     terminals=("t", "r2"))

    def test_initial_state_is_channels_times_rgs(self):
        scen = connect_scenario(0)
        state = scen.initial_state()
        assert state.num_qubits == 10
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        want = np.kron(np.kron(bell, np.kron(bell,
                       build_partial_encoded(3).amplitudes)), [1])
        np.testing.assert_allclose(state.amplitudes, want, atol=1e-15)
        # channels are listed (left, right) around the RGS in photon order
        order = scen.photon_order()
        assert order == ("1'", "2'", "9'", "8'", "3'", "10'", "7'",
                         "4'", "5'", "6'")

    def test_initial_state_is_cached_and_read_only(self):
        state = connect_scenario(1).initial_state()
        assert connect_scenario(0).initial_state() is state
        assert encoded_loss_scenario(0).initial_state() is not state
        for array in (state.vectors, state.weights):
            with pytest.raises(ValueError):
                array[0] = 0

    @pytest.mark.parametrize("terminals", [("1'", "9'", "10'"),
                                           ("1'", "1'"), ("1'",)])
    def test_two_distinct_terminals_required(self, terminals):
        with pytest.raises(ConfigError, match="two distinct terminals"):
            replace(connect_scenario(0), terminals=terminals,
                    plan=connect_scenario(0).plan[1:])

    @pytest.mark.parametrize("loss", [("1'",), ("9'",), ("1'", "9'")])
    def test_lost_terminal_rejected(self, loss):
        with pytest.raises(ConfigError, match="terminal .* is lost"):
            replace(encoded_loss_scenario(0), loss=loss)

    def test_state_above_the_cap_rejected(self):
        scen = connect_scenario(0)
        block = ("4'", "5'", "6'", "11'", "12'", "13'")
        with pytest.raises(ConfigError, match="13 photons"):
            replace(scen, rgs=RgsSpec("partial", 4, 6),
                    rgs_order=("3'", "10'", "7'") + block)

    def test_unknown_plan_op_is_a_config_error(self):
        with pytest.raises(ConfigError, match="unknown plan op 'teleport'"):
            replace(connect_scenario(0), plan=(PlanStep("teleport", ("3'",)),))

    @pytest.mark.parametrize("step", [{"op": "measure_x", "photons": ("10'",)},
                                      5, None, ("measure_x", ("10'",)),
                                      "measure_x"], ids=repr)
    def test_plan_steps_must_be_plan_steps(self, step):
        """A dict step was turned into a PlanStep; 5, None, a bare tuple
        and a string raised TypeError."""
        with pytest.raises(ConfigError, match="is not a PlanStep"):
            replace(connect_scenario(0), plan=(step,))

    def test_bad_rgs_spec_is_a_config_error(self):
        with pytest.raises(ConfigError):
            RgsSpec("ring", 4, 3)
        with pytest.raises(ConfigError):
            RgsSpec("bare", 4, 2)
        # Sizes the builders refuse, so that no scenario is built on one.
        for size in (("bare", 1, 1), ("bare", 13, 1), ("partial", 4, 10),
                     ("encoded", 4, 4)):
            with pytest.raises(ConfigError, match="its builder takes"):
                RgsSpec(*size)
        # Counts below 1 fail the count rule, before the kind rules.
        for size, match in ((("partial", 4, 0), "^need m >= 1$"),
                            (("encoded", 0, 3), "^need n >= 1$"),
                            (("encoded", 3, 0), "^need m >= 1$")):
            with pytest.raises(ConfigError, match=match):
                RgsSpec(*size)

    @pytest.mark.parametrize("kind,n,m", [("bare", 11, 1),
                                          ("partial", 4, 8)])
    def test_eleven_photon_rgs_connects(self, kind, n, m):
        """A channel-less scenario on an 11-photon RGS was built and then
        failed in run_connection on the builders' old 10-qubit caps.
        Measuring the rest of the GHZ (the encoded block in Z, bare
        photons in X) leaves the two terminals in a Bell pair, which
        every branch corrects to |phi+>."""
        labels = tuple(f"r{i}" for i in range(11))
        if kind == "bare":
            groups = tuple((p,) for p in labels)
            plan = tuple(PlanStep("measure_x", (p,)) for p in labels[2:])
        else:
            groups = tuple((p,) for p in labels[:3]) + (labels[3:],)
            plan = (PlanStep("measure_block_z", labels[3:]),
                    PlanStep("measure_x", ("r2",)))
        scen = Scenario(name="eleven", channels=(), rgs=RgsSpec(kind, n, m),
                        rgs_order=labels, loss=(), plan=plan,
                        terminals=labels[:2])
        assert scen.rgs_groups == groups
        branches = run_connection(scen)
        assert abs(sum(b.probability for b in branches) - 1) < 1e-10
        for b in branches:
            assert abs(b.witness.fidelity - 1) < 1e-10

    def test_partial_rgs_with_fewer_qubits_than_labels_rejected(self):
        """A 5-photon partial RGS behind 6 labels was built and failed
        in run_connection with "order labels 10 qubits"."""
        with pytest.raises(ConfigError, match="labels 6 photons, the "
                                              "partial RGS has 5"):
            replace(connect_scenario(0), rgs=RgsSpec("partial", 4, 2))

    def test_bare_rgs_with_more_qubits_than_labels_rejected(self):
        """9 bare photons behind 6 labels passed the photon cap, which
        counts labels, and failed on a 13-qubit amplitude vector."""
        with pytest.raises(ConfigError, match="labels 6 photons, the "
                                              "bare RGS has 9"):
            replace(connect_scenario(0), rgs=RgsSpec("bare", 9, 1))

    def test_partial_rgs_takes_only_four_logical_qubits(self):
        """The builder ignored n: RgsSpec("partial", 7, 3) ran as the
        n = 4 state."""
        with pytest.raises(ConfigError, match="n = 4"):
            RgsSpec("partial", 7, 3)
        assert [RgsSpec(*a).qubits for a in (("bare", 4, 1),
                                             ("partial", 4, 3),
                                             ("encoded", 3, 2))] == [4, 6, 6]


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

    @pytest.mark.parametrize("factory,count", [
        (connect_scenario, 2.5), (connect_scenario, 1.0),
        (connect_scenario, True), (encoded_loss_scenario, math.nan),
        (encoded_loss_scenario, False), (bare_loss_scenario, 1.0),
        (bare_loss_scenario, True), (encoded_loss_scenario, 1.5)],
        ids=lambda v: getattr(v, "__name__", repr(v)))
    def test_loss_counts_must_be_integers(self, factory, count):
        """2.5 and nan raised NumPy's slice TypeError; True lost a
        photon and 1.0 built the one-loss scenario of bare-control."""
        with pytest.raises(ConfigError, match="loss count must be an "
                                              "integer"):
            factory(count)

    @pytest.mark.parametrize("factory,message", [
        (connect_scenario, "need loss count >= 0"),
        (encoded_loss_scenario, "need loss count >= 0"),
        (bare_loss_scenario, "loss count -1 outside 0..1")])
    def test_negative_loss_counts_keep_their_message(self, factory, message):
        with pytest.raises(ConfigError, match=message):
            factory(-1)

    def test_numpy_integer_loss_counts(self):
        for factory in (connect_scenario, encoded_loss_scenario,
                        bare_loss_scenario):
            assert factory(np.int64(1)) == factory(1)

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
        for call in (connection_corrections, run_connection):
            with pytest.raises(PreconditionError, match="malformed plan"):
                call(bad)

    def test_branch_probability_collapse_pattern(self):
        """Every lossless branch carries probability 1/64."""
        for b in run_connection(connect_scenario(0)):
            assert abs(b.probability - 1 / 64) < 1e-10


def lost_subsets(photons):
    """Every subset of ``photons``, smallest first."""
    return [lost for r in range(len(photons) + 1)
            for lost in itertools.combinations(photons, r)]


def loss_outcome(scenario, lost):
    """"perfect" when every branch reaches fidelity 1, "separable" when
    none exceeds 1/2, else the exception type the run raised."""
    try:
        branches = run_connection(replace(scenario, loss=lost))
    except (ConfigError, PreconditionError) as exc:
        return type(exc)
    fids = [b.witness.fidelity for b in branches]
    if all(abs(f - 1) < 1e-10 for f in fids):
        return "perfect"
    assert all(f <= 0.5 + 1e-12 for f in fids), (lost, fids)
    return "separable"


def block_scenario(m):
    """The connect experiment on a partial RGS whose encoded block has m
    photons."""
    block = ("4'", "5'", "6'", "11'", "12'")[:m]
    scen = connect_scenario(0)
    return replace(scen, rgs=RgsSpec("partial", 4, m),
                   rgs_order=("3'", "10'", "7'") + block,
                   plan=(scen.plan[0], PlanStep("measure_block_z", block))
                   + scen.plan[2:])


class TestEveryLossPattern:
    """Every subset of lost RGS photons: an encoded logical qubit
    survives exactly the losses that leave one of its photons."""

    def test_connect(self):
        scen = connect_scenario(0)
        outcomes = {lost: loss_outcome(scen, lost)
                    for lost in lost_subsets(scen.rgs_order)}
        perfect = {lost for lost, o in outcomes.items() if o == "perfect"}
        assert perfect == set(lost_subsets(("4'", "5'", "6'"))[:-1])
        # Off that set: a Bell measurement on a lost 3' or 7' is refused,
        # and every other run leaves the terminals at most half entangled.
        for lost, outcome in outcomes.items():
            if "3'" in lost or "7'" in lost:
                assert outcome is PreconditionError
            elif lost not in perfect:
                assert outcome == "separable"
        assert Counter(outcomes.values()) == {
            "perfect": 7, PreconditionError: 48, "separable": 9}

    def test_rgs_loss(self):
        scen = encoded_loss_scenario(0)
        outcomes = {lost: loss_outcome(scen, lost)
                    for lost in lost_subsets(scen.rgs_order)}
        perfect = {lost for lost, o in outcomes.items() if o == "perfect"}
        assert perfect == set(lost_subsets(("4'", "5'", "6'"))[:-1])
        # A lost terminal is refused when the scenario is built.
        for lost, outcome in outcomes.items():
            if "1'" in lost or "9'" in lost:
                assert outcome is ConfigError
            elif lost not in perfect:
                assert outcome == "separable"
        assert Counter(outcomes.values()) == {
            "perfect": 7, ConfigError: 384, "separable": 121}

    @pytest.mark.parametrize("m", range(1, 6))
    def test_loss_weighted_success_is_the_rate_model(self, m):
        """Weighting each loss pattern by eta^kept (1-eta)^lost, the
        patterns that connect perfectly sum to eta^3 p_logical_alive:
        the three bare photons arrive and the block keeps one."""
        scen = block_scenario(m)
        perfect = [lost for lost in lost_subsets(scen.rgs_order)
                   if loss_outcome(scen, lost) == "perfect"]
        block = scen.rgs_groups[-1]
        assert set(perfect) == set(lost_subsets(block)[:-1])
        for eta in (0.1, 0.5, 0.83, 0.99):
            total = sum(eta ** (3 + m - len(lost)) * (1 - eta) ** len(lost)
                        for lost in perfect)
            assert abs(total - eta ** 3 * p_logical_alive(eta, m)) < 1e-12


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

    def test_known_scenario_builds_no_lossless_copy(self, monkeypatch):
        scen = connect_scenario(1)
        twin = replace(scen, name=scen.name)
        table = connection_corrections(scen)
        built = []
        monkeypatch.setattr(Scenario, "_validate", lambda s: built.append(s))
        assert connection_corrections(scen) is table
        assert connection_corrections(twin) is table
        assert built == []

    def test_one_derivation_per_lossless_scenario(self):
        before = rgs._lossless_table.cache_info().misses
        tables = [connection_corrections(
            replace(connect_scenario(loss), name="one-derivation"))
            for loss in (1, 2, 0, 1)]
        assert rgs._lossless_table.cache_info().misses == before + 1
        assert all(t is tables[0] for t in tables)

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
        res = run_connection(encoded_loss_scenario(loss))
        assert abs(sum(b.probability for b in res) - 1) < 1e-10
        for b in res:
            assert abs(b.witness.fidelity - 1) < 1e-10
            assert abs(b.witness.witness + 0.5) < 1e-10

    def test_three_losses_raise(self):
        with pytest.raises(ConditionViolation) as err:
            run_connection(encoded_loss_scenario(3))
        assert "condition (ii)" in str(err.value)

    def test_branch_count(self):
        assert len(run_connection(encoded_loss_scenario(0))) == 32


class TestSampleFrequencies:
    def test_sampled_keys_match_enumerated_probabilities(self):
        """10^5 protocol walks, drawn as one batch over the enumerated
        tree, land on each branch at the enumerated rate within 3
        sigma."""
        scen = connect_scenario(0)
        enumerated = run_connection(scen)
        probs = {"|".join(b.outcomes): b.probability for b in enumerated}

        state = scen.initial_state()
        order = list(scen.photon_order())
        rng = np.random.default_rng(20250809)
        shots = 100_000
        stack = walk_stack(state, order, scen.plan)
        keys = ["|".join(t) for t in _branch_tokens(scen.plan, stack.records)]
        counts = Counter(keys[end]
                         for end in draw_branches(stack, rng, shots).tolist())
        assert set(counts) <= set(probs)
        for key, p in probs.items():
            se = math.sqrt(p * (1 - p) / shots)
            assert abs(counts[key] / shots - p) <= 3 * se, key

    @pytest.mark.parametrize("case", ["connect-1", "connect-2",
                                      "readout-lose-3,5"])
    def test_lossy_draws_land_at_the_enumerated_rates(self, case):
        """10^5 lossy walks drawn over the stack of the run's own
        protocol land on each branch of the public function's list at
        its probability, within a bound that a correct sampler exceeds
        on some branch for at most one seed in 1000 (Bonferroni)."""
        if case.startswith("connect"):
            scen = connect_scenario(int(case[-1]))
            results = run_connection(scen)
            stack, _ = scen.protocol().walk(
                scen.initial_state(), scen.photon_order(), scen.loss)
        else:
            word = encode_shor(LogicalInput.from_angles(1.0, 0.5))
            results = decode_readout(word, losses=(3, 5))
            stack, _ = shor._READOUT.walk(word, range(9), (3, 5))
        shots = 100_000
        counts = Counter(draw_branches(stack, np.random.default_rng(5),
                                       shots).tolist())
        assert set(counts) <= set(range(len(results)))
        z = NormalDist().inv_cdf(1 - 1e-3 / (2 * len(results)))
        for i, res in enumerate(results):
            p = res.probability
            se = math.sqrt(p * (1 - p) / shots)
            assert abs(counts[i] / shots - p) <= z * se, i
