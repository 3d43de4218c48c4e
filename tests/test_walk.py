"""The stacked plan walker against the per-branch walker it replaced
(``reference.walk_plan_per_branch``): records, branch order, keys,
probabilities and states, enumerated and drawn; the correction
search over the stack against dense per-branch fidelities; and the one
correction step, ``PlanStack.corrected``, against dense products."""

import inspect
import itertools
import re

import numpy as np
import pytest

import reference as ref
from qparity import photonics, shor
from qparity.errors import ConfigError, PreconditionError
from qparity.rgs import (
    _PAULI_PAIRS,
    PHI_PLUS_2Q,
    _branch_tokens,
    _pair_operator,
    bare_loss_scenario,
    connect_scenario,
    connection_corrections,
    encoded_loss_scenario,
    run_connection,
)
from qparity.shor import (
    _READOUT_PLAN,
    LogicalInput,
    _readout_key,
    decode_readout,
    encode_shor,
    readout_correction_table,
)
from qparity.sim import (
    DensityMatrix,
    PlanStep,
    PureState,
    _eigen_rows,
    correction_table,
    draw_branches,
    make_basis_state,
    partial_trace,
    walk_stack,
)

ATOL = 1e-12

SCENARIOS = [(factory, loss) for factory, losses in (
    (connect_scenario, (0, 1, 2)), (bare_loss_scenario, (0, 1)),
    (encoded_loss_scenario, (0, 1, 2))) for loss in losses]
SCENARIO_IDS = [f"{factory(loss).name}-{loss}" for factory, loss in SCENARIOS]
VISIBILITIES = [None, 0.0, 0.741, 1.0]


def walk_input(scenario, visibility):
    """The noisy initial state, and the state and labels the plan walks:
    encoder noise at ``visibility``, then the losses traced out, as the
    cli and :func:`run_connection` build them."""
    state = scenario.initial_state()
    order = list(scenario.photon_order())
    if visibility is not None:
        state = photonics.apply_visibility_noise(
            state, scenario.encoder_sites(), visibility)
    initial = state
    if scenario.loss:
        state = partial_trace(state, sorted(order.index(p)
                                            for p in scenario.loss))
        order = [p for p in order if p not in scenario.loss]
    return initial, state, order


def assert_records_match(got, want):
    assert len(got) == len(want)
    for got_step, want_step in zip(got, want):
        assert [(r.qubit, r.basis, r.outcome) for r in got_step] == \
            [(r.qubit, r.basis, r.outcome) for r in want_step]
        for g, w in zip(got_step, want_step):
            assert abs(g.probability - w.probability) < ATOL


def matrix(state):
    return ref.ensemble_matrix(state.vectors, state.weights)


def pair_operator(pair, order, terminals):
    """The dense two-qubit operator of a terminal Pauli pair."""
    factors = {order.index(t): ref.PAULI[p] for t, p in zip(terminals, pair)}
    return ref.site_operator(factors, 2)


# The readout corrections by name, applied after the leader's Hadamard.
READOUT_FIXES = {"I": ref.I2, "Z": ref.Z, "X": ref.X, "ZX": ref.Z @ ref.X}


class TestEnumeratedWalks:
    @pytest.mark.parametrize("visibility", VISIBILITIES,
                             ids=lambda v: f"V={v}")
    @pytest.mark.parametrize("factory,loss", SCENARIOS, ids=SCENARIO_IDS)
    def test_connection_matches_per_branch_walker(self, factory, loss,
                                                  visibility):
        scen = factory(loss)
        initial, state, order = walk_input(scen, visibility)
        want = ref.walk_plan_per_branch(state.vectors, state.weights, order,
                                        scen.plan)
        want_tokens = _branch_tokens(scen.plan, [recs for recs, *_ in want])
        got = walk_stack(state, order, scen.plan)
        assert len(got.vectors) == len(got.probabilities) == len(want)
        assert _branch_tokens(scen.plan, got.records) == want_tokens
        for records, probability, branch_state, (recs, prob, vecs, weights,
                                                 left) in zip(
                got.records, got.probabilities, got.states(), want):
            assert got.order == left
            assert_records_match(records, recs)
            assert abs(probability - prob) < ATOL
            np.testing.assert_allclose(matrix(branch_state),
                                       ref.ensemble_matrix(vecs, weights),
                                       atol=ATOL)

        # The connection tail: corrections and witnesses per branch.
        table = connection_corrections(scen)
        results = run_connection(scen, initial_state=initial)
        assert len(results) == len(want)
        for res, tokens, (recs, prob, vecs, weights, left) in zip(
                results, want_tokens, want):
            assert res.outcomes == tokens
            assert res.correction == table["|".join(tokens)]
            assert abs(res.probability - prob) < ATOL
            fix = pair_operator(res.correction, left, scen.terminals)
            rho = fix @ ref.ensemble_matrix(vecs, weights) @ fix.conj().T
            np.testing.assert_allclose(matrix(res.terminal), rho, atol=ATOL)
            for name, letter in (("xx", "X"), ("yy", "Y"), ("zz", "Z")):
                value = np.trace(ref.pauli_matrix({0: letter, 1: letter}, 2)
                                 @ rho).real
                assert abs(getattr(res.witness, name) - value) < ATOL
            assert abs(res.witness.fidelity - (1 + res.witness.xx
                                               - res.witness.yy
                                               + res.witness.zz) / 4) < ATOL

    LOSS_CLASSES = [lost for k in range(3)
                    for lost in itertools.combinations(range(1, 9), k)]

    @pytest.mark.parametrize("visibility", [None, 0.8],
                             ids=lambda v: f"V={v}")
    def test_readout_matches_per_branch_walker(self, visibility):
        """Every loss of at most two photons (never the output qubit 0)."""
        inp = LogicalInput.from_angles(1.0471975511965976, 0.5)
        word = (encode_shor(inp) if visibility is None
                else photonics.encode_shor_noisy(inp, visibility))
        table = readout_correction_table()
        for lost in self.LOSS_CLASSES:
            work = partial_trace(word, lost) if lost else word
            alive = [q for q in range(9) if q not in lost]
            want = ref.walk_plan_per_branch(work.vectors, work.weights,
                                            alive, _READOUT_PLAN)
            got = decode_readout(word, losses=lost)
            assert len(got) == len(want), lost
            for res, (recs, prob, vecs, weights, left) in zip(got, want):
                assert left == (0,)
                assert_records_match([res.transcript],
                                     [[r for step in recs for r in step]])
                assert res.correction == table[_readout_key(recs)]
                assert abs(res.probability - prob) < ATOL
                fix = READOUT_FIXES[res.correction] @ ref.H
                rho = fix @ ref.ensemble_matrix(vecs, weights) @ fix.conj().T
                np.testing.assert_allclose(res.output.matrix, rho,
                                           atol=ATOL)


def scenario_case(factory, loss, visibility=None):
    def case():
        scen = factory(loss)
        return (scen.plan, *walk_input(scen, visibility)[1:])
    return case


def readout_case():
    """The code word read out with photons 3 and 5 lost."""
    word = encode_shor(LogicalInput.from_angles(1.0471975511965976, 0.5))
    alive = [q for q in range(9) if q not in (3, 5)]
    return _READOUT_PLAN, partial_trace(word, [3, 5]), alive


# Per case, a function giving the plan and the state and labels it
# walks: every shipped scenario at each legal loss count, one noisy
# scenario and a lossy readout.
SAMPLED_CASES = {
    **{f"{factory(loss).name}-{loss}": scenario_case(factory, loss)
       for factory, loss in SCENARIOS},
    "bare-control-1-V=0.741": scenario_case(bare_loss_scenario, 1, 0.741),
    "readout-lose-3,5": readout_case,
}


class TestSampledWalks:
    @pytest.mark.parametrize("case", SAMPLED_CASES)
    def test_seeded_walks_draw_the_per_branch_keys(self, case):
        """3000 walks drawn as one batch over the enumerated tree keep
        the per-branch walker's branch (records and probabilities) at
        every draw, walked one at a time, and leave the generator where
        it leaves it."""
        plan, state, order = SAMPLED_CASES[case]()
        rng, ref_rng = np.random.default_rng(99), np.random.default_rng(99)
        stack = walk_stack(state, order, plan)
        for end in draw_branches(stack, rng, 3000).tolist():
            ((recs, prob, *_),) = ref.walk_plan_per_branch(
                state.vectors, state.weights, order, plan, "sample",
                ref_rng)
            assert_records_match(stack.records[end], recs)
            assert abs(stack.probabilities[end] - prob) < ATOL
        assert rng.random() == ref_rng.random()

    def test_walkers_take_no_mode_or_rng(self):
        """Walkers only enumerate; draw_branches is the one sampler."""
        for walker in (walk_stack, run_connection, decode_readout):
            params = inspect.signature(walker).parameters
            assert not {"mode", "rng"} & set(params), walker.__name__

    @pytest.mark.parametrize("shots", [0, -1, 2.5])
    def test_shots_must_be_a_positive_integer(self, shots):
        plan, state, order = SAMPLED_CASES["connect-1"]()
        stack = walk_stack(state, order, plan)
        with pytest.raises(ValueError, match="shots"):
            draw_branches(stack, np.random.default_rng(0), shots)

    @pytest.mark.parametrize("shots", [10 ** 18, 10 ** 30, np.int64(2 ** 62)])
    def test_shots_numpy_cannot_size_are_refused(self, shots):
        """10**18 walks of 5 draws, 8 bytes each, exceed NumPy's limit;
        the size of a NumPy integer count does not overflow."""
        plan, state, order = SAMPLED_CASES["connect-1"]()
        stack = walk_stack(state, order, plan)
        assert len(stack.tree) == 5
        with pytest.raises(ConfigError, match="NumPy's array size"):
            draw_branches(stack, np.random.default_rng(0), shots)

    def test_numpy_integer_shots_draw_the_same_branches(self):
        plan, state, order = SAMPLED_CASES["readout-lose-3,5"]()
        stack = walk_stack(state, order, plan)
        ends = draw_branches(stack, np.random.default_rng(7), 50)
        np.testing.assert_array_equal(
            draw_branches(stack, np.random.default_rng(7), np.int64(50)),
            ends)


class TestStack:
    def test_order_must_label_every_qubit(self):
        scen = connect_scenario(0)
        order = scen.photon_order()
        with pytest.raises(ValueError, match="labels 9 qubits"):
            walk_stack(scen.initial_state(), order[:-1], scen.plan)

    def test_order_labels_must_be_distinct(self):
        scen = connect_scenario(0)
        order = scen.photon_order()
        with pytest.raises(ValueError, match="repeats a label"):
            walk_stack(scen.initial_state(), order[:-1] + order[:1],
                       scen.plan)

    def test_lower_rank_members_are_padded_with_zero_weight(self):
        """One stacked eigh keeps each member's nonzero eigenpairs; the
        lower-rank member's padding row has weight zero and is dropped
        when its state is built."""
        rng = np.random.default_rng(5)
        vecs = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        mats = np.array([0.7 * np.outer(vecs[0], vecs[0].conj())
                         + 0.3 * np.outer(vecs[1], vecs[1].conj()),
                         np.outer(vecs[2], vecs[2].conj())])
        rows, weights = _eigen_rows(mats)
        assert rows.shape == (2, 2, 4)
        assert np.count_nonzero(weights[0]) == 2
        assert np.count_nonzero(weights[1]) == 1
        for b in range(2):
            np.testing.assert_allclose(ref.ensemble_matrix(rows[b],
                                                           weights[b]),
                                       mats[b], atol=ATOL)

    def test_stack_builds_states_without_padding(self):
        """Measuring a and c of the mixture of |000>, |010> and |100>
        on (a, b, c) leaves b in a rank-2 branch (a = 0) and a rank-1
        branch (a = 1); the three rows outgrow b's two amplitudes, so the
        stack is compressed and the rank-1 branch padded."""
        basis = np.eye(8)
        rho = DensityMatrix(sum(np.outer(basis[i], basis[i])
                                for i in (0b000, 0b010, 0b100)) / 3)
        plan = [PlanStep("measure_block_z", ("a", "c"))]
        stack = walk_stack(rho, "abc", plan)
        assert stack.order == ("b",) and stack.vectors.shape == (2, 2, 2)
        assert np.count_nonzero(stack.weights) == 3
        want = ref.walk_plan_per_branch(rho.vectors, rho.weights, "abc",
                                        plan)
        for state, prob, (_, ref_prob, vecs, weights, _) in zip(
                stack.states(), stack.probabilities, want):
            assert np.all(state.weights != 0)
            assert len(state.weights) == len(weights)
            assert abs(prob - ref_prob) < ATOL
            np.testing.assert_allclose(matrix(state),
                                       ref.ensemble_matrix(vecs, weights),
                                       atol=ATOL)


class TestCorrectionSearch:
    """:func:`qparity.sim.correction_table` on the stacked lossless
    branches of ``connect``, with the terminal pair operators that
    :func:`run_connection` applies."""

    @staticmethod
    def lossless_connect():
        """The scenario, its lossless stack, the branch keys and every
        Pauli pair's operator on the qubits the walk leaves."""
        scen = connect_scenario(0)
        stack = walk_stack(scen.initial_state(), scen.photon_order(),
                           scen.plan)
        keys = ["|".join(tokens)
                for tokens in _branch_tokens(scen.plan, stack.records)]
        swapped = stack.order != scen.terminals
        ops = {pair: _pair_operator(pair, swapped) for pair in _PAULI_PAIRS}
        return scen, stack, keys, ops

    # II, XX, YY and ZZ all fix |phi+>: with them first, a branch is
    # restored by several candidates before every branch is.
    CANDIDATES = [_PAULI_PAIRS,
                  sorted(_PAULI_PAIRS, key=lambda pair: pair[0] != pair[1])]

    @pytest.mark.parametrize("names", CANDIDATES, ids=["IXYZ", "equal-first"])
    def test_each_branch_takes_the_first_restoring_pair(self, names):
        scen, stack, keys, ops = self.lossless_connect()
        table = correction_table(stack, keys,
                                 {pair: ops[pair] for pair in names},
                                 PHI_PLUS_2Q)
        phi = PHI_PLUS_2Q.amplitudes
        for key, state in zip(keys, stack.states()):
            rho = matrix(state)
            fids = []
            for pair in names:
                op = pair_operator(pair, stack.order, scen.terminals)
                fids.append((phi.conj() @ op @ rho @ op.conj().T @ phi).real)
            first = next(i for i, f in enumerate(fids) if f > 1 - ATOL)
            assert table[key] == names[first]

    def test_no_candidate_restores_a_branch(self):
        """|00> is no Pauli pair away from any branch (fidelity at most
        1/2), so the first branch raises."""
        _, stack, keys, ops = self.lossless_connect()
        product = PureState(np.array([1, 0, 0, 0]))
        with pytest.raises(RuntimeError, match=re.escape(
                f"no correction restores branch {keys[0]!r}")):
            correction_table(stack, keys, ops, product)

    def test_too_few_candidates_leave_a_branch_open(self):
        _, stack, keys, ops = self.lossless_connect()
        table = correction_table(stack, keys, ops, PHI_PLUS_2Q)
        open_key = next(k for k in keys if table[k] != ("I", "I"))
        with pytest.raises(RuntimeError, match=re.escape(
                f"no correction restores branch {open_key!r}")):
            correction_table(stack, keys, {("I", "I"): ops["I", "I"]},
                             PHI_PLUS_2Q)

    def test_keys_merging_different_corrections_are_inconsistent(self):
        """Without the last BSM outcome in the key, branches needing
        different corrections share one key; the first branch that
        disagrees with an earlier one of its key raises."""
        _, stack, keys, ops = self.lossless_connect()
        table = correction_table(stack, keys, ops, PHI_PLUS_2Q)
        merged = [key.rsplit("|", 1)[0] for key in keys]
        seen = {}
        clash = next(m for key, m in zip(keys, merged)
                     if seen.setdefault(m, table[key]) != table[key])
        with pytest.raises(RuntimeError, match=re.escape(
                f"correction table is inconsistent at {clash!r}")):
            correction_table(stack, merged, ops, PHI_PLUS_2Q)

    def test_target_must_match_the_branch_qubits(self):
        _, stack, keys, ops = self.lossless_connect()
        with pytest.raises(ValueError, match="qubit count mismatch"):
            correction_table(stack, keys, ops, PureState(np.array([1, 0])))

    @pytest.mark.parametrize("swapped", [False, True])
    def test_pair_operators_are_read_only_reference_products(self, swapped):
        """Each cached pair operator is the reference Kronecker product
        with the left terminal's Pauli on its qubit of the walk's order."""
        terminals = ("1'", "9'")
        order = terminals[::-1] if swapped else terminals
        for pair in _PAULI_PAIRS:
            op = _pair_operator(pair, swapped)
            np.testing.assert_array_equal(
                op, pair_operator(pair, order, terminals))
            assert op is _pair_operator(pair, swapped)
            with pytest.raises(ValueError):
                op[0, 0] = 0


class TestCorrected:
    """:meth:`PlanStack.corrected` against each branch's dense product."""

    @staticmethod
    def noisy_stack():
        """The branches of a noisy lossy connect walk, two rows each."""
        _, state, order = walk_input(connect_scenario(1), 0.741)
        return walk_stack(state, order, connect_scenario(1).plan)

    def test_each_branch_takes_its_own_operator(self):
        stack = self.noisy_stack()
        rng = np.random.default_rng(17)
        ops = (rng.normal(size=(len(stack.vectors), 4, 4))
               + 1j * rng.normal(size=(len(stack.vectors), 4, 4)))
        fixed = stack.corrected(ops)
        assert fixed.order == stack.order and fixed.kind is stack.kind
        assert fixed.probabilities == stack.probabilities
        np.testing.assert_array_equal(fixed.weights, stack.weights)
        for got, rows, weights, op in zip(fixed.vectors, stack.vectors,
                                          stack.weights, ops):
            np.testing.assert_allclose(
                ref.ensemble_matrix(got, weights),
                op @ ref.ensemble_matrix(rows, weights) @ op.conj().T,
                atol=ATOL)

    def test_one_operator_acts_on_every_branch(self):
        stack = self.noisy_stack()
        op = np.kron(ref.H, ref.Y)
        shared = stack.corrected(op).vectors
        np.testing.assert_allclose(
            shared, stack.corrected(np.array([op] * len(stack.vectors)))
            .vectors, atol=ATOL)
        for got, rows in zip(shared, stack.vectors):
            np.testing.assert_allclose(got, (op @ rows.T).T, atol=ATOL)


# Every --lose pattern the cli reads out: any photons but the output
# qubit 0, as long as each block keeps one.
READOUT_LOSSES = [lost for k in range(9)
                  for lost in itertools.combinations(range(1, 9), k)
                  if not any({3 * b, 3 * b + 1, 3 * b + 2} <= set(lost)
                             for b in range(3))]


class TestProtocol:
    """``sim.Protocol``, the one loss-protocol runner: the stack its walk
    returns is the public functions' list, branch for branch, so
    :func:`draw_branches` over it samples their results."""

    @pytest.mark.parametrize("factory,loss", SCENARIOS, ids=SCENARIO_IDS)
    def test_connection_stack_is_the_run(self, factory, loss):
        scen = factory(loss)
        stack, keys = scen.protocol().walk(scen.initial_state(),
                                           scen.photon_order(), scen.loss)
        results = run_connection(scen)
        assert stack.probabilities == [r.probability for r in results]
        assert keys == ["|".join(r.outcomes) for r in results]
        assert stack.order == tuple(p for p in scen.photon_order()
                                    if p in scen.terminals)

    def test_readout_stack_is_the_readout(self):
        word = encode_shor(LogicalInput.from_angles(1.0471975511965976, 0.5))
        table = readout_correction_table()
        for lost in READOUT_LOSSES:
            stack, keys = shor._READOUT.walk(word, range(9), lost)
            results = decode_readout(word, losses=lost)
            assert stack.probabilities == [r.probability
                                           for r in results], lost
            assert [table[k] for k in keys] == [r.correction
                                                for r in results], lost

    def test_readout_losses_are_every_pattern_the_readout_takes(self):
        word = encode_shor(LogicalInput(1, 0))
        assert len(READOUT_LOSSES) == 4 * 7 * 7
        for k in range(10):
            for lost in itertools.combinations(range(9), k):
                if lost not in READOUT_LOSSES:
                    with pytest.raises(PreconditionError):
                        decode_readout(word, losses=lost)

    def test_full_and_survivor_states_walk_alike(self):
        scen = connect_scenario(1)
        full = scen.initial_state()
        order = scen.photon_order()
        reduced = partial_trace(full, [order.index(p) for p in scen.loss])
        protocol = scen.protocol()
        want, want_keys = protocol.walk(full, order, scen.loss)
        got, got_keys = protocol.walk(reduced, order, scen.loss)
        assert got_keys == want_keys
        np.testing.assert_array_equal(got.vectors, want.vectors)
        assert got.probabilities == want.probabilities
        for a, b in zip(run_connection(scen, initial_state=reduced),
                        run_connection(scen)):
            assert a.outcomes == b.outcomes and a.correction == b.correction
            assert a.witness == b.witness

    def test_other_state_sizes_are_config_errors(self):
        """connect with two losses walks 10 photons or 8 survivors; a
        9-qubit code word is neither."""
        scen = connect_scenario(2)
        word = encode_shor(LogicalInput(1, 0))
        for call in (lambda: scen.protocol().walk(word, scen.photon_order(),
                                                  scen.loss),
                     lambda: run_connection(scen, initial_state=word)):
            with pytest.raises(ConfigError, match="state has 9 qubits; "
                                                  "expected 10 or 8"):
                call()

    @pytest.mark.parametrize("call,message", [
        (lambda: decode_readout(make_basis_state(8)),
         "state has 8 qubits; expected 9"),
        (lambda: run_connection(connect_scenario(0),
                                initial_state=make_basis_state(3)),
         "state has 3 qubits; expected 10")], ids=["readout", "connect"])
    def test_lossless_size_refusal_names_one_count(self, call, message):
        """With nothing lost, the survivors are every photon: the refusal
        said "expected 9 or 9"."""
        with pytest.raises(ConfigError, match=re.escape(message) + "$"):
            call()

    @pytest.mark.parametrize("walker,loss,expected", [
        (connect_scenario, 0, "10"), (connect_scenario, 1, "10 or 9"),
        (connect_scenario, 2, "10 or 8"), (encoded_loss_scenario, 0, "9"),
        (encoded_loss_scenario, 1, "9 or 8"),
        (encoded_loss_scenario, 2, "9 or 7"), (bare_loss_scenario, 0, "8"),
        (bare_loss_scenario, 1, "8 or 7"), (decode_readout, (), "9"),
        (decode_readout, (4,), "9 or 8"), (decode_readout, (4, 6), "9 or 7")],
        ids=lambda v: getattr(v, "__name__", repr(v)))
    def test_size_refusal_names_every_photon_and_the_survivors(
            self, walker, loss, expected):
        """Every walker refuses a 3-qubit state with its photon count,
        and its survivor count only when a photon is lost."""
        state = make_basis_state(3)
        with pytest.raises(ConfigError, match=re.escape(
                f"state has 3 qubits; expected {expected}") + "$"):
            if walker is decode_readout:
                decode_readout(state, losses=loss)
            else:
                run_connection(walker(loss), initial_state=state)

    def test_lost_labels_must_be_in_the_order(self):
        scen = connect_scenario(0)
        with pytest.raises(ConfigError, match="not in order"):
            scen.protocol().walk(scen.initial_state(), scen.photon_order(),
                                 ("11'",))

    def test_a_key_missing_from_the_table_is_a_precondition_error(self):
        scen = connect_scenario(1)
        with pytest.raises(PreconditionError,
                           match="no correction entry for outcome"):
            scen.protocol().run(scen.initial_state(), scen.photon_order(),
                                scen.loss, {})

    def test_keep_is_checked_in_walk_order(self):
        scen = connect_scenario(0)
        swapped = scen.protocol()._replace(keep=scen.terminals[::-1])
        with pytest.raises(PreconditionError, match="malformed plan"):
            swapped.walk(scen.initial_state(), scen.photon_order())
