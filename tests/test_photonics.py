"""Post-selected gates, source statistics, visibility noise."""

import copy
import math
import tracemalloc

import numpy as np
import pytest

import reference as ref
from qparity import rates
from qparity.errors import ConfigError
from qparity.photonics import (
    MAX_SAMPLED_SOURCES,
    PULSE_BLOCK,
    SourceParams,
    apply_visibility_noise,
    chained_postselect_factor,
    coincidence_rate,
    encode_shor_noisy,
    encoder_sites,
    monte_carlo_coincidence,
    noisy_block_fidelity,
    postselected_cnot,
    shor_encoder_sites,
    snr_hv,
)
from qparity.shor import LogicalInput, encode_shor
from qparity.sim import (
    CNOT,
    H,
    DensityMatrix,
    PauliString,
    PureState,
    apply_unitary,
    fidelity,
    make_basis_state,
)

S2 = 1 / math.sqrt(2)
D_INPUT = LogicalInput(S2, S2)


def chunk_edge_cases(rows):
    """One pulse short of a chunk of ``rows(sources)`` pulses, one chunk,
    one over, three chunks plus a remainder, and a second PULSE_BLOCK
    block of one chunk and one pulse."""
    cases = []
    for sources in (1, 3):
        k = rows(sources)
        cases += [(sources, pulses) for pulses in
                  (k - 1, k, k + 1, 3 * k + 7, PULSE_BLOCK + k + 1)]
    return cases


# Those of the widest samplers' 8192-pulse chunks, then each source
# count's own.
_WIDE = chunk_edge_cases(lambda sources: rates._chunk_rows((9, 3, 9, 3)))
CHUNK_EDGE_CASES = _WIDE + [
    case for case in chunk_edge_cases(
        lambda sources: rates._chunk_rows((sources, sources, 1)))
    if case not in _WIDE]


class TestPostselectedCnot:
    def test_plus_zero_becomes_bell(self):
        s = apply_unitary(make_basis_state(2), H, [0])
        out, p = postselected_cnot(s, 0, 1)
        assert p == 0.5
        np.testing.assert_allclose(out.amplitudes, [S2, 0, 0, S2],
                                   atol=1e-12)

    def test_zero_zero_unchanged(self):
        out, p = postselected_cnot(make_basis_state(2), 0, 1)
        assert p == 0.5
        np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0], atol=1e-12)

    @pytest.mark.parametrize("basis", range(4))
    def test_computational_inputs_match_ideal(self, basis):
        amps = np.zeros(4)
        amps[basis] = 1.0
        state = PureState(amps)
        out, _ = postselected_cnot(state, 0, 1)
        want = apply_unitary(state, CNOT, [0, 1])
        np.testing.assert_allclose(out.amplitudes, want.amplitudes,
                                   atol=1e-12)

    def test_random_superpositions_match_ideal(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            state = PureState(v / np.linalg.norm(v))
            out, _ = postselected_cnot(state, 2, 0)
            want = apply_unitary(state, CNOT, [2, 0])
            np.testing.assert_allclose(out.amplitudes, want.amplitudes,
                                       atol=1e-10)

    def test_takes_no_mode_or_rng(self):
        for kw in ({"mode": "sample"}, {"rng": np.random.default_rng(0)}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                postselected_cnot(make_basis_state(2), 0, 1, **kw)

    def test_chained_factor(self):
        assert chained_postselect_factor(4) == 0.0625
        got = 1.0
        for _ in range(4):
            _, p = postselected_cnot(make_basis_state(2), 0, 1)
            got *= p
        assert got == chained_postselect_factor(4)

    def test_chained_factor_counts_whole_stages(self):
        assert chained_postselect_factor(0) == 1.0
        assert chained_postselect_factor(np.int64(3)) == 0.125

    @pytest.mark.parametrize("n_stages", [2.5, 2.0, -1])
    def test_chained_factor_rejects_a_bad_stage_count(self, n_stages):
        with pytest.raises(ValueError, match="n_stages"):
            chained_postselect_factor(n_stages)


class TestCoincidenceRate:
    def test_perfect_sources_give_rep_rate(self):
        params = SourceParams(1.0, 1.0, 80e6)
        assert coincidence_rate(params, 5, 1.0) == 80e6

    def test_zero_pair_probability(self):
        assert coincidence_rate(SourceParams(0.0, 0.9), 5, 0.5) == 0.0

    def test_reference_configuration_value(self):
        params = SourceParams(0.06, 0.38, 80e6)
        want = 80e6 * (0.06 * 0.38) ** 5 / 16
        assert abs(coincidence_rate(params, 5, chained_postselect_factor(4))
                   - want) < 1e-12

    def test_monte_carlo_agrees_where_statistics_exist(self):
        params = SourceParams(0.5, 0.8, 1e6)
        closed = coincidence_rate(params, 2, 0.5)
        est, se = monte_carlo_coincidence(params, 2, 0.5, 10 ** 6, seed=21)
        assert se > 0
        assert abs(est - closed) <= 3 * se

    def test_monte_carlo_reference_configuration(self):
        """The experiment-scale rate is far below one event per 10^7
        pulses; the Monte Carlo must agree within its (tiny) error bar."""
        params = SourceParams(0.06, 0.38, 80e6)
        closed = coincidence_rate(params, 5, 1 / 16)
        est, se = monte_carlo_coincidence(params, 5, 1 / 16, 10 ** 6,
                                          seed=22)
        per_pulse_se = max(se, params.rep_rate *
                           math.sqrt((closed / params.rep_rate) / 10 ** 6))
        assert abs(est - closed) <= 3 * per_pulse_se

    def test_seeded_determinism(self):
        params = SourceParams(0.3, 0.5, 1e6)
        a = monte_carlo_coincidence(params, 2, 0.5, 10 ** 5, seed=5)
        b = monte_carlo_coincidence(params, 2, 0.5, 10 ** 5, seed=5)
        assert a == b

    @pytest.mark.parametrize("sources", range(1, 7))
    def test_monte_carlo_matches_anyall_oracle(self, sources):
        """The slice fold gives the estimate of the .all(axis=1) sampler in
        tests/reference.py, also across the 10^6-pulse chunk boundary."""
        params = SourceParams(0.8, 0.9, 1e6)
        for pulses, seed in ((7, 1), (99_999, 2), (1_000_003, 3)):
            got = monte_carlo_coincidence(params, sources, 0.5, pulses, seed)
            want = ref.monte_carlo_coincidence_anyall(
                0.8, 0.9, 1e6, sources, 0.5, pulses, seed)
            assert got == want

    @pytest.mark.parametrize("sources,pulses", CHUNK_EDGE_CASES)
    def test_monte_carlo_chunk_edges_match_oracle(self, sources, pulses):
        """Chunks inside each PULSE_BLOCK block read the oracle's
        whole-block draws, also past the block edge."""
        params = SourceParams(0.8, 0.9, 1e6)
        seed = pulses + sources
        got = monte_carlo_coincidence(params, sources, 0.5, pulses, seed)
        want = ref.monte_carlo_coincidence_anyall(
            0.8, 0.9, 1e6, sources, 0.5, pulses, seed)
        assert got == want

    def test_monte_carlo_generator_seed(self):
        """A PCG64 Generator ends where the oracle's draws leave it; an
        MT19937 one cannot be positioned and is refused."""
        params = SourceParams(0.8, 0.9, 1e6)
        rng = np.random.default_rng(23)
        twin = copy.deepcopy(rng)
        pulses = PULSE_BLOCK + 3
        assert (monte_carlo_coincidence(params, 2, 0.5, pulses, rng)
                == ref.monte_carlo_coincidence_anyall(0.8, 0.9, 1e6, 2, 0.5,
                                                      pulses, twin))
        assert rng.bit_generator.state == twin.bit_generator.state
        with pytest.raises(ValueError, match="PCG64"):
            monte_carlo_coincidence(params, 2, 0.5, 10, np.random.Generator(
                np.random.MT19937(1)))

    @pytest.mark.parametrize("sources,factor", [(0, 0.5), (2, 1.5),
                                                (2, -0.1)])
    def test_monte_carlo_validation(self, sources, factor):
        with pytest.raises(ValueError):
            monte_carlo_coincidence(SourceParams(0.5, 0.5), sources, factor,
                                    10, seed=0)

    def test_64_sources_take_under_a_mebibyte(self, monkeypatch):
        """A thread's chunk buffers stay within rates.CHUNK_BYTES at the
        source cap: one thread's NumPy memory peaks under 1 MiB."""
        monkeypatch.setattr(rates, "WORKERS", 1)
        params = SourceParams(0.97, 0.97, 1e6)
        # Warm-up: what the first call builds and keeps is not a buffer.
        monte_carlo_coincidence(params, MAX_SAMPLED_SOURCES, 0.5, 10, 1)
        tracemalloc.start()
        try:
            monte_carlo_coincidence(params, MAX_SAMPLED_SOURCES, 0.5, 20_000,
                                    3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_source_cap_is_checked_before_allocating(self):
        params = SourceParams(0.5, 0.5)
        cap = MAX_SAMPLED_SOURCES
        est, _ = monte_carlo_coincidence(params, cap, 1.0, 10, seed=0)
        assert est >= 0.0
        with pytest.raises(ValueError, match="cap"):
            monte_carlo_coincidence(params, cap + 1, 1.0, 10, seed=0)
        # Allocating buffers for 10^8 sources would take about 8 GB.
        with pytest.raises(ValueError, match="cap"):
            monte_carlo_coincidence(params, 10 ** 8, 1.0, 10, seed=0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SourceParams(1.5, 0.5)
        for rate in (0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                SourceParams(0.5, 0.5, rep_rate=rate)


    @pytest.mark.parametrize("call,match", [
        (lambda: SourceParams(math.nan, 0.5), "pair_prob"),
        (lambda: SourceParams(0.5, 2.0), "eta_pair"),
        (lambda: SourceParams(0.5, 0.5, math.inf), "rep_rate"),
        (lambda: coincidence_rate(SourceParams(0.5, 0.5), 0), "n_sources"),
        (lambda: coincidence_rate(SourceParams(0.5, 0.5), 5, math.nan),
         "postselect_factor"),
        (lambda: monte_carlo_coincidence(SourceParams(0.5, 0.5), 65, 0.5, 10,
                                         0), "cap"),
        (lambda: monte_carlo_coincidence(SourceParams(0.5, 0.5), 5, 0.5, 0,
                                         0), "pulses"),
        (lambda: monte_carlo_coincidence(SourceParams(0.5, 0.5), 5, -1.0, 10,
                                         0), "postselect_factor"),
    ], ids=["pair_prob", "eta_pair", "rep_rate", "sources", "factor", "cap",
            "pulses", "sampled-factor"])
    def test_bad_arguments_are_config_errors(self, call, match):
        """Each refusal names the parameter; the cli relies on these for
        its exit code 2."""
        with pytest.raises(ConfigError, match=match):
            call()


class TestVisibilityNoise:
    @pytest.mark.parametrize("visibility", [math.nan, math.inf, -1.0, 2.0])
    def test_visibility_outside_unit_interval_is_a_config_error(
            self, visibility):
        with pytest.raises(ConfigError, match="visibility"):
            apply_visibility_noise(encode_shor(D_INPUT), shor_encoder_sites(),
                                   visibility)

    def test_full_visibility_is_identity(self):
        word = encode_shor(D_INPUT)
        rho = apply_visibility_noise(word, shor_encoder_sites(), 1.0)
        np.testing.assert_allclose(rho.matrix, word.to_density().matrix,
                                   atol=1e-12)

    def test_zero_visibility_dephases_bell_pair(self):
        bell = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2))
        rho = apply_visibility_noise(bell, [PauliString({0: "Z"})], 0.0)
        np.testing.assert_allclose(rho.matrix,
                                   np.diag([0.5, 0, 0, 0.5]), atol=1e-12)
        assert abs(fidelity(rho, bell) - 0.5) < 1e-12

    def test_output_is_valid_density(self):
        rho = encode_shor_noisy(D_INPUT, 0.7)
        rho.validate()
        assert abs(np.trace(rho.matrix).real - 1) < 1e-10

    def test_site_list(self):
        sites = shor_encoder_sites()
        assert len(sites) == 4
        assert sites[0].factors == {3: "X", 4: "X", 5: "X"}
        assert [s.factors for s in sites[1:]] == [{1: "Z"}, {4: "Z"},
                                                  {7: "Z"}]

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="'bare', 'partial' or 'encoded'"):
            encoder_sites("bogus", [[0], [1, 2]])
        assert [s.label() for s in encoder_sites("bare", [[0], [1, 2]])] == \
            ["X1 X2"]

    def test_stabilizers_degrade_smoothly(self):
        word_fidelities = []
        for v in (1.0, 0.9, 0.8, 0.7):
            rho = encode_shor_noisy(D_INPUT, v)
            word_fidelities.append(fidelity(rho, encode_shor(D_INPUT)))
        assert word_fidelities[0] > 1 - 1e-10
        assert all(b <= a + 1e-12
                   for a, b in zip(word_fidelities, word_fidelities[1:]))

    def test_block_fidelity_values(self):
        assert abs(noisy_block_fidelity(1.0) - 1.0) < 1e-10
        # single Z kick flips the block sign, so F = (1+V)/2
        assert abs(noisy_block_fidelity(0.7) - 0.85) < 1e-10
        vals = [noisy_block_fidelity(v) for v in (1.0, 0.9, 0.8, 0.7, 0.5)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(v < 1 for v in vals[1:])


class TestSnr:
    def test_ideal_state_is_clean(self):
        word = encode_shor(D_INPUT)
        assert math.isinf(snr_hv(word, word))

    def test_support_set(self):
        """A basis string is signal exactly where the ideal word has
        weight: all signal reads inf, all noise 0."""
        word = encode_shor(D_INPUT)
        support = [i for i, row in enumerate(np.eye(512))
                   if snr_hv(PureState(row), word) == math.inf]
        assert support == [0, 63, 455, 504]

    def test_uniform_mixture_counts_strings(self):
        rho = DensityMatrix(np.eye(512) / 512)
        want = 4 / (512 - 4)
        assert abs(snr_hv(rho, encode_shor(D_INPUT)) - want) < 1e-12

    def test_noisy_snr_finite(self):
        rho = encode_shor_noisy(D_INPUT, 0.7)
        snr = snr_hv(rho, encode_shor(D_INPUT))
        assert math.isfinite(snr)
        # one leaking site at kick probability 0.15: signal/noise = .85/.15
        assert abs(snr - 0.85 / 0.15) < 1e-10

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            snr_hv(make_basis_state(2), encode_shor(D_INPUT))
