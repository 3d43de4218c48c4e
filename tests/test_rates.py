"""Closed-form rate model vs Monte-Carlo oracles, and the optimizer."""

import copy
import math
import re
import sys
import threading

import numpy as np
import pytest

import reference as ref
from qparity import rates
from qparity.errors import ConfigError
from qparity.photonics import (
    PULSE_BLOCK,
    SourceParams,
    monte_carlo_coincidence,
)
from qparity.rates import (
    CHUNK_BYTES,
    RateModel,
    evaluate,
    monte_carlo_bare,
    monte_carlo_rate,
    monte_carlo_side,
    optimize,
    p_connect_bare,
    p_logical_alive,
    p_side,
    sweep,
)


class TestClosedForms:
    def test_alive_probability(self):
        assert p_logical_alive(1.0, 5) == 1.0
        assert p_logical_alive(0.5, 1) == 0.5
        assert abs(p_logical_alive(0.5, 3) - 0.875) < 1e-15
        assert p_logical_alive(0.5, np.int64(1)) == 0.5

    @pytest.mark.parametrize("eta,m,match", [
        (2.0, 2, r"eta 2.0 out of \[0, 1\]"), (-0.1, 2, "eta"),
        (math.nan, 2, "eta"), (0.5, 2.5, "m must be an integer"),
        (0.5, 2.0, "m must be an integer"), (0.5, 0, "need m >= 1"),
        (0.5, True, "m must be an integer, got True")])
    def test_alive_probability_checks_its_arguments(self, eta, m, match):
        with pytest.raises(ValueError, match=match):
            p_logical_alive(eta, m)

    def test_p_side_trivial(self):
        assert abs(p_side(RateModel(1.0, 1.0, 1, 1)) - 1.0) < 1e-15
        assert p_side(RateModel(0.7, 0.0, 3, 2)) == 0.0

    def test_p_side_reduces_to_bsm_race(self):
        """Perfect transmission, single photons: 1 - (1-q)^n."""
        for n in (1, 2, 3, 5):
            for q in (0.25, 0.5, 0.9):
                got = p_side(RateModel(1.0, q, n, 1))
                assert abs(got - (1 - (1 - q) ** n)) < 1e-12

    def test_connect_is_side_squared(self):
        model = RateModel(0.83, 0.41, 3, 2)
        res = evaluate(model)
        assert res.p_connect == res.p_side ** 2
        assert res.photons_used == 2 * 3 * 2
        assert abs(res.efficiency - res.p_connect / 12) < 1e-15

    def test_bare_trivial(self):
        assert p_connect_bare(1, 1.0, 1.0) == 1.0
        assert p_connect_bare(3, 0.0, 0.5) == 0.0

    def test_model_validation(self):
        with pytest.raises(ValueError):
            RateModel(1.2)
        with pytest.raises(ValueError):
            RateModel(0.5, q=-0.1)
        with pytest.raises(ValueError):
            RateModel(0.5, n=0)


class TestMonteCarlo:
    def test_side_matches_closed_form(self):
        model = RateModel(0.9, 0.5, 2, 2)
        est, se = monte_carlo_side(model, 10 ** 6, seed=11)
        assert se > 0
        assert abs(est - p_side(model)) <= 3 * se

    def test_connect_matches_side_squared(self):
        model = RateModel(0.5, 0.5, 2, 2)
        est, se = monte_carlo_rate(model, 10 ** 6, seed=12)
        assert abs(est - p_side(model) ** 2) <= 3 * se

    def test_bare_matches_closed_form(self):
        est, se = monte_carlo_bare(4, 0.9, 0.5, 10 ** 6, seed=13)
        assert abs(est - p_connect_bare(4, 0.9, 0.5)) <= 3 * se

    def test_certain_success(self):
        est, se = monte_carlo_rate(RateModel(1.0, 1.0, 2, 2), 10 ** 5,
                                   seed=1)
        assert est == 1.0 and se == 0.0

    def test_seeded_determinism(self):
        model = RateModel(0.8, 0.5, 2, 3)
        a = monte_carlo_rate(model, 10 ** 5, seed=99)
        b = monte_carlo_rate(model, 10 ** 5, seed=99)
        assert a == b

    def test_shots_validated(self):
        with pytest.raises(ValueError):
            monte_carlo_rate(RateModel(0.5), 0, seed=0)

    def test_bare_needs_an_arm(self):
        with pytest.raises(ValueError):
            monte_carlo_bare(0, 0.9, 0.5, 10, seed=0)

    def test_numpy_integer_counts(self):
        """NumPy integers are counts like ints: the stream offsets they
        would make overflow PCG64.advance unless made ints first."""
        model = RateModel(0.8, 0.6, np.int64(2), np.int64(3))
        assert (monte_carlo_rate(model, np.int64(1001), 4)
                == monte_carlo_rate(RateModel(0.8, 0.6, 2, 3), 1001, 4))
        assert (monte_carlo_bare(np.int32(2), 0.9, 0.5, np.int32(1001), 4)
                == monte_carlo_bare(2, 0.9, 0.5, 1001, 4))
        params = SourceParams(0.8, 0.9, 1e6)
        assert (monte_carlo_coincidence(params, np.int64(2), 0.5,
                                        np.int64(1001), 4)
                == monte_carlo_coincidence(params, 2, 0.5, 1001, 4))


class TestValidation:
    """Out-of-range probabilities and non-integral counts raise a
    ValueError naming the parameter instead of a wrong answer or a
    TypeError from deep inside NumPy."""

    @pytest.mark.parametrize("eta,q,message", [
        (2.0, 0.5, "eta 2.0 out of [0, 1]"),
        (-0.1, 0.5, "eta -0.1 out of [0, 1]"),
        (math.nan, 0.5, "eta nan out of [0, 1]"),
        (0.9, 1.5, "q 1.5 out of [0, 1]"),
        (0.9, math.nan, "q nan out of [0, 1]")])
    def test_bare_probabilities(self, eta, q, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RateModel(eta, q)
        with pytest.raises(ValueError, match=re.escape(message)):
            p_connect_bare(2, eta, q)
        with pytest.raises(ValueError, match=re.escape(message)):
            monte_carlo_bare(2, eta, q, 1000, 1)

    @pytest.mark.parametrize("n,m,name", [(2.5, 2, "n"), (2, 2.0, "m"),
                                          ("2", 1, "n"), (0, 1, "n"),
                                          (1, -3, "m"), (True, 1, "n"),
                                          (1, np.bool_(True), "m")])
    def test_model_sizes(self, n, m, name):
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            RateModel(0.9, 0.5, n, m)

    @pytest.mark.parametrize("n", (2.5, 2.0, 0, True))
    def test_bare_size(self, n):
        with pytest.raises(ValueError, match=r"\bn\b"):
            p_connect_bare(n, 0.9, 0.5)
        with pytest.raises(ValueError, match=r"\bn\b"):
            monte_carlo_bare(n, 0.9, 0.5, 1000, 1)

    @pytest.mark.parametrize("shots", (1e3, 1000.0, 0, -5, True))
    def test_shots(self, shots):
        model = RateModel(0.9, 0.5, 1, 1)
        for call in (lambda: monte_carlo_side(model, shots, 1),
                     lambda: monte_carlo_rate(model, shots, 1),
                     lambda: monte_carlo_bare(1, 0.9, 0.5, shots, 1)):
            with pytest.raises(ValueError, match="shots"):
                call()

    @pytest.mark.parametrize("sources,pulses,name", [
        (2, 1000.0, "pulses"), (2, 0, "pulses"), (2.5, 1000, "n_sources"),
        (2.0, 1000, "n_sources")])
    def test_coincidence_counts(self, sources, pulses, name):
        with pytest.raises(ValueError, match=name):
            monte_carlo_coincidence(SourceParams(0.5, 0.5), sources, 0.5,
                                    pulses, 1)

    SEEDED = (
        lambda seed: monte_carlo_side(RateModel(0.9, 0.5, 2, 2), 100, seed),
        lambda seed: monte_carlo_rate(RateModel(0.9, 0.5, 2, 2), 100, seed),
        lambda seed: monte_carlo_bare(2, 0.9, 0.5, 100, seed),
        lambda seed: monte_carlo_coincidence(SourceParams(0.5, 0.5), 2, 0.5,
                                             100, seed))

    @pytest.mark.parametrize("seed", (math.nan, math.inf, -math.inf, 1e300,
                                      2.5, -1, True), ids=repr)
    def test_seeds_follow_the_count_rule(self, seed):
        """A float seed raised NumPy's TypeError from SeedSequence, and -1
        a plain ValueError."""
        for call in self.SEEDED:
            with pytest.raises(ConfigError, match="seed"):
                call(seed)

    def test_seeds_that_are_not_numbers_keep_numpys_rules(self):
        for call in self.SEEDED:
            assert call(np.int64(7)) == call(7)
            assert (call(np.random.SeedSequence(7))
                    == call(np.random.SeedSequence(7)))
            with pytest.raises(TypeError, match="SeedSequence"):
                call("abc")


# (seed, eta, q, shots): odd shot counts, losses from mild to heavy.
ORACLE_RUNS = ((3, 0.9, 0.5, 4097), (41, 0.75, 0.35, 10_001),
               (2024, 0.97, 0.8, 999))


class TestFoldMatchesAnyAll:
    """The slice folds give bit-identical estimates to the any/all
    samplers of tests/reference.py on the same draws."""

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("m", range(1, 9))
    def test_side_and_rate(self, n, m):
        for seed, eta, q, shots in ORACLE_RUNS:
            model = RateModel(eta, q, n, m)
            assert (monte_carlo_side(model, shots, seed)
                    == ref.monte_carlo_side_anyall(eta, q, n, m, shots, seed))
            assert (monte_carlo_rate(model, shots, seed)
                    == ref.monte_carlo_rate_anyall(eta, q, n, m, shots, seed))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_bare(self, n):
        for seed, eta, q, shots in ORACLE_RUNS:
            assert (monte_carlo_bare(n, eta, q, shots, seed)
                    == ref.monte_carlo_bare_anyall(n, eta, q, shots, seed))


def side_rows(n, m):
    """Shots per chunk of monte_carlo_side, as rates._count_hits reads
    them; the other three are those of the other samplers."""
    return rates._chunk_rows((n * m, n))


def rate_rows(n, m):
    return rates._chunk_rows((n * m, n, n * m, n))


def bare_rows(n):
    return rates._chunk_rows((2 * n, 2 * n))


def coincidence_rows(sources):
    return rates._chunk_rows((sources, sources, 1))


def chunk_edges(rows):
    """One shot short of a chunk, one chunk, one over, and three chunks
    plus a remainder: every way the last chunk can end."""
    return (rows - 1, rows, rows + 1, 3 * rows + 7)


# The edges of the 8192-shot chunks of the widest samplers; the narrower
# ones read them as shot counts inside their own larger chunks.
CHUNK_EDGES = chunk_edges(rate_rows(3, 3))


def with_own_edges(cases, own):
    """``cases`` followed by those of ``own`` not among them."""
    return list(cases) + [case for case in dict.fromkeys(own)
                          if case not in cases]


CHUNKED_MODELS = [(1, 1), (2, 3), (3, 3)]
CHUNKED_SIDE_CASES = with_own_edges(
    [(n, m, shots) for n, m in CHUNKED_MODELS for shots in CHUNK_EDGES],
    [(n, m, shots) for n, m in CHUNKED_MODELS
     for shots in chunk_edges(side_rows(n, m)) + chunk_edges(rate_rows(n, m))])
CHUNKED_BARE_CASES = with_own_edges(
    [(n, shots) for n in (1, 3) for shots in CHUNK_EDGES],
    [(n, shots) for n in (1, 3) for shots in chunk_edges(bare_rows(n))])


class TestChunkRows:
    """A chunk's shots follow from its arrays' widths and CHUNK_BYTES."""

    @pytest.mark.parametrize("width", range(1, 65))
    def test_largest_power_of_two_within_budget(self, width):
        for widths in ((width,), (width, 1), (width, width, 1),
                       (width, width // 2 + 1, width, width // 2 + 1)):
            rows = rates._chunk_rows(widths)
            row_bytes = 8 * max(widths) + sum(widths)
            assert rows & (rows - 1) == 0 and rows <= 2 ** 15
            assert rows * row_bytes <= CHUNK_BYTES
            assert rows == 2 ** 15 or 2 * rows * row_bytes > CHUNK_BYTES

    def test_widest_samplers_keep_8192_shots(self):
        """Rate and side 3 x 3, bare n = 3 and photonics-rate's default
        5 sources: CHUNK_BYTES is exactly the 3 x 3 rate model's buffers."""
        assert rate_rows(3, 3) * (8 * 9 + 24) == CHUNK_BYTES
        assert {rate_rows(3, 3), side_rows(3, 3), bare_rows(3),
                coincidence_rows(5)} == {8192}

    def test_narrow_and_wide_samplers(self):
        assert side_rows(1, 1) == rate_rows(1, 1) == 2 ** 15
        assert coincidence_rows(2) == 2 ** 15
        assert coincidence_rows(64) == 1024

    def test_a_row_over_budget_is_read_one_shot_at_a_time(self):
        assert rates._chunk_rows((CHUNK_BYTES,)) == 1

    def test_a_row_numpy_cannot_size_is_refused(self):
        """One shot's row of 10**30 doubles is refused before anything
        is allocated, not left to NumPy's plain ValueError."""
        model = RateModel(0.9, 0.5, 10 ** 30, 1)
        for call in (lambda: monte_carlo_side(model, 10, 1),
                     lambda: monte_carlo_rate(model, 10, 1),
                     lambda: monte_carlo_bare(10 ** 30, 0.9, 0.5, 10, 1)):
            with pytest.raises(ConfigError, match="NumPy's array size"):
                call()


class TestChunkedDraws:
    """Draws read in chunks are the numbers of the whole-array draws of
    tests/reference.py: the estimates are equal at the edges of each
    sampler's own chunks and of the widest samplers' 8192-shot ones."""

    @pytest.mark.parametrize("n,m,shots", CHUNKED_SIDE_CASES)
    def test_side_and_rate(self, shots, n, m):
        seed = shots + 10 * n + m
        model = RateModel(0.8, 0.6, n, m)
        assert (monte_carlo_side(model, shots, seed)
                == ref.monte_carlo_side_anyall(0.8, 0.6, n, m, shots, seed))
        assert (monte_carlo_rate(model, shots, seed)
                == ref.monte_carlo_rate_anyall(0.8, 0.6, n, m, shots, seed))

    @pytest.mark.parametrize("n,shots", CHUNKED_BARE_CASES)
    def test_bare(self, shots, n):
        seed = shots + n
        assert (monte_carlo_bare(n, 0.9, 0.5, shots, seed)
                == ref.monte_carlo_bare_anyall(n, 0.9, 0.5, shots, seed))


# Each sampler beside its whole-array oracle, over a shot count that
# spans two of its chunks.
SAMPLERS = {
    "side": (lambda g: monte_carlo_side(RateModel(0.8, 0.6, 2, 3),
                                        side_rows(2, 3) + 5, g),
             lambda g: ref.monte_carlo_side_anyall(0.8, 0.6, 2, 3,
                                                   side_rows(2, 3) + 5, g)),
    "rate": (lambda g: monte_carlo_rate(RateModel(0.8, 0.6, 2, 3),
                                        rate_rows(2, 3) + 5, g),
             lambda g: ref.monte_carlo_rate_anyall(0.8, 0.6, 2, 3,
                                                   rate_rows(2, 3) + 5, g)),
    "bare": (lambda g: monte_carlo_bare(3, 0.9, 0.5, bare_rows(3) + 5, g),
             lambda g: ref.monte_carlo_bare_anyall(3, 0.9, 0.5,
                                                   bare_rows(3) + 5, g)),
}


class TestGeneratorSeeds:
    @pytest.mark.parametrize("kind", SAMPLERS)
    @pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.SFC64,
                                        np.random.Philox])
    def test_unpositionable_generator_rejected(self, kind, bitgen):
        """MT19937 and SFC64 cannot advance; Philox advances by blocks of
        four outputs, not by one output per double."""
        sampler, _ = SAMPLERS[kind]
        with pytest.raises(ValueError, match="PCG64"):
            sampler(np.random.Generator(bitgen(5)))

    @pytest.mark.parametrize("kind", SAMPLERS)
    def test_pcg64_generator_ends_past_the_draws(self, kind):
        """A Generator seed is drawn from in place and left where the
        whole-array draws leave it, buffered 32-bit half included."""
        sampler, oracle = SAMPLERS[kind]
        rng = np.random.default_rng(17)
        rng.random(dtype=np.float32)
        assert rng.bit_generator.state["has_uint32"] == 1
        twin = copy.deepcopy(rng)
        assert sampler(rng) == oracle(twin)
        assert rng.bit_generator.state == twin.bit_generator.state


# Every sampler beside its whole-array oracle, as functions of the shot
# count and the seed.
SPLIT_SAMPLERS = {
    "side": (lambda s, g: monte_carlo_side(RateModel(0.8, 0.6, 2, 2), s, g),
             lambda s, g: ref.monte_carlo_side_anyall(0.8, 0.6, 2, 2, s, g)),
    "rate": (lambda s, g: monte_carlo_rate(RateModel(0.8, 0.6, 2, 2), s, g),
             lambda s, g: ref.monte_carlo_rate_anyall(0.8, 0.6, 2, 2, s, g)),
    "bare": (lambda s, g: monte_carlo_bare(2, 0.9, 0.5, s, g),
             lambda s, g: ref.monte_carlo_bare_anyall(2, 0.9, 0.5, s, g)),
    "coincidence": (
        lambda s, g: monte_carlo_coincidence(SourceParams(0.8, 0.9, 1e6), 2,
                                             0.5, s, g),
        lambda s, g: ref.monte_carlo_coincidence_anyall(0.8, 0.9, 1e6, 2,
                                                        0.5, s, g)),
}
# Sparse samplers, where a chunk's later stages are advanced past when no
# shot passes its earlier ones: the photonics-rate defaults (every chunk
# skips its deliveries), the source figures of the two photonics-rate
# goldens (at 0.3 and 0.5 every chunk has a pulse where all five sources
# emit, at 0.15 and 0.9 about half the chunks have none), the bare
# scheme at eta 0.01 (every chunk skips its BSMs), and a rate model whose
# left side fails in about two of three 8192-shot chunks and one in five
# of its own 32768-shot ones.
SPARSE_SAMPLERS = {
    "coincidence-defaults": (
        lambda s, g: monte_carlo_coincidence(SourceParams(0.06, 0.38, 8e7),
                                             5, 0.0625, s, g),
        lambda s, g: ref.monte_carlo_coincidence_anyall(0.06, 0.38, 8e7, 5,
                                                        0.0625, s, g)),
    "coincidence-half": (
        lambda s, g: monte_carlo_coincidence(SourceParams(0.3, 0.5, 8e7), 5,
                                             0.5, s, g),
        lambda s, g: ref.monte_carlo_coincidence_anyall(0.3, 0.5, 8e7, 5,
                                                        0.5, s, g)),
    "coincidence-mixed": (
        lambda s, g: monte_carlo_coincidence(SourceParams(0.15, 0.9, 8e7), 5,
                                             0.5, s, g),
        lambda s, g: ref.monte_carlo_coincidence_anyall(0.15, 0.9, 8e7, 5,
                                                        0.5, s, g)),
    "bare-lossy": (lambda s, g: monte_carlo_bare(2, 0.01, 0.5, s, g),
                   lambda s, g: ref.monte_carlo_bare_anyall(2, 0.01, 0.5, s,
                                                            g)),
    "rate-lossy": (
        lambda s, g: monte_carlo_rate(RateModel(0.01, 0.5, 1, 2), s, g),
        lambda s, g: ref.monte_carlo_rate_anyall(0.01, 0.5, 1, 2, s, g)),
}
SPLIT_SAMPLERS.update(SPARSE_SAMPLERS)
# Shots per chunk of each sampler above.
SPLIT_ROWS = {"side": side_rows(2, 2), "rate": rate_rows(2, 2),
              "bare": bare_rows(2), "coincidence": coincidence_rows(2),
              "coincidence-defaults": coincidence_rows(5),
              "coincidence-half": coincidence_rows(5),
              "coincidence-mixed": coincidence_rows(5),
              "bare-lossy": bare_rows(2), "rate-lossy": rate_rows(1, 2)}


def split_cases(rows):
    """Every chunk edge, 10^6 + 3 shots (for the coincidence sampler a
    second PULSE_BLOCK block of 3 pulses), and a second block of two
    chunks; the sparse samplers over 25 chunks and a remainder.  ``rows``
    maps each sampler to its chunk's shots."""
    return ([(kind, shots) for kind in SPLIT_SAMPLERS
             if kind not in SPARSE_SAMPLERS
             for shots in chunk_edges(rows[kind]) + (10 ** 6 + 3,)]
            + [("coincidence", PULSE_BLOCK + rows["coincidence"] + 1)]
            + [(kind, 25 * rows[kind] + 11) for kind in SPARSE_SAMPLERS])


# Those of the widest samplers' 8192-shot chunks, then each sampler's own.
SPLIT_CASES = with_own_edges(
    split_cases(dict.fromkeys(SPLIT_SAMPLERS, rate_rows(3, 3))),
    split_cases(SPLIT_ROWS))


def check_split(kind, shots, seed):
    """The sampler's estimate and its generator's end state are those of
    the whole-array oracle, buffered 32-bit half included."""
    sampler, oracle = SPLIT_SAMPLERS[kind]
    rng = np.random.default_rng(seed)
    rng.random(dtype=np.float32)
    twin = copy.deepcopy(rng)
    assert sampler(shots, rng) == oracle(shots, twin)
    assert rng.bit_generator.state == twin.bit_generator.state


class TestThreadedSpans:
    """Spans of shots counted on several threads add up to the counts of
    the whole-array draws, for any number of threads."""

    @pytest.mark.parametrize("workers", (1, 2, 3))
    @pytest.mark.parametrize("kind,shots", SPLIT_CASES)
    def test_any_thread_count_matches_oracle(self, monkeypatch, kind, shots,
                                             workers):
        monkeypatch.setattr(rates, "WORKERS", workers)
        check_split(kind, shots, seed=shots + workers)

    @pytest.mark.parametrize("kind", SPLIT_SAMPLERS)
    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch,
                                                          kind):
        """Eight spans, the last of one chunk and one shot, with the
        interpreter switching threads every microsecond: a lost or
        misplaced span count would change the estimate."""
        monkeypatch.setattr(rates, "WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            check_split(kind, 8 * SPLIT_ROWS[kind] + 1, seed=8)
        finally:
            sys.setswitchinterval(interval)

    def test_error_in_a_later_span_is_raised_in_the_caller(self,
                                                          monkeypatch):
        monkeypatch.setattr(rates, "WORKERS", 3)
        caller = threading.current_thread()
        before = set(threading.enumerate())
        seen = set()

        def success(flags):
            seen.add(threading.current_thread())
            if threading.current_thread() is not caller:
                raise ZeroDivisionError("later span")
            return flags[:, 0]

        with pytest.raises(ZeroDivisionError, match="later span"):
            rates._count_hits(np.random.default_rng(1),
                              3 * rates._chunk_rows((1,)),
                              ((((1, 0.5),), success),))
        assert len(seen) == 3 and caller in seen
        assert not any(t.is_alive() for t in seen - {caller})
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("workers", (1, 2, 3))
    def test_later_stage_sees_only_chunks_with_a_passing_shot(
            self, monkeypatch, workers):
        """The second stage's test is not called on a chunk where the
        first passed no shot, those chunks' second-stage draws are
        advanced past, and count and end state are those of the whole
        arrays."""
        monkeypatch.setattr(rates, "WORKERS", workers)
        # About 0.8 first-stage passes per chunk: some chunks have none.
        rows = rates._chunk_rows((1, 1))
        shots, first_p, second_p = 20 * rows + 3, 0.8 / rows, 0.5
        local = threading.local()
        calls = []

        def first(flags):
            local.passed = bool(flags.any())
            return flags[:, 0]

        def second(flags):
            if not local.passed:
                raise AssertionError("second stage on a chunk with no "
                                     "passing shot")
            calls.append(len(flags))
            return flags[:, 0]

        rng = np.random.default_rng(6)
        twin = copy.deepcopy(rng)
        hits = rates._count_hits(rng, shots, ((((1, first_p),), first),
                                              (((1, second_p),), second)))
        a = twin.random(shots) < first_p
        b = twin.random(shots) < second_p
        assert hits == int(np.count_nonzero(a & b))
        assert rng.bit_generator.state == twin.bit_generator.state
        live = [bool(a[lo:lo + rows].any()) for lo in range(0, shots, rows)]
        assert len(calls) == sum(live)
        assert 0 < len(calls) < len(live)

    @pytest.mark.parametrize("kind", SPLIT_SAMPLERS)
    def test_one_chunk_starts_no_thread(self, monkeypatch, kind):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(rates, "WORKERS", 4)
        monkeypatch.setattr(threading, "Thread", refuse)
        check_split(kind, SPLIT_ROWS[kind], seed=5)


class TestOptimizer:
    def test_lossless_prefers_minimal_code(self):
        n, m, res = optimize(1.0, 1.0, 4, 4, metric="efficiency")
        assert (n, m) == (1, 1)
        assert res.p_connect == 1.0

    def test_bsm_limited_prefers_more_arms(self):
        n, m, _ = optimize(1.0, 0.5, 8, 1, metric="p_connect")
        assert (n, m) == (8, 1)

    def test_argmax_reproduced_by_full_rescan(self):
        eta, q, n_max, m_max = 0.9, 0.5, 5, 4
        for metric in ("p_connect", "efficiency"):
            n, m, res = optimize(eta, q, n_max, m_max, metric)
            best = None
            for nn in range(1, n_max + 1):
                for mm in range(1, m_max + 1):
                    r = evaluate(RateModel(eta, q, nn, mm))
                    key = (-getattr(r, metric), r.photons_used, r.n)
                    if best is None or key < best[0]:
                        best = (key, r)
            assert (best[1].n, best[1].m) == (n, m)
            assert getattr(res, metric) == getattr(best[1], metric)

    def test_encoding_beats_bare_at_equal_budget(self):
        """Some encoded grid point outperforms the bare scheme using the
        same number of photons per side."""
        eta, q = 0.9, 0.5
        better = []
        for n in range(1, 4):
            for m in range(2, 4):
                encoded = p_side(RateModel(eta, q, n, m)) ** 2
                bare = p_connect_bare(n * m, eta, q)
                if encoded > bare:
                    better.append((n, m))
        assert better

    def test_unknown_metric_is_a_config_error(self):
        with pytest.raises(ConfigError, match="^metric must be 'p_connect' "
                           "or 'efficiency', got 'rate'$"):
            optimize(0.9, 0.5, 2, 2, metric="rate")

    def test_sweep_grid_shape(self):
        rows = sweep(0.9, 0.5, 3, 2)
        assert len(rows) == 6
        assert {(r.n, r.m) for r in rows} == {(n, m)
                                              for n in (1, 2, 3)
                                              for m in (1, 2)}

    @pytest.mark.parametrize("grid", [(10 ** 30, 1), (1, 10 ** 30),
                                      (10_001, 1), (101, 100)])
    def test_grid_cap_is_checked_before_any_point(self, grid):
        """The cap lived only in the cli, so a library call of 10^30
        points never returned."""
        for call in (sweep, optimize):
            with pytest.raises(ConfigError, match="exceeds the grid cap of "
                                                  "10000 points"):
                call(0.9, 0.5, *grid)

    def test_grid_cap_is_inclusive(self):
        assert len(sweep(0.9, 0.5, rates.GRID_CAP, 1)) == rates.GRID_CAP

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(0.9, 0.5, 0, 3)

    @pytest.mark.parametrize("grid,match", [
        ((2.5, 2), "n_max must be an integer"),
        ((2, 2.0), "m_max must be an integer"),
        ((2, 0), "need m_max >= 1"), ((2, True), "m_max must be an integer")])
    def test_grid_sizes_are_counts(self, grid, match):
        for call in (sweep, optimize):
            with pytest.raises(ValueError, match=match):
                call(0.9, 0.5, *grid)


    @pytest.mark.parametrize("eta,q,n_max,m_max,match", [
        (math.nan, 0.5, 2, 2, "eta"), (2.0, 0.5, 2, 2, "eta"),
        (0.9, math.inf, 2, 2, "^q "), (0.9, -1.0, 2, 2, "^q "),
        (0.9, 0.5, -1, 2, "n_max"), (0.9, 0.5, 2, 0, "m_max"),
        (0.9, 0.5, -200, -200, "need n_max >= 1")])
    def test_bad_grid_arguments_are_config_errors(self, eta, q, n_max, m_max,
                                                  match):
        with pytest.raises(ConfigError, match=match):
            sweep(eta, q, n_max, m_max)
        if n_max >= 1 and m_max >= 1:
            with pytest.raises(ConfigError, match=match):
                RateModel(eta, q)


class TestMonotonicity:
    ETAS = (0.7, 0.8, 0.9, 0.95, 1.0)
    QS = (0.25, 0.35, 0.5, 0.75, 1.0)

    def test_monotone_in_eta(self):
        for q in self.QS:
            for n in (1, 2, 3):
                for m in (1, 2, 3):
                    vals = [p_side(RateModel(e, q, n, m))
                            for e in self.ETAS]
                    assert all(b >= a - 1e-12
                               for a, b in zip(vals, vals[1:]))

    def test_monotone_in_q(self):
        for eta in self.ETAS:
            for n in (1, 2, 3):
                for m in (1, 2, 3):
                    vals = [p_side(RateModel(eta, q, n, m))
                            for q in self.QS]
                    assert all(b >= a - 1e-12
                               for a, b in zip(vals, vals[1:]))

    def test_monotone_in_n_with_redundancy(self):
        """With m >= 2 extra arms never hurt on this grid."""
        for eta in self.ETAS:
            for q in self.QS:
                for m in (2, 3):
                    vals = [p_side(RateModel(eta, q, n, m))
                            for n in (1, 2, 3)]
                    assert all(b >= a - 1e-12
                               for a, b in zip(vals, vals[1:]))

    def test_not_monotone_in_n_without_redundancy(self):
        """Unprotected arms are pure loss exposure once the BSM is
        certain: a second arm lowers p_side.  Documents why the n
        monotonicity claim needs m >= 2."""
        lo = p_side(RateModel(0.8, 1.0, 1, 1))
        hi = p_side(RateModel(0.8, 1.0, 2, 1))
        assert hi < lo
