"""Closed-form rate model vs Monte-Carlo oracles, and the optimizer."""

import copy
import sys
import threading

import numpy as np
import pytest

import reference as ref
from qparity import rates
from qparity.photonics import (
    PULSE_BLOCK,
    SourceParams,
    monte_carlo_coincidence,
)
from qparity.rates import (
    CHUNK_SHOTS,
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


# One shot short of a chunk, one chunk, one over, and three chunks plus a
# remainder: every way the last chunk can end.
CHUNK_EDGES = (CHUNK_SHOTS - 1, CHUNK_SHOTS, CHUNK_SHOTS + 1,
               3 * CHUNK_SHOTS + 7)


class TestChunkedDraws:
    """Draws read in chunks of CHUNK_SHOTS shots are the numbers of the
    whole-array draws of tests/reference.py: the estimates are equal."""

    @pytest.mark.parametrize("shots", CHUNK_EDGES)
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (3, 3)])
    def test_side_and_rate(self, shots, n, m):
        seed = shots + 10 * n + m
        model = RateModel(0.8, 0.6, n, m)
        assert (monte_carlo_side(model, shots, seed)
                == ref.monte_carlo_side_anyall(0.8, 0.6, n, m, shots, seed))
        assert (monte_carlo_rate(model, shots, seed)
                == ref.monte_carlo_rate_anyall(0.8, 0.6, n, m, shots, seed))

    @pytest.mark.parametrize("shots", CHUNK_EDGES)
    @pytest.mark.parametrize("n", (1, 3))
    def test_bare(self, shots, n):
        seed = shots + n
        assert (monte_carlo_bare(n, 0.9, 0.5, shots, seed)
                == ref.monte_carlo_bare_anyall(n, 0.9, 0.5, shots, seed))


# Each sampler beside its whole-array oracle, over a shot count that
# spans two chunks.
SAMPLERS = {
    "side": (lambda g: monte_carlo_side(RateModel(0.8, 0.6, 2, 3),
                                        CHUNK_SHOTS + 5, g),
             lambda g: ref.monte_carlo_side_anyall(0.8, 0.6, 2, 3,
                                                   CHUNK_SHOTS + 5, g)),
    "rate": (lambda g: monte_carlo_rate(RateModel(0.8, 0.6, 2, 3),
                                        CHUNK_SHOTS + 5, g),
             lambda g: ref.monte_carlo_rate_anyall(0.8, 0.6, 2, 3,
                                                   CHUNK_SHOTS + 5, g)),
    "bare": (lambda g: monte_carlo_bare(3, 0.9, 0.5, CHUNK_SHOTS + 5, g),
             lambda g: ref.monte_carlo_bare_anyall(3, 0.9, 0.5,
                                                   CHUNK_SHOTS + 5, g)),
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
# left side fails in about two of three whole chunks.
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
# Every chunk edge, 10^6 + 3 shots (for the coincidence sampler a second
# PULSE_BLOCK block of 3 pulses), and a second block of two chunks; the
# sparse samplers over 25 chunks and a remainder.
SPLIT_CASES = ([(kind, shots) for kind in SPLIT_SAMPLERS
                if kind not in SPARSE_SAMPLERS
                for shots in CHUNK_EDGES + (10 ** 6 + 3,)]
               + [("coincidence", PULSE_BLOCK + CHUNK_SHOTS + 1)]
               + [(kind, 25 * CHUNK_SHOTS + 11) for kind in SPARSE_SAMPLERS])


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
            check_split(kind, 8 * CHUNK_SHOTS + 1, seed=8)
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
            rates._count_hits(np.random.default_rng(1), 3 * CHUNK_SHOTS,
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
        shots, first_p, second_p = 20 * CHUNK_SHOTS + 3, 1e-4, 0.5
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
        live = [bool(a[lo:lo + CHUNK_SHOTS].any())
                for lo in range(0, shots, CHUNK_SHOTS)]
        assert len(calls) == sum(live)
        assert 0 < len(calls) < len(live)

    @pytest.mark.parametrize("kind", SPLIT_SAMPLERS)
    def test_one_chunk_starts_no_thread(self, monkeypatch, kind):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(rates, "WORKERS", 4)
        monkeypatch.setattr(threading, "Thread", refuse)
        check_split(kind, CHUNK_SHOTS, seed=5)


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

    def test_sweep_grid_shape(self):
        rows = sweep(0.9, 0.5, 3, 2)
        assert len(rows) == 6
        assert {(r.n, r.m) for r in rows} == {(n, m)
                                              for n in (1, 2, 3)
                                              for m in (1, 2)}

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(0.9, 0.5, 0, 3)


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
