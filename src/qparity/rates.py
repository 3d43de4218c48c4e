"""Connection-probability models for bare and encoded repeater graph
states, plus grid optimization over the code parameters (n, m).

Model for the encoded scheme (n arms per side, m photons per arm, each
photon transmitted with probability eta, one Bell measurement per
intact arm succeeding with probability q):

* an arm is *alive* when at least one of its m photons arrives,
  *intact* when all m arrive;
* a side succeeds when every arm is alive (a fully lost arm destroys
  the graph state) and at least one intact arm's Bell measurement
  succeeds;
* the two sides are independent, so p_connect = p_side^2.

Bell measurements are attempted only on intact arms and carry the
single success parameter q (default 0.5, the linear-optics bound); no
concatenated-measurement boost is modeled.  Whether a logical
connection should instead consume all m photons of an arm is a
modeling choice this module makes explicit rather than hides.

The bare scheme has no redundancy: all 2n photons must arrive and at
least one Bell measurement per side must succeed.

The Monte-Carlo samplers draw every photon's arrival and every Bell
measurement explicitly, so their estimates are independent of the
closed forms.  Their per-arm and per-side any/all reductions run over
axes of one to a few entries, where ``_fold`` is several times faster
than NumPy's axis reduction and gives the same booleans.

Stream layout: a sampler's uniforms are whole arrays, one row per shot,
drawn one after another from a PCG64 stream (for ``monte_carlo_side``:
all shots' photons, then all shots' BSMs).  The samplers count their
hits through ``_count_hits``, which reads the arrays in chunks on up to
``WORKERS`` threads: its counts are those of the whole arrays whatever
the chunk size or thread count, and peak memory is one chunk's buffers
per thread whatever ``shots`` is.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import threading
from dataclasses import dataclass
from operator import and_, or_

import numpy as np

from .errors import ConfigError, _check_count, _check_unit

DEFAULT_BSM_SUCCESS = 0.5

# Largest n_max x m_max grid that sweep and optimize evaluate (about 0.3 s).
GRID_CAP = 10_000

# Bytes of one thread's chunk buffers: per shot of the chunk, a double
# per entry of the widest array and a bool per draw of every array.  A
# 3 x 3 rate model's 8192-shot chunk takes exactly this, 576 KiB +
# 192 KiB, and a chunk's draws, comparisons and folds run in cache.  A
# fixed 8192 shots cost a 1 x 1 model twice the NumPy calls per draw
# of a 3 x 3 one; 2**14 or 2**15 shots for every sampler raised the
# montecarlo workload's peak RSS by 1.7 or 5.8 MB.
CHUNK_BYTES = 768 * 1024

# Threads that count one sampler call: one per core this process may run
# on, at most 4, since each holds its own chunk buffers.
_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1)
WORKERS = min(_CORES, 4)


@dataclass(frozen=True)
class RateModel:
    """Per-photon transmission eta, BSM success q, code parameters n, m."""

    eta: float
    q: float = DEFAULT_BSM_SUCCESS
    n: int = 1
    m: int = 1

    def __post_init__(self):
        _check_unit("eta", self.eta)
        _check_unit("q", self.q)
        object.__setattr__(self, "n", _check_count("n", self.n))
        object.__setattr__(self, "m", _check_count("m", self.m))


@dataclass(frozen=True)
class RateResult:
    n: int
    m: int
    p_side: float
    p_connect: float
    photons_used: int
    efficiency: float

    def to_json_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "p_side": self.p_side,
                "p_connect": self.p_connect,
                "photons_used": self.photons_used,
                "efficiency": self.efficiency}


def p_logical_alive(eta: float, m: int) -> float:
    """Probability an m-photon logical qubit keeps at least one photon."""
    _check_unit("eta", eta)
    m = _check_count("m", m)
    return 1.0 - (1.0 - eta) ** m


def p_side(model: RateModel) -> float:
    """One side succeeds: no arm fully lost, >= 1 intact arm with a
    successful BSM.

    P_alive^n - (P_alive - q eta^m)^n, with P_alive = 1 - (1-eta)^m.
    """
    alive = p_logical_alive(model.eta, model.m)
    good = model.q * model.eta ** model.m
    return alive ** model.n - (alive - good) ** model.n


def evaluate(model: RateModel) -> RateResult:
    ps = p_side(model)
    photons = 2 * model.n * model.m
    return RateResult(n=model.n, m=model.m, p_side=ps, p_connect=ps ** 2,
                      photons_used=photons, efficiency=ps ** 2 / photons)


def _check_bare(n: int, eta: float, q: float) -> int:
    n = _check_count("n", n)
    _check_unit("eta", eta)
    _check_unit("q", q)
    return n


def p_connect_bare(n: int, eta: float, q: float) -> float:
    """Bare GHZ scheme: all 2n photons arrive, >= 1 BSM per side."""
    n = _check_bare(n, eta, q)
    return eta ** (2 * n) * (1.0 - (1.0 - q) ** n) ** 2


def sweep(eta: float, q: float, n_max: int, m_max: int) -> list:
    """Evaluate the (n, m) grid, n-major order, of <= GRID_CAP points."""
    n_max = _check_count("n_max", n_max)
    m_max = _check_count("m_max", m_max)
    if n_max * m_max > GRID_CAP:
        raise ConfigError(f"n_max x m_max = {n_max * m_max} exceeds the "
                          f"grid cap of {GRID_CAP} points")
    return [evaluate(RateModel(eta, q, n, m))
            for n in range(1, n_max + 1) for m in range(1, m_max + 1)]


def optimize(eta: float, q: float, n_max: int, m_max: int,
             metric: str = "p_connect"):
    """Exhaustive grid argmax of p_connect or efficiency.

    Ties break toward fewer photons, then smaller n.  Returns
    (n, m, RateResult).
    """
    if metric not in ("p_connect", "efficiency"):
        raise ConfigError(f"metric must be 'p_connect' or 'efficiency', "
                          f"got {metric!r}")
    res = _best(sweep(eta, q, n_max, m_max), metric)
    return res.n, res.m, res


def _best(results, metric: str) -> RateResult:
    """The optimum of ``results`` by :func:`optimize`'s ranking."""
    return min(results, key=lambda r: (-getattr(r, metric), r.photons_used,
                                       r.n))


def _fold(op, flags: np.ndarray) -> np.ndarray:
    """Reduce a boolean array over its last axis with ``op`` (``or_`` for
    any, ``and_`` for all).

    NumPy runs a loop over the strided slices of that axis several times
    slower than a contiguous one, so neither is used.  A row of 2, 4 or
    8 flags is read as one word of 0x00/0x01 bytes: all set when it is
    0x0101..., some set when it is not 0.  Other rows are folded over the
    flat array, entry i becoming the fold of entries i..i+span-1 as
    ``op`` of the array and itself shifted doubles the span (both ops are
    idempotent, so spans may overlap) until it covers a row; each row's
    first entry is then its fold.  The last axis must not be empty.
    """
    width = flags.shape[-1]
    if width in (2, 4, 8) and flags.strides[-1] == 1:
        words = flags.view(f"u{width}")[..., 0]
        if op is and_:
            return words == int.from_bytes(b"\x01" * width, "little")
        return words != 0
    acc = flags.reshape(-1)
    span = 1
    while span < width:
        step = min(span, width - span)
        acc = op(acc[:-step], acc[step:])
        span += step
    return acc[::width].reshape(flags.shape[:-1]).copy()


def _chunk_rows(widths) -> int:
    """Shots per chunk for arrays of these widths: the largest power of
    two whose buffers fit in ``CHUNK_BYTES``, at most 2**15 and at least
    1.  Unrounded, the 5-source coincidence chunk grew from 8192 to
    15 420 shots and the cli's peak RSS by 0.7 MB; uncapped, the
    montecarlo workload's peak RSS rose by 0.3 MB."""
    fit = CHUNK_BYTES // (8 * max(widths) + sum(widths))
    return min(2 ** 15, 1 << max(fit.bit_length() - 1, 0))


def _count_hits(rng: np.random.Generator, shots: int, stages) -> int:
    """Number of shots that pass every stage of ``stages``.

    Each stage is a ``(draws, test)`` pair.  ``draws`` lists ``(width,
    p)`` pairs; each stands for the flags ``rng.random((shots, width)) <
    p``, every stage's arrays drawn one after another.  ``test`` takes
    one ``(k, width)`` bool array per pair of its stage, the flags of the
    same k shots, and returns k bools.  The shots are read in chunks of
    ``_chunk_rows`` of the widths: once no shot of a chunk has passed
    every stage so far, the chunk's rows of the later arrays are
    advanced past instead of drawn, so a later ``test`` sees only chunks
    where some shot can still succeed, and the count is that of the
    whole arrays.  The shots are split into
    at most ``WORKERS`` contiguous spans of whole chunks: the caller's
    thread counts the first, one thread each the rest, and an exception
    raised in any span is raised here once all have stopped.  A ``test``
    therefore must not call a public qparity name, which a tracer may
    have wrapped.  ``rng`` itself is stepped past every draw at once, as
    the whole-array draws would leave it.
    """
    bitgen = rng.bit_generator
    # These two take one 64-bit output per double, and advance() counts
    # outputs.  np.random is looked up here, not at import: loading it
    # costs about 15 ms.
    if not isinstance(bitgen, (np.random.PCG64, np.random.PCG64DXSM)):
        raise ConfigError(
            f"Monte-Carlo samplers need a PCG64 or PCG64DXSM generator to "
            f"position their chunked draws, got {type(bitgen).__name__}")
    widths = [width for draws, _ in stages for width, _ in draws]
    # NumPy sizes no array of more bytes than an intp holds (a plain
    # ValueError); a chunk holds at least one shot's row of doubles.
    if 8 * max(widths) > np.iinfo(np.intp).max:
        raise ConfigError(f"{max(widths)} draws per shot exceed NumPy's "
                          "array size limit")
    rows = _chunk_rows(widths)
    chunks = -(-shots // rows)
    n_spans = min(WORKERS, chunks)
    edges = [min(shots, i * chunks // n_spans * rows)
             for i in range(n_spans + 1)]
    state = bitgen.state
    spans = []
    for lo, hi in zip(edges, edges[1:]):
        streams = []
        array_start = 0
        for width in widths:
            # A fresh generator given the state: a third of the cost of
            # copy.deepcopy(rng).
            stream = type(bitgen)(0)
            stream.state = state
            stream.advance(array_start + lo * width)
            streams.append(np.random.Generator(stream))
            array_start += shots * width
        # Every span's buffers come from this thread.  Allocated in the
        # workers, they sat in malloc arenas of their own, and the
        # montecarlo workload's peak RSS rose by 0.7-1.4 MB instead of
        # 0.4-0.5 MB.
        k = min(rows, hi - lo)
        spans.append((streams, hi - lo, np.empty(k * max(widths)),
                      [np.empty((k, width), dtype=bool) for width in widths]))
    # advance() drops a buffered 32-bit half, which double draws keep.
    bitgen.advance(array_start)
    bitgen.state = {**bitgen.state, "has_uint32": state["has_uint32"],
                    "uinteger": state["uinteger"]}

    counts = [0] * n_spans

    def count(i):
        try:
            counts[i] = _span_hits(*spans[i], stages)
        except BaseException as exc:  # raised again in the caller
            counts[i] = exc

    threads = []
    try:
        for i in range(1, n_spans):
            thread = threading.Thread(target=count, args=(i,))
            thread.start()
            threads.append(thread)
        count(0)
    finally:
        for thread in threads:
            thread.join()
    for c in counts:
        if isinstance(c, BaseException):
            raise c
    return sum(counts)


def _span_hits(streams, shots: int, uniforms: np.ndarray, flags,
               stages) -> int:
    """Hits over ``shots`` shots whose draws ``streams`` start at, one
    stream per ``(width, p)`` pair of the stages, read in chunks of as
    many shots as ``flags`` has rows: each array's uniforms into
    ``uniforms``, its flags into its entry of ``flags``, both reused from
    chunk to chunk.  A chunk that no shot can still pass advances the
    rest of its streams."""
    rows = len(flags[0])
    hits = 0
    for done in range(0, shots, rows):
        k = min(rows, shots - done)
        passing = None
        i = 0
        for draws, test in stages:
            if passing is not None and not passing.any():
                for stream, flag in zip(streams[i:], flags[i:]):
                    stream.bit_generator.advance(k * flag.shape[1])
                break
            stage_flags = []
            for width, p in draws:
                u = streams[i].random(out=uniforms[:k * width].reshape(k,
                                                                       width))
                stage_flags.append(np.less(u, p, out=flags[i][:k]))
                i += 1
            passed = test(*stage_flags)
            passing = passed if passing is None else passing & passed
        else:
            hits += int(np.count_nonzero(passing))
    return hits


def _side_success(model: RateModel, arrived: np.ndarray,
                  bsm_ok: np.ndarray) -> np.ndarray:
    """Per-shot one-side successes from flags of shape (k, n*m), each
    photon's arrival, and (k, n), each arm's BSM success if attempted.

    Each photon's survival and each intact arm's BSM are sampled
    explicitly so the estimate is independent of the closed forms.
    """
    arrived = arrived.reshape(-1, model.n, model.m)
    alive = _fold(or_, arrived)
    intact = _fold(and_, arrived)
    return _fold(and_, alive) & _fold(or_, intact & bsm_ok)


def _rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``, with a seed that is a number held
    to the count rule: a bool, a float or a negative int raises
    ConfigError, not NumPy's TypeError or plain ValueError."""
    if isinstance(seed, (numbers.Number, np.bool_)):
        seed = _check_count("seed", seed, least=0)
    return np.random.default_rng(seed)


def _estimate(hits: int, shots: int):
    p_hat = hits / shots
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / shots)


def _side_stage(model: RateModel):
    """One side's draws, each photon's arrival then each arm's BSM, and
    its per-shot success test."""
    return (((model.n * model.m, model.eta), (model.n, model.q)),
            functools.partial(_side_success, model))


def monte_carlo_side(model: RateModel, shots: int, seed):
    """Monte-Carlo estimate of p_side: (estimate, standard error).

    ``seed`` is an integer >= 0, a ``SeedSequence`` or anything else
    :func:`numpy.random.default_rng` takes that is not a number; a PCG64
    ``Generator`` is used in place and stepped past the draws.
    """
    shots = _check_count("shots", shots)
    rng = _rng(seed)
    return _estimate(_count_hits(rng, shots, (_side_stage(model),)), shots)


def monte_carlo_rate(model: RateModel, shots: int, seed):
    """Monte-Carlo estimate of p_connect (both sides independently).

    Stream layout: all shots' left-side photons (shots x n*m), then all
    left BSMs (shots x n), then the right side's photons and BSMs, as
    whole arrays.  They are read in chunks of at most ``CHUNK_BYTES`` of
    buffers by up to ``WORKERS`` threads, so memory stays bounded
    whatever ``shots`` is, and a fixed seed gives a bit-identical
    estimate.  A chunk in which no left side succeeds advances past its
    right-side draws.
    """
    shots = _check_count("shots", shots)
    rng = _rng(seed)
    side = _side_stage(model)
    return _estimate(_count_hits(rng, shots, (side, side)), shots)


def monte_carlo_bare(n: int, eta: float, q: float, shots: int, seed):
    """Monte-Carlo estimate of the bare-scheme connection probability.

    Draws every photon's arrival (2 sides x n), then every BSM outcome;
    a chunk in which no shot keeps all its photons skips the BSMs.
    """
    n = _check_bare(n, eta, q)
    shots = _check_count("shots", shots)
    rng = _rng(seed)

    def bsms(bsm_ok):
        return _fold(and_, _fold(or_, bsm_ok.reshape(-1, 2, n)))

    stages = ((((2 * n, eta),), functools.partial(_fold, and_)),
              (((2 * n, q),), bsms))
    return _estimate(_count_hits(rng, shots, stages), shots)
