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
axes of one to a few entries, where a slice-by-slice fold is several
times faster than NumPy's axis reduction and gives the same booleans.

Stream layout: a sampler's uniforms are whole arrays, one row per shot,
drawn one after another from a PCG64 stream (for ``monte_carlo_side``:
all shots' photons, then all shots' BSMs).  The samplers read these
arrays in chunks of at most ``CHUNK_SHOTS`` shots, from copies of the
generator advanced to where each array starts, so peak memory does not
grow with ``shots`` and the numbers are those of the whole arrays.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from operator import and_, or_

import numpy as np

DEFAULT_BSM_SUCCESS = 0.5

# Shots per chunk of sampler draws.  A 3 x 3 rate chunk's uniforms take
# 1.5 MB, reused from chunk to chunk: no page faults, and the chunk's
# comparisons and folds run in cache.  2**12..2**15 measured within noise
# of each other on the montecarlo workload; 2**13 was among the fastest.
CHUNK_SHOTS = 2 ** 13


@dataclass(frozen=True)
class RateModel:
    """Per-photon transmission eta, BSM success q, code parameters n, m."""

    eta: float
    q: float = DEFAULT_BSM_SUCCESS
    n: int = 1
    m: int = 1

    def __post_init__(self):
        if not (0.0 <= self.eta <= 1.0):
            raise ValueError(f"eta {self.eta} out of [0, 1]")
        if not (0.0 <= self.q <= 1.0):
            raise ValueError(f"q {self.q} out of [0, 1]")
        if self.n < 1 or self.m < 1:
            raise ValueError("need n >= 1 and m >= 1")


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


def p_connect_bare(n: int, eta: float, q: float) -> float:
    """Bare GHZ scheme: all 2n photons arrive, >= 1 BSM per side."""
    if n < 1:
        raise ValueError("need n >= 1")
    return eta ** (2 * n) * (1.0 - (1.0 - q) ** n) ** 2


def sweep(eta: float, q: float, n_max: int, m_max: int) -> list:
    """Evaluate the full (n, m) grid, n-major order."""
    if n_max < 1 or m_max < 1:
        raise ValueError("empty grid")
    return [evaluate(RateModel(eta, q, n, m))
            for n in range(1, n_max + 1) for m in range(1, m_max + 1)]


def optimize(eta: float, q: float, n_max: int, m_max: int,
             metric: str = "p_connect"):
    """Exhaustive grid argmax of p_connect or efficiency.

    Ties break toward fewer photons, then smaller n.  Returns
    (n, m, RateResult).
    """
    if metric not in ("p_connect", "efficiency"):
        raise ValueError(f"metric must be 'p_connect' or 'efficiency', "
                         f"got {metric!r}")
    best = None
    for res in sweep(eta, q, n_max, m_max):
        key = (-getattr(res, metric), res.photons_used, res.n)
        if best is None or key < best[0]:
            best = (key, res)
    res = best[1]
    return res.n, res.m, res


def _fold(op, flags: np.ndarray) -> np.ndarray:
    """Reduce a boolean array over its last axis with ``op`` (``or_`` for
    any, ``and_`` for all), one slice at a time.

    The last axis must not be empty: the fold has no identity element.
    """
    return functools.reduce(op, (flags[..., j]
                                 for j in range(flags.shape[-1])))


def _uniform_chunks(rng: np.random.Generator, shots: int, widths):
    """Chunks of ``[rng.random((shots, w)) for w in widths]``.

    The returned iterator gives, for each run of at most ``CHUNK_SHOTS``
    shots, one ``(k, w)`` array per width holding exactly those rows of
    the whole arrays.  The arrays are buffers that the next chunk
    overwrites.  ``rng`` itself is stepped past every draw at once, as
    the whole-array draws would leave it.
    """
    bitgen = rng.bit_generator
    # These two take one 64-bit output per double, and advance() counts
    # outputs.  np.random is looked up here, not at import: loading it
    # costs about 15 ms.
    if not isinstance(bitgen, (np.random.PCG64, np.random.PCG64DXSM)):
        raise ValueError(
            f"Monte-Carlo samplers need a PCG64 or PCG64DXSM generator to "
            f"position their chunked draws, got {type(bitgen).__name__}")
    streams = []
    offset = 0
    for w in widths:
        stream = copy.deepcopy(rng)
        stream.bit_generator.advance(offset)
        streams.append(stream)
        offset += shots * w
    # advance() drops a buffered 32-bit half, which double draws keep.
    state = bitgen.state
    bitgen.advance(offset)
    bitgen.state = {**bitgen.state, "has_uint32": state["has_uint32"],
                    "uinteger": state["uinteger"]}
    bufs = [np.empty((min(CHUNK_SHOTS, shots), w)) for w in widths]
    return ([stream.random(out=buf[:min(CHUNK_SHOTS, shots - done)])
             for stream, buf in zip(streams, bufs)]
            for done in range(0, shots, CHUNK_SHOTS))


def _side_success(model: RateModel, photons: np.ndarray,
                  bsms: np.ndarray) -> np.ndarray:
    """Per-shot one-side successes from uniforms of shape (k, n*m) for
    the photons' arrivals and (k, n) for the intact arms' BSMs.

    Each photon's survival and each intact arm's BSM are sampled
    explicitly so the estimate is independent of the closed forms.
    """
    arrived = (photons < model.eta).reshape(-1, model.n, model.m)
    alive = _fold(or_, arrived)
    intact = _fold(and_, arrived)
    bsm_ok = bsms < model.q
    return _fold(and_, alive) & _fold(or_, intact & bsm_ok)


def _estimate(hits: int, shots: int):
    p_hat = hits / shots
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / shots)


def monte_carlo_side(model: RateModel, shots: int, seed):
    """Monte-Carlo estimate of p_side: (estimate, standard error).

    ``seed`` is anything :func:`numpy.random.default_rng` takes; a PCG64
    ``Generator`` is used in place and stepped past the draws.
    """
    if shots < 1:
        raise ValueError("need shots >= 1")
    rng = np.random.default_rng(seed)
    widths = (model.n * model.m, model.n)
    hits = sum(int(np.count_nonzero(_side_success(model, photons, bsms)))
               for photons, bsms in _uniform_chunks(rng, shots, widths))
    return _estimate(hits, shots)


def monte_carlo_rate(model: RateModel, shots: int, seed):
    """Monte-Carlo estimate of p_connect (both sides independently).

    Stream layout: all shots' left-side photons (shots x n*m), then all
    left BSMs (shots x n), then the right side's photons and BSMs, as
    whole arrays.  They are read in chunks of ``CHUNK_SHOTS`` shots, so
    memory stays bounded whatever ``shots`` is, and a fixed seed gives
    a bit-identical estimate.
    """
    if shots < 1:
        raise ValueError("need shots >= 1")
    rng = np.random.default_rng(seed)
    nm = model.n * model.m
    hits = sum(int(np.count_nonzero(_side_success(model, lp, lb)
                                    & _side_success(model, rp, rb)))
               for lp, lb, rp, rb in _uniform_chunks(
                   rng, shots, (nm, model.n, nm, model.n)))
    return _estimate(hits, shots)


def monte_carlo_bare(n: int, eta: float, q: float, shots: int, seed):
    """Monte-Carlo estimate of the bare-scheme connection probability.

    Draws every photon's arrival (2 sides x n), then every BSM outcome.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if shots < 1:
        raise ValueError("need shots >= 1")
    rng = np.random.default_rng(seed)
    hits = 0
    for photons, bsms in _uniform_chunks(rng, shots, (2 * n, 2 * n)):
        bsm_ok = (bsms < q).reshape(-1, 2, n)
        success = (_fold(and_, photons < eta)
                   & _fold(and_, _fold(or_, bsm_ok)))
        hits += int(np.count_nonzero(success))
    return _estimate(hits, shots)
