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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import and_, or_

import numpy as np

DEFAULT_BSM_SUCCESS = 0.5


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


def _sample_side_success(model: RateModel, shots: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Boolean array of per-shot one-side successes.

    Each photon's survival and each intact arm's BSM are sampled
    explicitly so the estimate is independent of the closed forms.
    """
    arrived = rng.random((shots, model.n, model.m)) < model.eta
    alive = _fold(or_, arrived)
    intact = _fold(and_, arrived)
    bsm_ok = rng.random((shots, model.n)) < model.q
    return _fold(and_, alive) & _fold(or_, intact & bsm_ok)


def monte_carlo_side(model: RateModel, shots: int, seed: int):
    """Monte-Carlo estimate of p_side: (estimate, standard error)."""
    if shots < 1:
        raise ValueError("need shots >= 1")
    rng = np.random.default_rng(seed)
    hits = int(_sample_side_success(model, shots, rng).sum())
    p_hat = hits / shots
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / shots)


def monte_carlo_rate(model: RateModel, shots: int, seed: int):
    """Monte-Carlo estimate of p_connect (both sides independently).

    Draw order per shot: left-side photons, left BSMs, right-side
    photons, right BSMs; fixed seed gives a bit-identical estimate.
    """
    if shots < 1:
        raise ValueError("need shots >= 1")
    rng = np.random.default_rng(seed)
    left = _sample_side_success(model, shots, rng)
    right = _sample_side_success(model, shots, rng)
    hits = int((left & right).sum())
    p_hat = hits / shots
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / shots)


def monte_carlo_bare(n: int, eta: float, q: float, shots: int, seed: int):
    """Monte-Carlo estimate of the bare-scheme connection probability.

    Draws every photon's arrival (2 sides x n), then every BSM outcome.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if shots < 1:
        raise ValueError("need shots >= 1")
    rng = np.random.default_rng(seed)
    arrived = rng.random((shots, 2, n)) < eta
    bsm_ok = rng.random((shots, 2, n)) < q
    success = (_fold(and_, arrived.reshape(shots, 2 * n))
               & _fold(and_, _fold(or_, bsm_ok)))
    hits = int(success.sum())
    p_hat = hits / shots
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / shots)
