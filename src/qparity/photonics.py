"""Linear-optical realism layer.

Covers the post-selected polarization CNOT, coincidence-rate prediction
for a chain of down-conversion pair sources, and a visibility-based
dephasing model of imperfect two-photon interference.

Each quantum encoder is realized by one interference on a polarizing
beam splitter.  Reduced visibility V means the coherence between the
two interfering polarization components decays by V, i.e. the state
passes a phase-kick channel that applies the site's distinguishing
Pauli with probability (1-V)/2.  A site is therefore described by the
Pauli operator the kick has become once propagated to the end of the
encoding circuit: kicks that happen before a leader's basis rotation
turn into X strings over the leader's block, kicks after the block is
assembled stay Z on a block photon.  This is what lets interference
noise leak population out of the ideal polarization distribution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import and_
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, _check_count, _check_unit
from .rates import _count_hits, _estimate, _fold, _rng
from .shor import LogicalInput, SHOR_LAYOUT, encode_block, encode_shor
from .sim import (
    CNOT,
    DensityMatrix,
    PauliString,
    PureState,
    State,
    apply_pauli_channel,
    apply_unitary,
    fidelity,
)


@dataclass(frozen=True)
class SourceParams:
    """Photon-pair source figures: per-pulse pair probability, pair
    collection efficiency, pulse repetition rate (Hz)."""

    pair_prob: float
    eta_pair: float
    rep_rate: float = 80e6

    def __post_init__(self):
        _check_unit("pair_prob", self.pair_prob)
        _check_unit("eta_pair", self.eta_pair)
        if not (0.0 < self.rep_rate < math.inf):
            raise ConfigError(f"rep_rate {self.rep_rate} must be positive "
                              "and finite")


# ---------------------------------------------------------------------------
# post-selected gates
# ---------------------------------------------------------------------------

POSTSELECT_SUCCESS = 0.5


def postselected_cnot(state: State, control: int, target: int):
    """Polarization CNOT via beam splitter + half-wave plate.

    The gate succeeds with probability 1/2 after post-selecting one
    photon per output port; the success branch acts as an ideal CNOT.
    Returns (success_state, 0.5): the post-selected state and the
    probability of keeping it.
    """
    return apply_unitary(state, CNOT, [control, target]), POSTSELECT_SUCCESS


def chained_postselect_factor(n_stages: int) -> float:
    """Overall acceptance of n_stages independent post-selected stages;
    ``n_stages`` must be an integer >= 0 (ConfigError otherwise)."""
    _check_count("n_stages", n_stages, least=0)
    return POSTSELECT_SUCCESS ** n_stages


# ---------------------------------------------------------------------------
# coincidence rates
# ---------------------------------------------------------------------------

def _check_coincidence(n_sources: int, postselect_factor: float) -> None:
    _check_count("n_sources", n_sources)
    _check_unit("postselect_factor", postselect_factor)


def coincidence_rate(params: SourceParams, n_sources: int = 5,
                     postselect_factor: float = 1.0) -> float:
    """Predicted accepted-event rate (events/second).

    rep_rate * (pair_prob * eta_pair)^n_sources * postselect_factor:
    every source must emit and deliver its pair in the same pulse, and
    the event must survive the optical post-selection.
    """
    _check_coincidence(n_sources, postselect_factor)
    per_pulse = (params.pair_prob * params.eta_pair) ** n_sources
    return params.rep_rate * per_pulse * postselect_factor


# Pulses per block of the coincidence sampler's stream layout.
PULSE_BLOCK = 1_000_000
# Most sources the coincidence sampler takes.  At 64 sources a chunk is
# 1024 pulses, whose buffers of 64 doubles and 129 flags per pulse take
# 641 KiB of rates.CHUNK_BYTES; with a chunk's temporaries a thread
# peaked at 0.76 MiB of NumPy memory.
MAX_SAMPLED_SOURCES = 64


def monte_carlo_coincidence(params: SourceParams, n_sources: int,
                            postselect_factor: float, pulses: int,
                            seed) -> tuple:
    """Pulse-level Monte Carlo of the coincidence rate.

    Per pulse each source emits with pair_prob and delivers with
    eta_pair; the event passes post-selection with postselect_factor.
    Returns (rate estimate, standard error of the rate), both in
    events/second.

    Stream layout: per block of ``PULSE_BLOCK`` pulses, every pulse's
    emissions (k x n_sources), then deliveries (k x n_sources), then
    post-selections (k).  Each block is read in chunks of at most
    ``rates.CHUNK_BYTES`` of buffers by up to ``rates.WORKERS`` threads, so
    memory stays bounded whatever ``pulses`` is; ``MAX_SAMPLED_SOURCES``
    bounds ``n_sources``.  A chunk in which no pulse has every source
    emit advances past its deliveries and post-selections instead of
    drawing them, as almost every chunk does when all sources emit in
    under one pulse in 10^4; the estimate is the same.
    """
    _check_coincidence(n_sources, postselect_factor)
    if n_sources > MAX_SAMPLED_SOURCES:
        raise ConfigError(f"n_sources {n_sources} exceeds the sampler's cap "
                          f"of {MAX_SAMPLED_SOURCES}")
    _check_count("pulses", pulses)
    rng = _rng(seed)
    emitted = (((n_sources, params.pair_prob),),
               functools.partial(_fold, and_))

    def delivered_and_passed(delivered, passed):
        folded = _fold(and_, delivered)
        folded &= passed[:, 0]
        return folded

    stages = (emitted, (((n_sources, params.eta_pair),
                         (1, postselect_factor)), delivered_and_passed))
    hits = sum(_count_hits(rng, min(PULSE_BLOCK, pulses - done), stages)
               for done in range(0, pulses, PULSE_BLOCK))
    p_hat, se_p = _estimate(hits, pulses)
    return params.rep_rate * p_hat, params.rep_rate * se_p


# ---------------------------------------------------------------------------
# visibility noise
# ---------------------------------------------------------------------------

def apply_visibility_noise(state: State, sites: Sequence[PauliString],
                           visibility: float) -> DensityMatrix:
    """Dephase each interference site: rho -> V rho + (1-V) dephased.

    Per site this equals a phase-kick channel applying the site's Pauli
    with probability (1-V)/2; sites compose left to right.
    """
    _check_unit("visibility", visibility)
    p_kick = (1.0 - visibility) / 2.0
    rho = state.to_density()
    for site in sites:
        rho = apply_pauli_channel(rho, site, p_kick)
    return rho


def encoder_sites(kind: str, groups: Sequence[Sequence],
                  index: Mapping | None = None) -> list:
    """Effective site Paulis of an RGS's encoders, in circuit order.

    ``groups`` lists each logical qubit's photons, ``index`` maps photons
    to qubit indices (photons are indices when it is omitted).  The GHZ
    stage kicks the second logical qubit before its basis rotation: an X
    string over an encoded block, Z on a bare photon.  A partially
    encoded RGS rotates its encoded leader after that stage, so the
    block's encoder kick is an X string too; a fully encoded RGS builds
    its blocks last, each leaving a Z kick on its second photon.  A lone
    block (one group) has no GHZ stage.  ``kind`` is "bare", "partial"
    or "encoded" (ConfigError otherwise).
    """
    if kind not in ("bare", "partial", "encoded"):
        raise ConfigError(f"unknown RGS kind {kind!r}: expected 'bare', "
                          "'partial' or 'encoded'")

    def site(photons, letter):
        return PauliString({(index[p] if index else p): letter
                            for p in photons})

    def ghz_kick(group):
        return site(group, "X") if len(group) > 1 else site(group, "Z")

    sites = [ghz_kick(groups[1])] if len(groups) > 1 else []
    if kind == "partial":
        sites += [ghz_kick(g) for g in groups if len(g) > 1]
    elif kind == "encoded":
        sites += [site(g[1:2] or g, "Z") for g in groups]
    return sites


def shor_encoder_sites() -> list:
    """Site Paulis for the four encoders of the nine-qubit code, the
    fully encoded (3, 3) case of :func:`encoder_sites`."""
    return encoder_sites("encoded", [SHOR_LAYOUT.block_qubits(b)
                                     for b in range(SHOR_LAYOUT.n_blocks)])


def encode_shor_noisy(inp: LogicalInput, visibility: float) -> DensityMatrix:
    """Nine-qubit code word with encoder interference noise applied."""
    return apply_visibility_noise(encode_shor(inp), shor_encoder_sites(),
                                  visibility)


def noisy_block_fidelity(visibility: float, m: int = 3) -> float:
    """Fidelity of one noisy code block with the ideal (|0..0>+|1..1>)/sqrt2."""
    s = 1 / math.sqrt(2)
    ideal = encode_block(LogicalInput(s, s), m)
    noisy = apply_visibility_noise(ideal, encoder_sites("encoded", [range(m)]),
                                   visibility)
    return fidelity(noisy, ideal)


def snr_hv(rho: State, ideal: PureState | None = None) -> float:
    """Signal-to-noise ratio of the computational-basis distribution.

    Summed probability on the ideal state's support strings divided by
    the probability everywhere else.  A clean state has no leakage and
    returns inf.
    """
    if ideal is None:
        ideal = encode_shor(LogicalInput.from_angles(math.pi / 2, 0.0))
    if rho.num_qubits != ideal.num_qubits:
        raise ConfigError(f"state has {rho.num_qubits} qubits, ideal has "
                          f"{ideal.num_qubits}")
    probs = rho.probabilities()
    support = np.abs(ideal.amplitudes) ** 2 > 1e-12
    signal = float(probs[support].sum())
    noise = float(probs.sum() - signal)
    if noise <= 1e-15:
        return math.inf
    return signal / noise
