"""Exact simulation toolkit for loss-tolerant all-photonic quantum
repeaters built on the nine-qubit Shor / quantum parity code."""

from types import ModuleType as _ModuleType

from .errors import ConditionViolation, ConfigError, PreconditionError
from .photonics import (
    SourceParams,
    apply_visibility_noise,
    chained_postselect_factor,
    coincidence_rate,
    encode_shor_noisy,
    monte_carlo_coincidence,
    noisy_block_fidelity,
    postselected_cnot,
    shor_encoder_sites,
    snr_hv,
)
from .rates import (
    RateModel,
    RateResult,
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
from .rgs import (
    BranchResult,
    RgsSpec,
    Scenario,
    WitnessResult,
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
from .shor import (
    CodeLayout,
    DecodeResult,
    ErrorHypothesis,
    LogicalInput,
    SHOR_LAYOUT,
    SyndromeRecord,
    apply_flip_channel,
    correct,
    decode_readout,
    diagnose,
    encode_block,
    encode_qpc,
    encode_shor,
    measure_syndromes,
    readout_correction_table,
    stabilizers,
)
from .sim import (
    BELL_LABELS,
    DensityMatrix,
    MeasurementRecord,
    PauliString,
    PlanStep,
    PureState,
    apply_pauli,
    apply_pauli_channel,
    apply_unitary,
    draw_branches,
    expectation,
    fidelity,
    make_basis_state,
    measure,
    measure_out,
    measure_pauli,
    partial_trace,
    state_from_qubit,
)

# Every public name imported above, the submodules left out.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]

__version__ = "0.1.0"
