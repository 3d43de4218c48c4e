"""Every public callable under bad numbers, built from its signature.

Each callable in ``qparity.__all__`` that takes a number has one valid
base call below.  Each of its numeric arguments is replaced in turn by
each value of ``NUMBERS`` and ``NOT_NUMBERS`` with warnings as errors:
only ConfigError or PreconditionError may escape, and TypeError too for
the values that are not numbers.  An argument annotated ``int`` (a count or an index) must
refuse True, 2.5 and nan with ConfigError, as it refuses 1.0.
"""

import inspect
import math
import warnings

import numpy as np
import pytest

import qparity
from qparity.errors import ConfigError, PreconditionError
from qparity.sim import PlanStep, walk_stack

BIG = np.int64(2 ** 62)
NUMBERS = [math.nan, math.inf, -math.inf, -1, 0, 1e300, 10 ** 30, BIG, 2.5,
           True]
NOT_NUMBERS = [None, "1"]
NOT_COUNTS = [True, 2.5, math.nan]
NUMERIC = {"int", "float", "complex"}


def _stack():
    return walk_stack(qparity.make_basis_state(2), ("a", "b"),
                      (PlanStep("measure_x", ("a",)),))


# One valid call per public callable that takes a number: keyword
# arguments, or a function of no argument that builds them.
BASE = {
    "SourceParams": dict(pair_prob=0.5, eta_pair=0.5, rep_rate=1e6),
    "apply_visibility_noise": lambda: dict(
        state=qparity.make_basis_state(2),
        sites=[qparity.PauliString({0: "Z"})], visibility=0.9),
    "chained_postselect_factor": dict(n_stages=2),
    "coincidence_rate": lambda: dict(params=qparity.SourceParams(0.5, 0.5),
                                     n_sources=3, postselect_factor=0.5),
    "encode_shor_noisy": lambda: dict(inp=qparity.LogicalInput(0.6, 0.8),
                                      visibility=0.9),
    "monte_carlo_coincidence": lambda: dict(
        params=qparity.SourceParams(0.5, 0.5), n_sources=2,
        postselect_factor=0.5, pulses=10, seed=1),
    "noisy_block_fidelity": dict(visibility=0.9, m=2),
    "postselected_cnot": lambda: dict(state=qparity.make_basis_state(2),
                                      control=0, target=1),
    "RateModel": dict(eta=0.9, q=0.5, n=2, m=2),
    "monte_carlo_bare": dict(n=2, eta=0.9, q=0.5, shots=10, seed=1),
    "monte_carlo_rate": lambda: dict(model=qparity.RateModel(0.9), shots=10,
                                     seed=1),
    "monte_carlo_side": lambda: dict(model=qparity.RateModel(0.9), shots=10,
                                     seed=1),
    "optimize": dict(eta=0.9, q=0.5, n_max=2, m_max=2),
    "sweep": dict(eta=0.9, q=0.5, n_max=2, m_max=2),
    "p_connect_bare": dict(n=2, eta=0.9, q=0.5),
    "p_logical_alive": dict(eta=0.9, m=2),
    "RgsSpec": dict(kind="encoded", n=2, m=2),
    "bare_loss_scenario": dict(loss_count=1),
    "connect_scenario": dict(loss_count=1),
    "encoded_loss_scenario": dict(loss_count=1),
    "CodeLayout": dict(n_blocks=2, block_size=2),
    "LogicalInput": dict(alpha=0.6, beta=0.8),
    "apply_flip_channel": lambda: dict(state=qparity.make_basis_state(2),
                                       qubit=1, kind="bit-flip", p=0.25),
    "encode_block": lambda: dict(inp=qparity.LogicalInput(0.6, 0.8), m=2),
    "encode_qpc": lambda: dict(inp=qparity.LogicalInput(0.6, 0.8), n=2, m=2),
    "MeasurementRecord": dict(qubit=0, basis="Z", outcome=1,
                              probability=0.5),
    "PauliString": dict(factors={0: "X"}, sign=-1),
    "apply_pauli_channel": lambda: dict(state=qparity.make_basis_state(2),
                                        op=qparity.PauliString({1: "X"}),
                                        p=0.25),
    "draw_branches": lambda: dict(stack=_stack(),
                                  rng=np.random.default_rng(0), shots=3),
    "make_basis_state": dict(num_qubits=2),
    "measure": lambda: dict(state=qparity.make_basis_state(2), qubit=1),
    "state_from_qubit": dict(alpha=0.6, beta=0.8, num_qubits=2),
}

# RgsSpec(kind, n, m).build() for each kind, swept on the sizes it is
# built from: n of a bare RGS, m of a partial one, n and m of an encoded
# one.
BUILDS = {"RgsSpec.build bare": (("n",), dict(kind="bare", n=3, m=1)),
          "RgsSpec.build partial": (("m",), dict(kind="partial", n=4, m=2)),
          "RgsSpec.build encoded": (("n", "m"),
                                    dict(kind="encoded", n=2, m=2))}

# Records the library returns: their fields are its outputs, never read
# back as input, and they are not checked.
RECORDS = {"RateResult", "WitnessResult", "BranchResult", "DecodeResult",
           "ErrorHypothesis"}

LEFT_OUT = {
    # A sampler draws every shot or pulse: 10**30 or 2**62 of them run
    # without end.
    (name, param, value) for value in (10 ** 30, BIG)
    for name, param in (("monte_carlo_side", "shots"),
                        ("monte_carlo_rate", "shots"),
                        ("monte_carlo_bare", "shots"),
                        ("monte_carlo_coincidence", "pulses"))
}


def _public_callables():
    for name in qparity.__all__:
        obj = getattr(qparity, name)
        if (callable(obj) and not (isinstance(obj, type)
                                   and issubclass(obj, Exception))):
            yield name, inspect.signature(obj).parameters


def _numeric(params, base) -> list:
    """Names of the parameters annotated as numbers or given a number by
    the base call (a seed)."""
    return [name for name, param in params.items()
            if param.annotation in NUMERIC
            or (isinstance(base.get(name), (int, float))
                and not isinstance(base.get(name), bool))]


def _kwargs(name) -> dict:
    base = BUILDS[name][1] if name in BUILDS else BASE[name]
    return dict(base() if callable(base) else base)


def _call(name, kwargs):
    """The public callable ``name``, or for a BUILDS name the RgsSpec
    built."""
    if name in BUILDS:
        return qparity.RgsSpec(**kwargs).build()
    return getattr(qparity, name)(**kwargs)


def test_every_callable_with_a_number_has_a_base_call():
    missing = [name for name, params in _public_callables()
               if name not in BASE and name not in RECORDS
               and _numeric(params, {})]
    assert not missing


@pytest.mark.parametrize("name", sorted(BASE) + sorted(BUILDS))
def test_base_calls_are_valid(name):
    _call(name, _kwargs(name))


CASES = [(name, param, value)
         for name, params in _public_callables() if name in BASE
         for param in _numeric(params, _kwargs(name))
         for value in NUMBERS + NOT_NUMBERS
         if (name, param, value) not in LEFT_OUT] + [
    (name, param, value) for name, (params, _) in BUILDS.items()
    for param in params for value in NUMBERS + NOT_NUMBERS]


@pytest.mark.parametrize("name,param,value", CASES, ids=repr)
def test_bad_numbers_raise_only_the_documented_errors(name, param, value):
    allowed = (ConfigError, PreconditionError)
    if value in NOT_NUMBERS:
        allowed += (TypeError,)
    kwargs = {**_kwargs(name), param: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            _call(name, kwargs)
        except allowed:
            pass


INT_CASES = [(name, param, value)
             for name, params in _public_callables() if name in BASE
             for param in _numeric(params, _kwargs(name))
             if params[param].annotation == "int"
             for value in NOT_COUNTS] + [
    (name, param, value) for name, (params, _) in BUILDS.items()
    for param in params for value in NOT_COUNTS]


@pytest.mark.parametrize("name,param,value", INT_CASES, ids=repr)
def test_counts_and_indices_refuse_bools_and_floats(name, param, value):
    with pytest.raises(ConfigError, match="must be an integer, got"):
        _call(name, {**_kwargs(name), param: value})


def test_numpy_counts_are_taken_as_python_ints():
    """A NumPy count once wrapped round: to inf, nan and a negative
    qubit count, past the photon and grid caps, and into a sweep that
    never returned."""
    assert qparity.p_connect_bare(BIG, 0.9, 0.5) == 0.0
    result = qparity.evaluate(qparity.RateModel(0.9, 0.5, BIG, 2))
    assert (result.photons_used, result.efficiency) == (2 ** 64, 0.0)
    assert qparity.CodeLayout(BIG, 2).num_qubits == 2 ** 63
    for call in (lambda: qparity.RgsSpec("encoded", BIG, 2),
                 lambda: qparity.encode_qpc(qparity.LogicalInput(1, 0),
                                            BIG, 2),
                 lambda: qparity.monte_carlo_bare(BIG, 0.9, 0.5, 10, 1),
                 lambda: qparity.sweep(0.9, 0.5, BIG, 2)):
        with pytest.raises(ConfigError):
            call()
