"""Command-line front end.

Each demonstration runs as one reproducible command emitting JSON or
CSV.  Qubits/photons are numbered from 1 on the command line, matching
the usual photon labels; outputs embed a schema version so downstream
tooling can pin formats.

Exit codes: 0 success, 2 invalid configuration, 3 simulation
precondition violated (illegal loss pattern, destroyed logical qubit).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

from .errors import ConfigError, PreconditionError, _check_count
from .photonics import (
    MAX_SAMPLED_SOURCES,
    SourceParams,
    apply_visibility_noise,
    chained_postselect_factor,
    coincidence_rate,
    encode_shor_noisy,
    encoder_sites,
    monte_carlo_coincidence,
    noisy_block_fidelity,
    shor_encoder_sites,
    snr_hv,
)
from .rates import GRID_CAP as RATE_GRID_CAP, optimize, sweep
from .rgs import (
    bare_loss_scenario,
    encoded_loss_scenario,
    connect_scenario,
    run_connection,
)
from .shor import (
    SHOR_LAYOUT,
    LogicalInput,
    apply_flip_channel,
    decode_readout,
    encode_shor,
    measure_syndromes,
    stabilizers,
)
from .sim import expectation

SCHEMA_VERSION = 1
# Per block, a Z check on each adjacent pair; an X check per adjacent
# block pair (the order of shor.stabilizers).
SYNDROME_COLUMNS = (
    [f"SZ{i}" for i in range(1, SHOR_LAYOUT.n_blocks
                             * (SHOR_LAYOUT.block_size - 1) + 1)]
    + [f"SX{i}" for i in range(1, SHOR_LAYOUT.n_blocks)])
READOUT_COLUMNS = ["branch", "probability", "correction", "fidelity",
                   "degraded"]
WITNESS_COLUMNS = ["branch", "probability", "outcomes", "correction",
                   "xx", "yy", "zz", "fidelity", "witness"]


def _fmt(x) -> str:
    """Deterministic text form for CSV cells."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(rows: list, header: list, schema: str) -> str:
    buf = io.StringIO()
    buf.write(f"# schema: {schema}/v{SCHEMA_VERSION}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])
    return buf.getvalue()


_encode_str = json.encoder.encode_basestring_ascii
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_parts(obj, parts: list, indent: str) -> None:
    """Append the pieces of ``obj``'s JSON text to ``parts``; ``indent`` is
    the newline and indentation of the line ``obj`` starts on.

    Follows the standard library's pure-Python encoder with indent=2 and
    sort_keys=True, type check for type check.  Object keys must be str
    (the stdlib would also coerce int, float, bool and None keys); any
    other key or value raises TypeError.  ``obj`` must be a tree: a cycle
    recurses until RecursionError.
    """
    if isinstance(obj, str):
        parts.append(_encode_str(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, float):
        text = float.__repr__(obj)
        parts.append(_FLOAT_WORDS.get(text, text))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = indent + "  "
        comma = "," + inner
        sep = "[" + inner
        for item in obj:
            parts.append(sep)
            sep = comma
            _json_parts(item, parts, inner)
        parts.append(indent + "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = indent + "  "
        comma = "," + inner
        sep = "{" + inner
        for key in sorted(obj):
            parts.append(sep + _encode_str(key) + ": ")
            sep = comma
            _json_parts(obj[key], parts, inner)
        parts.append(indent + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} "
                        "is not JSON serializable")


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for
    byte, without the stdlib's generator-based indent path."""
    parts = []
    _json_parts(obj, parts, "\n")
    parts.append("\n")
    return "".join(parts)


def _write_json(payload: dict) -> str:
    return _json_text({"schema_version": SCHEMA_VERSION, **payload})


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_floats(text: str) -> list:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad float list {text!r}") from exc


def _parse_qubits(text: str) -> list:
    """Comma list of distinct 1-based photon numbers -> 0-based indices."""
    try:
        nums = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad qubit list {text!r}") from exc
    for q in nums:
        _check_count("photon number", q, most=SHOR_LAYOUT.num_qubits)
    if len(set(nums)) != len(nums):
        raise ConfigError(f"photon list {text!r} repeats a photon")
    return [q - 1 for q in nums]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_encode(args) -> None:
    inp = LogicalInput.from_angles(args.theta, args.phi)
    noise = args.noise
    state = encode_shor(inp)
    rho = (state if noise is None
           else apply_visibility_noise(state, shor_encoder_sites(), noise))
    bits = f"0{SHOR_LAYOUT.num_qubits}b"
    payload = {
        "command": "encode",
        "input": {"theta": args.theta, "phi": args.phi},
        "stabilizers": [s.label() for s in stabilizers()],
        "stabilizer_expectations": [expectation(rho, s)
                                    for s in stabilizers()],
    }
    if noise is None:
        payload["nonzero_amplitudes"] = {
            format(i, bits): [a.real, a.imag]
            for i, a in enumerate(state.amplitudes) if abs(a) > 1e-12
        }
    else:
        payload["noise"] = {"visibility": noise}
        probs = rho.probabilities()
        payload["basis_probabilities"] = {
            format(i, bits): float(p)
            for i, p in enumerate(probs) if p > 1e-12
        }
        snr = snr_hv(rho, state)
        payload["snr_hv"] = "clean" if math.isinf(snr) else snr
    _emit(_write_json(payload), args.out)


def cmd_syndrome_scan(args) -> None:
    kind = args.channel
    if kind not in ("bit-flip", "phase-flip"):
        raise ConfigError(f"--channel must be bit-flip or phase-flip, "
                          f"got {kind!r}")
    default_qubit = 4 if kind == "bit-flip" else 2
    qubit = args.qubit if args.qubit is not None else default_qubit
    _check_count("--qubit", qubit, most=SHOR_LAYOUT.num_qubits)
    p_values = _parse_floats(args.p_values)
    word = encode_shor(LogicalInput.from_angles(args.theta, args.phi))
    rows = []
    for p in p_values:
        rho = apply_flip_channel(word, qubit - 1, kind, p)
        record, _ = measure_syndromes(rho, mode="expectation")
        rows.append([p] + list(record.values))
    text = _write_csv(rows, ["p"] + SYNDROME_COLUMNS, "syndrome-scan")
    _emit(text, args.out)


def cmd_loss_readout(args) -> None:
    inp = LogicalInput.from_angles(args.theta, args.phi)
    noise = args.noise
    losses = _parse_qubits(args.lose) if args.lose else []
    state = encode_shor(inp) if noise is None else encode_shor_noisy(inp,
                                                                     noise)
    branches = decode_readout(state, losses=losses, mode="enumerate")
    if args.format == "csv":
        rows = [
            [i, b.probability, b.correction, b.fidelity_to(inp), b.degraded]
            for i, b in enumerate(branches)
        ]
        _emit(_write_csv(rows, READOUT_COLUMNS, "loss-readout"), args.out)
        return
    payload = {
        "command": "loss-readout",
        "input": {"theta": args.theta, "phi": args.phi},
        "lost_photons": sorted(q + 1 for q in losses),
        "noise_visibility": noise,
        "branches": [b.to_json_dict(inp) for b in branches],
    }
    _emit(_write_json(payload), args.out)


def cmd_witness(args) -> None:
    """connect, rgs-loss and bare-control: per-branch witness rows of the
    command's scenario."""
    noise = args.noise
    scenario = args.scenario_factory(args.loss)
    initial = None
    if noise is not None:
        index = {p: i for i, p in enumerate(scenario.photon_order())}
        sites = encoder_sites(scenario.rgs.kind, scenario.rgs_groups, index)
        initial = apply_visibility_noise(scenario.initial_state(), sites,
                                         noise)
    branches = run_connection(scenario, initial_state=initial)
    if args.format == "csv":
        rows = [
            [i, b.probability, " ".join(b.outcomes), "".join(b.correction),
             b.witness.xx, b.witness.yy, b.witness.zz, b.witness.fidelity,
             b.witness.witness]
            for i, b in enumerate(branches)
        ]
        _emit(_write_csv(rows, WITNESS_COLUMNS, args.command), args.out)
        return
    payload = {
        "command": args.command,
        "loss_count": args.loss,
        "noise_visibility": noise,
        "scenario": scenario.to_json_dict(),
        "branches": [b.to_json_dict() for b in branches],
    }
    _emit(_write_json(payload), args.out)


def cmd_rate(args) -> None:
    rows = [
        [args.eta, args.q, r.n, r.m, r.p_side, r.p_connect, r.efficiency]
        for r in sweep(args.eta, args.q, args.n_max, args.m_max)
    ]
    text = _write_csv(rows, ["eta", "q", "n", "m", "p_side", "p_connect",
                             "efficiency"], "rate")
    n, m, best = optimize(args.eta, args.q, args.n_max, args.m_max,
                          args.metric)
    report = _write_json({
        "command": "rate",
        "eta": args.eta,
        "q": args.q,
        "metric": args.metric,
        "optimum": best.to_json_dict(),
    })
    if args.out:
        _emit(text, args.out)
        json_path = (args.out[:-4] if args.out.endswith(".csv")
                     else args.out) + ".json"
        _emit(report, json_path)
    else:
        sys.stdout.write(text)
        sys.stdout.write(report)


def _stage_factors(factor: float) -> list | None:
    """``factor`` as a list of 1/2 post-selection stages, or None when it
    is not a power of 1/2."""
    if factor <= 0.0:
        return None
    k = round(math.log(factor, 0.5))
    return [0.5] * k if math.isclose(0.5 ** k, factor, rel_tol=1e-12) else None


def cmd_photonics_rate(args) -> None:
    if args.seed is not None and args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    if args.shots is not None and args.seed is None:
        raise ConfigError("--shots needs --seed for reproducibility")
    params = SourceParams(args.pair_prob, args.eta_pair, args.rep_rate)
    # Checks --sources and --factor before _stage_factors takes a log.
    rate = coincidence_rate(params, args.sources, args.factor)
    payload = {
        "command": "photonics-rate",
        "sources": args.sources,
        "pair_prob": args.pair_prob,
        "eta_pair": args.eta_pair,
        "rep_rate": args.rep_rate,
        "postselect_factor": args.factor,
        "encoder_stage_factors": _stage_factors(args.factor),
        "predicted_rate_hz": rate,
    }
    # Before the sampler, so that a bad --noise is refused without
    # drawing (the JSON keys are written sorted).
    if args.noise is not None:
        ideal = encode_shor(LogicalInput.from_angles(math.pi / 2, 0.0))
        sites = shor_encoder_sites()
        snr = snr_hv(apply_visibility_noise(ideal, sites, args.noise), ideal)
        payload["noise"] = {
            "visibility": args.noise,
            "snr_hv": "clean" if math.isinf(snr) else snr,
            "block_fidelity": noisy_block_fidelity(args.noise),
            "interference_sites": [s.label() for s in sites],
        }
    if args.shots is not None:
        est, se = monte_carlo_coincidence(params, args.sources, args.factor,
                                          args.shots, args.seed)
        payload["monte_carlo"] = {"pulses": args.shots, "seed": args.seed,
                                  "rate_hz": est, "rate_se_hz": se}
    _emit(_write_json(payload), args.out)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, formats=("json", "csv"),
                default_format="json") -> None:
    parser.add_argument("--out", help="output file (stdout when omitted)")
    parser.add_argument("--format", choices=formats, default=default_format)
    parser.add_argument("--config",
                        help="JSON file of defaults; explicit flags win")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then reused:
    parsing leaves it unchanged, so every ``main`` call can share it."""
    parser = argparse.ArgumentParser(
        prog="qparity",
        description="Loss-tolerant quantum-parity-code repeater toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a qubit into the 9-qubit code")
    p.add_argument("--theta", type=float, default=math.pi / 2)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--noise", type=float, default=None,
                   help="encoder interference visibility V")
    _add_common(p, formats=("json",))
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("syndrome-scan",
                       help="stabilizer expectations vs channel strength")
    p.add_argument("--channel", default="bit-flip")
    p.add_argument("--qubit", type=int, default=None,
                   help="photon number 1..9 (defaults: 4 bit-flip, "
                        "2 phase-flip)")
    p.add_argument("--p-values", default="0,0.25,0.5,0.75,1")
    p.add_argument("--theta", type=float, default=math.pi / 2)
    p.add_argument("--phi", type=float, default=0.0)
    _add_common(p, formats=("csv",), default_format="csv")
    p.set_defaults(func=cmd_syndrome_scan)

    p = sub.add_parser("loss-readout",
                       help="read the encoded qubit back out under loss")
    p.add_argument("--theta", type=float, default=math.pi / 2)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--lose", default="",
                   help="comma list of lost photon numbers, e.g. 4,6")
    p.add_argument("--noise", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_loss_readout)

    for name, helptext, factory in (
            ("connect", "entanglement connection across the encoded RGS",
             connect_scenario),
            ("rgs-loss", "witness between intact logical qubits under loss",
             encoded_loss_scenario),
            ("bare-control", "bare GHZ control run", bare_loss_scenario)):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--loss", type=int, default=0,
                       help="photons lost from the protected logical qubit")
        p.add_argument("--noise", type=float, default=None)
        _add_common(p)
        p.set_defaults(func=cmd_witness, scenario_factory=factory)

    p = sub.add_parser(
        "rate", help="connection-rate sweep and optimum",
        description=f"Sweep the (n, m) grid and report the optimum; the "
                    f"grid holds at most {RATE_GRID_CAP} points.")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--n-max", type=int, default=5,
                   help=f"n-max x m-max <= {RATE_GRID_CAP}")
    p.add_argument("--m-max", type=int, default=5)
    p.add_argument("--metric", choices=("p_connect", "efficiency"),
                   default="p_connect")
    _add_common(p, formats=("csv",), default_format="csv")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser(
        "photonics-rate",
        help="predicted coincidence rate of the source chain",
        description=f"Predict the coincidence rate of a chain of pair "
                    f"sources; the Monte-Carlo check (--shots) takes at most "
                    f"{MAX_SAMPLED_SOURCES} sources.")
    p.add_argument("--pair-prob", type=float, default=0.06)
    p.add_argument("--eta-pair", type=float, default=0.38)
    p.add_argument("--rep-rate", type=float, default=80e6)
    p.add_argument("--sources", type=int, default=5,
                   help=f"pair sources, at most {MAX_SAMPLED_SOURCES} with "
                        f"--shots")
    p.add_argument("--factor", type=float,
                   default=chained_postselect_factor(4))
    p.add_argument("--shots", type=int, default=None,
                   help="Monte-Carlo pulses (needs --seed)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--noise", type=float, default=None)
    _add_common(p, formats=("json",))
    p.set_defaults(func=cmd_photonics_rate)

    return parser


@functools.cache
def _config_option() -> argparse.ArgumentParser:
    """Finds --config in every spelling the full parser takes for it
    (``--config F``, ``--config=F``, a unique prefix such as ``--conf F``)
    and ignores every other argument."""
    parser = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    parser.add_argument("--config")
    return parser


def _apply_config_file(argv) -> list:
    """Fold --config file values in as defaults; explicit flags win.

    The file's flags go right after the command, so the parser checks
    each with its flag's type and choices, and a later explicit flag in
    any spelling (``--loss=1``, ``--los 1``) overrides it."""
    try:
        path = _config_option().parse_known_args(argv)[0].config
    except argparse.ArgumentError as exc:
        raise ConfigError("--config needs a path") from exc
    if path is None:
        return list(argv)
    try:
        with open(path) as fh:
            values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError("config file must hold a JSON object")
    flags = [arg for key, val in sorted(values.items())
             for arg in ("--" + key.replace("_", "-"), str(val))]
    return argv[:1] + flags + argv[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_apply_config_file(argv))
        args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
