"""Command-line interface: formats, determinism, exit codes, goldens."""

import argparse
import enum
import json
from pathlib import Path

import numpy as np
import pytest

from qparity import cli, shor
from qparity.cli import RATE_GRID_CAP, _json_text, build_parser, main
from qparity.photonics import MAX_SAMPLED_SOURCES

GOLDEN = Path(__file__).parent / "golden"


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    rc = main([*argv, "--out", str(out)])
    return rc, out.read_bytes() if out.exists() else b""


class TestCommands:
    def test_encode_default_is_d_state(self, tmp_path):
        rc, raw = run(tmp_path, "encode")
        assert rc == 0
        data = json.loads(raw)
        assert data["schema_version"] == 1
        assert set(data["nonzero_amplitudes"]) == {
            "000000000", "000111111", "111000111", "111111000"}
        for val in data["stabilizer_expectations"]:
            assert abs(val - 1) < 1e-10

    def test_encode_with_noise_reports_snr(self, tmp_path):
        rc, raw = run(tmp_path, "encode", "--noise", "0.7")
        data = json.loads(raw)
        assert rc == 0
        assert data["noise"]["visibility"] == 0.7
        assert isinstance(data["snr_hv"], float)
        assert len(data["basis_probabilities"]) > 4

    def test_syndrome_scan_theory_line(self, tmp_path):
        rc, raw = run(tmp_path, "syndrome-scan", "--channel", "bit-flip",
                      "--qubit", "4", "--p-values", "0,0.25,0.5,0.75,1")
        assert rc == 0
        lines = raw.decode().strip().splitlines()
        assert lines[1].split(",")[0] == "p"
        sz3 = [float(line.split(",")[3]) for line in lines[2:]]
        for got, p in zip(sz3, (0, 0.25, 0.5, 0.75, 1)):
            assert abs(got - (1 - 2 * p)) < 1e-10

    def test_phase_flip_endpoint(self, tmp_path):
        rc, raw = run(tmp_path, "syndrome-scan", "--channel", "phase-flip",
                      "--p-values", "1")
        row = raw.decode().strip().splitlines()[-1].split(",")
        assert abs(float(row[7]) + 1) < 1e-10  # SX1 column

    def test_loss_readout_perfect(self, tmp_path):
        rc, raw = run(tmp_path, "loss-readout", "--lose", "4,6")
        data = json.loads(raw)
        assert rc == 0
        assert data["lost_photons"] == [4, 6]
        for branch in data["branches"]:
            assert abs(branch["fidelity"] - 1) < 1e-10

    def test_loss_readout_noise_degrades(self, tmp_path):
        rc, raw = run(tmp_path, "loss-readout", "--lose", "6",
                      "--noise", "0.7")
        data = json.loads(raw)
        fids = [b["fidelity"] for b in data["branches"]]
        assert all(f < 1 for f in fids)

    def test_connect_witness_rows(self, tmp_path):
        rc, raw = run(tmp_path, "connect", "--loss", "1", "--format", "csv")
        assert rc == 0
        lines = raw.decode().strip().splitlines()
        assert lines[0].startswith("# schema: connect/v1")
        for line in lines[2:]:
            cells = line.split(",")
            assert abs(float(cells[-2]) - 1) < 1e-10   # fidelity
            assert abs(float(cells[-1]) + 0.5) < 1e-10  # witness

    def test_rgs_loss_rows(self, tmp_path):
        rc, raw = run(tmp_path, "rgs-loss", "--loss", "2", "--format", "csv")
        assert rc == 0
        lines = raw.decode().strip().splitlines()
        assert len(lines) == 2 + 32

    def test_rate_writes_sweep_and_report(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["rate", "--eta", "0.9", "--q", "0.5", "--n-max", "3",
                   "--m-max", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2 + 9
        for line in lines[2:]:
            cells = [float(x) for x in line.split(",")]
            assert abs(cells[5] - cells[4] ** 2) < 1e-12  # p_connect
        report = json.loads((tmp_path / "sweep.json").read_text())
        assert report["optimum"]["p_connect"] <= 1.0

    def test_photonics_rate_report(self, tmp_path):
        rc, raw = run(tmp_path, "photonics-rate", "--shots", "100000",
                      "--seed", "7", "--noise", "0.7")
        data = json.loads(raw)
        assert rc == 0
        assert data["predicted_rate_hz"] > 0
        assert data["monte_carlo"]["seed"] == 7
        assert data["noise"]["block_fidelity"] < 1
        assert isinstance(data["noise"]["snr_hv"], float)

    @pytest.mark.parametrize("factor,stages", [
        ("0.3", None), ("0.125", [0.5] * 3), ("1", []), ("0", None)])
    def test_photonics_rate_stage_factors(self, tmp_path, factor, stages):
        """The listed stage factors multiply to --factor, or are null."""
        rc, raw = run(tmp_path, "photonics-rate", "--factor", factor)
        assert rc == 0
        assert json.loads(raw)["encoder_stage_factors"] == stages


class TestExitCodes:
    # Bad input exits 2 (ConfigError), a physically illegal request 3
    # (PreconditionError); both print one "error:" line.
    INVALID = [
        (("bare-control", "--loss", "2"), 2),
        (("bare-control", "--loss", "-1"), 2),
        (("connect", "--loss", "-1"), 2),
        (("rgs-loss", "--loss", "-1"), 2),
        (("connect", "--loss", "3"), 3),
        (("connect", "--loss", "5"), 3),
        (("rgs-loss", "--loss", "3"), 3),   # condition (ii) violated
        (("photonics-rate", "--shots", "0", "--seed", "1"), 2),
        (("photonics-rate", "--shots", "-5", "--seed", "1"), 2),
        (("photonics-rate", "--shots", "10", "--seed", "-1"), 2),
        (("photonics-rate", "--seed", "-1"), 2),
        (("photonics-rate", "--shots", "10"), 2),   # no --seed
        (("photonics-rate", "--sources", "0"), 2),
        (("photonics-rate", "--factor", "2"), 2),
        (("photonics-rate", "--pair-prob", "2"), 2),
        (("photonics-rate", "--eta-pair", "-1"), 2),
        (("photonics-rate", "--rep-rate", "0"), 2),
        (("photonics-rate", "--rep-rate", "nan"), 2),
        (("photonics-rate", "--rep-rate", "inf", "--shots", "100",
          "--seed", "1"), 2),
        # The cap is checked before the sampler allocates its buffers
        # (about 8 GB at this count).
        (("photonics-rate", "--shots", "10", "--seed", "1", "--sources",
          "100000000"), 2),
        (("syndrome-scan", "--p-values", "0,2"), 2),
        (("syndrome-scan", "--p-values", "x"), 2),
        (("syndrome-scan", "--channel", "amplitude"), 2),
        (("syndrome-scan", "--qubit", "0"), 2),
        (("syndrome-scan", "--qubit", "10"), 2),
        (("loss-readout", "--lose", "10"), 2),
        (("loss-readout", "--lose", "1"), 3),   # the output qubit
        (("loss-readout", "--lose", "4,5,6"), 3),   # condition (ii)
        (("loss-readout", "--lose", "4,4"), 2),
        (("encode", "--theta", "nan"), 2),
        (("encode", "--noise", "2"), 2),
        (("encode", "--config", "/nonexistent"), 2),
        (("rate", "--eta", "nan"), 2),
        (("rate", "--eta", "0.9", "--n-max", "0"), 2),
        (("rate", "--eta", "0.9", "--n-max", "101", "--m-max", "100"), 2),
    ]

    @pytest.mark.parametrize("argv,code", INVALID,
                             ids=[" ".join(a) for a, _ in INVALID])
    def test_invalid_input_exit_code(self, tmp_path, capsys, argv, code):
        rc, _ = run(tmp_path, *argv)
        assert rc == code
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_grid_counts_name_the_count(self, tmp_path, capsys):
        """Two negative counts multiplied into a grid above the cap, and
        the error reported the cap."""
        rc, _ = run(tmp_path, "rate", "--eta", "0.9", "--n-max", "-200",
                    "--m-max", "-200")
        assert rc == 2
        assert capsys.readouterr().err == "error: need n_max >= 1\n"

    def test_rate_grid_cap_is_inclusive(self, tmp_path):
        assert RATE_GRID_CAP == 100 * 100
        rc, _ = run(tmp_path, "rate", "--eta", "0.9", "--n-max", "100",
                    "--m-max", "100")
        assert rc == 0

    def test_sampled_source_cap_is_inclusive_and_documented(self, tmp_path,
                                                            capsys):
        assert MAX_SAMPLED_SOURCES == 64
        rc, _ = run(tmp_path, "photonics-rate", "--shots", "10", "--seed",
                    "1", "--sources", "64")
        assert rc == 0
        with pytest.raises(SystemExit):
            main(["photonics-rate", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "at most 64 sources" in text

    def test_condition_ii_violation(self, tmp_path):
        rc, _ = run(tmp_path, "rgs-loss", "--loss", "3")
        assert rc == 3

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


def flag_sweep():
    """Per subcommand of ``build_parser()``, each float flag at nan, inf,
    -inf, -1 and 2 and each int flag at -1 and 0, one flag at a time;
    required flags otherwise take 0.5, and --shots comes with --seed 1."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    cases = []
    for command, parser in subparsers.choices.items():
        flags = [a for a in parser._actions if a.type in (float, int)]
        required = [arg for a in flags if a.required
                    for arg in (a.option_strings[0], "0.5")]
        for flag in flags:
            values = (("nan", "inf", "-inf", "-1", "2") if flag.type is float
                      else ("-1", "0"))
            for value in values:
                argv = [command, *required, flag.option_strings[0], value]
                if flag.dest == "shots":
                    argv += ["--seed", "1"]
                cases.append(argv)
    return cases


class TestFlagSweep:
    """With the cli's repeated range checks gone, the library refuses bad
    values: no exception escapes ``main``, and a refusal is one
    "error:" line."""

    CASES = flag_sweep()

    def test_sweep_reaches_every_deleted_check(self):
        lines = {" ".join(argv) for argv in self.CASES}
        for line in ("encode --theta nan", "loss-readout --phi inf",
                     "connect --noise 2", "rate --eta 0.5 --q -inf",
                     "rate --eta 0.5 --n-max 0",
                     "photonics-rate --pair-prob -1",
                     "photonics-rate --eta-pair nan",
                     "photonics-rate --factor nan",
                     "photonics-rate --rep-rate inf",
                     "photonics-rate --sources 0",
                     "photonics-rate --shots -1 --seed 1"):
            assert line in lines

    @pytest.mark.parametrize("argv", CASES, ids=[" ".join(a) for a in CASES])
    def test_bad_value_exits_cleanly(self, tmp_path, capsys, argv):
        try:
            rc, _ = run(tmp_path, *argv)
        except SystemExit as exc:
            assert exc.code == 2
            return
        assert rc in (0, 2, 3)
        err = capsys.readouterr().err
        if rc:
            assert err.startswith("error: ")
            assert err.count("\n") == 1 and err.endswith("\n")


class TestParserReuse:
    """One parser per process: reusing it across commands, config files
    and usage errors leaves every output as on its first run."""

    def test_alternating_goldens_with_config_and_usage_error(self, tmp_path):
        parser = build_parser()
        first = {}
        for name, argv in TestGoldens.CASES:
            rc, first[name] = run(tmp_path, *argv)
            assert rc == 0
            assert first[name] == (GOLDEN / name).read_bytes()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"loss": 2, "format": "csv"}))
        rc, from_config = run(tmp_path, "rgs-loss", "--config", str(cfg))
        assert rc == 0
        with pytest.raises(SystemExit):
            main(["encode", "--bogus"])
        for name, argv in reversed(TestGoldens.CASES):
            rc, raw = run(tmp_path, *argv)
            assert rc == 0
            assert raw == first[name]
            assert build_parser() is parser
        rc, from_flags = run(tmp_path, "rgs-loss", "--loss", "2",
                             "--format", "csv")
        assert rc == 0
        assert from_flags == from_config


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"loss": 2, "format": "csv"}))
        out = tmp_path / "o.csv"
        rc = main(["rgs-loss", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().splitlines()) == 34

    def test_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"loss": 3}))
        out = tmp_path / "o.json"
        rc = main(["rgs-loss", "--config", str(cfg), "--loss", "1",
                   "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["loss_count"] == 1

    def test_missing_config_file(self, tmp_path):
        rc = main(["encode", "--config", str(tmp_path / "nope.json")])
        assert rc == 2

    @pytest.mark.parametrize("spelling,loss", [
        (("--loss=1", "--config", "{cfg}"), 1),
        (("--los", "1", "--config", "{cfg}"), 1),
        (("--config={cfg}",), 2),
        (("--conf", "{cfg}", "--loss", "0"), 0),
    ], ids=["flag-equals", "flag-prefix", "config-equals", "config-prefix"])
    def test_every_flag_spelling_beats_config(self, tmp_path, spelling,
                                              loss):
        """The parser's own spellings (``--flag=value``, a unique
        prefix) count as explicit flags, and ``--config=FILE`` is read."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"loss": 2}))
        argv = [arg.format(cfg=cfg) for arg in spelling]
        rc, raw = run(tmp_path, "connect", *argv)
        assert rc == 0
        assert json.loads(raw)["loss_count"] == loss

    @pytest.mark.parametrize("values", [{"loss": "x"}, {"format": "xml"},
                                        {"bogus": 1}])
    def test_config_values_pass_the_flag_checks(self, tmp_path, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        with pytest.raises(SystemExit) as exc:
            main(["connect", "--config", str(cfg)])
        assert exc.value.code == 2

    def test_config_supplies_a_required_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta": 0.9, "n_max": 2, "m_max": 2}))
        rc, raw = run(tmp_path, "rate", "--config", str(cfg))
        assert rc == 0
        assert raw.decode().splitlines()[2].startswith("0.9,0.5,1,1,")

    def test_config_needs_a_path(self, capsys):
        assert main(["encode", "--config"]) == 2
        assert capsys.readouterr().err == "error: --config needs a path\n"


class TestDeterminism:
    COMMANDS = [
        ("encode", "--theta", "1.0471975511965976", "--phi", "0.5"),
        ("syndrome-scan", "--channel", "bit-flip"),
        ("loss-readout", "--lose", "4,6", "--format", "csv"),
        ("connect", "--loss", "1", "--format", "csv"),
        ("rgs-loss", "--loss", "2"),
        ("bare-control", "--loss", "1"),
        ("rate", "--eta", "0.9", "--q", "0.5", "--n-max", "3",
         "--m-max", "3"),
        ("photonics-rate", "--shots", "200000", "--seed", "31337",
         "--noise", "0.7"),
    ]

    @pytest.mark.parametrize("argv", COMMANDS,
                             ids=[c[0] for c in COMMANDS])
    def test_byte_identical_reruns(self, tmp_path, argv):
        a = tmp_path / "a.out"
        b = tmp_path / "b.out"
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        if argv[0] == "rate":
            assert (tmp_path / "a.out.json").read_bytes() == \
                (tmp_path / "b.out.json").read_bytes()


class TestGoldens:
    """Byte-frozen outputs for fixed configurations: one case in ``ALL``
    per file in tests/golden but correction_tables.json."""

    # The benchmark's golden list mirrors these four.
    CASES = [
        ("encode_d.json", ("encode",)),
        ("syndrome_bitflip.csv", ("syndrome-scan", "--channel", "bit-flip")),
        ("connect_loss1.csv", ("connect", "--loss", "1", "--format", "csv")),
        ("rate_09_05.csv", ("rate", "--eta", "0.9", "--q", "0.5",
                            "--n-max", "3", "--m-max", "3")),
    ]

    ALL = CASES + [
        # Both correction paths: readout with 2 photons lost, noisy connect 1.
        ("loss_readout_46.json", ("loss-readout", "--lose", "4,6")),
        ("connect_loss1_noise075.csv", ("connect", "--loss", "1",
                                        "--noise", "0.75",
                                        "--format", "csv")),
        # Coincidence runs with 10 and 8 hits; 20 of 37 chunks skip draws.
        ("photonics_rate_sparse.json", ("photonics-rate", "--shots",
                                        "300000", "--seed", "8",
                                        "--pair-prob", "0.3",
                                        "--eta-pair", "0.5",
                                        "--factor", "0.5")),
        ("photonics_rate_mixed.json", ("photonics-rate", "--shots",
                                       "300000", "--seed", "8",
                                       "--pair-prob", "0.15",
                                       "--eta-pair", "0.9",
                                       "--factor", "0.5")),
        # Chunks not of 8192 pulses: 1024 for 64 sources, 32768 for 2.
        ("photonics_rate_64src.json", ("photonics-rate", "--sources", "64",
                                       "--shots", "20000", "--seed", "3",
                                       "--pair-prob", "0.97",
                                       "--eta-pair", "0.97")),
        ("photonics_rate_2src.json", ("photonics-rate", "--sources", "2",
                                      "--shots", "100000", "--seed", "4",
                                      "--pair-prob", "0.5",
                                      "--eta-pair", "0.7")),
        # JSON the benchmark compares only with its run's own first output.
        ("connect_loss1.json", ("connect", "--loss", "1")),
        ("rgs_loss2.json", ("rgs-loss", "--loss", "2")),
        ("bare_control_loss1.json", ("bare-control", "--loss", "1")),
        ("encode_noise07.json", ("encode", "--noise", "0.7")),
        ("photonics_rate_noise07.json", ("photonics-rate", "--shots",
                                         "300000", "--seed", "8",
                                         "--noise", "0.7")),
        # Commands that build a Shor code word.
        ("syndrome_phaseflip.csv", ("syndrome-scan", "--channel",
                                    "phase-flip")),
        ("encode_theta60_phi05.json", ("encode", "--theta",
                                       "1.0471975511965976",
                                       "--phi", "0.5")),
        ("loss_readout_6_noise07.json", ("loss-readout", "--lose", "6",
                                         "--noise", "0.7")),
    ]

    @pytest.mark.parametrize("name,argv", ALL, ids=[c[0] for c in ALL])
    def test_golden(self, tmp_path, name, argv):
        rc, raw = run(tmp_path, *argv)
        assert rc == 0
        assert raw == (GOLDEN / name).read_bytes()

    def test_every_golden_file_has_one_case(self):
        files = {p.name for p in GOLDEN.iterdir()}
        assert sorted(name for name, _ in self.ALL) == sorted(
            files - {"correction_tables.json"})

    def test_noisy_encode_builds_the_word_once(self, tmp_path, monkeypatch):
        calls = []
        build = shor.encode_qpc
        monkeypatch.setattr(shor, "encode_qpc",
                            lambda *a: calls.append(a) or build(*a))
        rc, raw = run(tmp_path, "encode", "--noise", "0.7")
        assert rc == 0 and len(calls) == 1
        assert raw == (GOLDEN / "encode_noise07.json").read_bytes()


class Level(enum.IntEnum):
    """An int subclass whose repr is not its JSON text."""
    HIGH = 3


def stdlib_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class TestJsonEmitter:
    """cli's JSON emitter against the standard library, byte for byte."""

    # The JSON commands of one benchmark cli round, noise at V = 0.8.
    ROUND = [
        ("encode",),
        ("encode", "--theta", "1.0471975511965976", "--phi", "0.5"),
        ("encode", "--noise", "0.8"),
        ("loss-readout", "--lose", "4,6"),
        ("loss-readout", "--lose", "6", "--noise", "0.8"),
        ("connect", "--loss", "1"),
        ("connect", "--loss", "1", "--noise", "0.8"),
        ("rgs-loss", "--loss", "2"),
        ("rgs-loss", "--loss", "1", "--noise", "0.8"),
        ("bare-control", "--loss", "1"),
        ("rate", "--eta", "0.9", "--q", "0.5", "--n-max", "3", "--m-max", "3"),
        ("rate", "--eta", "0.9", "--q", "0.5", "--n-max", "4", "--m-max", "4"),
        ("photonics-rate", "--shots", "300000", "--seed", "8",
         "--noise", "0.7"),
    ]

    SCALARS = [
        float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e16,
        1e-7, 0.1, 1 / 3, -2.5e300, np.float64(0.1), np.float64("nan"),
        np.float64("-inf"), np.float64(-0.0), True, False, 0, 1, -7, 2 ** 70,
        Level.HIGH,
        None, "", 'say "hi"', "back\\slash", "tab\tline\nnul\x00us\x1fdel\x7f",
        "caf\u00e9 \u03c6+ \U0001d11e", "\u2028",
    ]
    EMPTIES = [[], {}, (), [[]], [{}], {"a": {}}, {"b": []}, ((),)]
    KEYS = ["", "a", "b", "B", "aa", "schema_version", 'q"uote',
            "back\\", "ctl\x01", "\u00e9", "\U0001d11e", "10'"]

    def tree(self, rng, depth):
        pick = rng.random()
        if depth == 0 or pick < 0.25:
            pool = self.SCALARS if rng.random() < 0.85 else self.EMPTIES
            return pool[rng.integers(len(pool))]
        children = [self.tree(rng, depth - 1)
                    for _ in range(rng.integers(0, 5))]
        if pick < 0.5:
            return children
        if pick < 0.6:
            return tuple(children)
        keys = rng.choice(self.KEYS, size=len(children), replace=False)
        return {str(k): c for k, c in zip(keys, children)}

    def test_random_trees_match_stdlib(self):
        rng = np.random.default_rng(20221)
        for _ in range(400):
            obj = self.tree(rng, 4)
            assert _json_text(obj) == stdlib_text(obj)

    @pytest.mark.parametrize("obj", [
        *SCALARS, *EMPTIES,
        pytest.param([SCALARS, EMPTIES, {k: k for k in KEYS}], id="all"),
        pytest.param({"a": [True, 1, False, 0, None],
                      "b": (1.0, 1, np.float64(1.0))}, id="bool-int-float"),
    ], ids=repr)
    def test_fixed_values_match_stdlib(self, obj):
        assert _json_text(obj) == stdlib_text(obj)

    @pytest.mark.parametrize("bad", [
        np.int64(1), np.bool_(True), np.float32(0.5), set(), object(),
        b"bytes", 1j])
    def test_unsupported_values_raise_type_error(self, bad):
        for obj in (bad, [1, bad], {"a": {"b": bad}}):
            with pytest.raises(TypeError):
                stdlib_text(obj)
            with pytest.raises(TypeError, match="is not JSON serializable"):
                _json_text(obj)

    def test_keys_must_be_strings(self):
        # The stdlib coerces these keys; no payload has one.
        for key in (1, 1.5, None, True, ("a",)):
            with pytest.raises(TypeError):
                _json_text({key: 0})

    @pytest.mark.parametrize("argv", ROUND, ids=" ".join)
    def test_cli_payloads_match_stdlib(self, tmp_path, monkeypatch, argv):
        texts = []

        def checked(obj):
            texts.append(_json_text(obj))
            assert texts[-1] == stdlib_text(obj)
            return texts[-1]

        monkeypatch.setattr(cli, "_json_text", checked)
        rc, _ = run(tmp_path, *argv)
        assert rc == 0
        assert len(texts) == 1
