"""The benchmark workloads and their per-op correctness checks.

A workload turns ``--seed`` into an endless stream of rounds.  A round is
a list of ops whose op classes are the same in every round and for every
seed, so a run of whole rounds has the same cost mix whatever the seed;
the seed chooses the inputs (eta, q and source figures, sampler seeds,
the noise visibility) and the order of ops within a round.

An op calls the program through module attributes looked up at call
time (``rates.monte_carlo_side``, never a name imported here), so a tracer
installed on the modules sees every call.  An op raises
:class:`CheckFailed` when an output is wrong.
"""

from __future__ import annotations

import itertools
import os
import shutil
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from qparity import cli, photonics, rates

MC_SIGMAS = 5.0
MC_SHOTS = 10 ** 6


class CheckFailed(Exception):
    """An op finished but its output is wrong."""


class Op(NamedTuple):
    cls: str
    run: Callable[[], None]


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# montecarlo: rates and photonics samplers against closed forms
# ---------------------------------------------------------------------------

GRID = tuple(itertools.product((1, 2, 3), (1, 2, 3)))


def check_estimate(label: str, est: float, se: float, truth: float) -> None:
    if se == 0.0:
        check(abs(est - truth) < 1e-12,
              f"{label}: exact estimate {est!r} != closed form {truth!r}")
    else:
        check(abs(est - truth) <= MC_SIGMAS * se,
              f"{label}: {est!r} is {abs(est - truth) / se:.1f} sigma "
              f"from closed form {truth!r}")


class MonteCarlo:
    """Per round 17 estimates at 10^6 shots: monte_carlo_side over the
    (n, m) grid, monte_carlo_rate on its diagonal, monte_carlo_bare for
    n = 1..3 and two coincidence-rate estimates.  eta and q are drawn
    per op, the sizes are fixed."""

    name = "montecarlo"

    def __init__(self, seed: int, root: Path):
        self.rng = np.random.default_rng([seed, 3])

    def rounds(self):
        rng = self.rng

        def eta_q():
            return (float(rng.uniform(0.7, 0.99)),
                    float(rng.uniform(0.25, 0.99)),
                    int(rng.integers(2 ** 63)))

        while True:
            ops = [Op("side", partial(self.side, n, m, *eta_q()))
                   for n, m in GRID]
            ops += [Op("rate", partial(self.rate, n, n, *eta_q()))
                    for n in (1, 2, 3)]
            ops += [Op("bare", partial(self.bare, n, *eta_q()))
                    for n in (1, 2, 3)]
            ops += [Op("coincidence", partial(
                        self.coincidence, sources,
                        float(rng.uniform(0.3, 0.7)),
                        float(rng.uniform(0.5, 0.9)),
                        int(rng.integers(2 ** 63))))
                    for sources in (2, 3)]
            yield [ops[i] for i in rng.permutation(len(ops))]

    @staticmethod
    def side(n, m, eta, q, seed) -> None:
        model = rates.RateModel(eta, q, n, m)
        est, se = rates.monte_carlo_side(model, MC_SHOTS, seed)
        check_estimate(f"side {model}", est, se, rates.p_side(model))

    @staticmethod
    def rate(n, m, eta, q, seed) -> None:
        model = rates.RateModel(eta, q, n, m)
        est, se = rates.monte_carlo_rate(model, MC_SHOTS, seed)
        truth = rates.evaluate(model).p_connect
        check_estimate(f"rate {model}", est, se, truth)

    @staticmethod
    def bare(n, eta, q, seed) -> None:
        est, se = rates.monte_carlo_bare(n, eta, q, MC_SHOTS, seed)
        check_estimate(f"bare n={n} eta={eta} q={q}", est, se,
                       rates.p_connect_bare(n, eta, q))

    @staticmethod
    def coincidence(sources, pair_prob, eta_pair, seed) -> None:
        params = photonics.SourceParams(pair_prob, eta_pair, 1e6)
        est, se = photonics.monte_carlo_coincidence(params, sources, 0.5,
                                                    MC_SHOTS, seed)
        truth = photonics.coincidence_rate(params, sources, 0.5)
        check_estimate(f"coincidence {params} x{sources}", est, se, truth)


# ---------------------------------------------------------------------------
# cli: in-process command runs against goldens
# ---------------------------------------------------------------------------

# Mirrors DETERMINISTIC_COMMANDS of tests/test_acceptance.py.
DETERMINISTIC_COMMANDS = [
    ("encode", "--theta", "1.0471975511965976", "--phi", "0.5"),
    ("syndrome-scan", "--channel", "bit-flip"),
    ("syndrome-scan", "--channel", "phase-flip"),
    ("loss-readout", "--lose", "4,6"),
    ("connect", "--loss", "1"),
    ("rgs-loss", "--loss", "2"),
    ("bare-control", "--loss", "1"),
    ("rate", "--eta", "0.9", "--q", "0.5", "--n-max", "4", "--m-max", "4"),
    ("photonics-rate", "--shots", "300000", "--seed", "8", "--noise", "0.7"),
]

# Mirrors TestGoldens.CASES of tests/test_cli.py.
GOLDEN_COMMANDS = [
    ("encode_d.json", ("encode",)),
    ("syndrome_bitflip.csv", ("syndrome-scan", "--channel", "bit-flip")),
    ("connect_loss1.csv", ("connect", "--loss", "1", "--format", "csv")),
    ("rate_09_05.csv", ("rate", "--eta", "0.9", "--q", "0.5",
                        "--n-max", "3", "--m-max", "3")),
]

GOLDEN_DIR = Path("tests") / "golden"
OUT_NAME = "out"


def noise_commands(visibility: str) -> list:
    return [
        ("encode", "--noise", visibility),
        ("loss-readout", "--lose", "6", "--noise", visibility),
        ("connect", "--loss", "1", "--noise", visibility),
        ("rgs-loss", "--loss", "1", "--noise", visibility),
    ]


def check_cli_output(argv, rc: int, files: dict, golden: bytes | None,
                     reference: dict) -> None:
    """Exit code 0; the main output equals its golden when there is one;
    every written file equals that argv's first output in the run."""
    check(rc == 0, f"{' '.join(argv)}: exit code {rc}")
    check(OUT_NAME in files, f"{' '.join(argv)}: no output written")
    if golden is not None:
        check(files[OUT_NAME] == golden,
              f"{' '.join(argv)}: output differs from its golden")
    first = reference.setdefault(argv, files)
    check(files == first,
          f"{' '.join(argv)}: output differs from the first run's")


class Cli:
    """Per round the 17 command lines users type: the nine deterministic
    acceptance commands, the four golden commands and four --noise
    variants at a seeded visibility, each through ``cli.main``."""

    name = "cli"

    def __init__(self, seed: int, root: Path, goldens: dict | None = None):
        self.rng = np.random.default_rng([seed, 4])
        visibility = repr(round(float(self.rng.uniform(0.6, 0.95)), 4))
        self.commands = [(argv, None) for argv in DETERMINISTIC_COMMANDS]
        for name, argv in GOLDEN_COMMANDS:
            expected = (goldens or {}).get(name)
            if expected is None:
                expected = (root / GOLDEN_DIR / name).read_bytes()
            self.commands.append((argv, expected))
        self.commands += [(argv, None) for argv in noise_commands(visibility)]
        self.reference: dict = {}
        self.bytes_out = 0
        self.workdir = root / ".perfbench_out" / f"cli-{os.getpid()}"

    def rounds(self):
        while True:
            yield [Op(argv[0], partial(self.run_command, argv, golden))
                   for argv, golden in (self.commands[i] for i in
                                        self.rng.permutation(
                                            len(self.commands)))]

    def run_command(self, argv, golden) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        rc = cli.main([*argv, "--out", str(self.workdir / OUT_NAME)])
        files = {p.name: p.read_bytes() for p in self.workdir.iterdir()}
        self.bytes_out += sum(len(b) for b in files.values())
        check_cli_output(argv, rc, files, golden, self.reference)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (MonteCarlo, Cli)}
