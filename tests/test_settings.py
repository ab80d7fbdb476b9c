"""The table of run settings: every configuration key's and checked flag's
domain, declared once next to its field (or in `cli.FLAG_DOMAINS`), and the
commands that read it."""

import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import irbm.cli as cli
from irbm.checkpoint import load_checkpoint
from irbm.cli import RunConfig, build_run_config, parse_key_value_file
from irbm.datasets import read_ibmp
from irbm.model import BETA_MAX, PenaltyConfig
from irbm.training import SEED, Domain, TrainConfig, domains

README = Path(__file__).resolve().parents[1] / "README.md"
BARS = "bars:side=3,n=60,seed=1"
SWEEP = ["nan", "inf", "-inf", "-1", "0", "1e308", "5e-324", str(2 ** 64)]
TABLE = domains(RunConfig, TrainConfig)
# every numeric key: the table's numeric domains, plus beta, whose domain
# PenaltyConfig holds
NUMERIC_KEYS = sorted([k for k, d in TABLE.items() if not d.choices] + ["beta"])
# Loop counts are left out of the sweep at 2**64: that value is valid and only
# means more work (at 1e308 they are not integers, and are swept).
MORE_WORK = {"epochs", "cd_steps", "ais_temps", "ais_chains", "--epochs",
             "--steps", "--n-samples", "--perms", "--ais-temps", "--ais-chains"}


def run(args):
    return cli.main([str(a) for a in args])


def sweep_cases(names):
    return [(name, value) for name in names for value in SWEEP
            if not (name in MORE_WORK and value == str(2 ** 64))]


def finite_numbers(payload):
    """Every number in a JSON payload, nested ones included, is finite."""
    if isinstance(payload, dict):
        return all(finite_numbers(v) for v in payload.values())
    if isinstance(payload, list):
        return all(finite_numbers(v) for v in payload)
    return not isinstance(payload, float) or math.isfinite(payload)


def refused_or_accepted(capsys, code, name, out, accepted):
    """The sweep's two outcomes: exit 1 naming `name` before `out` exists,
    or exit 0 with outputs that `accepted` approves."""
    err = capsys.readouterr().err
    if code == 1:
        assert name in err, err
        assert not out.exists()
    else:
        assert code == 0, err
        assert accepted(), err


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    """A one-epoch 3x3 bars checkpoint, a small npz and an IDX image file."""
    root = tmp_path_factory.mktemp("sweep")
    assert run(["train", "--dataset", BARS, "--epochs", 1, "--out-dir", root / "run"]) == 0
    np.savez(root / "d.npz", train_x=np.eye(4), train_y=np.arange(4))
    images = np.random.default_rng(10).integers(0, 256, size=(20, 3, 3), dtype=np.uint8)
    (root / "img.idx").write_bytes(
        np.array([0x803, 20, 3, 3], dtype=">i4").tobytes() + images.tobytes())
    return root


@pytest.mark.parametrize("key, value", sweep_cases(NUMERIC_KEYS))
def test_every_numeric_key_is_refused_by_name_or_trains(sweep_dir, capsys, key, value):
    out = sweep_dir / f"key-{key}-{value}"
    # eval_every=1 and a small AIS give every epoch a log-likelihood; the
    # swept setting comes last, so it wins
    code = run(["train", "--dataset", BARS, "--epochs", 1, "--out-dir", out,
                "--set", "eval_every=1", "--set", "ais_temps=20",
                "--set", "ais_chains=10", "--set", f"{key}={value}"])

    def accepted():
        rows = (out / "metrics.csv").read_text().splitlines()[2:]
        cells = [row.split(",") for row in rows]
        finite = all(cell[1] and all(math.isfinite(float(c)) for c in cell if c)
                     for cell in cells)
        return len(rows) == 1 and finite and run(["check", out / "checkpoint.irbm"]) == 0

    refused_or_accepted(capsys, code, key, out, accepted)


# command -> (argv before the swept flag, the flags swept, the output flag)
FLAG_COMMANDS = {
    "train": (["train", "--dataset", BARS], ["--epochs"], "--out-dir"),
    "eval": (["eval", "{run}/checkpoint.irbm", BARS, "--split", "train",
              "--ais-temps", 20, "--ais-chains", 10],
             ["--perms", "--perm-length", "--exact-cap", "--ais-temps",
              "--ais-chains", "--seed"], "--out"),
    "sample": (["sample", "{run}/checkpoint.irbm", "--steps", 2, "--n-samples", 4],
               ["--steps", "--n-samples", "--seed"], "--out-dir"),
    "check": (["check", "{run}/checkpoint.irbm", "--dataset", BARS],
              ["--perms", "--exact-cap", "--seed"], None),
    "npz": (["convert-dataset", "--format", "npz", "--npz", "{root}/d.npz"],
            ["--valid-fraction", "--seed"], "--out"),
    "idx": (["convert-dataset", "--format", "idx", "--images", "{root}/img.idx"],
            ["--valid-fraction", "--seed"], "--out"),
}
FLAG_CASES = [(command, flag, value) for command, (_, flags, _) in FLAG_COMMANDS.items()
              for flag, value in sweep_cases(flags)]


@pytest.mark.parametrize("command, flag, value", FLAG_CASES)
def test_every_numeric_flag_is_refused_by_name_or_runs(sweep_dir, capsys, command,
                                                       flag, value):
    base, _, out_flag = FLAG_COMMANDS[command]
    out = sweep_dir / f"flag-{command}{flag}-{value}"
    argv = [str(a).format(root=sweep_dir, run=sweep_dir / "run") for a in base]
    code = run(argv + [flag, value] + ([out_flag, out] if out_flag else []))

    def accepted():
        if command == "train":
            return load_checkpoint(out / "checkpoint.irbm").epochs_done >= 1
        if command == "eval":
            return finite_numbers(json.loads(out.read_text()))
        if command == "sample":       # 0 samples write nothing
            return (out / "samples.pgm").exists() or not out.exists()
        if command == "check":
            return True
        return read_ibmp(out)["train"].n > 0

    # train's flags are --set overrides, refused under their key's name
    name = flag.lstrip("-") if command == "train" else flag
    refused_or_accepted(capsys, code, name, out, accepted)


class TestDomains:
    @pytest.mark.parametrize("domain, text", [
        (SEED, "in [0, 2**64)"),
        (Domain(1), ">= 1"),
        (Domain(0, none=True), ">= 0 or none"),
        (Domain(0.0), "in [0, inf)"),
        (Domain(0.0, math.inf, "(]"), "in (0, inf]"),
        (Domain(0.0, 0.9, "[]"), "in [0, 0.9]"),
        (Domain(choices=("off", "fixed")), "one of ('off', 'fixed')"),
    ])
    def test_text(self, domain, text):
        assert str(domain) == text

    @pytest.mark.parametrize("domain, inside, outside", [
        (SEED, [0, 2 ** 64 - 1], [-1, 2 ** 64, None]),
        (Domain(0.0), [0.0, 5e-324, 1e308], [-5e-324, math.inf, math.nan]),
        (Domain(0.0, math.inf, "(]"), [5e-324, math.inf], [0.0, -math.inf, math.nan]),
        (Domain(0.0, 0.9, "[]"), [0.0, 0.9], [-0.1, 0.91, math.nan]),
        (Domain(0.0, 1.0), [0.0, 0.999], [1.0, math.nan]),
        (Domain(0, none=True), [None, 0, 3], [-1]),
        (Domain(choices=("a", "b")), ["a", "b"], ["c", None]),
    ])
    def test_membership(self, domain, inside, outside):
        for value in inside:
            domain.check("x", value)
        for value in outside:
            with pytest.raises(ValueError, match=re.escape(f"x must be {domain}, got ")):
                domain.check("x", value)

    def test_every_field_but_the_strings_and_the_penalty_has_a_domain(self):
        bare = {"dataset", "out_dir", "resume", "train", "beta", "penalty_mode"}
        names = {f.name for cls in (RunConfig, TrainConfig) for f in fields(cls)}
        assert set(TABLE) == names - bare

    def test_defaults_lie_in_their_domains(self):
        config = RunConfig(dataset="bars")
        assert config.validate() is config

    def test_momentum_start_above_end_rejected(self):
        with pytest.raises(ValueError, match="momentum_start must be <= momentum_end"):
            TrainConfig(momentum_start=0.9, momentum_end=0.5).validate()


def test_readme_example_config_lies_in_the_table(tmp_path):
    text = README.read_text()
    example = text.split("An example file:", 1)[1].split("```")[1]
    path = tmp_path / "readme.cfg"
    path.write_text(example)
    settings = parse_key_value_file(path)
    assert len(settings) >= 10
    # the table, plus the two strings and PenaltyConfig's two keys
    known = set(TABLE) | {"dataset", "out_dir", "beta", "penalty_mode"}
    assert set(settings) <= known, set(settings) - known
    # validate() checks each value against its key's domain
    config = build_run_config(path)
    assert config.validate() is config


class TestSpecDomains:
    @pytest.mark.parametrize("spec, key", [
        ("bars:seed=-1", "seed"),
        (f"bars:side=3,n=60,seed={2 ** 64}", "seed"),
        ("shifted:seed=-2", "seed"),
        ("bars:side=3,n=0,seed=1", "n"),
        ("shifted:n=-4", "n"),
    ])
    def test_spec_key_refused_by_name_before_anything_is_written(
            self, sweep_dir, tmp_path, capsys, spec, key):
        ckpt = sweep_dir / "run" / "checkpoint.irbm"
        out = tmp_path / "run"
        for argv in (["train", "--dataset", spec, "--epochs", 1, "--out-dir", out],
                     ["eval", ckpt, spec, "--split", "train", "--out", out],
                     ["check", ckpt, "--dataset", spec]):
            assert run(argv) == 1, argv[0]
            captured = capsys.readouterr()
            assert f"error: dataset spec {spec!r}: {key} must be " in captured.err
            assert captured.out == ""
        assert not out.exists()

    def test_largest_storable_seed_still_builds(self):
        top = cli.resolve_dataset(f"bars:side=3,n=20,seed={2 ** 64 - 1}")
        assert top.n == 20


class TestBetaBound:
    def test_bound_is_inclusive_and_finite(self):
        assert PenaltyConfig(beta=BETA_MAX).beta == BETA_MAX
        for beta in (BETA_MAX * (1 + 1e-15), 1e14, 1e308, math.inf, math.nan, 1.0):
            with pytest.raises(ValueError, match=r"beta must be in \(1, 1e\+10\], got "):
                PenaltyConfig(beta=beta)

    def test_benchmark_and_readme_betas_accepted(self):
        for beta in (1.01, 1.05):
            assert PenaltyConfig(beta=beta, mode="dynamic").beta == beta

    @pytest.mark.parametrize("beta", ["1e14", "1e20", "1e300"])
    def test_cli_refuses_a_beta_above_the_bound(self, tmp_path, capsys, beta):
        out = tmp_path / "run"
        assert run(["train", "--dataset", BARS, "--epochs", 1, "--out-dir", out,
                    "--set", f"beta={beta}"]) == 1
        assert "error: beta must be in (1, 1e+10]" in capsys.readouterr().err
        assert not out.exists()


class TestConvertValidFraction:
    @pytest.mark.parametrize("fraction", ["0.5", "5e-324"])
    def test_npz_refuses_a_nonzero_fraction(self, sweep_dir, tmp_path, capsys, fraction):
        out = tmp_path / "out.ibmp"
        assert run(["convert-dataset", "--format", "npz", "--npz", sweep_dir / "d.npz",
                    "--valid-fraction", fraction, "--out", out]) == 1
        assert ("error: --valid-fraction only applies to idx conversion"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("fmt, source", [("npz", "--npz"), ("idx", "--images")])
    @pytest.mark.parametrize("fraction", ["nan", "1", "-0.5"])
    def test_domain_checked_for_every_format(self, sweep_dir, tmp_path, capsys,
                                             fmt, source, fraction):
        data = sweep_dir / ("d.npz" if fmt == "npz" else "img.idx")
        out = tmp_path / "out.ibmp"
        assert run(["convert-dataset", "--format", fmt, source, data,
                    "--valid-fraction", fraction, "--out", out]) == 1
        assert (f"error: --valid-fraction must be in [0, 1), got {float(fraction)!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_npz_zero_fraction_still_converts(self, sweep_dir, tmp_path, capsys):
        out = tmp_path / "out.ibmp"
        assert run(["convert-dataset", "--format", "npz", "--npz", sweep_dir / "d.npz",
                    "--valid-fraction", 0, "--out", out]) == 0
        assert read_ibmp(out)["train"].n == 4


def test_unreadable_flag_value_exits_1_naming_the_flag(capsys):
    assert run(["sample", "missing.irbm", "--steps", "nan"]) == 1
    assert "error: argument --steps: invalid int value: 'nan'" in capsys.readouterr().err
