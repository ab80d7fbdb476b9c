import json
import struct

import numpy as np
import pytest

import irbm.cli as cli
import irbm.evaluation as ev
from conftest import make_model, random_binary
from irbm.checkpoint import load_checkpoint
from irbm.cli import build_parser, build_run_config, main, write_pgm
from irbm.datasets import (
    Dataset,
    binarize_stochastic,
    read_ibmp,
    synth_bars_and_stripes,
    synth_shifted_patterns,
    write_ibmp,
)
from irbm.training import TrainConfig, Trainer


def run(args):
    return main([str(a) for a in args])


def write_class_sets(tmp_path):
    """The same 40 rows, 6 bits each, labeled with 2 and with 5 classes."""
    rng = np.random.default_rng(3)
    X = (rng.random((40, 6)) < 0.5).astype(np.uint8)
    for C in (2, 5):
        write_ibmp(tmp_path / f"c{C}.ibmp", {"train": Dataset(
            X=X, y=(np.arange(40) % C).astype(np.int32), n_classes=C)})


def train_small(tmp_path, epochs=2, extra=()):
    out = tmp_path / "run"
    code = run(["train", "--dataset", "bars:side=3,n=120,seed=1",
                "--out-dir", out, "--epochs", epochs,
                "--set", "minibatch_size=40", "--set", "seed=5", *extra])
    assert code == 0
    return out


class TestTrain:
    def test_metrics_csv_has_one_row_per_epoch(self, tmp_path, capsys):
        out = train_small(tmp_path, epochs=2)
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "# irbm-metrics v1"
        assert lines[1] == "epoch,avg_loglik,error,N_h,l_t,M_t,max_log_mass"
        assert len(lines) == 4
        assert lines[2].startswith("1,")
        assert lines[3].startswith("2,")

    def test_resume_continues_step_counter(self, tmp_path, capsys):
        out_a = tmp_path / "straight"
        run(["train", "--dataset", "bars:side=3,n=120,seed=1", "--out-dir",
             out_a, "--epochs", 4, "--set", "minibatch_size=40",
             "--set", "seed=5"])
        out_b = tmp_path / "split"
        run(["train", "--dataset", "bars:side=3,n=120,seed=1", "--out-dir",
             out_b, "--epochs", 2, "--set", "minibatch_size=40",
             "--set", "seed=5"])
        code = run(["train", "--dataset", "bars:side=3,n=120,seed=1",
                    "--out-dir", out_b, "--epochs", 4,
                    "--resume", out_b / "checkpoint.irbm",
                    "--set", "minibatch_size=40", "--set", "seed=5"])
        assert code == 0
        a = load_checkpoint(out_a / "checkpoint.irbm")
        b = load_checkpoint(out_b / "checkpoint.irbm")
        assert a.opt.t == b.opt.t
        assert np.array_equal(a.params.W, b.params.W)
        rows = (out_b / "metrics.csv").read_text().strip().splitlines()
        assert [r.split(",")[0] for r in rows[2:]] == ["1", "2", "3", "4"]

    def test_resume_after_crash_before_checkpoint_keeps_one_row_per_epoch(
            self, tmp_path, capsys, monkeypatch):
        import irbm.cli as cli
        args = ["train", "--dataset", "bars:side=3,n=120,seed=1",
                "--set", "minibatch_size=40", "--set", "seed=5"]
        out_a = tmp_path / "straight"
        assert run([*args, "--out-dir", out_a, "--epochs", 4]) == 0

        # the third epoch's row is written, then its checkpoint save fails
        save = cli.save_checkpoint
        saves = []

        def crash_on_third(path, data):
            saves.append(data.epochs_done)
            if len(saves) == 3:
                raise OSError("killed")
            save(path, data)

        monkeypatch.setattr(cli, "save_checkpoint", crash_on_third)
        out_b = tmp_path / "crashed"
        assert run([*args, "--out-dir", out_b, "--epochs", 4]) == 2
        monkeypatch.undo()
        rows = (out_b / "metrics.csv").read_text().strip().splitlines()
        assert [r.split(",")[0] for r in rows[2:]] == ["1", "2", "3"]
        assert load_checkpoint(out_b / "checkpoint.irbm").epochs_done == 2

        assert run([*args, "--out-dir", out_b, "--epochs", 4,
                    "--resume", out_b / "checkpoint.irbm"]) == 0
        assert ((out_b / "metrics.csv").read_text()
                == (out_a / "metrics.csv").read_text())
        assert ((out_b / "checkpoint.irbm").read_bytes()
                == (out_a / "checkpoint.irbm").read_bytes())

    def test_seed_mismatch_on_resume_rejected(self, tmp_path, capsys):
        out = train_small(tmp_path, epochs=1)
        code = run(["train", "--dataset", "bars:side=3,n=120,seed=1",
                    "--out-dir", out, "--epochs", 2,
                    "--resume", out / "checkpoint.irbm",
                    "--set", "minibatch_size=40", "--set", "seed=6"])
        assert code == 1

    @pytest.mark.parametrize("change", [
        ("--set", "beta=1.5"),
        ("--set", "penalty_mode=dynamic"),
        ("--dataset", "bars:side=4,n=120,seed=1"),
    ])
    def test_model_mismatch_on_resume_rejected(self, tmp_path, capsys, change):
        out = train_small(tmp_path, epochs=1)
        before = (out / "checkpoint.irbm").read_bytes()
        code = run(["train", "--dataset", "bars:side=3,n=120,seed=1",
                    "--out-dir", out, "--epochs", 2,
                    "--resume", out / "checkpoint.irbm",
                    "--set", "minibatch_size=40", "--set", "seed=5", *change])
        assert code == 1
        assert "checkpoint model has" in capsys.readouterr().err
        assert (out / "checkpoint.irbm").read_bytes() == before

    @pytest.mark.parametrize("saved, resumed", [
        ([], ["use_pcd=true"]),                           # CD checkpoint, PCD config
        (["use_pcd=true"], []),                           # PCD checkpoint, CD config
        (["use_pcd=true"], ["use_pcd=true", "n_chains=10"]),    # 20 chains, 10 asked
    ])
    def test_chain_mismatch_on_resume_rejected(self, tmp_path, capsys, saved, resumed):
        def train(out, epochs, settings, *extra):
            sets = [a for s in ["minibatch_size=20", "seed=5", *settings]
                    for a in ("--set", s)]
            return run(["train", "--dataset", "bars:side=3,n=60,seed=1",
                        "--out-dir", out, "--epochs", epochs, *sets, *extra])

        straight, out = tmp_path / "straight", tmp_path / "run"
        assert train(straight, 2, saved) == 0
        assert train(out, 1, saved) == 0
        files = ("checkpoint.irbm", "metrics.csv")
        before = [(out / name).read_bytes() for name in files]
        capsys.readouterr()
        resume = ("--resume", out / "checkpoint.irbm")
        assert train(out, 2, resumed, *resume) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: PCD chains: checkpoint holds ")
        assert "Traceback" not in err
        assert [(out / name).read_bytes() for name in files] == before
        # the matching config still continues the trajectory bit for bit
        assert train(out, 2, saved, *resume) == 0
        for name in files:
            assert (out / name).read_bytes() == (straight / name).read_bytes()

    def test_label_mismatch_on_resume_rejected(self, tmp_path, capsys):
        write_class_sets(tmp_path)
        out = tmp_path / "run"
        common = ["--out-dir", out, "--set", "minibatch_size=20",
                  "--set", "seed=5", "--set", "objective=hybrid"]
        assert run(["train", "--dataset", tmp_path / "c2.ibmp", "--epochs", 1,
                    *common]) == 0
        resume = ["--epochs", 2, "--resume", out / "checkpoint.irbm"]
        # five classes on a two-class checkpoint
        assert run(["train", "--dataset", tmp_path / "c5.ibmp", *resume,
                    *common]) == 1
        # a labeled checkpoint under a label-free objective
        assert run(["train", "--dataset", tmp_path / "c2.ibmp", *resume,
                    *common, "--set", "objective=generative"]) == 1
        assert capsys.readouterr().err.count("label classes") == 2
        assert run(["train", "--dataset", tmp_path / "c2.ibmp", *resume,
                    *common]) == 0

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        code = run(["train", "--dataset", "bars:side=3,n=10,seed=1",
                    "--out-dir", tmp_path / "x", "--epochs", 1,
                    "--set", "not_a_key=3"])
        assert code == 1

    def test_labels_required_for_discriminative(self, tmp_path, capsys):
        code = run(["train", "--dataset", "bars:side=3,n=10,seed=1",
                    "--out-dir", tmp_path / "x", "--epochs", 1,
                    "--set", "objective=discriminative"])
        assert code == 1

    def test_large_models_estimate_loglik_on_the_eval_cadence(self, tmp_path, capsys):
        out = tmp_path / "big"
        code = run(["train", "--dataset", "bars:side=5,n=80,seed=1",
                    "--out-dir", out, "--epochs", 2,
                    "--set", "minibatch_size=40", "--set", "seed=5",
                    "--set", "eval_every=2", "--set", "ais_temps=30",
                    "--set", "ais_chains=10"])
        assert code == 0
        rows = (out / "metrics.csv").read_text().strip().splitlines()[2:]
        first, second = rows[0].split(","), rows[1].split(",")
        assert first[1] == ""        # D=25 is above the exact cap
        assert second[1] != ""       # AIS estimate on the cadence
        assert float(second[1]) < 0


    def test_epoch_metrics_build_the_data_posterior_once(self, monkeypatch):
        X = random_binary(31, 300, 6)
        params = make_model(32, D=6, l=4)
        trainer = Trainer(params, TrainConfig(minibatch_size=50), n_train=300)
        trainer.regroup.M_t = 2
        calls = []
        original = ev.marginal_z_posterior

        def counting(p, v, **kwargs):
            calls.append(np.shape(v)[0])
            return original(p, v, **kwargs)

        monkeypatch.setattr(cli, "marginal_z_posterior", counting)
        monkeypatch.setattr(ev, "marginal_z_posterior", counting)
        m = cli._epoch_metrics(trainer, X, None, cli.RunConfig(dataset="x"))
        monkeypatch.undo()
        # the 2^6 enumeration block aside, one build on the 300 rows
        assert calls.count(300) == 1
        zp = original(params, X)
        log_z = ev.exact_log_partition(params)
        assert m["avg_loglik"] == float(np.mean(ev.log_pstar(params, X))) - log_z
        assert m["n_h"] == ev.effective_hidden_size(params, X, 50)
        assert m["max_log_mass"] == float(np.max(zp.mass_at_most(2)))


class TestRunConfig:
    def test_file_plus_override_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join([
            "# comment line",
            "dataset = bars:side=3,n=50,seed=2",
            "epochs = 7",
            "global_lr = 0.2   # trailing comment",
            "regroup_mode = fixed",
        ]))
        config = build_run_config(cfg, ["global_lr=0.3", "seed=9"])
        assert config.dataset == "bars:side=3,n=50,seed=2"
        assert config.epochs == 7
        assert config.train.global_lr == 0.3
        assert config.train.seed == 9
        assert config.train.regroup_mode == "fixed"

    def test_unknown_file_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery = 1\n")
        with pytest.raises(ValueError, match="mystery"):
            build_run_config(cfg)

    def test_optional_int_accepts_none(self, tmp_path):
        config = build_run_config(None, ["momentum_ramp_updates=none",
                                         "n_chains=25"])
        assert config.train.momentum_ramp_updates is None
        assert config.train.n_chains == 25

    def test_dropped_n_perms_key_rejected(self):
        with pytest.raises(ValueError, match="n_perms"):
            build_run_config(None, ["n_perms=5"])

    @pytest.mark.parametrize("setting", [
        "metrics_subsample=0", "checkpoint_every=-2", "ais_temps=1",
        "ais_chains=0", "adagrad_eps=0", "adagrad_eps=nan", "adagrad_eps=inf",
        "global_lr=nan",
        "lr_half_life=nan", "alpha=nan", "l1_weight=nan", "l2_weight=nan",
        "w_bound=nan", "u_bound=nan", "global_lr=inf", "alpha=inf",
        "l1_weight=inf", "l2_weight=inf", "beta=nan", "beta=inf", "beta=1.0",
        "seed=-1", f"seed={2 ** 64}", "exact_cap=-1", "adaptive_switch_epoch=-3",
        "momentum_ramp_updates=-5"])
    def test_bad_setting_rejected_before_any_epoch(self, tmp_path, capsys, setting):
        out = tmp_path / "run"
        code = run(["train", "--dataset", "bars:side=3,n=60,seed=1",
                    "--out-dir", out, "--epochs", 2, "--set", setting])
        assert code == 1
        assert f"error: {setting.split('=')[0]} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_cap_switch_epoch_and_ramp_train(self, tmp_path, capsys):
        # 0 keeps its meaning: always AIS, adaptive from the first epoch end,
        # a one-update momentum ramp
        out = tmp_path / "run"
        assert run(["train", "--dataset", "bars:side=3,n=60,seed=1",
                    "--out-dir", out, "--epochs", 2, "--set", "exact_cap=0",
                    "--set", "regroup_mode=adaptive", "--set", "adaptive_switch_epoch=0",
                    "--set", "momentum_ramp_updates=0", "--set", "eval_every=1",
                    "--set", "ais_temps=20", "--set", "ais_chains=10"]) == 0
        rows = (out / "metrics.csv").read_text().splitlines()[2:]
        assert len(rows) == 2
        assert all(np.isfinite(float(row.split(",")[1])) for row in rows)
        assert load_checkpoint(out / "checkpoint.irbm").regroup.phase == "adaptive"

    def test_largest_storable_seed_trains_and_saves(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--dataset", "bars:side=3,n=60,seed=1",
                    "--out-dir", out, "--epochs", 1,
                    "--set", f"seed={2 ** 64 - 1}"]) == 0
        assert load_checkpoint(out / "checkpoint.irbm").seed == 2 ** 64 - 1

    def test_meaningful_infinities_validate(self):
        # inf means no learning-rate decay and no max-norm clipping
        config = build_run_config(None, ["dataset=bars", "lr_half_life=inf",
                                         "w_bound=inf", "u_bound=inf"])
        assert config.validate() is config
        assert config.train.lr_half_life == config.train.w_bound == \
            config.train.u_bound == float("inf")

    def test_every_key_set_to_its_default_text_gives_the_defaults(self):
        def settings(config):
            return {key: value for key, value in
                    {**vars(config), **vars(config.train)}.items() if key != "train"}

        fresh = cli.RunConfig()
        config = build_run_config(
            None, [f"{key}={value}" for key, value in settings(fresh).items()])
        assert config == fresh
        assert ({key: type(value) for key, value in settings(config).items()}
                == {key: type(value) for key, value in settings(fresh).items()})

    def test_bad_value_names_its_key(self, capsys):
        for setting in ("epochs=two", "use_pcd=maybe", "n_chains=1.5"):
            with pytest.raises(ValueError, match=f"^{setting.split('=')[0]}: "):
                build_run_config(None, [setting])

    def test_epochs_flag_overrides_set(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--dataset", "bars:side=3,n=60,seed=1",
                    "--out-dir", out, "--set", "epochs=3", "--epochs", 2]) == 0
        assert load_checkpoint(out / "checkpoint.irbm").epochs_done == 2
        rows = (out / "metrics.csv").read_text().strip().splitlines()[2:]
        assert [r.split(",")[0] for r in rows] == ["1", "2"]

    def test_zero_epochs_flag_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--dataset", "bars:side=3,n=60,seed=1",
                    "--out-dir", out, "--set", "epochs=3", "--epochs", 0]) == 1
        assert "error: epochs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_floating_point_failure_is_a_runtime_error(self, tmp_path, capsys,
                                                       monkeypatch):
        def overflow(self, X, Y=None):
            raise FloatingPointError("non-finite entries in block W")

        monkeypatch.setattr(Trainer, "run_epoch", overflow)
        code = run(["train", "--dataset", "bars:side=3,n=60,seed=1",
                    "--out-dir", tmp_path / "run", "--epochs", 1])
        assert code == 2
        assert capsys.readouterr().err == "error: non-finite entries in block W\n"


class TestDatasetSpec:
    @pytest.mark.parametrize("spec, build", [
        ("bars", lambda: synth_bars_and_stripes(4, 500, 0)),
        ("bars:", lambda: synth_bars_and_stripes(4, 500, 0)),
        ("bars:side=3,n=120,seed=1", lambda: synth_bars_and_stripes(3, 120, 1)),
        ("bars:side=3,n=60,seed=1", lambda: synth_bars_and_stripes(3, 60, 1)),
        ("bars:side=3,n=60,seed=2", lambda: synth_bars_and_stripes(3, 60, 2)),
        ("bars:side=3,n=40,seed=4", lambda: synth_bars_and_stripes(3, 40, 4)),
        ("bars:side=3,n=10,seed=1", lambda: synth_bars_and_stripes(3, 10, 1)),
        ("bars:side=3,n=50,seed=2", lambda: synth_bars_and_stripes(3, 50, 2)),
        ("bars:side=4,n=120,seed=1", lambda: synth_bars_and_stripes(4, 120, 1)),
        ("bars:side=4,n=40,seed=2", lambda: synth_bars_and_stripes(4, 40, 2)),
        ("bars:side=4,n=500,seed=1", lambda: synth_bars_and_stripes(4, 500, 1)),
        ("bars:side=4,n=300,seed=2", lambda: synth_bars_and_stripes(4, 300, 2)),
        ("bars:side=4,n=300,seed=3", lambda: synth_bars_and_stripes(4, 300, 3)),
        ("bars:side=5,n=80,seed=1", lambda: synth_bars_and_stripes(5, 80, 1)),
        ("bars: side = 3 , n=7", lambda: synth_bars_and_stripes(3, 7, 0)),
        ("shifted", lambda: synth_shifted_patterns(8, 3, 500, 0)),
        ("shifted:length=8,width=3,n=400,seed=2,labeled=1",
         lambda: synth_shifted_patterns(8, 3, 400, 2, labeled=True)),
        ("shifted:length=6,labeled=0",
         lambda: synth_shifted_patterns(6, 3, 500, 0, labeled=False)),
        ("shifted:labeled=true,n=30",
         lambda: synth_shifted_patterns(8, 3, 30, 0, labeled=True)),
    ])
    def test_spec_builds_its_family(self, spec, build):
        got, want = cli.resolve_dataset(spec), build()
        assert np.array_equal(got.X, want.X)
        assert (got.y is None) == (want.y is None)
        if want.y is not None:
            assert np.array_equal(got.y, want.y)
        assert (got.n_classes, got.split) == (want.n_classes, want.split)

    @pytest.mark.parametrize("spec", [
        "bars:sied=3", "bars:side", "shifted:labeled=2", "bars:side=3,",
        "bars:side=three"])
    def test_bad_spec_rejected_by_every_command(self, tmp_path, capsys, spec):
        ckpt = train_small(tmp_path, epochs=1) / "checkpoint.irbm"
        capsys.readouterr()
        out = tmp_path / "bad-run"
        for argv in (["train", "--dataset", spec, "--out-dir", out, "--epochs", 1],
                     ["eval", ckpt, spec, "--split", "train", "--perms", 1],
                     ["check", ckpt, "--dataset", spec, "--perms", 1]):
            assert run(argv) == 1, argv[0]
            captured = capsys.readouterr()
            assert f"error: dataset spec {spec!r}: " in captured.err
            # refused before any work: check prints no result line
            assert captured.out == "", argv[0]
        assert not out.exists()


class TestEval:
    def test_json_report_schema(self, tmp_path, capsys):
        out = train_small(tmp_path)
        code = run(["eval", out / "checkpoint.irbm", "bars:side=3,n=60,seed=2",
                    "--split", "train", "--perms", 2, "--converted-rbm",
                    "--out", tmp_path / "report.json"])
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["format"] == "irbm-eval-report"
        assert payload["version"] == 1
        assert payload["method"] == "exact"
        assert payload["avg_loglik"] < 0
        assert "converted_rbm_loglik" in payload
        assert isinstance(payload["z_m_histogram"], dict)

    def test_missing_split_rejected(self, tmp_path, capsys):
        out = train_small(tmp_path)
        from irbm.datasets import Dataset, write_ibmp
        data = tmp_path / "train_only.ibmp"
        write_ibmp(data, {"train": Dataset(X=np.zeros((4, 9), dtype=np.uint8))})
        code = run(["eval", out / "checkpoint.irbm", data, "--split", "test"])
        assert code == 1

    def test_label_count_mismatch_rejected(self, tmp_path, capsys):
        write_class_sets(tmp_path)
        out = tmp_path / "run"
        assert run(["train", "--dataset", tmp_path / "c2.ibmp", "--epochs", 1,
                    "--out-dir", out, "--set", "minibatch_size=20",
                    "--set", "objective=hybrid"]) == 0
        capsys.readouterr()
        # a two-class checkpoint scored on five classes
        code = run(["eval", out / "checkpoint.irbm", tmp_path / "c5.ibmp",
                    "--split", "train", "--perms", 1])
        assert code == 1
        err = capsys.readouterr().err
        assert "label classes 2" in err and "has 5" in err

    def test_perm_average_reported_for_regrouped_model(self, tmp_path, capsys):
        out = train_small(tmp_path, epochs=3,
                          extra=["--set", "regroup_mode=fixed",
                                 "--set", "regroup_rho=0.7"])
        code = run(["eval", out / "checkpoint.irbm", "bars:side=3,n=60,seed=2",
                    "--split", "train", "--perms", 5,
                    "--histogram-csv", tmp_path / "hist.csv",
                    "--out", tmp_path / "report.json"])
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["n_perms"] == 5
        assert payload["perm_length"] >= 2
        assert "single_order_loglik" in payload
        assert "perm_average_gain" in payload
        hist = (tmp_path / "hist.csv").read_text().splitlines()
        assert hist[0] == "# irbm-histogram v1"
        assert hist[1] == "z,count"
        total = sum(int(line.split(",")[1]) for line in hist[2:])
        assert total == 60


    def test_perms_without_a_regroup_length_report_one_ordering(
            self, tmp_path, capsys):
        out = train_small(tmp_path, epochs=2)
        code = run(["eval", out / "checkpoint.irbm", "bars:side=3,n=60,seed=2",
                    "--split", "train", "--perms", 2,
                    "--out", tmp_path / "report.json"])
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["perm_length"] == 0
        assert payload["n_perms"] == 1
        assert "single_order_loglik" not in payload

    def test_exact_cap_above_default_reaches_the_permutation_averages(
            self, tmp_path, capsys):
        from conftest import make_model
        from irbm.checkpoint import CheckpointData, save_checkpoint
        from irbm.training import OptimizerState, RegroupState
        params = make_model(5, D=16, l=3, scale=0.3)
        ckpt = tmp_path / "bars16.irbm"
        save_checkpoint(ckpt, CheckpointData(
            params=params, opt=OptimizerState.fresh(params),
            regroup=RegroupState(M_t=2, prev_l=3), chains=None, seed=0,
            epochs_done=0))
        code = run(["eval", ckpt, "bars:side=4,n=40,seed=2", "--split", "train",
                    "--exact-cap", 16, "--perms", 3,
                    "--out", tmp_path / "report.json"])
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["method"] == "exact"
        assert "single_order_loglik" in payload


@pytest.mark.parametrize("command, data", [
    ("eval", ["bars:side=3,n=60,seed=2", "--split", "train"]),
    ("check", ["--dataset", "bars:side=3,n=60,seed=2"]),
])
def test_perms_below_one_rejected(tmp_path, capsys, command, data):
    out = train_small(tmp_path, epochs=1)
    capsys.readouterr()
    for perms in (0, -2):
        assert run([command, out / "checkpoint.irbm", *data, "--perms", perms]) == 1
        assert f"--perms must be >= 1, got {perms}" in capsys.readouterr().err


EVAL = ["eval", "{ckpt}", "bars:side=3,n=60,seed=2"]


@pytest.mark.parametrize("argv, flag", [
    (EVAL + ["--ais-temps", 1], "--ais-temps must be >= 2, got 1"),
    (EVAL + ["--ais-temps", -4], "--ais-temps must be >= 2, got -4"),
    (EVAL + ["--ais-chains", 0], "--ais-chains must be >= 1, got 0"),
    (EVAL + ["--seed", -5], "--seed must be in [0, 2**64), got -5"),
    (EVAL + ["--seed", 2 ** 64], f"--seed must be in [0, 2**64), got {2 ** 64}"),
    (["sample", "{ckpt}", "--seed", -1], "--seed must be in [0, 2**64), got -1"),
    (["check", "{ckpt}", "--seed", 2 ** 64], f"--seed must be in [0, 2**64), got {2 ** 64}"),
    (["convert-dataset", "--format", "npz", "--npz", "{ckpt}", "--out", "{out}",
      "--seed", -2], "--seed must be in [0, 2**64), got -2"),
    (EVAL + ["--exact-cap", -1], "--exact-cap must be >= 0, got -1"),
    (["check", "{ckpt}", "--exact-cap", -3], "--exact-cap must be >= 0, got -3"),
    (["sample", "{ckpt}", "--steps", -4], "--steps must be >= 0, got -4"),
])
def test_flags_outside_their_domain_refused_before_loading(tmp_path, capsys, argv, flag):
    # the checkpoint does not exist: a flag refused up front exits 1 naming
    # the flag, where loading it would have exited 2
    paths = {"ckpt": tmp_path / "missing.irbm", "out": tmp_path / "out.ibmp"}
    assert run([str(a).format(**paths) for a in argv]) == 1
    assert f"error: {flag}" in capsys.readouterr().err
    assert not paths["out"].exists()


@pytest.mark.parametrize("argv", [EVAL + ["--exact-cap", 0],
                                  ["check", "{ckpt}", "--exact-cap", 0],
                                  ["sample", "{ckpt}", "--steps", 0]])
def test_zero_cap_and_steps_pass_the_flag_check(argv):
    # --exact-cap 0 means always AIS, and --steps 0 samples the initial chains
    cli._check_flags(build_parser().parse_args([str(a) for a in argv]))


def test_eval_flags_refused_on_an_enumerable_model(tmp_path, capsys):
    out = train_small(tmp_path, epochs=1)
    capsys.readouterr()
    for flags in (["--ais-temps", 1], ["--ais-chains", 0]):
        assert run(["eval", out / "checkpoint.irbm", "bars:side=3,n=60,seed=2",
                    "--split", "train", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {flags[0]} must be" in captured.err


@pytest.mark.parametrize("perm_length", [1000, -3])
@pytest.mark.parametrize("perms", [1, 3])
def test_perm_length_outside_the_pool_rejected(tmp_path, capsys, perm_length,
                                               perms):
    out = train_small(tmp_path, epochs=1)
    l = load_checkpoint(out / "checkpoint.irbm").params.l
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert run(["eval", out / "checkpoint.irbm", "bars:side=3,n=60,seed=2",
                "--split", "train", "--perms", perms,
                "--perm-length", perm_length, "--out", report]) == 1
    assert (f"--perm-length must lie in 0..{l}, got {perm_length}"
            in capsys.readouterr().err)
    assert not report.exists()


class TestSample:
    def test_zero_samples_writes_nothing(self, tmp_path, capsys):
        out = train_small(tmp_path)
        dest = tmp_path / "samples"
        code = run(["sample", out / "checkpoint.irbm", "--steps", 5,
                    "--n-samples", 0, "--out-dir", dest])
        assert code == 0
        assert not dest.exists()

    @pytest.mark.parametrize("n_samples", [2 ** 64, 10 ** 11])
    def test_chains_that_cannot_be_allocated_create_nothing(self, tmp_path, capsys,
                                                            n_samples):
        # 2**64 rows exceed numpy's largest dimension; 10**11 rows of 9
        # units (7.2 TB) exceed the memory
        out = train_small(tmp_path)
        dest = tmp_path / "samples"
        code = run(["sample", out / "checkpoint.irbm", "--steps", 1,
                    "--n-samples", n_samples, "--out-dir", dest])
        assert code == 1
        assert f"--n-samples {n_samples}" in capsys.readouterr().err
        assert not dest.exists()

    def test_default_step_count(self):
        parser = build_parser()
        args = parser.parse_args(["sample", "x.irbm"])
        assert args.steps == 10_000

    def test_deterministic_given_seed(self, tmp_path, capsys):
        out = train_small(tmp_path)
        dests = []
        for name in ("s1", "s2"):
            dest = tmp_path / name
            code = run(["sample", out / "checkpoint.irbm", "--steps", 20,
                        "--n-samples", 9, "--out-dir", dest, "--seed", 3])
            assert code == 0
            dests.append(dest)
        assert (dests[0] / "samples.pgm").read_bytes() == \
               (dests[1] / "samples.pgm").read_bytes()
        assert (dests[0] / "filters.pgm").read_bytes() == \
               (dests[1] / "filters.pgm").read_bytes()

    def test_pgm_writer_format(self, tmp_path):
        img = np.arange(6, dtype=np.uint8).reshape(2, 3)
        write_pgm(tmp_path / "x.pgm", img)
        raw = (tmp_path / "x.pgm").read_bytes()
        assert raw.startswith(b"P5\n3 2\n255\n")
        assert raw.endswith(bytes(range(6)))


class TestCheck:
    def test_fresh_model_passes(self, tmp_path, capsys):
        out = train_small(tmp_path, epochs=1,
                          extra=["--set", "regroup_mode=fixed"])
        code = run(["check", out / "checkpoint.irbm",
                    "--dataset", "bars:side=3,n=40,seed=4"])
        assert code == 0
        text = capsys.readouterr().out
        assert "all checks passed" in text

    def test_untrained_zero_model_passes(self, tmp_path, capsys):
        from irbm.checkpoint import CheckpointData, save_checkpoint
        from irbm.model import zero_model
        from irbm.training import OptimizerState, RegroupState
        params = zero_model(D=6)
        path = tmp_path / "fresh.irbm"
        save_checkpoint(path, CheckpointData(
            params=params, opt=OptimizerState.fresh(params),
            regroup=RegroupState(), chains=None, seed=0, epochs_done=0))
        assert run(["check", path]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_corrupted_checkpoint_fails_with_exit_3(self, tmp_path, capsys):
        out = train_small(tmp_path, epochs=1)
        path = out / "checkpoint.irbm"
        raw = bytearray(path.read_bytes())
        raw[30] ^= 0xFF
        bad = tmp_path / "bad.irbm"
        bad.write_bytes(bytes(raw))
        assert run(["check", bad]) == 3

    def test_corrupt_checkpoint_is_runtime_error_elsewhere(self, tmp_path, capsys):
        out = train_small(tmp_path, epochs=1)
        path = out / "checkpoint.irbm"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        bad = tmp_path / "bad.irbm"
        bad.write_bytes(bytes(raw))
        assert run(["eval", bad, "bars:side=3,n=10,seed=1",
                    "--split", "train"]) == 2


class TestConvertDataset:
    def test_idx_to_packed_bitmap(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        images = rng.integers(0, 256, size=(10, 4, 4), dtype=np.uint8)
        labels = rng.integers(0, 3, size=10, dtype=np.uint8)
        img_path = tmp_path / "img.idx"
        lab_path = tmp_path / "lab.idx"
        with open(img_path, "wb") as f:
            f.write(struct.pack(">iiii", 0x00000803, 10, 4, 4))
            f.write(images.tobytes())
        with open(lab_path, "wb") as f:
            f.write(struct.pack(">ii", 0x00000801, 10))
            f.write(labels.tobytes())
        out = tmp_path / "data.ibmp"
        code = run(["convert-dataset", "--format", "idx", "--images", img_path,
                    "--labels", lab_path, "--seed", 3, "--out", out])
        assert code == 0
        back = read_ibmp(out)
        assert back["train"].X.shape == (10, 16)
        assert np.array_equal(back["train"].y, labels)

    def test_valid_fraction_carves_a_split(self, tmp_path, capsys):
        rng = np.random.default_rng(10)
        images = rng.integers(0, 256, size=(20, 3, 3), dtype=np.uint8)
        img_path = tmp_path / "img.idx"
        with open(img_path, "wb") as f:
            f.write(struct.pack(">iiii", 0x00000803, 20, 3, 3))
            f.write(images.tobytes())
        out = tmp_path / "split.ibmp"
        code = run(["convert-dataset", "--format", "idx", "--images", img_path,
                    "--valid-fraction", 0.25, "--seed", 4, "--out", out])
        assert code == 0
        back = read_ibmp(out)
        assert back["train"].n == 15
        assert back["valid"].n == 5

    def test_valid_fraction_that_empties_a_split_refused(self, tmp_path, capsys):
        # of 20 images, 0.01 rounds to no valid row and 0.99 to no train row
        images = np.random.default_rng(11).integers(0, 256, size=(20, 3, 3),
                                                    dtype=np.uint8)
        img_path = tmp_path / "img.idx"
        with open(img_path, "wb") as f:
            f.write(struct.pack(">iiii", 0x00000803, 20, 3, 3))
            f.write(images.tobytes())
        for fraction, empty in ((0.01, "valid"), (0.99, "train")):
            out = tmp_path / f"split-{fraction}.ibmp"
            code = run(["convert-dataset", "--format", "idx", "--images", img_path,
                        "--valid-fraction", fraction, "--out", out])
            assert code == 1
            assert (f"--valid-fraction {fraction} of 20 images leaves the {empty} "
                    "split empty" in capsys.readouterr().err)
            assert not out.exists()

    def test_npz_to_packed_bitmap(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        npz = tmp_path / "data.npz"
        np.savez(npz,
                 train_x=(rng.random((8, 9)) < 0.5).astype(np.uint8),
                 train_y=rng.integers(0, 4, 8),
                 test_x=(rng.random((5, 9)) < 0.5).astype(np.uint8),
                 test_y=rng.integers(0, 4, 5))
        out = tmp_path / "data.ibmp"
        code = run(["convert-dataset", "--format", "npz", "--npz", npz,
                    "--out", out])
        assert code == 0
        back = read_ibmp(out)
        assert set(back) == {"train", "test"}
        assert back["train"].n == 8
        assert back["test"].n_classes == 4

    def test_npz_splits_draw_their_own_uniforms(self, tmp_path, capsys):
        npz = tmp_path / "half.npz"
        np.savez(npz, train_x=np.full((30, 7), 0.5), test_x=np.full((30, 7), 0.5))
        out = tmp_path / "half.ibmp"
        assert run(["convert-dataset", "--format", "npz", "--npz", npz,
                    "--seed", 5, "--out", out]) == 0
        back = read_ibmp(out)
        # train keeps the bits of binarizing it alone; test does not repeat them
        alone = binarize_stochastic(np.full((30, 7), 0.5), seed=5).X
        assert np.array_equal(back["train"].X, alone)
        assert not np.array_equal(back["test"].X, back["train"].X)

    @pytest.mark.parametrize("arrays", [
        dict(train_x=np.array([[np.nan, 0.5], [0.2, 0.4]])),
        dict(train_x=np.array([[0.0, 1.0], [1.0, 0.0]]),
             test_x=np.array([[0.5, np.nan]])),
        dict(train_x=np.array([[0, 1], [1, 0], [1, 1]], dtype=np.uint8),
             train_y=np.array([0.0, 1.7, 2.2])),
    ])
    def test_npz_nan_and_fractional_labels_rejected(self, tmp_path, capsys, arrays):
        npz = tmp_path / "bad.npz"
        np.savez(npz, **arrays)
        out = tmp_path / "bad.ibmp"
        assert run(["convert-dataset", "--format", "npz", "--npz", npz,
                    "--out", out]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("empty", ["test_x", "test_y"])
    def test_npz_empty_split_rejected_by_name(self, tmp_path, capsys, empty):
        rng = np.random.default_rng(4)
        arrays = dict(train_x=(rng.random((6, 4)) < 0.5).astype(np.uint8),
                      train_y=rng.integers(0, 3, 6),
                      test_x=(rng.random((2, 4)) < 0.5).astype(np.uint8),
                      test_y=rng.integers(0, 3, 2))
        arrays[empty] = arrays[empty][:0]
        npz = tmp_path / "empty.npz"
        np.savez(npz, **arrays)
        out = tmp_path / "empty.ibmp"
        assert run(["convert-dataset", "--format", "npz", "--npz", npz,
                    "--out", out]) == 1
        assert f"error: {empty} is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_npz_empty_array_the_converter_never_reads_ignored(self, tmp_path):
        npz = tmp_path / "extra.npz"
        bits = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        np.savez(npz, train_x=bits, extra_x=bits[:0])
        out = tmp_path / "extra.ibmp"
        assert run(["convert-dataset", "--format", "npz", "--npz", npz,
                    "--out", out]) == 0
        assert np.array_equal(read_ibmp(out)["train"].X, bits)
