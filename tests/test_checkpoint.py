import numpy as np
import pytest

from conftest import make_model, random_binary
from irbm.checkpoint import (
    CheckpointData,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from irbm.model import zero_model
from irbm.sampling import FantasyChains
from irbm.training import OptimizerState, RegroupState, TrainConfig, Trainer


def trained_state(labeled=False, use_pcd=False, epochs=2, seed=31):
    X = random_binary(1, 40, 5)
    Y = (np.arange(40) % 3).astype(int) if labeled else None
    config = TrainConfig(
        objective="hybrid" if labeled else "generative",
        alpha=0.01 if labeled else 0.0, use_pcd=use_pcd, cd_steps=1,
        minibatch_size=10, regroup_mode="fixed", regroup_rho=0.6, seed=seed)
    trainer = Trainer(zero_model(D=5, C=3 if labeled else 0), config,
                      n_train=40)
    for _ in range(epochs):
        trainer.run_epoch(X, Y)
    return trainer, config, X, Y


class TestRoundTrip:
    @pytest.mark.parametrize("labeled,use_pcd", [(False, False), (False, True),
                                                 (True, False), (True, True)])
    def test_all_state_survives(self, tmp_path, labeled, use_pcd):
        trainer, config, _, _ = trained_state(labeled, use_pcd)
        path = tmp_path / "ck.irbm"
        save_checkpoint(path, CheckpointData(
            params=trainer.params, opt=trainer.opt, regroup=trainer.regroup,
            chains=trainer.chains, seed=config.seed,
            epochs_done=trainer.epochs_done))
        back = load_checkpoint(path)
        assert np.array_equal(back.params.W, trainer.params.W)
        assert np.array_equal(back.params.b_v, trainer.params.b_v)
        assert np.array_equal(back.params.c, trainer.params.c)
        if labeled:
            assert np.array_equal(back.params.U, trainer.params.U)
            assert np.array_equal(back.params.d, trainer.params.d)
        assert back.params.penalty == trainer.params.penalty
        assert back.opt.t == trainer.opt.t
        assert np.array_equal(back.opt.acc.W, trainer.opt.acc.W)
        assert np.array_equal(back.opt.vel.c, trainer.opt.vel.c)
        assert np.array_equal(back.opt.unit_age, trainer.opt.unit_age)
        assert back.regroup.M_t == trainer.regroup.M_t
        assert back.regroup.mz_history == trainer.regroup.mz_history
        assert back.epochs_done == trainer.epochs_done
        if use_pcd:
            assert np.array_equal(back.chains.v, trainer.chains.v)
            if labeled:
                assert np.array_equal(back.chains.y, trainer.chains.y)
        else:
            assert back.chains is None

    def test_resume_continues_bitwise(self, tmp_path):
        X = random_binary(2, 40, 5)
        config = TrainConfig(objective="generative", use_pcd=True, cd_steps=2,
                             minibatch_size=10, regroup_mode="fixed",
                             regroup_rho=0.7, seed=77)
        straight = Trainer(zero_model(D=5), config, n_train=40)
        for _ in range(4):
            straight.run_epoch(X)

        partial = Trainer(zero_model(D=5), config, n_train=40)
        for _ in range(2):
            partial.run_epoch(X)
        path = tmp_path / "mid.irbm"
        save_checkpoint(path, CheckpointData(
            params=partial.params, opt=partial.opt, regroup=partial.regroup,
            chains=partial.chains, seed=config.seed,
            epochs_done=partial.epochs_done))
        data = load_checkpoint(path)
        resumed = Trainer(data.params, config, n_train=40)
        resumed.restore(data.opt, data.regroup, data.chains, data.epochs_done)
        for _ in range(2):
            resumed.run_epoch(X)

        assert resumed.opt.t == straight.opt.t
        assert np.array_equal(resumed.params.W, straight.params.W)
        assert np.array_equal(resumed.params.c, straight.params.c)
        assert np.array_equal(resumed.opt.acc.W, straight.opt.acc.W)
        assert np.array_equal(resumed.chains.v, straight.chains.v)


class TestIntegrity:
    def test_every_flipped_payload_byte_detected(self, tmp_path):
        trainer, config, _, _ = trained_state()
        path = tmp_path / "ck.irbm"
        save_checkpoint(path, CheckpointData(
            params=trainer.params, opt=trainer.opt, regroup=trainer.regroup,
            chains=trainer.chains, seed=config.seed, epochs_done=2))
        raw = bytearray(path.read_bytes())
        for offset in (24, len(raw) // 2, len(raw) - 1):
            corrupt = bytearray(raw)
            corrupt[offset] ^= 0xFF
            bad = tmp_path / "bad.irbm"
            bad.write_bytes(bytes(corrupt))
            with pytest.raises(CheckpointError):
                load_checkpoint(bad)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "x.irbm"
        p.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(p)

    def test_unknown_version_rejected(self, tmp_path):
        trainer, config, _, _ = trained_state()
        path = tmp_path / "ck.irbm"
        save_checkpoint(path, CheckpointData(
            params=trainer.params, opt=trainer.opt, regroup=trainer.regroup,
            chains=None, seed=config.seed, epochs_done=2))
        raw = bytearray(path.read_bytes())
        raw[4] = 99   # version field
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        trainer, config, _, _ = trained_state()
        path = tmp_path / "ck.irbm"
        save_checkpoint(path, CheckpointData(
            params=trainer.params, opt=trainer.opt, regroup=trainer.regroup,
            chains=None, seed=config.seed, epochs_done=2))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestAtomicSave:
    """A save that fails part way leaves the previous checkpoint in place,
    byte for byte, and no temporary file next to it."""

    def save_then_fail(self, tmp_path, monkeypatch, target, error):
        trainer, config, X, _ = trained_state(epochs=1)
        path = tmp_path / "ck.irbm"

        def data():
            return CheckpointData(
                params=trainer.params, opt=trainer.opt,
                regroup=trainer.regroup, chains=trainer.chains,
                seed=config.seed, epochs_done=trainer.epochs_done)

        save_checkpoint(path, data())
        before = path.read_bytes()
        trainer.run_epoch(X)

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(target[0], target[1], fail)
        with pytest.raises(type(error)):
            save_checkpoint(path, data())
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.irbm"]
        back = load_checkpoint(path)
        assert back.epochs_done == 1
        save_checkpoint(path, data())
        assert load_checkpoint(path).epochs_done == 2

    def test_failure_while_serializing(self, tmp_path, monkeypatch):
        import irbm.checkpoint as ck
        self.save_then_fail(tmp_path, monkeypatch, (ck, "_write_param_set"),
                            RuntimeError("serialization failed"))

    def test_failure_after_the_bytes_are_written(self, tmp_path, monkeypatch):
        import irbm.checkpoint as ck
        self.save_then_fail(tmp_path, monkeypatch, (ck.os, "fsync"),
                            OSError("disk went away"))
