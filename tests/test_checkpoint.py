import io
import struct
import zlib

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


def trained_state(labeled=False, use_pcd=False, epochs=2, seed=31,
                  penalty_mode="constant"):
    X = random_binary(1, 40, 5)
    Y = (np.arange(40) % 3).astype(int) if labeled else None
    config = TrainConfig(
        objective="hybrid" if labeled else "generative",
        alpha=0.01 if labeled else 0.0, use_pcd=use_pcd, cd_steps=1,
        minibatch_size=10, regroup_mode="fixed", regroup_rho=0.6, seed=seed)
    trainer = Trainer(zero_model(D=5, C=3 if labeled else 0,
                                 penalty_mode=penalty_mode), config, n_train=40)
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

    @staticmethod
    def reframed(path, payload: bytes):
        """Write payload under a header whose crc and length match it, so
        only the parser can object."""
        path.write_bytes(b"IRBM" + struct.pack("<IIQ", 1, zlib.crc32(payload),
                                               len(payload)) + payload)

    def test_short_payload_with_valid_crc_ends_early(self, tmp_path):
        trainer, config, _, _ = trained_state(labeled=True, use_pcd=True)
        path = tmp_path / "ck.irbm"
        save_checkpoint(path, snapshot(trainer, config))
        payload = path.read_bytes()[4 + 16:]
        # inside the first struct, inside W, and one byte short of the end
        for cut in (5, 80, len(payload) - 1):
            self.reframed(path, payload[:cut])
            with pytest.raises(CheckpointError, match="ends early"):
                load_checkpoint(path)

    def test_long_payload_with_valid_crc_has_trailing_bytes(self, tmp_path):
        trainer, config, _, _ = trained_state()
        path = tmp_path / "ck.irbm"
        save_checkpoint(path, snapshot(trainer, config))
        self.reframed(path, path.read_bytes()[4 + 16:] + b"\0")
        with pytest.raises(CheckpointError, match="trailing bytes"):
            load_checkpoint(path)


def snapshot(trainer, config) -> CheckpointData:
    return CheckpointData(params=trainer.params, opt=trainer.opt,
                          regroup=trainer.regroup, chains=trainer.chains,
                          seed=config.seed, epochs_done=trainer.epochs_done)


def reference_file(data: CheckpointData) -> bytes:
    """The v1 file as an in-memory serializer lays it out: the payload built
    in a BytesIO, then magic, version, crc32, payload length and payload."""
    p, opt, rg, chains = data.params, data.opt, data.regroup, data.chains
    buf = io.BytesIO()
    flags = ((1 if p.U is not None else 0) | (2 if p.penalty.mode == "dynamic" else 0)
             | (4 if chains is not None else 0)
             | (8 if chains is not None and chains.y is not None else 0))
    buf.write(struct.pack("<Bd", flags, p.penalty.beta))
    buf.write(struct.pack("<III", p.W.shape[1], p.W.shape[0],
                          0 if p.U is None else p.U.shape[1]))
    buf.write(struct.pack("<QQI", data.seed, opt.t, data.epochs_done))
    buf.write(struct.pack("<IBIIdQI", rg.M_t, rg.phase == "adaptive", rg.epoch,
                          rg.prev_l, rg.mode_sum, rg.mode_count, len(rg.mz_history)))
    buf.write(np.array(rg.mz_history, dtype="<f8").tobytes())
    for bundle in (p, opt.acc, opt.vel):
        for arr in (bundle.W, bundle.b_v, bundle.c, bundle.U, bundle.d):
            if arr is not None:
                buf.write(np.asarray(arr, dtype="<f8").tobytes())
    buf.write(np.asarray(opt.unit_age, dtype="<i8").tobytes())
    if chains is not None:
        buf.write(struct.pack("<I", chains.v.shape[0]))
        buf.write(np.asarray(chains.v, dtype="u1").tobytes())
        if chains.y is not None:
            buf.write(np.asarray(chains.y, dtype="<u2").tobytes())
    payload = buf.getvalue()
    return (b"IRBM" + struct.pack("<IIQ", 1, zlib.crc32(payload), len(payload))
            + payload)


class TestStreamedSave:
    """The streamed save writes the bytes of the in-memory v1 layout."""

    @pytest.mark.parametrize("labeled, use_pcd, mode", [
        (True, True, "dynamic"), (False, False, "constant")])
    def test_bytes_equal_the_reference_layout(self, tmp_path, labeled, use_pcd, mode):
        trainer, config, _, _ = trained_state(labeled, use_pcd, penalty_mode=mode)
        data = snapshot(trainer, config)
        assert len(data.regroup.mz_history) == 2
        assert (data.chains is not None) == use_pcd
        assert data.chains is None or (data.chains.y is not None) == labeled
        path = tmp_path / "ck.irbm"
        save_checkpoint(path, data)
        assert path.read_bytes() == reference_file(data)


class TestRecordedHistory:
    """Earlier releases recorded the regroup statistic under every schedule,
    so a fixed checkpoint may hold real M_z values (and, saved between
    updates, a pending mode sum). Such a file loads and resumes the fixed
    trajectory; its history is kept, and each later epoch appends 0.0."""

    def config(self, regroup_mode):
        return TrainConfig(objective="generative", cd_steps=1, minibatch_size=10,
                           regroup_mode=regroup_mode, regroup_rho=0.6,
                           adaptive_switch_epoch=100, seed=41)

    @pytest.mark.parametrize("pending", [False, True])
    def test_fixed_checkpoint_with_a_recorded_history_resumes(self, tmp_path,
                                                               pending):
        X = random_binary(3, 40, 5)
        fixed = self.config("fixed")
        straight = Trainer(zero_model(D=5), fixed, n_train=40)
        for _ in range(4):
            straight.run_epoch(X)
        # before its switch epoch the adaptive schedule is the fixed one that
        # records the statistic, as every schedule once did
        recording = Trainer(zero_model(D=5), self.config("adaptive"), n_train=40)
        for _ in range(2):
            recording.run_epoch(X)
        history = list(recording.regroup.mz_history)
        assert len(history) == 2 and min(history) > 0
        if pending:
            recording.regroup.record_modes(np.array([4.0, 5.0]))
        path = tmp_path / "recorded.irbm"
        path.write_bytes(reference_file(snapshot(recording, fixed)))

        data = load_checkpoint(path)
        assert data.regroup.mz_history == history
        assert data.regroup.mode_sum == (9.0 if pending else 0.0)
        resumed = Trainer(data.params, fixed, n_train=40)
        resumed.restore(data.opt, data.regroup, data.chains, data.epochs_done)
        for _ in range(2):
            resumed.run_epoch(X)

        for name in ("W", "b_v", "c"):
            assert np.array_equal(getattr(resumed.params, name),
                                  getattr(straight.params, name))
            assert np.array_equal(getattr(resumed.opt.acc, name),
                                  getattr(straight.opt.acc, name))
            assert np.array_equal(getattr(resumed.opt.vel, name),
                                  getattr(straight.opt.vel, name))
        assert np.array_equal(resumed.opt.unit_age, straight.opt.unit_age)
        assert resumed.regroup.M_t == straight.regroup.M_t
        assert straight.regroup.mz_history == [0.0] * 4
        # a pending sum is finalized into the first epoch after the resume
        assert resumed.regroup.mz_history == history + ([4.5] if pending else
                                                        [0.0]) + [0.0]
        assert (resumed.regroup.mode_sum, resumed.regroup.mode_count) == (0.0, 0)


class TestAtomicSave:
    """A save that fails part way leaves the previous checkpoint in place,
    byte for byte, and no temporary file next to it."""

    def save_then_fail(self, tmp_path, monkeypatch, target, error, after=0):
        """The patched target raises error on its call number after + 1;
        the calls before that go through."""
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

        original, calls = getattr(*target), []

        def fail(*args, **kwargs):
            calls.append(args)
            if len(calls) > after:
                raise error
            return original(*args, **kwargs)

        monkeypatch.setattr(target[0], target[1], fail)
        with pytest.raises(type(error)):
            save_checkpoint(path, data())
        monkeypatch.undo()
        assert len(calls) == after + 1
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

    def test_failure_half_way_through_the_payload(self, tmp_path, monkeypatch):
        # the unlabeled state writes 11 arrays: the mz history, W, b_v and c
        # of the parameters, accumulators and velocities, and the unit ages;
        # the sixth, the accumulators' b_v, fails
        import irbm.checkpoint as ck
        self.save_then_fail(tmp_path, monkeypatch, (ck, "_write_array"),
                            RuntimeError("disk full"), after=5)

    def test_failure_after_the_bytes_are_written(self, tmp_path, monkeypatch):
        import irbm.checkpoint as ck
        self.save_then_fail(tmp_path, monkeypatch, (ck.os, "fsync"),
                            OSError("disk went away"))
