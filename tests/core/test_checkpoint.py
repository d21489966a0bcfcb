"""Durable training: atomic checkpoints, corrupt-skip, exact resume
(ISSUE 7: checkpoint/resume)."""

import json
import os

import numpy as np
import pytest

from repro.core import QPPNet, QPPNetConfig, Trainer
from repro.core.checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    atomic_write_json,
    checkpoint_name,
    latest_valid_checkpoint,
    list_checkpoints,
    load_checkpoint,
    load_verified_json,
    save_checkpoint,
)
from repro.featurize import Featurizer
from repro.testing import SimulatedCrash, kill_at_epoch
from repro.workload import Workbench

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def corpus():
    return Workbench("tpch", seed=0).generate(40, rng=np.random.default_rng(2))


@pytest.fixture(scope="module")
def featurizer(corpus):
    return Featurizer().fit([s.plan for s in corpus])


def tiny_config(**overrides):
    base = dict(
        hidden_layers=1, neurons=12, data_size=4, epochs=6,
        batch_size=16, seed=0, lr_decay_every=2,
    )
    base.update(overrides)
    return QPPNetConfig(**base)


def fresh_trainer(featurizer, config):
    model = QPPNet(featurizer, config)
    return model, Trainer(model, config)


# ----------------------------------------------------------------------
# File format and atomicity
# ----------------------------------------------------------------------
class TestCheckpointFiles:
    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        path = save_checkpoint(
            tmp_path,
            epoch=3,
            model_state={"w": np.arange(6.0).reshape(2, 3)},
            optimizer_state={"lr": 0.001, "velocity.0": np.ones(4, dtype=np.float32), "t": 7},
            optimizer_class="SGD",
            rng_state=rng.bit_generator.state,
            history={"epochs": [1, 2, 3], "train_loss": [3.0, 2.0, 1.0]},
            wall_clock_s=12.5,
        )
        assert path.name == checkpoint_name(3, path.name.split("-")[2].split(".")[0])
        loaded = load_checkpoint(path)
        assert loaded.epoch == 3
        assert loaded.optimizer_class == "SGD"
        assert np.array_equal(loaded.model_state["w"], np.arange(6.0).reshape(2, 3))
        velocity = loaded.optimizer_state["velocity.0"]
        assert velocity.dtype == np.float32 and np.array_equal(velocity, np.ones(4))
        assert loaded.optimizer_state["lr"] == 0.001
        assert loaded.optimizer_state["t"] == 7
        assert loaded.rng_state == rng.bit_generator.state
        assert loaded.history["train_loss"] == [3.0, 2.0, 1.0]
        assert loaded.wall_clock_s == 12.5

    def test_no_temp_files_left_behind(self, tmp_path):
        save_checkpoint(
            tmp_path, epoch=1, model_state={"w": np.zeros(2)},
            optimizer_state={}, optimizer_class="SGD",
            rng_state=np.random.default_rng(0).bit_generator.state,
        )
        names = os.listdir(tmp_path)
        assert len(names) == 1 and names[0].startswith("ckpt-")

    def test_truncated_file_detected_and_skipped(self, tmp_path):
        rng_state = np.random.default_rng(0).bit_generator.state
        good = save_checkpoint(
            tmp_path, epoch=1, model_state={"w": np.ones(8)},
            optimizer_state={}, optimizer_class="SGD", rng_state=rng_state,
        )
        bad = save_checkpoint(
            tmp_path, epoch=2, model_state={"w": np.full(8, 2.0)},
            optimizer_state={}, optimizer_class="SGD", rng_state=rng_state,
        )
        # Tear the newer checkpoint: digest no longer matches the name.
        data = bad.read_bytes()
        bad.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointCorruptError) as exc_info:
            load_checkpoint(bad)
        assert "digest mismatch" in str(exc_info.value)
        latest = latest_valid_checkpoint(tmp_path)
        assert latest is not None and latest.path == str(good)

    def test_torn_temp_file_invisible(self, tmp_path):
        (tmp_path / ".ckpt-000009.tmp").write_bytes(b"half a checkpoint")
        assert list_checkpoints(tmp_path) == []
        assert latest_valid_checkpoint(tmp_path) is None

    def test_garbage_with_valid_name_skipped(self, tmp_path):
        import hashlib

        payload = b"not an npz archive"
        name = checkpoint_name(5, hashlib.sha256(payload).hexdigest())
        (tmp_path / name).write_bytes(payload)
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(tmp_path / name)
        assert latest_valid_checkpoint(tmp_path) is None

    def test_foreign_filename_rejected(self, tmp_path):
        (tmp_path / "weights.npz").write_bytes(b"x")
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "weights.npz")


# ----------------------------------------------------------------------
# Trainer integration: kill -> resume -> identical trajectory
# ----------------------------------------------------------------------
class TestResume:
    @pytest.mark.parametrize(
        "optimizer,mode", [("sgd", "both"), ("adam", "both"), ("sgd", "batching")]
    )
    def test_kill_and_resume_exact_trajectory(
        self, corpus, featurizer, tmp_path, optimizer, mode
    ):
        """Acceptance: a fit killed mid-run resumes from its checkpoint
        and reproduces the uninterrupted run's losses exactly — fused
        and taped engines, both optimizers, with lr decay active."""
        config = tiny_config(optimizer=optimizer, mode=mode)
        _, uninterrupted = fresh_trainer(featurizer, config)
        reference = uninterrupted.fit(corpus)

        ckpt_dir = tmp_path / f"{optimizer}-{mode}"
        _, victim = fresh_trainer(featurizer, config)
        with pytest.raises(SimulatedCrash):
            victim.fit(
                corpus, checkpoint_dir=str(ckpt_dir), checkpoint_every=1,
                epoch_hook=kill_at_epoch(3),
            )
        assert latest_valid_checkpoint(ckpt_dir).epoch == 3

        resumed_model, resumed = fresh_trainer(featurizer, config)
        history = resumed.fit(corpus, checkpoint_dir=str(ckpt_dir), checkpoint_every=1)
        assert history.epochs == reference.epochs
        assert history.train_loss == reference.train_loss  # bitwise
        # Final parameters bitwise-identical to the uninterrupted run.
        for name, value in uninterrupted.model.state_dict().items():
            assert np.array_equal(value, resumed_model.state_dict()[name]), name

    def test_resume_skips_corrupt_newest(self, corpus, featurizer, tmp_path):
        """A torn newest checkpoint falls back to the previous epoch and
        still converges to the exact reference trajectory."""
        config = tiny_config()
        _, uninterrupted = fresh_trainer(featurizer, config)
        reference = uninterrupted.fit(corpus)

        ckpt_dir = tmp_path / "torn"
        _, victim = fresh_trainer(featurizer, config)
        with pytest.raises(SimulatedCrash):
            victim.fit(
                corpus, checkpoint_dir=str(ckpt_dir), checkpoint_every=1,
                epoch_hook=kill_at_epoch(4),
            )
        newest = list_checkpoints(ckpt_dir)[-1]
        newest.write_bytes(newest.read_bytes()[:100])

        _, resumed = fresh_trainer(featurizer, config)
        history = resumed.fit(corpus, checkpoint_dir=str(ckpt_dir), checkpoint_every=1)
        assert latest_valid_checkpoint(ckpt_dir).epoch == config.epochs
        assert history.train_loss == reference.train_loss

    def test_resume_disabled_trains_from_scratch(self, corpus, featurizer, tmp_path):
        config = tiny_config(epochs=2)
        ckpt_dir = tmp_path / "noresume"
        _, first = fresh_trainer(featurizer, config)
        first.fit(corpus, checkpoint_dir=str(ckpt_dir), checkpoint_every=1)
        _, second = fresh_trainer(featurizer, config)
        history = second.fit(
            corpus, checkpoint_dir=str(ckpt_dir), checkpoint_every=1, resume=False
        )
        assert history.epochs == [1, 2]  # did not continue from epoch 2

    def test_completed_run_resumes_to_noop(self, corpus, featurizer, tmp_path):
        config = tiny_config(epochs=2)
        ckpt_dir = tmp_path / "done"
        _, first = fresh_trainer(featurizer, config)
        reference = first.fit(corpus, checkpoint_dir=str(ckpt_dir), checkpoint_every=1)
        _, again = fresh_trainer(featurizer, config)
        history = again.fit(corpus, checkpoint_dir=str(ckpt_dir), checkpoint_every=1)
        assert history.epochs == reference.epochs
        assert history.train_loss == reference.train_loss

    def test_checkpoint_written_before_hook_fires(self, corpus, featurizer, tmp_path):
        """kill_at_epoch(n) crashes AFTER epoch n's checkpoint published:
        the crash is always recoverable from the epoch it interrupted."""
        config = tiny_config(epochs=3)
        ckpt_dir = tmp_path / "ordering"
        _, victim = fresh_trainer(featurizer, config)
        with pytest.raises(SimulatedCrash):
            victim.fit(
                corpus, checkpoint_dir=str(ckpt_dir), checkpoint_every=1,
                epoch_hook=kill_at_epoch(1),
            )
        latest = latest_valid_checkpoint(ckpt_dir)
        assert latest is not None and latest.epoch == 1
        assert latest.history["train_loss"] == [latest.history["train_loss"][0]]

    def test_negative_checkpoint_every_rejected(self, corpus, featurizer, tmp_path):
        config = tiny_config(epochs=1)
        _, trainer = fresh_trainer(featurizer, config)
        with pytest.raises(ValueError):
            trainer.fit(corpus, checkpoint_dir=str(tmp_path), checkpoint_every=-1)


class TestAtomicJson:
    """atomic_write_json / load_verified_json: the primitive under the
    lifecycle manifest and drift snapshots (ISSUE 10)."""

    PAYLOAD = {
        "format": 1,
        "cursor": 48,
        "ewma": 0.12345678901234567,  # floats must survive bitwise
        "names": ["a", "b"],
    }

    def test_round_trip_is_exact(self, tmp_path):
        path = atomic_write_json(tmp_path / "state.json", self.PAYLOAD)
        assert path == tmp_path / "state.json"
        loaded = load_verified_json(path)
        assert loaded == self.PAYLOAD
        assert loaded["ewma"] == self.PAYLOAD["ewma"]  # bitwise float

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_verified_json(tmp_path / "absent.json")

    def test_digest_mismatch_detected(self, tmp_path):
        path = atomic_write_json(tmp_path / "state.json", self.PAYLOAD)
        raw = path.read_text()
        path.write_text(raw.replace('"cursor": 48', '"cursor": 99'))
        with pytest.raises(CheckpointCorruptError, match="digest mismatch"):
            load_verified_json(path)

    def test_undecodable_bytes_are_corruption_not_a_crash(self, tmp_path):
        path = atomic_write_json(tmp_path / "state.json", self.PAYLOAD)
        data = bytearray(path.read_bytes())
        data[-10] ^= 0xFF  # may land mid-codepoint: still CheckpointError
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptError):
            load_verified_json(path)

    def test_unparseable_and_foreign_documents_rejected(self, tmp_path):
        bad = tmp_path / "junk.json"
        bad.write_text("{not json")
        with pytest.raises(CheckpointCorruptError, match="unparseable"):
            load_verified_json(bad)
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps({"payload": {"x": 1}}))  # no digest
        with pytest.raises(CheckpointCorruptError, match="not an atomic"):
            load_verified_json(foreign)

    def test_crash_mid_write_leaves_previous_document(self, tmp_path):
        path = atomic_write_json(tmp_path / "state.json", self.PAYLOAD)
        # Death between temp-write and rename: readers never see the tmp.
        (tmp_path / ".state.json.tmp").write_bytes(b"\x00torn")
        assert load_verified_json(path) == self.PAYLOAD

    def test_overwrite_replaces_atomically(self, tmp_path):
        path = atomic_write_json(tmp_path / "state.json", {"v": 1})
        atomic_write_json(path, {"v": 2})
        assert load_verified_json(path) == {"v": 2}
        assert not (tmp_path / ".state.json.tmp").exists()
