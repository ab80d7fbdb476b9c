import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irbm.datasets import (
    Dataset,
    bars_and_stripes_patterns,
    binarize_stochastic,
    load_mnist_idx,
    read_ibmp,
    shifted_pattern_bank,
    synth_bars_and_stripes,
    synth_shifted_patterns,
    write_ibmp,
)
from irbm.rng import stream


def write_idx_images(path, images):
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">iiii", 0x00000803, n, rows, cols))
        f.write(images.tobytes())


def write_idx_labels(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">ii", 0x00000801, labels.size))
        f.write(labels.tobytes())


class TestIdx:
    def test_parses_images_and_labels(self, tmp_path):
        imgs = np.arange(2 * 2 * 3, dtype=np.uint8).reshape(3, 2, 2)
        write_idx_images(tmp_path / "img", imgs)
        write_idx_labels(tmp_path / "lab", [1, 0, 2])
        intensities, labels = load_mnist_idx(tmp_path / "img", tmp_path / "lab")
        assert intensities.shape == (3, 4)
        assert intensities.max() <= 1.0
        # row-major flattening: row 0 pixels first
        assert np.allclose(intensities[0], np.array([0, 1, 2, 3]) / 255.0)
        assert np.array_equal(labels, [1, 0, 2])

    def test_all_zero_image(self, tmp_path):
        write_idx_images(tmp_path / "img", np.zeros((1, 2, 2), dtype=np.uint8))
        intensities, _ = load_mnist_idx(tmp_path / "img")
        assert np.all(intensities == 0.0)

    def test_bad_magic_rejected(self, tmp_path):
        with open(tmp_path / "img", "wb") as f:
            f.write(struct.pack(">iiii", 0x00000999, 1, 2, 2))
            f.write(bytes(4))
        with pytest.raises(ValueError, match="magic"):
            load_mnist_idx(tmp_path / "img")

    def test_truncation_reports_offset(self, tmp_path):
        with open(tmp_path / "img", "wb") as f:
            f.write(struct.pack(">iiii", 0x00000803, 2, 2, 2))
            f.write(bytes(5))   # 8 bytes short
        with pytest.raises(ValueError, match="offset"):
            load_mnist_idx(tmp_path / "img")

    def test_count_mismatch_rejected(self, tmp_path):
        write_idx_images(tmp_path / "img", np.zeros((2, 2, 2), dtype=np.uint8))
        write_idx_labels(tmp_path / "lab", [0, 1, 2])
        with pytest.raises(ValueError, match="labels"):
            load_mnist_idx(tmp_path / "img", tmp_path / "lab")


class TestBinarize:
    def test_extremes_are_deterministic(self):
        raw = np.array([[0.0, 1.0, 0.0, 1.0]])
        ds = binarize_stochastic(raw, seed=1)
        assert np.array_equal(ds.X[0], [0, 1, 0, 1])

    def test_half_intensity_bernoulli(self):
        raw = np.full((1000, 100), 0.5)
        ds = binarize_stochastic(raw, seed=2)
        assert abs(ds.X.mean() - 0.5) < 0.005

    def test_same_seed_is_identical(self):
        raw = np.random.default_rng(3).random((50, 20))
        a = binarize_stochastic(raw, seed=7)
        b = binarize_stochastic(raw, seed=7)
        assert np.array_equal(a.X, b.X)
        c = binarize_stochastic(raw, seed=8)
        assert not np.array_equal(a.X, c.X)

    def test_range_validated(self):
        with pytest.raises(ValueError):
            binarize_stochastic(np.array([[1.5]]), seed=0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="intensities"):
            binarize_stochastic(np.array([[np.nan, 0.5]]), seed=0)

    def test_one_generator_gives_one_draw_over_the_concatenation(self):
        a, b = np.full((6, 5), 0.5), np.full((4, 5), 0.5)
        rng = stream(7, "binarize")
        first = binarize_stochastic(a, seed=7, rng=rng).X
        second = binarize_stochastic(b, seed=7, rng=rng).X
        both = binarize_stochastic(np.concatenate([a, b]), seed=7).X
        assert np.array_equal(first, both[:6])
        assert np.array_equal(second, both[6:])
        assert not np.array_equal(second, first[:4])


class TestIbmp:
    def _splits(self, C=0):
        rng = np.random.default_rng(11)
        def ds(n, split):
            X = (rng.random((n, 13)) < 0.5).astype(np.uint8)
            y = rng.integers(0, C, n).astype(np.int32) if C else None
            return Dataset(X=X, y=y, n_classes=C, split=split)
        return {"train": ds(9, "train"), "valid": ds(4, "valid"), "test": ds(6, "test")}

    @pytest.mark.parametrize("C", [0, 5])
    def test_round_trip_bit_identical(self, tmp_path, C):
        splits = self._splits(C)
        path = tmp_path / "data.ibmp"
        write_ibmp(path, splits)
        back = read_ibmp(path)
        for name, ds in splits.items():
            assert np.array_equal(back[name].X, ds.X)
            if C:
                assert np.array_equal(back[name].y, ds.y)
            assert back[name].n_classes == C
            assert back[name].split == name
        # writing the reread data reproduces the file byte for byte
        path2 = tmp_path / "data2.ibmp"
        write_ibmp(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_partial_splits_allowed(self, tmp_path):
        splits = {"train": self._splits()["train"]}
        write_ibmp(tmp_path / "t.ibmp", splits)
        back = read_ibmp(tmp_path / "t.ibmp")
        assert set(back) == {"train"}

    def test_bad_magic(self, tmp_path):
        (tmp_path / "junk").write_bytes(b"NOPE" + bytes(24))
        with pytest.raises(ValueError, match="magic"):
            read_ibmp(tmp_path / "junk")

    def test_payload_mismatch_detected(self, tmp_path):
        path = tmp_path / "t.ibmp"
        write_ibmp(path, self._splits())
        raw = path.read_bytes()
        (tmp_path / "short").write_bytes(raw[:-3])
        with pytest.raises(ValueError):
            read_ibmp(tmp_path / "short")
        (tmp_path / "long").write_bytes(raw + b"x")
        with pytest.raises(ValueError, match="trailing"):
            read_ibmp(tmp_path / "long")

    def test_silhouette_shaped_file(self, tmp_path):
        rng = np.random.default_rng(21)
        splits = {}
        for name, n in (("train", 41), ("valid", 22), ("test", 23)):
            splits[name] = Dataset(
                X=(rng.random((n, 784)) < 0.3).astype(np.uint8),
                y=rng.integers(0, 101, n).astype(np.int32),
                n_classes=101, split=name)
        path = tmp_path / "sil.ibmp"
        write_ibmp(path, splits)
        back = read_ibmp(path)
        assert back["train"].n == 41
        assert back["train"].n_classes == 101
        assert int(back["test"].y.max()) < 101


class TestBarsAndStripes:
    def test_distinct_pattern_count(self):
        assert bars_and_stripes_patterns(2).shape == (6, 4)   # 2^(s+1) - 2
        assert bars_and_stripes_patterns(4).shape == (30, 16)

    def test_generated_rows_come_from_the_family(self):
        ds = synth_bars_and_stripes(4, 500, seed=4)
        assert ds.X.shape == (500, 16)
        bank = {tuple(p) for p in bars_and_stripes_patterns(4)}
        assert all(tuple(row) in bank for row in ds.X)

    def test_generator_is_uniform(self):
        n = 60_000
        ds = synth_bars_and_stripes(2, n, seed=5)
        codes = ds.X @ (1 << np.arange(3, -1, -1))
        _, counts = np.unique(codes, return_counts=True)
        assert counts.size == 6
        p = 1 / 6
        se = math.sqrt(p * (1 - p) * n)
        assert np.all(np.abs(counts - n * p) < 3 * se)

    def test_plugin_entropy_matches_uniform_family(self):
        n = 200_000
        ds = synth_bars_and_stripes(2, n, seed=6)
        codes = ds.X @ (1 << np.arange(3, -1, -1))
        _, counts = np.unique(codes, return_counts=True)
        freq = counts / n
        entropy = -np.sum(freq * np.log(freq))
        assert abs(entropy - math.log(6)) < 1e-3


class TestShiftedPatterns:
    def test_bank_is_all_rotations(self):
        bank = shifted_pattern_bank(6, 2)
        assert bank.shape == (6, 6)
        assert len({tuple(r) for r in bank}) == 6
        assert np.all(bank.sum(axis=1) == 2)

    def test_labels_identify_offsets(self):
        ds = synth_shifted_patterns(5, 2, 200, seed=7, labeled=True)
        assert ds.n_classes == 5
        bank = shifted_pattern_bank(5, 2)
        for row, label in zip(ds.X, ds.y):
            assert np.array_equal(row, bank[label])

    def test_unlabeled_variant(self):
        ds = synth_shifted_patterns(5, 2, 10, seed=8)
        assert ds.y is None
        assert ds.n_classes == 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 40),
       d=st.integers(1, 40), c=st.sampled_from([0, 2, 7]))
def test_packed_bitmap_round_trip_property(tmp_path_factory, seed, n, d, c):
    rng = np.random.default_rng(seed)
    ds = Dataset(X=(rng.random((n, d)) < 0.5).astype(np.uint8),
                 y=rng.integers(0, c, n).astype(np.int32) if c else None,
                 n_classes=c)
    path = tmp_path_factory.mktemp("ibmp") / "round.ibmp"
    write_ibmp(path, {"train": ds})
    back = read_ibmp(path)["train"]
    assert np.array_equal(back.X, ds.X)
    if c:
        assert np.array_equal(back.y, ds.y)


class TestDatasetValidation:
    def test_nonbinary_rejected(self):
        with pytest.raises(ValueError):
            Dataset(X=np.array([[0, 2]], dtype=np.uint8))

    def test_fractional_values_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="binary"):
            Dataset(X=np.array([[0.7, 1.0, 0.2]]))

    def test_binary_inputs_of_any_dtype_accepted(self):
        for X in (np.array([[0, 1, 1]], dtype=np.uint8),
                  np.array([[False, True, True]]),
                  np.array([[0.0, 1.0, 1.0]])):
            ds = Dataset(X=X)
            assert ds.X.dtype == np.uint8
            assert ds.X.tolist() == [[0, 1, 1]]

    def test_fractional_labels_rejected_not_truncated(self):
        for y, match in (([0.0, 1.7, 2.2], "whole numbers"),
                         ([0.0, np.nan, 1.0], "whole numbers"),
                         ([0.0, np.inf, 1.0], "range")):
            with pytest.raises(ValueError, match=match):
                Dataset(X=np.zeros((3, 2), dtype=np.uint8), y=np.array(y),
                        n_classes=3)

    def test_whole_labels_of_any_dtype_accepted(self):
        for y in (np.array([0, 2, 1], dtype=np.uint8), np.array([0.0, 2.0, 1.0])):
            ds = Dataset(X=np.zeros((3, 2), dtype=np.uint8), y=y, n_classes=3)
            assert ds.y.dtype == np.int32
            assert ds.y.tolist() == [0, 2, 1]

    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            Dataset(X=np.zeros((2, 3), dtype=np.uint8),
                    y=np.array([0, 5]), n_classes=3)

    def test_split_name_checked(self):
        with pytest.raises(ValueError):
            Dataset(X=np.zeros((1, 2), dtype=np.uint8), split="holdout")
