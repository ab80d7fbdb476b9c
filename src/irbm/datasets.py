"""Dataset ingestion: IDX image files, the packed-bitmap container, and
synthetic desk-scale pattern families.

All loaded data ends up as strictly binary row vectors. Stochastic
binarization happens once at load time under a fixed seed, so likelihood
numbers are reproducible.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .rng import stream

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
IBMP_MAGIC = b"IBMP"
IBMP_VERSION = 1
SPLITS = ("train", "valid", "test")


@dataclass
class Dataset:
    """Binary examples with optional class labels."""

    X: np.ndarray                 # (n, D) uint8, entries 0/1
    y: np.ndarray | None = None   # (n,) int32
    n_classes: int = 0
    split: str = "train"

    def __post_init__(self):
        X = np.asarray(self.X)
        if X.ndim != 2:
            raise ValueError("X must be (n, D)")
        # checked before the cast, which would truncate 0.7 to 0
        if not np.all((X == 0) | (X == 1)):
            raise ValueError("examples must be binary")
        self.X = np.ascontiguousarray(X, dtype=np.uint8)
        if self.y is not None:
            self.y = np.ascontiguousarray(self.y, dtype=np.int32)
            if self.y.shape != (self.X.shape[0],):
                raise ValueError("one label per example is required")
            if self.n_classes <= 0:
                raise ValueError("labeled datasets must declare n_classes")
            if self.y.size and (self.y.min() < 0 or self.y.max() >= self.n_classes):
                raise ValueError("label out of range")
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def D(self) -> int:
        return self.X.shape[1]


# -- IDX ----------------------------------------------------------------------


def _read_exact(f, count: int, what: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise ValueError(f"truncated IDX file: wanted {count} bytes for {what} "
                         f"at offset {f.tell() - len(data)}, got {len(data)}")
    return data


def load_mnist_idx(images_path, labels_path=None):
    """Parse big-endian IDX image (and optionally label) files.

    Returns (intensities, labels) where intensities are (n, rows*cols)
    float64 in [0, 1] (pixel/255), rows flattened one after another, and
    labels is None or an (n,) int array.
    """
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">iiii", _read_exact(f, 16, "image header"))
        if magic != IDX_IMAGES_MAGIC:
            raise ValueError(f"bad IDX image magic {magic}, expected {IDX_IMAGES_MAGIC}")
        raw = _read_exact(f, count * rows * cols, "pixel data")
    images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    intensities = images.astype(np.float64) / 255.0
    labels = None
    if labels_path is not None:
        with open(labels_path, "rb") as f:
            magic, lcount = struct.unpack(">ii", _read_exact(f, 8, "label header"))
            if magic != IDX_LABELS_MAGIC:
                raise ValueError(f"bad IDX label magic {magic}, expected {IDX_LABELS_MAGIC}")
            if lcount != count:
                raise ValueError(f"{count} images but {lcount} labels")
            labels = np.frombuffer(_read_exact(f, lcount, "label data"), dtype=np.uint8)
        labels = labels.astype(np.int32)
    return intensities, labels


def binarize_stochastic(intensities, seed: int, labels=None, n_classes: int = 0,
                        split: str = "train") -> Dataset:
    """Set each pixel to 1 with probability equal to its intensity, once,
    under a fixed seed."""
    intensities = np.asarray(intensities, dtype=np.float64)
    if intensities.min() < 0 or intensities.max() > 1:
        raise ValueError("intensities must lie in [0, 1]")
    rng = stream(seed, "binarize")
    bits = (rng.random(intensities.shape) < intensities).astype(np.uint8)
    return Dataset(X=bits, y=labels, n_classes=n_classes, split=split)


# -- packed-bitmap container ----------------------------------------------------


def write_ibmp(path, splits: dict):
    """Write a dict of split-name -> Dataset as one packed-bitmap file.

    Layout (little endian): magic 'IBMP', u32 version, u32 D, u32 C, three
    u32 split counts (train, valid, test), then per split the labels (u16
    each, only when C > 0) followed by the examples bit-packed row by row,
    each row padded to a byte boundary.
    """
    datasets = {name: splits.get(name) for name in SPLITS}
    present = [ds for ds in datasets.values() if ds is not None]
    if not present:
        raise ValueError("at least one split is required")
    D = present[0].D
    C = present[0].n_classes
    for ds in present:
        if ds.D != D or ds.n_classes != C:
            raise ValueError("all splits must share D and the class count")
    with open(path, "wb") as f:
        f.write(IBMP_MAGIC)
        counts = [0 if datasets[name] is None else datasets[name].n for name in SPLITS]
        f.write(struct.pack("<IIIIII", IBMP_VERSION, D, C, *counts))
        for name in SPLITS:
            ds = datasets[name]
            if ds is None:
                continue
            if C > 0:
                if ds.y is None:
                    raise ValueError(f"split {name} lacks labels but C={C}")
                f.write(ds.y.astype("<u2").tobytes())
            f.write(np.packbits(ds.X, axis=1).tobytes())


def read_ibmp(path) -> dict:
    """Read a packed-bitmap file back into {split: Dataset}; raises when the
    payload does not match the declared header."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != IBMP_MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {IBMP_MAGIC!r}")
        version, D, C, *counts = struct.unpack("<IIIIII", _read_exact(f, 24, "header"))
        if version != IBMP_VERSION:
            raise ValueError(f"unsupported version {version}")
        row_bytes = (D + 7) // 8
        out = {}
        for name, n in zip(SPLITS, counts):
            if n == 0:
                continue
            y = None
            if C > 0:
                y = np.frombuffer(_read_exact(f, 2 * n, f"{name} labels"),
                                  dtype="<u2").astype(np.int32)
            packed = np.frombuffer(_read_exact(f, n * row_bytes, f"{name} rows"),
                                   dtype=np.uint8).reshape(n, row_bytes)
            X = np.unpackbits(packed, axis=1)[:, :D]
            out[name] = Dataset(X=X, y=y, n_classes=C, split=name)
        trailing = f.read(1)
        if trailing:
            raise ValueError("trailing bytes after the declared splits")
    return out


# -- synthetic families ---------------------------------------------------------


def bars_and_stripes_patterns(side: int) -> np.ndarray:
    """All distinct bars-and-stripes images on a side x side grid.

    Every subset of rows or of columns switched fully on; the all-off and
    all-on grids appear in both orientations, so there are 2^(side+1) - 2
    distinct patterns.
    """
    if side < 1:
        raise ValueError("side must be >= 1")
    masks = ((np.arange(2 ** side)[:, None] >> np.arange(side - 1, -1, -1)) & 1)
    rows = np.repeat(masks[:, :, None], side, axis=2)       # rows on/off
    cols = np.repeat(masks[:, None, :], side, axis=1)       # columns on/off
    pats = np.concatenate([rows, cols]).reshape(-1, side * side)
    return np.unique(pats, axis=0).astype(np.uint8)


def synth_bars_and_stripes(side: int, n: int, seed: int) -> Dataset:
    """n draws, uniform over the distinct bars-and-stripes patterns."""
    pats = bars_and_stripes_patterns(side)
    rng = stream(seed, "bars")
    idx = rng.integers(0, pats.shape[0], size=n)
    return Dataset(X=pats[idx])


def shifted_pattern_bank(length: int, width: int) -> np.ndarray:
    """All cyclic shifts of a run of `width` ones in a `length` vector."""
    if not 1 <= width < length:
        raise ValueError("need 1 <= width < length")
    base = np.zeros(length, dtype=np.uint8)
    base[:width] = 1
    return np.stack([np.roll(base, s) for s in range(length)])


def synth_shifted_patterns(length: int, width: int, n: int, seed: int,
                           labeled: bool = False) -> Dataset:
    """n draws, uniform over the cyclic shifts; labels are the shift
    offsets, giving a perfectly separable `length`-class family."""
    bank = shifted_pattern_bank(length, width)
    rng = stream(seed, "shifted")
    idx = rng.integers(0, length, size=n)
    y = idx.astype(np.int32) if labeled else None
    return Dataset(X=bank[idx], y=y, n_classes=length if labeled else 0)
