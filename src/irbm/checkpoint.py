"""Binary checkpoints that restore training bitwise.

Little-endian layout: a fixed header (magic, version, crc32 and length of
the payload) followed by the payload holding model dimensions, penalty
settings, all parameter arrays as raw float64, optimizer accumulators and
velocities, per-unit ages, regroup bookkeeping, the persistent chains and
the RNG counters (seed plus update count). Any flipped payload byte fails
the crc check on load. A save replaces the file atomically: the previous
checkpoint stays readable until the new one is complete on disk.

The save streams: each block goes to the file straight from the array's
memory (a `memoryview`, no bytes copy) while the crc32 and the length of
the payload accumulate; the header, written as zeros first, is filled in
by seeking back once the payload is out. The bytes are those of the v1
layout an in-memory payload gave. The load still reads the whole payload
into one buffer and checks its crc before parsing any of it, so a corrupt
file never reaches the parser; a streamed load raised the peak RSS and the
page faults of the AIS evaluation workload, which loads once per episode.
The parser then walks the verified payload with an offset cursor and copies
each array once, straight out of it (`np.frombuffer(...).copy()`), with no
intermediate bytes object per array.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, ParamBundle, PenaltyConfig
from .sampling import FantasyChains
from .training import OptimizerState, RegroupState

MAGIC = b"IRBM"
VERSION = 1
HEADER = struct.Struct("<IIQ")          # version, payload crc32, payload length


class CheckpointError(ValueError):
    """Raised for unreadable, corrupt or incompatible checkpoint files."""


@dataclass
class CheckpointData:
    params: ModelParams
    opt: OptimizerState
    regroup: RegroupState
    chains: FantasyChains | None
    seed: int
    epochs_done: int


class _CrcWriter:
    """Writes to a file while accumulating the crc32 and length of what
    went through it."""

    def __init__(self, f):
        self.f, self.crc, self.length = f, 0, 0

    def write(self, data):
        view = memoryview(data).cast("B")
        self.crc = zlib.crc32(view, self.crc)
        self.length += view.nbytes
        self.f.write(view)


def _write_array(buf, arr, dtype):
    buf.write(np.ascontiguousarray(arr, dtype=dtype))


class _PayloadReader:
    """Parses a verified payload front to back from an offset cursor."""

    def __init__(self, payload: bytes):
        self.payload, self.offset = payload, 0

    def _advance(self, size: int) -> int:
        """Move the cursor past the next size bytes; return where they start."""
        start = self.offset
        if start + size > len(self.payload):
            raise CheckpointError("checkpoint payload ends early")
        self.offset += size
        return start

    def unpack(self, fmt):
        return struct.unpack_from(fmt, self.payload,
                                  self._advance(struct.calcsize(fmt)))

    def array(self, count, dtype, shape=None):
        """The next count items as a new array: one copy out of the payload."""
        dtype = np.dtype(dtype)
        start = self._advance(count * dtype.itemsize)
        arr = np.frombuffer(self.payload, dtype, count, start).copy()
        return arr.reshape(shape) if shape is not None else arr

    def check_end(self):
        if self.offset != len(self.payload):
            raise CheckpointError("trailing bytes in checkpoint payload")


def _write_param_set(buf, g: ParamBundle):
    for _, arr in g.blocks():
        _write_array(buf, arr, "<f8")


def _read_param_set(buf: _PayloadReader, l, D, C):
    W = buf.array(l * D, "<f8", (l, D))
    b_v = buf.array(D, "<f8")
    c = buf.array(l, "<f8")
    U = buf.array(l * C, "<f8", (l, C)) if C else None
    d = buf.array(C, "<f8") if C else None
    return W, b_v, c, U, d


def _write_payload(buf, data: CheckpointData):
    p = data.params
    flags = (1 if p.has_labels else 0)
    flags |= (2 if p.penalty.mode == "dynamic" else 0)
    flags |= (4 if data.chains is not None else 0)
    flags |= (8 if data.chains is not None and data.chains.y is not None else 0)
    buf.write(struct.pack("<Bd", flags, p.penalty.beta))
    buf.write(struct.pack("<III", p.D, p.l, p.C))
    buf.write(struct.pack("<QQI", data.seed, data.opt.t, data.epochs_done))
    rg = data.regroup
    buf.write(struct.pack("<IBIIdQI", rg.M_t, 1 if rg.phase == "adaptive" else 0,
                          rg.epoch, rg.prev_l, rg.mode_sum, rg.mode_count,
                          len(rg.mz_history)))
    _write_array(buf, np.asarray(rg.mz_history, dtype=np.float64), "<f8")
    for g in (p, data.opt.acc, data.opt.vel):
        _write_param_set(buf, g)
    _write_array(buf, data.opt.unit_age, "<i8")
    if data.chains is not None:
        buf.write(struct.pack("<I", data.chains.n_chains))
        _write_array(buf, data.chains.v, "u1")
        if data.chains.y is not None:
            _write_array(buf, data.chains.y, "<u2")


def save_checkpoint(path, data: CheckpointData):
    # write a sibling file and rename it over the target, so a crash at any
    # point leaves either the previous checkpoint or the new one
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(bytes(HEADER.size))     # filled in once the payload is out
            out = _CrcWriter(f)
            _write_payload(out, data)
            f.seek(len(MAGIC))
            f.write(HEADER.pack(VERSION, out.crc, out.length))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> CheckpointData:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}")
        header = f.read(HEADER.size)
        if len(header) != HEADER.size:
            raise CheckpointError("truncated header")
        version, crc, length = HEADER.unpack(header)
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        payload = f.read(length)
    if len(payload) != length or zlib.crc32(payload) != crc:
        raise CheckpointError("checkpoint payload fails its integrity check")

    buf = _PayloadReader(payload)
    flags, beta = buf.unpack("<Bd")
    D, l, C = buf.unpack("<III")
    seed, t, epochs_done = buf.unpack("<QQI")
    m_t, phase, epoch, prev_l, mode_sum, mode_count, n_hist = buf.unpack("<IBIIdQI")
    mz_history = list(buf.array(n_hist, "<f8"))
    penalty = PenaltyConfig(beta=beta, mode="dynamic" if flags & 2 else "constant")
    params = ModelParams(*_read_param_set(buf, l, D, C), penalty=penalty)
    acc = ParamBundle(*_read_param_set(buf, l, D, C))
    vel = ParamBundle(*_read_param_set(buf, l, D, C))
    unit_age = buf.array(l, "<i8")
    chains = None
    if flags & 4:
        (n_chains,) = buf.unpack("<I")
        v = buf.array(n_chains * D, "u1", (n_chains, D))
        y = buf.array(n_chains, "<u2").astype(np.int64) if flags & 8 else None
        chains = FantasyChains(v=v, y=y)
    buf.check_end()
    opt = OptimizerState(t=t, acc=acc, vel=vel, unit_age=unit_age)
    regroup = RegroupState(M_t=m_t, phase="adaptive" if phase else "early",
                           epoch=epoch, prev_l=prev_l, mz_history=mz_history,
                           mode_sum=mode_sum, mode_count=mode_count)
    return CheckpointData(params=params, opt=opt, regroup=regroup,
                          chains=chains, seed=seed, epochs_done=epochs_done)
