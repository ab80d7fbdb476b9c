"""Deterministic random streams built on the counter-based Philox generator.

Every piece of randomness in training and evaluation is drawn from a stream
keyed by (seed, purpose, counters...), so a run can be resumed from a step
counter and reproduce the remaining trajectory bit for bit.
"""

from __future__ import annotations

import zlib

import numpy as np


def _key_part(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    return int(part) & 0xFFFFFFFFFFFFFFFF


def stream(seed: int, *path) -> np.random.Generator:
    """Return a fresh generator for the stream identified by (seed, *path).

    Path components may be ints or short strings (hashed with crc32, which is
    stable across runs and platforms, unlike the builtin hash).
    """
    key = tuple(_key_part(p) for p in path)
    seq = np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))


# values per Philox block: one counter increment makes four 64-bit outputs
_PHILOX_BLOCK = 4
# uniforms drawn per call when a generator cannot be skipped in O(1)
_SKIP_CHUNK = 2 ** 16


def skip_uniforms(rng: np.random.Generator, n: int) -> None:
    """Advance rng past n draws of `rng.random`, leaving it in the state
    `rng.random(n)` would leave it in.

    A uniform takes one 64-bit output of the bit generator and leaves any
    buffered 32-bit half alone. For Philox, which `stream` builds, the skip
    costs O(1): the 256-bit counter moves past the whole blocks skipped and
    the last block is drawn, so its buffer and position are the ones drawing
    would leave. Any other bit generator draws the uniforms, in chunks.
    """
    if n < 0:
        raise ValueError(f"cannot skip {n} draws")
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.Philox):
        buf = np.empty(min(n, _SKIP_CHUNK))
        for start in range(0, n, _SKIP_CHUNK):
            rng.random(out=buf[:min(_SKIP_CHUNK, n - start)])
        return
    state = bitgen.state
    left = _PHILOX_BLOCK - state["buffer_pos"]
    if n <= left:
        state["buffer_pos"] += n
        bitgen.state = state
        return
    # the draws beyond the buffer fill `blocks` new blocks; the last one is
    # generated for real, from the counter one before it
    blocks, last = divmod(n - left - 1, _PHILOX_BLOCK)
    words = state["state"]["counter"]
    counter = sum(int(x) << (64 * i) for i, x in enumerate(words))
    counter = (counter + blocks) % 2 ** 256
    state["state"]["counter"] = np.array(
        [(counter >> (64 * i)) & 0xFFFFFFFFFFFFFFFF for i in range(4)], dtype=np.uint64)
    state["buffer_pos"] = _PHILOX_BLOCK
    bitgen.state = state
    bitgen.random_raw(last + 1)
