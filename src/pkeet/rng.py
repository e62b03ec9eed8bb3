"""Deterministic randomness expanded from a 32-byte seed with SHAKE-256.

The generator stretches the seed into an unbounded byte stream by hashing
``prefix || seed || block_index`` per 64 KiB block.  Identical seeds give
bit-identical streams, which is what makes seeded key generation and
encryption reproducible byte for byte.  Short streams, such as the hash
maps' rejection streams, read a few KiB; so a stream's first block is
squeezed at 4 KiB and squeezed again whole only when a read runs past
that, which gives the same bytes because SHAKE output is prefix-consistent.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from .errors import InvalidParams

SEED_BYTES = 32
_BLOCK = 1 << 16
_FIRST_SQUEEZE = 1 << 12
_PREFIX = b"pkeet-rng-v1"


def fresh_seed() -> bytes:
    """Return a new 32-byte seed from the operating system."""
    return os.urandom(SEED_BYTES)


class XofRng:
    """Byte-stream RNG with vectorized integer and Gaussian helpers."""

    def __init__(self, seed: bytes):
        if not isinstance(seed, (bytes, bytearray)) or len(seed) != SEED_BYTES:
            raise InvalidParams(f"seed must be {SEED_BYTES} bytes, got {len(seed) if isinstance(seed, (bytes, bytearray)) else type(seed)}")
        self._seed = bytes(seed)
        self._block_index = 0
        self._xof = None
        self._buf = b""
        self._pos = 0

    @property
    def seed(self) -> bytes:
        return self._seed

    def fork(self, label: bytes) -> "XofRng":
        """Derive an independent stream bound to ``label``."""
        child = hashlib.shake_256(_PREFIX + b"-fork" + self._seed + label).digest(SEED_BYTES)
        return XofRng(child)

    def _refill(self) -> None:
        if 0 < len(self._buf) < _BLOCK:
            # The short first squeeze ran out: squeeze the same block whole.
            self._buf = self._xof.digest(_BLOCK)
            return
        block = self._block_index.to_bytes(8, "little")
        self._xof = hashlib.shake_256(_PREFIX + self._seed + block)
        self._buf = self._xof.digest(_FIRST_SQUEEZE if self._block_index == 0 else _BLOCK)
        self._pos = 0
        self._block_index += 1

    def _chunks(self, count: int):
        """The next ``count`` stream bytes, as views of the blocks they lie in."""
        while count > 0:
            if self._pos >= len(self._buf):
                self._refill()
            take = min(count, len(self._buf) - self._pos)
            yield memoryview(self._buf)[self._pos : self._pos + take]
            self._pos += take
            count -= take

    def bytes(self, count: int) -> bytes:
        """The next ``count`` stream bytes, copied once."""
        end = self._pos + count
        if end <= len(self._buf):
            out = self._buf[self._pos : end]
            self._pos = end
            return out
        return b"".join(self._chunks(count))

    # ---- vectorized draws -------------------------------------------------

    def u64(self, count: int) -> np.ndarray:
        """The next ``count`` little-endian 64-bit words: a read-only view of
        one :meth:`bytes` read, so the stream is copied once."""
        return np.frombuffer(self.bytes(8 * count), dtype="<u8")

    def uniform_mod(self, bound: int, count: int) -> np.ndarray:
        """Unbiased uniform integers in [0, bound) via 64-bit rejection."""
        if not 1 <= bound <= 1 << 62:
            raise InvalidParams(f"uniform bound out of range: {bound}")
        limit = ((1 << 64) // bound) * bound
        reject = limit < (1 << 64)     # power-of-two bounds accept every draw
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            need = count - filled
            raw = self.u64(need + (need >> 4) + 8)
            good = raw[raw < np.uint64(limit)] if reject else raw
            take = min(need, good.size)
            out[filled : filled + take] = (good[:take] % np.uint64(bound)).astype(np.int64)
            filled += take
        return out

    def uniform01(self, count: int) -> np.ndarray:
        """Uniform doubles in [0, 1) with 53 bits of precision."""
        return (self.u64(count) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)

    def normal(self, count: int) -> np.ndarray:
        """Standard normal draws via Box-Muller on stream uniforms."""
        pairs = (count + 1) // 2
        u1 = self.uniform01(pairs)
        u2 = self.uniform01(pairs)
        u1 = np.maximum(u1, 2.0 ** -60)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * math.pi) * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return z[:count]


def rng_from_seed(seed: bytes | None) -> XofRng:
    """Build an :class:`XofRng`, drawing a fresh seed when none is given."""
    return XofRng(seed if seed is not None else fresh_seed())
