"""Seeded stream generator: determinism, ranges, and uniformity."""

import hashlib

import numpy as np
import pytest

from pkeet.errors import InvalidParams
from pkeet.rng import _BLOCK, _PREFIX, XofRng, fresh_seed


def test_same_seed_same_stream():
    a = XofRng(b"\x01" * 32)
    b = XofRng(b"\x01" * 32)
    assert a.u64(16).tolist() == b.u64(16).tolist()
    assert a.bytes(33) == b.bytes(33)
    assert np.array_equal(a.uniform_mod(997, 50), b.uniform_mod(997, 50))


def test_stream_independent_of_draw_split():
    # Draws that cross the 64 KiB block boundary read the same stream as one
    # large draw.
    a = XofRng(b"\x05" * 32)
    b = XofRng(b"\x05" * 32)
    whole = a.bytes(200_000)
    parts = b.bytes(1) + b.bytes(65_534) + b.bytes(65_537) + b.bytes(68_928)
    assert whole == parts


def test_short_first_squeeze_reads_the_whole_blocks():
    # The first block is squeezed at 4 KiB and again whole once a read runs
    # past it; odd-sized reads across the 4 KiB and 64 KiB boundaries must
    # give the bytes of the whole blocks, as hashed per block index.
    seed = bytes(range(32))
    blocks = b"".join(
        hashlib.shake_256(_PREFIX + seed + i.to_bytes(8, "little")).digest(_BLOCK)
        for i in range(3)
    )
    rng = XofRng(seed)
    sizes = (1, 7, 4085, 3, 5, 4099, 57_331, 11, 65_533, 13, 9_999)
    stream = b"".join(bytes(rng.bytes(k)) for k in sizes)
    assert stream == blocks[: sum(sizes)]
    assert XofRng(seed).bytes(4096) == blocks[:4096]


def test_different_seeds_diverge():
    a = XofRng(b"\x01" * 32)
    b = XofRng(b"\x02" * 32)
    assert a.u64(8).tolist() != b.u64(8).tolist()


def test_seed_length_enforced():
    with pytest.raises(InvalidParams):
        XofRng(b"short")


def test_uniform_mod_range_and_dtype():
    rng = XofRng(b"\x03" * 32)
    for bound in (2, 3, 8, 97, 1 << 40, (1 << 56) + 5):
        draws = rng.uniform_mod(bound, 1000)
        assert draws.dtype == np.int64
        assert draws.min() >= 0 and draws.max() < bound


def test_uniform_mod_power_of_two_bounds():
    # Power-of-two bounds accept every raw word; this used to overflow the
    # internal rejection limit.
    rng = XofRng(b"\x04" * 32)
    draws = rng.uniform_mod(2, 200_000)
    ones = int(draws.sum())
    assert abs(ones - 100_000) < 4 * np.sqrt(50_000)


def test_uniform_mod_chi_square():
    rng = XofRng(b"\x05" * 32)
    bound, count = 5, 250_000
    draws = rng.uniform_mod(bound, count)
    observed = np.bincount(draws, minlength=bound)
    expected = count / bound
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    # 4 degrees of freedom: chi2 < 23.5 fails with probability ~1e-4.
    assert chi2 < 23.5, f"chi-square {chi2:.1f} over uniform bins"


def test_normal_moments():
    rng = XofRng(b"\x06" * 32)
    x = rng.normal(400_000)
    assert abs(float(x.mean())) < 0.01
    assert abs(float(x.var()) - 1.0) < 0.01
    assert abs(float((x**3).mean())) < 0.02


def test_fresh_seed_shape_and_variability():
    a, b = fresh_seed(), fresh_seed()
    assert isinstance(a, bytes) and len(a) == 32
    assert a != b


def test_reads_across_blocks_are_bytes_and_match_piecewise_reads():
    # Reads that cross the 4 KiB first squeeze and the 64 KiB block return
    # bytes, as reads inside a block do, and u64 views the same words.
    seed = bytes(range(32))
    whole = XofRng(seed)
    reads = [whole.bytes(k) for k in (4090, 10, 61_430, 70_000)]
    assert all(type(r) is bytes for r in reads)
    pieces = XofRng(seed)
    assert b"".join(reads) == b"".join(pieces.bytes(1) for _ in range(sum(map(len, reads))))
    words = XofRng(seed)
    words.bytes(4090)
    got = words.u64(9_000)
    assert got.tobytes() == b"".join(reads)[4090 : 4090 + 72_000]
