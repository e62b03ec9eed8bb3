"""Domain-separated hash maps: shapes, codomains, determinism, separation."""

import numpy as np

from pkeet import hashing
from pkeet.hashing import (
    hash_message,
    hash_pm_one,
    hash_to_invertible,
    hash_to_sparse,
    hash_weighted,
)
from pkeet.ring import balanced, get_context, is_invertible
from pkeet.rng import XofRng


def test_message_hash_is_binary_ring_element(ring_small):
    out = hash_message(ring_small, b"payload")
    assert out.coeffs.shape == (ring_small.n,)
    assert set(np.unique(out.coeffs)) <= {0, 1}
    assert hash_message(ring_small, b"payload") == out
    assert hash_message(ring_small, b"payloae") != out


def test_message_hash_is_binary_vector_for_int_params(int_small):
    out = hash_message(int_small, b"payload")
    assert out.shape == (int_small.t_msg,)
    assert set(np.unique(out)) <= {0, 1}
    assert np.array_equal(hash_message(int_small, b"payload"), out)


def test_invertible_hash_lands_in_units(ring_small, monkeypatch):
    rounds = 0

    def counting(elem):
        nonlocal rounds
        rounds += 1
        return is_invertible(elem)

    monkeypatch.setattr(hashing, "is_invertible", counting)
    calls = []
    for i in range(50):
        rounds = 0
        elem = hash_to_invertible(ring_small, b"probe-%d" % i)
        assert is_invertible(elem)
        calls.append(rounds)
    assert min(calls) >= 1
    # Retries happen but stay rare: a unit is hit almost immediately.
    assert max(calls) < 50


def test_sparse_hash_weight_and_signs(ring_small):
    n, w = ring_small.n, ring_small.delta_w
    seen = set()
    for i in range(50):
        out = hash_to_sparse(ring_small, b"sparse-%d" % i)
        bal = balanced(out.coeffs, ring_small.q)
        assert int(np.abs(bal).sum()) == w
        assert set(np.unique(bal)) <= {-1, 0, 1}
        seen.add(tuple(bal.tolist()))
    assert len(seen) == 50    # no accidental collisions across inputs


def test_pm_one_hash(int_small):
    out = hash_pm_one(int_small, b"selector")
    assert out.shape == (int_small.l,)
    assert set(np.unique(out)) <= {-1, 1}
    assert np.array_equal(hash_pm_one(int_small, b"selector"), out)


def test_weighted_hash_exact_weight(int_small):
    k, w = int_small.k_sig, int_small.w_sig
    seen = set()
    for i in range(50):
        out = hash_weighted(int_small, b"msg-%d" % i)
        assert out.shape == (k,)
        assert set(np.unique(out)) <= {0, 1}
        assert int(out.sum()) == w
        seen.add(tuple(out.tolist()))
    assert len(seen) == 50


def test_domains_are_separated(ring_small):
    # The same payload must map to unrelated outputs under different maps.
    payload = b"shared-payload"
    a = hash_message(ring_small, payload).coeffs
    b = hash_to_sparse(ring_small, payload).coeffs
    c = get_context(ring_small).intt(hash_to_invertible(ring_small, payload))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(b, c)


def test_params_digest_binds_output(ring_small, ring_toy):
    # Same payload, different parameter sets: streams must differ.
    a = hash_message(ring_small, b"bound").coeffs
    b = hash_message(ring_toy, b"bound").coeffs
    assert a.shape != b.shape or not np.array_equal(a, b)
    toy = hash_to_sparse(ring_toy, b"bound")
    from pkeet.params import derive_ring_params

    strict = derive_ring_params(128, 256, "strict")
    other = hash_to_sparse(strict, b"bound")
    assert not np.array_equal(toy.coeffs, other.coeffs)


def _sparse_by_calls(params, data: bytes) -> np.ndarray:
    """hash_to_sparse's coefficients with one ``uniform_mod`` call per
    shuffle draw, as the shuffle was first written."""
    n, weight = params.n, params.delta_w
    stream = hashing._hash_stream(hashing.TAG_SPARSE, params, data)
    idx = np.arange(n)
    for i in range(weight):
        j = i + int(stream.uniform_mod(n - i, 1)[0])
        idx[i], idx[j] = idx[j], idx[i]
    coeffs = np.zeros(n, dtype=np.int64)
    coeffs[idx[:weight]] = 2 * hashing._stream_bits(stream, weight) - 1
    return coeffs % params.q


def test_sparse_shuffle_read_matches_per_call_draws():
    from pkeet.params import derive_ring_params

    for n in (64, 256, 1024):
        params = derive_ring_params(128, n, "toy")
        for i in range(50):
            data = b"shuffle-%d" % i
            assert np.array_equal(hash_to_sparse(params, data).coeffs, _sparse_by_calls(params, data))


class _JammedStream(XofRng):
    """A stream whose words ``[start, stop)`` read as 2^64 - 1, which every
    bound but a power of two rejects; it logs the size of each read."""

    def __init__(self, seed: bytes, start: int, stop: int):
        super().__init__(seed)
        self.reads, self._at, self._jam = [], 0, (8 * start, 8 * stop)

    def bytes(self, count: int) -> bytes:
        out = bytearray(super().bytes(count))
        lo, hi = max(self._jam[0] - self._at, 0), min(self._jam[1] - self._at, count)
        if lo < hi:
            out[lo:hi] = b"\xff" * (hi - lo)
        self._at += count
        self.reads.append(count)
        return bytes(out)


def test_sparse_shuffle_falls_back_to_per_call_draws(ring_small, monkeypatch):
    # Each draw reads a group of nine words.  Jamming words 9..44 (groups
    # 1-4) makes draw 1 (bound n - 1) reject four groups and take group 5,
    # so every later draw reads four groups further on, the last four from
    # the stream; draw 0 (bound n, a power of two) accepts all-ones words.
    # The other windows jam groups 0-1, and group 3 with parts of 2 and 4.
    stream = hashing._hash_stream
    for start, stop in ((9, 45), (0, 18), (20, 40)):
        streams = []

        def jammed(*args, **kwargs):
            streams.append(_JammedStream(stream(*args, **kwargs).seed, start, stop))
            return streams[-1]

        monkeypatch.setattr(hashing, "_hash_stream", jammed)
        for i in range(5):
            data = b"jammed-%d" % i
            assert np.array_equal(hash_to_sparse(ring_small, data).coeffs, _sparse_by_calls(ring_small, data))
        weight = ring_small.delta_w
        # The batched read, then per-call reads of nine words: the fallback ran.
        assert streams[0].reads[0] == 8 * 9 * weight and 8 * 9 in streams[0].reads[1:]
