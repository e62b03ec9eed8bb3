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
from pkeet.ring import get_context, is_invertible


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
        bal = out.balanced()
        assert int(np.abs(bal).sum()) == w
        assert set(np.unique(bal)) <= {-1, 0, 1}
        seen.add(tuple(bal.tolist()))
    assert len(seen) == 50    # no accidental collisions across inputs


def test_pm_one_hash(int_small):
    out = hash_pm_one(int_small, b"selector", int_small.l)
    assert out.shape == (int_small.l,)
    assert set(np.unique(out)) <= {-1, 1}
    assert np.array_equal(hash_pm_one(int_small, b"selector", int_small.l), out)


def test_weighted_hash_exact_weight(int_small):
    k, w = int_small.k_sig, int_small.w_sig
    seen = set()
    for i in range(50):
        out = hash_weighted(int_small, b"msg-%d" % i, k, w)
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
