"""Decrypt and test read no randomness, and what they leave behind is pinned.

Both open their slots by trapdoor inversion, which draws nothing, so each
test here runs setup, encrypt, decrypt and test from one fixed-seed stream
and checks that the next 32 bytes after decrypt and test are the 32 bytes
that came right after the encrypts.  A digest over the decrypted bits, the
verdict and those bytes is pinned too: a change that makes decrypt or test
draw, or that changes a keygen or encrypt draw, moves it.

A shallow copy of an ``XofRng`` is a snapshot of its position: reading
from either copy replaces, and never mutates, the block state they share.
"""

import copy
import hashlib

import numpy as np

from pkeet import pkeet_int as pi
from pkeet import pkeet_ring as pr
from pkeet.ring import RingElement, get_context
from conftest import seeded

RING_N64 = "ad30a729aacfe694"
INT_N16 = "7732c3a6c3c672b6"


def _digest(bits: np.ndarray, verdict: int, tail: bytes) -> str:
    data = np.asarray(bits).astype("<i8").tobytes() + bytes([verdict]) + tail
    return hashlib.sha256(data).hexdigest()[:16]


def test_ring_decrypt_and_test_draws_pinned(ring_small):
    p = ring_small
    rng = seeded("stream-ring")
    (pk_a, sk_a), (pk_b, sk_b) = pr.setup(p, rng), pr.setup(p, rng)
    msg = RingElement(rng.uniform_mod(2, p.n), get_context(p))
    ct_a, ct_b = pr.encrypt(pk_a, msg, p, rng), pr.encrypt(pk_b, msg, p, rng)
    after_encrypts = copy.copy(rng).bytes(32)
    out = pr.decrypt(pk_a, sk_a, ct_a, p, rng)
    verdict = pr.test(pr.trapdoor(sk_a, pk_a), pr.trapdoor(sk_b, pk_b), ct_a, ct_b, p, rng)
    assert out == msg and verdict == 1
    tail = rng.bytes(32)
    assert tail == after_encrypts
    assert _digest(out.coeffs, verdict, tail) == RING_N64


def test_int_decrypt_and_test_draws_pinned(int_small):
    p = int_small
    rng = seeded("stream-int")
    (pk_a, sk_a), (pk_b, sk_b) = pi.setup_int(p, rng), pi.setup_int(p, rng)
    msg = rng.uniform_mod(2, p.t_msg)
    ct_a, ct_b = pi.encrypt_int(pk_a, msg, p, rng), pi.encrypt_int(pk_b, msg, p, rng)
    after_encrypts = copy.copy(rng).bytes(32)
    out = pi.decrypt_int(pk_a, sk_a, ct_a, p, rng)
    verdict = pi.test_int(pi.trapdoor_int(sk_a, pk_a), pi.trapdoor_int(sk_b, pk_b), ct_a, ct_b, p, rng)
    assert np.array_equal(out, msg) and verdict == 1
    tail = rng.bytes(32)
    assert tail == after_encrypts
    assert _digest(out, verdict, tail) == INT_N16
