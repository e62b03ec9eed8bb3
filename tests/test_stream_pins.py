"""Decrypt and test draws are pinned through what they leave behind.

The frame digests in ``test_frame_digests.py`` pin every keygen and encrypt
draw, but decrypt and test draw randomness that never reaches a frame.  So
each test here runs setup, encrypt, decrypt and test from one fixed-seed
stream and pins one digest over the decrypted bits, the verdict and the
next 32 bytes of that stream: a change that reorders, merges or drops a
decrypt or test draw moves the digest.
"""

import hashlib

import numpy as np

from pkeet import pkeet_int as pi
from pkeet import pkeet_ring as pr
from pkeet.ring import RingElement, get_context
from conftest import seeded

RING_N64 = "f3eadbcafbd3c195"
INT_N16 = "d9c8fa3b4238f6f7"


def _digest(bits: np.ndarray, verdict: int, tail: bytes) -> str:
    data = np.asarray(bits).astype("<i8").tobytes() + bytes([verdict]) + tail
    return hashlib.sha256(data).hexdigest()[:16]


def test_ring_decrypt_and_test_draws_pinned(ring_small):
    p = ring_small
    rng = seeded("stream-ring")
    (pk_a, sk_a), (pk_b, sk_b) = pr.setup(p, rng), pr.setup(p, rng)
    msg = RingElement(rng.uniform_mod(2, p.n), get_context(p))
    ct_a, ct_b = pr.encrypt(pk_a, msg, p, rng), pr.encrypt(pk_b, msg, p, rng)
    out = pr.decrypt(pk_a, sk_a, ct_a, p, rng)
    verdict = pr.test(pr.trapdoor(sk_a, pk_a), pr.trapdoor(sk_b, pk_b), ct_a, ct_b, p, rng)
    assert out == msg and verdict == 1
    assert _digest(out.coeffs, verdict, rng.bytes(32)) == RING_N64


def test_int_decrypt_and_test_draws_pinned(int_small):
    p = int_small
    rng = seeded("stream-int")
    (pk_a, sk_a), (pk_b, sk_b) = pi.setup_int(p, rng), pi.setup_int(p, rng)
    msg = rng.uniform_mod(2, p.t_msg)
    ct_a, ct_b = pi.encrypt_int(pk_a, msg, p, rng), pi.encrypt_int(pk_b, msg, p, rng)
    out = pi.decrypt_int(pk_a, sk_a, ct_a, p, rng)
    verdict = pi.test_int(pi.trapdoor_int(sk_a, pk_a), pi.trapdoor_int(sk_b, pk_b), ct_a, ct_b, p, rng)
    assert np.array_equal(out, msg) and verdict == 1
    assert _digest(out, verdict, rng.bytes(32)) == INT_N16
