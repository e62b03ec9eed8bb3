"""Ring arithmetic against independent oracles.

The multiplication oracle is plain quadratic convolution with Python
integers; the inversion oracle is a polynomial extended Euclid over Z_q.
Both are slow and obviously correct, which is the point.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from pkeet.errors import InvalidDegree, InvalidParams, NotInvertible
from pkeet.params import MULMOD_CAP, derive_ring_params, is_prime, validate
from pkeet.ring import (
    RingContext,
    RingElement,
    decode_bits,
    decode_gadget,
    dot_ntt,
    gadget_columns,
    get_context,
    invert,
    invmod,
    is_invertible,
    mul_schoolbook,
    mulmod,
)
from conftest import intt_reference, mulmod_reference, ntt_reference, seeded

# (n, q) for the kernel exactness tests: q = 97, the toy moduli at n = 64,
# 256 and 1024, and the largest ring prime (q = 1 mod 128) below the 2^52
# cap, where the fold bound is tightest.
KERNEL_MODULI = [
    (16, 97),
    *((n, derive_ring_params(128, n, "toy").q) for n in (64, 256, 1024)),
    (64, 4503599627367553),
]


def test_transform_round_trip(ring_small):
    ctx = get_context(ring_small)
    rng = seeded("ntt-roundtrip")
    for _ in range(20):
        coeffs = rng.uniform_mod(ctx.q, ctx.n)
        assert np.array_equal(ctx.intt(ctx.ntt(coeffs)), coeffs)


# Ring primes (1 mod 128) in [2^52, 2^53): the smallest and the largest.
ABOVE_CAP = (4503599627373697, 9007199254740481)


def test_ring_primes_above_the_cap_refused():
    base = derive_ring_params(128, 64, "toy")
    for q in ABOVE_CAP:
        assert is_prime(q) and q % 128 == 1 and MULMOD_CAP <= q < 2 * MULMOD_CAP
        with pytest.raises(InvalidParams, match="2\\*\\*52"):
            RingContext(64, q)
        p = dataclasses.replace(base, q=q, k=q.bit_length(), m=q.bit_length() + 2)
        assert validate(p) == ["q", "k", "m"]


def test_kernel_moduli_straddle_the_bounds():
    # The top kernel modulus is the largest ring prime below the cap: no
    # candidate 1 mod 128 between it and the smallest refused one is prime.
    top, above = KERNEL_MODULI[-1][1], ABOVE_CAP[0]
    assert top < MULMOD_CAP < above
    assert is_prime(top) and top % 128 == 1
    assert not any(is_prime(c) for c in range(top + 128, above, 128))


def _kernel_inputs(q, n, label):
    """(6, n) canonical rows: one random row, the edge values 0, 1, q-1,
    q-2 tiled, then each edge value as a whole row."""
    edges = np.array([0, 1, q - 1, q - 2], dtype=np.int64)
    rows = seeded(label).uniform_mod(q, 6 * n).reshape(6, n)
    rows[2:] = edges[:, None]
    rows[1] = np.resize(edges, n)
    return rows


@pytest.mark.parametrize("n, q", KERNEL_MODULI)
def test_mulmod_matches_reference(n, q):
    a = _kernel_inputs(q, n, f"mulmod-a-{q}")
    b = _kernel_inputs(q, n, f"mulmod-b-{q}")[::-1]
    edges = np.array([0, 1, q - 1, q - 2], dtype=np.int64)
    pairs_a, pairs_b = np.repeat(edges, 4), np.tile(edges, 4)
    assert np.array_equal(mulmod(pairs_a, pairs_b, q), mulmod_reference(pairs_a, pairs_b, q))
    assert np.array_equal(mulmod(a, b, q), mulmod_reference(a, b, q))
    # A fixed column with its quotient precomputed, broadcast across rows.
    col = b[:, :1]
    assert np.array_equal(mulmod(a, col, q, col / q), mulmod_reference(a, col, q))


@pytest.mark.parametrize("n, q", KERNEL_MODULI)
def test_transforms_match_reference(n, q):
    ctx = RingContext(n, q)
    rows = _kernel_inputs(q, n, f"ntt-{q}")
    assert np.array_equal(ctx.ntt(rows), ntt_reference(ctx, rows))
    assert np.array_equal(ctx.intt(rows), intt_reference(ctx, rows))
    assert np.array_equal(ctx.ntt(rows[0]), ntt_reference(ctx, rows[0]))
    assert np.array_equal(ctx.intt(ctx.ntt(rows)), rows)


def test_product_matches_schoolbook_small():
    ctx = RingContext(4, 97)
    rng = seeded("mul-small")
    for _ in range(200):
        a, b = rng.uniform_mod(ctx.q, ctx.n), rng.uniform_mod(ctx.q, ctx.n)
        assert np.array_equal(ctx.mul_coeffs(a, b), mul_schoolbook(a, b, ctx.q))


def test_product_matches_schoolbook_full(ring_toy):
    ctx = get_context(ring_toy)
    rng = seeded("mul-full")
    for _ in range(10):
        a, b = rng.uniform_mod(ctx.q, ctx.n), rng.uniform_mod(ctx.q, ctx.n)
        assert np.array_equal(ctx.mul_coeffs(a, b), mul_schoolbook(a, b, ctx.q))


def test_negacyclic_wraparound():
    # x^(n-1) * x = x^n = -1 in Z_q[x]/(x^n + 1).
    ctx = RingContext(8, 97)
    xn1 = np.zeros(8, dtype=np.int64)
    xn1[7] = 1
    x = np.zeros(8, dtype=np.int64)
    x[1] = 1
    want = np.zeros(8, dtype=np.int64)
    want[0] = 96
    assert np.array_equal(ctx.mul_coeffs(xn1, x), want)
    assert np.array_equal(mul_schoolbook(xn1, x, ctx.q), want)


def test_inverse_is_two_sided():
    ctx = RingContext(4, 97)
    rng = seeded("inverse")
    done = 0
    while done < 50:
        a = rng.uniform_mod(ctx.q, ctx.n)
        if not is_invertible(ctx.ntt(a)):
            continue
        done += 1
        inv = invert(a, ctx)
        one = np.zeros(4, dtype=np.int64)
        one[0] = 1
        assert np.array_equal(mul_schoolbook(a, inv, ctx.q), one)
        assert np.array_equal(mul_schoolbook(inv, a, ctx.q), one)


@pytest.mark.parametrize("q", [97, 127887583264769, (1 << 56) - 5])
def test_slot_inverse_matches_python_pow(q):
    # The last modulus is the largest prime below the multiply kernel cap.
    values = seeded(f"invmod-{q}").uniform_mod(q - 1, 500) + 1
    values[:2] = (1, q - 1)
    want = np.array([pow(int(v), q - 2, q) for v in values], dtype=np.int64)
    assert np.array_equal(invmod(values, q), want)


def test_inverse_matches_extended_euclid_oracle():
    from pkeet.acceptance import _poly_inverse_xgcd

    ctx = RingContext(4, 97)
    rng = seeded("inverse-oracle")
    for _ in range(100):
        a = rng.uniform_mod(ctx.q, ctx.n)
        oracle = _poly_inverse_xgcd(a, 4, 97)
        if is_invertible(ctx.ntt(a)):
            assert oracle is not None
            assert np.array_equal(invert(a, ctx), oracle)
        else:
            assert oracle is None


def test_non_invertible_rejected():
    ctx = RingContext(4, 97)
    hat = np.array([0, 5, 9, 13], dtype=np.int64)   # one zero evaluation slot
    assert not is_invertible(hat)
    with pytest.raises(NotInvertible):
        invert(ctx.intt(hat), ctx)


def test_bit_codec_exhaustive():
    ctx = RingContext(4, 97)
    for value in range(16):
        bits = np.array([(value >> i) & 1 for i in range(4)], dtype=np.int64)
        assert np.array_equal(decode_bits((ctx.q // 2) * bits, ctx.q), bits)


def test_bit_codec_noise_margin(ring_toy, int_small):
    # Decoding survives additive error strictly inside (-q/4, q/4] per slot.
    ctx = RingContext(4, 97)
    bits = np.array([1, 0, 1, 1], dtype=np.int64)
    base = (ctx.q // 2) * bits
    assert np.array_equal(decode_bits(base + 23, ctx.q), bits)       # 23 < 97/4
    assert not np.array_equal(decode_bits(base + 25, ctx.q), bits)   # 25 > 97/4: slots flip
    # The band [ceil(q/4), floor(3q/4)) at its edges, for the ring n=256 and
    # integer n=16 moduli, as residues and shifted by -q.
    for q in (ring_toy.q, int_small.q):
        lo, hi = -(-q // 4), (3 * q) // 4
        edges = np.array([lo - 1, lo, hi - 1, hi], dtype=np.int64)
        assert decode_bits(edges, q).tolist() == [0, 1, 1, 0]
        assert decode_bits(edges - q, q).tolist() == [0, 1, 1, 0]


@pytest.mark.parametrize("q,bound,cols", [
    (97, 7, [0, 2, 4]),
    (97, 15, [0, 1, 2, 3, 4, 5]),
    (12289, 5, [0, 10]),
])
def test_gadget_decoder_at_and_past_its_bound(q, bound, cols):
    # Every y in Z_q comes back from the columns the decoder reads when
    # each one's error lies within the bound: every sign pattern of errors
    # exactly at the bound, and random errors within it.  Errors one past
    # the bound break some y.
    k = q.bit_length()
    assert gadget_columns(q, bound) == cols
    ys = np.arange(q, dtype=np.int64)
    gadget = np.int64(1) << np.arange(k, dtype=np.int64)

    def wrong(err: np.ndarray) -> int:
        w = (gadget[:, None] * ys[None, :] + err) % q
        return int((decode_gadget(w[cols], q, bound) != ys).sum())

    for size, expect_wrong in ((bound, False), (bound + 1, True)):
        total = 0
        for signs in itertools.product((-1, 0, 1), repeat=len(cols)):
            err = np.zeros((k, 1), dtype=np.int64)
            err[cols, 0] = size * np.array(signs)
            total += wrong(err)
        assert (total > 0) == expect_wrong
    rng = seeded(f"gadget-decoder-{q}-{bound}")
    assert wrong(rng.uniform_mod(2 * bound + 1, k * q).reshape(k, q) - bound) == 0


def test_gadget_decoder_refuses_a_bound_past_the_modulus():
    # 15 is the largest error bound at q = 97: at 16, the column after
    # column 0 can no longer shrink the uncertainty.
    assert gadget_columns(97, 0) == [0]
    for bound in (16, 48, 97, 10**6):
        with pytest.raises(InvalidParams, match="does not fit"):
            gadget_columns(97, bound)


def test_shape_and_context_guards():
    ctx = RingContext(4, 97)
    with pytest.raises(InvalidDegree):
        RingElement(np.zeros(5, dtype=np.int64), ctx)


def test_vector_product_matches_elementwise_sum(ring_small):
    ctx = get_context(ring_small)
    rng = seeded("dot")
    a = [rng.uniform_mod(ctx.q, ctx.n) for _ in range(5)]
    b = [rng.uniform_mod(ctx.q, ctx.n) for _ in range(5)]
    via_ntt = ctx.intt(dot_ntt(ctx.ntt(np.stack(a)), ctx.ntt(np.stack(b)), ctx))
    oracle = sum(mul_schoolbook(x, y, ctx.q) for x, y in zip(a, b)) % ctx.q
    assert np.array_equal(via_ntt, oracle)
