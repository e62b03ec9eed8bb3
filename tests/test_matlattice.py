"""Integer-lattice machinery: exact modular algebra and the gadget trapdoor."""

import copy
import dataclasses
import hashlib
import math

import numpy as np
import pytest

from pkeet import matlattice, sampling, serial
from pkeet import pkeet_int as pi
from pkeet.errors import CovarianceNotPD, GenerationFailed, InvalidParams
from pkeet.params import int_gadget_width
from pkeet.ring import balanced
from pkeet.sampling import sample_z_reject
from pkeet.matlattice import (
    gadget_residual,
    mat_uniform,
    matmul_mod,
    sample_left,
    trap_gen_int,
)
from conftest import seeded


def test_matmul_mod_matches_bigint_oracle():
    rng = seeded("matmul")
    q = 4503599627370449   # the largest prime below the 2^52 cap
    a = rng.uniform_mod(q, 12).reshape(3, 4)
    b = rng.uniform_mod(q, 20).reshape(4, 5)
    got = matmul_mod(a, b, q)
    oracle = np.empty((3, 5), dtype=np.int64)
    for i in range(3):
        for j in range(5):
            acc = sum(int(a[i, t]) * int(b[t, j]) for t in range(4))
            oracle[i, j] = acc % q
    assert np.array_equal(got, oracle)


def test_matmul_mod_large_inner_dimension():
    rng = seeded("matmul-wide")
    q = 631848601
    a = rng.uniform_mod(q, 2 * 3000).reshape(2, 3000)
    b = rng.uniform_mod(q, 3000)
    got = matmul_mod(a, b.reshape(-1, 1), q).reshape(-1)
    oracle = [sum(int(x) * int(y) for x, y in zip(row, b)) % q for row in a]
    assert got.tolist() == oracle


def test_balanced_mod_range(ring_toy, int_small):
    q = 97
    vals = np.arange(0, q, dtype=np.int64)
    bal = balanced(vals, q)
    assert int(bal.min()) >= -(q // 2) and int(bal.max()) <= q // 2
    assert np.array_equal(bal % q, vals)
    # The edges of [0, q) at the ring n=256 and integer n=16 moduli, against
    # the branch form of the lift.
    for q in (ring_toy.q, int_small.q):
        edges = np.array([0, q // 2, q // 2 + 1, q - 1], dtype=np.int64)
        assert balanced(edges, q).tolist() == [0, q // 2, q // 2 + 1 - q, -1]
        assert np.array_equal(balanced(edges, q), np.where(edges > q // 2, edges - q, edges))


def _trap_gen(p, rng):
    """``trap_gen_int`` on a uniform ``A_bar`` drawn from ``rng`` first."""
    return trap_gen_int(mat_uniform(p.q, p.n, p.m_bar, rng), p, rng)


def test_trapdoor_gadget_identity(int_small):
    rng = seeded("int-trap")
    a_mat, trap = _trap_gen(int_small, rng)
    n, m, q = int_small.n, int_small.m, int_small.q
    nk = n * int_small.k
    assert a_mat.shape == (n, m)
    assert trap.shape == (int_small.m_bar, nk)
    # A [R; I] = G exactly, with G the block-diagonal gadget matrix.
    stacked = np.concatenate([trap, np.eye(nk, dtype=np.int64)])
    gadget = np.kron(np.eye(n, dtype=np.int64), 1 << np.arange(int_small.k))
    assert np.array_equal(matmul_mod(a_mat, stacked % q, q), gadget)
    assert not gadget_residual(a_mat, trap, q).any()
    # R comes from the width-sigma_r sampler, inside its tail cut.
    assert int(np.abs(trap).max()) <= int_small.t_tail * int_small.sigma_r


def test_r_is_held_once_as_exact_float64(int_small):
    # R's entries lie far below 2^53: held as float64, every one is exact,
    # and its products equal those of the int64 R.
    p = int_small
    rng = seeded("int-r-float")
    a_bar = mat_uniform(p.q, p.n, p.m_bar, rng)
    _, trap = trap_gen_int(a_bar, p, rng)
    assert trap.dtype == np.float64
    r_int = trap.astype(np.int64)
    assert np.array_equal(r_int, trap)
    z = rng.uniform_mod(61, p.n * p.k * p.t_msg).reshape(p.n * p.k, p.t_msg) - 30
    assert np.array_equal(matlattice._exact_matmul(trap, z, p.q), r_int @ z)
    assert np.array_equal(matlattice._mul_signed(a_bar, trap, p.q), matmul_mod(a_bar, r_int, p.q))
    # Its frame packs the int64 values, and decoding holds R as float64 again.
    sk = pi.SkInt(t_a=trap, t_a_prime=trap)
    got = serial.decode_object(serial.encode_int_sk(sk, p))[3]
    assert got.t_a.dtype == np.float64 and np.array_equal(got.t_a, trap)


def test_loading_int_keys_factors_nothing(int_small, monkeypatch):
    # Decrypt and test read R alone, so decoding an sk or td frame runs no
    # Cholesky; a decoded R is the drawn one, so preimages sampled from it
    # match those of the key in memory.
    p = int_small
    rng = seeded("int-load-no-factor")
    (pk_a, sk_a), (pk_b, sk_b) = pi.setup_int(p, rng), pi.setup_int(p, rng)
    msg = rng.uniform_mod(2, p.t_msg)
    ct_a, ct_b = pi.encrypt_int(pk_a, msg, p, rng), pi.encrypt_int(pk_b, msg, p, rng)
    frames = [serial.encode_int_sk(sk_a, p)] + [
        serial.encode_int_td(pi.trapdoor_int(sk, pk), p) for pk, sk in ((pk_a, sk_a), (pk_b, sk_b))
    ]

    def refuse(*args):
        raise AssertionError("a Cholesky factor was computed")

    with monkeypatch.context() as patch:
        patch.setattr(sampling, "cholesky_pd", refuse)
        sk, td_a, td_b = (serial.decode_object(frame)[3] for frame in frames)
        assert np.array_equal(pi.decrypt_int(pk_a, sk, ct_a, p, rng), msg)
        assert pi.test_int(td_a, td_b, ct_a, ct_b, p, rng) == 1

    m1, u_mat = mat_uniform(p.q, p.n, p.m, rng), mat_uniform(p.q, p.n, p.t_msg, rng)
    loaded, kept = (
        sample_left([(pk_a.a, m1, r, u_mat)], p, copy.copy(rng)) for r in (sk.t_a, sk_a.t_a)
    )
    assert np.array_equal(loaded, kept)


def test_perturbation_factor_reproduces_covariance(int_small, monkeypatch):
    """The gadget-first factor [[L, -(w^2/sqrt(d)) R], [0, sqrt(d) I]]
    squares to (sigma^2 - sigma_r^2) I - w^2 [R; I][R; I]^T, and it is the
    map sample_left applies to its standard normals."""
    p = int_small
    rng = seeded("int-factor")
    a_mat, trap = _trap_gen(p, rng)
    r = trap.astype(np.float64)
    m_bar, nk = r.shape
    sqrt_d, chol = matlattice.perturbation_factor(r, p)
    assert chol.shape == (m_bar, m_bar)
    w_sq = int_gadget_width(p.m) ** 2
    factor = np.zeros((p.m, p.m))
    factor[:m_bar, :m_bar] = chol
    factor[:m_bar, m_bar:] = -(w_sq / sqrt_d) * r
    factor[m_bar:, m_bar:] = sqrt_d * np.eye(nk)
    stacked = np.concatenate([r, np.eye(nk)])
    want = (p.sigma**2 - p.sigma_r**2) * np.eye(p.m) - w_sq * (stacked @ stacked.T)
    got = factor @ factor.T
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-12

    # Fed the identity as its m x m normal draw, sample_left's rounding
    # centers are the factor's columns over sqrt(2 pi).
    class Stop(Exception):
        pass

    def rounding(width, centers, rng_, *rest):
        if width == p.sigma_r:
            raise Stop(centers)
        return sample_z_reject(width, centers, rng_, *rest)

    normal = rng.normal
    monkeypatch.setattr(rng, "normal", lambda count: (
        np.eye(p.m).reshape(-1) if count == p.m * p.m else normal(count)))
    monkeypatch.setattr(matlattice, "sample_z_reject", rounding)
    m1, u_mat = mat_uniform(p.q, p.n, p.m, rng), mat_uniform(p.q, p.n, p.m, rng)
    with pytest.raises(Stop) as stop:
        sample_left([(a_mat, m1, trap, u_mat)], p, rng)
    centers = stop.value.args[0] * math.sqrt(2 * math.pi)
    assert np.linalg.norm(centers - factor) / np.linalg.norm(factor) < 1e-12


def test_preimage_hides_trapdoor(int_small):
    """Along the top singular direction of [R; I], where an unperturbed
    preimage would spread only about 0.65 as wide, the preimage keeps the
    spherical deviation sigma / sqrt(2 pi)."""
    rng = seeded("int-hidden")
    q, m = int_small.q, int_small.m
    a_mat, trap = _trap_gen(int_small, rng)
    m1 = mat_uniform(q, int_small.n, m, rng)
    stacked = np.concatenate([trap, np.eye(trap.shape[1])]).astype(np.float64)
    top = np.linalg.svd(stacked, full_matrices=False)[0][:, 0]
    proj = np.concatenate([
        top @ sample_left([(a_mat, m1, trap, mat_uniform(q, int_small.n, 32, rng))], int_small, rng)[0, :m]
        for _ in range(10)
    ])
    assert proj.size >= 320
    sd = int_small.sigma / math.sqrt(2 * math.pi)
    assert abs(float(proj.std()) / sd - 1.0) < 0.15


def test_trap_gen_redraws_only_r(int_small, monkeypatch):
    # The positive-definiteness check reads R alone: a refused draw costs a
    # new R, and A keeps the A_bar it was given.
    p = int_small
    rng = seeded("int-redraw")
    a_bar = mat_uniform(p.q, p.n, p.m_bar, rng)
    factor, calls = matlattice.perturbation_factor, []

    def refuse_first(r, params):
        calls.append(r)
        if len(calls) == 1:
            raise CovarianceNotPD("refused for the test")
        return factor(r, params)

    monkeypatch.setattr(matlattice, "perturbation_factor", refuse_first)
    a_mat, trap = trap_gen_int(a_bar, p, rng)
    assert len(calls) == 2 and not np.array_equal(calls[0], calls[1])
    assert np.array_equal(trap, calls[1])
    assert np.array_equal(a_mat[:, : p.m_bar], a_bar)
    assert not gadget_residual(a_mat, trap, p.q).any()


def test_width_guard(int_small):
    narrow = dataclasses.replace(int_small, sigma=int_small.sigma / 2)
    with pytest.raises(GenerationFailed):
        _trap_gen(narrow, seeded("width-guard"))


def test_int_sk_frame_holds_r(int_small):
    pk, sk = pi.setup_int(int_small, seeded("int-sk-frame"))
    blob = serial.encode_int_sk(sk, int_small)
    header = 23 + 4 + len(int_small.canonical_text().encode())
    # Two R matrices, entries in [-53, 53] packed at 7 bits.
    bits = (2 * math.floor(int_small.t_tail * int_small.sigma_r)).bit_length()
    assert bits == 7
    assert len(blob) == header + 2 * ((int_small.m_bar * int_small.n * int_small.k * bits + 7) // 8)


def test_left_sampler_exact_and_gaussian(int_small):
    rng = seeded("left")
    q = int_small.q
    a_mat, trap = _trap_gen(int_small, rng)
    m1 = mat_uniform(q, int_small.n, int_small.m, rng)
    f_mat = np.concatenate([a_mat, m1], axis=1)
    u_mat = mat_uniform(q, int_small.n, 5, rng)
    e = sample_left([(a_mat, m1, trap, u_mat)], int_small, rng)[0]
    assert e.shape == (2 * int_small.m, 5)
    assert np.array_equal(matmul_mod(f_mat, e % q, q), u_mat)
    sd = int_small.sigma / math.sqrt(2 * math.pi)
    emp = float(e.astype(float).std())
    assert 0.5 * sd < emp < 2.0 * sd


def test_two_job_preimages_exact(int_small):
    # Two trapdoors, two selector matrices, two syndromes, one call.
    rng = seeded("left-two-jobs")
    q, n, m = int_small.q, int_small.n, int_small.m
    jobs = []
    for _ in range(2):
        a_mat, trap = _trap_gen(int_small, rng)
        jobs.append((a_mat, mat_uniform(q, n, m, rng), trap, mat_uniform(q, n, 7, rng)))
    e = sample_left(jobs, int_small, rng)
    assert e.shape == (2, 2 * m, 7)
    for (a_mat, m1, _, u_mat), e_j in zip(jobs, e):
        f_mat = np.concatenate([a_mat, m1], axis=1)
        assert np.array_equal(matmul_mod(f_mat, e_j % q, q), u_mat)


def test_one_job_preimage_pinned(int_small):
    # Pins the draws of a one-job call: e2, the perturbation and its
    # rounding, and the gadget walk, each in its stream order.
    rng = seeded("left-pin")
    p = int_small
    a_mat, trap = _trap_gen(p, rng)
    m1 = mat_uniform(p.q, p.n, p.m, rng)
    u_mat = mat_uniform(p.q, p.n, p.t_msg, rng)
    e = sample_left([(a_mat, m1, trap, u_mat)], p, rng)[0]
    assert hashlib.sha256(e.astype("<i8").tobytes()).hexdigest()[:16] == "df6d1e3c26308946"


def test_preimage_jobs_must_match_shapes(int_small):
    rng = seeded("left-shapes")
    p = int_small
    a_mat, trap = _trap_gen(p, rng)
    m1 = mat_uniform(p.q, p.n, p.m, rng)
    with pytest.raises(InvalidParams):
        sample_left([(a_mat, m1, trap, mat_uniform(p.q, p.n, 3, rng)),
                     (a_mat, m1, trap, mat_uniform(p.q, p.n, 4, rng))], p, rng)
    with pytest.raises(InvalidParams):
        sample_left([(a_mat[:, :-1], m1, trap, mat_uniform(p.q, p.n, 3, rng))], p, rng)
