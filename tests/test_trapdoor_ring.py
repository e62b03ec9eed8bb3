"""Tagged trapdoors: exact identities, tag algebra, preimage quality."""

import hashlib
import math

import numpy as np
import pytest

from pkeet.errors import ParamsMismatch, TagNotInvertible
from pkeet.params import derive_ring_params
from pkeet.ring import balanced, get_context
from pkeet.trapdoor_ring import (
    TaggedVector,
    apply_tag_shift,
    apply_vector,
    sample_pre,
    trap_gen,
    trapdoor_identity_residual,
)
from conftest import seeded


def uniform_shift(ctx, rng):
    """NTT slots of a uniform ring element, the form a tag shift takes."""
    return ctx.ntt(rng.uniform_mod(ctx.q, ctx.n))


def test_identity_holds_for_zero_tag(ring_small):
    rng = seeded("trap-zero")
    for _ in range(10):
        av, trap = trap_gen(ring_small, rng)
        assert not trapdoor_identity_residual(av, trap).any()


def test_trap_gen_forms_agree(ring_small):
    # trap_gen builds the slots and the cached coefficient form separately;
    # a sign slip in the tail or any drift between the two must show here.
    ctx = get_context(ring_small)
    rng = seeded("trap-forms")
    for _ in range(5):
        av, _ = trap_gen(ring_small, rng)
        assert np.array_equal(TaggedVector.from_coeffs(av.vec, ctx).vec_hat, av.vec_hat)
        assert not av.tag_hat.any()


def test_identity_holds_for_random_tags(ring_small):
    ctx = get_context(ring_small)
    rng = seeded("trap-tagged")
    for _ in range(10):
        av, trap = trap_gen(ring_small, rng)
        tagged = apply_tag_shift(av, uniform_shift(ctx, rng))
        assert not trapdoor_identity_residual(tagged, trap).any()


def test_tag_shift_algebra(ring_small):
    ctx = get_context(ring_small)
    rng = seeded("shift")
    av, trap = trap_gen(ring_small, rng)
    unshifted = apply_tag_shift(av, np.zeros(ctx.n, dtype=np.int64))
    assert np.array_equal(unshifted.vec_hat, av.vec_hat)
    assert np.array_equal(unshifted.tag_hat, av.tag_hat)

    h1, h2 = rng.uniform_mod(ctx.q, ctx.n), rng.uniform_mod(ctx.q, ctx.n)
    h1_hat, h2_hat, sum_hat = ctx.ntt(np.stack([h1, h2, (h1 + h2) % ctx.q]))
    once = apply_tag_shift(apply_tag_shift(av, h1_hat), h2_hat)
    combined = apply_tag_shift(av, sum_hat)
    assert np.array_equal(once.vec_hat, combined.vec_hat)
    assert np.array_equal(once.tag_hat, combined.tag_hat)
    assert np.array_equal(once.tag_hat, sum_hat)
    assert not trapdoor_identity_residual(apply_tag_shift(av, h1_hat), trap).any()


def test_tag_shift_rejects_other_degree(ring_small):
    av, _ = trap_gen(ring_small, seeded("shift-degree"))
    with pytest.raises(ParamsMismatch):
        apply_tag_shift(av, np.zeros(ring_small.n // 2, dtype=np.int64))


def test_trapdoor_norm_contract(ring_small):
    rng = seeded("norm")
    cap = ring_small.t_tail * ring_small.sigma_trap * math.sqrt(
        ring_small.base_len * ring_small.n
    )
    for _ in range(20):
        _, trap = trap_gen(ring_small, rng)
        assert trap.norm() <= cap


def test_preimage_residual_exact(ring_small):
    ctx = get_context(ring_small)
    rng = seeded("preimage")
    av, trap = trap_gen(ring_small, rng)
    shifted = apply_tag_shift(av, uniform_shift(ctx, rng))
    for _ in range(25):
        u = rng.uniform_mod(ctx.q, ctx.n)
        x_hat = sample_pre([(trap, shifted, u)], ring_small, rng)[0]
        assert np.array_equal(apply_vector(shifted, x_hat), u)


def test_preimage_norm_profile(ring_small):
    ctx = get_context(ring_small)
    rng = seeded("preimage-norm")
    av, trap = trap_gen(ring_small, rng)
    shifted = apply_tag_shift(av, uniform_shift(ctx, rng))
    cap = ring_small.t_tail * ring_small.zeta * math.sqrt(ring_small.m * ring_small.n)
    for _ in range(50):
        u = rng.uniform_mod(ctx.q, ctx.n)
        x = balanced(ctx.intt(sample_pre([(trap, shifted, u)], ring_small, rng)[0]), ctx.q)
        norm = math.sqrt(float((x.astype(np.float64) ** 2).sum()))
        assert norm <= cap


def test_zero_tag_is_not_invertible(ring_small):
    ctx = get_context(ring_small)
    rng = seeded("zero-tag")
    av, trap = trap_gen(ring_small, rng)
    u = rng.uniform_mod(ctx.q, ctx.n)
    with pytest.raises(TagNotInvertible):
        sample_pre([(trap, av, u)], ring_small, rng)


def test_two_job_preimages_exact(ring_small):
    # Two trapdoors, two tags and two targets in one call: each row is a
    # preimage under its own vector.
    ctx = get_context(ring_small)
    rng = seeded("preimage-two-jobs")
    av1, trap1 = trap_gen(ring_small, rng)
    av2, trap2 = trap_gen(ring_small, rng)
    for _ in range(10):
        jobs = [
            (trap1, apply_tag_shift(av1, uniform_shift(ctx, rng)), rng.uniform_mod(ctx.q, ctx.n)),
            (trap2, apply_tag_shift(av2, uniform_shift(ctx, rng)), rng.uniform_mod(ctx.q, ctx.n)),
        ]
        x_hat = sample_pre(jobs, ring_small, rng)
        assert x_hat.shape == (2, ring_small.m, ring_small.n)
        for j, (_, shifted, u) in enumerate(jobs):
            assert np.array_equal(apply_vector(shifted, x_hat[j]), u)


def test_two_job_preimage_pinned(ring_small):
    # Pins the draws of a two-job call: each job's perturbation and its
    # rounding, then one gadget walk for both, each in its stream order.
    ctx = get_context(ring_small)
    rng = seeded("preimage-pin")
    jobs = []
    for _ in range(2):
        av, trap = trap_gen(ring_small, rng)
        jobs.append((trap, apply_tag_shift(av, uniform_shift(ctx, rng)), rng.uniform_mod(ctx.q, ctx.n)))
    x_hat = sample_pre(jobs, ring_small, rng)
    assert hashlib.sha256(x_hat.astype("<i8").tobytes()).hexdigest()[:16] == "1333b64adb624abd"


@pytest.mark.parametrize("zero_job", [0, 1])
def test_two_job_zero_tag_slot_rejected(ring_small, zero_job):
    ctx = get_context(ring_small)
    rng = seeded("two-jobs-zero-slot")
    jobs = []
    for _ in range(2):
        av, trap = trap_gen(ring_small, rng)
        jobs.append((trap, apply_tag_shift(av, uniform_shift(ctx, rng)), rng.uniform_mod(ctx.q, ctx.n)))
    trap, shifted, u = jobs[zero_job]
    tag_hat = shifted.tag_hat.copy()
    tag_hat[3] = 0
    jobs[zero_job] = (trap, TaggedVector(shifted.vec_hat, tag_hat, ctx), u)
    with pytest.raises(TagNotInvertible):
        sample_pre(jobs, ring_small, rng)


def test_two_job_mixed_contexts_rejected(ring_small):
    ctx = get_context(ring_small)
    rng = seeded("two-jobs-contexts")
    av, trap = trap_gen(ring_small, rng)
    job = (trap, apply_tag_shift(av, uniform_shift(ctx, rng)), rng.uniform_mod(ctx.q, ctx.n))
    other = derive_ring_params(128, 32, "toy")
    other_ctx = get_context(other)
    av_o, trap_o = trap_gen(other, rng)
    other_job = (
        trap_o,
        apply_tag_shift(av_o, uniform_shift(other_ctx, rng)),
        rng.uniform_mod(other_ctx.q, other_ctx.n),
    )
    for jobs in ([job, other_job], [other_job, job]):
        with pytest.raises(ParamsMismatch):
            sample_pre(jobs, ring_small, rng)


def test_head_slots_uniform_chi_square(ring_small):
    # The uniform head of the public vector must look uniform mod q; the
    # gadget tail is pseudorandom and deliberately not asserted here.
    rng = seeded("uniformity")
    samples = []
    for _ in range(30):
        av, _ = trap_gen(ring_small, rng)
        samples.append(av.vec[: ring_small.base_len].reshape(-1))
    pooled = np.concatenate(samples).astype(np.float64)
    bins = 16
    idx = np.floor(pooled / ring_small.q * bins).astype(int)
    observed = np.bincount(idx, minlength=bins)
    expected = pooled.size / bins
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    # 15 degrees of freedom: 44.3 corresponds to a ~1e-4 false-alarm rate.
    assert chi2 < 44.3, f"chi-square {chi2:.1f}"
